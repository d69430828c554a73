"""CLI for the TEA replay service.

Examples::

    # Build a snapshot into a store (records traces, replays for a
    # profile, writes the binary TEAB snapshot):
    python -m repro.service build --store .tea_store \\
        --benchmark 164.gzip --scale 0.5 --threshold 10 --profile

    # Serve every snapshot in the store:
    python -m repro.service serve --store .tea_store --port 7321

    # Fire one RPC from the shell:
    python -m repro.service call --port 7321 ping
    python -m repro.service call --port 7321 replay \\
        --params '{"config": "global_local"}'
"""

import argparse
import asyncio
import json
import signal
import sys

from repro.core import TeaProfile, build_tea
from repro.cpu.stream import ExecutionStream
from repro.dbt import StarDBT
from repro.errors import ReproError
from repro.pin import Pin, TeaReplayTool
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, TeaService
from repro.store import DEFAULT_STORE_DIR, AutomatonStore
from repro.traces import STRATEGIES
from repro.traces.recorder import RecorderLimits
from repro.util import atomic_write_text
from repro.workloads import BENCHMARKS, load_benchmark


def _cmd_build(args):
    """Record a benchmark, build its TEA, snapshot it into the store.

    The program runs on the interpreter once: StarDBT records traces
    from that run's stream, the ``--profile`` replay consumes it too,
    and it is stored as the program's stream sidecar, which the service
    replays from.  The program itself is stored as the snapshot's
    image, so this is the one place it is generated and assembled.
    """
    workload = load_benchmark(args.benchmark, scale=args.scale)
    stream = ExecutionStream.record(workload.program)
    limits = RecorderLimits(hot_threshold=args.threshold)
    recorded = StarDBT(
        workload.program, strategy=args.strategy, limits=limits,
        stream=stream,
    ).run()
    trace_set = recorded.trace_set
    tea = build_tea(trace_set)
    profile = None
    if args.profile:
        profile = TeaProfile()
        tool = TeaReplayTool(trace_set=trace_set, profile=profile, tea=tea)
        Pin(workload.program, tool=tool, stream=stream).run()
    meta = {
        "benchmark": args.benchmark,
        "scale": args.scale,
        "strategy": args.strategy,
        "hot_threshold": args.threshold,
    }
    if args.label:
        meta["label"] = args.label
    store = AutomatonStore(args.store)
    # A rebuild under the same alias supersedes the snapshots the alias
    # currently names: the service's ``reload`` RPC retires them on the
    # next hot swap and ``store gc`` prunes them from disk afterwards.
    alias = args.label or args.benchmark
    superseded = []
    for old_key in store.keys():
        try:
            old_meta = store.describe(old_key).get("meta") or {}
        except ReproError:
            continue
        if (old_meta.get("label") or old_meta.get("benchmark")) == alias:
            superseded.append(old_key)
    if superseded:
        meta["supersedes"] = sorted(superseded)
    # The sidecar and the image go first, so a server that reloads
    # between the writes never meets the snapshot without them.
    stream_key = store.put_stream(stream)
    key = store.put(trace_set, tea=tea, profile=profile, meta=meta,
                    program=workload.program)
    info = store.describe(key)
    print("snapshot %s" % key)
    print("  %d traces, %d states, %d transitions, %d heads, %s profile"
          % (info["traces"], info["states"], info["transitions"],
             info["heads"], "with" if info["profile"] else "no"))
    print("  %d bytes in %s" % (info["bytes"], store.path_for(key)))
    print("  stream %s: %d blocks, %d instructions"
          % (stream_key[:12], stream.n_transitions, stream.instrs_dbt))
    for old_key in superseded:
        print("  supersedes %s" % old_key)
    return 0


def _cmd_serve(args):
    """Run the server until SIGTERM/SIGINT, then drain gracefully."""
    store = AutomatonStore(args.store)
    config = ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        request_timeout=args.timeout, max_payload=args.max_payload,
        drain_timeout=args.drain_timeout, debug=args.debug,
    )
    service = TeaService(store, config=config)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        loop.run_until_complete(service.start())
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, service.initiate_shutdown)
        host, port = service.address
        print("repro.service listening on %s:%d (%d snapshots, %d workers)"
              % (host, port, len(service.entries), config.workers),
              flush=True)
        if args.port_file:
            atomic_write_text(args.port_file, "%d\n" % port)
        loop.run_until_complete(service.serve_forever())
        print("repro.service drained cleanly", flush=True)
    finally:
        loop.close()
    return 0


def _cmd_call(args):
    """One client RPC; prints the JSON result."""
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as error:
        print("error: --params is not valid JSON: %s" % error,
              file=sys.stderr)
        return 2
    if not isinstance(params, dict):
        print("error: --params must be a JSON object", file=sys.stderr)
        return 2
    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        result = client.call(args.method, **params)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="build, serve and query TEA automaton snapshots",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser(
        "build", help="record a benchmark and snapshot its TEA into a store"
    )
    build.add_argument("--store", default=DEFAULT_STORE_DIR,
                       help="store directory (default %(default)s)")
    build.add_argument("--benchmark", required=True,
                       choices=sorted(BENCHMARKS))
    build.add_argument("--scale", type=float, default=1.0)
    build.add_argument("--strategy", choices=sorted(STRATEGIES),
                       default="mret")
    build.add_argument("--threshold", type=int, default=30,
                       help="hot threshold (default 30)")
    build.add_argument("--profile", action="store_true",
                       help="replay once to embed profile counters")
    build.add_argument("--label", help="friendly alias for the snapshot")

    serve = commands.add_parser("serve", help="run the replay server")
    serve.add_argument("--store", default=DEFAULT_STORE_DIR,
                       help="store directory (default %(default)s)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7321,
                       help="TCP port (0 = pick a free one)")
    serve.add_argument("--workers", type=int, default=4,
                       help="replay worker threads (default 4)")
    serve.add_argument("--timeout", type=float, default=60.0,
                       help="per-request timeout in seconds")
    serve.add_argument("--max-payload", type=int,
                       default=ServiceConfig().max_payload,
                       help="per-frame payload cap in bytes")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to wait for in-flight work on shutdown")
    serve.add_argument("--port-file",
                       help="write the bound port here once listening")
    serve.add_argument("--debug", action="store_true",
                       help="enable debug RPCs (sleep) — tests only")

    call = commands.add_parser("call", help="fire one RPC as a client")
    call.add_argument("method", help="RPC method name (e.g. ping, stats)")
    call.add_argument("--host", default="127.0.0.1")
    call.add_argument("--port", type=int, default=7321)
    call.add_argument("--timeout", type=float, default=60.0)
    call.add_argument("--params", help="JSON object of method params")

    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "serve":
            return _cmd_serve(args)
        return _cmd_call(args)
    except (ReproError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
