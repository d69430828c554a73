"""CLI entry point for the record/replay/info tools.

Examples::

    python -m repro.tools record --benchmark 176.gcc --out traces.json
    python -m repro.tools record --source program.s --strategy tt --out t.json
    python -m repro.tools replay --benchmark 176.gcc --traces traces.json
    python -m repro.tools replay --source program.s --traces t.json \\
        --config no_global_local --profile
    python -m repro.tools info --traces traces.json
    python -m repro.tools tea info tea.json
    python -m repro.tools tea info --format json snapshot.teab
    python -m repro.tools store gc --dir .tea_store
    python -m repro.tools metrics --benchmark 176.gcc --traces traces.json
    python -m repro.tools metrics --source program.s --format text \\
        --events 64 --out metrics.json
    python -m repro.tools cache
    python -m repro.tools cache --dir .repro_cache --clear
    python -m repro.tools verify snapshot.teab
    python -m repro.tools verify --benchmark 176.gcc tea.json
    python -m repro.tools verify --format sarif --out report.sarif *.teab
"""

import argparse
import json
import sys

from repro.errors import ReproError

# Each command imports what it runs: ``verify`` and ``tea info`` load
# no generator, StarDBT, recorder or harness module.  ``main`` adds the
# arguments of the named command only.

#: Replay configurations (the Table 4 axes): ``ReplayConfig`` factory
#: names, as the service's ``replay`` RPC accepts them.
CONFIGS = ("global_local", "global_no_local", "no_global_local",
           "no_global_no_local")


class _BenchmarkNames:
    """The built-in benchmark names as argparse ``choices``, looked up
    on first use, so a command that can take ``--benchmark`` but was
    not given it never imports the workloads.  argparse lists choices
    when it adds an argument to a parser, but not to a group, so every
    ``--benchmark`` is added to a group."""

    def __contains__(self, name):
        from repro.workloads import BENCHMARKS

        return name in BENCHMARKS

    def __iter__(self):
        from repro.workloads import BENCHMARKS

        return iter(sorted(BENCHMARKS))


def _replay_config(name):
    from repro.core.replay import ReplayConfig

    return getattr(ReplayConfig, name)()


def _add_program_arguments(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--benchmark", choices=_BenchmarkNames(),
        help="one of the 26 built-in SPEC-shaped workloads",
    )
    group.add_argument("--source", help="an SX86 assembly source file")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale (benchmarks only; default 1.0)",
    )


def _load_program(args):
    if args.benchmark:
        from repro.workloads import load_benchmark

        return load_benchmark(args.benchmark, scale=args.scale).program
    from repro.isa.assembler import assemble

    with open(args.source) as handle:
        return assemble(handle.read())


def _cmd_record(args):
    from repro.core.memory_model import MemoryModel
    from repro.dbt.stardbt import StarDBT
    from repro.traces.recorder import RecorderLimits
    from repro.traces.serialization import save_trace_set

    program = _load_program(args)
    limits = RecorderLimits(hot_threshold=args.threshold)
    runtime = StarDBT(program, strategy=args.strategy, limits=limits)
    result = runtime.run()
    save_trace_set(result.trace_set, args.out)
    model = MemoryModel()
    dbt_kb, tea_kb, savings = model.table1_row(result.trace_set)
    print("executed %d instructions under the DBT (%.2f Mcycles)"
          % (result.instrs_dbt, result.megacycles))
    print("recorded %d %s traces (%d TBBs), coverage %.1f%%"
          % (len(result.trace_set), args.strategy.upper(),
             result.trace_set.n_tbbs, 100 * result.coverage))
    print("representation: DBT %.1f KB / TEA %.1f KB (%.0f%% savings)"
          % (dbt_kb, tea_kb, 100 * savings))
    print("traces written to %s" % args.out)
    return 0


def _cmd_replay(args):
    from repro.cfg.basic_block import BlockIndex
    from repro.core.profile import TeaProfile
    from repro.cpu.stream import ExecutionStream
    from repro.pin import Pin, TeaReplayTool, run_native
    from repro.traces.serialization import load_trace_set

    program = _load_program(args)
    trace_set = load_trace_set(args.traces, BlockIndex(program))
    profile = TeaProfile() if args.profile else None
    tool = TeaReplayTool(
        trace_set=trace_set,
        config=_replay_config(args.config),
        profile=profile,
        link_traces=args.link_traces,
    )
    # One interpreter run serves the replay and the native baseline.
    stream = ExecutionStream.record(program)
    result = Pin(program, tool=tool, stream=stream).run()
    native = run_native(program, stream=stream)
    stats = tool.stats
    print("loaded %d traces; TEA: %d states, %d transitions"
          % (len(trace_set), tool.tea.n_states, tool.tea.n_transitions))
    print("replay coverage %.1f%% (%d of %d Pin-counted instructions)"
          % (100 * tool.coverage, stats.covered_pin, stats.total_pin))
    print("time %.2f Mcycles (%.1fx native), config %s"
          % (result.megacycles, result.cycles / native.cycles,
             tool.config.describe()))
    print("transition function: %d in-trace hits, %d cache hits, "
          "%d directory probes, %d NTE blocks"
          % (stats.in_trace_hits, stats.cache_hits,
             stats.directory_hits + stats.directory_misses,
             stats.nte_probes))
    if profile is not None:
        by_sid = {state.sid: state for state in tool.tea.states}
        print("hottest trace blocks:")
        for sid, count in profile.hottest_states(args.top):
            print("  %-24s x%d" % (by_sid[sid].name, count))
    return 0


def _cmd_metrics(args):
    """Replay with full observability on; dump the metrics snapshot."""
    from repro.cfg.basic_block import BlockIndex
    from repro.cpu.stream import ExecutionStream
    from repro.dbt.stardbt import StarDBT
    from repro.harness.reporting import render_metrics
    from repro.obs import Observability, snapshot_to_json
    from repro.pin import Pin, TeaReplayTool
    from repro.traces.recorder import RecorderLimits
    from repro.traces.serialization import load_trace_set

    program = _load_program(args)
    obs = Observability(trace_capacity=args.events)
    stream = ExecutionStream.record(program, obs=obs)
    if args.traces:
        trace_set = load_trace_set(args.traces, BlockIndex(program))
    else:
        # No trace file given: record MRET traces in-process first so
        # the command is self-contained.
        limits = RecorderLimits(hot_threshold=args.threshold)
        trace_set = StarDBT(program, strategy="mret", limits=limits,
                            stream=stream).run().trace_set
    tool = TeaReplayTool(trace_set=trace_set,
                         config=_replay_config(args.config),
                         batch_size=args.batch or None)
    Pin(program, tool=tool, obs=obs, stream=stream).run()
    snapshot = tool.snapshot()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(snapshot_to_json(snapshot))
            handle.write("\n")
        print("metrics written to %s" % args.out)
    if args.format == "text":
        print(render_metrics(snapshot))
    elif not args.out:
        print(snapshot_to_json(snapshot))
    return 0


def _cmd_cache(args):
    """Inspect (or clear) the harness's persistent result cache."""
    from repro.harness.cache import ResultCache

    cache = ResultCache(args.dir)
    entries = len(cache)
    print("cache %s: %d entries, %d bytes"
          % (args.dir, entries, cache.total_bytes() if entries else 0))
    if args.clear:
        removed = cache.clear()
        print("cleared %d entries" % removed)
    return 0


def _cmd_tea_info(args):
    """Summarize a TEA file — JSON document or binary TEAB snapshot."""
    from repro.store import describe_snapshot

    info = describe_snapshot(args.file)
    if args.format == "json":
        print(json.dumps(dict(info, file=args.file), indent=2,
                         sort_keys=True))
        return 0
    print("TEA snapshot: %s (%s format v%s)"
          % (args.file, info["format"], info["version"]))
    print("%d traces (kind %s), %d TBBs, %d edges"
          % (info["traces"], info["kind"], info["tbbs"], info["edges"]))
    print("automaton: %d states, %d transitions, %d heads"
          % (info["states"], info["transitions"], info["heads"]))
    print("profile: %s" % ("present" if info["profile"] else "absent"))
    if info.get("meta"):
        print("meta: %s" % json.dumps(info["meta"], sort_keys=True))
    print("on disk: %d bytes" % info["bytes"])
    if info.get("sections"):
        # TEAB snapshots: the mmap-able section table, straight from
        # the header — nothing was decoded to print this.
        print("sections:")
        for section in info["sections"]:
            count = section.get("count")
            print("  %-14s %8d bytes at %-8d%s"
                  % (section["name"], section["bytes"], section["offset"],
                     (" (%d items)" % count) if count else ""))
    return 0


def _cmd_store_gc(args):
    """Prune superseded snapshots with their program images, and
    unreferenced stream sidecars."""
    from repro.store import AutomatonStore

    store = AutomatonStore(args.dir)
    removed = store.gc()
    counter = store.obs.metrics.counter
    print("store %s: %d snapshots, removed %d superseded snapshot(s), "
          "%d program image(s) and %d stream sidecar(s)"
          % (args.dir, len(store), removed,
             counter("store.gc_images_removed").value,
             counter("store.gc_streams_removed").value))
    return 0


def _cmd_verify(args):
    """Statically verify TEA artifacts.

    A whole store is verified by naming its files:
    ``STORE/*/*.teab STORE/*/*.teap STORE/*/*.teas``.  Exit codes
    follow the shared convention: 0 clean, 1 blocking findings, 2 usage
    error.
    """
    from repro.errors import SerializationError
    from repro.verify import (
        all_rules,
        default_engine,
        reports_to_sarif,
        rule_by_id,
        verify_path,
    )

    for rule_id in args.disable:
        try:
            rule_by_id(rule_id)
        except KeyError:
            print("error: unknown rule id %r (see docs/"
                  "static_verification.md)" % rule_id, file=sys.stderr)
            return 2
    program = None
    if args.benchmark or args.source:
        program = _load_program(args)
    engine = default_engine(disabled=args.disable, strict=args.strict)
    reports = []
    failed = False
    for path in args.files:
        try:
            report = verify_path(path, program=program, engine=engine)
        except SerializationError as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        reports.append(report)
        if not report.ok(strict=args.strict):
            failed = True
        if args.format == "text" and not args.out:
            print(report.render_text(strict=args.strict))
    if args.format == "json":
        body = json.dumps([report.to_json(strict=args.strict)
                           for report in reports],
                          indent=2, sort_keys=True)
    elif args.format == "sarif":
        body = json.dumps(reports_to_sarif(reports, all_rules()),
                          indent=2, sort_keys=True)
    else:
        body = None
    if body is not None:
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(body)
                handle.write("\n")
            print("%s report written to %s" % (args.format, args.out))
        else:
            print(body)
    elif args.out:
        with open(args.out, "w") as handle:
            for report in reports:
                handle.write(report.render_text(strict=args.strict))
                handle.write("\n")
        print("text report written to %s" % args.out)
    return 1 if failed else 0


def _cmd_info(args):
    with open(args.traces) as handle:
        document = json.load(handle)
    traces = document.get("traces", [])
    n_tbbs = sum(len(t["tbbs"]) for t in traces)
    n_edges = sum(len(t["edges"]) for t in traces)
    print("trace file: %s (format v%s, kind %s)"
          % (args.traces, document.get("version"), document.get("kind")))
    print("%d traces, %d TBBs, %d edges" % (len(traces), n_tbbs, n_edges))
    for trace in traces[:args.top]:
        print("  T%-4s kind=%-5s entry=%#x  %d TBBs %d edges"
              % (trace["id"], trace["kind"], trace["tbbs"][0]["start"],
                 len(trace["tbbs"]), len(trace["edges"])))
    if len(traces) > args.top:
        print("  ... and %d more" % (len(traces) - args.top))
    return 0


def _record_arguments(record):
    from repro.traces.strategies import STRATEGIES

    _add_program_arguments(record)
    record.add_argument("--strategy", choices=sorted(STRATEGIES),
                        default="mret")
    record.add_argument("--threshold", type=int, default=30,
                        help="hot threshold (default 30)")
    record.add_argument("--out", required=True, help="trace file to write")


def _replay_arguments(replay):
    _add_program_arguments(replay)
    replay.add_argument("--traces", required=True, help="trace file to load")
    replay.add_argument("--config", choices=CONFIGS, default="global_local")
    replay.add_argument("--profile", action="store_true",
                        help="collect and print a per-TBB profile (replays "
                             "through the per-row step() walk)")
    replay.add_argument("--link-traces", action="store_true",
                        help="materialise static trace-to-trace transitions")
    replay.add_argument("--top", type=int, default=8,
                        help="profile entries to print")


def _info_arguments(info):
    info.add_argument("--traces", required=True)
    info.add_argument("--top", type=int, default=10)


def _tea_arguments(tea):
    tea_commands = tea.add_subparsers(dest="tea_command", required=True)
    tea_info = tea_commands.add_parser(
        "info",
        help="summarize a TEA file (JSON document or binary TEAB snapshot)",
    )
    tea_info.add_argument("file", help="path to the TEA file")
    tea_info.add_argument("--format", choices=("text", "json"),
                          default="text")


def _store_arguments(store):
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_gc = store_commands.add_parser(
        "gc",
        help="remove snapshots superseded by a hot-reload swap, and "
             "unreferenced stream sidecars",
    )
    store_gc.add_argument("--dir", default=".tea_store",
                          help="store directory (default %(default)s)")


def _metrics_arguments(metrics):
    from repro.pin.packed import DEFAULT_PACKED_BATCH

    _add_program_arguments(metrics)
    metrics.add_argument("--traces",
                         help="trace file to replay (default: record MRET "
                              "traces in-process first)")
    metrics.add_argument("--config", choices=CONFIGS, default="global_local")
    metrics.add_argument("--threshold", type=int, default=30,
                         help="hot threshold for in-process recording")
    metrics.add_argument("--events", type=int, default=128,
                         help="event-tracer ring capacity (default 128)")
    metrics.add_argument("--batch", type=int, default=0,
                         help="feed the replayer in packed batches of N "
                              "transitions (0 = the default packed "
                              "batch, %d)" % DEFAULT_PACKED_BATCH)
    metrics.add_argument("--format", choices=("json", "text"),
                         default="json")
    metrics.add_argument("--out", help="write the JSON snapshot here")


def _verify_arguments(verify):
    verify.add_argument("files", nargs="+", metavar="FILE",
                        help="TEAB snapshots, .teap program images, .teas "
                             "stream sidecars and/or JSON TEA documents")
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--benchmark", choices=_BenchmarkNames(),
                       help="program for the CFG rules (JSON documents "
                            "require one; a TEAB snapshot without it "
                            "uses the .teap image beside it)")
    group.add_argument("--source", help="an SX86 assembly source file")
    verify.add_argument("--scale", type=float, default=1.0,
                        help="workload scale (benchmarks only)")
    verify.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    verify.add_argument("--out", help="write the report here instead of "
                                      "stdout")
    verify.add_argument("--strict", action="store_true",
                        help="treat warnings as blocking")
    verify.add_argument("--disable", action="append", default=[],
                        metavar="RULE",
                        help="disable one rule id (repeatable)")


def _cache_arguments(cache):
    from repro.harness.cache import DEFAULT_CACHE_DIR

    cache.add_argument("--dir", default=DEFAULT_CACHE_DIR,
                       help="cache directory (default %(default)s)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached stage summary")


#: Command name -> (help, argument builder, handler), in help order.
COMMANDS = {
    "record": ("record traces under the DBT", _record_arguments,
               _cmd_record),
    "replay": ("replay traces via TEA", _replay_arguments, _cmd_replay),
    "info": ("summarize a trace file", _info_arguments, _cmd_info),
    "tea": ("TEA snapshot utilities (see repro.store)", _tea_arguments,
            _cmd_tea_info),
    "store": ("snapshot store maintenance (see repro.store)",
              _store_arguments, _cmd_store_gc),
    "metrics": ("replay with observability on and dump the metrics "
                "snapshot (see docs/observability.md)",
                _metrics_arguments, _cmd_metrics),
    "verify": ("statically verify TEA artifacts "
               "(see docs/static_verification.md)",
               _verify_arguments, _cmd_verify),
    "cache": ("inspect or clear the harness's persistent result cache",
              _cache_arguments, _cmd_cache),
}


def main(argv=None):
    argv = list(argv if argv is not None else sys.argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="record / replay / inspect TEA trace files",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # The top-level parser takes no option but --help, so a command, if
    # any, is argv[0]; only its arguments are added.
    for name, (text, add_arguments, _) in COMMANDS.items():
        command = commands.add_parser(name, help=text)
        if argv[:1] == [name]:
            add_arguments(command)

    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
