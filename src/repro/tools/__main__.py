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
    python -m repro.tools minimize snapshot.teab --out minimized.teab
    python -m repro.tools minimize snapshot.teab --budget 64 --format json
    python -m repro.tools diff before.teab after.teab
    python -m repro.tools diff --format json a.teab b.teab
    python -m repro.tools store gc --dir .tea_store
    python -m repro.tools metrics --benchmark 176.gcc --traces traces.json
    python -m repro.tools metrics --source program.s --format text \\
        --events 64 --out metrics.json
    python -m repro.tools cache
    python -m repro.tools cache --dir .repro_cache --clear
    python -m repro.tools verify snapshot.teab
    python -m repro.tools verify --benchmark 176.gcc tea.json
    python -m repro.tools verify --format sarif --out report.sarif *.teab
    python -m repro.tools cluster up --store .tea_store --workers 3
    python -m repro.tools cluster plan --store .tea_store --worker w1 \\
        --worker w2
"""

import argparse
import json
import sys

from repro.cfg.basic_block import BlockIndex
from repro.core import MemoryModel, ReplayConfig, TeaProfile
from repro.cpu.stream import ExecutionStream
from repro.dbt import StarDBT
from repro.errors import ReproError
from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.harness.reporting import render_metrics
from repro.isa import assemble
from repro.obs import Observability, snapshot_to_json
from repro.pin import Pin, TeaReplayTool, run_native
from repro.traces import STRATEGIES, load_trace_set, save_trace_set
from repro.traces.recorder import RecorderLimits
from repro.workloads import BENCHMARKS, load_benchmark

CONFIGS = {
    "global_local": ReplayConfig.global_local,
    "global_no_local": ReplayConfig.global_no_local,
    "no_global_local": ReplayConfig.no_global_local,
    "no_global_no_local": ReplayConfig.no_global_no_local,
}


def _add_program_arguments(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--benchmark", choices=sorted(BENCHMARKS),
        help="one of the 26 built-in SPEC-shaped workloads",
    )
    group.add_argument("--source", help="an SX86 assembly source file")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale (benchmarks only; default 1.0)",
    )


def _load_program(args):
    if args.benchmark:
        return load_benchmark(args.benchmark, scale=args.scale).program
    with open(args.source) as handle:
        return assemble(handle.read())


def _cmd_record(args):
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
    program = _load_program(args)
    trace_set = load_trace_set(args.traces, BlockIndex(program))
    if args.profile and args.engine in ("compiled", "jit"):
        print("error: --profile needs the object engine (the %s "
              "engine replays packed int streams, which carry nothing "
              "to profile); drop --profile or use --engine object"
              % args.engine,
              file=sys.stderr)
        return 2
    profile = TeaProfile() if args.profile else None
    tool = TeaReplayTool(
        trace_set=trace_set,
        config=CONFIGS[args.config](),
        profile=profile,
        link_traces=args.link_traces,
        engine=args.engine,
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
    print("time %.2f Mcycles (%.1fx native), config %s, engine %s"
          % (result.megacycles, result.cycles / native.cycles,
             tool.config.describe(), args.engine))
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
    tool = TeaReplayTool(trace_set=trace_set, config=CONFIGS[args.config](),
                         batch_size=args.batch or None, engine=args.engine)
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
    print("shape: %d of %d states share a transition signature "
          "(mergeable estimate; see repro tools minimize)"
          % (info["mergeable_estimate"], info["states"]))
    print("profile: %s" % ("present" if info["profile"] else "absent"))
    if info.get("meta"):
        print("meta: %s" % json.dumps(info["meta"], sort_keys=True))
    print("on disk: %d bytes" % info["bytes"])
    if info.get("sections"):
        # v2 snapshots: the mmap-able section table, straight from the
        # header — nothing was decoded to print this.
        print("sections:")
        for section in info["sections"]:
            count = section.get("count")
            print("  %-14s %8d bytes at %-8d%s"
                  % (section["name"], section["bytes"], section["offset"],
                     (" (%d items)" % count) if count else ""))
    return 0


def _load_tea_file(path, args):
    """Load ``(trace_set, tea, origin_key)`` from a TEAB or JSON file.

    TEAB snapshots rebuild their program from ``--benchmark`` /
    ``--source`` when given, falling back to their own benchmark meta
    (the service convention); JSON documents require an explicit
    program.  ``origin_key`` is the snapshot content key for TEAB input
    (provenance for minimized output), ``None`` for JSON documents.
    """
    from repro.core import build_tea
    from repro.errors import SerializationError
    from repro.store import load_tea_binary, snapshot_key
    from repro.verify import program_for_meta

    with open(path, "rb") as handle:
        data = handle.read()
    program = None
    if args.benchmark or args.source:
        program = _load_program(args)
    if data[:4] == b"TEAB":
        if program is None:
            from repro.store import peek_tea_binary

            program = program_for_meta(peek_tea_binary(data).get("meta"))
            if program is None:
                raise SerializationError(
                    "%s carries no benchmark meta; pass --benchmark or "
                    "--source" % path
                )
        trace_set, tea, _profile = load_tea_binary(data, BlockIndex(program))
        return trace_set, tea, snapshot_key(data)
    document = json.loads(data.decode("utf-8"))
    if program is None:
        raise SerializationError(
            "the JSON document %s requires a program image (pass "
            "--benchmark or --source)" % path
        )
    index = BlockIndex(program)
    if isinstance(document, dict) and isinstance(document.get("traces"), dict):
        from repro.core.serialization import tea_from_json

        trace_set, tea, _profile = tea_from_json(document, index)
    else:
        from repro.traces.serialization import trace_set_from_json

        trace_set = trace_set_from_json(document, index)
        tea = build_tea(trace_set)
    return trace_set, tea, None


def _cmd_minimize(args):
    """Minimize a TEA snapshot; optionally write the minimized TEAB."""
    from repro.minimize import minimize_tea
    from repro.store import dump_tea_binary, peek_tea_binary
    from repro.util import atomic_write_bytes
    from repro.verify import verify_minimization

    trace_set, tea, origin_key = _load_tea_file(args.file, args)
    result = minimize_tea(tea, mode=args.mode, budget=args.budget)
    report = verify_minimization(result, trace_set=trace_set,
                                 source=args.file)
    summary = result.describe()
    summary["verified"] = report.ok(strict=True)
    if args.out:
        with open(args.file, "rb") as handle:
            in_meta = (peek_tea_binary(handle.read()).get("meta")
                       if origin_key else None) or {}
        out_meta = dict(in_meta)
        if origin_key:
            out_meta["minimized_from"] = origin_key
        out_meta["minimize"] = result.describe()
        if out_meta.get("label"):
            out_meta["label"] = "%s-min" % out_meta["label"]
        atomic_write_bytes(
            args.out,
            dump_tea_binary(trace_set, tea=result.tea, meta=out_meta),
        )
        summary["out"] = args.out
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print("minimized %s (%s mode%s)"
              % (args.file, result.mode,
                 ", budget %d" % result.budget if result.budget else ""))
        print("states: %d -> %d (%d merged, %d spilled; %.1f%% smaller)"
              % (result.states_before, result.states_after, result.merged,
                 len(result.spilled), 100 * result.state_reduction))
        print("transitions: %d -> %d; %d heads kept"
              % (result.transitions_before, result.transitions_after,
                 result.tea.n_traces))
        if args.out:
            print("minimized snapshot written to %s" % args.out)
        if not summary["verified"]:
            print(report.render_text(strict=True))
    if not summary["verified"]:
        print("error: minimization failed verification", file=sys.stderr)
        return 1
    return 0


def _cmd_diff(args):
    """Diff two TEA files; exit 0 identical, 1 different, 2 error."""
    from repro.compare import diff_automata
    from repro.errors import SerializationError
    from repro.store import compile_tea_binary

    def load_side(path):
        # TEAB bytes diff via their compiled lowering — no program
        # image needed; JSON documents go through the full loader.
        with open(path, "rb") as handle:
            data = handle.read()
        if data[:4] == b"TEAB" and not (args.benchmark or args.source):
            return compile_tea_binary(data, verify=False)
        _trace_set, tea, _origin = _load_tea_file(path, args)
        return tea

    try:
        side_a = load_side(args.a)
        side_b = load_side(args.b)
    except (ReproError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    try:
        diff = diff_automata(side_a, side_b, label_a=args.a, label_b=args.b)
    except SerializationError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(diff.to_json(), indent=2, sort_keys=True))
    else:
        print(diff.render_text())
    return 0 if diff.identical else 1


def _cmd_store_gc(args):
    """Prune superseded snapshots, orphaned cached JIT sources and
    unreferenced stream sidecars."""
    from repro.store import AutomatonStore

    store = AutomatonStore(args.dir)
    removed = store.gc()
    streams = store.obs.metrics.counter("store.gc_streams_removed").value
    print("store %s: %d snapshots, removed %d superseded/orphaned "
          "file(s) and %d stream sidecar(s)"
          % (args.dir, len(store), removed, streams))
    return 0


def _cmd_store_migrate(args):
    """Re-encode every snapshot in a store into the target format."""
    from repro.store import AutomatonStore

    store = AutomatonStore(args.dir)
    migrated = store.migrate(to_version=args.to_version)
    for old_key, new_key in sorted(migrated.items()):
        print("%s -> %s" % (old_key, new_key))
    print("store %s: migrated %d snapshot(s) to v%d (%d total)"
          % (args.dir, len(migrated), args.to_version, len(store)))
    return 0


def _cmd_verify(args):
    """Statically verify TEA artifacts.

    Exit codes follow the shared convention: 0 clean, 1 blocking
    findings, 2 usage error (same as ``audit`` and ``diff``).
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
        if args.format == "text":
            print(report.render_text(strict=args.strict))
    if args.format == "json":
        body = json.dumps([report.to_json() for report in reports],
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


def _cmd_audit(args):
    """Fleet audit: walk a whole store (plus the service sources).

    Exit codes follow the shared convention: 0 clean, 1 blocking
    findings (with ``--baseline``: *new* blocking findings), 2 usage
    error (same as ``verify`` and ``diff``).
    """
    import os

    from repro.audit import (
        AuditCache,
        audit_store,
        diff_new_results,
        load_baseline,
    )
    from repro.verify import all_rules, reports_to_sarif, rule_by_id

    for rule_id in args.disable:
        try:
            rule_by_id(rule_id)
        except KeyError:
            print("error: unknown rule id %r (see docs/"
                  "static_verification.md)" % rule_id, file=sys.stderr)
            return 2
    if not os.path.isdir(args.store):
        print("error: %s is not a store directory" % args.store,
              file=sys.stderr)
        return 2
    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as error:
            print("error: cannot load baseline: %s" % error,
                  file=sys.stderr)
            return 2
    cache = None if args.no_cache else AuditCache(args.cache_dir)
    code_paths = None
    if args.no_code:
        code_paths = ()
    elif args.code:
        code_paths = args.code
    result = audit_store(
        args.store, code_paths=code_paths, jobs=args.jobs, cache=cache,
        disabled=args.disable, strict=args.strict,
    )
    reports = result.report_objects()
    sarif = reports_to_sarif(reports, all_rules())
    failed = not result.ok()
    new_count = suppressed = 0
    if baseline is not None:
        sarif, new_count, suppressed = diff_new_results(sarif, baseline)
        blocking = ("error", "warning") if args.strict else ("error",)
        failed = any(
            res.get("level") in blocking
            for run in sarif.get("runs") or []
            for res in run.get("results") or []
        )
    if args.format == "sarif":
        body = json.dumps(sarif, indent=2, sort_keys=True)
    elif args.format == "json":
        body = json.dumps(result.reports, indent=2, sort_keys=True)
    else:
        lines = []
        for report in reports:
            if report.diagnostics:
                lines.append(report.render_text(strict=args.strict))
        body = "\n".join(lines) if lines else None
    if body is not None:
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(body)
                handle.write("\n")
            print("%s report written to %s" % (args.format, args.out))
        else:
            print(body)
    stats = result.stats
    print("audit: %d artifact(s), %d cached, %d cold, %d unreadable, "
          "%.2fs (catalog %s, jobs=%d)"
          % (stats["artifacts"], stats["cache_hits"], stats["cold_runs"],
             stats["unreadable"], stats["elapsed"],
             stats["catalog_version"], stats["jobs"]))
    if baseline is not None:
        print("baseline: %d new finding(s), %d suppressed"
              % (new_count, suppressed))
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


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="record / replay / inspect TEA trace files",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser("record", help="record traces under the DBT")
    _add_program_arguments(record)
    record.add_argument("--strategy", choices=sorted(STRATEGIES),
                        default="mret")
    record.add_argument("--threshold", type=int, default=30,
                        help="hot threshold (default 30)")
    record.add_argument("--out", required=True, help="trace file to write")

    replay = commands.add_parser("replay", help="replay traces via TEA")
    _add_program_arguments(replay)
    replay.add_argument("--traces", required=True, help="trace file to load")
    replay.add_argument("--config", choices=sorted(CONFIGS),
                        default="global_local")
    replay.add_argument("--engine", choices=("object", "compiled", "jit"),
                        default="object",
                        help="replay engine: object-graph walk, the "
                             "compiled flat-table engine, or per-automaton "
                             "generated code (default object)")
    replay.add_argument("--profile", action="store_true",
                        help="collect and print a per-TBB profile "
                             "(object engine only)")
    replay.add_argument("--link-traces", action="store_true",
                        help="materialise static trace-to-trace transitions")
    replay.add_argument("--top", type=int, default=8,
                        help="profile entries to print")

    info = commands.add_parser("info", help="summarize a trace file")
    info.add_argument("--traces", required=True)
    info.add_argument("--top", type=int, default=10)

    tea = commands.add_parser(
        "tea",
        help="TEA snapshot utilities (see repro.store)",
    )
    tea_commands = tea.add_subparsers(dest="tea_command", required=True)
    tea_info = tea_commands.add_parser(
        "info",
        help="summarize a TEA file (JSON document or binary TEAB snapshot)",
    )
    tea_info.add_argument("file", help="path to the TEA file")
    tea_info.add_argument("--format", choices=("text", "json"),
                          default="text")

    def _add_optional_program_arguments(target):
        group = target.add_mutually_exclusive_group()
        group.add_argument("--benchmark", choices=sorted(BENCHMARKS),
                           help="program image (TEAB snapshots can carry "
                                "it in their meta; JSON documents require "
                                "one)")
        group.add_argument("--source", help="an SX86 assembly source file")
        target.add_argument("--scale", type=float, default=1.0,
                            help="workload scale (benchmarks only)")

    minimize = commands.add_parser(
        "minimize",
        help="merge bisimilar TEA states (see docs/minimize_and_diff.md)",
    )
    minimize.add_argument("file", help="TEAB snapshot or JSON TEA document")
    minimize.add_argument("--mode", choices=("exact", "aggressive"),
                          default="exact",
                          help="exact keeps replay accounting bit-exact "
                               "(default); aggressive merges maximally")
    minimize.add_argument("--budget", type=int, default=None,
                          help="cap the minimized state count, spilling "
                               "the coldest states")
    minimize.add_argument("--out", help="write the minimized TEAB snapshot "
                                        "here (with provenance meta)")
    minimize.add_argument("--format", choices=("text", "json"),
                          default="text")
    _add_optional_program_arguments(minimize)

    diff = commands.add_parser(
        "diff",
        help="structural diff of two TEA files "
             "(see docs/minimize_and_diff.md)",
    )
    diff.add_argument("a", help="left TEA file (TEAB or JSON)")
    diff.add_argument("b", help="right TEA file (TEAB or JSON)")
    diff.add_argument("--format", choices=("text", "json"), default="text")
    _add_optional_program_arguments(diff)

    store = commands.add_parser(
        "store",
        help="snapshot store maintenance (see repro.store)",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_gc = store_commands.add_parser(
        "gc",
        help="remove snapshots superseded by a hot-reload swap, JIT "
             "sources older stores cached, and unreferenced stream sidecars",
    )
    store_gc.add_argument("--dir", default=".tea_store",
                          help="store directory (default %(default)s)")
    store_migrate = store_commands.add_parser(
        "migrate",
        help="re-encode every snapshot into the target TEAB format "
             "(v2 = mmap-able sections, v1 = legacy varint stream)",
    )
    store_migrate.add_argument("--dir", default=".tea_store",
                               help="store directory (default %(default)s)")
    store_migrate.add_argument("--to-version", type=int, choices=(1, 2),
                               default=2,
                               help="target format version (default 2)")

    metrics = commands.add_parser(
        "metrics",
        help="replay with observability on and dump the metrics snapshot "
             "(see docs/observability.md)",
    )
    _add_program_arguments(metrics)
    metrics.add_argument("--traces",
                         help="trace file to replay (default: record MRET "
                              "traces in-process first)")
    metrics.add_argument("--config", choices=sorted(CONFIGS),
                         default="global_local")
    metrics.add_argument("--threshold", type=int, default=30,
                         help="hot threshold for in-process recording")
    metrics.add_argument("--events", type=int, default=128,
                         help="event-tracer ring capacity (default 128)")
    metrics.add_argument("--batch", type=int, default=0,
                         help="feed the replayer in batches of N "
                              "transitions (0 = per-call step; the "
                              "compiled engine always batches)")
    metrics.add_argument("--engine", choices=("object", "compiled", "jit"),
                         default="object",
                         help="replay engine (default object)")
    metrics.add_argument("--format", choices=("json", "text"),
                         default="json")
    metrics.add_argument("--out", help="write the JSON snapshot here")

    verify = commands.add_parser(
        "verify",
        help="statically verify TEA artifacts "
             "(see docs/static_verification.md)",
    )
    verify.add_argument("files", nargs="+", metavar="FILE",
                        help="TEAB snapshots and/or JSON TEA documents")
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--benchmark", choices=sorted(BENCHMARKS),
                       help="program image for the CFG rules (JSON "
                            "documents require one; TEAB snapshots can "
                            "carry it in their meta)")
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

    audit = commands.add_parser(
        "audit",
        help="fleet-scale incremental audit of a snapshot store "
             "(see docs/audit.md)",
    )
    audit.add_argument("store", metavar="STORE",
                       help="AutomatonStore directory to audit")
    audit.add_argument("--code", action="append", default=[],
                       metavar="PATH",
                       help="extra concurrency-lint source target "
                            "(repeatable; default: the shipped service/"
                            "cluster/mapping sources)")
    audit.add_argument("--no-code", action="store_true",
                       help="audit snapshots and JIT sources only")
    audit.add_argument("--jobs", type=int, default=1,
                       help="parallel audit workers (default 1)")
    audit.add_argument("--cache-dir", default=".repro_audit_cache",
                       help="result cache directory "
                            "(default %(default)s)")
    audit.add_argument("--no-cache", action="store_true",
                       help="disable the audit result cache")
    audit.add_argument("--baseline", metavar="SARIF",
                       help="previous SARIF log; report only new "
                            "findings")
    audit.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text")
    audit.add_argument("--out", help="write the report here instead of "
                                     "stdout")
    audit.add_argument("--strict", action="store_true",
                       help="treat warnings as blocking")
    audit.add_argument("--disable", action="append", default=[],
                       metavar="RULE",
                       help="disable one rule id (repeatable)")

    cache = commands.add_parser(
        "cache",
        help="inspect or clear the harness's persistent result cache",
    )
    cache.add_argument("--dir", default=DEFAULT_CACHE_DIR,
                       help="cache directory (default %(default)s)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached stage summary")

    cluster = commands.add_parser(
        "cluster",
        help="sharded replay cluster: router, workers, routing plans "
             "(forwards to python -m repro.cluster; see docs/cluster.md)",
        add_help=False,
    )
    cluster.add_argument("cluster_args", nargs=argparse.REMAINDER)

    args = parser.parse_args(argv if argv is not None else sys.argv[1:])
    if args.command == "cluster":
        from repro.cluster.__main__ import main as cluster_main

        return cluster_main(args.cluster_args)
    try:
        if args.command == "record":
            return _cmd_record(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "tea":
            return _cmd_tea_info(args)
        if args.command == "minimize":
            return _cmd_minimize(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "store":
            if args.store_command == "migrate":
                return _cmd_store_migrate(args)
            return _cmd_store_gc(args)
        return _cmd_info(args)
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
