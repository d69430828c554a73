"""CLI for the experiment harness.

Examples::

    python -m repro.harness table1
    python -m repro.harness table4 --benchmarks 176.gcc,255.vortex
    python -m repro.harness all --scale 2 --markdown --out results.md
    python -m repro.harness all --jobs 4            # sharded parallel run
    python -m repro.harness all --no-cache          # force fresh simulation
    python -m repro.harness figures

Results are cached in ``--cache-dir`` (default ``.repro_cache``) keyed
by a content hash of the benchmark definition and every harness knob,
so a rerun only simulates stages whose inputs changed — see
docs/parallel_harness.md.
"""

import argparse
import sys
import time

from repro.errors import VerificationError
from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.harness.figures import render_all
from repro.harness.parallel import ParallelRunner
from repro.harness.runner import HarnessConfig, Runner
from repro.harness.summary import build_summary
from repro.harness.tables import TABLES
from repro.obs import Observability, snapshot_to_json
from repro.workloads import BENCHMARKS


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "what",
        choices=sorted(TABLES) + ["figures", "summary", "all"],
        help="which table/figure set to regenerate",
    )
    parser.add_argument(
        "--benchmarks",
        help="comma-separated benchmark subset (default: all 26)",
    )
    parser.add_argument(
        "--scale", type=float, default=4.0,
        help="workload scale factor (default 4.0; tests use less)",
    )
    parser.add_argument(
        "--threshold", type=int, default=30,
        help="hot threshold for trace selection (default 30)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="statically verify each benchmark's recorded automaton "
             "(full TEA rule catalog) before its trace-consuming "
             "stages; findings abort the run",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; > 1 shards benchmarks across a "
             "multiprocessing pool (default 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="persistent stage-result cache directory "
             "(default %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the persistent result cache",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit Markdown tables"
    )
    parser.add_argument("--out", help="also write the output to this file")
    parser.add_argument(
        "--metrics-out",
        help="write the harness observability snapshot (JSON) here — "
             "stage timers, stage_runs, cache hit/miss counters",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    return parser.parse_args(argv)


def _cache_report(snapshot):
    """One-line cache/stage traffic summary from an obs snapshot."""
    counters = snapshot.get("metrics", {}).get("counters", {})
    return ("stages run %d | memo hits %d | disk hits %d, misses %d, "
            "writes %d" % (
                counters.get("harness.stage_runs", 0),
                counters.get("harness.cache_hits", 0),
                counters.get("harness.cache.disk_hits", 0),
                counters.get("harness.cache.disk_misses", 0),
                counters.get("harness.cache.writes", 0),
            ))


def make_runner(config, jobs=1, cache=None, progress=None, obs=None):
    """The right runner flavour for ``jobs``, sharing one registry."""
    if jobs > 1:
        return ParallelRunner(config, jobs=jobs, cache=cache,
                              progress=progress, obs=obs)
    return Runner(config, progress=progress, cache=cache, obs=obs)


def main(argv=None):
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    benchmarks = None
    if args.benchmarks:
        benchmarks = [name.strip() for name in args.benchmarks.split(",")]
        for name in benchmarks:
            if name not in BENCHMARKS:
                print("unknown benchmark %r; known: %s"
                      % (name, ", ".join(BENCHMARKS)), file=sys.stderr)
                return 2
    config = HarnessConfig(
        scale=args.scale,
        hot_threshold=args.threshold,
        benchmarks=benchmarks,
        verify=args.verify,
    )
    progress = None
    if not args.quiet:
        def progress(message):
            print("  [run] %s" % message, file=sys.stderr)
    obs = Observability()
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir, obs=obs)
    runner = make_runner(config, jobs=args.jobs, cache=cache,
                         progress=progress, obs=obs)

    sections = []
    # Monotonic: an NTP step mid-run must not corrupt the elapsed banner.
    started = time.perf_counter()
    if args.what in TABLES:
        selected = [args.what]
    elif args.what == "all":
        selected = sorted(TABLES)
    else:
        selected = []
    try:
        for table_name in selected:
            table = TABLES[table_name](runner)
            sections.append(
                table.render_markdown() if args.markdown else table.render()
            )
        if args.what in ("figures", "all"):
            sections.append(render_all())
        if args.what in ("summary", "all"):
            summary = build_summary(runner)
            sections.append(
                summary.render_markdown(include_geomean=False)
                if args.markdown else summary.render(include_geomean=False)
            )
    except VerificationError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1

    output = "\n\n\n".join(sections)
    print(output)
    snapshot = runner.metrics_snapshot()
    if not args.quiet:
        print("\n[%.1f s] %s" % (time.perf_counter() - started,
                                 _cache_report(snapshot)), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(output + "\n")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(snapshot_to_json(snapshot))
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
