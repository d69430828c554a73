"""End-to-end benchmark of the TEA replay system.

Runs one of two closed-loop workloads against the real replay service
entry points, checks every answer, and prints every metric as
``<workload> <metric> <value> <unit>``.  End-to-end timings are scaled
to a reference host speed, measured by a probe loop timed around every
operation and set-up (see README.md); the ``wall_*`` lines give the
same timings as the clock read them.  The last line of standard output
is one JSON object::

    {"correct": true, "attempted": 61, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` the run wraps each layer's entry
points in every process (see ``_trace/``) and the metrics are the
per-layer metrics.  Examples::

    python3 benchmarks/e2e/run.py --workload replay-hot --seed 7 \\
        --seconds 40 --trace 0
    python3 benchmarks/e2e/run.py --workload replay-hot --trace 1
    python3 benchmarks/e2e/run.py --workload ingest --out results.json
    python3 benchmarks/e2e/run.py --compare base.json results.json
    python3 benchmarks/e2e/run.py --write-expected

Exit status: 0 when every answer was correct, 1 when one was not, 2
when a workload could not be set up or driven.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_SEED = 1
SMOKE_SECONDS = 3
SETUP_REPEATS = 5
#: Seconds the host-speed probe loop takes on the reference host (a
#: 2-vCPU Xeon VM at 2.1 GHz running Python 3.11, in its fast phases).
REFERENCE_PROBE_S = 0.020


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_args(spec, argv):
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/e2e/run.py",
        description="end-to-end replay benchmark (see README.md)",
    )
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload to run (default: both)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # The standard invocation of a repo benchmark passes --workload,
    # --seed, --seconds and --trace, so --seconds must be accepted.
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measured window (default: run_seconds in "
                             "BENCHMARK.json, %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer run with span tracing")
    parser.add_argument("--smoke", action="store_true",
                        help="%d s window and one set-up" % SMOKE_SECONDS)
    parser.add_argument("--out", help="append this run to a results file")
    parser.add_argument("--set", default="a",
                        help="result-set label recorded with --out")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS",
                        help="compare two results files, or the first "
                             "two sets of one file, and exit")
    parser.add_argument("--write-expected", action="store_true",
                        help="record reference replies for --seed in "
                             "expected/ instead of measuring")
    return parser.parse_args(argv)


def main(argv=None):
    spec = load_spec()
    args = parse_args(spec, argv if argv is not None else sys.argv[1:])
    if args.compare:
        return compare(spec, args.compare)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("error: no repro package under %s; run from the root of a "
              "full checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    # This process and every process it starts share one CPU, so the
    # host-speed probe times the core that does the work.  The single
    # closed-loop client never has two operations running at once.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import loads

    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    status = 0
    for name in names:
        try:
            status = max(status, run_one(spec, args, name))
        except loads.BenchError as error:
            print("error: %s: %s" % (name, error), file=sys.stderr)
            return 2
    return status


def _exit_on_signal(signum, frame):
    # Unwinds through the workload's finally blocks, which stop every
    # child process.
    sys.exit(128 + signum)


def run_one(spec, args, name):
    import layers
    import loads

    work = os.path.join(HERE, ".work", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_dir = None
    tracer = None
    if args.trace:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        sys.path.insert(0, os.path.join(HERE, "_trace"))
        import e2e_trace as tracer

        tracer.install(trace_dir)
    ctx = loads.Context(
        ROOT, work, args.seed,
        SMOKE_SECONDS if args.smoke else args.seconds,
        1 if args.smoke or args.write_expected else SETUP_REPEATS,
        trace_dir)
    expected_path = os.path.join(HERE, "expected", name + ".json")
    expected = {}
    if os.path.exists(expected_path) and not args.write_expected:
        with open(expected_path, encoding="utf-8") as handle:
            expected = json.load(handle)["replies"]
    try:
        outcome, answers = loads.run(name, ctx, expected,
                                     references=args.write_expected)
        spans = []
        if tracer is not None:
            tracer.dump()
            spans = layers.read_spans(trace_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in answers.mismatches[:20]:
        print("mismatch: %s" % message, file=sys.stderr)
    failed = sum(1 for op in outcome.ops if not op.ok)
    correct = failed == 0 and not answers.mismatches
    if args.write_expected:
        if not correct:
            print("error: %s: replies disagree; references not written"
                  % name, file=sys.stderr)
            return 1
        os.makedirs(os.path.dirname(expected_path), exist_ok=True)
        with open(expected_path, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "replies": answers.seen}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
        print("%s: wrote %d references to %s"
              % (name, len(answers.seen), os.path.relpath(expected_path)))
        return 0

    measured = end_to_end(outcome)
    e2e = {metric: value for metric, (value, _) in measured.items()}
    if tracer is None:
        declared, values = spec["end_to_end"], e2e
        prefix = ""
    else:
        declared = spec["per_layer"]
        values = layers.per_layer(outcome, spans, completed(outcome))
        prefix = "traced."
    for metric in declared:
        print("%s %s %r %s" % (name, metric["name"],
                               values.get(metric["name"], 0.0),
                               metric["unit"]))
    shown = {metric["name"] for metric in declared}
    for metric, (value, unit) in measured.items():
        if metric not in shown:
            print("%s %s%s %r %s" % (name, prefix, metric, value, unit))
    result = {
        "correct": correct,
        "attempted": len(outcome.ops),
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values.get(metric["name"], 0.0),
                             "unit": metric["unit"]}
            for metric in declared
        },
    }
    if args.out:
        record = {"set": args.set, "workload": name, "seed": args.seed,
                  "seconds": ctx.seconds, "trace": args.trace,
                  "correct": correct, "attempted": len(outcome.ops),
                  "failed": failed, "end_to_end": e2e}
        if tracer is not None:
            record["per_layer"] = values
        append_record(args.out, record)
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
    return 0 if correct else 1


def completed(outcome):
    return sum(1 for op in outcome.ops if op.timed and op.ok)


def at_reference_speed(seconds, probe):
    """``seconds`` measured while the host-speed probe took ``probe``
    seconds, scaled to a host on which it takes ``REFERENCE_PROBE_S``."""
    return seconds * REFERENCE_PROBE_S / probe


def percentile(ordered, share):
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(0, -(-len(ordered) * share // 100) - 1)]


def end_to_end(outcome):
    """``{metric: (value, unit)}`` of one run, measured by the client.

    The timings are at the reference host speed (see README.md); the
    ``wall_*`` values are the same timings as the clock read them.
    """
    timed = [op for op in outcome.ops
             if op.timed and op.ok and op.kind == outcome.primary]
    wall = sorted(op.end - op.start for op in timed)
    scaled = sorted(at_reference_speed(op.end - op.start, op.probe)
                    for op in timed)
    setups = [at_reference_speed(seconds, probe)
              for seconds, probe in outcome.setup]
    probes = [op.probe for op in timed]
    busy = sum(op.end - op.start for op in outcome.ops if op.timed)
    attempted = len(outcome.ops)
    failed = sum(1 for op in outcome.ops if not op.ok)
    metrics = {
        "latency_p50_s": (statistics.median(scaled) if scaled else 0.0,
                          "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
        "latency_samples": (len(scaled), "count"),
        "wall_latency_p50_s": (statistics.median(wall) if wall else 0.0,
                               "s"),
        "wall_latency_min_s": (wall[0] if wall else 0.0, "s"),
        "wall_setup_s": (statistics.median(
            seconds for seconds, _ in outcome.setup), "s"),
        "host_probe_s": (statistics.median(probes) if probes else 0.0,
                         "s"),
        # Per second spent in operations: the probes are left out.
        "ops_per_s": (completed(outcome) / busy if busy else 0.0, "1/s"),
        "error_rate": (failed / attempted if attempted else 0.0, "ratio"),
    }
    # A p90 is reported only with ten samples beyond it.
    if len(scaled) >= 100:
        metrics["latency_p90_s"] = (percentile(scaled, 90), "s")
        metrics["wall_latency_p90_s"] = (percentile(wall, 90), "s")
    return metrics


def append_record(path, record):
    """Add one run to a results file (``{"runs": [...]}``)."""
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append(record)
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(temporary, path)


# ---------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def compare(spec, paths):
    """Print per-metric deltas between two result sets.

    Each metric reads ``REGRESSION`` when the second set's median is
    worse than the first's by more than the metric's bound, and
    ``unresolved`` when either set's spread is wider than the bound,
    unless every run of the second set beats every run of the first.
    Returns 1 when any metric regressed.
    """
    sides = []
    for path in paths[:2]:
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle)["runs"])
    if len(sides) == 1:
        labels = sorted({run["set"] for run in sides[0]})
        if len(labels) < 2:
            print("error: %s holds one result set; give a second file"
                  % paths[0], file=sys.stderr)
            return 2
        runs = sides[0]
        sides = [[run for run in runs if run["set"] == label]
                 for label in labels[:2]]

    def values(side, workload, metric, trace=0, section="end_to_end"):
        return [run[section][metric] for run in side
                if run["workload"] == workload and run["trace"] == trace
                and metric in run.get(section, {})]

    status = 0
    print("%-13s %-14s %12s %12s %8s %6s %7s  %s" % (
        "workload", "metric", "first", "second", "delta", "bound",
        "spread", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = values(sides[0], workload, name)
            second = values(sides[1], workload, name)
            if not first or not second:
                continue
            old, new = statistics.median(first), statistics.median(second)
            delta = (new - old) / old if old else 0.0
            worse = delta if metric["better"] == "lower" else -delta
            wider = max(spread(first), spread(second))
            if metric["better"] == "lower":
                beats = max(second) < min(first)
            else:
                beats = min(second) > max(first)
            if wider > bound and not beats:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                status = 1
            else:
                verdict = "ok"
            print("%-13s %-14s %12.5g %12.5g %+7.1f%% %6.2f %6.1f%%  %s" % (
                workload, name, old, new, 100 * delta, bound, 100 * wider,
                verdict))
        for side_index, side in enumerate(sides):
            for metric in spec["end_to_end"]:
                name = metric["name"]
                traced = values(side, workload, name, trace=1)
                plain = values(side, workload, name)
                if traced and plain and name != "setup_s":
                    base = statistics.median(plain)
                    print("%-13s trace overhead %s (set %d): %+.1f%%" % (
                        workload, name, side_index + 1,
                        100 * (statistics.median(traced) - base) / base))
        for metric in spec["per_layer"]:
            name = metric["name"]
            first = values(sides[0], workload, name, 1, "per_layer")
            second = values(sides[1], workload, name, 1, "per_layer")
            if first and second and (any(first) or any(second)):
                print("%-13s layer %-26s %12.5g %12.5g %s" % (
                    workload, name, statistics.median(first),
                    statistics.median(second), metric["unit"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
