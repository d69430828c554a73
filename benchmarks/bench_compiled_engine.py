"""Microbenchmark: the compiled flat-table engine vs ``TeaReplayer``.

The ISSUE's perf bar: ``CompiledReplayer.run()`` over packed int
streams must be at least **3x** faster than per-call
``TeaReplayer.step()`` and measurably faster than batched
``TeaReplayer.run()``, while accounting identically (the differential
suite in ``tests/test_compiled_engine.py`` proves bit-exactness; this
bench re-asserts the cheap invariants on the bench streams so a perf
run can never silently diverge).

Timed engines, all driven over identical pre-captured Table 4 replay
workloads:

- ``step``      — per-call ``TeaReplayer.step()`` (the baseline);
- ``run``       — batched ``TeaReplayer.run()`` over transition objects;
- ``compiled``  — ``CompiledReplayer.run()`` over one
  :class:`~repro.core.compiled.PackedBatch` of the whole stream
  (packing and wrapping are *excluded*: under Pin hosting a replay
  receives the recorded stream's batches, which the stream builds once
  and every later replay reuses — ``bench_components.py``'s
  ``test_served_engine_*`` time that path, first replay and warm).

Modes:

- default: three representative workloads at bench scale;
- ``REPRO_BENCH_SMOKE=1`` (or ``--smoke``): one workload, smaller
  scale, fewer repeats — the CI configuration;
- ``REPRO_BENCH_FULL=1``: the full bench subset at paper scale.

Standalone::

    PYTHONPATH=src python benchmarks/bench_compiled_engine.py
    PYTHONPATH=src python benchmarks/bench_compiled_engine.py \
        --smoke --json bench_compiled.json
"""

import json
import os
import sys
import time

import pytest

from repro.core import CompiledReplayer, CompiledTea, PackedBatch, \
    ReplayConfig, TeaReplayer, build_tea
from repro.cfg.basic_block import BlockIndex
from repro.cpu import ExecutionStream
from repro.dbt import StarDBT
from repro.pin import pack_transitions
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

if SMOKE:
    WORKLOADS = ["164.gzip"]
    SCALE = 1.0
    REPEATS = 3
elif FULL:
    WORKLOADS = ["171.swim", "164.gzip", "176.gcc", "253.perlbmk",
                 "255.vortex", "256.bzip2"]
    SCALE = 4.0
    REPEATS = 5
else:
    WORKLOADS = ["164.gzip", "176.gcc", "171.swim"]
    SCALE = 2.0
    REPEATS = 5

#: Minimum speedup of the compiled engine over per-call step().
TARGET_VS_STEP = 3.0
#: The compiled engine must also beat batched object-graph run().
TARGET_VS_RUN = 1.0


def _capture(name):
    """Record MRET traces; return (tea, compiled, transitions, packed)."""
    program = load_benchmark(name, scale=SCALE).program
    trace_set = StarDBT(
        program, strategy="mret", limits=RecorderLimits(hot_threshold=30)
    ).run().trace_set
    transitions = list(ExecutionStream.record(program).block_transitions(
        BlockIndex(program), program.entry))
    tea = build_tea(trace_set)
    return tea, CompiledTea.from_tea(tea), transitions, \
        PackedBatch(pack_transitions(transitions))


@pytest.fixture(scope="module")
def streams():
    return {name: _capture(name) for name in WORKLOADS}


def _stepwise(tea, transitions, config):
    replayer = TeaReplayer(tea, config=config)
    step = replayer.step
    for transition in transitions:
        step(transition.next_start, transition.instrs_dbt,
             transition.instrs_pin)
    return replayer


def _batched(tea, transitions, config):
    replayer = TeaReplayer(tea, config=config)
    replayer.run(transitions)
    return replayer


def _compiled(compiled_tea, packed, config):
    replayer = CompiledReplayer(compiled_tea, config=config)
    replayer.run(packed)
    return replayer


def _best_time(thunk, repeats=REPEATS):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        thunk()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _table4_factories():
    return {
        "global_local": ReplayConfig.global_local,
        "global_no_local": ReplayConfig.global_no_local,
        "no_global_local": ReplayConfig.no_global_local,
        "no_global_no_local": ReplayConfig.no_global_no_local,
    }


def measure(streams_dict, repeats=REPEATS):
    """Per-workload timings of all three engines.

    Returns ``(summary, rows)`` where ``summary`` pools the totals and
    each row is a JSON-able dict (the ``--json`` payload CI archives).
    """
    totals = {"step": 0.0, "run": 0.0, "compiled": 0.0}
    rows = []
    for name, (tea, compiled_tea, transitions, packed) in streams_dict.items():
        config = ReplayConfig.global_local
        times = {
            "step": _best_time(
                lambda: _stepwise(tea, transitions, config()), repeats),
            "run": _best_time(
                lambda: _batched(tea, transitions, config()), repeats),
            "compiled": _best_time(
                lambda: _compiled(compiled_tea, packed, config()), repeats),
        }
        for engine, elapsed in times.items():
            totals[engine] += elapsed
        rows.append({
            "workload": name,
            "blocks": len(transitions),
            "seconds": times,
            "blocks_per_second": {
                engine: len(transitions) / elapsed
                for engine, elapsed in times.items()
            },
            "speedup_vs_step": times["step"] / times["compiled"],
            "speedup_vs_run": times["run"] / times["compiled"],
        })
    summary = {
        "workloads": len(rows),
        "repeats": repeats,
        "scale": SCALE,
        "seconds": totals,
        "speedup_vs_step": totals["step"] / totals["compiled"],
        "speedup_vs_run": totals["run"] / totals["compiled"],
        "targets": {"vs_step": TARGET_VS_STEP, "vs_run": TARGET_VS_RUN},
    }
    return summary, rows


def _render(summary, rows, out=print):
    for row in rows:
        seconds = row["seconds"]
        out("%-14s %8d blocks  step %7.4fs  run %7.4fs  "
            "compiled %7.4fs  %5.2fx vs step  %5.2fx vs run"
            % (row["workload"], row["blocks"], seconds["step"],
               seconds["run"], seconds["compiled"],
               row["speedup_vs_step"], row["speedup_vs_run"]))
    out("pooled: compiled %.2fx vs step (target >= %.1fx), "
        "%.2fx vs run (target > %.1fx)"
        % (summary["speedup_vs_step"], TARGET_VS_STEP,
           summary["speedup_vs_run"], TARGET_VS_RUN))


def test_compiled_engine_matches_object_engines(streams):
    """Cheap invariant re-check on the bench streams themselves."""
    for name, (tea, compiled_tea, transitions, packed) in streams.items():
        for config_name, factory in _table4_factories().items():
            reference = _stepwise(tea, transitions, factory())
            candidate = _compiled(compiled_tea, packed, factory())
            assert candidate.stats.as_dict() == reference.stats.as_dict(), (
                name, config_name,
            )
            assert candidate.cost.breakdown == reference.cost.breakdown, (
                name, config_name,
            )
            assert candidate.cost.cycles == reference.cost.cycles, (
                name, config_name,
            )
            assert candidate.sid == reference.state.sid, (name, config_name)


def test_compiled_engine_speedup(streams):
    summary, rows = measure(streams)
    print()
    _render(summary, rows)
    assert summary["speedup_vs_step"] >= TARGET_VS_STEP, (
        "compiled engine only %.2fx faster than step()"
        % summary["speedup_vs_step"]
    )
    assert summary["speedup_vs_run"] > TARGET_VS_RUN, (
        "compiled engine not faster than batched run() (%.2fx)"
        % summary["speedup_vs_run"]
    )


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="compiled flat-table engine vs TeaReplayer")
    parser.add_argument("--smoke", action="store_true",
                        help="one workload, CI-sized (same as "
                             "REPRO_BENCH_SMOKE=1)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write {summary, rows} as JSON")
    args = parser.parse_args(argv)

    global WORKLOADS, SCALE, REPEATS
    if args.smoke and not SMOKE:
        WORKLOADS, SCALE, REPEATS = ["164.gzip"], 1.0, 3

    captured = {name: _capture(name) for name in WORKLOADS}
    summary, rows = measure(captured, repeats=REPEATS)
    _render(summary, rows)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"summary": summary, "rows": rows}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        print("json written to %s" % args.json)
    ok = (summary["speedup_vs_step"] >= TARGET_VS_STEP
          and summary["speedup_vs_run"] > TARGET_VS_RUN)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
