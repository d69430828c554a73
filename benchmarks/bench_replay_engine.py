"""Microbenchmark: batched ``TeaReplayer.run()`` vs per-call ``step()``.

The transition function is the replay hot path (the paper's Table 4
result), so the batched engine exists to cut interpreter overhead per
block: one loop over the transition stream with attribute lookups, cost
parameters and statistic counters hoisted into locals, and metric
flushes deferred to the batch boundary.

This bench drives both engines over identical pre-captured transition
streams from Table 4 replay workloads and asserts:

- **equivalence** — final state, every statistic, and total cycles match
  between the two engines;
- **throughput** — batched ``run()`` is at least 1.3x faster than
  per-call ``step()`` (measured best-of-N on the pooled workloads).

Modes:

- default: three representative Table 4 workloads at bench scale;
- ``REPRO_BENCH_SMOKE=1``: one workload, smaller scale, fewer repeats —
  the CI configuration;
- ``REPRO_BENCH_FULL=1``: the full bench subset at paper scale.

Also runnable standalone: ``PYTHONPATH=src python
benchmarks/bench_replay_engine.py``.
"""

import os
import time

import pytest

from repro.cfg.basic_block import BlockIndex
from repro.core import ReplayConfig, TeaReplayer, build_tea
from repro.cpu import ExecutionStream
from repro.dbt import StarDBT
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

#: Minimum acceptable speedup of run() over step() on the pooled stream.
TARGET_SPEEDUP = 1.3


def _capture(name):
    """Record MRET traces and capture the replay transition stream."""
    program = load_benchmark(name, scale=SCALE).program
    trace_set = StarDBT(
        program, strategy="mret", limits=RecorderLimits(hot_threshold=30)
    ).run().trace_set
    transitions = list(ExecutionStream.record(program).block_transitions(
        BlockIndex(program), program.entry))
    return build_tea(trace_set), transitions


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


def _best_time(engine, tea, transitions, config, repeats=REPEATS):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        engine(tea, transitions, config)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def test_batched_run_matches_step(streams):
    """run() must be an exact accounting replacement for step()."""
    for name, (tea, transitions) in streams.items():
        stepwise = _stepwise(tea, transitions, ReplayConfig.global_local())
        batched = _batched(tea, transitions, ReplayConfig.global_local())
        assert batched.state is stepwise.state, name
        assert batched.stats.as_dict() == stepwise.stats.as_dict(), name
        assert batched.cost.cycles == pytest.approx(stepwise.cost.cycles), name
        assert set(batched.cost.breakdown) == set(stepwise.cost.breakdown), name
        for category, cycles in stepwise.cost.breakdown.items():
            assert batched.cost.breakdown[category] == pytest.approx(cycles), (
                name, category,
            )


def measure_speedup(streams_dict, repeats=REPEATS):
    """Pooled per-workload timings; returns (speedup, per-workload rows)."""
    total_step = 0.0
    total_run = 0.0
    rows = []
    for name, (tea, transitions) in streams_dict.items():
        step_time = _best_time(_stepwise, tea, transitions,
                               ReplayConfig.global_local(), repeats)
        run_time = _best_time(_batched, tea, transitions,
                              ReplayConfig.global_local(), repeats)
        total_step += step_time
        total_run += run_time
        rows.append((name, len(transitions), step_time, run_time,
                     step_time / run_time))
    return total_step / total_run, rows


def test_batched_run_speedup(streams):
    speedup, rows = measure_speedup(streams)
    print()
    for name, blocks, step_time, run_time, ratio in rows:
        print("%-14s %8d blocks  step %7.4fs  run %7.4fs  %.2fx"
              % (name, blocks, step_time, run_time, ratio))
    print("pooled speedup: %.2fx (target >= %.1fx)"
          % (speedup, TARGET_SPEEDUP))
    assert speedup >= TARGET_SPEEDUP, (
        "batched run() only %.2fx faster than step()" % speedup
    )


if __name__ == "__main__":
    captured = {name: _capture(name) for name in WORKLOADS}
    pooled, table = measure_speedup(captured)
    for row_name, blocks, step_time, run_time, ratio in table:
        print("%-14s %8d blocks  step %7.4fs  run %7.4fs  %.2fx"
              % (row_name, blocks, step_time, run_time, ratio))
    print("pooled speedup: %.2fx" % pooled)
