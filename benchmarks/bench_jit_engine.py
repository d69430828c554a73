"""Microbenchmark: the specializing JIT engine vs the compiled engine.

Reports how ``JitReplayer.run()`` over packed int streams compares
with ``CompiledReplayer.run()`` over identical streams
(``speedup_vs_compiled``), and asserts that both account identically
(the differential suite in ``tests/test_jit_engine.py`` proves
bit-exactness; this bench re-asserts the cheap invariants on the bench
streams so a perf run can never silently diverge).  The speedup is
reported, not gated: both engines walk the same kind of per-state
cells, so the generated code buys no speed over the compiled walk.

Timed engines, all driven over identical pre-captured replay workloads
under the Table 4 ``global_local`` configuration:

- ``compiled`` — ``CompiledReplayer.run()`` over one
  :class:`~repro.core.compiled.PackedBatch` of the whole stream;
- ``jit``      — ``JitReplayer.run()`` over the same stream, with
  codegen+``exec`` time *excluded* from the timed region but reported
  separately (``codegen_seconds``): the store caches generated sources
  by snapshot digest, so steady-state replays never pay it.

Modes:

- default: three representative workloads at bench scale;
- ``REPRO_BENCH_SMOKE=1`` (or ``--smoke``): one workload, smaller
  scale, fewer repeats — the CI configuration;
- ``REPRO_BENCH_FULL=1``: the full bench subset at paper scale.

Standalone::

    PYTHONPATH=src python benchmarks/bench_jit_engine.py
    PYTHONPATH=src python benchmarks/bench_jit_engine.py \
        --smoke --json bench_jit.json
"""

import json
import os
import sys
import time

import pytest

from repro.core import CompiledReplayer, CompiledTea, JitCode, \
    JitReplayer, PackedBatch, ReplayConfig, build_tea
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


def _capture(name):
    """Record MRET traces; return (compiled, jit_code, packed)."""
    program = load_benchmark(name, scale=SCALE).program
    trace_set = StarDBT(
        program, strategy="mret", limits=RecorderLimits(hot_threshold=30)
    ).run().trace_set
    transitions = list(ExecutionStream.record(program).block_transitions(
        BlockIndex(program), program.entry))
    compiled = CompiledTea.from_tea(build_tea(trace_set))
    start = time.perf_counter()
    code = JitCode.from_compiled(compiled, config=ReplayConfig.global_local())
    codegen = time.perf_counter() - start
    return compiled, code, codegen, \
        PackedBatch(pack_transitions(transitions))


@pytest.fixture(scope="module")
def streams():
    return {name: _capture(name) for name in WORKLOADS}


def _compiled(compiled_tea, packed, config):
    replayer = CompiledReplayer(compiled_tea, config=config)
    replayer.run(packed)
    return replayer


def _jit(compiled_tea, packed, config, code):
    replayer = JitReplayer(compiled_tea, config=config, code=code)
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


def measure(streams_dict, repeats=REPEATS):
    """Per-workload timings of both engines.

    Returns ``(summary, rows)`` where ``summary`` pools the totals and
    each row is a JSON-able dict (the ``--json`` payload CI archives).
    """
    totals = {"compiled": 0.0, "jit": 0.0}
    rows = []
    for name, (compiled, code, codegen, packed) in streams_dict.items():
        config = ReplayConfig.global_local
        times = {
            "compiled": _best_time(
                lambda: _compiled(compiled, packed, config()), repeats),
            "jit": _best_time(
                lambda: _jit(compiled, packed, config(), code), repeats),
        }
        for engine, elapsed in times.items():
            totals[engine] += elapsed
        blocks = len(packed)
        rows.append({
            "workload": name,
            "blocks": blocks,
            "states": compiled.n_states,
            "codegen_seconds": codegen,
            "seconds": times,
            "blocks_per_second": {
                engine: blocks / elapsed
                for engine, elapsed in times.items()
            },
            "speedup_vs_compiled": times["compiled"] / times["jit"],
        })
    summary = {
        "workloads": len(rows),
        "repeats": repeats,
        "scale": SCALE,
        "seconds": totals,
        "codegen_seconds": sum(row["codegen_seconds"] for row in rows),
        "speedup_vs_compiled": totals["compiled"] / totals["jit"],
    }
    return summary, rows


def _render(summary, rows, out=print):
    for row in rows:
        seconds = row["seconds"]
        out("%-14s %8d blocks  compiled %7.4fs  jit %7.4fs  "
            "(codegen %6.4fs, amortised)  %5.2fx vs compiled"
            % (row["workload"], row["blocks"], seconds["compiled"],
               seconds["jit"], row["codegen_seconds"],
               row["speedup_vs_compiled"]))
    out("pooled: jit %.2fx vs compiled" % summary["speedup_vs_compiled"])


def test_jit_engine_matches_compiled_engine(streams):
    """Cheap invariant re-check on the bench streams themselves."""
    for name, (compiled, code, _codegen, packed) in streams.items():
        for config_name, factory in (
            ("global_local", ReplayConfig.global_local),
            ("no_global_no_local", ReplayConfig.no_global_no_local),
        ):
            reference = _compiled(compiled, packed, factory())
            candidate = JitReplayer(compiled, config=factory())
            candidate.run(packed)
            assert candidate.stats.as_dict() == reference.stats.as_dict(), (
                name, config_name,
            )
            assert candidate.cost.breakdown == reference.cost.breakdown, (
                name, config_name,
            )
            assert candidate.cost.cycles == reference.cost.cycles, (
                name, config_name,
            )
            assert candidate.sid == reference.sid, (name, config_name)
            assert not candidate.deopted, (name, config_name)


def test_jit_engine_speedup(streams):
    summary, rows = measure(streams)
    print()
    _render(summary, rows)


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="specializing JIT engine vs the compiled engine")
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
    test_jit_engine_matches_compiled_engine(captured)
    summary, rows = measure(captured, repeats=REPEATS)
    _render(summary, rows)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"summary": summary, "rows": rows}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        print("json written to %s" % args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
