"""Microbenchmark: binary ``TEAB`` snapshots vs the JSON TEA document.

The store exists so a replay service can preload automata without
re-running Algorithm 1, and so snapshots are cheap to keep around.
This bench measures both claims on real recorded workloads, with the
one snapshot writer (``dump_tea_binary``, TEAB v2):

- **size** — the binary snapshot must be smaller than the JSON
  document for every workload.  It measures ~1.3x smaller: v2 keeps
  the automaton as raw int64 tables behind a fixed section table, so
  it is ~3.4x the size the read-only v1 varint stream took, in
  exchange for zero-copy loads;
- **load time** — rebuilding ``(trace_set, tea)`` from the binary
  snapshot (direct table reconstruction, no Algorithm 1) vs the JSON
  path (C json parse + Algorithm 1 rebuild), best-of-N.  Pure-Python
  varint decoding of the trace blob gives back some of what skipping
  Algorithm 1 saves, so the binary path lands around par (~0.8-0.9x) —
  the bench pins it inside a band so a decoding regression can't hide;
- **fidelity** — both loaders must agree on state, transition and head
  counts (the round-trip tests in tests/test_store.py assert full
  bit-exactness; here we only sanity-check the bench inputs).

Modes:

- default: three representative workloads at bench scale;
- ``REPRO_BENCH_SMOKE=1``: one workload, smaller scale, fewer repeats —
  the CI configuration;
- ``REPRO_BENCH_FULL=1``: the full bench subset at paper scale
  (the configuration EXPERIMENTS.md reports).

Also runnable standalone: ``PYTHONPATH=src python
benchmarks/bench_store.py``.
"""

import json
import os
import time

import pytest

from repro.cfg.basic_block import BlockIndex
from repro.core import build_tea
from repro.core.serialization import tea_from_json, tea_to_json
from repro.dbt import StarDBT
from repro.store import dump_tea_binary, load_tea_binary
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
    REPEATS = 10
else:
    WORKLOADS = ["164.gzip", "176.gcc", "255.vortex"]
    SCALE = 2.0
    REPEATS = 5


def _capture(name):
    """Record MRET traces; return (program, trace_set, tea, json, binary)."""
    program = load_benchmark(name, scale=SCALE).program
    trace_set = StarDBT(
        program, strategy="mret", limits=RecorderLimits(hot_threshold=30)
    ).run().trace_set
    tea = build_tea(trace_set)
    text = json.dumps(tea_to_json(trace_set, tea=tea))
    binary = dump_tea_binary(trace_set, tea=tea)
    return program, trace_set, tea, text, binary


@pytest.fixture(scope="module")
def snapshots():
    return {name: _capture(name) for name in WORKLOADS}


def _load_json(text, block_index):
    return tea_from_json(json.loads(text), block_index)


def _best_time(loader, payload, block_index, repeats=REPEATS):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        loader(payload, block_index)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def measure(snapshot_dict, repeats=REPEATS):
    """Per-workload rows: sizes, load times, and the two ratios."""
    rows = []
    for name, (program, trace_set, tea, text, binary) in snapshot_dict.items():
        block_index = BlockIndex(program)
        json_time = _best_time(_load_json, text, block_index, repeats)
        bin_time = _best_time(load_tea_binary, binary, block_index, repeats)
        rows.append({
            "name": name,
            "traces": len(trace_set),
            "states": tea.n_states,
            "json_bytes": len(text),
            "bin_bytes": len(binary),
            "size_ratio": len(text) / len(binary),
            "json_load_s": json_time,
            "bin_load_s": bin_time,
            "load_speedup": json_time / bin_time,
        })
    return rows


def _print_rows(rows):
    print()
    for row in rows:
        print("%-14s %3d traces %4d states  json %6d B / bin %5d B "
              "(%.2fx)  load %7.4f ms / %7.4f ms (%.2fx)"
              % (row["name"], row["traces"], row["states"],
                 row["json_bytes"], row["bin_bytes"], row["size_ratio"],
                 1e3 * row["json_load_s"], 1e3 * row["bin_load_s"],
                 row["load_speedup"]))


def test_loaders_agree(snapshots):
    for name, (program, trace_set, tea, text, binary) in snapshots.items():
        block_index = BlockIndex(program)
        json_set, json_tea, _ = _load_json(text, block_index)
        bin_set, bin_tea, _ = load_tea_binary(binary, block_index)
        assert bin_set.n_tbbs == json_set.n_tbbs == trace_set.n_tbbs, name
        assert bin_tea.n_states == json_tea.n_states == tea.n_states, name
        assert bin_tea.n_transitions == tea.n_transitions, name
        assert set(bin_tea.heads) == set(tea.heads), name


def test_binary_snapshot_is_smaller(snapshots):
    rows = measure(snapshots, repeats=1)
    for row in rows:
        assert row["bin_bytes"] < row["json_bytes"], row["name"]


def test_binary_load_not_slower(snapshots):
    rows = measure(snapshots)
    _print_rows(rows)
    pooled = (sum(row["json_load_s"] for row in rows)
              / sum(row["bin_load_s"] for row in rows))
    print("pooled load speedup: %.2fx; pooled size ratio: %.2fx"
          % (pooled,
             sum(row["json_bytes"] for row in rows)
             / sum(row["bin_bytes"] for row in rows)))
    # The C json parser is hard to beat from pure-Python varint loops;
    # what this guards is decode regressions, not a speed crown.
    assert pooled >= 0.4, "binary load %.2fx of JSON load" % pooled


if __name__ == "__main__":
    captured = {name: _capture(name) for name in WORKLOADS}
    table = measure(captured)
    _print_rows(table)
    print("pooled load speedup: %.2fx; pooled size ratio: %.2fx"
          % (sum(r["json_load_s"] for r in table)
             / sum(r["bin_load_s"] for r in table),
             sum(r["json_bytes"] for r in table)
             / sum(r["bin_bytes"] for r in table)))
