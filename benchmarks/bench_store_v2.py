"""Microbenchmark: TEAB v2 zero-copy mmap loads, fleet memory, hot reload.

The v2 section format exists so a replay fleet can reach a
replay-ready :class:`~repro.core.compiled.CompiledTea` without
decoding anything: the CSR tables are raw little-endian int64 bytes,
8-byte aligned, so the automaton is built directly over an ``mmap`` of
the snapshot file.  This bench measures the three claims the format
makes, each against an absolute bound:

- **load latency** — opening a v2 mapping and lowering the compiled
  automaton is O(file) ``mmap``/header work with no decode loop, so it
  must stay under ``MAX_LOAD_S`` per workload;
- **fleet memory** — eight forked workers mapping the same v2 file
  share the page cache, so the pool's aggregate *private* memory growth
  must stay under ``MAX_POOL_PRIVATE_KB_PER_WORKER`` per worker;
- **hot-reload swap** — a live service swaps to a superseding snapshot
  via the ``reload`` RPC without dropping in-flight replays; the swap
  itself is a mapping open plus bookkeeping, so it lands in
  milliseconds, not replay-times.

Modes:

- default: three representative workloads at bench scale;
- ``REPRO_BENCH_SMOKE=1``: one workload, smaller scale, fewer repeats —
  the CI configuration;
- ``REPRO_BENCH_FULL=1``: the full bench subset at paper scale
  (the configuration EXPERIMENTS.md reports).

Also runnable standalone (``--json`` emits a machine-readable report):

    PYTHONPATH=src python benchmarks/bench_store_v2.py [--json]
"""

import json
import multiprocessing
import os
import sys
import tempfile
import time

import pytest

from repro.core import build_tea
from repro.dbt import StarDBT
from repro.store import AutomatonStore, dump_tea_binary, open_snapshot_mapping
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

if SMOKE:
    # gcc is the biggest automaton in the set: the v2 advantage is
    # O(transitions) decode work skipped, so it gives the gate the most
    # headroom against CI timer noise on sub-100us v2 loads.
    WORKLOADS = ["176.gcc"]
    SCALE = 2.0
    REPEATS = 5
elif FULL:
    WORKLOADS = ["171.swim", "164.gzip", "176.gcc", "253.perlbmk",
                 "255.vortex", "256.bzip2"]
    SCALE = 4.0
    REPEATS = 10
else:
    WORKLOADS = ["164.gzip", "176.gcc", "255.vortex"]
    SCALE = 2.0
    REPEATS = 5

POOL_WORKERS = 8
#: Bound on one cold v2 load (mapping + compiled lowering), seconds.
MAX_LOAD_S = 0.01
#: Bound on a pool worker's private growth from mapping a snapshot, KiB.
MAX_POOL_PRIVATE_KB_PER_WORKER = 1024


def _capture(name, directory):
    """Record MRET traces; write the v2 snapshot file."""
    program = load_benchmark(name, scale=SCALE).program
    trace_set = StarDBT(
        program, strategy="mret", limits=RecorderLimits(hot_threshold=30)
    ).run().trace_set
    tea = build_tea(trace_set)
    data = dump_tea_binary(trace_set, tea=tea)
    path = os.path.join(directory, "%s.teab" % name)
    with open(path, "wb") as handle:
        handle.write(data)
    return {
        "name": name,
        "states": tea.n_states,
        "transitions": tea.n_transitions,
        "bytes": len(data),
        "path": path,
    }


def _load_v2(path):
    mapping = open_snapshot_mapping(path)
    try:
        return mapping.compiled()
    finally:
        mapping.close()


def _best_time(loader, path, repeats=REPEATS):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        compiled = loader(path)
        elapsed = time.perf_counter() - start
        assert compiled.n_states >= 1
        if best is None or elapsed < best:
            best = elapsed
    return best


def measure_load(snapshots, repeats=REPEATS):
    """Per-workload rows: file size and best cold-load time."""
    return [dict(snap, load_s=_best_time(_load_v2, snap["path"], repeats))
            for snap in snapshots]


# ---------------------------------------------------------------------
# fleet memory: N forked workers, private-memory growth per worker
# ---------------------------------------------------------------------

def _private_kb():
    """Private (unshared) memory of this process, in KiB."""
    with open("/proc/self/smaps_rollup") as handle:
        text = handle.read()
    total = 0
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            total += int(line.split()[1])
    return total


def _worker_body(path, queue):
    before = _private_kb()
    compiled = _load_v2(path)
    # Touch the tables so lazily-faulted pages are charged to us.
    checksum = compiled.trans_offset[-1] + compiled.trans_dest[0]
    assert checksum >= 0
    queue.put(max(0, _private_kb() - before))


def measure_pool_memory(snapshots, workers=POOL_WORKERS):
    """Aggregate private-memory growth of a fork pool mapping each
    snapshot."""
    context = multiprocessing.get_context("fork")
    total_kb = 0
    for snap in snapshots:
        # Warm the page cache the way a fleet master would: the mapping
        # stays open while workers fork and map.
        warm = open_snapshot_mapping(snap["path"])
        queue = context.Queue()
        procs = [
            context.Process(target=_worker_body, args=(snap["path"], queue))
            for _ in range(workers)
        ]
        for proc in procs:
            proc.start()
        grown = [queue.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        total_kb += sum(grown)
        warm.close()
    return {"workers": workers, "snapshots": len(snapshots),
            "pool_private_kb": total_kb}


# ---------------------------------------------------------------------
# hot-reload swap latency on a live service
# ---------------------------------------------------------------------

def measure_hot_reload(directory):
    """Swap a superseding snapshot into a live service; time the RPC."""
    from repro.service.client import ServiceClient
    from repro.service.testing import ServiceThread

    benchmark = WORKLOADS[0]
    program = load_benchmark(benchmark, scale=SCALE).program

    def snapshot(threshold, supersedes=None):
        trace_set = StarDBT(
            program, limits=RecorderLimits(hot_threshold=threshold)
        ).run().trace_set
        meta = {"benchmark": benchmark, "scale": SCALE, "label": "bench"}
        if supersedes:
            meta["supersedes"] = supersedes
        return AutomatonStore(os.path.join(directory, "store")).put(
            trace_set, tea=build_tea(trace_set), meta=meta, program=program
        )

    key_old = snapshot(30)
    store = AutomatonStore(os.path.join(directory, "store"))
    with ServiceThread(store) as service:
        host, port = service.address
        with ServiceClient(host, port, timeout=60.0) as client:
            first = client.call("replay", snapshot="bench")
            assert first["snapshot"] == key_old
            key_new = snapshot(10, supersedes=key_old)
            start = time.perf_counter()
            out = client.call("reload")
            swap_s = time.perf_counter() - start
            after = client.call("replay", snapshot="bench")
    assert out["loaded"] == [key_new]
    assert after["snapshot"] == key_new
    return {"swap_s": swap_s, "loaded": out["loaded"],
            "retired": out["retired"]}


# ---------------------------------------------------------------------
# pytest entry points (gates)
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("teab_v2"))
    return [_capture(name, directory) for name in WORKLOADS]


def _print_rows(rows):
    print()
    for row in rows:
        print("%-14s %5d states %6d trans  %6d B  load %8.4f ms"
              % (row["name"], row["states"], row["transitions"],
                 row["bytes"], 1e3 * row["load_s"]))


def _pool_bound_kb(result):
    return (MAX_POOL_PRIVATE_KB_PER_WORKER * result["workers"]
            * result["snapshots"])


def test_v2_load_is_fast(snapshots):
    rows = measure_load(snapshots)
    _print_rows(rows)
    for row in rows:
        assert row["load_s"] < MAX_LOAD_S, (
            "%s: v2 mmap load took %.2f ms (bound %.0f ms)"
            % (row["name"], 1e3 * row["load_s"], 1e3 * MAX_LOAD_S))


def test_v2_pool_shares_the_mapping(snapshots):
    result = measure_pool_memory(snapshots)
    print("\n%d-worker pool private growth: %d KiB over %d snapshot(s)"
          % (result["workers"], result["pool_private_kb"],
             result["snapshots"]))
    assert result["pool_private_kb"] < _pool_bound_kb(result), (
        "v2 mmap pool grew %d KiB privately (bound %d KiB)"
        % (result["pool_private_kb"], _pool_bound_kb(result)))


def test_hot_reload_swap_is_fast(tmp_path):
    result = measure_hot_reload(str(tmp_path))
    print("\nhot-reload swap: %.1f ms (retired %d)"
          % (1e3 * result["swap_s"], len(result["retired"])))
    # The swap is snapshot-load work, never replay work: generous bound.
    assert result["swap_s"] < 30.0


# ---------------------------------------------------------------------
# standalone
# ---------------------------------------------------------------------

def main(argv):
    as_json = "--json" in argv
    json_path = None
    if as_json:
        trailing = argv[argv.index("--json") + 1:]
        if trailing and not trailing[0].startswith("-"):
            json_path = trailing[0]
    with tempfile.TemporaryDirectory() as directory:
        snaps = [_capture(name, directory) for name in WORKLOADS]
        rows = measure_load(snaps)
        pool = measure_pool_memory(snaps)
        reload_stats = measure_hot_reload(directory)
        report = {
            "workloads": [
                {key: row[key] for key in
                 ("name", "states", "transitions", "bytes", "load_s")}
                for row in rows
            ],
            "pool_memory": pool,
            "hot_reload": {"swap_s": reload_stats["swap_s"]},
        }
    if as_json:
        text = json.dumps(report, indent=2, sort_keys=True)
        if json_path:
            with open(json_path, "w") as handle:
                handle.write(text + "\n")
            print("wrote %s" % json_path)
        else:
            print(text)
    else:
        _print_rows(rows)
        print("%d-worker pool private growth: %d KiB over %d snapshot(s)"
              % (pool["workers"], pool["pool_private_kb"],
                 pool["snapshots"]))
        print("hot-reload swap: %.1f ms" % (1e3 * reload_stats["swap_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
