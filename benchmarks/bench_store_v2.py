"""Microbenchmark: TEAB v2 zero-copy mmap loads vs the v1 decode path.

The v2 section format exists so a replay fleet can reach a
replay-ready :class:`~repro.core.compiled.CompiledTea` without
decoding anything: the CSR tables are raw little-endian int64 bytes,
8-byte aligned, so the automaton is built directly over an ``mmap`` of
the snapshot file.  This bench measures the three claims the format
makes:

- **load latency** — opening a v2 mapping and lowering the compiled
  automaton must be at least 5x faster (pooled across workloads) than
  decoding the varint v1 image, because the v2 path is O(file) in
  ``mmap``/header work instead of O(transitions) in Python varint
  loops;
- **fleet memory** — eight forked workers each materialising the v1
  automaton pay the full decoded footprint privately, eight workers
  mapping the same v2 file share the page cache; the aggregate
  *private* memory growth of the v2 pool must come in below the v1
  pool's;
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
from repro.store import (
    AutomatonStore,
    compile_tea_binary,
    convert_v1_to_v2,
    dump_tea_binary,
    open_snapshot_mapping,
)
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
MIN_POOLED_SPEEDUP = 5.0


def _capture(name, directory):
    """Record MRET traces; write v1 and v2 snapshot files."""
    program = load_benchmark(name, scale=SCALE).program
    trace_set = StarDBT(
        program, strategy="mret", limits=RecorderLimits(hot_threshold=30)
    ).run().trace_set
    tea = build_tea(trace_set)
    v1 = dump_tea_binary(trace_set, tea=tea)
    v2 = convert_v1_to_v2(v1)
    path_v1 = os.path.join(directory, "%s.v1.teab" % name)
    path_v2 = os.path.join(directory, "%s.v2.teab" % name)
    with open(path_v1, "wb") as handle:
        handle.write(v1)
    with open(path_v2, "wb") as handle:
        handle.write(v2)
    return {
        "name": name,
        "states": tea.n_states,
        "transitions": tea.n_transitions,
        "v1_bytes": len(v1),
        "v2_bytes": len(v2),
        "path_v1": path_v1,
        "path_v2": path_v2,
    }


def _load_v1(path):
    with open(path, "rb") as handle:
        data = handle.read()
    return compile_tea_binary(data, verify=False)


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
    """Per-workload rows: file sizes, cold-load times, the speedup."""
    rows = []
    for snap in snapshots:
        v1_time = _best_time(_load_v1, snap["path_v1"], repeats)
        v2_time = _best_time(_load_v2, snap["path_v2"], repeats)
        rows.append(dict(snap,
                         v1_load_s=v1_time,
                         v2_load_s=v2_time,
                         load_speedup=v1_time / v2_time))
    return rows


def pooled_speedup(rows):
    return (sum(row["v1_load_s"] for row in rows)
            / sum(row["v2_load_s"] for row in rows))


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


def _worker_body(version, path, queue):
    before = _private_kb()
    compiled = _load_v1(path) if version == 1 else _load_v2(path)
    # Touch the tables so lazily-faulted pages are charged to us.
    checksum = compiled.trans_offset[-1] + compiled.trans_dest[0]
    assert checksum >= 0
    queue.put(max(0, _private_kb() - before))


def measure_pool_memory(snapshots, workers=POOL_WORKERS):
    """Aggregate private-memory growth of a fork pool, per format."""
    context = multiprocessing.get_context("fork")
    result = {}
    for version, path_key in ((1, "path_v1"), (2, "path_v2")):
        total_kb = 0
        for snap in snapshots:
            if version == 2:
                # Warm the page cache the way a fleet master would:
                # the mapping stays open while workers fork and map.
                warm = open_snapshot_mapping(snap[path_key])
            queue = context.Queue()
            procs = [
                context.Process(target=_worker_body,
                                args=(version, snap[path_key], queue))
                for _ in range(workers)
            ]
            for proc in procs:
                proc.start()
            grown = [queue.get(timeout=60) for _ in procs]
            for proc in procs:
                proc.join(timeout=60)
            total_kb += sum(grown)
            if version == 2:
                warm.close()
        result["v%d_pool_private_kb" % version] = total_kb
    result["workers"] = workers
    result["rss_ratio"] = (
        result["v1_pool_private_kb"] / result["v2_pool_private_kb"]
        if result["v2_pool_private_kb"] else float("inf")
    )
    return result


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
        print("%-14s %5d states %6d trans  v1 %6d B / v2 %6d B  "
              "load %8.4f ms / %8.4f ms (%.1fx)"
              % (row["name"], row["states"], row["transitions"],
                 row["v1_bytes"], row["v2_bytes"],
                 1e3 * row["v1_load_s"], 1e3 * row["v2_load_s"],
                 row["load_speedup"]))


def test_v2_load_speedup(snapshots):
    rows = measure_load(snapshots)
    _print_rows(rows)
    pooled = pooled_speedup(rows)
    print("pooled v2 load speedup: %.1fx" % pooled)
    assert pooled >= MIN_POOLED_SPEEDUP, (
        "v2 mmap load only %.1fx faster than v1 decode (need >= %.1fx)"
        % (pooled, MIN_POOLED_SPEEDUP))


def test_v2_pool_uses_less_private_memory(snapshots):
    result = measure_pool_memory(snapshots)
    print("\n%d-worker pool private growth: v1 %d KiB / v2 %d KiB (%.1fx)"
          % (result["workers"], result["v1_pool_private_kb"],
             result["v2_pool_private_kb"], result["rss_ratio"]))
    assert (result["v2_pool_private_kb"] < result["v1_pool_private_kb"]), (
        "v2 mmap pool grew %d KiB privately, v1 decode pool %d KiB"
        % (result["v2_pool_private_kb"], result["v1_pool_private_kb"]))


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
                 ("name", "states", "transitions", "v1_bytes", "v2_bytes",
                  "v1_load_s", "v2_load_s", "load_speedup")}
                for row in rows
            ],
            "pooled_load_speedup": pooled_speedup(rows),
            "pool_memory": pool,
            "hot_reload": {"swap_s": reload_stats["swap_s"]},
        }
    if as_json:
        text = json.dumps(report, indent=2, sort_keys=True)
        if json_path:
            with open(json_path, "w") as handle:
                handle.write(text + "\n")
            print("wrote %s (pooled speedup %.1fx)"
                  % (json_path, report["pooled_load_speedup"]))
        else:
            print(text)
    else:
        _print_rows(rows)
        print("pooled v2 load speedup: %.1fx"
              % report["pooled_load_speedup"])
        print("%d-worker pool private growth: v1 %d KiB / v2 %d KiB (%.1fx)"
              % (pool["workers"], pool["v1_pool_private_kb"],
                 pool["v2_pool_private_kb"], pool["rss_ratio"]))
        print("hot-reload swap: %.1f ms" % (1e3 * reload_stats["swap_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
