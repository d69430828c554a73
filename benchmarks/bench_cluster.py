"""Sustained-throughput benchmark for the sharded replay cluster.

Boots a real cluster — router in-process, N ``repro.service`` workers
as subprocesses over one shared store — then drives a mixed
replay-family workload from >= 100 concurrent clients and reports:

- **qps** — completed requests / wall-clock for the storm;
- **latency** — client-observed p50/p95/p99/max per method (collected
  with the same :class:`repro.obs.Histogram` the router uses);
- **router accounting** — forwards, sheds, retries, evictions; the
  bench asserts every request was answered and every replay-family
  answer is identical across all clients (the cluster must not change
  results, only throughput).

Modes:

- default: 100 clients x 5 requests over 3 workers;
- ``REPRO_BENCH_SMOKE=1``: 32 clients x 3 requests over 2 workers —
  the CI configuration;
- ``REPRO_BENCH_FULL=1``: 128 clients x 8 requests over 4 workers.

Runnable under pytest (``python -m pytest -s benchmarks/
bench_cluster.py``) or standalone with a JSON artifact for CI::

    PYTHONPATH=src python benchmarks/bench_cluster.py --json out.json

The numbers land in EXPERIMENTS.md ("Sharded replay cluster").
"""

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster import ClusterConfig
from repro.cluster.testing import ClusterProcessHarness
from repro.core import build_tea
from repro.dbt import StarDBT
from repro.obs import Histogram
from repro.service.client import RetryPolicy, ServiceClient
from repro.store import AutomatonStore
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

BENCHMARK = "164.gzip"

if SMOKE:
    N_CLIENTS, REQUESTS_EACH, N_WORKERS, SCALE = 32, 3, 2, 0.3
elif FULL:
    N_CLIENTS, REQUESTS_EACH, N_WORKERS, SCALE = 128, 8, 4, 0.5
else:
    N_CLIENTS, REQUESTS_EACH, N_WORKERS, SCALE = 100, 5, 3, 0.5

#: Request mix per (client, request) index: one heavy replay per
#: client-visit cycle, the rest cheap automaton-walk / metadata reads —
#: the shape of a warm production mix (replays dominate time, not count).
def _pick_method(index):
    slot = index % 5
    if slot == 0:
        return "replay"
    if slot == 1:
        return "coverage"
    if slot in (2, 3):
        return "step-batch"
    return "snapshot-info"


def _build_store(root):
    program = load_benchmark(BENCHMARK, scale=SCALE).program
    recorded = StarDBT(
        program, limits=RecorderLimits(hot_threshold=10)
    ).run()
    store = AutomatonStore(root)
    store.put(
        recorded.trace_set, tea=build_tea(recorded.trace_set),
        meta={"benchmark": BENCHMARK, "scale": SCALE, "label": "bench"},
        program=program,
    )
    return store


def run_bench(store_root):
    """One full storm; returns the results dict (asserts invariants)."""
    histograms = {}
    answers = {"replay": set(), "coverage": set()}
    errors = []

    def storm(client_index):
        policy = RetryPolicy(attempts=8, base_delay=0.05, max_delay=0.5)
        samples = []
        with ServiceClient(host, port, timeout=240.0,
                           retry=policy) as client:
            for request_index in range(REQUESTS_EACH):
                method = _pick_method(client_index + request_index)
                started = time.perf_counter()
                try:
                    if method == "replay":
                        result = client.replay(snapshot="bench")
                        answers["replay"].add(
                            json.dumps(result, sort_keys=True))
                    elif method == "coverage":
                        result = client.coverage(snapshot="bench")
                        answers["coverage"].add(
                            json.dumps(result, sort_keys=True))
                    elif method == "step-batch":
                        result = client.step_batch([1, 2, 3, 4],
                                                   snapshot="bench")
                        assert result["steps"] == 4
                    else:
                        result = client.snapshot_info("bench")
                        assert result["states"] > 1
                except Exception as error:  # noqa: BLE001 — asserted below
                    errors.append("%s: %r" % (method, error))
                    continue
                samples.append((method, time.perf_counter() - started))
        return samples

    config = ClusterConfig(replicas=2, max_queue=64, health_interval=0.5)
    with ClusterProcessHarness(store_root, n_workers=N_WORKERS,
                               router_config=config) as cluster:
        host, port = cluster.router_thread.address
        wall_started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            all_samples = list(pool.map(storm, range(N_CLIENTS)))
        wall = time.perf_counter() - wall_started
        with cluster.client() as client:
            stats = client.stats()

    for samples in all_samples:
        for method, seconds in samples:
            histograms.setdefault(
                method, Histogram(method)).observe(seconds)
            histograms.setdefault(
                "all", Histogram("all")).observe(seconds)

    total = sum(h.count for name, h in histograms.items() if name != "all")
    assert not errors, "dropped/failed requests: %s" % errors[:5]
    assert total == N_CLIENTS * REQUESTS_EACH
    # The cluster must never change answers, only spread the load.
    assert len(answers["replay"]) == 1
    assert len(answers["coverage"]) == 1

    counters = stats["metrics"]["counters"]
    return {
        "config": {
            "clients": N_CLIENTS,
            "requests_per_client": REQUESTS_EACH,
            "workers": N_WORKERS,
            "replicas": 2,
            "benchmark": BENCHMARK,
            "scale": SCALE,
        },
        "totals": {
            "requests": total,
            "seconds": wall,
            "qps": total / wall,
        },
        "latency": {
            name: histograms[name].snapshot()
            for name in sorted(histograms)
        },
        "router": {
            "forwards": counters["router.forwards"],
            "shed": stats["shed"],
            "retries": stats["retries"],
            "evictions": stats["evictions"],
        },
    }


def _render(results):
    totals = results["totals"]
    print()
    print("cluster throughput: %d clients x %d requests, %d workers "
          "(replicas=2)"
          % (results["config"]["clients"],
             results["config"]["requests_per_client"],
             results["config"]["workers"]))
    print("  %d requests in %.2f s  ->  %.1f qps"
          % (totals["requests"], totals["seconds"], totals["qps"]))
    print("  %-14s %8s %8s %8s %8s %6s"
          % ("method", "p50 ms", "p95 ms", "p99 ms", "max ms", "n"))
    for name, latency in results["latency"].items():
        print("  %-14s %8.1f %8.1f %8.1f %8.1f %6d"
              % (name, 1e3 * latency["p50"], 1e3 * latency["p95"],
                 1e3 * latency["p99"], 1e3 * latency["max"],
                 latency["count"]))
    router = results["router"]
    print("  router: %d forwards, %d shed, %d retries, %d evictions"
          % (router["forwards"], router["shed"], router["retries"],
             router["evictions"]))


def test_cluster_throughput(tmp_path):
    store = _build_store(tmp_path / "store")
    results = run_bench(str(store.root))
    _render(results)
    assert results["totals"]["qps"] > 0
    # Healthy cluster: nothing was evicted during a plain storm.
    assert results["router"]["evictions"] == 0


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser()
    parser.add_argument("--json", help="write the results dict here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        store = _build_store(os.path.join(scratch, "store"))
        results = run_bench(str(store.root))
    _render(results)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("results written to %s" % args.json)
    sys.exit(0)
