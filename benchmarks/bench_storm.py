"""Sustained-throughput storm against one replay service.

Builds one snapshot into a fresh store, serves it from one
``python -m repro.service serve`` subprocess, then drives a mixed
replay-family workload from >= 100 concurrent clients and reports:

- **qps** — completed requests / wall-clock for the storm;
- **latency** — client-observed p50/p95/p99/max per method (collected
  with :class:`repro.obs.Histogram`);
- **service accounting** — the ``stats`` RPC's per-method request
  counts and error count.  The bench asserts every request was
  answered without an error, the service counted exactly what was
  sent, and every replay-family answer is identical across all
  clients.

Modes:

- default: 100 clients x 5 requests, 6 service threads;
- ``REPRO_BENCH_SMOKE=1``: 32 clients x 3 requests, 4 threads — the
  CI configuration;
- ``REPRO_BENCH_FULL=1``: 128 clients x 8 requests, 8 threads.

Runnable under pytest (``python -m pytest -s benchmarks/
bench_storm.py``) or standalone with a JSON artifact for CI::

    PYTHONPATH=src python benchmarks/bench_storm.py --json out.json

EXPERIMENTS.md ("Router vs one service") records the default storm.
"""

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core import build_tea
from repro.dbt import StarDBT
from repro.obs import Histogram
from repro.service.client import ServiceClient
from repro.service.testing import wait_for_port_file
from repro.store import AutomatonStore
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

BENCHMARK = "164.gzip"

if SMOKE:
    N_CLIENTS, REQUESTS_EACH, N_THREADS, SCALE = 32, 3, 4, 0.3
elif FULL:
    N_CLIENTS, REQUESTS_EACH, N_THREADS, SCALE = 128, 8, 8, 0.5
else:
    N_CLIENTS, REQUESTS_EACH, N_THREADS, SCALE = 100, 5, 6, 0.5

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


@contextlib.contextmanager
def _serve(store_root):
    """One ``repro.service serve`` subprocess; yields its port."""
    workdir = tempfile.TemporaryDirectory()
    port_file = os.path.join(workdir.name, "storm.port")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC_ROOT, env.get("PYTHONPATH")) if path
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--store", str(store_root), "--port", "0",
         "--port-file", port_file, "--workers", str(N_THREADS),
         "--timeout", "120"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        yield wait_for_port_file(port_file, timeout=240.0)
    finally:
        process.terminate()
        process.wait(timeout=60.0)
        workdir.cleanup()


def run_bench(store_root):
    """One full storm; returns the results dict (asserts invariants)."""
    histograms = {}
    answers = {"replay": set(), "coverage": set()}
    errors = []

    def storm(client_index):
        samples = []
        with ServiceClient(port=port, timeout=240.0) as client:
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

    with _serve(store_root) as port:
        wall_started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            all_samples = list(pool.map(storm, range(N_CLIENTS)))
        wall = time.perf_counter() - wall_started
        with ServiceClient(port=port) as client:
            stats = client.stats()

    for samples in all_samples:
        for method, seconds in samples:
            histograms.setdefault(
                method, Histogram(method)).observe(seconds)
            histograms.setdefault(
                "all", Histogram("all")).observe(seconds)

    sent = {name: h.count for name, h in histograms.items() if name != "all"}
    methods = {name: stats["methods"].get(name, 0) for name in sent}
    service_errors = stats["metrics"]["counters"].get("service.errors", 0)

    total = sum(sent.values())
    assert not errors, "dropped/failed requests: %s" % errors[:5]
    assert total == N_CLIENTS * REQUESTS_EACH
    assert service_errors == 0
    assert methods == sent, (methods, sent)
    # Concurrency must never change answers.
    assert len(answers["replay"]) == 1
    assert len(answers["coverage"]) == 1

    return {
        "config": {
            "clients": N_CLIENTS,
            "requests_per_client": REQUESTS_EACH,
            "threads": N_THREADS,
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
        "service": {
            "methods": methods,
            "errors": service_errors,
        },
    }


def _render(results):
    totals = results["totals"]
    print()
    print("storm: %d clients x %d requests, one service with %d threads"
          % (results["config"]["clients"],
             results["config"]["requests_per_client"],
             results["config"]["threads"]))
    print("  %d requests in %.2f s  ->  %.1f qps"
          % (totals["requests"], totals["seconds"], totals["qps"]))
    print("  %-14s %8s %8s %8s %8s %6s"
          % ("method", "p50 ms", "p95 ms", "p99 ms", "max ms", "n"))
    for name, latency in results["latency"].items():
        print("  %-14s %8.1f %8.1f %8.1f %8.1f %6d"
              % (name, 1e3 * latency["p50"], 1e3 * latency["p95"],
                 1e3 * latency["p99"], 1e3 * latency["max"],
                 latency["count"]))
    service = results["service"]
    print("  service: %s, %d errors"
          % (", ".join("%d %s" % (count, name) for name, count
                       in sorted(service["methods"].items())),
             service["errors"]))


def test_storm_throughput(tmp_path):
    store = _build_store(tmp_path / "store")
    results = run_bench(str(store.root))
    _render(results)
    assert results["totals"]["qps"] > 0


if __name__ == "__main__":
    import argparse

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
