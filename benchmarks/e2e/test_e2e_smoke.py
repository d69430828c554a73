"""Smoke test of the end-to-end benchmark (about half a minute).

Runs every workload with ``--smoke`` (a 3 s window, one set-up) and
checks the output contract: every metric declared in BENCHMARK.json is
printed with its unit, every answer is correct, and the last line is
the JSON result.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py")]
        + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def printed(stdout, workload):
    """``metric -> (value, unit)`` of the ``workload metric value unit``
    lines."""
    found = {}
    for line in stdout.splitlines()[:-1]:
        words = line.split()
        if len(words) == 4 and words[0] == workload:
            found[words[1]] = (float(words[2]), words[3])
    return found


def check_run(proc, workload, declared, prefix=""):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    lines = printed(proc.stdout, workload)
    for metric in declared:
        value, unit = lines[metric["name"]]
        assert unit == metric["unit"]
        assert result["metrics"][metric["name"]] == {"value": value,
                                                     "unit": unit}
    assert lines[prefix + "error_rate"] == (0.0, "ratio")
    return lines


@pytest.mark.parametrize("workload",
                         [workload["name"] for workload in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--smoke")
    lines = check_run(proc, workload, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert lines[metric["name"]][0] > 0


def test_traced_smoke_prints_every_per_layer_metric():
    proc = run_bench("--workload", "replay-hot", "--smoke", "--trace", "1")
    lines = check_run(proc, "replay-hot", SPEC["per_layer"], "traced.")
    # The traced layers account for a served replay.  ``service.wait_s``
    # is the rest of the server time by definition, so it is left out.
    accounted = sum(lines[name][0] for name in (
        "cpu.self_s", "pin.self_s", "core.engine_s"))
    assert accounted >= 0.9 * lines["service.replay_server_s"][0] > 0


def test_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "benchmarks" / "e2e"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "replay-hot", "--seed", "3",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_flags_regressions_and_spread(tmp_path):
    def results(name, latencies, rss):
        runs = [{"set": "a", "workload": "replay-hot", "seed": seed,
                 "trace": 0, "end_to_end": {"latency_p50_s": latency,
                                            "peak_rss_mb": mib}}
                for seed, (latency, mib) in enumerate(zip(latencies, rss))]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    base = results("base.json", [1.0, 1.01, 0.99, 1.0], [40, 40, 40, 40])
    slower = results("slower.json", [1.3, 1.31, 1.29, 1.3], [40, 40, 40, 40])
    noisy = results("noisy.json", [0.5, 1.0, 1.5, 2.0], [40, 40, 40, 41])
    proc = run_bench("--compare", base, slower)
    assert proc.returncode == 1
    assert "latency_p50_s" in proc.stdout and "REGRESSION" in proc.stdout
    proc = run_bench("--compare", base, noisy)
    assert proc.returncode == 0
    assert "unresolved" in proc.stdout
