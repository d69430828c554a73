"""The package has no third-party runtime dependency.

A fresh interpreter blocks ``networkx`` (a ``None`` entry in
``sys.modules`` makes any import of it raise), then imports every entry
point — the service CLI and server, the harness, the tools — and runs
the static-CFG code paths: Figure 2's DOT rendering, natural-loop
detection and a deep snapshot verify, so rule TEA010 builds a CFG.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from tests.conftest import GOLDEN_SNAPSHOT, GOLDEN_SNAPSHOT_BENCHMARK

SCRIPT = """
import sys
sys.modules["networkx"] = None

import repro.harness
import repro.service.__main__
import repro.service.server
import repro.tools
from repro.cfg import build_cfg, find_loops
from repro.verify import verify_snapshot_bytes
from repro.workloads import load_benchmark

name, scale, snapshot = sys.argv[1], float(sys.argv[2]), sys.argv[3]
program = load_benchmark(name, scale=scale).program
cfg = build_cfg(program)
assert cfg.to_dot().startswith("digraph cfg")
assert find_loops(cfg).headers
with open(snapshot, "rb") as handle:
    report = verify_snapshot_bytes(handle.read(), program=program)
assert "TEA010" in report.rules_run, report.rules_run
assert report.ok(), [d.message for d in report]
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "networkx" and sys.modules[m] is not None)
print(loaded)
"""


def test_entry_points_and_cfg_paths_run_without_networkx():
    name, scale = GOLDEN_SNAPSHOT_BENCHMARK
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, name, str(scale),
         str(GOLDEN_SNAPSHOT)],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
