"""Sharded parallel harness, persistent result cache, stage accounting.

The contract under test (ISSUE 2 / docs/parallel_harness.md):

- a parallel run renders tables **byte-identical** to the serial run;
- a warm-cache rerun skips >= 90% of stages (here: all of them);
- cache keys cover every input that can change a summary, so any knob
  change invalidates and nothing else does;
- a cached-stage hit is never also counted as a fresh stage execution
  (``harness.stage_runs`` / the stage timers move only when a
  simulation actually ran).
"""

import json
import os

import pytest

from repro.harness import (
    HarnessConfig,
    ParallelRunner,
    ResultCache,
    Runner,
    STAGES,
    stage_key,
)
from repro.harness.__main__ import main as harness_main
from repro.harness.cache import config_fingerprint
from repro.harness.summary import build_summary
from repro.harness.tables import TABLES
from repro.obs import Observability

BENCHMARKS = ["171.swim", "164.gzip", "181.mcf"]
SMALL = dict(scale=0.4, hot_threshold=10, benchmarks=BENCHMARKS)


def small_config(**overrides):
    knobs = dict(SMALL)
    knobs.update(overrides)
    return HarnessConfig(**knobs)


def render_everything(runner):
    """Every rendered artifact the CLI can emit, as one dict of text."""
    out = {}
    for name, build in TABLES.items():
        table = build(runner)
        out[name] = table.render()
        out[name + ".md"] = table.render_markdown()
        out[name + ".dict"] = table.to_dict()
    out["summary"] = build_summary(runner).render(include_geomean=False)
    return out


@pytest.fixture(scope="module")
def serial_artifacts():
    return render_everything(Runner(small_config()))


# ---------------------------------------------------------------------
# differential: parallel == serial, byte for byte
# ---------------------------------------------------------------------

def test_parallel_tables_byte_identical_to_serial(serial_artifacts):
    parallel = ParallelRunner(small_config(), jobs=2)
    assert render_everything(parallel) == serial_artifacts


def test_parallel_with_one_job_matches_serial(serial_artifacts):
    # jobs=1 exercises the in-process shard path (no pool) — identical
    # by the same argument, and much easier to debug when it is not.
    parallel = ParallelRunner(small_config(), jobs=1)
    assert render_everything(parallel) == serial_artifacts


def test_warm_cache_rerun_byte_identical(tmp_path, serial_artifacts):
    cache_dir = tmp_path / "cache"
    cold = Runner(small_config(), cache=ResultCache(cache_dir))
    assert render_everything(cold) == serial_artifacts
    warm = Runner(small_config(), cache=ResultCache(cache_dir))
    assert render_everything(warm) == serial_artifacts


def test_parallel_merges_worker_metrics():
    obs = Observability()
    parallel = ParallelRunner(small_config(), jobs=2, obs=obs)
    render_everything(parallel)
    counters = obs.snapshot()["metrics"]["counters"]
    # One fresh execution per stage per benchmark, merged from workers.
    assert counters["harness.stage_runs"] == len(STAGES) * len(BENCHMARKS)
    timers = obs.snapshot()["metrics"]["timers"]
    assert timers["harness.dbt"]["count"] == 3 * len(BENCHMARKS)
    assert timers["harness.workload"]["count"] == len(BENCHMARKS)
    assert timers["harness.replay"]["count"] == 3 * len(BENCHMARKS)


# ---------------------------------------------------------------------
# persistent cache behaviour
# ---------------------------------------------------------------------

def test_warm_rerun_skips_at_least_90_percent_of_stages(tmp_path):
    cache_dir = tmp_path / "cache"
    cold_obs = Observability()
    cold = Runner(small_config(), cache=ResultCache(cache_dir, obs=cold_obs),
                  obs=cold_obs)
    render_everything(cold)
    cold_counters = cold_obs.snapshot()["metrics"]["counters"]
    total_stages = len(STAGES) * len(BENCHMARKS)
    assert cold_counters["harness.stage_runs"] == total_stages
    assert cold_counters["harness.cache.writes"] == total_stages

    warm_obs = Observability()
    warm = Runner(small_config(), cache=ResultCache(cache_dir, obs=warm_obs),
                  obs=warm_obs)
    render_everything(warm)
    warm_counters = warm_obs.snapshot()["metrics"]["counters"]
    skipped = total_stages - warm_counters.get("harness.stage_runs", 0)
    assert skipped / total_stages >= 0.90
    # In fact the whole run is served from disk: nothing simulates.
    assert warm_counters.get("harness.stage_runs", 0) == 0
    assert warm_counters["harness.cache.disk_hits"] == total_stages


def test_warm_parallel_run_dispatches_no_shards(tmp_path):
    cache_dir = tmp_path / "cache"
    ParallelRunner(small_config(), jobs=2,
                   cache=ResultCache(cache_dir)).prefetch()
    logs = []
    warm = ParallelRunner(small_config(), jobs=2,
                          cache=ResultCache(cache_dir),
                          progress=logs.append)
    warm.prefetch()
    assert not any("dispatching" in line for line in logs)


def test_partial_cache_only_runs_missing_stages(tmp_path):
    cache_dir = tmp_path / "cache"
    obs = Observability()
    seed = Runner(small_config(), cache=ResultCache(cache_dir, obs=obs),
                  obs=obs)
    for name in BENCHMARKS:
        seed.summary(name, "native")
        seed.summary(name, "dbt:mret")
    fresh_obs = Observability()
    fresh = Runner(small_config(),
                   cache=ResultCache(cache_dir, obs=fresh_obs),
                   obs=fresh_obs)
    render_everything(fresh)
    counters = fresh_obs.snapshot()["metrics"]["counters"]
    # The 8 uncached stages simulate, plus one heavy dbt:mret per
    # benchmark: the replay stages need its *trace set*, which only a
    # fresh run can provide — the cache stores summaries, not traces.
    expected_fresh = (len(STAGES) - 2) * len(BENCHMARKS) + len(BENCHMARKS)
    assert counters["harness.stage_runs"] == expected_fresh
    assert counters["harness.cache.disk_hits"] == 2 * len(BENCHMARKS)


def test_stage_key_sensitivity():
    base = small_config()
    key = stage_key("171.swim", "dbt:mret", base)
    # Deterministic across calls...
    assert key == stage_key("171.swim", "dbt:mret", base)
    # ...and sensitive to each addressable input.
    assert key != stage_key("164.gzip", "dbt:mret", base)
    assert key != stage_key("171.swim", "dbt:ctt", base)
    assert key != stage_key("171.swim", "dbt:mret", small_config(scale=0.5))
    assert key != stage_key("171.swim", "dbt:mret",
                            small_config(hot_threshold=11))
    bigger_budget = small_config()
    bigger_budget.max_instructions += 1
    assert key != stage_key("171.swim", "dbt:mret", bigger_budget)
    tweaked_memory = small_config()
    tweaked_memory.memory_model.state_bytes += 1
    assert key != stage_key("171.swim", "dbt:mret", tweaked_memory)
    # The benchmark list is *not* part of a stage's identity: a subset
    # run must reuse the full run's entries.
    subset = small_config(benchmarks=["171.swim"])
    assert key == stage_key("171.swim", "dbt:mret", subset)


def test_edited_charge_misses_the_cache(tmp_path):
    """Stage summaries are keyed on the code that computes them: after
    one charge expression is edited in a copy of the package, a cached
    stage misses; at unchanged code a warm rerun runs no stage."""
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = tmp_path / "src"
    shutil.copytree(Path(repro.__file__).resolve().parent, src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    metrics = tmp_path / "metrics.json"

    def run():
        subprocess.run(
            [sys.executable, "-m", "repro.harness", "table2",
             "--scale", "0.2", "--benchmarks", "181.mcf",
             "--cache-dir", str(tmp_path / "cache"),
             "--metrics-out", str(metrics)],
            check=True, capture_output=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src),
                     PYTHONDONTWRITEBYTECODE="1"))
        counters = json.loads(metrics.read_text())["metrics"]["counters"]
        return (counters.get("harness.stage_runs", 0),
                counters.get("harness.cache.disk_hits", 0))

    cold_runs, _hits = run()
    assert cold_runs > 0
    assert run() == (0, cold_runs)
    stardbt = src / "repro" / "dbt" / "stardbt.py"
    text = stardbt.read_text()
    charge = "cold_rate = 1.0 + params.DBT_COLD_TAX"
    assert text.count(charge) == 1
    stardbt.write_text(text.replace(charge,
                                    "cold_rate = 3.0 + params.DBT_COLD_TAX"))
    assert run() == (cold_runs, 0)


def test_config_fingerprint_is_json_stable():
    fingerprint = config_fingerprint(small_config())
    blob = json.dumps(fingerprint, sort_keys=True)
    assert json.loads(blob) == fingerprint
    assert "cost_params" in fingerprint and "memory_model" in fingerprint


def test_corrupt_cache_entry_is_a_miss_and_heals(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "ab" + "0" * 62
    cache.put(key, {"cycles": 1.0})
    path = cache.path_for(key)
    with open(path, "w") as handle:
        handle.write("{not json")
    assert cache.get(key) is None
    cache.put(key, {"cycles": 2.0})
    assert cache.get(key) == {"cycles": 2.0}


def test_cache_len_clear_and_repr(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert len(cache) == 0
    cache.put("aa" + "0" * 62, [1])
    cache.put("bb" + "0" * 62, [2])
    assert len(cache) == 2
    assert cache.total_bytes() > 0
    assert "2 entries" in repr(cache)
    assert cache.clear() == 2
    assert len(cache) == 0


# ---------------------------------------------------------------------
# stage accounting (the _stage regression fix)
# ---------------------------------------------------------------------

def test_memory_hit_is_not_counted_as_fresh_execution():
    runner = Runner(HarnessConfig(scale=0.3, hot_threshold=10,
                                  benchmarks=["181.mcf"]))
    runner.dbt("181.mcf", "mret")
    counters = runner.metrics_snapshot()["metrics"]["counters"]
    assert counters["harness.stage_runs"] == 1
    assert counters["harness.cache_misses"] == 1
    runner.dbt("181.mcf", "mret")  # in-memory hit
    snap = runner.metrics_snapshot()["metrics"]
    assert snap["counters"]["harness.stage_runs"] == 1
    assert snap["counters"]["harness.cache_misses"] == 1
    assert snap["counters"]["harness.cache_hits"] == 1
    # The stage timer records exactly one execution, too.
    assert snap["timers"]["harness.dbt"]["count"] == 1


def test_disk_hit_is_not_counted_as_fresh_execution(tmp_path):
    config = HarnessConfig(scale=0.3, hot_threshold=10,
                           benchmarks=["181.mcf"])
    Runner(config, cache=ResultCache(tmp_path / "c")).summary(
        "181.mcf", "native")
    obs = Observability()
    warm = Runner(config, cache=ResultCache(tmp_path / "c", obs=obs),
                  obs=obs)
    warm.summary("181.mcf", "native")
    snap = warm.metrics_snapshot()["metrics"]
    assert snap["counters"].get("harness.stage_runs", 0) == 0
    assert snap["counters"]["harness.cache_hits"] == 1
    assert snap["counters"]["harness.cache.disk_hits"] == 1
    assert "harness.native" not in snap["timers"]


def test_stage_runs_equals_total_timer_counts():
    runner = Runner(small_config())
    render_everything(runner)
    snap = runner.metrics_snapshot()["metrics"]
    stage_timer_counts = sum(
        timing["count"] for name, timing in snap["timers"].items()
        if name.startswith("harness.") and name != "harness.workload"
    )
    assert snap["counters"]["harness.stage_runs"] == stage_timer_counts


def test_one_interpreter_run_per_benchmark():
    """Every stage of a benchmark replays its one recorded stream."""
    runner = Runner(small_config())
    render_everything(runner)
    counters = runner.metrics_snapshot()["metrics"]["counters"]
    assert counters["harness.stage_runs"] == len(STAGES) * len(BENCHMARKS)
    assert counters["exec.runs"] == len(BENCHMARKS)


def test_unknown_stage_rejected():
    runner = Runner(small_config())
    with pytest.raises(ValueError):
        runner.summary("171.swim", "nonsense")


# ---------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------

CLI_COMMON = ["--benchmarks", "171.swim,164.gzip", "--scale", "0.4",
              "--threshold", "10", "--quiet"]


def test_cli_jobs_matches_serial(tmp_path, capsys):
    assert harness_main(["all", "--no-cache"] + CLI_COMMON) == 0
    serial_out = capsys.readouterr().out
    assert harness_main(["all", "--no-cache", "--jobs", "2"]
                        + CLI_COMMON) == 0
    assert capsys.readouterr().out == serial_out


def test_cli_cache_dir_and_metrics_out(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    metrics_1 = str(tmp_path / "m1.json")
    metrics_2 = str(tmp_path / "m2.json")
    assert harness_main(["table4", "--cache-dir", cache_dir,
                         "--metrics-out", metrics_1] + CLI_COMMON) == 0
    cold_out = capsys.readouterr().out
    with open(metrics_1) as handle:
        cold = json.load(handle)["metrics"]["counters"]
    assert cold["harness.stage_runs"] > 0
    assert cold["harness.cache.writes"] > 0
    assert os.path.isdir(cache_dir)

    assert harness_main(["table4", "--cache-dir", cache_dir,
                         "--metrics-out", metrics_2] + CLI_COMMON) == 0
    warm_out = capsys.readouterr().out
    assert warm_out == cold_out
    with open(metrics_2) as handle:
        warm = json.load(handle)["metrics"]["counters"]
    assert warm.get("harness.stage_runs", 0) == 0
    assert warm["harness.cache.disk_hits"] == cold["harness.cache.writes"]


def test_cli_no_cache_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert harness_main(["table1", "--no-cache"] + CLI_COMMON) == 0
    capsys.readouterr()
    assert not os.path.exists(tmp_path / ".repro_cache")
