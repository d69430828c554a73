"""Smoke tests: every example script must run end-to-end.

Heavy examples are dialled down through their module-level knobs so the
whole file stays fast; the point is that the public API surfaces they
demonstrate keep working.
"""

import importlib
import pathlib
import re
import sys


sys.path.insert(0, "examples")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_example(name, monkeypatch=None, **overrides):
    module = importlib.import_module(name)
    for attribute, value in overrides.items():
        monkeypatch.setattr(module, attribute, value)
    module.main()
    return module


def test_quickstart(capsys, monkeypatch):
    run_example("quickstart", monkeypatch)
    output = capsys.readouterr().out
    assert "savings" in output
    assert "coverage" in output


def test_paper_figures(capsys, monkeypatch):
    module = importlib.import_module("paper_figures")
    assert module.main([]) == 0
    output = capsys.readouterr().out
    assert "digraph tea" in output
    assert module.main(["--dot", "figure3"]) == 0
    assert module.main(["--dot", "figure2"]) == 0


def test_unroll_profiling(capsys, monkeypatch):
    run_example("unroll_profiling", monkeypatch)
    output = capsys.readouterr().out
    assert "copy 0" in output and "copy 1" in output
    assert "factor 2" in output


def test_cross_environment_replay(capsys, monkeypatch):
    run_example("cross_environment_replay", monkeypatch,
                BENCHMARK="181.mcf", SCALE=0.4)
    output = capsys.readouterr().out
    assert "environment A" in output and "environment B" in output
    assert "hottest TBB states" in output


def test_transition_function_ablation(capsys, monkeypatch):
    module = importlib.import_module("transition_function_ablation")
    monkeypatch.setattr(module, "BENCHMARK", "181.mcf")
    # Shrink the workload through the loader call inside main by
    # wrapping it.
    original = module.load_benchmark
    monkeypatch.setattr(
        module, "load_benchmark",
        lambda name, scale=1.5: original(name, scale=0.4),
    )
    module.main()
    output = capsys.readouterr().out
    assert "Global / Local" in output
    assert "No Global / No Local" in output


def test_dcfg_vs_tea(capsys, monkeypatch):
    run_example("dcfg_vs_tea", monkeypatch, BENCHMARK="181.mcf")
    output = capsys.readouterr().out
    assert "DCFG with code" in output
    assert "TEA (states only)" in output


def test_persistent_profiles(capsys, monkeypatch):
    run_example("persistent_profiles", monkeypatch,
                BENCHMARK="181.mcf", RUNS=2)
    output = capsys.readouterr().out
    assert "run 2: merged" in output
    assert "optimization candidates" in output


def test_readme_lists_every_example_and_each_has_a_test():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("Runnable examples (in `examples/`):", 1)[1]
    table = table.split("\n\n", 2)[1]
    listed = re.findall(r"^\| `(\w+)\.py` \|", table, re.MULTILINE)
    scripts = sorted(path.stem for path in (ROOT / "examples").glob("*.py"))
    assert sorted(listed) == scripts
    for name in scripts:
        assert "test_" + name in globals(), name
