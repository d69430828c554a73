"""Harness summary tests."""

from repro.harness import HarnessConfig, Runner
from repro.harness.summary import PAPER, build_summary


def test_summary_builds_and_checks_shapes():
    runner = Runner(HarnessConfig(scale=0.5, hot_threshold=10,
                                  benchmarks=["171.swim", "164.gzip"]))
    table = build_summary(runner)
    text = table.render(include_geomean=False)
    assert "Headline claims" in text
    assert "shape checks" in text
    assert "FAIL" not in text, text
    assert len(table.rows) == len(PAPER)


def test_summary_cli(capsys):
    from repro.harness.__main__ import main
    code = main(["summary", "--benchmarks", "171.swim", "--scale", "0.4",
                 "--threshold", "10", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "paper" in out and "measured" in out
