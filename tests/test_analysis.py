"""Paper-style formatting of coverage percentages."""

from repro.harness.reporting import Column


def test_percent_formatting_matches_paper():
    # "100%" from 99.95% up, else one decimal, as in the paper's tables.
    percent = Column("coverage", "percent")
    assert percent.render(1.0) == "100%"
    assert percent.render(0.9996) == "100%"
    assert percent.render(0.904) == "90.4%"
