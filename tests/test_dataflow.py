"""TEA06x dataflow certification rules and their fixpoint analyses.

Reachability/liveness, static cost intervals cross-checked against a
recorded profile, and directory probe-unit bounds — run over golden
snapshots and freshly built automata.
"""

from pathlib import Path

from repro.core import build_tea

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_dataflow_rules_run_deep_on_golden_snapshot():
    from repro.verify import verify_path

    # The golden snapshot carries benchmark meta; verify_path rebuilds
    # the program and deep-decodes it, so the dataflow family runs.
    report = verify_path(str(GOLDEN / "mcf_mret.teab"))
    assert report.ok(strict=True), report.render_text()
    assert {"TEA060", "TEA061", "TEA062"} <= set(report.rules_run)


def test_dataflow_certifies_recorded_profile(nested_program,
                                             nested_traces):
    from repro.core import TeaProfile
    from repro.pin import Pin, TeaReplayTool
    from repro.verify import verify_path
    from repro.store import dump_tea_binary

    profile = TeaProfile()
    tool = TeaReplayTool(trace_set=nested_traces, profile=profile)
    Pin(nested_program, tool=tool).run()
    data = dump_tea_binary(nested_traces, tea=tool.tea,
                              profile=profile)
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prof.teab")
        with open(path, "wb") as handle:
            handle.write(data)
        from repro.cfg.basic_block import BlockIndex  # noqa: F401
        report = verify_path(path, program=nested_program)
    assert report.ok(strict=True), report.render_text()
    certs = [d for d in report.diagnostics if d.rule_id == "TEA061"]
    assert certs and "profile certified" in certs[0].message
    assert certs[0].data["bounds"]["lo"] > 0


def test_dataflow_flags_dead_transition(nested_traces):
    from repro.verify import verify_tea

    tea = build_tea(nested_traces)
    report = verify_tea(tea)
    assert report.ok(strict=True), report.render_text()
    assert "TEA060" in report.rules_run


def test_cost_intervals_are_coherent(nested_traces):
    from repro.audit.fixpoint import state_cost_intervals
    from repro.dbt.cost import CostParameters
    from repro.verify.views import AutomatonView

    view = AutomatonView.from_tea(build_tea(nested_traces))
    intervals = state_cost_intervals(view, CostParameters())
    assert intervals
    for sid, interval in intervals.items():
        assert 0 < interval.lo <= interval.hi, (sid, interval)


def test_directory_probe_bounds_cover_all_kinds(nested_traces):
    from repro.audit.fixpoint import directory_probe_bounds
    from repro.core.directory import DIRECTORY_COST_PARAM, make_directory
    from repro.verify.views import AutomatonView

    view = AutomatonView.from_tea(build_tea(nested_traces))
    heads = dict(view.heads)
    for kind in sorted(DIRECTORY_COST_PARAM):
        directory = make_directory(kind)
        for pc, sid in sorted(heads.items()):
            directory.insert(pc, sid)
        low, high = directory_probe_bounds(kind, len(heads))
        for pc, sid in sorted(heads.items()):
            state, units = directory.lookup(pc)
            assert state == sid
            assert low <= units <= high, (kind, pc, units, low, high)
