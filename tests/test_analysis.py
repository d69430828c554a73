"""Coverage report and phase-detection tests."""

import pytest

from repro.analysis import CoverageReport, Phase, PhaseDetector
from repro.cfg.basic_block import BlockIndex
from repro.core import ReplayConfig, TeaReplayer, build_tea
from repro.cpu.stream import ExecutionStream
from repro.isa import assemble
from repro.pin import Pin, TeaReplayTool
from tests.conftest import record_traces

TWO_PHASE_SOURCE = """
main:
    mov ecx, 600
phase1:
    add eax, 1
    xor eax, 5
    dec ecx
    jnz phase1
    mov ecx, 600
phase2:
    imul ebx, 3
    add ebx, 7
    dec ecx
    jnz phase2
    hlt
"""


# ---------------------------------------------------------------------
# CoverageReport
# ---------------------------------------------------------------------

def test_coverage_report_fractions():
    report = CoverageReport(covered_dbt=80, total_dbt=100,
                            covered_pin=90, total_pin=120)
    assert report.fraction(pin_counting=False) == pytest.approx(0.8)
    assert report.fraction(pin_counting=True) == pytest.approx(0.75)


def test_coverage_report_empty_is_zero():
    assert CoverageReport().fraction() == 0.0


def test_coverage_report_merge():
    first = CoverageReport(1, 2, 3, 4)
    second = CoverageReport(10, 20, 30, 40)
    first.merge(second)
    assert first.covered_dbt == 11
    assert first.total_pin == 44


def test_coverage_report_from_stats(simple_loop_program):
    trace_set = record_traces(simple_loop_program).trace_set
    tool = TeaReplayTool(trace_set=trace_set)
    Pin(simple_loop_program, tool=tool).run()
    report = CoverageReport.from_replay_stats(tool.stats)
    assert report.fraction() == pytest.approx(tool.coverage)


def test_percent_formatting_matches_paper():
    assert CoverageReport.format_percent(1.0) == "100%"
    assert CoverageReport.format_percent(0.9996) == "100%"
    assert CoverageReport.format_percent(0.904) == "90.4%"


# ---------------------------------------------------------------------
# PhaseDetector
# ---------------------------------------------------------------------

def run_with_detector(program, window=64):
    trace_set = record_traces(program, hot_threshold=10).trace_set
    detector = PhaseDetector(window=window)
    replayer = TeaReplayer(build_tea(trace_set),
                           config=ReplayConfig.global_local())
    replayer.on_step = detector.on_step
    stream = ExecutionStream.record(program)
    for transition in stream.block_transitions(BlockIndex(program),
                                               program.entry):
        replayer.step(transition)
    detector.finish()
    return detector, trace_set


def test_two_phases_detected():
    program = assemble(TWO_PHASE_SOURCE)
    detector, trace_set = run_with_detector(program)
    assert len(detector.phases) >= 2
    # The two dominant phases use different traces.
    first, last = detector.phases[0], detector.phases[-1]
    assert first.dominant_traces != last.dominant_traces
    assert detector.n_transitions >= 1


def test_single_phase_program():
    program = assemble("""
main:
    mov ecx, 1200
loop:
    add eax, 1
    dec ecx
    jnz loop
    hlt
""")
    detector, _ = run_with_detector(program)
    assert len(detector.phases) == 1
    phase = detector.phases[0]
    assert phase.length > 500


def test_phase_windows_record_exit_ratios():
    program = assemble(TWO_PHASE_SOURCE)
    detector, _ = run_with_detector(program)
    assert detector.windows
    ratios = [ratio for ratio, _ in detector.windows]
    assert all(0.0 <= ratio <= 1.0 for ratio in ratios)
    # Inside a stable phase the exit ratio is tiny.
    assert min(ratios) < 0.05


def test_detector_validation():
    with pytest.raises(ValueError):
        PhaseDetector(window=0)


def test_phase_repr_readable():
    phase = Phase(0, 100, frozenset({1}))
    assert "0..100" in repr(phase)
    assert phase.length == 100
