"""Differential TEA-vs-cursor equivalence tests (Properties 1+2, live)."""

import pytest

from repro.analysis.differential import (
    DifferentialChecker,
    check_equivalence,
    validate_trace_file,
)
from repro.cpu import ExecutionStream
from repro.errors import InstructionLimitExceeded, TeaError
from repro.traces.serialization import save_trace_set
from repro.workloads import load_benchmark
from tests.conftest import record_traces


def test_equivalence_on_simple_loop(simple_loop_program):
    trace_set = record_traces(simple_loop_program).trace_set
    checker = check_equivalence(simple_loop_program, trace_set)
    assert checker.is_equivalent
    assert checker.agreements == checker.steps
    checker.raise_on_divergence()  # must not raise


def test_equivalence_on_nested_diamond(nested_program):
    trace_set = record_traces(nested_program).trace_set
    checker = check_equivalence(nested_program, trace_set)
    assert checker.is_equivalent, checker.divergences[:3]


@pytest.mark.parametrize("strategy", ["mret", "mfet", "tt", "ctt"])
def test_equivalence_across_strategies(nested_program, strategy):
    trace_set = record_traces(nested_program, strategy=strategy).trace_set
    checker = check_equivalence(nested_program, trace_set)
    assert checker.is_equivalent, (strategy, checker.divergences[:3])


@pytest.mark.parametrize("name", ["181.mcf", "164.gzip", "254.gap"])
def test_equivalence_on_benchmarks(name):
    workload = load_benchmark(name, scale=0.4)
    trace_set = record_traces(workload.program).trace_set
    checker = check_equivalence(workload.program, trace_set)
    assert checker.is_equivalent, checker.divergences[:3]


def test_budget_exceeded_delivers_the_prefix_then_raises(nested_program,
                                                          monkeypatch):
    trace_set = record_traces(nested_program).trace_set
    budget = 500
    stream = ExecutionStream.record(nested_program, max_instructions=budget)
    assert stream.exceeded
    seen = []
    step = DifferentialChecker.on_transition

    def spy(checker, transition):
        seen.append(transition.next_start)
        step(checker, transition)

    monkeypatch.setattr(DifferentialChecker, "on_transition", spy)
    with pytest.raises(InstructionLimitExceeded):
        check_equivalence(nested_program, trace_set, max_instructions=budget)
    assert seen == list(stream.transitions[0::3])


def test_divergence_detected_on_corrupted_tea(simple_loop_program):
    """Sanity: the checker is not vacuous — a broken automaton diverges."""
    trace_set = record_traces(simple_loop_program).trace_set
    from repro.core import build_tea
    tea = build_tea(trace_set)
    # Sabotage the head registry: the trace entry now resolves to NTE.
    # (Merely dropping an explicit transition is *not* enough to diverge:
    # the transition function self-heals through the directory, which is
    # itself a nice robustness property of the optimised implementation.)
    loop = simple_loop_program.label_addr("loop")
    hot = tea.heads[loop]
    hot.transitions.clear()
    tea.heads[loop] = tea.nte
    checker = check_equivalence(simple_loop_program, trace_set, tea=tea)
    assert not checker.is_equivalent
    with pytest.raises(TeaError):
        checker.raise_on_divergence()
    divergence = checker.divergences[0]
    assert "step" in repr(divergence)


def test_validate_trace_file_round_trip(tmp_path, nested_program):
    trace_set = record_traces(nested_program).trace_set
    path = tmp_path / "traces.json"
    save_trace_set(trace_set, str(path))
    validated = validate_trace_file(str(path), nested_program)
    assert validated.n_tbbs == trace_set.n_tbbs


def test_validate_trace_file_wrong_program(tmp_path, nested_program,
                                           simple_loop_program):
    """Traces from one program must not validate against another."""
    trace_set = record_traces(nested_program).trace_set
    path = tmp_path / "traces.json"
    save_trace_set(trace_set, str(path))
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        validate_trace_file(str(path), simple_loop_program)
