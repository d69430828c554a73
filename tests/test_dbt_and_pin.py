"""StarDBT baseline and MiniPin engine tests."""

import gc
import weakref

import pytest

from repro.dbt import CodeCache, CostModel, CostParameters, StarDBT
from repro.errors import InstructionLimitExceeded
from repro.isa import assemble
from repro.pin import Pin, Pintool, run_native
from repro.pin.pintool import CallbackTool
from repro.traces.recorder import RecorderLimits
from tests.conftest import record_traces

REP_LOOP = """
main:
    mov ecx, 20
outer:
    push ecx
    mov ecx, 8
    mov esi, src
    mov edi, dst
    rep movsd
    pop ecx
    dec ecx
    jnz outer
    hlt
.data
src: .word 1,2,3,4,5,6,7,8
dst: .zero 8
"""


# ---------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------

def test_cost_parameters_overrides():
    params = CostParameters(CALLBACK_FAST=99.0)
    assert params.CALLBACK_FAST == 99.0
    with pytest.raises(ValueError):
        CostParameters(NOT_A_KNOB=1)


def test_cost_model_accumulates():
    model = CostModel()
    model.charge("a", 10)
    model.charge("a", 5)
    model.charge("b", 1)
    assert model.cycles == 16
    assert model.breakdown == {"a": 15, "b": 1}
    assert model.megacycles == pytest.approx(16e-6)


def test_charge_instructions_uses_native_rate():
    model = CostModel()
    model.charge_instructions(100)
    assert model.cycles == 100
    model.charge_instructions(100, 1.5)
    assert model.cycles == 250


# ---------------------------------------------------------------------
# StarDBT
# ---------------------------------------------------------------------

def test_dbt_run_basics(simple_loop_program):
    result = record_traces(simple_loop_program)
    assert result.halted
    assert result.instrs_dbt > 0
    assert len(result.trace_set) >= 1
    assert result.coverage > 0.8


def test_dbt_translation_charged_once(simple_loop_program):
    result = record_traces(simple_loop_program)
    translation = result.cost.breakdown["translation"]
    params = result.cost.params
    # Exactly the distinct blocks' instructions, once each.
    assert translation < params.DBT_TRANSLATION_PER_INSTR * result.instrs_dbt / 10


def test_dbt_near_native_speed(simple_loop_program):
    result = record_traces(simple_loop_program)
    native = run_native(simple_loop_program)
    assert result.cycles / native.cycles < 2.0


def test_dbt_code_cache_installed(simple_loop_program):
    limits = RecorderLimits(hot_threshold=10)
    dbt = StarDBT(simple_loop_program, strategy="mret", limits=limits)
    result = dbt.run()
    assert result.code_cache.n_traces == len(result.trace_set)
    assert result.code_cache.total_bytes > 0


def test_dbt_coverage_uses_dbt_counting():
    program = assemble(REP_LOOP)
    result = record_traces(program)
    # Totals must be StarDBT-counted (REP = 1): far fewer than Pin's.
    assert result.instrs_pin > result.instrs_dbt


def test_dbt_budget_propagates(simple_loop_program):
    dbt = StarDBT(simple_loop_program, max_instructions=100)
    with pytest.raises(InstructionLimitExceeded):
        dbt.run()


def test_code_cache_capacity_flag(nested_traces):
    cache = CodeCache(capacity_bytes=1)
    assert not cache.is_full
    cache.install(nested_traces.traces[0])
    assert cache.is_full
    unbounded = CodeCache()
    unbounded.install(nested_traces.traces[0])
    assert not unbounded.is_full


def test_code_cache_idempotent_install(nested_traces):
    cache = CodeCache()
    trace = nested_traces.traces[0]
    cache.install(trace)
    cache.install(trace)
    assert cache.n_traces == 1


# ---------------------------------------------------------------------
# MiniPin
# ---------------------------------------------------------------------

def test_run_native_baseline(simple_loop_program):
    result = run_native(simple_loop_program)
    assert result.cycles == pytest.approx(result.instrs_pin)
    assert result.tool is None
    assert result.halted


def test_pin_without_tool_overhead(simple_loop_program):
    native = run_native(simple_loop_program)
    bare = Pin(simple_loop_program).run()
    slowdown = bare.cycles / native.cycles
    assert 1.0 < slowdown < 3.0  # the paper's ~1.5x band


def test_pin_counts_rep_iterations():
    program = assemble(REP_LOOP)
    result = Pin(program).run()
    assert result.instrs_pin - result.instrs_dbt == 20 * 7  # 8 iters vs 1


def test_pin_indirect_cost_charged():
    program = assemble("""
main:
    mov ecx, 50
loop:
    mov eax, f
    call eax
    dec ecx
    jnz loop
    hlt
f:
    ret
""")
    result = Pin(program).run()
    assert result.cost.breakdown.get("pin_indirect", 0) > 0


def test_pin_translation_charged_once(simple_loop_program):
    result = Pin(simple_loop_program).run()
    translation = result.cost.breakdown["pin_translation"]
    # A 400-iteration loop must not pay translation 400 times.
    assert translation < result.cycles * 0.5


def test_pintool_receives_all_transitions(simple_loop_program):
    transitions = []
    tool = CallbackTool(on_transition=transitions.append)
    result = Pin(simple_loop_program, tool=tool).run()
    assert sum(t.instrs_dbt for t in transitions) == result.instrs_dbt
    assert transitions[-1].next_start is None  # flush delivered


def test_pintool_on_finish_called(simple_loop_program):
    finished = []
    tool = CallbackTool(on_finish=lambda: finished.append(True))
    Pin(simple_loop_program, tool=tool).run()
    assert finished == [True]


def test_pintool_base_class_hooks(simple_loop_program):
    tool = Pintool()
    result = Pin(simple_loop_program, tool=tool).run()  # no-ops must work
    assert tool.pin is not None
    assert tool.cost is result.cost


@pytest.mark.parametrize("engine", ("object", "compiled", "jit"))
def test_finished_pin_and_tool_freed_by_refcount(nested_program,
                                                 nested_traces, engine):
    """No Pin <-> pintool cycle: with the cycle collector off, dropping
    the tool and the result frees the engine and the tool at once."""
    from repro.pin import TeaReplayTool

    gc.disable()
    try:
        tool = TeaReplayTool(trace_set=nested_traces, engine=engine)
        pin = Pin(nested_program, tool=tool)
        result = pin.run()
        assert pin.tool is tool
        assert tool.cost is result.cost
        assert tool.stats.blocks == result.blocks
        assert 0.0 < tool.coverage <= 1.0
        refs = (weakref.ref(pin), weakref.ref(tool))
        del pin, tool, result
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_pin_slowdown_helper(simple_loop_program):
    native = run_native(simple_loop_program)
    bare = Pin(simple_loop_program).run()
    assert bare.slowdown(native.cycles) == pytest.approx(
        bare.cycles / native.cycles
    )
    assert bare.slowdown() > 1.0


def test_engines_see_identical_dynamic_blocks(nested_program):
    """StarDBT and the TEA pintool observe the same transitions: that is
    the Section 4.1 guarantee our whole pipeline relies on."""
    from repro.pin import TeaRecordTool
    dbt_result = record_traces(nested_program)
    tool = TeaRecordTool(strategy="mret",
                         limits=RecorderLimits(hot_threshold=10))
    Pin(nested_program, tool=tool).run()
    assert {t.entry for t in tool.trace_set} == {
        t.entry for t in dbt_result.trace_set
    }
