"""Trace-tree budget/robustness paths: saturation, trunk blacklisting,
global budget exhaustion, extension throttling, and the recorders'
running TBB count."""

import pytest

from repro.dbt import StarDBT
from repro.isa import assemble
from repro.traces import STRATEGIES
from repro.traces.recorder import RecorderLimits
from repro.traces.trace_tree import _MAX_TRUNK_ABORTS
from tests.conftest import record_traces

EXPLOSIVE = """
main:
    mov ecx, 400
    mov eax, 7
outer:
    push ecx
    imul eax, 1103515245
    add eax, 12345
    mov ecx, eax
    shr ecx, 5
    and ecx, 7
    add ecx, 2
    test ecx, ecx
    jz g1
g1:
inner1:
    add edx, 1
    dec ecx
    jnz inner1
    mov ecx, eax
    shr ecx, 9
    and ecx, 7
    add ecx, 2
    test ecx, ecx
    jz g2
g2:
inner2:
    add esi, 1
    dec ecx
    jnz inner2
    pop ecx
    dec ecx
    jnz outer
    hlt
"""

#: Inner loop with a huge fixed trip count and a long post-segment of
#: many small blocks: both the outer-anchored trunk (unrolls 300 inner
#: iterations) and the inner tree's wrap-around extensions (12+ post
#: blocks) overflow a small path limit, so the outer loop structure is
#: unrecordable and its trunk attempts keep aborting.
UNRECORDABLE_OUTER = """
main:
    mov ecx, 200
outer:
    push ecx
    mov ecx, 300
    test ecx, ecx
    jz g
g:
inner:
    add eax, 1
    dec ecx
    jnz inner
""" + "".join(
    "    add esi, %d\n    test eax, 1\n    jz s%d\ns%d:\n" % (i, i, i)
    for i in range(14)
) + """
    pop ecx
    dec ecx
    jnz outer
    hlt
"""


def test_tree_saturation_flagged():
    program = assemble(EXPLOSIVE)
    from repro.dbt import StarDBT
    dbt = StarDBT(program, strategy="tt",
                  limits=RecorderLimits(hot_threshold=5, max_tree_tbbs=20,
                                        max_path_blocks=64))
    result = dbt.run()
    recorder = dbt.recorder
    assert recorder._saturated, "a tree must hit its cap"
    # No tree grows far past the cap (one in-flight path of slack).
    for trace in result.trace_set:
        assert len(trace) <= 20 + 64


def test_global_budget_caps_recording():
    program = assemble(EXPLOSIVE)

    def run(total):
        dbt = StarDBT(program, strategy="tt",
                      limits=RecorderLimits(hot_threshold=5,
                                            max_total_tbbs=total,
                                            max_path_blocks=64))
        return dbt.run().trace_set.n_tbbs

    capped = run(25)
    free = run(400_000)
    # The cap holds (one in-flight path of slack) and clearly bites.
    assert capped <= 25 + 64
    assert free > 3 * capped


def test_trunk_blacklisting_after_repeated_aborts():
    program = assemble(UNRECORDABLE_OUTER)
    from repro.dbt import StarDBT
    dbt = StarDBT(program, strategy="tt",
                  limits=RecorderLimits(hot_threshold=5, max_path_blocks=10))
    result = dbt.run()
    recorder = dbt.recorder
    outer = program.label_addr("outer")
    # The outer anchor was attempted and given up on...
    assert recorder._trunk_aborts.get(outer, 0) >= 1
    assert recorder._trunk_aborts.get(outer, 0) <= _MAX_TRUNK_ABORTS
    # ...while the inner loop recorded fine.
    assert result.trace_set.has_entry(program.label_addr("inner"))
    assert not result.trace_set.has_entry(outer)


def test_extension_threshold_throttles_growth():
    program = assemble(EXPLOSIVE)
    from repro.dbt import StarDBT

    def tbbs(threshold):
        dbt = StarDBT(program, strategy="tt",
                      limits=RecorderLimits(hot_threshold=5,
                                            max_path_blocks=64),
                      recorder_kwargs={"extension_threshold": threshold})
        return dbt.run().trace_set.n_tbbs

    eager = tbbs(2)
    lazy = tbbs(12)
    assert eager > lazy


def test_recorder_finish_discards_inflight_path():
    """A recording cut off by program end must not corrupt the set."""
    program = assemble(EXPLOSIVE)
    trace_set = record_traces(program, strategy="tt", hot_threshold=5,
                              max_path_blocks=64).trace_set
    assert trace_set.validate() == []


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("total", (30, 400_000))
def test_running_tbb_count_matches_trace_set(strategy, total,
                                             nested_program,
                                             call_loop_program):
    """The budget check reads a running count instead of re-summing
    every trace; it must equal ``n_tbbs`` at finish, with and without
    a budget that bites (TT/CTT extensions grow committed trees)."""
    for program in (nested_program, call_loop_program,
                    assemble(EXPLOSIVE), assemble(UNRECORDABLE_OUTER)):
        dbt = StarDBT(program, strategy=strategy,
                      limits=RecorderLimits(hot_threshold=5,
                                            max_total_tbbs=total))
        traces = dbt.run().trace_set
        assert len(traces) > 0
        assert dbt.recorder.committed_tbbs == traces.n_tbbs
