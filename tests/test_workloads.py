"""Workload generator and benchmark spec tests."""

import random

import pytest

from repro.cpu import run_program
from repro.errors import WorkloadError
from repro.isa import LabelRef
from repro.isa.assembler import assemble_records
from repro.workloads import (
    BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    build_workload_program,
    figure1_program,
    figure2_program,
    get_benchmark,
    load_benchmark,
)
from repro.workloads.generator import WorkloadProgram
from repro.workloads.kernels import (
    KERNEL_KINDS,
    branchy_loop,
    branchy_nest,
    call_loop,
    counted_nest,
    fp_nest,
    rep_copy_loop,
    straightline,
    switch_loop,
)


def run_kernel(kernel):
    main = [("main", None, None),
            (None, "call", (LabelRef(kernel.entry_label),)),
            (None, "hlt", ())]
    program = assemble_records(main + kernel.code, kernel.data)
    return run_program(program, max_instructions=5_000_000)


# ---------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(KERNEL_KINDS))
def test_every_kernel_kind_assembles_and_halts(kind):
    rng = random.Random(7)
    kernel = KERNEL_KINDS[kind]("k0", rng)
    result = run_kernel(kernel)
    assert result.halted
    assert result.instrs_dbt > 0


def test_counted_nest_instruction_count_scales():
    rng = random.Random(1)
    small = run_kernel(counted_nest("k0", random.Random(1), outer_iters=5,
                                    inner_iters=10))
    large = run_kernel(counted_nest("k0", random.Random(1), outer_iters=10,
                                    inner_iters=10))
    assert large.instrs_dbt > 1.7 * small.instrs_dbt


def test_fp_nest_runs_sequential_inner_loops():
    kernel = fp_nest("k0", random.Random(2), outer_iters=3, inner_iters=5,
                     n_inner=3)
    assert ("k0_i2", None, None) in kernel.code
    assert run_kernel(kernel).halted


def test_branchy_loop_is_deterministic_per_seed():
    a = run_kernel(branchy_loop("k0", random.Random(3), iters=50, seed=42))
    b = run_kernel(branchy_loop("k0", random.Random(3), iters=50, seed=42))
    assert a.instrs_dbt == b.instrs_dbt
    assert a.edges == b.edges


def test_branchy_nest_trip_counts_vary():
    kernel = branchy_nest("k0", random.Random(4), outer_iters=40,
                          inner_iters=8, seed=9)
    result = run_kernel(kernel)
    assert result.halted


def test_switch_loop_reaches_multiple_cases():
    kernel = switch_loop("k0", random.Random(5), iters=100, cases=8, seed=11)
    result = run_kernel(kernel)
    assert result.halted
    # Each iteration takes at least: lcg, mask ops, load, jmp, case, join.
    assert result.instrs_dbt > 100 * 8


def test_call_loop_indirect_dispatch():
    kernel = call_loop("k0", random.Random(6), iters=60, n_funcs=4,
                       indirect=True, seed=13)
    assert run_kernel(kernel).halted


def test_rep_copy_loop_counts_diverge():
    kernel = rep_copy_loop("k0", random.Random(7), iters=5, words=16)
    result = run_kernel(kernel)
    assert result.instrs_pin - result.instrs_dbt == 5 * 15


def test_straightline_runs_once():
    kernel = straightline("k0", random.Random(8), n_ops=30)
    result = run_kernel(kernel)
    assert result.instrs_dbt < 90


# ---------------------------------------------------------------------
# figure programs
# ---------------------------------------------------------------------

def test_figure1_program_copies_100_words():
    from repro.cpu import Machine
    program = figure1_program()
    machine = Machine()
    run_program(program, machine=machine)
    src = program.label_addr("fig1_src")
    dst = program.label_addr("fig1_dst")
    assert machine.regs[2] == 0  # ecx exhausted
    # dst mirrors src (both zero-initialised: check pointers moved 400B)
    assert machine.regs[4] == src + 400
    assert machine.regs[5] == dst + 400


def test_figure2_program_counts_matches():
    from repro.cpu import Machine
    program = figure2_program(list_length=50, needle=7, match_every=5)
    machine = Machine()
    run_program(program, machine=machine)
    assert machine.regs[0] == 10  # every 5th of 50 nodes


def test_figure2_program_custom_needle():
    from repro.cpu import Machine
    program = figure2_program(list_length=30, needle=1234, match_every=3)
    machine = Machine()
    run_program(program, machine=machine)
    assert machine.regs[0] == 10


# ---------------------------------------------------------------------
# generator and specs
# ---------------------------------------------------------------------

def test_all_26_benchmarks_defined():
    assert len(BENCHMARKS) == 26
    assert len(FP_BENCHMARKS) == 14
    assert len(INT_BENCHMARKS) == 12
    paper_names = {"171.swim", "176.gcc", "256.bzip2", "252.eon"}
    assert paper_names <= set(BENCHMARKS)


def test_get_benchmark_unknown():
    with pytest.raises(WorkloadError):
        get_benchmark("999.fortnite")


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_every_benchmark_builds_and_runs_tiny(name):
    workload = load_benchmark(name, scale=0.12)
    assert isinstance(workload, WorkloadProgram)
    result = run_program(workload.program, max_instructions=3_000_000)
    assert result.halted, name
    assert result.instrs_dbt > 500, name


def test_scale_changes_dynamic_size():
    small = load_benchmark("171.swim", scale=0.2)
    large = load_benchmark("171.swim", scale=0.6)
    small_run = run_program(small.program, max_instructions=10_000_000)
    large_run = run_program(large.program, max_instructions=10_000_000)
    assert large_run.instrs_dbt > 1.5 * small_run.instrs_dbt


def test_generation_is_deterministic():
    first = load_benchmark("164.gzip", scale=0.3)
    second = load_benchmark("164.gzip", scale=0.3)
    assert first.source == second.source


def test_scale_validation():
    with pytest.raises(WorkloadError):
        load_benchmark("171.swim", scale=0)


def test_unknown_kernel_kind_rejected():
    from repro.workloads.spec import BenchmarkSpec
    spec = BenchmarkSpec("x", "int", 1, [{"kind": "warp_drive"}])
    with pytest.raises(WorkloadError):
        build_workload_program(spec)


def test_cold_kernels_scale_by_count():
    from repro.workloads.spec import BenchmarkSpec, K
    spec = BenchmarkSpec("x", "int", 1, [
        K("straightline", repeat=2, n_ops=10, cold=True),
    ])
    small = build_workload_program(spec, scale=1.0)
    large = build_workload_program(spec, scale=3.0)
    assert large.program.code_size_bytes > 2 * small.program.code_size_bytes


def test_fp_benchmarks_have_bigger_blocks_than_int():
    """The suites' block-size character drives Table 1's savings spread."""
    from repro.dbt import StarDBT
    from repro.traces.recorder import RecorderLimits

    def mean_block_instrs(name):
        workload = load_benchmark(name, scale=0.5)
        result = StarDBT(workload.program,
                         limits=RecorderLimits(hot_threshold=10)).run()
        tbbs = [tbb for t in result.trace_set for tbb in t]
        return sum(t.block.n_instrs for t in tbbs) / max(len(tbbs), 1)

    assert mean_block_instrs("171.swim") > mean_block_instrs("164.gzip")
