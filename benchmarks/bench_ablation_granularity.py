"""Ablation: basic-block vs instruction granularity TEA.

The paper defines TEA over "instructions or basic blocks" and implements
it over basic blocks.  This bench quantifies why: instruction states
multiply both the automaton size and the per-step transition work by the
average block length, while coverage information is unchanged — blocks
are the right default, instructions the option for per-instruction
profiling (Section 2 / Figure 1).
"""

from repro.cfg.basic_block import BlockIndex
from repro.cfg.builder import FLAVOR_STARDBT, DynamicBlockBuilder
from repro.core import MemoryModel, TeaReplayer, build_tea
from repro.core.instruction_level import (
    InstructionTeaReplayer,
    build_instruction_tea,
    instruction_tea_bytes,
)
from repro.cpu import Executor


def _drive(program, step):
    builder = DynamicBlockBuilder(
        BlockIndex(program), program.entry, flavor=FLAVOR_STARDBT,
        on_transition=step,
    )
    executor = Executor(program)
    consumed = [0, 0]

    def on_event(event):
        consumed[0] += event.instrs_dbt
        consumed[1] += event.instrs_pin
        builder.feed(event)

    result = executor.run(on_event)
    builder.flush(result.final_pc, result.instrs_dbt - consumed[0],
                  result.instrs_pin - consumed[1])


def _compare(runner, name):
    program = runner.workload(name).program
    trace_set = runner.dbt(name, "mret").trace_set
    model = MemoryModel()

    block_replayer = TeaReplayer(build_tea(trace_set))
    _drive(program, lambda t: block_replayer.step(t.next_start, t.instrs_dbt,
                                                  t.instrs_pin))
    instruction_replayer = InstructionTeaReplayer(
        build_instruction_tea(trace_set, program), program
    )
    _drive(program, instruction_replayer.step_block)

    return {
        "block_bytes": model.tea_bytes_for_automaton(block_replayer.tea),
        "instr_bytes": instruction_tea_bytes(instruction_replayer.tea, model),
        "dbt_bytes": model.dbt_total_bytes(trace_set),
        "block_cycles": block_replayer.cost.cycles,
        "instr_cycles": instruction_replayer.cost.cycles,
        "block_cov": block_replayer.stats.coverage(pin_counting=False),
        "instr_cov": instruction_replayer.stats.coverage(pin_counting=False),
    }


def test_granularity_ablation(runner, benchmark):
    name = "171.swim" if "171.swim" in runner.config.benchmarks else \
        runner.config.benchmarks[0]
    data = benchmark.pedantic(_compare, args=(runner, name), rounds=1,
                              iterations=1)
    print("\ngranularity ablation on %s:" % name)
    print("  representation: block TEA %.1f KB, instruction TEA %.1f KB, "
          "DBT code %.1f KB"
          % (data["block_bytes"] / 1024, data["instr_bytes"] / 1024,
             data["dbt_bytes"] / 1024))
    print("  replay work:    block %.2f Mcyc, instruction %.2f Mcyc"
          % (data["block_cycles"] / 1e6, data["instr_cycles"] / 1e6))
    print("  coverage:       block %.1f%%, instruction %.1f%%"
          % (100 * data["block_cov"], 100 * data["instr_cov"]))

    assert data["block_bytes"] < data["instr_bytes"] < data["dbt_bytes"]
    assert data["instr_cycles"] > 1.5 * data["block_cycles"]
    assert abs(data["block_cov"] - data["instr_cov"]) < 0.03
