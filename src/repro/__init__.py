"""TEA: Trace Execution Automata in Dynamic Binary Translation.

A full, from-scratch reproduction of Porto, Araujo, Borin & Wu's TEA
paper: trace recording strategies (MRET / MFET / TT / CTT), the TEA
automaton with Algorithm 1 (offline construction) and Algorithm 2
(online recording), the optimised transition function of Section 4.2
(global B+ tree directory + per-state local caches), and the two host
environments the paper uses — a StarDBT-like translator baseline and a
Pin-like instrumentation engine — all running on a small x86-flavoured
ISA with its own assembler and interpreter.

Quickstart::

    from repro import (ExecutionStream, Pin, StarDBT, TeaReplayTool,
                       assemble)

    program = assemble(SOURCE)
    stream = ExecutionStream.record(program)     # the one interpreter run
    recorded = StarDBT(program, strategy="mret", stream=stream).run()
    tool = TeaReplayTool(trace_set=recorded.trace_set)
    result = Pin(program, tool=tool, stream=stream).run()
    print(tool.coverage, result.megacycles)

See README.md for the architecture overview, DESIGN.md for the system
inventory, and ``python -m repro.harness all`` for the paper's tables.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core import (
        TEA,
        MemoryModel,
        OnlineTeaRecorder,
        ReplayConfig,
        TeaProfile,
        TeaReplayer,
        build_tea,
        duplicate_trace,
        load_tea,
        save_tea,
    )
    from repro.cpu import ExecutionStream, Executor, Machine, run_program
    from repro.dbt import CodeCache, CostModel, CostParameters, StarDBT
    from repro.errors import ReproError
    from repro.isa import Program, assemble
    from repro.obs import EventTracer, MetricsRegistry, Observability
    from repro.pin import Pin, Pintool, TeaRecordTool, TeaReplayTool, run_native
    from repro.store import (
        AutomatonStore,
        dump_tea_binary,
        load_tea_binary,
        save_tea_binary,
    )
    from repro.traces import (
        STRATEGIES,
        TraceSet,
        load_trace_set,
        make_recorder,
        save_trace_set,
    )
    from repro.traces.recorder import RecorderLimits
    from repro.workloads import BENCHMARKS, load_benchmark

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core": ("TEA", "MemoryModel", "OnlineTeaRecorder", "ReplayConfig",
              "TeaProfile", "TeaReplayer", "build_tea", "duplicate_trace",
              "load_tea", "save_tea"),
    ".cpu": ("ExecutionStream", "Executor", "Machine", "run_program"),
    ".dbt": ("CodeCache", "CostModel", "CostParameters", "StarDBT"),
    ".errors": ("ReproError",),
    ".isa": ("Program", "assemble"),
    ".obs": ("EventTracer", "MetricsRegistry", "Observability"),
    ".pin": ("Pin", "Pintool", "TeaRecordTool", "TeaReplayTool",
             "run_native"),
    ".store": ("AutomatonStore", "dump_tea_binary", "load_tea_binary",
               "save_tea_binary"),
    ".traces": ("STRATEGIES", "TraceSet", "load_trace_set", "make_recorder",
                "save_trace_set"),
    ".traces.recorder": ("RecorderLimits",),
    ".workloads": ("BENCHMARKS", "load_benchmark"),
})

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # ISA + CPU
    "assemble",
    "Program",
    "Machine",
    "ExecutionStream",
    "Executor",
    "run_program",
    # traces
    "TraceSet",
    "STRATEGIES",
    "make_recorder",
    "RecorderLimits",
    "save_trace_set",
    "load_trace_set",
    # TEA core
    "TEA",
    "build_tea",
    "TeaReplayer",
    "ReplayConfig",
    "OnlineTeaRecorder",
    "TeaProfile",
    "MemoryModel",
    "duplicate_trace",
    "save_tea",
    "load_tea",
    # snapshot store
    "AutomatonStore",
    "dump_tea_binary",
    "load_tea_binary",
    "save_tea_binary",
    # engines
    "StarDBT",
    "CodeCache",
    "CostModel",
    "CostParameters",
    "Pin",
    "Pintool",
    "TeaReplayTool",
    "TeaRecordTool",
    "run_native",
    # observability
    "Observability",
    "MetricsRegistry",
    "EventTracer",
    # workloads
    "BENCHMARKS",
    "load_benchmark",
    # errors
    "ReproError",
]
