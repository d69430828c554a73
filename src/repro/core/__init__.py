"""TEA — Trace Execution Automata (the paper's contribution).

A TEA is a deterministic finite automaton whose states are the Trace
Basic Blocks of a program's traces plus the distinguished **NTE** state
("No Trace being Executed"); transitions are labelled with the program
counters that trigger them.  Feeding the executing program counter stream
into the automaton yields a precise map from the current PC to the TBB
being "executed" — without replicating any trace code.

Package contents:

- :mod:`repro.core.automaton` — the automaton itself.
- :mod:`repro.core.builder` — **Algorithm 1**: traces -> TEA.
- :mod:`repro.core.directory` — the transition function's trace lookup
  (linked list vs global B+ tree, Section 4.2).
- :mod:`repro.core.replay` — the replayer: drives the automaton from
  block transitions one ``step()`` at a time, accounts coverage and
  cost (Tables 2 and 4); the oracle and the profiling walk.
- :mod:`repro.core.compiled` — the automaton lowered to flat tables and
  the cell walk over packed batches: the one replay engine the
  harness, the service, ``repro tools`` and ``TeaReplayTool`` run.
- :mod:`repro.core.jit` — per-automaton specializing codegen: emits a
  replay loop tailored to one compiled automaton, with guard + deopt
  back to the compiled engine; reachable only from its tests and
  benchmark.
- :mod:`repro.core.online` — **Algorithm 2**: recording TEA online while
  the program runs (Table 3).
- :mod:`repro.core.memory_model` — byte accounting for Table 1.
- :mod:`repro.core.profile` — per-state/edge profile counters.
- :mod:`repro.core.duplication` — trace duplication for unroll profiling
  (the Section 2 motivation).
- :mod:`repro.core.serialization` — persisting TEA + profiles for reuse
  in future executions.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.automaton import NTE_SID, TEA, TeaState
    from repro.core.builder import build_tea, sync_trace
    from repro.core.compiled import CompiledReplayer, CompiledTea, PackedBatch
    from repro.core.directory import (
        BPlusTreeDirectory,
        LinkedListDirectory,
        make_directory,
    )
    from repro.core.duplication import duplicate_in_set, duplicate_trace
    from repro.core.jit import JitCode, JitReplayer, generate_replay_source
    from repro.core.memory_model import MemoryModel
    from repro.core.online import OnlineTeaRecorder
    from repro.core.profile import TeaProfile
    from repro.core.replay import ReplayConfig, TeaReplayer
    from repro.core.serialization import (
        load_tea,
        save_tea,
        tea_from_json,
        tea_to_json,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    ".automaton": ("NTE_SID", "TEA", "TeaState"),
    ".builder": ("build_tea", "sync_trace"),
    ".compiled": ("CompiledReplayer", "CompiledTea", "PackedBatch"),
    ".directory": ("BPlusTreeDirectory", "LinkedListDirectory",
                   "make_directory"),
    ".duplication": ("duplicate_in_set", "duplicate_trace"),
    ".jit": ("JitCode", "JitReplayer", "generate_replay_source"),
    ".memory_model": ("MemoryModel",),
    ".online": ("OnlineTeaRecorder",),
    ".profile": ("TeaProfile",),
    ".replay": ("ReplayConfig", "TeaReplayer"),
    ".serialization": ("load_tea", "save_tea", "tea_from_json",
                       "tea_to_json"),
})

__all__ = [
    "TEA",
    "TeaState",
    "NTE_SID",
    "build_tea",
    "sync_trace",
    "LinkedListDirectory",
    "BPlusTreeDirectory",
    "make_directory",
    "ReplayConfig",
    "TeaReplayer",
    "CompiledTea",
    "CompiledReplayer",
    "PackedBatch",
    "JitCode",
    "JitReplayer",
    "generate_replay_source",
    "OnlineTeaRecorder",
    "MemoryModel",
    "TeaProfile",
    "duplicate_trace",
    "duplicate_in_set",
    "tea_to_json",
    "tea_from_json",
    "save_tea",
    "load_tea",
]
