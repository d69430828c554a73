"""Basic blocks and control-flow graphs.

Two distinct views exist, as in the paper:

- *Dynamic* basic blocks (:mod:`repro.cfg.builder`) are discovered from the
  executed edge stream.  StarDBT identifies a block as "starting at an
  address which is target of a branching instruction and ending in a branch
  instruction"; Pin additionally splits blocks at ``cpuid`` and
  REP-prefixed instructions (Section 4.1).  Both flavours are implemented.
- The *static* CFG (:mod:`repro.cfg.cfg`) is decoded from the program image.
  It renders Figure 2's DOT, backs verify rule TEA010's edge check and
  yields the natural loops (:mod:`repro.cfg.loops`).  Trace recorders do
  not consult it: TT and CTT take loop headers from backward edges at run
  time.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cfg.basic_block import BasicBlock, BlockIndex
    from repro.cfg.builder import (
        FLAVOR_PIN,
        FLAVOR_STARDBT,
        DynamicBlockBuilder,
    )
    from repro.cfg.cfg import ControlFlowGraph, build_cfg
    from repro.cfg.loops import LoopInfo, find_loops

__getattr__, __dir__ = lazy_exports(globals(), {
    ".basic_block": ("BasicBlock", "BlockIndex"),
    ".builder": ("FLAVOR_PIN", "FLAVOR_STARDBT", "DynamicBlockBuilder"),
    ".cfg": ("ControlFlowGraph", "build_cfg"),
    ".loops": ("LoopInfo", "find_loops"),
})

__all__ = [
    "BasicBlock",
    "BlockIndex",
    "DynamicBlockBuilder",
    "FLAVOR_STARDBT",
    "FLAVOR_PIN",
    "ControlFlowGraph",
    "build_cfg",
    "LoopInfo",
    "find_loops",
]
