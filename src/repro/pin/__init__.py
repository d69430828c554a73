"""MiniPin: a Pin-like dynamic instrumentation engine.

Pin JIT-compiles the running binary and lets a "pintool" insert analysis
callbacks.  MiniPin reproduces the parts the paper depends on:

- per-block dispatch and one-time translation overhead (the bare-Pin
  "Without Pintool" slowdown of Table 4);
- extra cost on indirect transfers (Pin resolves them through its code
  cache hash — why call-heavy eon/perlbmk are pricier);
- dynamic blocks that split at ``cpuid``/REP, while *tools* instrument
  taken/fall-through edges so they observe StarDBT-shaped transitions
  (the Section 4.1 workaround, implemented in
  :class:`~repro.pin.pin.Pin`);
- Pin-style instruction counting (REP iterations count individually).

The TEA pintools of the paper's experiments live in
:mod:`repro.pin.tea_tool`.
"""

from repro.pin.packed import DEFAULT_PACKED_BATCH, pack_transitions
from repro.pin.pin import Pin, PinResult, run_native
from repro.pin.pintool import CallbackTool, Pintool
from repro.pin.tea_tool import TeaRecordTool, TeaReplayTool

__all__ = [
    "Pin",
    "PinResult",
    "run_native",
    "Pintool",
    "CallbackTool",
    "TeaReplayTool",
    "TeaRecordTool",
    "pack_transitions",
    "DEFAULT_PACKED_BATCH",
]
