"""Trace models and trace-selection strategies.

Implements the paper's Definitions 1-3 (:mod:`repro.traces.model`) and the
trace-recording strategies evaluated in Table 1 plus one related-work
extension:

- :mod:`repro.traces.mret` — Most Recently Executed Tail (Dynamo/NET),
  the strategy used for the Table 2/3 experiments.
- :mod:`repro.traces.trace_tree` — Trace Trees (Gal & Franz): anchored at
  loop headers, paths always end with a branch to the anchor, side exits
  duplicate tails (the Table 1 blowup on branchy integer codes).
- :mod:`repro.traces.compact_trace_tree` — Compact Trace Trees (Porto et
  al.): tree paths may also terminate at loop headers on the path and may
  link into already-recorded nodes, curbing TT's duplication.
- :mod:`repro.traces.mfet` — Most Frequently Executed Tail (extension;
  edge-profile triggered, mentioned in the paper's related work).
- :mod:`repro.traces.strategies` — the four by name
  (:data:`STRATEGIES`, :func:`make_recorder`).

All recorders observe block boundaries as ``(block, next_start, flag
byte)`` triples, read from an execution stream's lanes (see
:meth:`TraceRecorder.observe <repro.traces.recorder.TraceRecorder.observe>`),
and produce a :class:`~repro.traces.model.TraceSet`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.traces.compact_trace_tree import CompactTraceTreeRecorder
    from repro.traces.mfet import MFETRecorder
    from repro.traces.model import TBB, Trace, TraceSet
    from repro.traces.mret import MRETRecorder
    from repro.traces.recorder import RecorderLimits, TraceRecorder
    from repro.traces.serialization import (
        load_trace_set,
        save_trace_set,
        trace_set_from_json,
        trace_set_to_json,
    )
    from repro.traces.stats import (
        TraceSetStats,
        compare_strategies,
        compute_stats,
    )
    from repro.traces.strategies import STRATEGIES, make_recorder
    from repro.traces.trace_tree import TraceTreeRecorder

__getattr__, __dir__ = lazy_exports(globals(), {
    ".compact_trace_tree": ("CompactTraceTreeRecorder",),
    ".mfet": ("MFETRecorder",),
    ".model": ("TBB", "Trace", "TraceSet"),
    ".mret": ("MRETRecorder",),
    ".recorder": ("RecorderLimits", "TraceRecorder"),
    ".serialization": ("load_trace_set", "save_trace_set",
                       "trace_set_from_json", "trace_set_to_json"),
    ".stats": ("TraceSetStats", "compare_strategies", "compute_stats"),
    ".strategies": ("STRATEGIES", "make_recorder"),
    ".trace_tree": ("TraceTreeRecorder",),
})

__all__ = [
    "TBB",
    "Trace",
    "TraceSet",
    "TraceRecorder",
    "RecorderLimits",
    "MRETRecorder",
    "MFETRecorder",
    "TraceTreeRecorder",
    "CompactTraceTreeRecorder",
    "STRATEGIES",
    "make_recorder",
    "save_trace_set",
    "load_trace_set",
    "trace_set_to_json",
    "trace_set_from_json",
    "TraceSetStats",
    "compute_stats",
    "compare_strategies",
]
