"""Trace-recording strategies by name, as Table 1 and the CLIs select
them."""

from repro.traces.compact_trace_tree import CompactTraceTreeRecorder
from repro.traces.mfet import MFETRecorder
from repro.traces.mret import MRETRecorder
from repro.traces.trace_tree import TraceTreeRecorder

#: Strategy name -> recorder class, as used by Table 1.
STRATEGIES = {
    "mret": MRETRecorder,
    "ctt": CompactTraceTreeRecorder,
    "tt": TraceTreeRecorder,
    "mfet": MFETRecorder,
}


def make_recorder(strategy, **kwargs):
    """Instantiate a recorder by strategy name ('mret', 'ctt', 'tt', 'mfet')."""
    try:
        recorder_cls = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            "unknown strategy %r (expected one of %s)"
            % (strategy, ", ".join(sorted(STRATEGIES)))
        ) from None
    return recorder_cls(**kwargs)
