"""The DBT code cache: replicated trace code, byte-accounted.

This is the baseline representation Table 1 compares TEA against: every
trace is materialised as translated code (expansion over the original
bytes), exit stubs for its side exits, link records for its internal
edges, an entry stub and a descriptor — see
:class:`~repro.core.memory_model.MemoryModel` for the constants.

Tree-strategy recorders keep extending committed traces, so totals are
computed on demand from the live trace objects rather than snapshotted at
install time.
"""

from repro.core.memory_model import MemoryModel


class CodeCache:
    """Holds installed traces and accounts their replicated footprint."""

    def __init__(self, memory_model=None):
        self.memory_model = memory_model or MemoryModel()
        self._traces = {}  # installed traces, in install order

    def install(self, trace):
        """Install a committed trace (idempotent per trace object)."""
        self._traces[trace] = None

    @property
    def traces(self):
        return list(self._traces)

    @property
    def n_traces(self):
        return len(self._traces)

    @property
    def n_tbbs(self):
        return sum(len(trace) for trace in self._traces)

    @property
    def total_bytes(self):
        """Replicated-code footprint of everything installed."""
        return sum(
            self.memory_model.dbt_trace_bytes(trace) for trace in self._traces
        )

    def trace_bytes(self, trace):
        return self.memory_model.dbt_trace_bytes(trace)

    def __len__(self):
        return len(self._traces)

    def __repr__(self):
        return "<CodeCache %d traces, %.1f KB>" % (
            len(self._traces),
            self.total_bytes / 1024.0,
        )
