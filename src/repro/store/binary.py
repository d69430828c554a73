"""The binary TEA snapshot codec (format ``TEAB``).

Snapshots are written in one format, the mmap-able v2 section layout of
:mod:`repro.store.binary_v2`.  This module holds the public entry points
(:func:`dump_tea_binary`, :func:`load_tea_binary`,
:func:`compile_tea_binary`, :func:`peek_tea_binary`), the varint codec,
and the two varint blobs v2 embeds verbatim: the traces section and the
profile section.  The original v1 format is read-only: the loaders
convert v1 bytes once with
:func:`~repro.store.binary_v2.convert_v1_to_v2` and then take the v2
path, so callers never care which format a file uses.

The JSON TEA document (:mod:`repro.core.serialization`) stores only the
trace *shape* and rebuilds the automaton by re-running Algorithm 1 on
load.  A binary snapshot additionally stores the automaton itself —
state table, transition lists and the NTE head registry — so loading
rebuilds a TEA that is identical to the one that was saved (same state
ids, same transitions, same heads) *without* re-running Algorithm 1.
That is the paper's "storing trace shape and profiling information for
reuse in future executions" turned into a reusable artifact: the
:class:`~repro.store.store.AutomatonStore` keeps snapshots
content-addressed and the replay service serves them to many clients.

v1 layout (read-only)
---------------------
::

    magic   b"TEAB"
    u8      format version (1)
    u8      flags (bit 0: profile section, bit 1: meta section)
    ...     payload (varint-encoded sections, see below)
    u32le   CRC32 over everything above

All integers in the payload are unsigned LEB128 varints; deltas
(block start addresses, transition labels, head entries) are zigzag
encoded so occasional backwards jumps stay cheap.  Sections, in order:

1. **meta** (optional): length-prefixed UTF-8 JSON — free-form snapshot
   metadata (benchmark name, scale, recording strategy, label).
2. **traces**: the trace-set document — per trace: id, kind, anchor,
   delta-encoded TBB spans, and (from, to) edge pairs.  Edge labels are
   not stored: a label is by construction the successor TBB's start.
   v2 embeds this section byte for byte.
3. **automaton**: per non-NTE state its (trace_id, tbb_index) in state-id
   order, then per state the transition list as (label delta, dest sid)
   pairs sorted by label, then the head registry as (entry delta, sid)
   pairs sorted by entry.  v2 stores these as int64 tables instead.
4. **profile** (optional): state counts as (trace_id, tbb_index, count)
   triples plus the three per-trace counter maps — the same
   renumbering-safe keying the JSON format uses.  v2 embeds this
   section byte for byte.
"""

from __future__ import annotations

import json
import zlib

from repro.core.automaton import NTE_SID
from repro.core.builder import build_tea
from repro.core.profile import TeaProfile
from repro.errors import SerializationError
from repro.traces.model import Trace, TraceSet

MAGIC = b"TEAB"
BINARY_VERSION = 1


def snapshot_version(data):
    """The format version byte of TEAB bytes, or ``None`` if not TEAB."""
    if len(data) >= 5 and bytes(data[:4]) == MAGIC:
        return data[4]
    return None


FLAG_PROFILE = 0x01
FLAG_META = 0x02

#: Profile counter maps stored as (trace_id, value) pairs.
_PROFILE_TRACE_MAPS = ("trace_enters", "trace_exits", "trace_head_executions")


# ---------------------------------------------------------------------
# varint primitives
# ---------------------------------------------------------------------

def write_uvarint(out, value):
    """Append ``value`` (non-negative int) as unsigned LEB128."""
    if value < 0:
        raise SerializationError("uvarint cannot encode %d" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def zigzag(value):
    """Map a signed int to the unsigned zigzag encoding."""
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def unzigzag(value):
    """Inverse of :func:`zigzag`."""
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def write_svarint(out, value):
    """Append a signed int as zigzag + LEB128."""
    write_uvarint(out, zigzag(value))


class _Reader:
    """Bounded varint reader over the payload bytes."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data, start=0, end=None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

    def uvarint(self):
        result = 0
        shift = 0
        data = self.data
        pos = self.pos
        end = self.end
        while True:
            if pos >= end:
                raise SerializationError("truncated varint in snapshot")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return result
            shift += 7
            if shift > 70:
                raise SerializationError("oversized varint in snapshot")

    def svarint(self):
        return unzigzag(self.uvarint())

    def uvarint_run(self, count):
        """Decode ``count`` consecutive varints in one tight loop.

        The payload is mostly long homogeneous varint runs (TBB spans,
        edge pairs, transition lists); decoding a run with locals
        instead of per-value method calls is what makes snapshot loads
        competitive with the C JSON parser.
        """
        data = self.data
        pos = self.pos
        end = self.end
        values = []
        append = values.append
        for _ in range(count):
            if pos >= end:
                raise SerializationError("truncated varint in snapshot")
            byte = data[pos]
            pos += 1
            if byte < 0x80:
                append(byte)
                continue
            result = byte & 0x7F
            shift = 7
            while True:
                if pos >= end:
                    raise SerializationError("truncated varint in snapshot")
                byte = data[pos]
                pos += 1
                result |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift > 70:
                    raise SerializationError("oversized varint in snapshot")
            append(result)
        self.pos = pos
        return values

    def take(self, count):
        if self.pos + count > self.end:
            raise SerializationError("truncated section in snapshot")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def string(self):
        return self.take(self.uvarint()).decode("utf-8")

    def optional_uvarint(self):
        # Presence is its own varint (0 = absent, 1 = present).
        if self.uvarint() == 0:
            return None
        return self.uvarint()

    @property
    def exhausted(self):
        return self.pos >= self.end


def _write_string(out, text):
    data = text.encode("utf-8")
    write_uvarint(out, len(data))
    out.extend(data)


def _write_optional_uvarint(out, value):
    if value is None:
        write_uvarint(out, 0)
    else:
        write_uvarint(out, 1)
        write_uvarint(out, value)


# ---------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------

def dump_tea_binary(trace_set, tea=None, profile=None, meta=None):
    """Serialize ``trace_set`` (+ automaton, profile, meta) to TEAB v2
    bytes.

    ``tea`` defaults to a fresh Algorithm 1 build over ``trace_set`` —
    passing the automaton you actually used guarantees the snapshot
    reproduces *its* state numbering exactly.  The output is
    deterministic: the same inputs always produce the same bytes, which
    is what makes the store content-addressable.
    """
    from repro.store.binary_v2 import _assemble_v2

    if tea is None:
        tea = build_tea(trace_set)
    traces_raw = bytearray()
    _encode_traces(traces_raw, trace_set)
    meta_raw = None
    if meta is not None:
        meta_raw = json.dumps(
            meta, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    profile_raw = None
    if profile is not None:
        profile_raw = bytearray()
        _encode_profile(profile_raw, tea, profile)
    summary = (
        trace_set.kind or None,
        len(trace_set.traces),
        sum(len(trace.tbbs) for trace in trace_set),
        sum(len(tbb.successors) for trace in trace_set for tbb in trace),
    )
    return _assemble_v2(summary, meta_raw, bytes(traces_raw),
                        _automaton_tables(tea), profile_raw)


def _automaton_tables(tea):
    """The CSR tables of ``tea``: ``(n_states, refs, trans_offset,
    trans_labels, trans_dest, head_entries, head_sids)``, transitions
    sorted by label per state and heads by entry."""
    refs = []
    trans_offset = [0]
    trans_labels = []
    trans_dest = []
    for state in tea.states:
        if state.sid != NTE_SID:
            if state.tbb is None:
                raise SerializationError(
                    "state %d has no TBB and is not NTE" % state.sid
                )
            refs += (state.tbb.trace_id, state.tbb.index)
        for label, destination in sorted(state.transitions.items()):
            trans_labels.append(label)
            trans_dest.append(destination.sid)
        trans_offset.append(len(trans_labels))
    heads = sorted(tea.heads.items())
    return (tea.n_states, refs, trans_offset, trans_labels, trans_dest,
            [entry for entry, _head in heads],
            [head.sid for _entry, head in heads])


def _encode_traces(out, trace_set):
    _write_string(out, trace_set.kind or "")
    write_uvarint(out, len(trace_set.traces))
    for trace in trace_set:
        write_uvarint(out, trace.trace_id)
        _write_string(out, trace.kind)
        _write_optional_uvarint(out, trace.anchor)
        write_uvarint(out, len(trace.tbbs))
        previous = 0
        for tbb in trace:
            write_svarint(out, tbb.block.start - previous)
            write_uvarint(out, tbb.block.end - tbb.block.start)
            previous = tbb.block.start
        edges = [
            (tbb.index, successor)
            for tbb in trace
            for _, successor in sorted(tbb.successors.items())
        ]
        write_uvarint(out, len(edges))
        previous = 0
        for from_index, to_index in edges:
            write_uvarint(out, from_index - previous)
            write_uvarint(out, to_index)
            previous = from_index


def _encode_profile(out, tea, profile):
    counts = []
    for state in tea.states:
        if state.tbb is None:
            continue
        executed = profile.state_counts.get(state.sid, 0)
        if executed:
            counts.append((state.tbb.trace_id, state.tbb.index, executed))
    write_uvarint(out, len(counts))
    for trace_id, index, executed in counts:
        write_uvarint(out, trace_id)
        write_uvarint(out, index)
        write_uvarint(out, executed)
    for name in _PROFILE_TRACE_MAPS:
        items = sorted(getattr(profile, name).items())
        write_uvarint(out, len(items))
        for trace_id, value in items:
            write_uvarint(out, int(trace_id))
            write_uvarint(out, value)


# ---------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------

def _open_snapshot(data):
    """Validate the v1 envelope; returns ``(reader, flags)`` over the
    payload."""
    if len(data) < len(MAGIC) + 2 + 4:
        raise SerializationError("snapshot too short to be a TEAB file")
    if data[:4] != MAGIC:
        raise SerializationError("bad magic: not a binary TEA snapshot")
    stored_crc = int.from_bytes(data[-4:], "little")
    actual_crc = zlib.crc32(data[:-4])
    if stored_crc != actual_crc:
        raise SerializationError(
            "snapshot CRC mismatch (stored %08x, computed %08x)"
            % (stored_crc, actual_crc)
        )
    version = data[4]
    if version != BINARY_VERSION:
        raise SerializationError(
            "unsupported binary TEA snapshot v%d" % version
        )
    flags = data[5]
    return _Reader(data, start=6, end=len(data) - 4), flags


def _decode_traces(reader, block_index):
    kind = reader.string() or None
    trace_set = TraceSet(kind=kind)
    n_traces = reader.uvarint()
    for _ in range(n_traces):
        trace_id = reader.uvarint()
        trace_kind = reader.string()
        anchor = reader.optional_uvarint()
        trace = Trace(trace_id, trace_kind, anchor=anchor)
        n_tbbs = reader.uvarint()
        spans = reader.uvarint_run(2 * n_tbbs)
        previous = 0
        block = block_index.block
        add_block = trace.add_block
        for position in range(0, 2 * n_tbbs, 2):
            start = previous + unzigzag(spans[position])
            add_block(block(start, start + spans[position + 1]))
            previous = start
        n_edges = reader.uvarint()
        pairs = reader.uvarint_run(2 * n_edges)
        previous = 0
        add_edge = trace.add_edge
        for position in range(0, 2 * n_edges, 2):
            from_index = previous + pairs[position]
            to_index = pairs[position + 1]
            if not 0 <= from_index < n_tbbs or not 0 <= to_index < n_tbbs:
                raise SerializationError(
                    "edge index out of range in trace T%d" % trace_id
                )
            add_edge(from_index, to_index)
            previous = from_index
        trace_set.traces.append(trace)
        if trace.entry in trace_set.by_entry:
            raise SerializationError(
                "duplicate trace entry %#x" % trace.entry
            )
        trace_set.by_entry[trace.entry] = trace
    trace_set.check()
    return trace_set


def _decode_profile(reader, trace_set, tea):
    """Decode a profile section against the decoded automaton."""
    by_key = {}
    for trace in trace_set:
        for tbb in trace:
            by_key[(tbb.trace_id, tbb.index)] = tea.state_for(tbb)
    profile = TeaProfile()
    n_counts = reader.uvarint()
    triples = reader.uvarint_run(3 * n_counts)
    for position in range(0, 3 * n_counts, 3):
        key = (triples[position], triples[position + 1])
        state = by_key.get(key)
        if state is None:
            raise SerializationError(
                "profile refers to unknown TBB (T%d, #%d)" % key
            )
        profile.state_counts[state.sid] = triples[position + 2]
    for name in _PROFILE_TRACE_MAPS:
        counters = getattr(profile, name)
        n_items = reader.uvarint()
        pairs = reader.uvarint_run(2 * n_items)
        for position in range(0, 2 * n_items, 2):
            counters[pairs[position]] = pairs[position + 1]
    return profile


def _as_v2(data):
    """``data`` as v2 bytes: v2 is returned as is, v1 is converted once
    (anything else raises :class:`SerializationError`)."""
    from repro.store.binary_v2 import BINARY_VERSION_V2, convert_v1_to_v2

    if snapshot_version(data) == BINARY_VERSION_V2:
        return data
    return convert_v1_to_v2(data)


def load_tea_binary(data, block_index, with_meta=False):
    """Rebuild ``(trace_set, tea, profile_or_None)`` from snapshot bytes.

    The automaton comes back exactly as saved — same state ids, same
    transition lists, same head registry — without re-running
    Algorithm 1.  With ``with_meta=True`` the result is a 4-tuple whose
    last element is the snapshot's meta dict (or ``None``).  v1 bytes
    are converted to v2 first.
    """
    from repro.store.binary_v2 import load_tea_binary_v2

    return load_tea_binary_v2(_as_v2(data), block_index,
                              with_meta=with_meta)


def _scan_traces(reader):
    """Skip the traces section; returns ``(kind, n_traces, n_tbbs, n_edges)``.

    Block spans are scanned, not interned: the v1 -> v2 converter needs
    the section's extent and counts, not a program image.
    """
    kind = reader.string() or None
    n_traces = reader.uvarint()
    n_tbbs = 0
    n_edges = 0
    for _ in range(n_traces):
        reader.uvarint()               # trace id
        reader.string()                # kind
        reader.optional_uvarint()      # anchor
        trace_tbbs = reader.uvarint()
        n_tbbs += trace_tbbs
        reader.uvarint_run(2 * trace_tbbs)
        trace_edges = reader.uvarint()
        n_edges += trace_edges
        reader.uvarint_run(2 * trace_edges)
    return kind, n_traces, n_tbbs, n_edges


def _decode_automaton_tables(reader):
    """Decode the v1 automaton section into flat CSR tables.

    Returns ``(n_states, refs, trans_offset, trans_labels, trans_dest,
    head_entries, head_sids)`` where ``refs`` is the flattened
    ``(trace_id, tbb_index)`` int list — the shape
    :func:`_automaton_tables` builds from objects.  The v1 automaton
    section *is* the compiled layout (label-sorted transition runs,
    entry-sorted heads), so one pass fills every table.
    """
    from array import array

    n_states = reader.uvarint()
    if n_states < 1:
        raise SerializationError("snapshot automaton has no NTE state")
    refs = reader.uvarint_run(2 * (n_states - 1))
    trans_offset = array("q", [0] * (n_states + 1))
    trans_labels = array("q")
    trans_dest = array("q")
    for sid in range(n_states):
        n_transitions = reader.uvarint()
        run = reader.uvarint_run(2 * n_transitions)
        previous = 0
        for position in range(0, 2 * n_transitions, 2):
            label = previous + unzigzag(run[position])
            dest = run[position + 1]
            if not 0 <= dest < n_states:
                raise SerializationError(
                    "transition to unknown state %d" % dest
                )
            trans_labels.append(label)
            trans_dest.append(dest)
            previous = label
        trans_offset[sid + 1] = len(trans_labels)
    n_heads = reader.uvarint()
    run = reader.uvarint_run(2 * n_heads)
    head_entries = array("q")
    head_sids = array("q")
    previous = 0
    for position in range(0, 2 * n_heads, 2):
        entry = previous + unzigzag(run[position])
        sid = run[position + 1]
        if not 0 < sid < n_states:
            raise SerializationError("head refers to unknown state %d" % sid)
        head_entries.append(entry)
        head_sids.append(sid)
        previous = entry
    return (n_states, refs, trans_offset, trans_labels, trans_dest,
            head_entries, head_sids)


def compile_tea_binary(data, verify=True):
    """Lower snapshot bytes straight into a
    :class:`~repro.core.compiled.CompiledTea`, without materializing
    the ``TeaState`` object graph, the trace set, or a program image.

    v2 snapshots take the zero-copy path
    (:func:`~repro.store.binary_v2.compile_tea_binary_v2`): the CSR
    tables are int64 views straight into ``data``, so passing an
    ``mmap`` shares the page cache across processes.  v1 snapshots are
    converted to v2 first.  The per-state instruction metadata arrays
    come back zeroed: the format does not store instruction counts, and
    the compiled replayer never reads them (packed transition streams
    carry the dynamic counts).

    With ``verify=True`` (the default) the snapshot rule family
    (``TEA020``-``TEA025``) certifies the bytes first and a
    :class:`~repro.errors.VerificationError` — still a
    :class:`SerializationError` — carries the full diagnostics when
    they are damaged.  Pass ``verify=False`` to skip the pass (the
    verifier itself does, to avoid re-scanning).
    """
    from repro.store.binary_v2 import BINARY_VERSION_V2, compile_tea_binary_v2

    if snapshot_version(data) != BINARY_VERSION_V2:
        if verify:
            from repro.verify.api import verify_snapshot_bytes

            verify_snapshot_bytes(data, deep=False).raise_on_error()
        data, verify = _as_v2(data), False
    return compile_tea_binary_v2(data, verify=verify)


def peek_tea_binary(data):
    """Structural summary of snapshot bytes, without a program image.

    Unlike :func:`load_tea_binary` this needs no :class:`BlockIndex`
    and decodes no varint: counts come from the v2 header
    (:func:`~repro.store.binary_v2.peek_tea_binary_v2`).  Returns a
    dict with the file's own version, counts, profile presence, meta,
    byte size and, for v2 files, the section table.  v1 bytes are
    converted to v2 first.
    """
    from repro.store.binary_v2 import peek_tea_binary_v2

    converted = _as_v2(data)
    info = peek_tea_binary_v2(converted)
    if converted is not data:
        # The section table describes the converted image, not the file.
        del info["sections"]
        info.update(version=snapshot_version(data), bytes=len(data))
    return info


def save_tea_binary(path, trace_set, tea=None, profile=None, meta=None):
    """Write a binary snapshot to ``path`` atomically."""
    from repro.util import atomic_write_bytes

    atomic_write_bytes(
        path, dump_tea_binary(trace_set, tea=tea, profile=profile, meta=meta)
    )


def load_tea_binary_file(path, block_index, with_meta=False):
    """Read a snapshot previously written by :func:`save_tea_binary`."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SerializationError("cannot read %s: %s" % (path, error)) from None
    return load_tea_binary(data, block_index, with_meta=with_meta)
