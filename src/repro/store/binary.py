"""The binary TEA snapshot codec (format ``TEAB``, version 2).

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

The automaton tables are laid out exactly the way
:class:`~repro.core.compiled.CompiledTea` consumes them: raw
little-endian int64 arrays, each section 8-byte aligned, addressed by a
fixed header + section table.  Loading the compiled automaton is then
O(file size): one ``memoryview.cast('q')`` per section straight over an
``mmap`` (zero-copy, page cache shared across every process mapping the
same snapshot), with no varint decode loop and no per-element Python
work.  A file with any other version byte is refused with a message
that says how to rebuild it.

Layout
------
::

    header (24 bytes)
        magic        b"TEAB"
        u8           format version (2)
        u8           flags (reserved, must be 0)
        u16le        n_sections
        u64le        file size in bytes
        u32le        CRC32 over header[0:16] + section table
        u32le        reserved (must be 0)
    section table (32 bytes per entry, ascending section id)
        u32le        section id
        u32le        CRC32 over the section payload
        u64le        payload offset from file start (8-byte aligned)
        u64le        payload length in bytes
        u64le        item count (0 for blob sections)
    sections, in table order, zero-padded to 8-byte alignment

Sections (``*`` = required):

==  =============  =====================================================
 1  SUMMARY*       canonical JSON: trace-set kind + trace/TBB/edge counts
 2  META           canonical JSON snapshot metadata
 3  TRACES*        the trace-set blob (varint grammar, below)
 4  STATE_REFS*    (trace_id, tbb_index) int64 pairs, state-id order
 5  TBB_FLAG*      one byte per state (0 = NTE, 1 = in-trace)
 6  TRANS_OFFSET*  CSR row offsets, (n_states + 1) int64
 7  TRANS_LABELS*  transition labels, label-sorted per state
 8  TRANS_DEST*    transition destination state ids
 9  HEAD_ENTRIES*  head registry entry PCs, ascending
10  HEAD_SIDS*     head registry state ids (parallel to 9)
11  LABEL_POOL*    interned PC pool: sorted distinct labels + entries
12  PROFILE        the profile blob (varint grammar, below)
==  =============  =====================================================

The TRACES and PROFILE blobs are varint streams: every integer is an
unsigned LEB128 varint, and block start addresses are zigzag deltas so
occasional backwards jumps stay cheap.  TRACES holds, per trace: id,
kind, anchor, delta-encoded TBB spans and (from, to) edge pairs (an
edge's label is by construction the successor TBB's start, so it is not
stored).  PROFILE holds the state counts as (trace_id, tbb_index, count)
triples plus the three per-trace counter maps — the same
renumbering-safe keying the JSON format uses.

The encoding is fully deterministic — same content, same bytes — so
snapshots are content-addressed.  Deep verification walks the embedded
TRACES, META and PROFILE blobs and re-derives SUMMARY and LABEL_POOL
from them.  All multi-byte integers are little-endian regardless of
host byte order; big-endian hosts fall back to a byteswapping ``array``
copy.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array

from repro.core.automaton import NTE_SID
from repro.core.builder import build_tea
from repro.core.profile import TeaProfile
from repro.errors import SerializationError
from repro.traces.model import Trace, TraceSet

MAGIC = b"TEAB"
BINARY_VERSION = 2

#: How to replace a snapshot (or its program image) this code cannot
#: read: every error that refuses one says it.
_REBUILD = "rebuild it with 'python -m repro.service build'"

#: Profile counter maps stored as (trace_id, value) pairs.
_PROFILE_TRACE_MAPS = ("trace_enters", "trace_exits", "trace_head_executions")

HEADER_SIZE = 24
ENTRY_SIZE = 32

_HEADER = struct.Struct("<4sBBHQII")   # magic, ver, flags, n, size, crc, rsvd
_ENTRY = struct.Struct("<IIQQQ")       # id, crc, offset, length, count

SEC_SUMMARY = 1
SEC_META = 2
SEC_TRACES = 3
SEC_STATE_REFS = 4
SEC_TBB_FLAG = 5
SEC_TRANS_OFFSET = 6
SEC_TRANS_LABELS = 7
SEC_TRANS_DEST = 8
SEC_HEAD_ENTRIES = 9
SEC_HEAD_SIDS = 10
SEC_LABEL_POOL = 11
SEC_PROFILE = 12

SECTION_NAMES = {
    SEC_SUMMARY: "summary",
    SEC_META: "meta",
    SEC_TRACES: "traces",
    SEC_STATE_REFS: "state_refs",
    SEC_TBB_FLAG: "tbb_flag",
    SEC_TRANS_OFFSET: "trans_offset",
    SEC_TRANS_LABELS: "trans_labels",
    SEC_TRANS_DEST: "trans_dest",
    SEC_HEAD_ENTRIES: "head_entries",
    SEC_HEAD_SIDS: "head_sids",
    SEC_LABEL_POOL: "label_pool",
    SEC_PROFILE: "profile",
}

#: Sections every snapshot must carry.
REQUIRED_SECTIONS = frozenset((
    SEC_SUMMARY, SEC_TRACES, SEC_STATE_REFS, SEC_TBB_FLAG,
    SEC_TRANS_OFFSET, SEC_TRANS_LABELS, SEC_TRANS_DEST,
    SEC_HEAD_ENTRIES, SEC_HEAD_SIDS, SEC_LABEL_POOL,
))

#: Sections whose payload is a packed little-endian int64 array.
INT64_SECTIONS = frozenset((
    SEC_STATE_REFS, SEC_TRANS_OFFSET, SEC_TRANS_LABELS, SEC_TRANS_DEST,
    SEC_HEAD_ENTRIES, SEC_HEAD_SIDS, SEC_LABEL_POOL,
))


def summary_json(kind, n_traces, n_tbbs, n_edges):
    """The canonical SUMMARY section bytes for a traces blob."""
    return json.dumps(
        {"edges": n_edges, "kind": kind, "tbbs": n_tbbs, "traces": n_traces},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


def _int64_bytes(values):
    """Pack an int sequence as little-endian int64 bytes."""
    packed = array("q", values)
    if sys.byteorder != "little":
        packed.byteswap()
    return packed.tobytes()


def int64_section(buffer, offset, length):
    """A zero-copy int64 view over ``buffer[offset:offset+length]``.

    On little-endian hosts this is a ``memoryview.cast('q')`` — no copy,
    and the view keeps the underlying buffer (e.g. an ``mmap``) alive.
    Big-endian hosts get a byteswapped ``array('q')`` copy instead; both
    behave identically for indexing, slicing, iteration and equality.
    """
    view = memoryview(buffer)[offset:offset + length]
    if sys.byteorder == "little":
        return view.cast("q")
    swapped = array("q")
    swapped.frombytes(view)
    swapped.byteswap()
    return swapped


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
    """Bounded varint reader over a TRACES or PROFILE blob."""

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

    def uvarint_run(self, count):
        """Decode ``count`` consecutive varints in one tight loop.

        The blobs are mostly long homogeneous varint runs (TBB spans,
        edge pairs, profile triples); decoding a run with locals
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
    """Serialize ``trace_set`` (+ automaton, profile, meta) to TEAB
    bytes.

    ``tea`` defaults to a fresh Algorithm 1 build over ``trace_set`` —
    passing the automaton you actually used guarantees the snapshot
    reproduces *its* state numbering exactly.  The output is
    deterministic: the same inputs always produce the same bytes, which
    is what makes the store content-addressable.
    """
    if tea is None:
        tea = build_tea(trace_set)
    traces_raw = bytearray()
    _encode_traces(traces_raw, trace_set)
    (n_states, refs, trans_offset, trans_labels, trans_dest,
     head_entries, head_sids) = _automaton_tables(tea)
    label_pool = sorted(set(trans_labels) | set(head_entries))
    sections = [(SEC_SUMMARY, summary_json(
        trace_set.kind or None,
        len(trace_set.traces),
        sum(len(trace.tbbs) for trace in trace_set),
        sum(len(tbb.successors) for trace in trace_set for tbb in trace),
    ), 0)]
    if meta is not None:
        sections.append((SEC_META, json.dumps(
            meta, sort_keys=True, separators=(",", ":")
        ).encode("utf-8"), 0))
    sections.extend([
        (SEC_TRACES, bytes(traces_raw), len(trace_set.traces)),
        (SEC_STATE_REFS, _int64_bytes(refs), 2 * (n_states - 1)),
        (SEC_TBB_FLAG, b"\x00" + b"\x01" * (n_states - 1), n_states),
        (SEC_TRANS_OFFSET, _int64_bytes(trans_offset), n_states + 1),
        (SEC_TRANS_LABELS, _int64_bytes(trans_labels), len(trans_labels)),
        (SEC_TRANS_DEST, _int64_bytes(trans_dest), len(trans_dest)),
        (SEC_HEAD_ENTRIES, _int64_bytes(head_entries), len(head_entries)),
        (SEC_HEAD_SIDS, _int64_bytes(head_sids), len(head_sids)),
        (SEC_LABEL_POOL, _int64_bytes(label_pool), len(label_pool)),
    ])
    if profile is not None:
        profile_raw = bytearray()
        _encode_profile(profile_raw, tea, profile)
        sections.append((SEC_PROFILE, bytes(profile_raw), 0))
    return _pack_v2(sections)


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


def _pack_v2(sections):
    """Serialize ``(id, payload, count)`` triples into a TEAB file."""
    n_sections = len(sections)
    position = HEADER_SIZE + ENTRY_SIZE * n_sections
    body = bytearray()
    entries = []
    for sec_id, payload, count in sections:
        pad = (-position) % 8
        body += b"\x00" * pad
        position += pad
        entries.append(
            (sec_id, zlib.crc32(payload), position, len(payload), count)
        )
        body += payload
        position += len(payload)
    table = b"".join(_ENTRY.pack(*entry) for entry in entries)
    prefix = struct.pack("<4sBBHQ", MAGIC, BINARY_VERSION, 0,
                         n_sections, position)
    table_crc = zlib.crc32(table, zlib.crc32(prefix))
    return prefix + struct.pack("<II", table_crc, 0) + table + bytes(body)


# ---------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------

def open_v2(data, check_crc=True):
    """Validate the envelope; returns ``{id: (offset, length, count)}``.

    Checks magic/version/flags, the header + section-table CRC, table
    entry sanity (known ids, ascending, aligned, in bounds,
    non-overlapping), required-section presence, int64 section size
    consistency, and (with ``check_crc``, the default) every
    per-section CRC.  Raises :class:`SerializationError` on the first
    problem — the collecting equivalent lives in the verifier
    (``TEA024``/``TEA025``).
    """
    size = len(data)
    if size < HEADER_SIZE:
        raise SerializationError(
            "snapshot is %d bytes, shorter than the %d-byte v2 header"
            % (size, HEADER_SIZE)
        )
    magic, version, flags, n_sections, file_size, table_crc, reserved = (
        _HEADER.unpack_from(data, 0)
    )
    if magic != MAGIC:
        raise SerializationError("bad magic: not a binary TEA snapshot")
    if version != BINARY_VERSION:
        raise SerializationError(
            "unsupported binary TEA snapshot version %d (this code reads "
            "version %d); %s" % (version, BINARY_VERSION, _REBUILD)
        )
    if flags or reserved:
        raise SerializationError(
            "reserved v2 header bits are set (flags=%#x reserved=%#x)"
            % (flags, reserved)
        )
    if file_size != size:
        raise SerializationError(
            "v2 header names %d bytes but the snapshot is %d"
            % (file_size, size)
        )
    table_end = HEADER_SIZE + ENTRY_SIZE * n_sections
    if n_sections < 1 or table_end > size:
        raise SerializationError(
            "v2 section table (%d entries) does not fit in %d bytes"
            % (n_sections, size)
        )
    actual_crc = zlib.crc32(memoryview(data)[HEADER_SIZE:table_end],
                            zlib.crc32(memoryview(data)[:16]))
    if actual_crc != table_crc:
        raise SerializationError(
            "v2 section table CRC mismatch (stored %08x, computed %08x)"
            % (table_crc, actual_crc)
        )
    sections = {}
    previous_id = 0
    cursor = table_end
    for index in range(n_sections):
        sec_id, crc, offset, length, count = _ENTRY.unpack_from(
            data, HEADER_SIZE + ENTRY_SIZE * index
        )
        if sec_id not in SECTION_NAMES:
            raise SerializationError("unknown v2 section id %d" % sec_id)
        if sec_id <= previous_id:
            raise SerializationError(
                "v2 section ids are not strictly ascending (%d after %d)"
                % (sec_id, previous_id)
            )
        previous_id = sec_id
        if offset % 8:
            raise SerializationError(
                "section %s at offset %d is not 8-byte aligned"
                % (SECTION_NAMES[sec_id], offset)
            )
        if offset < cursor or offset + length > size:
            raise SerializationError(
                "section %s [%d, %d) overlaps or escapes the file"
                % (SECTION_NAMES[sec_id], offset, offset + length)
            )
        if sec_id in INT64_SECTIONS and length != 8 * count:
            raise SerializationError(
                "int64 section %s declares %d items but %d bytes"
                % (SECTION_NAMES[sec_id], count, length)
            )
        if sec_id == SEC_TBB_FLAG and length != count:
            raise SerializationError(
                "tbb_flag section declares %d states but %d bytes"
                % (count, length)
            )
        if check_crc:
            actual = zlib.crc32(memoryview(data)[offset:offset + length])
            if actual != crc:
                raise SerializationError(
                    "section %s CRC mismatch (stored %08x, computed %08x)"
                    % (SECTION_NAMES[sec_id], crc, actual)
                )
        sections[sec_id] = (offset, length, count)
        cursor = offset + length
    missing = REQUIRED_SECTIONS - sections.keys()
    if missing:
        raise SerializationError(
            "v2 snapshot is missing required section(s): %s"
            % ", ".join(sorted(SECTION_NAMES[m] for m in missing))
        )
    n_states = sections[SEC_TBB_FLAG][2]
    if n_states < 1:
        raise SerializationError("snapshot automaton has no NTE state")
    if sections[SEC_STATE_REFS][2] != 2 * (n_states - 1):
        raise SerializationError(
            "state_refs holds %d values for %d states"
            % (sections[SEC_STATE_REFS][2], n_states)
        )
    if sections[SEC_TRANS_OFFSET][2] != n_states + 1:
        raise SerializationError(
            "trans_offset holds %d values for %d states"
            % (sections[SEC_TRANS_OFFSET][2], n_states)
        )
    if sections[SEC_TRANS_LABELS][2] != sections[SEC_TRANS_DEST][2]:
        raise SerializationError("trans_labels/trans_dest length mismatch")
    if sections[SEC_HEAD_ENTRIES][2] != sections[SEC_HEAD_SIDS][2]:
        raise SerializationError("head_entries/head_sids length mismatch")
    return sections


def _section_bytes(data, sections, sec_id):
    offset, length, _count = sections[sec_id]
    return bytes(memoryview(data)[offset:offset + length])


def _int64_of(data, sections, sec_id):
    offset, length, _count = sections[sec_id]
    return int64_section(data, offset, length)


def _json_of(data, sections, sec_id, what):
    try:
        return json.loads(_section_bytes(data, sections, sec_id))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SerializationError(
            "malformed snapshot %s: %s" % (what, error)
        ) from None


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


def peek_tea_binary(data):
    """Structural summary of snapshot bytes, without a program image.

    Unlike :func:`load_tea_binary` this needs no :class:`BlockIndex`:
    counts come straight from the section table and the SUMMARY/META
    JSON — no automaton tables are materialized and no varint is
    decoded, so this is O(header) plus the CRC sweep.  Returns a dict
    with the version, counts, profile presence, meta, byte size and a
    ``sections`` list with per-section sizes.
    """
    sections = open_v2(data)
    summary = _json_of(data, sections, SEC_SUMMARY, "summary")
    meta = None
    if SEC_META in sections:
        meta = _json_of(data, sections, SEC_META, "meta")
    return {
        "format": "binary",
        "version": BINARY_VERSION,
        "kind": summary.get("kind"),
        "traces": summary.get("traces"),
        "tbbs": summary.get("tbbs"),
        "edges": summary.get("edges"),
        "states": sections[SEC_TBB_FLAG][2],
        "transitions": sections[SEC_TRANS_LABELS][2],
        "heads": sections[SEC_HEAD_ENTRIES][2],
        "labels": sections[SEC_LABEL_POOL][2],
        "profile": SEC_PROFILE in sections,
        "meta": meta,
        "bytes": len(data),
        "sections": [
            {
                "id": sec_id,
                "name": SECTION_NAMES[sec_id],
                "offset": offset,
                "bytes": length,
                "count": count,
            }
            for sec_id, (offset, length, count) in sorted(sections.items())
        ],
    }


def compile_tea_binary(data, verify=True):
    """Lower snapshot bytes straight into a
    :class:`~repro.core.compiled.CompiledTea`, zero-copy, without
    materializing the ``TeaState`` object graph, the trace set, or a
    program image.

    Every CSR table becomes an int64 view *into* ``data`` — pass an
    ``mmap`` (or any buffer) and the compiled automaton reads the page
    cache directly; N processes mapping the same snapshot share those
    pages.  The views keep ``data`` alive for the compiled automaton's
    lifetime.  The per-state instruction metadata arrays come back
    zeroed: the format does not store instruction counts, and the
    compiled replayer never reads them (packed transition streams carry
    the dynamic counts).

    With ``verify=True`` (the default) the snapshot rule family
    (``TEA020``-``TEA025``) certifies the bytes first and a
    :class:`~repro.errors.VerificationError` — still a
    :class:`SerializationError` — carries the full diagnostics when
    they are damaged.  Pass ``verify=False`` to skip the pass (the
    verifier itself does, to avoid re-scanning).  Structural validation
    of the adopted tables is *not* repeated here: the section scan
    (rule ``TEA024``) already proves CSR sanity, which is what makes
    this path O(file size).
    """
    if verify:
        from repro.verify.api import verify_snapshot_bytes

        verify_snapshot_bytes(data, deep=False).raise_on_error()
    return _compile_sections(data, open_v2(data, check_crc=not verify))


def _compile_sections(data, sections):
    from repro.core.compiled import CompiledTea

    offset, length, n_states = sections[SEC_TBB_FLAG]
    tbb_flag = bytes(memoryview(data)[offset:offset + length])
    return CompiledTea.from_buffers(
        n_states,
        tbb_flag,
        _int64_of(data, sections, SEC_TRANS_OFFSET),
        _int64_of(data, sections, SEC_TRANS_LABELS),
        _int64_of(data, sections, SEC_TRANS_DEST),
        _int64_of(data, sections, SEC_HEAD_ENTRIES),
        _int64_of(data, sections, SEC_HEAD_SIDS),
        labels=_int64_of(data, sections, SEC_LABEL_POOL),
        validate=False,
    )


def load_tea_binary(data, block_index, with_meta=False):
    """Rebuild ``(trace_set, tea, profile_or_None)`` from snapshot bytes.

    The automaton comes back exactly as saved — same state ids, same
    transition lists, same head registry — without re-running
    Algorithm 1: it is rebuilt from the CSR sections in state-id order,
    transitions in label order and heads in entry order.  With
    ``with_meta=True`` the result is a 4-tuple whose last element is the
    snapshot's meta dict (or ``None``).
    """
    loaded = _load_sections(data, open_v2(data), block_index)
    return loaded if with_meta else loaded[:3]


def load_and_compile_tea_binary(data, block_index):
    """``load_tea_binary(data, block_index, with_meta=True)`` plus the
    automaton :func:`compile_tea_binary` lowers without verifying, from
    one :func:`open_v2` (one CRC sweep): ``(trace_set, tea, profile,
    meta, compiled)``."""
    sections = open_v2(data)
    return _load_sections(data, sections, block_index) + (
        _compile_sections(data, sections),)


def _load_sections(data, sections, block_index):
    from repro.core.automaton import TEA

    meta = None
    if SEC_META in sections:
        meta = _json_of(data, sections, SEC_META, "meta")
    reader = _Reader(_section_bytes(data, sections, SEC_TRACES))
    trace_set = _decode_traces(reader, block_index)
    if not reader.exhausted:
        raise SerializationError(
            "%d trailing bytes after the traces section"
            % (reader.end - reader.pos)
        )
    by_key = {
        (tbb.trace_id, tbb.index): tbb
        for trace in trace_set
        for tbb in trace
    }
    n_states = sections[SEC_TBB_FLAG][2]
    refs = _int64_of(data, sections, SEC_STATE_REFS)
    tea = TEA()
    for position in range(0, len(refs), 2):
        key = (refs[position], refs[position + 1])
        tbb = by_key.get(key)
        if tbb is None:
            raise SerializationError(
                "automaton state refers to unknown TBB (T%d, #%d)" % key
            )
        tea.add_tbb_state(tbb)
    states = tea.states
    trans_offset = _int64_of(data, sections, SEC_TRANS_OFFSET)
    trans_labels = _int64_of(data, sections, SEC_TRANS_LABELS)
    trans_dest = _int64_of(data, sections, SEC_TRANS_DEST)
    for sid in range(n_states):
        transitions = states[sid].transitions
        for position in range(trans_offset[sid], trans_offset[sid + 1]):
            dest = trans_dest[position]
            if not 0 <= dest < n_states:
                raise SerializationError(
                    "transition to unknown state %d" % dest
                )
            transitions[trans_labels[position]] = states[dest]
    for entry, sid in zip(_int64_of(data, sections, SEC_HEAD_ENTRIES),
                          _int64_of(data, sections, SEC_HEAD_SIDS)):
        if not 0 < sid < n_states:
            raise SerializationError("head refers to unknown state %d" % sid)
        tea.heads[entry] = states[sid]
    profile = None
    if SEC_PROFILE in sections:
        reader = _Reader(_section_bytes(data, sections, SEC_PROFILE))
        profile = _decode_profile(reader, trace_set, tea)
        if not reader.exhausted:
            raise SerializationError(
                "%d trailing bytes after the profile section"
                % (reader.end - reader.pos)
            )
    return trace_set, tea, profile, meta


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
