"""The mmap-able binary TEA snapshot codec (format ``TEAB`` v2).

v2 is the one format snapshots are written in
(:func:`~repro.store.binary.dump_tea_binary`).  The older TEAB v1
(:mod:`repro.store.binary`) is a monolithic varint blob that every load
had to re-decode with a Python loop; it is read-only now, converted
once by :func:`convert_v1_to_v2`.  v2 keeps the v1 *content* — the same
trace grammar, the same automaton, the same optional profile and meta
— but lays the automaton tables out exactly
the way :class:`~repro.core.compiled.CompiledTea` consumes them: raw
little-endian int64 arrays, each section 8-byte aligned, addressed by a
fixed header + section table.  Loading the compiled automaton is then
O(file size): one ``memoryview.cast('q')`` per section straight over an
``mmap`` (zero-copy, page cache shared across every process mapping the
same snapshot) or one ``array.frombytes`` per section, with no varint
decode loop and no per-element Python work.

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
 2  META           canonical JSON snapshot metadata (v1 meta section)
 3  TRACES*        the v1 traces section, byte-for-byte (varint grammar)
 4  STATE_REFS*    (trace_id, tbb_index) int64 pairs, state-id order
 5  TBB_FLAG*      one byte per state (0 = NTE, 1 = in-trace)
 6  TRANS_OFFSET*  CSR row offsets, (n_states + 1) int64
 7  TRANS_LABELS*  transition labels, label-sorted per state
 8  TRANS_DEST*    transition destination state ids
 9  HEAD_ENTRIES*  head registry entry PCs, ascending
10  HEAD_SIDS*     head registry state ids (parallel to 9)
11  LABEL_POOL*    interned PC pool: sorted distinct labels + entries
12  PROFILE        the v1 profile section, byte-for-byte
==  =============  =====================================================

The encoding is fully deterministic — same content, same bytes — so
snapshots are content-addressed, and :func:`convert_v1_to_v2` of a
canonical v1 file gives exactly the bytes the writer produces for the
same content.  Deep verification walks the embedded TRACES, META and
PROFILE blobs and re-derives SUMMARY and LABEL_POOL from them.
All multi-byte integers are little-endian regardless of host byte
order; big-endian hosts fall back to a byteswapping ``array`` copy.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array

from repro.errors import SerializationError
from repro.store.binary import (
    FLAG_META,
    FLAG_PROFILE,
    MAGIC,
    _decode_automaton_tables,
    _decode_profile,
    _decode_traces,
    _open_snapshot,
    _Reader,
    _scan_traces,
)

BINARY_VERSION_V2 = 2

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

#: Sections every v2 snapshot must carry.
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
# encoding
# ---------------------------------------------------------------------

def _assemble_v2(summary, meta_raw, traces_raw, tables, profile_raw):
    """Build v2 bytes from pre-encoded blobs + automaton tables.

    ``summary`` is ``(kind, n_traces, n_tbbs, n_edges)`` of the traces
    blob; ``tables`` is the CSR tuple of
    :func:`~repro.store.binary._automaton_tables`.
    """
    (n_states, refs, trans_offset, trans_labels, trans_dest,
     head_entries, head_sids) = tables
    label_pool = sorted(set(trans_labels) | set(head_entries))
    sections = [(SEC_SUMMARY, summary_json(*summary), 0)]
    if meta_raw is not None:
        sections.append((SEC_META, meta_raw, 0))
    sections.extend([
        (SEC_TRACES, traces_raw, summary[1]),
        (SEC_STATE_REFS, _int64_bytes(refs), 2 * (n_states - 1)),
        (SEC_TBB_FLAG, b"\x00" + b"\x01" * (n_states - 1), n_states),
        (SEC_TRANS_OFFSET, _int64_bytes(trans_offset), n_states + 1),
        (SEC_TRANS_LABELS, _int64_bytes(trans_labels), len(trans_labels)),
        (SEC_TRANS_DEST, _int64_bytes(trans_dest), len(trans_dest)),
        (SEC_HEAD_ENTRIES, _int64_bytes(head_entries), len(head_entries)),
        (SEC_HEAD_SIDS, _int64_bytes(head_sids), len(head_sids)),
        (SEC_LABEL_POOL, _int64_bytes(label_pool), len(label_pool)),
    ])
    if profile_raw is not None:
        sections.append((SEC_PROFILE, profile_raw, 0))
    return _pack_v2(sections)


def _pack_v2(sections):
    """Serialize ``(id, payload, count)`` triples into a v2 file."""
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
    prefix = struct.pack("<4sBBHQ", MAGIC, BINARY_VERSION_V2, 0,
                         n_sections, position)
    table_crc = zlib.crc32(table, zlib.crc32(prefix))
    return prefix + struct.pack("<II", table_crc, 0) + table + bytes(body)


def convert_v1_to_v2(data):
    """Re-encode v1 snapshot bytes as v2 bytes.

    The META, TRACES and PROFILE slices are carried over byte for byte;
    the automaton section becomes the int64 tables.  This is the only
    conversion: v2 is never turned back into v1.
    """
    return _assemble_v2(*v1_parts(data))


def v1_parts(data):
    """Split v1 snapshot bytes into :func:`_assemble_v2`'s arguments:
    ``(summary, meta_raw, traces_raw, tables, profile_raw)``, the blobs
    as the exact v1 slices."""
    reader, flags = _open_snapshot(data)
    meta_raw = None
    if flags & FLAG_META:
        meta_raw = bytes(reader.take(reader.uvarint()))
    traces_start = reader.pos
    summary = _scan_traces(reader)
    traces_raw = bytes(data[traces_start:reader.pos])
    tables = _decode_automaton_tables(reader)
    profile_raw = None
    if flags & FLAG_PROFILE:
        profile_raw = bytes(data[reader.pos:reader.end])
        reader.pos = reader.end
    if not reader.exhausted:
        raise SerializationError(
            "%d trailing bytes after snapshot payload"
            % (reader.end - reader.pos)
        )
    return summary, meta_raw, traces_raw, tables, profile_raw


# ---------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------

def open_v2(data, check_crc=True):
    """Validate the v2 envelope; returns ``{id: (offset, length, count)}``.

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
    if version != BINARY_VERSION_V2:
        raise SerializationError(
            "unsupported binary TEA snapshot v%d" % version
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


def peek_tea_binary_v2(data):
    """Header-only structural summary of v2 bytes.

    Counts come straight from the section table and the SUMMARY/META
    JSON — no automaton tables are materialized and no varint is
    decoded, so this is O(header) plus the CRC sweep.  The returned
    dict matches :func:`~repro.store.binary.peek_tea_binary` and adds a
    ``sections`` list with per-section sizes.
    """
    sections = open_v2(data)
    summary = _json_of(data, sections, SEC_SUMMARY, "summary")
    meta = None
    if SEC_META in sections:
        meta = _json_of(data, sections, SEC_META, "meta")
    return {
        "format": "binary",
        "version": BINARY_VERSION_V2,
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


def compile_tea_binary_v2(data, verify=True):
    """Lower v2 bytes into a :class:`~repro.core.compiled.CompiledTea`
    zero-copy.

    Every CSR table becomes an int64 view *into* ``data`` — pass an
    ``mmap`` (or any buffer) and the compiled automaton reads the page
    cache directly; N processes mapping the same snapshot share those
    pages.  The views keep ``data`` alive for the compiled automaton's
    lifetime.

    With ``verify=True`` the snapshot rule family certifies the bytes
    first.  Structural validation of the adopted tables is *not*
    repeated here: the v2 scan (rule ``TEA024``) already proves CSR
    sanity, which is what makes this path O(file size).
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


def load_tea_binary_v2(data, block_index, with_meta=False):
    """Rebuild ``(trace_set, tea, profile_or_None)`` from v2 bytes.

    The TRACES and PROFILE sections carry the v1 varint grammar
    verbatim; the automaton is rebuilt from the CSR sections in
    state-id order, transitions in label order and heads in entry order.
    """
    loaded = _load_sections(data, open_v2(data), block_index)
    return loaded if with_meta else loaded[:3]


def load_and_compile_v2(data, block_index):
    """:func:`load_tea_binary_v2` with meta and
    :func:`compile_tea_binary_v2` (unverified) from one
    :func:`open_v2`, so one CRC sweep: ``(trace_set, tea, profile,
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
