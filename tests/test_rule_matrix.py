"""The rule x seeded-fault matrix.

Each row seeds one realistic fault into a known-good artifact and pins
the exact set of error rule ids that verification reports, shallow
(the load-path gate) and deep.  A rule earns its place in the catalog
by being what catches some row; a fault that nothing catches shows up
as a row whose deep set is empty.

Rows are grouped by rule family.  A family brings a verify function
(``VERIFY``) and the known-good artifacts its faults are seeded into
(the ``bases`` fixture); adding a family means adding those and its
rows.  Today the matrix covers the snapshot family (TEA020-TEA025):

- ``v2``: a TEAB v2 snapshot with meta and a profile, written by
  ``dump_tea_binary`` from the golden snapshot's content (181.mcf at
  scale 0.4, MRET) and a recorded profile.  Most faults rewrite one
  section and re-pack the file, so every CRC and the layout are sound
  and only the seeded damage shows.
- ``v1``: the golden v1 snapshot ``tests/golden/mcf_mret.teab``, for
  the v1 envelope and grammar faults (CRC re-sealed unless the CRC is
  the fault).
"""

import struct
import zlib
from collections import namedtuple

import pytest

from repro.cfg.basic_block import BlockIndex
from repro.core import TeaProfile
from repro.pin import Pin, TeaReplayTool
from repro.store import dump_tea_binary, load_tea_binary
from repro.store.binary import (
    FLAG_META,
    _open_snapshot,
    _Reader,
    _scan_traces,
    write_svarint,
    write_uvarint,
)
from repro.store.binary_v2 import (
    ENTRY_SIZE,
    HEADER_SIZE,
    INT64_SECTIONS,
    SEC_LABEL_POOL,
    SEC_META,
    SEC_PROFILE,
    SEC_STATE_REFS,
    SEC_SUMMARY,
    SEC_TRACES,
    _ENTRY,
    _int64_bytes,
    _pack_v2,
    int64_section,
    open_v2,
)
from repro.verify import all_rules, verify_snapshot_bytes
from tests.conftest import reseal_v1

Row = namedtuple("Row", "family name base seed shallow deep")


# ---------------------------------------------------------------------
# v2 seeders
# ---------------------------------------------------------------------

def _repack(data, sec_id, edit):
    """Re-pack v2 ``data`` with section ``sec_id``'s payload replaced by
    ``edit(payload)``; every CRC and offset is recomputed."""
    sections = []
    for sid, (offset, length, count) in sorted(open_v2(data).items()):
        payload = bytes(data[offset:offset + length])
        if sid == sec_id:
            payload = edit(payload)
            if sid in INT64_SECTIONS:
                count = len(payload) // 8
        sections.append((sid, payload, count))
    return _pack_v2(sections)


def _int64s(payload):
    return list(int64_section(payload, 0, len(payload)))


def _retable(buffer):
    """Recompute the section-table CRC after editing table entries."""
    n_sections = struct.unpack_from("<H", buffer, 6)[0]
    table_end = HEADER_SIZE + ENTRY_SIZE * n_sections
    crc = zlib.crc32(bytes(buffer[HEADER_SIZE:table_end]),
                     zlib.crc32(bytes(buffer[:16])))
    struct.pack_into("<I", buffer, 16, crc)
    return bytes(buffer)


def misaligned_section(data):
    bad = bytearray(data)
    entry = list(_ENTRY.unpack_from(bad, HEADER_SIZE))
    entry[2] += 1          # knock the first section off 8-byte alignment
    _ENTRY.pack_into(bad, HEADER_SIZE, *entry)
    return _retable(bad)


def overlapping_sections(data):
    bad = bytearray(data)
    first = _ENTRY.unpack_from(bad, HEADER_SIZE)
    entry = list(_ENTRY.unpack_from(bad, HEADER_SIZE + ENTRY_SIZE))
    entry[2] = first[2]    # the second section starts on the first
    _ENTRY.pack_into(bad, HEADER_SIZE + ENTRY_SIZE, *entry)
    return _retable(bad)


def flipped_traces_byte(data):
    bad = bytearray(data)
    bad[open_v2(data)[SEC_TRACES][0]] ^= 0xFF   # table left intact
    return bytes(bad)


def stale_version(data):
    bad = bytearray(data)
    bad[4] = 9
    return bytes(bad)


def summary_edge_count_off_by_one(data):
    import json

    def edit(payload):
        summary = json.loads(payload)
        summary["edges"] += 1
        return json.dumps(summary, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    return _repack(data, SEC_SUMMARY, edit)


def state_ref_to_missing_tbb(data):
    def edit(payload):
        refs = _int64s(payload)
        refs[-1] = 999     # the last state's TBB index
        return _int64_bytes(refs)

    return _repack(data, SEC_STATE_REFS, edit)


def two_states_share_a_tbb(data):
    def edit(payload):
        refs = _int64s(payload)
        refs[2:4] = refs[0:2]   # state 2 names state 1's TBB
        return _int64_bytes(refs)

    return _repack(data, SEC_STATE_REFS, edit)


def traces_truncated(data):
    return _repack(data, SEC_TRACES, lambda payload: payload[:-3])


def traces_overlong_varint(data):
    # Byte 0 of the traces blob is the trace-set kind's length, a
    # one-byte varint; (value | 0x80, 0x00) decodes to the same value.
    def edit(payload):
        assert payload[0] < 0x80
        return bytes([payload[0] | 0x80, 0x00]) + payload[1:]

    return _repack(data, SEC_TRACES, edit)


def label_pool_missing_a_label(data):
    def edit(payload):
        pool = _int64s(payload)
        del pool[len(pool) // 2]
        return _int64_bytes(pool)

    return _repack(data, SEC_LABEL_POOL, edit)


def profile_keys_unsorted(data):
    """Swap the first two keys of the profile's ``trace_enters`` map."""
    def edit(payload):
        reader = _Reader(payload)
        triples = reader.uvarint_run(3 * reader.uvarint())
        maps = [reader.uvarint_run(2 * reader.uvarint()) for _ in range(3)]
        assert len(maps[0]) >= 4
        maps[0][0:4] = maps[0][2:4] + maps[0][0:2]
        out = bytearray()
        for run in (triples, *maps):
            write_uvarint(out, len(run) // (3 if run is triples else 2))
            for value in run:
                write_uvarint(out, value)
        return bytes(out)

    return _repack(data, SEC_PROFILE, edit)


def meta_not_json(data):
    return _repack(data, SEC_META, lambda payload: b"{not json")


# ---------------------------------------------------------------------
# v1 seeders (the golden snapshot)
# ---------------------------------------------------------------------

def _v1_automaton(data):
    """Where the automaton lives in v1 ``data``: the ``(start, end)`` of
    each state's transition run, and of the head registry."""
    reader, flags = _open_snapshot(data)
    if flags & FLAG_META:
        reader.take(reader.uvarint())
    _scan_traces(reader)
    n_states = reader.uvarint()
    reader.uvarint_run(2 * (n_states - 1))
    runs = []
    for _ in range(n_states):
        start = reader.pos
        reader.uvarint_run(2 * reader.uvarint())
        runs.append((start, reader.pos))
    start = reader.pos
    reader.uvarint_run(2 * reader.uvarint())
    return runs, (start, reader.pos)


def _splice_v1(data, start, end, replacement):
    return reseal_v1(data[:start] + replacement + data[end:-4])


def v1_stale_version(data):
    bad = bytearray(data)
    bad[4] = 9
    return reseal_v1(bad[:-4])


def v1_unknown_flag_bits(data):
    bad = bytearray(data)
    bad[5] |= 0x80
    return reseal_v1(bad[:-4])


def v1_crc_mismatch(data):
    bad = bytearray(data)
    bad[-1] ^= 0xFF
    return bytes(bad)


def v1_truncated_payload(data):
    # Drop the last three payload bytes: the grammar runs out mid-table.
    return reseal_v1(data[:-7])


def v1_overlong_varint(data):
    # Payload byte 0 is the meta string's length, a one-byte varint.
    assert data[6] < 0x80
    return reseal_v1(data[:6] + bytes([data[6] | 0x80, 0x00]) + data[7:-4])


def v1_transition_labels_unsorted(data):
    """Give the first one-transition state a second transition on a
    label one below the first."""
    runs, _heads = _v1_automaton(data)
    for start, end in runs:
        reader = _Reader(data, start, end)
        if reader.uvarint() == 1:
            label, dest = reader.svarint(), reader.uvarint()
            break
    run = bytearray()
    write_uvarint(run, 2)
    write_svarint(run, label)
    write_uvarint(run, dest)
    write_svarint(run, -1)
    write_uvarint(run, dest)
    return _splice_v1(data, start, end, run)


def v1_head_entries_unsorted(data):
    """Swap the first two entries of the head registry."""
    _runs, (start, end) = _v1_automaton(data)
    reader = _Reader(data, start, end)
    pairs = reader.uvarint_run(2 * reader.uvarint())
    heads = []
    entry = 0
    for position in range(0, len(pairs), 2):
        entry += (pairs[position] >> 1) ^ -(pairs[position] & 1)
        heads.append((entry, pairs[position + 1]))
    heads[0], heads[1] = heads[1], heads[0]
    registry = bytearray()
    write_uvarint(registry, len(heads))
    previous = 0
    for entry, sid in heads:
        write_svarint(registry, entry - previous)
        write_uvarint(registry, sid)
        previous = entry
    return _splice_v1(data, start, end, registry)


# ---------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------

def _unchanged(data):
    return data


def _ids(*rule_ids):
    return frozenset(rule_ids)


NONE = _ids()

ROWS = [
    Row("snapshot", "v2-clean", "v2", _unchanged, NONE, NONE),
    Row("snapshot", "v2-stale-version", "v2", stale_version,
        _ids("TEA020"), _ids("TEA020")),
    Row("snapshot", "v2-misaligned-section", "v2", misaligned_section,
        _ids("TEA024"), _ids("TEA024")),
    Row("snapshot", "v2-overlapping-sections", "v2", overlapping_sections,
        _ids("TEA024"), _ids("TEA024")),
    Row("snapshot", "v2-section-crc", "v2", flipped_traces_byte,
        _ids("TEA025"), _ids("TEA025")),
    # The next four were caught by nothing but the deleted v1 <-> v2
    # conversion rule (TEA026); the deep blob walk owns them now.
    Row("snapshot", "v2-summary-edge-count", "v2",
        summary_edge_count_off_by_one, NONE, _ids("TEA024")),
    Row("snapshot", "v2-state-ref-missing-tbb", "v2",
        state_ref_to_missing_tbb, NONE, _ids("TEA021")),
    Row("snapshot", "v2-traces-truncated", "v2", traces_truncated,
        NONE, _ids("TEA021")),
    Row("snapshot", "v2-label-pool-missing-label", "v2",
        label_pool_missing_a_label, NONE, _ids("TEA024")),
    Row("snapshot", "v2-states-share-a-tbb", "v2", two_states_share_a_tbb,
        NONE, _ids("TEA021")),
    Row("snapshot", "v2-traces-overlong-varint", "v2",
        traces_overlong_varint, NONE, _ids("TEA023")),
    Row("snapshot", "v2-profile-keys-unsorted", "v2", profile_keys_unsorted,
        NONE, _ids("TEA022")),
    Row("snapshot", "v2-meta-not-json", "v2", meta_not_json,
        NONE, _ids("TEA021")),
    Row("snapshot", "v1-clean", "v1", _unchanged, NONE, NONE),
    Row("snapshot", "v1-stale-version", "v1", v1_stale_version,
        _ids("TEA020"), _ids("TEA020")),
    Row("snapshot", "v1-unknown-flag-bits", "v1", v1_unknown_flag_bits,
        _ids("TEA020"), _ids("TEA020")),
    Row("snapshot", "v1-crc-mismatch", "v1", v1_crc_mismatch,
        _ids("TEA020"), _ids("TEA020")),
    Row("snapshot", "v1-truncated-payload", "v1", v1_truncated_payload,
        _ids("TEA021"), _ids("TEA021")),
    Row("snapshot", "v1-overlong-varint", "v1", v1_overlong_varint,
        _ids("TEA023"), _ids("TEA023")),
    Row("snapshot", "v1-transition-labels-unsorted", "v1",
        v1_transition_labels_unsorted,
        _ids("TEA022"), _ids("TEA022", "TEA030")),
    Row("snapshot", "v1-head-entries-unsorted", "v1",
        v1_head_entries_unsorted, _ids("TEA022"), _ids("TEA022")),
]

#: family -> verify(data, deep) returning a Report.
VERIFY = {
    "snapshot": lambda data, deep: verify_snapshot_bytes(data, deep=deep),
}


@pytest.fixture(scope="module")
def bases(golden_v1, golden_v1_program):
    """The known-good artifacts the rows seed faults into, by name."""
    trace_set, tea, _profile, meta = load_tea_binary(
        golden_v1, BlockIndex(golden_v1_program), with_meta=True)
    profile = TeaProfile()
    tool = TeaReplayTool(trace_set=trace_set, profile=profile, tea=tea)
    Pin(golden_v1_program, tool=tool).run()
    return {
        "v1": golden_v1,
        "v2": dump_tea_binary(trace_set, tea=tea, profile=profile,
                              meta=meta),
    }


def _error_ids(report):
    return frozenset(diag.rule_id for diag in report.errors)


@pytest.mark.parametrize("row", ROWS,
                         ids=["%s-%s" % (row.family, row.name)
                              for row in ROWS])
def test_fault_trips_exactly_its_rules(row, bases):
    data = row.seed(bases[row.base])
    verify = VERIFY[row.family]
    assert _error_ids(verify(data, False)) == row.shallow, "shallow"
    assert _error_ids(verify(data, True)) == row.deep, "deep"


def test_every_fault_is_caught_deep():
    for row in ROWS:
        assert row.seed is _unchanged or row.deep, row.name


def test_every_rule_of_a_covered_family_catches_some_fault():
    caught = set().union(*(row.deep for row in ROWS))
    for family in VERIFY:
        members = {rule.rule_id for rule in all_rules()
                   if rule.family == family}
        assert members <= caught, sorted(members - caught)
