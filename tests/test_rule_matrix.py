"""The rule x seeded-fault matrix.

Each row seeds one realistic fault into a known-good artifact and pins
the exact set of rule ids that verification reports as errors or
warnings.  A rule earns its place in the catalog by being the only
rule that catches some row; a fault that nothing catches shows up as a
row whose deep set is empty.

Rows are grouped by the rule family they were written for.  A row
names a *base*: how to make a fresh known-good artifact and which
entry point verifies it (the ``bases`` fixture).  Snapshot bases are
verified at two depths, shallow (the load-path gate) and deep; every
other base has one depth, and its rows leave ``shallow`` as ``None``.

- ``v2``: a TEAB snapshot with meta and a profile, written by
  ``dump_tea_binary`` from the golden snapshot's content (181.mcf at
  scale 0.4, MRET) and a recorded profile.  Most faults rewrite one
  section and re-pack the file, so every CRC and the layout are sound
  and only the seeded damage shows.
- ``rewritten``: the v2 snapshot's decoded content, edited and dumped
  again, verified with its program (so deep runs decode it fully).
- ``built``: the decoded automaton, trace set and program, verified as
  the harness preflight does (``verify_tea``).
- ``tables`` / ``lowered``: the automaton's compiled tables, adopted
  as a mapped snapshot's are, verified on their own or against their
  source automaton (``verify_compiled``).
- ``traces``: the decoded trace set and its program, verified as a
  trace file is (``verify_trace_set``).
- ``image`` / ``stream``: the program's ``TEAP`` image and ``TEAS``
  execution stream (rule TEA027).
"""

import struct
import zlib
from array import array
from collections import namedtuple

import pytest

from repro.cfg.basic_block import BlockIndex
from repro.core import TeaProfile
from repro.core.automaton import TeaState
from repro.core.compiled import CompiledTea
from repro.cpu.stream import ExecutionStream
from repro.isa.image import encode_image
from repro.isa.program import Program
from repro.pin import Pin, TeaReplayTool
from repro.store import dump_tea_binary, load_tea_binary
from repro.store.binary import (
    _ENTRY,
    ENTRY_SIZE,
    HEADER_SIZE,
    INT64_SECTIONS,
    SEC_HEAD_ENTRIES,
    SEC_HEAD_SIDS,
    SEC_LABEL_POOL,
    SEC_META,
    SEC_PROFILE,
    SEC_STATE_REFS,
    SEC_SUMMARY,
    SEC_TRACES,
    SEC_TRANS_DEST,
    SEC_TRANS_LABELS,
    SEC_TRANS_OFFSET,
    _int64_bytes,
    _pack_v2,
    _Reader,
    int64_section,
    open_v2,
    write_uvarint,
)
from repro.traces.model import TBB
from repro.verify import (
    ERROR,
    WARNING,
    all_rules,
    verify_compiled,
    verify_image_bytes,
    verify_snapshot_bytes,
    verify_stream_bytes,
    verify_tea,
    verify_trace_set,
)

Row = namedtuple("Row", "family name base seed shallow deep")


# ---------------------------------------------------------------------
# v2 seeders
# ---------------------------------------------------------------------

def _repack(data, edits):
    """Re-pack v2 ``data`` with each section ``sec_id`` of ``edits``
    (``{sec_id: edit}``) holding ``edit(payload)`` in place of its
    payload; every CRC and offset is recomputed."""
    sections = []
    for sid, (offset, length, count) in sorted(open_v2(data).items()):
        payload = bytes(data[offset:offset + length])
        if sid in edits:
            payload = edits[sid](payload)
            if sid in INT64_SECTIONS:
                count = len(payload) // 8
        sections.append((sid, payload, count))
    return _pack_v2(sections)


def _int64s(payload):
    return list(int64_section(payload, 0, len(payload)))


def reseal_table(buffer):
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
    return reseal_table(bad)


def overlapping_sections(data):
    bad = bytearray(data)
    first = _ENTRY.unpack_from(bad, HEADER_SIZE)
    entry = list(_ENTRY.unpack_from(bad, HEADER_SIZE + ENTRY_SIZE))
    entry[2] = first[2]    # the second section starts on the first
    _ENTRY.pack_into(bad, HEADER_SIZE + ENTRY_SIZE, *entry)
    return reseal_table(bad)


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

    return _repack(data, {SEC_SUMMARY: edit})


def state_ref_to_missing_tbb(data):
    def edit(payload):
        refs = _int64s(payload)
        refs[-1] = 999     # the last state's TBB index
        return _int64_bytes(refs)

    return _repack(data, {SEC_STATE_REFS: edit})


def two_states_share_a_tbb(data):
    def edit(payload):
        refs = _int64s(payload)
        refs[2:4] = refs[0:2]   # state 2 names state 1's TBB
        return _int64_bytes(refs)

    return _repack(data, {SEC_STATE_REFS: edit})


def traces_truncated(data):
    return _repack(data, {SEC_TRACES: lambda payload: payload[:-3]})


def traces_overlong_varint(data):
    # Byte 0 of the traces blob is the trace-set kind's length, a
    # one-byte varint; (value | 0x80, 0x00) decodes to the same value.
    def edit(payload):
        assert payload[0] < 0x80
        return bytes([payload[0] | 0x80, 0x00]) + payload[1:]

    return _repack(data, {SEC_TRACES: edit})


def label_pool_missing_a_label(data):
    def edit(payload):
        pool = _int64s(payload)
        del pool[len(pool) // 2]
        return _int64_bytes(pool)

    return _repack(data, {SEC_LABEL_POOL: edit})


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

    return _repack(data, {SEC_PROFILE: edit})


def meta_not_json(data):
    return _repack(data, {SEC_META: lambda payload: b"{not json"})


def _tables(data, *sec_ids):
    """The int64 sections ``sec_ids`` of ``data``, as lists."""
    sections = open_v2(data)
    return [_int64s(data[sections[sec_id][0]:
                         sections[sec_id][0] + sections[sec_id][1]])
            for sec_id in sec_ids]


def _replaced(data, tables):
    """``data`` with each int64 section of ``{sec_id: values}`` holding
    ``values`` (see :func:`_repack`)."""
    return _repack(data, {
        sec_id: lambda _payload, values=values: _int64_bytes(values)
        for sec_id, values in tables.items()})


def transition_labels_unsorted(data):
    """Give the first state with a transition a second one on a label one
    below its first: its run is no longer sorted by label."""
    offsets, labels, dests, pool = _tables(
        data, SEC_TRANS_OFFSET, SEC_TRANS_LABELS, SEC_TRANS_DEST,
        SEC_LABEL_POOL)
    sid = next(sid for sid in range(len(offsets) - 1)
               if offsets[sid + 1] > offsets[sid])
    at = offsets[sid] + 1
    labels.insert(at, labels[at - 1] - 1)
    dests.insert(at, dests[at - 1])
    offsets[sid + 1:] = [offset + 1 for offset in offsets[sid + 1:]]
    return _replaced(data, {
        SEC_TRANS_OFFSET: offsets, SEC_TRANS_LABELS: labels,
        SEC_TRANS_DEST: dests, SEC_LABEL_POOL: sorted({*pool, labels[at]}),
    })


def head_entries_unsorted(data):
    """Swap the first two heads of the registry (entries and states)."""
    entries, sids = _tables(data, SEC_HEAD_ENTRIES, SEC_HEAD_SIDS)
    entries[0:2] = entries[1], entries[0]
    sids[0:2] = sids[1], sids[0]
    return _replaced(data, {SEC_HEAD_ENTRIES: entries, SEC_HEAD_SIDS: sids})



# ---------------------------------------------------------------------
# decoded-content seeders: the golden snapshot's trace set, automaton
# and profile, damaged where a builder, lowering or recorder bug would
# damage them
# ---------------------------------------------------------------------

World = namedtuple("World", "program trace_set tea profile meta")


def _trace(world, trace_id):
    return next(trace for trace in world.trace_set
                if trace.trace_id == trace_id)


def _state(world, trace_id, index):
    return world.tea.state_for(_trace(world, trace_id).tbbs[index])


def _entry(world, trace_id):
    return _trace(world, trace_id).tbbs[0].block.start


def _built(world):
    return world


def orphaned_state(world):
    # T3's only TBB gets a second state that nothing enters.
    tea = world.tea
    tea.states.append(TeaState(len(tea.states), _state(world, 3, 0).tbb))
    return world


def transition_dropped(world):
    # T8 loses its only in-trace edge, stranding its second TBB.
    _state(world, 8, 0).transitions.clear()
    return world


def nte_transition(world):
    # NTE gets an explicit edge that duplicates T1's head registration.
    world.tea.nte.transitions[_entry(world, 1)] = _state(world, 1, 0)
    return world


def head_to_nte(world):
    world.tea.heads[_entry(world, 3)] = world.tea.nte
    return world


def head_lost(world):
    del world.tea.heads[_entry(world, 3)]
    return world


def head_at_inner_block(world):
    # A head registered at T1's third block, which starts no trace.
    state = _state(world, 1, 2)
    world.tea.heads[state.tbb.block.start] = state
    return world


def heads_swapped(world):
    heads = world.tea.heads
    first, second = _entry(world, 3), _entry(world, 9)
    heads[first], heads[second] = heads[second], heads[first]
    return world


def orphan_with_transitions(world):
    # A second copy of T1's last state, back-edge included, that
    # nothing enters: its transition can never fire.
    tea = world.tea
    original = _state(world, 1, 3)
    copy = TeaState(len(tea.states), original.tbb)
    copy.transitions.update(original.transitions)
    tea.states.append(copy)
    return world


def nte_edge_to_stranded_state(world):
    # T8's second TBB is wired from NTE instead of from T8's head.
    head, inner = _state(world, 8, 0), _state(world, 8, 1)
    head.transitions.clear()
    world.tea.nte.transitions[inner.tbb.block.start] = inner
    return world


def _lowered(world, edit=None):
    """``(compiled, tea)``: the automaton's lowering, with ``edit``
    applied to a copy of its tables.  The tables are adopted as a
    mapped snapshot's are: constructor gate skipped, label pool taken
    as stored."""
    compiled = CompiledTea.from_tea(world.tea)
    tables = {
        "tbb_flag": bytearray(compiled.tbb_flag),
        "trans_offset": list(compiled.trans_offset),
        "trans_labels": list(compiled.trans_labels),
        "trans_dest": list(compiled.trans_dest),
        "head_entries": list(compiled.head_entries),
        "head_sids": list(compiled.head_sids),
    }
    if edit is not None:
        edit(world, tables)
    damaged = CompiledTea.from_buffers(
        compiled.n_states, bytes(tables.pop("tbb_flag")),
        *(array("q", tables[name]) for name in (
            "trans_offset", "trans_labels", "trans_dest",
            "head_entries", "head_sids")),
        labels=compiled.labels, validate=False,
    )
    return damaged, world.tea


def _position(world, tables, trace_id, index):
    """Index of the first transition of one state in the CSR tables."""
    return tables["trans_offset"][_state(world, trace_id, index).sid]


def dangling_destination(world, tables):
    tables["trans_dest"][0] = len(tables["tbb_flag"])


def duplicate_label(world, tables):
    # T1's head repeats its only transition label.
    sid = _state(world, 1, 0).sid
    at = tables["trans_offset"][sid]
    tables["trans_labels"].insert(at, tables["trans_labels"][at])
    tables["trans_dest"].insert(at, tables["trans_dest"][at])
    for position in range(sid + 1, len(tables["trans_offset"])):
        tables["trans_offset"][position] += 1


def retargeted_transition(world, tables):
    # T1's back-edge lands on T2's head: every state stays reachable.
    at = _position(world, tables, 1, 3)
    tables["trans_dest"][at] = _state(world, 2, 0).sid


def offsets_decreasing(world, tables):
    # The run boundaries around T1's second state are swapped.
    sid = _state(world, 1, 1).sid
    offsets = tables["trans_offset"]
    offsets[sid], offsets[sid + 1] = offsets[sid + 1], offsets[sid]


def nte_flagged_in_trace(world, tables):
    tables["tbb_flag"][0] = 1


def duplicate_head_entry(world, tables):
    entries = tables["head_entries"]
    entries[1] = entries[0]


def _traces(world):
    return world.trace_set, world.program


def edge_to_wrong_block(world):
    # T1's jmp block is recorded as reaching T3's block, which the jmp
    # cannot reach; labels and successor starts still agree.
    trace = _trace(world, 1)
    target = _trace(world, 3).tbbs[0].block
    trace.tbbs[3].block = target
    trace.tbbs[2].successors = {target.start: 3}
    return _traces(world)


def side_exit_into_a_hole(world):
    # The image lost the instruction three side exits land on.
    hole = 0x804809e
    program = world.program
    assert not any(tbb.block.start == hole
                   for trace in world.trace_set for tbb in trace)
    holed = Program([instr for instr in program.instructions
                     if instr.addr != hole],
                    program.labels, program.entry, base=program.base,
                    data=program.data)
    return world.trace_set, holed


def trace_past_hlt(world):
    # The recorder kept going after the machine halted.
    trace = _trace(world, 1)
    halt = TBB(1, len(trace.tbbs),
               BlockIndex(world.program).block_from(0x8048014))
    halt.successors[_entry(world, 1)] = 0
    trace.tbbs.append(halt)
    return _traces(world)


def empty_trace(world):
    _trace(world, 3).tbbs.clear()
    return _traces(world)


def tbb_index_mismatch(world):
    _trace(world, 1).tbbs[1].index = 7
    return _traces(world)


def dangling_edge(world):
    tbb = _trace(world, 1).tbbs[3]
    tbb.successors = {label: 9 for label in tbb.successors}
    return _traces(world)


def label_mismatch(world):
    # T1's head edge is labelled with its (feasible) side-exit target.
    tbb = _trace(world, 1).tbbs[0]
    tbb.successors = {tbb.exit_labels()[0]: 1}
    return _traces(world)


def trace_recorded_twice(world):
    world.trace_set.traces.append(_trace(world, 3))
    return _traces(world)


def _rewritten(world, meta=None):
    """The decoded content re-dumped as a v2 snapshot."""
    return dump_tea_binary(world.trace_set, tea=world.tea,
                           profile=world.profile,
                           meta=world.meta if meta is None else meta)


def minimize_provenance_meta(world):
    # Stores written while the minimizer existed hold snapshots whose
    # meta names the snapshot they were minimized from.
    return _rewritten(world, dict(
        world.meta, minimized_from="a" * 64,
        minimize={"mode": "exact", "budget": None,
                  "states_before": world.tea.n_states + 5,
                  "states_after": world.tea.n_states}))


def profiled_state_stranded(world):
    # T1 loses the edge into its second TBB, which the profile counts.
    stranded = _state(world, 1, 1)
    assert world.profile.state_counts.get(stranded.sid)
    _state(world, 1, 0).transitions.clear()
    return _rewritten(world)


def _image(world):
    key = "b" * 64
    return encode_image(world.program, owner=key), key


def image_flipped_byte(pair):
    data, key = pair
    bad = bytearray(data)
    bad[len(bad) // 2] ^= 0xFF
    return bytes(bad), key


def image_filed_under_another_key(pair):
    data, _key = pair
    return data, "c" * 64


def _stream(world):
    stream = ExecutionStream.record(world.program)
    return stream.to_bytes(), stream.key, world.program.content_digest()


def stream_flipped_byte(triple):
    data, key, digest = triple
    bad = bytearray(data)
    bad[len(bad) // 2] ^= 0xFF
    return bytes(bad), key, digest


def stream_of_another_program(triple):
    data, key, _digest = triple
    return data, key, "d" * 64


# ---------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------

def _unchanged(artifact):
    return artifact


def _ids(*rule_ids):
    return frozenset(rule_ids)


NONE = _ids()

#: Snapshot rows verify at two depths: shallow (the load-path gate)
#: and deep.  Every other base is verified once; its ``shallow`` is
#: ``None``.
SNAPSHOT_ROWS = [
    Row("snapshot", "v2-clean", "v2", _unchanged, NONE, NONE),
    Row("snapshot", "v2-stale-version", "v2", stale_version,
        _ids("TEA020"), _ids("TEA020")),
    Row("snapshot", "v2-misaligned-section", "v2", misaligned_section,
        _ids("TEA024"), _ids("TEA024")),
    Row("snapshot", "v2-overlapping-sections", "v2", overlapping_sections,
        _ids("TEA024"), _ids("TEA024")),
    Row("snapshot", "v2-section-crc", "v2", flipped_traces_byte,
        _ids("TEA025"), _ids("TEA025")),
    # The next four were caught by nothing but the deleted container
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
    Row("snapshot", "v2-transition-labels-unsorted", "v2",
        transition_labels_unsorted, _ids("TEA024"), _ids("TEA024")),
    Row("snapshot", "v2-head-entries-unsorted", "v2", head_entries_unsorted,
        _ids("TEA024"), _ids("TEA024")),
    Row("snapshot", "minimize-provenance-meta-clean", "rewritten",
        minimize_provenance_meta, NONE, NONE),
]

ROWS = SNAPSHOT_ROWS + [
    # automaton: a builder bug, checked as the harness preflight does
    Row("automaton", "built-clean", "built", _built, None, NONE),
    # a state created for a TBB that already has one
    Row("automaton", "orphaned-state", "built", orphaned_state, None,
        _ids("TEA003")),
    # an in-trace edge lost, stranding the state behind it
    Row("automaton", "transition-dropped", "built", transition_dropped,
        None, _ids("TEA003")),
    # NTE edges written instead of (or besides) head registrations
    Row("automaton", "nte-transition", "built", nte_transition, None,
        _ids("TEA004")),
    # a head registered on NTE itself
    Row("automaton", "head-to-nte", "built", head_to_nte, None,
        _ids("TEA003", "TEA004", "TEA005")),
    # a recorded trace whose head registration was lost
    Row("automaton", "head-lost", "built", head_lost, None,
        _ids("TEA003", "TEA005")),
    # a head at an address where no recorded trace starts
    Row("automaton", "head-at-inner-block", "built", head_at_inner_block,
        None, _ids("TEA005")),
    # two heads registered on each other's traces
    Row("automaton", "heads-swapped", "built", heads_swapped, None,
        _ids("TEA005")),
    # compiled: tables checked on their own, as after a mapped load
    Row("compiled", "tables-clean", "tables", _lowered, None, NONE),
    # two adjacent run offsets swapped
    Row("compiled", "offsets-decreasing", "tables",
        lambda world: _lowered(world, offsets_decreasing), None,
        _ids("TEA030")),
    # one state's transition run repeats a label
    Row("compiled", "duplicate-label", "tables",
        lambda world: _lowered(world, duplicate_label), None,
        _ids("TEA030")),
    # a transition into a state past the end of the table
    Row("compiled", "dangling-destination", "tables",
        lambda world: _lowered(world, dangling_destination), None,
        _ids("TEA003", "TEA030")),
    # NTE's in-trace flag set
    Row("compiled", "nte-flagged-in-trace", "tables",
        lambda world: _lowered(world, nte_flagged_in_trace), None,
        _ids("TEA004", "TEA030")),
    # compiled: a lowering bug, checked against its source automaton
    Row("compiled", "lowered-clean", "lowered", _lowered, None, NONE),
    # a transition retargeted to another (reachable) state
    Row("compiled", "retargeted-transition", "lowered",
        lambda world: _lowered(world, retargeted_transition), None,
        _ids("TEA032")),
    # a transition into a state past the end of the table
    Row("compiled", "lowered-dangling-destination", "lowered",
        lambda world: _lowered(world, dangling_destination), None,
        _ids("TEA003", "TEA030", "TEA032")),
    # cfg: a recorder or image bug, checked as a trace file is
    Row("cfg", "traces-clean", "traces", _traces, None, NONE),
    # an in-trace edge the terminator cannot take
    Row("cfg", "edge-to-wrong-block", "traces", edge_to_wrong_block, None,
        _ids("TEA010")),
    # side exits into an address the image holds no code at
    Row("cfg", "side-exit-into-a-hole", "traces", side_exit_into_a_hole,
        None, _ids("TEA011")),
    # a trace that continues past hlt
    Row("cfg", "trace-past-hlt", "traces", trace_past_hlt, None,
        _ids("TEA010")),
    # traces: structural recorder bugs
    Row("traces", "empty-trace", "traces", empty_trace, None,
        _ids("TEA040")),
    Row("traces", "tbb-index-mismatch", "traces", tbb_index_mismatch, None,
        _ids("TEA040")),
    Row("traces", "dangling-edge", "traces", dangling_edge, None,
        _ids("TEA041")),
    # an edge labelled with the wrong (but feasible) successor PC
    Row("traces", "label-mismatch", "traces", label_mismatch, None,
        _ids("TEA042")),
    Row("traces", "trace-recorded-twice", "traces", trace_recorded_twice,
        None, _ids("TEA043")),
    # stream: damaged or misfiled sidecars
    Row("stream", "image-clean", "image", _unchanged, None, NONE),
    Row("stream", "image-flipped-byte", "image", image_flipped_byte, None,
        _ids("TEA027")),
    Row("stream", "image-filed-under-another-key", "image",
        image_filed_under_another_key, None, _ids("TEA027")),
    Row("stream", "stream-clean", "stream", _unchanged, None, NONE),
    Row("stream", "stream-flipped-byte", "stream", stream_flipped_byte,
        None, _ids("TEA027")),
    Row("stream", "stream-of-another-program", "stream",
        stream_of_another_program, None, _ids("TEA027")),
    # dataflow: rows written for the deleted TEA060-TEA062, which never
    # caught one of them alone
    # a stranded state whose own transitions can never fire
    Row("dataflow", "dead-transition", "built", orphan_with_transitions,
        None, _ids("TEA003")),
    # a state reachable only through an NTE edge
    Row("dataflow", "head-dead-state", "built",
        nte_edge_to_stranded_state, None, _ids("TEA004")),
    # a profile that counts a state the automaton can no longer reach
    Row("dataflow", "profiled-state-stranded", "rewritten",
        profiled_state_stranded, NONE, _ids("TEA003")),
    # two heads on one entry PC
    Row("dataflow", "duplicate-head-entry", "tables",
        lambda world: _lowered(world, duplicate_head_entry), None,
        _ids("TEA030")),
]

Base = namedtuple("Base", "make verify")


@pytest.fixture(scope="module")
def bases(golden_snapshot, golden_snapshot_program):
    """The known-good artifacts the rows seed faults into, by name:
    how to make a fresh one, and how to verify it."""
    program = golden_snapshot_program
    trace_set, tea, _profile, meta = load_tea_binary(
        golden_snapshot, BlockIndex(program), with_meta=True)
    profile = TeaProfile()
    tool = TeaReplayTool(trace_set=trace_set, profile=profile, tea=tea)
    Pin(program, tool=tool).run()
    v2 = dump_tea_binary(trace_set, tea=tea, profile=profile, meta=meta)

    def world():
        trace_set, tea, profile, meta = load_tea_binary(
            v2, BlockIndex(program), with_meta=True)
        return World(program, trace_set, tea, profile, meta)

    def snapshot(data, deep):
        return verify_snapshot_bytes(data, deep=deep)

    return {
        "v2": Base(lambda: v2, snapshot),
        "rewritten": Base(world, lambda data, deep: verify_snapshot_bytes(
            data, program=program, deep=deep)),
        "built": Base(world, lambda world, _deep: verify_tea(
            world.tea, trace_set=world.trace_set, program=world.program)),
        "tables": Base(world, lambda pair, _deep: verify_compiled(
            pair[0])),
        "lowered": Base(world, lambda pair, _deep: verify_compiled(
            pair[0], tea=pair[1])),
        "traces": Base(world, lambda pair, _deep: verify_trace_set(
            pair[0], program=pair[1])),
        "image": Base(lambda: _image(world()),
                      lambda pair, _deep: verify_image_bytes(
                          pair[0], key=pair[1])),
        "stream": Base(lambda: _stream(world()),
                       lambda triple, _deep: verify_stream_bytes(
                           triple[0], key=triple[1],
                           program_digest=triple[2])),
    }


def _finding_ids(report):
    """Rule ids of the blocking-or-warning findings (TEA003 is a
    warning)."""
    return frozenset(diag.rule_id for diag in report.diagnostics
                     if diag.severity in (ERROR, WARNING))


def _caught(row, bases):
    """``{depth: rule ids}`` for one row."""
    base = bases[row.base]
    artifact = row.seed(base.make())
    caught = {"deep": _finding_ids(base.verify(artifact, True))}
    if row.shallow is not None:
        caught["shallow"] = _finding_ids(base.verify(artifact, False))
    return caught


@pytest.mark.parametrize("row", ROWS,
                         ids=["%s-%s" % (row.family, row.name)
                              for row in ROWS])
def test_fault_trips_exactly_its_rules(row, bases):
    caught = _caught(row, bases)
    assert caught["deep"] == row.deep, "deep"
    if row.shallow is not None:
        assert caught["shallow"] == row.shallow, "shallow"


def test_every_fault_is_caught_deep():
    for row in ROWS:
        assert row.name.endswith("-clean") or row.deep, row.name


def test_every_rule_of_a_covered_family_catches_some_fault():
    caught = set().union(*(row.deep for row in ROWS))
    for family in {rule.family for rule in all_rules()}:
        members = {rule.rule_id for rule in all_rules()
                   if rule.family == family}
        assert members <= caught, sorted(members - caught)


def test_every_rule_is_the_sole_catcher_of_some_row():
    # A rule that only ever fires next to another one guards nothing
    # the other does not.
    sole = set()
    for row in ROWS:
        for caught in (row.shallow, row.deep):
            if caught is not None and len(caught) == 1:
                sole |= caught
    registered = {rule.rule_id for rule in all_rules()}
    assert registered <= sole, sorted(registered - sole)
