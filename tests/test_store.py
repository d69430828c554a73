"""The binary TEA snapshot codec and the content-addressed store.

The acceptance bar for the ``TEAB`` format is *bit-exactness*: loading
a snapshot must rebuild an automaton with the same state ids, the same
transition lists and the same head registry as the one that was saved
— without re-running Algorithm 1 — and replaying through the loaded
automaton must produce the identical replay report.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.basic_block import BlockIndex
from repro.core import TeaProfile, build_tea
from repro.errors import SerializationError
from repro.pin import Pin, TeaReplayTool
from repro.store import (
    AutomatonStore,
    describe_snapshot,
    dump_tea_binary,
    load_tea_binary,
    peek_tea_binary,
    save_tea_binary,
    snapshot_key,
)
from repro.store.binary import (
    _Reader,
    load_tea_binary_file,
    unzigzag,
    write_svarint,
    write_uvarint,
    zigzag,
)
from repro.util import atomic_write, atomic_write_bytes
from tests.conftest import (
    CALL_LOOP_SOURCE,
    SIMPLE_LOOP_SOURCE,
    record_traces,
)
from tests.test_rule_matrix import reseal_table


def assert_same_automaton(original, rebuilt):
    """Equality state by state: ids, TBBs, transitions, heads."""
    assert rebuilt.n_states == original.n_states
    assert rebuilt.n_transitions == original.n_transitions
    for old, new in zip(original.states, rebuilt.states):
        assert new.sid == old.sid
        if old.tbb is None:
            assert new.tbb is None
        else:
            assert new.tbb.block.key == old.tbb.block.key
            assert (new.tbb.trace_id, new.tbb.index) == \
                (old.tbb.trace_id, old.tbb.index)
        assert {label: dest.sid for label, dest in new.transitions.items()} \
            == {label: dest.sid for label, dest in old.transitions.items()}
    assert {entry: head.sid for entry, head in rebuilt.heads.items()} \
        == {entry: head.sid for entry, head in original.heads.items()}


# ---------------------------------------------------------------------
# varint primitives
# ---------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 70))
@settings(max_examples=200, deadline=None)
def test_uvarint_round_trip(value):
    out = bytearray()
    write_uvarint(out, value)
    assert _Reader(bytes(out)).uvarint() == value


@given(st.integers(min_value=-2 ** 63, max_value=2 ** 63))
@settings(max_examples=200, deadline=None)
def test_svarint_round_trip(value):
    assert unzigzag(zigzag(value)) == value
    out = bytearray()
    write_svarint(out, value)
    assert unzigzag(_Reader(bytes(out)).uvarint()) == value


def test_uvarint_rejects_negative():
    with pytest.raises(SerializationError):
        write_uvarint(bytearray(), -1)


def test_reader_truncated_varint():
    with pytest.raises(SerializationError):
        _Reader(b"\x80\x80").uvarint()  # continuation bit never clears


# ---------------------------------------------------------------------
# binary codec round-trips
# ---------------------------------------------------------------------

def test_binary_round_trip_rebuilds_identical_automaton(
        nested_program, nested_traces):
    tea = build_tea(nested_traces)
    data = dump_tea_binary(nested_traces, tea=tea)
    rebuilt_set, rebuilt_tea, profile = load_tea_binary(
        data, BlockIndex(nested_program)
    )
    assert profile is None
    assert len(rebuilt_set) == len(nested_traces)
    assert rebuilt_set.n_tbbs == nested_traces.n_tbbs
    assert rebuilt_set.n_edges == nested_traces.n_edges
    assert rebuilt_set.kind == nested_traces.kind
    assert_same_automaton(tea, rebuilt_tea)


def test_binary_round_trip_preserves_profile(nested_program, nested_traces):
    profile = TeaProfile()
    tool = TeaReplayTool(trace_set=nested_traces, profile=profile)
    Pin(nested_program, tool=tool).run()

    data = dump_tea_binary(nested_traces, tea=tool.tea, profile=profile)
    _, rebuilt_tea, rebuilt_profile = load_tea_binary(
        data, BlockIndex(nested_program)
    )
    assert_same_automaton(tool.tea, rebuilt_tea)
    # Identical state numbering means counts compare sid-for-sid.  NTE
    # (sid 0) counts are intentionally not persisted — profile keys are
    # (trace, tbb) pairs, exactly as in the JSON format.
    expected = {
        sid: count for sid, count in profile.state_counts.items()
        if sid != 0 and count
    }
    assert dict(rebuilt_profile.state_counts) == expected
    assert dict(rebuilt_profile.trace_enters) == dict(profile.trace_enters)
    assert dict(rebuilt_profile.trace_exits) == dict(profile.trace_exits)
    assert dict(rebuilt_profile.trace_head_executions) == \
        dict(profile.trace_head_executions)


def test_binary_round_trip_replay_report_is_identical(
        nested_program, nested_traces):
    """The acceptance bar: a replay through the loaded automaton gives
    the same report as one through the in-memory automaton."""
    tea = build_tea(nested_traces)
    data = dump_tea_binary(nested_traces, tea=tea)
    rebuilt_set, rebuilt_tea, _ = load_tea_binary(
        data, BlockIndex(nested_program)
    )

    direct = TeaReplayTool(trace_set=nested_traces, tea=tea)
    direct_result = Pin(nested_program, tool=direct).run()
    loaded = TeaReplayTool(trace_set=rebuilt_set, tea=rebuilt_tea)
    loaded_result = Pin(nested_program, tool=loaded).run()

    assert loaded.stats.as_dict() == direct.stats.as_dict()
    assert loaded_result.cycles == direct_result.cycles
    assert loaded.coverage == direct.coverage


def test_binary_meta_round_trip(nested_program, nested_traces):
    meta = {"benchmark": "164.gzip", "scale": 0.5, "label": "x"}
    data = dump_tea_binary(nested_traces, meta=meta)
    *_, loaded_meta = load_tea_binary(
        data, BlockIndex(nested_program), with_meta=True
    )
    assert loaded_meta == meta
    # Without the flag, meta comes back as None.
    plain = dump_tea_binary(nested_traces)
    *_, no_meta = load_tea_binary(
        plain, BlockIndex(nested_program), with_meta=True
    )
    assert no_meta is None


def test_binary_encoding_is_deterministic(nested_traces):
    tea = build_tea(nested_traces)
    first = dump_tea_binary(nested_traces, tea=tea)
    second = dump_tea_binary(nested_traces, tea=tea)
    assert first == second
    assert snapshot_key(first) == snapshot_key(second)


def test_binary_smaller_than_json():
    # On a real recording: the v2 header and section table are a fixed
    # ~350 bytes, more than a toy program's whole JSON document.
    from repro.core.serialization import tea_to_json
    from repro.workloads import load_benchmark

    program = load_benchmark("164.gzip", scale=0.25).program
    trace_set = record_traces(program, hot_threshold=30).trace_set
    binary = dump_tea_binary(trace_set)
    text = json.dumps(tea_to_json(trace_set))
    assert len(binary) < len(text)


def test_peek_matches_load(nested_program, nested_traces):
    profile = TeaProfile()
    tool = TeaReplayTool(trace_set=nested_traces, profile=profile)
    Pin(nested_program, tool=tool).run()
    data = dump_tea_binary(
        nested_traces, tea=tool.tea, profile=profile, meta={"label": "peek"}
    )
    info = peek_tea_binary(data)
    assert info["format"] == "binary"
    assert info["traces"] == len(nested_traces)
    assert info["tbbs"] == nested_traces.n_tbbs
    assert info["edges"] == nested_traces.n_edges
    assert info["states"] == tool.tea.n_states
    assert info["transitions"] == tool.tea.n_transitions
    assert info["heads"] == tool.tea.n_traces
    assert info["profile"] is True
    assert info["meta"] == {"label": "peek"}
    assert info["bytes"] == len(data)


def test_file_round_trip_is_atomic_and_loadable(
        tmp_path, nested_program, nested_traces):
    path = tmp_path / "snap.teab"
    tea = build_tea(nested_traces)
    save_tea_binary(str(path), nested_traces, tea=tea)
    _, rebuilt_tea, _ = load_tea_binary_file(
        str(path), BlockIndex(nested_program)
    )
    assert_same_automaton(tea, rebuilt_tea)
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]


def test_load_missing_binary_file(tmp_path, nested_program):
    with pytest.raises(SerializationError):
        load_tea_binary_file(
            str(tmp_path / "absent.teab"), BlockIndex(nested_program)
        )


# ---------------------------------------------------------------------
# corruption detection
# ---------------------------------------------------------------------

def test_bad_magic_rejected(nested_traces):
    data = bytearray(dump_tea_binary(nested_traces))
    data[0] ^= 0xFF
    with pytest.raises(SerializationError, match="magic"):
        peek_tea_binary(bytes(data))


def test_bad_version_rejected(golden_snapshot):
    data = bytearray(golden_snapshot)
    data[4] = 99
    # Re-seal the table CRC so the version check itself is what fires.
    with pytest.raises(SerializationError,
                       match="version 99 .*python -m repro.service build"):
        peek_tea_binary(reseal_table(data))


@pytest.mark.parametrize("position", [17, 40, -5])
def test_bit_flip_fails_crc(golden_snapshot, position):
    # Byte 17 is in the stored table CRC, 40 in the section table, -5 in
    # the last section's payload (checked against its own CRC).
    data = bytearray(golden_snapshot)
    data[position] ^= 0x10
    with pytest.raises(SerializationError, match="CRC"):
        peek_tea_binary(bytes(data))


def test_truncation_rejected(nested_program, nested_traces):
    data = dump_tea_binary(nested_traces)
    for cut in (3, len(data) // 2, len(data) - 1):
        with pytest.raises(SerializationError):
            load_tea_binary(data[:cut], BlockIndex(nested_program))


def test_trailing_bytes_rejected(golden_snapshot, nested_program):
    padded = golden_snapshot + b"\x00\x00"
    with pytest.raises(SerializationError,
                       match="header names %d bytes but the snapshot is %d"
                       % (len(golden_snapshot), len(padded))):
        load_tea_binary(padded, BlockIndex(nested_program))


# ---------------------------------------------------------------------
# the content-addressed store
# ---------------------------------------------------------------------

def test_store_put_get_load_describe(tmp_path, nested_program, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    tea = build_tea(nested_traces)
    key = store.put(nested_traces, tea=tea, meta={"label": "nested"})
    assert key in store
    assert store.keys() == [key]
    assert len(store) == 1
    assert store.total_bytes() == len(store.get_bytes(key))

    _, rebuilt_tea, _ = store.load(key, BlockIndex(nested_program))
    assert_same_automaton(tea, rebuilt_tea)

    info = store.describe(key)
    assert info["key"] == key
    assert info["states"] == tea.n_states
    assert info["meta"] == {"label": "nested"}


def test_store_is_content_addressed(tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    tea = build_tea(nested_traces)
    key = store.put(nested_traces, tea=tea)
    again = store.put(nested_traces, tea=tea)
    assert again == key
    assert len(store) == 1
    assert key == snapshot_key(dump_tea_binary(nested_traces, tea=tea))
    # Sharded layout: <root>/<first two hex chars>/<key>.teab
    assert store.path_for(key).endswith("%s/%s.teab" % (key[:2], key))
    # The dedup shows in the traffic counters: two puts, one write.
    counters = store.obs.metrics.snapshot()["counters"]
    assert counters["store.puts"] == 2
    assert counters["store.bytes_written"] == store.total_bytes()


def test_store_distinct_snapshots_get_distinct_keys(tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    plain = store.put(nested_traces)
    labelled = store.put(nested_traces, meta={"label": "two"})
    assert plain != labelled
    assert len(store) == 2
    assert sorted(store.keys()) == sorted([plain, labelled])


def test_store_rejects_invalid_bytes(tmp_path):
    store = AutomatonStore(tmp_path / "store")
    with pytest.raises(SerializationError):
        store.put_bytes(b"not a snapshot at all")
    assert len(store) == 0


def test_store_unknown_key(tmp_path):
    store = AutomatonStore(tmp_path / "store")
    with pytest.raises(SerializationError):
        store.get_bytes("00" * 32)


def test_store_clear(tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    store.put(nested_traces)
    store.put(nested_traces, meta={"label": "b"})
    assert store.clear() == 2
    assert len(store) == 0
    assert store.keys() == []


# ---------------------------------------------------------------------
# describe_snapshot (format sniffing, backs `repro tools tea info`)
# ---------------------------------------------------------------------

def test_describe_snapshot_binary(tmp_path, nested_traces):
    path = tmp_path / "snap.teab"
    save_tea_binary(str(path), nested_traces)
    info = describe_snapshot(str(path))
    assert info["format"] == "binary"
    assert info["traces"] == len(nested_traces)


def test_describe_snapshot_json(tmp_path, nested_traces):
    from repro.core.serialization import save_tea

    path = tmp_path / "tea.json"
    save_tea(str(path), nested_traces)
    info = describe_snapshot(str(path))
    assert info["format"] == "json"
    assert info["traces"] == len(nested_traces)
    assert info["states"] == nested_traces.n_tbbs + 1
    assert info["profile"] is False


def test_describe_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x01\x02garbage")
    with pytest.raises(SerializationError):
        describe_snapshot(str(path))


# ---------------------------------------------------------------------
# the shared atomic-write discipline
# ---------------------------------------------------------------------

def test_atomic_write_replaces_on_success(tmp_path):
    path = tmp_path / "out.bin"
    atomic_write_bytes(str(path), b"first")
    atomic_write_bytes(str(path), b"second")
    assert path.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_atomic_write_failure_leaves_original_intact(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_bytes(str(path), b"original")
    with pytest.raises(RuntimeError):
        with atomic_write(str(path)) as handle:
            handle.write("partial")
            raise RuntimeError("crash mid-write")
    assert path.read_bytes() == b"original"
    # No temp-file litter either.
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    atomic_write_bytes(str(path), b"deep")
    assert path.read_bytes() == b"deep"


def test_atomic_write_rejects_read_mode(tmp_path):
    with pytest.raises(ValueError):
        with atomic_write(str(tmp_path / "x"), mode="r"):
            pass


# ---------------------------------------------------------------------
# property: binary round-trip across programs × strategies
# ---------------------------------------------------------------------

@given(
    st.sampled_from([SIMPLE_LOOP_SOURCE, CALL_LOOP_SOURCE]),
    st.sampled_from(["mret", "tt", "ctt"]),
    st.integers(min_value=2, max_value=40),
)
@settings(max_examples=15, deadline=None)
def test_binary_round_trip_property(source, strategy, threshold):
    from repro.isa import assemble

    program = assemble(source)
    trace_set = record_traces(
        program, strategy=strategy, hot_threshold=threshold
    ).trace_set
    tea = build_tea(trace_set)
    data = dump_tea_binary(trace_set, tea=tea)
    rebuilt_set, rebuilt_tea, _ = load_tea_binary(data, BlockIndex(program))
    assert rebuilt_set.n_tbbs == trace_set.n_tbbs
    assert rebuilt_set.n_edges == trace_set.n_edges
    assert_same_automaton(tea, rebuilt_tea)
    # Determinism closes the loop: re-encoding the rebuilt set gives
    # byte-identical output, so the content address is stable.
    assert dump_tea_binary(rebuilt_set, tea=rebuilt_tea) == data
