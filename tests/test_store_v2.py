"""The TEAB section format: zero-copy snapshots, shared mappings, the
refusal of any other version, and hot-reload.

The acceptance bar: the writer reproduces the golden snapshot byte for
byte, whatever is written decodes back to the content it was given, an
automaton lowered zero-copy off an ``mmap`` replays bit-exactly against
the decoded copy under every Table 4 configuration and both replay
walks, a file of another version is quarantined with a message saying
how to rebuild it, and a service hot-reload under concurrent clients
drops or corrupts nothing.  Seeded faults and the rules that catch them
are tests/test_rule_matrix.py's.
"""

import hashlib
import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.basic_block import BlockIndex
from repro.core import ReplayConfig, TeaProfile, build_tea
from repro.core.compiled import CompiledTea
from repro.errors import SerializationError, VerificationError
from repro.isa.assembler import assemble
from repro.pin import Pin, TeaReplayTool
from repro.store import (
    AutomatonStore,
    compile_tea_binary,
    dump_tea_binary,
    load_tea_binary,
    open_snapshot_mapping,
    peek_tea_binary,
    snapshot_key,
)
from repro.store.binary import (
    SEC_HEAD_ENTRIES,
    SEC_HEAD_SIDS,
    SEC_STATE_REFS,
    SEC_TRACES,
    SEC_TRANS_DEST,
    SEC_TRANS_LABELS,
    SEC_TRANS_OFFSET,
    _automaton_tables,
    int64_section,
    open_v2,
)
from repro.verify import verify_snapshot_bytes
from tests.conftest import (
    CALL_LOOP_SOURCE,
    NESTED_DIAMOND_SOURCE,
    SIMPLE_LOOP_SOURCE,
    record_traces,
)
from tests.test_rule_matrix import reseal_table
from tests.test_store import assert_same_automaton

CONFIGS = {
    "global_local": ReplayConfig.global_local,
    "global_no_local": ReplayConfig.global_no_local,
    "no_global_local": ReplayConfig.no_global_local,
    "no_global_no_local": ReplayConfig.no_global_no_local,
}
#: The replay walks: ``step()`` under a ``TeaProfile`` (the object
#: graph) and the compiled walk over the lowered tables.
WALKS = ("object", "compiled")

#: SHA-256 of ``tests/golden/mcf_mret.teab``.
GOLDEN_SHA256 = (
    "c3aedd9cd91fc0b73b3c44a059106b6ca02c3c468cca03a64598f4d84523bbff")


@pytest.fixture(scope="module")
def world(golden_snapshot, golden_snapshot_program):
    """The golden snapshot's program and bytes."""
    return golden_snapshot_program, golden_snapshot


# ---------------------------------------------------------------------
# the writer and the readers on the golden snapshot
# ---------------------------------------------------------------------

def test_dump_reproduces_the_golden_bytes(world):
    program, data = world
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
    loaded = load_tea_binary(data, BlockIndex(program), with_meta=True)
    _traces, _tea, profile, meta = loaded
    assert profile is None and meta["label"] == "golden"
    assert dump_tea_binary(*loaded) == data


def test_peek_reports_counts_and_sections(world):
    program, data = world
    traces, tea, _profile = load_tea_binary(data, BlockIndex(program))
    info = peek_tea_binary(data)
    assert info["version"] == 2 and info["bytes"] == len(data)
    assert (info["kind"], info["traces"], info["tbbs"], info["edges"]) == (
        traces.kind, len(traces.traces),
        sum(len(trace.tbbs) for trace in traces),
        sum(len(tbb.successors) for trace in traces for tbb in trace))
    assert (info["states"], info["transitions"], info["heads"]) == (
        tea.n_states, tea.n_transitions, len(tea.heads))
    assert info["profile"] is False and info["meta"]["label"] == "golden"
    names = [section["name"] for section in info["sections"]]
    assert names[0] == "summary" and "trans_offset" in names
    for section in info["sections"]:
        assert section["offset"] % 8 == 0


def test_load_v2_is_bit_exact(world):
    program, data = world
    _traces, tea, profile = load_tea_binary(data, BlockIndex(program))
    assert profile is None
    # The automaton is the one the int64 sections store.
    sections = open_v2(data)

    def table(sec_id):
        return list(int64_section(data, *sections[sec_id][:2]))

    assert _automaton_tables(tea) == (
        sections[SEC_TRANS_OFFSET][2] - 1, table(SEC_STATE_REFS),
        table(SEC_TRANS_OFFSET), table(SEC_TRANS_LABELS),
        table(SEC_TRANS_DEST), table(SEC_HEAD_ENTRIES),
        table(SEC_HEAD_SIDS))


def test_compiled_equals_the_lowered_automaton(world):
    program, data = world
    _traces, tea, _profile = load_tea_binary(data, BlockIndex(program))
    compiled = compile_tea_binary(data)
    lowered = CompiledTea.from_tea(tea)
    assert compiled.structurally_equal(lowered)
    assert list(compiled.trans_offset) == list(lowered.trans_offset)
    assert list(compiled.trans_labels) == list(lowered.trans_labels)
    assert list(compiled.trans_dest) == list(lowered.trans_dest)


def _same_traces(expected, actual):
    assert actual.kind == expected.kind
    assert [(t.trace_id, t.kind, t.anchor) for t in actual] == \
        [(t.trace_id, t.kind, t.anchor) for t in expected]
    for old, new in zip(expected, actual):
        assert [tbb.block.key for tbb in new] == \
            [tbb.block.key for tbb in old]
        assert [dict(tbb.successors) for tbb in new] == \
            [dict(tbb.successors) for tbb in old]


@given(
    source=st.sampled_from([NESTED_DIAMOND_SOURCE, SIMPLE_LOOP_SOURCE,
                            CALL_LOOP_SOURCE]),
    strategy=st.sampled_from(["mret", "tt", "ctt"]),
    threshold=st.integers(min_value=2, max_value=30),
    with_profile=st.booleans(),
    meta=st.none() | st.dictionaries(
        st.text(max_size=8), st.integers() | st.text(max_size=8),
        max_size=3),
)
@settings(max_examples=12, deadline=None)
def test_hypothesis_round_trip_is_bit_exact(source, strategy, threshold,
                                            with_profile, meta):
    """The decoded ``dump_tea_binary`` output is the content it was
    given: traces, automaton, profile and meta."""
    program = assemble(source)
    trace_set = record_traces(program, strategy=strategy,
                              hot_threshold=threshold).trace_set
    tea = build_tea(trace_set)
    profile = None
    if with_profile:
        profile = TeaProfile()
        tool = TeaReplayTool(trace_set=trace_set, profile=profile, tea=tea)
        Pin(program, tool=tool).run()
    data = dump_tea_binary(trace_set, tea=tea, profile=profile, meta=meta)
    assert peek_tea_binary(data)["version"] == 2
    assert verify_snapshot_bytes(data, program=program).ok()
    traces_2, tea_2, profile_2, meta_2 = load_tea_binary(
        data, BlockIndex(program), with_meta=True)
    _same_traces(trace_set, traces_2)
    assert_same_automaton(tea, tea_2)
    assert meta_2 == meta
    if profile is None:
        assert profile_2 is None
    else:
        # NTE and zero counts are not stored (profile keys are TBBs).
        assert dict(profile_2.state_counts) == {
            sid: count for sid, count in profile.state_counts.items()
            if sid and count}
        for name in ("trace_enters", "trace_exits",
                     "trace_head_executions"):
            assert dict(getattr(profile_2, name)) == \
                dict(getattr(profile, name)), name


# ---------------------------------------------------------------------
# replay equivalence: every Table 4 config, both walks, decoded vs mmap
# ---------------------------------------------------------------------

@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("walk", WALKS)
def test_replay_bit_exact_v1_vs_v2_mmap(world, tmp_path, config_name, walk):
    """A private decoded copy of the golden snapshot and a zero-copy
    ``mmap`` of the same file replay identically (the name is kept from
    when the copy was a v1 file's conversion)."""
    program, data = world
    block_index = BlockIndex(program)

    def replay(data, mapping=None):
        trace_set, tea, _ = load_tea_binary(data, block_index)
        compiled = (mapping.compiled() if mapping is not None
                    else compile_tea_binary(data, verify=False))
        tool = TeaReplayTool(
            trace_set=trace_set, config=CONFIGS[config_name](), tea=tea,
            profile=TeaProfile() if walk == "object" else None,
            compiled=compiled,
        )
        result = Pin(program, tool=tool).run()
        return tool.stats.as_dict(), result.cycles

    path = tmp_path / "w.teab"
    path.write_bytes(data)
    mapping = open_snapshot_mapping(path)
    try:
        stats_copy, cycles_copy = replay(bytes(data))
        stats_mapped, cycles_mapped = replay(mapping.data, mapping=mapping)
    finally:
        mapping.close()
    assert stats_mapped == stats_copy
    assert cycles_mapped == cycles_copy


# ---------------------------------------------------------------------
# the loader on damaged bytes
# ---------------------------------------------------------------------

def test_open_v2_raises_on_damage(world):
    _program, data = world
    bad = bytearray(data)
    bad[open_v2(data)[SEC_TRACES][0]] ^= 0xFF
    with pytest.raises(SerializationError, match="CRC"):
        open_v2(bytes(bad))


# ---------------------------------------------------------------------
# store: the one format, mapping reuse, another version refused, gc
# ---------------------------------------------------------------------

def test_store_writes_v2_and_maps_zero_copy(tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    tea = build_tea(nested_traces)
    key = store.put(nested_traces, tea=tea, meta={"label": "z"})
    assert store.get_bytes(key)[4] == 2
    first = store.map_compiled(key)
    second = store.map_compiled(key)
    assert second is first  # one shared mapping per process per file
    assert first.structurally_equal(store.get_compiled(key))
    counters = store.obs.metrics.snapshot()["counters"]
    assert counters["store.mmap_opened"] == 1


def test_another_version_is_quarantined_for_rebuild(world, tmp_path):
    """A TEAB file with another version byte (here 1) at a store path is
    never served: the server preload quarantines it, and the store's
    readers refuse it, each saying how to rebuild it."""
    from repro.service.server import ServiceConfig, TeaService

    program, data = world
    store = AutomatonStore(tmp_path / "store")
    good = store.put_bytes(data, program=program)
    old = bytearray(data)
    old[4] = 1
    old = reseal_table(old)
    key = snapshot_key(old)
    os.makedirs(os.path.dirname(store.path_for(key)), exist_ok=True)
    with open(store.path_for(key), "wb") as handle:
        handle.write(old)
    with pytest.raises(SerializationError, match="version 1"):
        store.put_bytes(old)
    rebuild = "rebuild it with 'python -m repro.service build'"
    for verify in (True, False):
        service = TeaService(store, ServiceConfig(verify=verify))
        service.preload()
        assert list(service.entries) == [good]
        assert rebuild in service.invalid[key]["error"]
        assert service.invalid[key]["rules"] == (["TEA020"] if verify
                                                 else [])
    for read in (store.get_compiled, store.map_compiled):
        with pytest.raises(VerificationError, match="TEA020") as excinfo:
            read(key)
        assert rebuild in str(excinfo.value)
    trusting = AutomatonStore(store.root, verify_on_load=False)
    for read in (trusting.get_compiled, trusting.map_compiled):
        with pytest.raises(SerializationError, match="rebuild it with"):
            read(key)


def test_store_gate_rejects_corrupted_v2(tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    tea = build_tea(nested_traces)
    key = store.put(nested_traces, tea=tea)
    path = store.path_for(key)
    data = bytearray(open(path, "rb").read())
    data[open_v2(bytes(data))[SEC_TRACES][0]] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(data)
    with pytest.raises(VerificationError, match="TEA025"):
        store.get_compiled(key)
    with pytest.raises(VerificationError, match="TEA025"):
        store.map_compiled(key)


def test_served_snapshot_is_opened_once(world, monkeypatch, tmp_path):
    """``load_entry`` decodes the section table (one CRC sweep) once
    after the verify gate; without the gate, damage is still refused."""
    from repro.isa.image import encode_image
    from repro.service.server import ServiceConfig, TeaService, load_entry
    from repro.store import binary

    program, data = world
    key = snapshot_key(data)
    image = encode_image(program, owner=key)
    opened = []
    real_open = binary.open_v2

    def counted_open(data, check_crc=True):
        opened.append(check_crc)
        return real_open(data, check_crc)

    monkeypatch.setattr(binary, "open_v2", counted_open)
    verify_snapshot_bytes(data, deep=False)
    gate = len(opened)
    opened.clear()
    entry = load_entry(key, data, image)
    assert opened == [True] * (gate + 1)
    opened.clear()
    unverified = load_entry(key, data, image, verify=False)
    assert opened == [True]
    monkeypatch.undo()

    traces, tea, profile, meta = load_tea_binary(
        data, BlockIndex(program), with_meta=True)
    for loaded in (entry, unverified):
        assert loaded.meta == meta and loaded.profile is profile is None
        assert_same_automaton(loaded.tea, tea)
        assert loaded.compiled.structurally_equal(compile_tea_binary(data))

    store = AutomatonStore(tmp_path / "store")
    damaged_key = store.put(traces, tea=tea, meta=meta, program=program)
    path = store.path_for(damaged_key)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[open_v2(bytes(data))[SEC_TRACES][0]] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(data)
    service = TeaService(store, ServiceConfig(verify=False))
    service.preload()
    assert service.entries == {}
    assert "CRC" in service.invalid[damaged_key]["error"]


def test_gc_prunes_superseded_snapshots_and_counts(tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    tea = build_tea(nested_traces)
    key_a = store.put(nested_traces, tea=tea, meta={"label": "x"})
    key_b = store.put(nested_traces, tea=tea,
                      meta={"label": "x", "supersedes": key_a})
    key_c = store.put(nested_traces, tea=tea,
                      meta={"label": "x", "supersedes": [key_a, key_b]})
    removed = store.gc()
    assert removed == 2
    assert key_a not in store and key_b not in store and key_c in store
    counters = store.obs.metrics.snapshot()["counters"]
    assert counters["store.gc_removed"] == 2
    # Idempotent: a second pass finds nothing.
    assert store.gc() == 0


# ---------------------------------------------------------------------
# service hot-reload under concurrent clients
# ---------------------------------------------------------------------

def test_hot_reload_drops_nothing_under_concurrency(tmp_path):
    from repro.dbt import StarDBT
    from repro.service.client import ServiceClient
    from repro.service.testing import ServiceThread
    from repro.traces.recorder import RecorderLimits
    from repro.workloads import load_benchmark

    benchmark, scale = "164.gzip", 0.3
    program = load_benchmark(benchmark, scale=scale).program

    def snapshot_bytes(threshold, supersedes=None):
        recorded = StarDBT(
            program, limits=RecorderLimits(hot_threshold=threshold)
        ).run()
        trace_set = recorded.trace_set
        meta = {"benchmark": benchmark, "scale": scale, "label": "hot"}
        if supersedes:
            meta["supersedes"] = supersedes
        return dump_tea_binary(trace_set, tea=build_tea(trace_set),
                               meta=meta)

    store = AutomatonStore(tmp_path / "store")
    key_old = store.put_bytes(snapshot_bytes(10), program=program)
    replies = []
    errors = []
    with ServiceThread(store) as service:
        host, port = service.address

        def client_loop():
            try:
                with ServiceClient(host, port, timeout=60.0) as client:
                    for _ in range(3):
                        replies.append(client.call("replay", snapshot="hot"))
            except Exception as error:  # noqa: BLE001 — collected below
                errors.append(error)

        threads = [threading.Thread(target=client_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        key_new = store.put_bytes(snapshot_bytes(5, supersedes=key_old),
                                  program=program)
        with ServiceClient(host, port, timeout=60.0) as admin:
            out = admin.call("reload")
            assert out["loaded"] == [key_new]
            assert out["retired"] == [key_old]
        for thread in threads:
            thread.join()
        assert not errors, errors
        # Zero dropped, zero wrong: every reply served one of the two
        # snapshot generations, and both generations replayed fully.
        assert len(replies) == 12
        assert {reply["snapshot"] for reply in replies} <= {key_old, key_new}
        for reply in replies:
            assert reply["stats"]["total_pin"] > 0
        with ServiceClient(host, port, timeout=60.0) as client:
            after = client.call("replay", snapshot="hot")
        assert after["snapshot"] == key_new
        # The retired entry's mapping is released once it drains.
        assert key_old not in service.service.entries
