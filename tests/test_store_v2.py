"""The TEAB v2 section format: zero-copy snapshots, shared mappings,
the one-way v1 migration, and hot-reload.

v2 is the only format written; v1 is read through
:func:`~repro.store.convert_v1_to_v2`.  The acceptance bar: the writer
produces exactly the conversion of the golden v1 snapshot, whatever
is written decodes back to the content it was given, an automaton
lowered zero-copy off an ``mmap`` replays bit-exactly against the v1
decode under every Table 4 configuration and both replay walks, ``migrate``
is one-way and refuses a lossy conversion, and a service hot-reload
under concurrent clients drops or corrupts nothing.  Seeded faults and
the rules that catch them are tests/test_rule_matrix.py's.
"""

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
    convert_v1_to_v2,
    dump_tea_binary,
    load_tea_binary,
    open_snapshot_mapping,
    peek_tea_binary,
    snapshot_key,
    snapshot_version,
)
from repro.store.binary import _automaton_tables
from repro.store.binary_v2 import SEC_TRACES, open_v2, v1_parts
from repro.verify import verify_snapshot_bytes
from tests.conftest import (
    CALL_LOOP_SOURCE,
    NESTED_DIAMOND_SOURCE,
    SIMPLE_LOOP_SOURCE,
    record_traces,
)
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


@pytest.fixture(scope="module")
def world(golden_v1, golden_v1_program):
    """The golden v1 snapshot, its program, and its v2 conversion."""
    return golden_v1_program, golden_v1, convert_v1_to_v2(golden_v1)


# ---------------------------------------------------------------------
# the writer, and v1 read through the converter
# ---------------------------------------------------------------------

def test_dump_v2_is_the_converted_v1(world):
    program, v1, v2 = world
    traces, tea, profile, meta = load_tea_binary(
        v1, BlockIndex(program), with_meta=True)
    assert profile is None and meta["label"] == "golden"
    assert dump_tea_binary(traces, tea=tea, meta=meta) == v2
    assert snapshot_version(v2) == 2


def test_peek_v2_matches_v1_and_adds_sections(world):
    _program, v1, v2 = world
    info_v1 = peek_tea_binary(v1)
    info_v2 = peek_tea_binary(v2)
    for field in ("kind", "traces", "tbbs", "edges", "states",
                  "transitions", "heads", "profile", "meta"):
        assert info_v2[field] == info_v1[field], field
    # peek reports the file's own version and size.
    assert (info_v1["version"], info_v1["bytes"]) == (1, len(v1))
    assert "sections" not in info_v1
    assert info_v2["version"] == 2
    names = [section["name"] for section in info_v2["sections"]]
    assert names[0] == "summary" and "trans_offset" in names
    for section in info_v2["sections"]:
        assert section["offset"] % 8 == 0


def test_load_v2_is_bit_exact(world):
    program, v1, v2 = world
    index = BlockIndex(program)
    traces_1, tea_1, profile_1 = load_tea_binary(v1, index)
    traces_2, tea_2, profile_2 = load_tea_binary(v2, index)
    assert_same_automaton(tea_1, tea_2)
    assert [t.trace_id for t in traces_2] == [t.trace_id for t in traces_1]
    assert profile_1 is None and profile_2 is None
    # The automaton is the one the v1 automaton section stores.
    _summary, _meta, _traces, tables, _profile = v1_parts(v1)
    assert _automaton_tables(tea_1) == tuple(
        value if isinstance(value, int) else list(value)
        for value in tables)


def test_compiled_v2_equals_compiled_v1(world):
    _program, v1, v2 = world
    compiled_1 = compile_tea_binary(v1)
    compiled_2 = compile_tea_binary(v2)
    assert compiled_2.structurally_equal(compiled_1)
    n_states, _refs, *csr = v1_parts(v1)[3]
    direct = CompiledTea(n_states, b"\x00" + b"\x01" * (n_states - 1),
                         *csr)
    assert compiled_1.structurally_equal(direct)
    assert list(compiled_1.trans_offset) == list(direct.trans_offset)
    assert list(compiled_1.trans_labels) == list(direct.trans_labels)
    assert list(compiled_1.trans_dest) == list(direct.trans_dest)


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
    assert snapshot_version(data) == 2
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
# replay equivalence: every Table 4 config, both walks, v1 vs v2 mmap
# ---------------------------------------------------------------------

@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("walk", WALKS)
def test_replay_bit_exact_v1_vs_v2_mmap(world, tmp_path, config_name, walk):
    program, v1, v2 = world
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
    path.write_bytes(v2)
    mapping = open_snapshot_mapping(path)
    try:
        stats_v1, cycles_v1 = replay(v1)
        stats_v2, cycles_v2 = replay(mapping.data, mapping=mapping)
    finally:
        mapping.close()
    assert stats_v2 == stats_v1
    assert cycles_v2 == cycles_v1


# ---------------------------------------------------------------------
# the loader on damaged bytes
# ---------------------------------------------------------------------

def test_open_v2_raises_on_damage(world):
    *_rest, v2 = world
    bad = bytearray(v2)
    bad[open_v2(v2)[SEC_TRACES][0]] ^= 0xFF
    with pytest.raises(SerializationError, match="CRC"):
        open_v2(bytes(bad))


# ---------------------------------------------------------------------
# store: the one format, mapping reuse, migrate, gc
# ---------------------------------------------------------------------

def test_store_writes_v2_and_maps_zero_copy(tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    tea = build_tea(nested_traces)
    key = store.put(nested_traces, tea=tea, meta={"label": "z"})
    assert snapshot_version(store.get_bytes(key)) == 2
    first = store.map_compiled(key)
    second = store.map_compiled(key)
    assert second is first  # one shared mapping per process per file
    assert first.structurally_equal(store.get_compiled(key))
    counters = store.obs.metrics.snapshot()["counters"]
    assert counters["store.mmap_opened"] == 1


def test_store_map_compiled_falls_back_for_v1(tmp_path, golden_v1):
    store = AutomatonStore(tmp_path / "store")
    key = store.put_bytes(golden_v1)
    compiled = store.map_compiled(key)
    assert compiled.structurally_equal(store.get_compiled(key))
    counters = store.obs.metrics.snapshot()["counters"]
    assert counters.get("store.mmap_opened", 0) == 0


def test_store_migrate_is_one_way(tmp_path, golden_v1, golden_v1_program):
    store = AutomatonStore(tmp_path / "store")
    key_v1 = store.put_bytes(golden_v1, program=golden_v1_program)
    forward = store.migrate()
    assert forward == {key_v1: snapshot_key(convert_v1_to_v2(golden_v1))}
    key_v2 = forward[key_v1]
    assert key_v1 not in store and key_v2 in store
    assert snapshot_version(store.get_bytes(key_v2)) == 2
    assert store.load_program(key_v2).content_digest() == \
        golden_v1_program.content_digest()
    # v2 is never converted back: a second migrate has nothing to do.
    assert store.migrate() == {}
    assert store.keys() == [key_v2]


@pytest.mark.parametrize("loss", ["traces", "automaton"])
def test_store_migrate_refuses_a_lossy_conversion(tmp_path, golden_v1,
                                                  monkeypatch, loss):
    import repro.store.store as store_module

    store = AutomatonStore(tmp_path / "store")
    key = store.put_bytes(golden_v1)

    def lossy(data):
        summary, meta_raw, traces_raw, tables, profile_raw = v1_parts(data)
        if loss == "traces":
            traces_raw = traces_raw[:-1] + bytes([traces_raw[-1] ^ 1])
        else:
            n_states, refs, offsets, labels, dests, entries, sids = tables
            dests = [(dest + 1) % n_states for dest in dests]
            tables = (n_states, refs, offsets, labels, dests, entries, sids)
        from repro.store.binary_v2 import _assemble_v2

        return _assemble_v2(summary, meta_raw, traces_raw, tables,
                            profile_raw)

    monkeypatch.setattr(store_module, "convert_v1_to_v2", lossy)
    with pytest.raises(SerializationError, match="refusing to migrate"):
        store.migrate()
    assert store.keys() == [key]
    assert store.get_bytes(key) == golden_v1


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
    from repro.store import binary_v2

    program, _v1, v2 = world
    key = snapshot_key(v2)
    image = encode_image(program, owner=key)
    opened = []
    real_open = binary_v2.open_v2

    def counted_open(data, check_crc=True):
        opened.append(check_crc)
        return real_open(data, check_crc)

    monkeypatch.setattr(binary_v2, "open_v2", counted_open)
    verify_snapshot_bytes(v2, deep=False)
    gate = len(opened)
    opened.clear()
    entry = load_entry(key, v2, image)
    assert opened == [True] * (gate + 1)
    opened.clear()
    unverified = load_entry(key, v2, image, verify=False)
    assert opened == [True]
    monkeypatch.undo()

    traces, tea, profile, meta = load_tea_binary(
        v2, BlockIndex(program), with_meta=True)
    for loaded in (entry, unverified):
        assert loaded.meta == meta and loaded.profile is profile is None
        assert_same_automaton(loaded.tea, tea)
        assert loaded.compiled.structurally_equal(compile_tea_binary(v2))

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


def test_gc_still_prunes_orphaned_jit_sources(tmp_path, nested_traces):
    """Nothing reads cached JIT sources any more, so ``gc`` deletes one
    even next to a live snapshot, and counts it."""
    import os

    store = AutomatonStore(tmp_path / "store")
    tea = build_tea(nested_traces)
    key = store.put(nested_traces, tea=tea)
    legacy = os.path.join(os.path.dirname(store.path_for(key)),
                          key + ".bptree-o8-direct16.jit.py")
    with open(legacy, "w") as handle:
        handle.write("# left behind by an older store\n")
    assert store.gc() == 1
    assert not os.path.exists(legacy)
    assert store.keys() == [key]
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
