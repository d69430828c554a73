"""The TEAB v2 section format: zero-copy snapshots, shared mappings,
migration, and hot-reload.

The acceptance bar mirrors the v1 codec's and adds the v2-specific
contracts: the v1<->v2 conversion is byte-canonical in both directions,
an automaton lowered zero-copy off an ``mmap`` replays bit-exactly
against its v1 decode under every Table 4 configuration and every
engine, hand-corrupted images trip exactly their TEA024/TEA025 rule,
and a service hot-reload under concurrent clients drops or corrupts
nothing.
"""

import struct
import threading
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.basic_block import BlockIndex
from repro.core import ReplayConfig, TeaProfile, build_tea
from repro.errors import SerializationError, VerificationError
from repro.isa.assembler import assemble
from repro.pin import Pin, TeaReplayTool
from repro.store import (
    AutomatonStore,
    convert_v1_to_v2,
    convert_v2_to_v1,
    dump_tea_binary,
    dump_tea_binary_v2,
    load_tea_binary,
    open_snapshot_mapping,
    peek_tea_binary,
    snapshot_version,
)
from repro.store.binary_v2 import (
    ENTRY_SIZE,
    HEADER_SIZE,
    SEC_TRACES,
    _ENTRY,
    open_v2,
)
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
ENGINES = ("object", "compiled", "jit")


@pytest.fixture(scope="module")
def world():
    nested_program = assemble(NESTED_DIAMOND_SOURCE)
    nested_traces = record_traces(nested_program).trace_set
    tea = build_tea(nested_traces)
    profile = TeaProfile()
    tool = TeaReplayTool(trace_set=nested_traces, profile=profile, tea=tea)
    Pin(nested_program, tool=tool).run()
    meta = {"benchmark": "nested", "label": "w"}
    v1 = dump_tea_binary(nested_traces, tea=tea, profile=profile, meta=meta)
    return nested_program, nested_traces, tea, profile, v1


# ---------------------------------------------------------------------
# conversion canonicality
# ---------------------------------------------------------------------

def test_dump_v2_is_the_converted_v1(world):
    _program, traces, tea, profile, v1 = world
    meta = {"benchmark": "nested", "label": "w"}
    v2 = dump_tea_binary_v2(traces, tea=tea, profile=profile, meta=meta)
    assert v2 == convert_v1_to_v2(v1)
    assert snapshot_version(v2) == 2


def test_conversion_round_trips_byte_identically(world):
    *_rest, v1 = world
    v2 = convert_v1_to_v2(v1)
    assert convert_v2_to_v1(v2) == v1
    assert convert_v1_to_v2(convert_v2_to_v1(v2)) == v2


def test_peek_v2_matches_v1_and_adds_sections(world):
    *_rest, v1 = world
    v2 = convert_v1_to_v2(v1)
    info_v1 = peek_tea_binary(v1)
    info_v2 = peek_tea_binary(v2)
    for field in ("kind", "traces", "tbbs", "edges", "states",
                  "transitions", "heads", "profile", "meta"):
        assert info_v2[field] == info_v1[field], field
    assert info_v2["version"] == 2
    names = [section["name"] for section in info_v2["sections"]]
    assert names[0] == "summary" and "trans_offset" in names
    # Every section is 8-byte aligned and the entries tile the file.
    for section in info_v2["sections"]:
        assert section["offset"] % 8 == 0


def test_load_v2_is_bit_exact(world):
    program, traces, tea, profile, v1 = world
    v2 = convert_v1_to_v2(v1)
    index = BlockIndex(program)
    traces_1, tea_1, profile_1 = load_tea_binary(v1, index)
    traces_2, tea_2, profile_2 = load_tea_binary(v2, index)
    assert_same_automaton(tea, tea_2)
    assert_same_automaton(tea_1, tea_2)
    assert [t.trace_id for t in traces_2] == [t.trace_id for t in traces_1]
    assert profile_2.state_counts == profile_1.state_counts
    assert profile_2.edge_counts == profile_1.edge_counts


def test_compiled_v2_equals_compiled_v1(world):
    *_rest, v1 = world
    from repro.store import compile_tea_binary

    v2 = convert_v1_to_v2(v1)
    compiled_1 = compile_tea_binary(v1)
    compiled_2 = compile_tea_binary(v2)
    assert compiled_2.structurally_equal(compiled_1)
    assert list(compiled_2.trans_offset) == list(compiled_1.trans_offset)
    assert list(compiled_2.trans_labels) == list(compiled_1.trans_labels)
    assert list(compiled_2.trans_dest) == list(compiled_1.trans_dest)


@given(
    source=st.sampled_from([NESTED_DIAMOND_SOURCE, SIMPLE_LOOP_SOURCE,
                            CALL_LOOP_SOURCE]),
    threshold=st.integers(min_value=2, max_value=30),
    with_profile=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_hypothesis_round_trip_is_bit_exact(source, threshold, with_profile):
    """TEA -> v2 bytes -> automaton, bit-exact against the v1 image."""
    program = assemble(source)
    trace_set = record_traces(program, hot_threshold=threshold).trace_set
    tea = build_tea(trace_set)
    profile = None
    if with_profile:
        profile = TeaProfile()
        tool = TeaReplayTool(trace_set=trace_set, profile=profile, tea=tea)
        Pin(program, tool=tool).run()
    v1 = dump_tea_binary(trace_set, tea=tea, profile=profile)
    v2 = convert_v1_to_v2(v1)
    assert convert_v2_to_v1(v2) == v1
    assert verify_snapshot_bytes(v2, deep=True).ok()
    index = BlockIndex(program)
    _traces_1, tea_1, _ = load_tea_binary(v1, index)
    _traces_2, tea_2, _ = load_tea_binary(v2, index)
    assert_same_automaton(tea_1, tea_2)


# ---------------------------------------------------------------------
# replay equivalence: every Table 4 config, every engine, v1 vs v2 mmap
# ---------------------------------------------------------------------

@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("engine", ENGINES)
def test_replay_bit_exact_v1_vs_v2_mmap(world, tmp_path, config_name, engine):
    program, _traces, _tea, _profile, v1 = world
    block_index = BlockIndex(program)

    def replay(data, mapping=None):
        from repro.store import compile_tea_binary

        trace_set, tea, _ = load_tea_binary(data, block_index)
        compiled = (mapping.compiled() if mapping is not None
                    else compile_tea_binary(data, verify=False))
        jit = None
        if engine == "jit":
            from repro.core.jit import JitCode

            jit = JitCode.from_compiled(compiled,
                                        config=CONFIGS[config_name]())
        tool = TeaReplayTool(
            trace_set=trace_set, config=CONFIGS[config_name](), tea=tea,
            engine=engine,
            compiled=compiled if engine in ("compiled", "jit") else None,
            jit=jit,
        )
        result = Pin(program, tool=tool).run()
        return tool.stats.as_dict(), result.cycles

    path = tmp_path / "w.teab"
    path.write_bytes(convert_v1_to_v2(v1))
    mapping = open_snapshot_mapping(path)
    try:
        stats_v1, cycles_v1 = replay(v1)
        stats_v2, cycles_v2 = replay(mapping.data, mapping=mapping)
    finally:
        mapping.close()
    assert stats_v2 == stats_v1
    assert cycles_v2 == cycles_v1


# ---------------------------------------------------------------------
# corrupted vectors: each trips exactly its rule
# ---------------------------------------------------------------------

def _retable(buffer):
    """Recompute the section-table CRC after editing table entries."""
    n_sections = struct.unpack_from("<H", buffer, 6)[0]
    table_end = HEADER_SIZE + ENTRY_SIZE * n_sections
    crc = zlib.crc32(bytes(buffer[HEADER_SIZE:table_end]),
                     zlib.crc32(bytes(buffer[:16])))
    struct.pack_into("<I", buffer, 16, crc)
    return bytes(buffer)


def _rule_ids(data):
    report = verify_snapshot_bytes(data, deep=True)
    return sorted({diag.rule_id for diag in report.diagnostics})


def test_misaligned_section_trips_exactly_tea024(world):
    *_rest, v1 = world
    bad = bytearray(convert_v1_to_v2(v1))
    entry = list(_ENTRY.unpack_from(bad, HEADER_SIZE))
    entry[2] += 1  # knock the first section off 8-byte alignment
    _ENTRY.pack_into(bad, HEADER_SIZE, *entry)
    assert _rule_ids(_retable(bad)) == ["TEA024"]


def test_overlapping_sections_trip_exactly_tea024(world):
    *_rest, v1 = world
    bad = bytearray(convert_v1_to_v2(v1))
    first = _ENTRY.unpack_from(bad, HEADER_SIZE)
    entry = list(_ENTRY.unpack_from(bad, HEADER_SIZE + ENTRY_SIZE))
    entry[2] = first[2]  # second section starts on top of the first
    _ENTRY.pack_into(bad, HEADER_SIZE + ENTRY_SIZE, *entry)
    assert _rule_ids(_retable(bad)) == ["TEA024"]


def test_bad_section_crc_trips_exactly_tea025(world):
    *_rest, v1 = world
    v2 = convert_v1_to_v2(v1)
    offset = open_v2(v2)[SEC_TRACES][0]
    bad = bytearray(v2)
    bad[offset] ^= 0xFF  # flip one payload byte; table stays intact
    assert _rule_ids(bytes(bad)) == ["TEA025"]


def test_open_v2_raises_on_damage(world):
    *_rest, v1 = world
    v2 = convert_v1_to_v2(v1)
    bad = bytearray(v2)
    bad[open_v2(v2)[SEC_TRACES][0]] ^= 0xFF
    with pytest.raises(SerializationError, match="CRC"):
        open_v2(bytes(bad))


def test_clean_images_pass_deep_verify_including_tea026(world):
    *_rest, v1 = world
    v2 = convert_v1_to_v2(v1)
    for image in (v1, v2):
        report = verify_snapshot_bytes(image, deep=True)
        assert report.ok(), report.to_json()
        assert "TEA026" in report.rules_run
    # The shallow (load-path) scan never pays for the conversion rule.
    assert "TEA026" not in verify_snapshot_bytes(v2, deep=False).rules_run


# ---------------------------------------------------------------------
# store: default format, mapping reuse, migrate, gc
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


def test_store_map_compiled_falls_back_for_v1(tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    tea = build_tea(nested_traces)
    key = store.put(nested_traces, tea=tea, version=1)
    compiled = store.map_compiled(key)
    assert compiled.structurally_equal(store.get_compiled(key))
    counters = store.obs.metrics.snapshot()["counters"]
    assert counters.get("store.mmap_opened", 0) == 0


def test_store_migrate_both_directions(tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "store")
    tea = build_tea(nested_traces)
    key_v1 = store.put(nested_traces, tea=tea, meta={"label": "m"},
                       version=1)
    forward = store.migrate()
    assert set(forward) == {key_v1}
    key_v2 = forward[key_v1]
    assert key_v1 not in store and key_v2 in store
    assert snapshot_version(store.get_bytes(key_v2)) == 2
    # Round-tripping the store restores the original content keys.
    backward = store.migrate(to_version=1)
    assert backward == {key_v2: key_v1}
    assert snapshot_version(store.get_bytes(key_v1)) == 1


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
        return dump_tea_binary_v2(trace_set, tea=build_tea(trace_set),
                                  meta=meta)

    store = AutomatonStore(tmp_path / "store")
    key_old = store.put_bytes(snapshot_bytes(10))
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
        key_new = store.put_bytes(snapshot_bytes(5, supersedes=key_old))
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
