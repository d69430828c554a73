"""Differential suite: the compiled flat-table engine vs ``TeaReplayer``.

The compiled engine (:mod:`repro.core.compiled`) replays packed int
streams over contiguous arrays instead of transition objects over the
``TeaState`` graph.  Its whole contract is *bit-identical accounting*:

- every ``replay.*`` counter equal exactly (``ReplayStats.as_dict``);
- the full cost breakdown equal **bit-for-bit** — the compiled engine
  charges in the same order as the batched object engine, whose
  slow-path order in turn matches ``step()``, and every replay charge
  constant is an integral float, so double addition is exact;
- the same final state id and the same coverage.

Checked across hypothesis-random programs, all four global-index kinds,
all four Table 4 configurations, and automata lowered straight from
TEAB snapshot bytes (``compile_tea_binary``) rather than from the
object graph.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.basic_block import BlockIndex
from repro.core import (
    CompiledReplayer,
    CompiledTea,
    ReplayConfig,
    TeaProfile,
    TeaReplayer,
    build_tea,
)
from repro.core.automaton import NTE_SID
from repro.core.compiled import END_OF_RUN, PackedBatch
from repro.pin import DEFAULT_PACKED_BATCH, Pin, TeaReplayTool, pack_transitions
from repro.store import AutomatonStore, compile_tea_binary, dump_tea_binary
from repro.workloads import BenchmarkSpec, build_workload_program

from tests.conftest import record_traces, recorded_transitions
from tests.test_batch_equivalence import (
    INDEX_KINDS,
    kernel_descriptors,
    replay_workloads,
)

TABLE4_CONFIGS = {
    "global_local": ReplayConfig.global_local,
    "global_no_local": ReplayConfig.global_no_local,
    "no_global_local": ReplayConfig.no_global_local,
    "no_global_no_local": ReplayConfig.no_global_no_local,
}


def _capture(program):
    """The Pin-side transition stream for one program."""
    return recorded_transitions(program)


#: The compiled engine's batch-boundary charge order.
FLUSH_ORDER = ("callback", "transition", "cache", "directory", "enter")


def _stepwise(tea, transitions, config):
    """The ``step()`` reference; also records, per cost category, the
    index of the block that first charged it (``first_charged``)."""
    replayer = TeaReplayer(tea, config=config)
    breakdown = replayer.cost.breakdown
    replayer.first_charged = first_charged = {}
    for index, transition in enumerate(transitions):
        replayer.step(transition.next_start, transition.instrs_dbt,
                       transition.instrs_pin)
        if len(breakdown) > len(first_charged):
            for key in breakdown:
                first_charged.setdefault(key, index)
    return replayer


def _compiled(compiled_tea, transitions, config, chunk=None):
    replayer = CompiledReplayer(compiled_tea, config=config)
    packed = pack_transitions(transitions)
    if chunk:
        step = 3 * chunk
        for start in range(0, len(packed), step):
            replayer.run(PackedBatch(packed[start:start + step]))
    else:
        replayer.run(PackedBatch(packed))
    return replayer


#: Local-cache gauges every engine's ``snapshot()`` reports.
CACHE_GAUGES = ("replay.local_caches", "replay.local_cache_hits",
                "replay.local_cache_misses")


def _cache_gauges(replayer):
    gauges = replayer.snapshot()["metrics"]["gauges"]
    return {name: gauges[name] for name in CACHE_GAUGES}


def _batch_order(reference, chunk):
    """The breakdown key order a batched engine must produce: categories
    in the order of the batch that first charged them, and within one
    batch in :data:`FLUSH_ORDER`."""
    first = reference.first_charged
    return sorted(first, key=lambda key: (
        first[key] // chunk if chunk else 0, FLUSH_ORDER.index(key)))


def _assert_identical(reference, candidate, chunk=None):
    """Stats, final state, coverage, directory work, local-cache gauges
    and *whole* cost model (key order included), bit-exact.

    ``chunk`` is the candidate's batch size (``None``: one batch)."""
    assert candidate.stats.as_dict() == reference.stats.as_dict()
    assert candidate.sid == reference.state.sid
    assert candidate.coverage() == reference.stats.coverage()
    assert candidate.coverage(pin_counting=False) == \
        reference.stats.coverage(pin_counting=False)
    assert list(candidate.cost.breakdown.items()) == [
        (key, reference.cost.breakdown[key])
        for key in _batch_order(reference, chunk)
    ]
    assert candidate.cost.cycles == reference.cost.cycles
    assert candidate.directory.probes == reference.directory.probes
    assert candidate.directory.units == reference.directory.units
    assert _cache_gauges(candidate) == _cache_gauges(reference)


# ---------------------------------------------------------------------
# property-based differential tests
# ---------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(workload=replay_workloads(), chunk=st.integers(16, 400))
def test_compiled_matches_step_for_all_index_kinds(workload, chunk):
    transitions, tea, cache_kind, cache_size = workload
    compiled_tea = CompiledTea.from_tea(tea)
    for kind in INDEX_KINDS:
        def config(kind=kind):
            return ReplayConfig(
                global_index=kind, local_cache=True,
                cache_kind=cache_kind, cache_size=cache_size,
            )
        reference = _stepwise(tea, transitions, config())
        one_batch = _compiled(compiled_tea, transitions, config())
        _assert_identical(reference, one_batch)
        chunked = _compiled(compiled_tea, transitions, config(), chunk=chunk)
        _assert_identical(reference, chunked, chunk=chunk)


@settings(max_examples=6, deadline=None)
@given(workload=replay_workloads())
def test_compiled_matches_step_without_local_cache(workload):
    transitions, tea, _, _ = workload
    compiled_tea = CompiledTea.from_tea(tea)
    for kind in INDEX_KINDS:
        def config(kind=kind):
            return ReplayConfig(global_index=kind, local_cache=False)
        reference = _stepwise(tea, transitions, config())
        candidate = _compiled(compiled_tea, transitions, config())
        _assert_identical(reference, candidate)
        assert candidate.stats.cache_hits == 0
        assert "cache" not in candidate.cost.breakdown


@settings(max_examples=6, deadline=None)
@given(kernels=st.lists(kernel_descriptors(), min_size=1, max_size=2),
       seed=st.integers(0, 2 ** 20))
def test_compiled_matches_step_from_teab_bytes(kernels, seed):
    """Snapshot round-trip: compile_tea_binary vs the loaded object TEA.

    The lowered-from-bytes automaton must be structurally identical to
    the lowered-from-objects one, and replaying it must account exactly
    like the object engine driving the *loaded* TEA (whose heads dict
    carries the snapshot's sorted order).
    """
    from repro.store import load_tea_binary

    spec = BenchmarkSpec("teab.%d" % seed, "int", seed, kernels)
    program = build_workload_program(spec).program
    trace_set = record_traces(program).trace_set
    tea = build_tea(trace_set)
    transitions = _capture(program)

    data = dump_tea_binary(trace_set, tea=tea)
    _, loaded_tea, _ = load_tea_binary(data, BlockIndex(program))
    from_bytes = compile_tea_binary(data)
    from_objects = CompiledTea.from_tea(loaded_tea)
    assert from_bytes.structurally_equal(from_objects)
    assert from_bytes.structurally_equal(CompiledTea.from_tea(tea))
    # TEAB stores heads sorted by entry; the loaded TEA preserves that,
    # so both lowerings must agree on directory insertion order too.
    assert list(from_bytes.head_entries) == list(from_objects.head_entries)
    # Metadata is advisory and absent from snapshots.
    assert sum(from_bytes.instrs_dbt) == 0
    assert sum(from_objects.instrs_dbt) > 0

    for factory in TABLE4_CONFIGS.values():
        reference = _stepwise(loaded_tea, transitions, factory())
        candidate = _compiled(from_bytes, transitions, factory())
        _assert_identical(reference, candidate)


# ---------------------------------------------------------------------
# fixture-anchored differential tests (deterministic)
# ---------------------------------------------------------------------

def test_compiled_matches_step_across_table4_configs(nested_program):
    trace_set = record_traces(nested_program).trace_set
    tea = build_tea(trace_set)
    compiled_tea = CompiledTea.from_tea(tea)
    transitions = _capture(nested_program)
    for name, factory in TABLE4_CONFIGS.items():
        reference = _stepwise(tea, transitions, factory())
        candidate = _compiled(compiled_tea, transitions, factory())
        _assert_identical(reference, candidate)
        assert candidate.stats.blocks == len(transitions), name


def test_compiled_pure_transition_function_matches_tea(nested_traces):
    tea = build_tea(nested_traces)
    compiled_tea = CompiledTea.from_tea(tea)
    labels = sorted(compiled_tea.labels) + [0xDEAD]
    for sid in range(tea.n_states):
        state = tea.states[sid]
        for label in labels:
            assert compiled_tea.next_sid(sid, label) == \
                tea.next_state(state, label).sid


def test_compiled_tea_validation_rejects_malformed_tables():
    with pytest.raises(ValueError):
        CompiledTea(0, b"", [0], [], [], [], [])
    with pytest.raises(ValueError):  # NTE flagged in-trace
        CompiledTea(1, b"\x01", [0, 0], [], [], [], [])
    with pytest.raises(ValueError):  # dangling destination sid
        CompiledTea(2, b"\x00\x01", [0, 0, 1], [100], [5], [], [])
    with pytest.raises(ValueError):  # head pointing at the NTE
        CompiledTea(2, b"\x00\x01", [0, 0, 0], [], [], [100], [0])
    with pytest.raises(ValueError):  # duplicate head entry
        CompiledTea(3, b"\x00\x01\x01", [0, 0, 0, 0], [], [],
                    [100, 100], [1, 2])
    with pytest.raises(ValueError):  # offsets not ending at the labels
        CompiledTea(2, b"\x00\x01", [0, 0, 3], [100], [1], [], [])


def test_compiled_tea_interning_and_describe(nested_traces):
    tea = build_tea(nested_traces)
    compiled_tea = CompiledTea.from_tea(tea)
    assert list(compiled_tea.labels) == sorted(set(compiled_tea.labels))
    for pc, label_id in compiled_tea.label_ids.items():
        assert compiled_tea.labels[label_id] == pc
    summary = compiled_tea.describe()
    assert summary["states"] == tea.n_states
    assert summary["transitions"] == tea.n_transitions
    assert summary["heads"] == len(tea.heads)
    assert summary["in_trace_states"] == tea.n_states - 1
    assert summary["labels"] == compiled_tea.n_labels


def test_lru_cache_hit_refreshes_recency():
    """A local LRU cache hit makes that entry the most recent one.

    State 1 exits to 200, 300, 200 (a hit), 400, 200 with a two-entry
    cache: inserting 400 must evict 300, not the refreshed 200, so the
    last exit hits.  Each exit target returns to state 1 via PC 50.
    """
    compiled_tea = CompiledTea(
        5, b"\x00\x01\x01\x01\x01", [0, 0, 0, 1, 2, 3], [50, 50, 50],
        [1, 1, 1], [50, 200, 300, 400], [1, 2, 3, 4],
    )
    pcs = [50, 200, 50, 300, 50, 200, 50, 400, 50, 200, 50, END_OF_RUN]
    packed = array("q", [value for pc in pcs for value in (pc, 1, 1)])
    config = ReplayConfig(global_index="list", local_cache=True,
                          cache_kind="lru", cache_size=2)
    replayer = CompiledReplayer(compiled_tea, config=config)
    replayer.run(PackedBatch(packed))
    assert replayer.stats.trace_exits == 5
    assert replayer.stats.cache_hits == 2
    assert replayer.stats.cache_misses == 3
    assert _cache_gauges(replayer) == {"replay.local_caches": 1,
                                       "replay.local_cache_hits": 2,
                                       "replay.local_cache_misses": 3}


def test_every_negative_next_start_ends_the_run(nested_program,
                                                nested_traces):
    """Any negative ``next_start`` is terminal, not only END_OF_RUN."""
    compiled_tea = CompiledTea.from_tea(build_tea(nested_traces))
    packed = pack_transitions(_capture(nested_program))
    odd = array("q", packed)
    for index in range(0, len(odd), 3 * 97):
        odd[index] = -3 - index
    marked = array("q", packed)
    for index in range(0, len(marked), 3 * 97):
        marked[index] = END_OF_RUN
    for factory in TABLE4_CONFIGS.values():
        reference = CompiledReplayer(compiled_tea, config=factory())
        reference.run(PackedBatch(marked))
        candidate = CompiledReplayer(compiled_tea, config=factory())
        candidate.run(PackedBatch(odd))
        assert candidate.stats.as_dict() == reference.stats.as_dict()
        assert candidate.cost.cycles == reference.cost.cycles
        assert candidate.sid == reference.sid


def test_run_rejects_misaligned_batches():
    with pytest.raises(ValueError):
        PackedBatch(array("q", [1, 2]))


# ---------------------------------------------------------------------
# packed transition streams
# ---------------------------------------------------------------------

class _FakeTransition:
    def __init__(self, next_start, instrs_dbt=3, instrs_pin=4):
        self.next_start = next_start
        self.instrs_dbt = instrs_dbt
        self.instrs_pin = instrs_pin


def test_pack_transitions_encodes_end_of_run():
    packed = pack_transitions(
        [_FakeTransition(0x40), _FakeTransition(None, 7, 8)]
    )
    assert isinstance(packed, array) and packed.typecode == "q"
    assert list(packed) == [0x40, 3, 4, END_OF_RUN, 7, 8]


def test_pack_transitions_rejects_negative_real_pcs():
    """A genuinely negative next_start must not silently alias onto the
    END_OF_RUN sentinel — the stream would replay as a truncated run."""
    from repro.errors import PackedStreamError, ReproError

    bad = [_FakeTransition(0x40), _FakeTransition(-2), _FakeTransition(None)]
    with pytest.raises(PackedStreamError) as excinfo:
        pack_transitions(bad)
    assert excinfo.value.index == 1
    assert excinfo.value.value == -2
    assert issubclass(PackedStreamError, ValueError)
    assert issubclass(PackedStreamError, ReproError)
    # END_OF_RUN itself (as a raw int) is just as impossible a PC.
    with pytest.raises(PackedStreamError):
        pack_transitions([_FakeTransition(END_OF_RUN)])


# ---------------------------------------------------------------------
# ReplayConfig validation + reset semantics (satellites)
# ---------------------------------------------------------------------

def test_replay_config_rejects_bad_cache_size():
    for bad in (0, -1, 2.0, "8"):
        with pytest.raises(ValueError, match="cache_size"):
            ReplayConfig(cache_size=bad)
    assert ReplayConfig(cache_size=1).cache_size == 1


def test_replay_config_rejects_bad_bptree_order():
    for bad in (2, 0, -3, 4.0, "16"):
        with pytest.raises(ValueError, match="bptree_order"):
            ReplayConfig(bptree_order=bad)
    assert ReplayConfig(bptree_order=3).bptree_order == 3


def test_reset_clears_caches_and_directory_counters(nested_program,
                                                    nested_traces):
    tea = build_tea(nested_traces)
    transitions = _capture(nested_program)
    replayer = _stepwise(tea, transitions, ReplayConfig.no_global_local())
    assert _cache_gauges(replayer)["replay.local_caches"] > 0
    assert replayer.directory.probes > 0
    replayer.reset()
    assert replayer.state is tea.nte
    assert _cache_gauges(replayer) == dict.fromkeys(CACHE_GAUGES, 0)
    assert replayer.directory.probes == 0
    # Directory contents survive — only the work counters are zeroed.
    assert len(replayer.directory) == len(tea.heads)


def test_reset_keep_caches_preserves_old_behaviour(nested_program,
                                                   nested_traces):
    tea = build_tea(nested_traces)
    transitions = _capture(nested_program)
    replayer = _stepwise(tea, transitions, ReplayConfig.global_local())
    gauges = _cache_gauges(replayer)
    probes = replayer.directory.probes
    assert probes > 0
    assert gauges["replay.local_caches"] > 0
    replayer.reset(clear_caches=False)
    assert replayer.state is tea.nte
    assert _cache_gauges(replayer) == gauges  # warm caches kept
    assert replayer.directory.probes == probes


def test_compiled_reset_matches_object_reset(nested_program, nested_traces):
    tea = build_tea(nested_traces)
    compiled_tea = CompiledTea.from_tea(tea)
    transitions = _capture(nested_program)
    config = ReplayConfig.global_local
    replayer = _compiled(compiled_tea, transitions, config())
    gauges = _cache_gauges(replayer)
    assert gauges["replay.local_caches"] > 0
    assert replayer.directory.probes > 0
    replayer.reset(clear_caches=False)
    assert replayer.sid == NTE_SID
    assert _cache_gauges(replayer) == gauges
    replayer.reset()
    assert _cache_gauges(replayer) == dict.fromkeys(CACHE_GAUGES, 0)
    assert replayer.directory.probes == 0
    # A reset replayer re-runs to the exact same accounting as a
    # fresh one (stale caches would poison it).
    rerun = CompiledReplayer(compiled_tea, config=config())
    rerun.run(PackedBatch(pack_transitions(transitions)))
    assert replayer.directory.units == 0
    replayer.run(PackedBatch(pack_transitions(transitions)))
    assert replayer.directory.units == rerun.directory.units
    assert _cache_gauges(replayer) == _cache_gauges(rerun)


# ---------------------------------------------------------------------
# store + Pin-hosted tool integration
# ---------------------------------------------------------------------

def test_store_get_compiled(tmp_path, nested_program, nested_traces):
    from repro.store import load_tea_binary

    tea = build_tea(nested_traces)
    store = AutomatonStore(tmp_path / "store")
    key = store.put(nested_traces, tea=tea)
    compiled_tea = store.get_compiled(key)
    assert compiled_tea.structurally_equal(CompiledTea.from_tea(tea))
    transitions = _capture(nested_program)
    # The accounting reference is the *loaded* TEA: a snapshot stores
    # heads sorted by entry, so both engines insert them into their
    # directories in that order (the built TEA uses registration order,
    # which legitimately yields different directory scan costs).
    _, loaded_tea, _ = load_tea_binary(store.get_bytes(key),
                                       BlockIndex(nested_program))
    for factory in TABLE4_CONFIGS.values():
        reference = _stepwise(loaded_tea, transitions, factory())
        candidate = _compiled(compiled_tea, transitions, factory())
        _assert_identical(reference, candidate)


def test_tea_tool_compiled_engine_matches_object(nested_program,
                                                 nested_traces):
    for name, factory in TABLE4_CONFIGS.items():
        via_objects = TeaReplayTool(trace_set=nested_traces,
                                    config=factory(), profile=TeaProfile())
        object_run = Pin(nested_program, tool=via_objects).run()
        via_tables = TeaReplayTool(trace_set=nested_traces,
                                   config=factory())
        table_run = Pin(nested_program, tool=via_tables).run()
        assert via_tables.stats.as_dict() == via_objects.stats.as_dict()
        assert via_tables.coverage == via_objects.coverage
        # PIN_BLOCK_STUB (1.6) interleaves differently with the batched
        # engine charges, so total cycles may drift in the last ULPs.
        assert table_run.cycles == pytest.approx(object_run.cycles,
                                                 rel=1e-12), name


def test_tea_tool_walk_follows_profile(nested_program, nested_traces):
    tool = TeaReplayTool(trace_set=nested_traces)
    Pin(nested_program, tool=tool).run()
    assert isinstance(tool.replayer, CompiledReplayer)
    assert tool.packed_batch == DEFAULT_PACKED_BATCH
    assert tool.stats.blocks > 0
    profiled = TeaReplayTool(trace_set=nested_traces, profile=TeaProfile())
    Pin(nested_program, tool=profiled).run()
    assert isinstance(profiled.replayer, TeaReplayer)
    assert profiled.packed_batch == DEFAULT_PACKED_BATCH
    assert profiled.profile.state_counts


def test_tea_tool_small_batches_account_identically(nested_program,
                                                    nested_traces):
    reference = TeaReplayTool(trace_set=nested_traces, profile=TeaProfile())
    Pin(nested_program, tool=reference).run()
    tiny = TeaReplayTool(trace_set=nested_traces, batch_size=7)
    Pin(nested_program, tool=tiny).run()
    assert tiny.stats.as_dict() == reference.stats.as_dict()
