"""Batched replay engine, directory-kind parity, and accounting bugfixes."""

import pytest

from repro.core import ReplayConfig, TeaProfile, TeaReplayer, build_tea
from repro.dbt.cost import CostModel, CostParameters
from repro.pin import Pin, TeaReplayTool
from repro.structures import BPlusTree, DirectMappedCache, LRUCache
from repro.structures.lru import MISS

from tests.conftest import recorded_transitions

CONFIG_FACTORIES = [
    ReplayConfig.global_local,
    ReplayConfig.global_no_local,
    ReplayConfig.no_global_local,
    ReplayConfig.no_global_no_local,
]

INDEX_KINDS = ["bptree", "list", "hash", "sorted"]


@pytest.fixture
def nested_stream(nested_program, nested_traces):
    """(tea, transitions) for the nested-diamond workload."""
    return build_tea(nested_traces), recorded_transitions(nested_program)


def _replay(tea, transitions, config, batched=False, params=None):
    cost = CostModel(params) if params is not None else None
    replayer = TeaReplayer(tea, config=config, cost=cost)
    if batched:
        replayer.run(transitions)
    else:
        for transition in transitions:
            replayer.step(transition.next_start, transition.instrs_dbt,
                           transition.instrs_pin)
    return replayer


# ---------------------------------------------------------------------
# Batched run() vs per-call step()
# ---------------------------------------------------------------------

@pytest.mark.parametrize("factory", CONFIG_FACTORIES,
                         ids=lambda f: f.__name__)
def test_run_matches_step_across_configs(nested_stream, factory):
    tea, transitions = nested_stream
    stepwise = _replay(tea, transitions, factory())
    batched = _replay(tea, transitions, factory(), batched=True)
    assert batched.state is stepwise.state
    assert batched.stats.as_dict() == stepwise.stats.as_dict()
    assert batched.cost.cycles == pytest.approx(stepwise.cost.cycles)
    for category, cycles in stepwise.cost.breakdown.items():
        assert batched.cost.breakdown[category] == pytest.approx(cycles)


def test_run_in_chunks_matches_one_call(nested_stream):
    tea, transitions = nested_stream
    whole = _replay(tea, transitions, ReplayConfig.global_local(),
                    batched=True)
    chunked = TeaReplayer(tea, config=ReplayConfig.global_local())
    for start in range(0, len(transitions), 97):
        chunked.run(transitions[start:start + 97])
    assert chunked.state is whole.state
    assert chunked.stats.as_dict() == whole.stats.as_dict()
    assert chunked.cost.cycles == pytest.approx(whole.cost.cycles)


def test_run_falls_back_to_step_with_observer(nested_stream):
    tea, transitions = nested_stream
    batched = TeaReplayer(tea, config=ReplayConfig.global_local(),
                          profile=TeaProfile())
    batched.run(transitions)
    stepwise = TeaReplayer(tea, config=ReplayConfig.global_local(),
                           profile=TeaProfile())
    for transition in transitions:
        stepwise.step(transition.next_start, transition.instrs_dbt,
                      transition.instrs_pin)
    # The profile sees every block and edge a per-call step() walk sees.
    for field in ("state_counts", "edge_counts", "trace_enters",
                  "trace_exits"):
        assert getattr(batched.profile, field) == \
            getattr(stepwise.profile, field), field
    assert batched.profile.state_counts
    assert batched.stats.as_dict() == stepwise.stats.as_dict()


def test_tea_tool_batch_size_matches_default(nested_program, nested_traces):
    plain = TeaReplayTool(trace_set=nested_traces)
    Pin(nested_program, tool=plain).run()
    batched = TeaReplayTool(trace_set=nested_traces, batch_size=64)
    Pin(nested_program, tool=batched).run()
    assert batched.stats.as_dict() == plain.stats.as_dict()
    assert batched.coverage == pytest.approx(plain.coverage)


# ---------------------------------------------------------------------
# The four global-index kinds: same automaton walk, per-kind charging
# ---------------------------------------------------------------------

def test_all_index_kinds_reach_identical_state(nested_stream):
    tea, transitions = nested_stream
    runs = {
        kind: _replay(tea, transitions,
                      ReplayConfig(global_index=kind, local_cache=True))
        for kind in INDEX_KINDS
    }
    reference = runs["bptree"]
    for kind, replayer in runs.items():
        assert replayer.state is reference.state, kind
        assert replayer.stats.as_dict() == reference.stats.as_dict(), kind
        assert replayer.stats.coverage() == pytest.approx(
            reference.stats.coverage()), kind


@pytest.mark.parametrize("kind,param", [
    ("bptree", "BPTREE_NODE"),
    ("list", "LIST_ELEMENT"),
    ("hash", "HASH_SLOT"),
    ("sorted", "ARRAY_COMPARISON"),
])
def test_directory_cost_charged_per_kind(nested_stream, kind, param):
    tea, transitions = nested_stream
    replayer = _replay(tea, transitions,
                       ReplayConfig(global_index=kind, local_cache=True))
    units = replayer.directory.units
    assert units > 0
    per_unit = getattr(replayer.cost.params, param)
    assert replayer.cost.breakdown["directory"] == pytest.approx(
        units * per_unit)


# ---------------------------------------------------------------------
# Bugfix 1: describe() names every index kind explicitly
# ---------------------------------------------------------------------

def test_describe_labels_every_index_kind():
    labels = {
        kind: ReplayConfig(global_index=kind).describe()
        for kind in INDEX_KINDS
    }
    assert labels["bptree"] == "Global / Local"
    assert labels["list"] == "No Global / Local"
    # Regression: hash and sorted runs used to be misfiled as "No Global".
    assert labels["hash"] == "Global (Hash) / Local"
    assert labels["sorted"] == "Global (Sorted) / Local"


def test_config_rejects_unknown_index_kind():
    with pytest.raises(ValueError):
        ReplayConfig(global_index="btree")


# ---------------------------------------------------------------------
# Bugfix 2: B+ tree get/__contains__ — one descent, stored-None safe
# ---------------------------------------------------------------------

def test_bptree_stored_none_is_present():
    tree = BPlusTree(order=4)
    tree.insert(7, None)
    assert 7 in tree
    assert tree.get(7, default="fallback") is None
    assert 8 not in tree
    assert tree.get(8, default="fallback") == "fallback"
    # The public search() API still reports a stored None like a miss —
    # unchanged contract — but visited proves the descent happened.
    value, visited = tree.search(7)
    assert value is None and visited >= 1


def test_bptree_get_descends_once():
    tree = BPlusTree(order=4)
    for key in range(64):
        tree.insert(key, key * 10)
    descents = []
    original = tree._search

    def counted_search(key):
        descents.append(key)
        return original(key)

    tree._search = counted_search
    assert tree.get(33) == 330
    assert descents == [33]  # regression: get() used to descend twice
    descents.clear()
    assert 33 in tree
    assert descents == [33]  # and so did __contains__


# ---------------------------------------------------------------------
# Bugfix 3: cache probe() sentinel + CACHE_MISS cost parameter
# ---------------------------------------------------------------------

@pytest.mark.parametrize("cache_cls", [LRUCache, DirectMappedCache])
def test_cache_probe_distinguishes_stored_none(cache_cls):
    cache = cache_cls(4)
    cache.insert(1, None)
    assert cache.probe(1) is None      # stored None is a hit
    assert cache.probe(2) is MISS      # absent key is the sentinel
    assert not MISS                    # and the sentinel is falsy
    assert cache.lookup(1) is None     # old API unchanged
    assert cache.lookup(2) is None
    assert cache.hits == 2 and cache.misses == 2


def test_cache_miss_param_defaults_to_cache_hit():
    params = CostParameters()
    assert params.CACHE_MISS == params.CACHE_HIT


def test_failed_probe_charged_as_cache_miss(nested_stream):
    """A failed local-cache probe must be charged CACHE_MISS, not CACHE_HIT."""
    tea, transitions = nested_stream
    config = ReplayConfig.global_local
    baseline = _replay(tea, transitions, config(), params=CostParameters())
    misses = baseline.stats.cache_misses
    assert misses > 0
    bumped = _replay(tea, transitions, config(),
                     params=CostParameters(CACHE_MISS=6.0 + 2.5))
    # Identical walk, so the only delta is the per-miss charge.
    assert bumped.stats.as_dict() == baseline.stats.as_dict()
    assert bumped.cost.cycles - baseline.cost.cycles == pytest.approx(
        2.5 * misses)
    assert (bumped.cost.breakdown["cache"]
            - baseline.cost.breakdown["cache"]) == pytest.approx(2.5 * misses)
