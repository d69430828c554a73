"""The minimization subsystem (``repro.minimize``).

The contract under test is the ISSUE's acceptance bar: exact-mode
minimized automata replay **bit-exact** against their originals on all
four Table 4 configurations and all three engines, round-trip through
TEAB / the store with full provenance, pass the TEA05x verify family,
and degrade gracefully (never silently) under a state budget.
"""

import os

import pytest

from tests.conftest import NESTED_DIAMOND_SOURCE, record_traces
from repro.analysis import check_minimization
from repro.cfg.basic_block import BlockIndex
from repro.core import build_tea
from repro.core.replay import ReplayConfig
from repro.errors import TeaError
from repro.isa import assemble
from repro.minimize import (
    MODES,
    mergeable_estimate,
    minimize_tea,
    state_cache_safe,
)
from repro.obs import Observability
from repro.pin import Pin, TeaReplayTool
from repro.store import (
    AutomatonStore,
    compile_tea_binary,
    describe_snapshot,
    dump_tea_binary,
    load_tea_binary,
    peek_tea_binary,
)
from repro.traces.recorder import RecorderLimits
from repro.verify import (
    verify_minimization,
    verify_snapshot_bytes,
)
from repro.workloads import load_benchmark

BENCHMARK = "181.mcf"
SCALE = 0.3
STRATEGY = "tt"  # tree traces duplicate suffixes: plenty to merge

CONFIG_FACTORIES = (
    ReplayConfig.global_local,
    ReplayConfig.global_no_local,
    ReplayConfig.no_global_local,
    ReplayConfig.no_global_no_local,
)


class _World:
    """One merge-rich recorded benchmark, shared by the module."""

    def __init__(self):
        self.program = load_benchmark(BENCHMARK, scale=SCALE).program
        from repro.dbt import StarDBT

        self.trace_set = StarDBT(
            self.program, strategy=STRATEGY,
            limits=RecorderLimits(hot_threshold=10),
        ).run().trace_set
        self.tea = build_tea(self.trace_set)
        self.result = minimize_tea(self.tea)


@pytest.fixture(scope="module")
def world():
    return _World()


def _replay(world, automaton, config=None, engine=None):
    """(stats, coverage, cost) of one full replay run."""
    tool = TeaReplayTool(trace_set=world.trace_set, tea=automaton,
                         config=config, engine=engine)
    Pin(world.program, tool=tool).run()
    return tool.stats.as_dict(), tool.coverage, tool.snapshot()["cost"]


# ---------------------------------------------------------------------
# the pass itself
# ---------------------------------------------------------------------


def test_exact_minimize_merges_and_verifies(world):
    result = world.result
    assert result.mode == "exact"
    assert result.merged > 0
    assert result.states_after < result.states_before
    assert result.transitions_after <= result.transitions_before
    assert not result.spilled
    assert result.tea.n_traces == world.tea.n_traces
    assert list(result.tea.heads) == list(world.tea.heads)
    report = verify_minimization(result, trace_set=world.trace_set)
    assert report.ok(strict=True), report.render_text()
    for rule_id in ("TEA051", "TEA052", "TEA053"):
        assert rule_id in report.rules_run


def test_describe_matches_shape(world):
    summary = world.result.describe()
    assert summary["states_before"] == world.tea.n_states
    assert summary["states_after"] == world.result.tea.n_states
    assert summary["mode"] == "exact"
    assert summary["budget"] is None
    assert summary["spilled"] == 0
    assert summary["merged"] == world.result.merged
    assert 0.0 < summary["state_reduction"] < 1.0


def test_minimize_is_idempotent(world):
    again = minimize_tea(world.result.tea)
    assert again.merged == 0
    assert again.states_after == world.result.states_after
    assert again.transitions_after == world.result.transitions_after


def test_state_map_is_a_total_quotient(world):
    result = world.result
    state_map = result.state_map
    assert len(state_map) == world.tea.n_states
    assert state_map[0] == 0
    for state in world.tea.states[1:]:
        mapped = state_map[state.sid]
        assert mapped is not None  # no budget: nothing spilled
        image = result.tea.states[mapped]
        assert image.tbb.start == state.tbb.start


def test_bad_mode_rejected(world):
    with pytest.raises(ValueError, match="mode must be one of"):
        minimize_tea(world.tea, mode="hopcroft")
    assert MODES == ("exact", "aggressive")


def test_budget_below_floor_rejected(world):
    floor = 1 + world.tea.n_traces
    with pytest.raises(TeaError, match="budget must be an integer"):
        minimize_tea(world.tea, budget=floor - 1)
    with pytest.raises(TeaError):
        minimize_tea(world.tea, budget="many")


def test_metrics_reported(world):
    obs = Observability()
    minimize_tea(world.tea, obs=obs)
    counters = obs.metrics.counters()
    assert counters["minimize.runs"] == 1
    assert counters["minimize.merged_states"] == world.result.merged
    snapshot = obs.metrics.snapshot()
    assert snapshot["gauges"]["minimize.states_before"] == world.tea.n_states


def test_mergeable_estimate_units():
    # Three states sharing label tuple (7,), one singleton, one head.
    edge_labels = [[], [5], [7], [7], [7], [5]]
    assert mergeable_estimate(edge_labels, head_sids=set()) == 3
    assert mergeable_estimate(edge_labels, head_sids={1}) == 2
    assert mergeable_estimate([[]], head_sids=set()) == 0


def test_mergeable_estimate_bounds_real_merges(world):
    edge_labels = [
        sorted(state.transitions) for state in world.tea.states
    ]
    head_sids = {head.sid for head in world.tea.heads.values()}
    estimate = mergeable_estimate(edge_labels, head_sids)
    aggressive = minimize_tea(world.tea, mode="aggressive")
    assert estimate >= aggressive.merged >= world.result.merged


def test_state_cache_safe_respects_heads(world):
    heads = world.tea.heads
    safe = [s for s in world.tea.states[1:] if state_cache_safe(s, heads)]
    unsafe = [s for s in world.tea.states[1:]
              if not state_cache_safe(s, heads)]
    assert safe and unsafe  # the fixture exercises both paths
    # Without any heads nothing can be cache-unsafe.
    assert all(state_cache_safe(s, {}) for s in world.tea.states[1:])


# ---------------------------------------------------------------------
# replay bit-exactness (the tentpole acceptance bar)
# ---------------------------------------------------------------------


@pytest.mark.parametrize("factory", CONFIG_FACTORIES,
                         ids=lambda f: f.__name__)
def test_bit_exact_replay_all_configs(world, factory):
    original = _replay(world, world.tea, config=factory())
    minimized = _replay(world, world.result.tea, config=factory())
    assert original == minimized


@pytest.mark.parametrize("engine", ("compiled", "jit"))
def test_bit_exact_replay_compiled_and_jit(world, engine):
    original = _replay(world, world.tea, engine=engine)
    minimized = _replay(world, world.result.tea, engine=engine)
    assert original == minimized


def test_aggressive_exact_under_no_local_configs(world):
    aggressive = minimize_tea(world.tea, mode="aggressive")
    assert aggressive.states_after <= world.result.states_after
    for factory in (ReplayConfig.global_no_local,
                    ReplayConfig.no_global_no_local):
        original = _replay(world, world.tea, config=factory())
        minimized = _replay(world, aggressive.tea, config=factory())
        assert original == minimized


def test_lockstep_differential_exact(world):
    checker = check_minimization(world.program, world.trace_set,
                                 world.tea, world.result.tea)
    assert checker.steps > 0
    assert checker.is_equivalent, checker.divergences[:3]
    assert checker.stats_match()
    checker.raise_on_divergence()


def test_lockstep_differential_small_program():
    program = assemble(NESTED_DIAMOND_SOURCE)
    trace_set = record_traces(program, strategy="tt").trace_set
    tea = build_tea(trace_set)
    result = minimize_tea(tea)
    assert result.merged > 0
    for factory in CONFIG_FACTORIES:
        checker = check_minimization(program, trace_set, tea, result.tea,
                                     config=factory())
        assert checker.is_equivalent
        assert checker.stats_match()


# ---------------------------------------------------------------------
# budgeted mode
# ---------------------------------------------------------------------


def test_budget_spills_and_verifies(world):
    floor = 1 + world.tea.n_traces
    budget = min(floor + 4, world.result.states_after - 1)
    result = minimize_tea(world.tea, budget=budget)
    assert result.budget == budget
    assert result.tea.n_states <= budget
    assert result.spilled
    assert list(result.tea.heads) == list(world.tea.heads)
    for sid in result.spilled:
        assert result.state_map[sid] is None
    report = verify_minimization(result, trace_set=world.trace_set)
    assert report.ok(strict=True), report.render_text()


def test_budget_uses_its_allowance(world):
    # Greedy frontier growth must actually reach the budget when there
    # are enough reachable classes to keep.
    floor = 1 + world.tea.n_traces
    budget = floor + 6
    result = minimize_tea(world.tea, budget=budget)
    assert result.tea.n_states == budget


def test_budget_replay_is_lossy_but_ordered(world):
    floor = 1 + world.tea.n_traces
    result = minimize_tea(world.tea, budget=floor + 4)
    checker = check_minimization(world.program, world.trace_set,
                                 world.tea, result.tea, lossy=True)
    assert checker.is_equivalent, checker.divergences[:3]
    # Spilling costs coverage; it must never add it.
    _, coverage_min, _ = _replay(world, result.tea)
    _, coverage_full, _ = _replay(world, world.tea)
    assert coverage_min <= coverage_full


def test_budget_hotness_ranks_spill_victims(world):
    floor = 1 + world.tea.n_traces
    hotness = {state.sid: state.sid for state in world.tea.states}
    result = minimize_tea(world.tea, budget=floor + 4, hotness=hotness)
    assert result.tea.n_states <= floor + 4
    report = verify_minimization(result, trace_set=world.trace_set)
    assert report.ok(strict=True)


# ---------------------------------------------------------------------
# verify-rule negatives (a broken pass must not verify)
# ---------------------------------------------------------------------


def test_tea052_catches_tampered_state_map(world):
    result = minimize_tea(world.tea)
    victim = next(
        sid for sid in range(2, world.tea.n_states)
        if result.state_map[sid] is not None
        and world.tea.states[sid].tbb.start
        != result.tea.states[result.state_map[1]].tbb.start
    )
    result.state_map[victim] = result.state_map[1]
    report = verify_minimization(result, trace_set=world.trace_set)
    assert not report.ok()
    assert "TEA052" in report.rule_ids


def test_tea051_catches_dropped_transition(world):
    result = minimize_tea(world.tea)
    # Rip one transition out of a minimized head state: sampled walks
    # that used to stay in-trace now fall to NTE.
    state = next(
        head for head in result.tea.heads.values() if head.transitions
    )
    state.transitions.pop(min(state.transitions))
    report = verify_minimization(result, trace_set=world.trace_set)
    assert not report.ok()
    assert "TEA051" in report.rule_ids or "TEA052" in report.rule_ids


def test_tea053_catches_budget_overrun(world):
    floor = 1 + world.tea.n_traces
    result = minimize_tea(world.tea, budget=floor + 4)
    result.budget = result.tea.n_states - 1  # claim a cap it exceeds
    report = verify_minimization(result, trace_set=world.trace_set)
    assert not report.ok()
    assert "TEA053" in report.rule_ids


# ---------------------------------------------------------------------
# serialization, store round-trip, provenance, gc
# ---------------------------------------------------------------------


def test_minimized_teab_round_trip(world):
    result = world.result
    data = dump_tea_binary(world.trace_set, tea=result.tea,
                           meta={"benchmark": BENCHMARK, "scale": SCALE})
    index = BlockIndex(world.program)
    _traces, reloaded, _profile = load_tea_binary(data, index)
    assert reloaded.n_states == result.tea.n_states
    assert reloaded.n_transitions == result.tea.n_transitions
    # TEAB canonicalizes the head run sorted by entry.
    assert list(reloaded.heads) == sorted(result.tea.heads)
    assert set(reloaded.heads) == set(result.tea.heads)
    compiled = compile_tea_binary(data, verify=False)
    assert compiled.n_states == result.tea.n_states


def test_store_put_minimized_provenance(world, tmp_path):
    store = AutomatonStore(tmp_path / "store")
    meta = {"benchmark": BENCHMARK, "scale": SCALE, "label": "w"}
    key = store.put(world.trace_set, tea=world.tea, meta=meta)
    new_key, result = store.put_minimized(key)
    assert new_key != key
    assert result.states_after == world.result.states_after
    info = peek_tea_binary(store.get_bytes(new_key))
    assert info["meta"]["minimized_from"] == key
    assert info["meta"]["minimize"]["states_after"] == result.states_after
    assert info["meta"]["label"] == "w-min"
    assert info["states"] == result.states_after
    # The minimized snapshot loads back through the verify gate.
    _traces, reloaded, _ = store.load(new_key, BlockIndex(world.program))
    assert reloaded.n_states == result.states_after
    counters = store.obs.metrics.counters()
    assert counters["minimize.runs"] == 1


def test_tea050_catches_tampered_provenance(world):
    bad_origin = dump_tea_binary(
        world.trace_set, tea=world.result.tea,
        meta={"minimized_from": "nope", "minimize":
              world.result.describe()},
    )
    report = verify_snapshot_bytes(bad_origin)
    assert not report.ok()
    assert "TEA050" in report.rule_ids

    summary = dict(world.result.describe(), states_after=3)
    bad_counts = dump_tea_binary(
        world.trace_set, tea=world.result.tea,
        meta={"minimized_from": "a" * 64, "minimize": summary},
    )
    report = verify_snapshot_bytes(bad_counts)
    assert not report.ok()
    assert "TEA050" in report.rule_ids


def test_tea050_accepts_real_provenance(world, tmp_path):
    store = AutomatonStore(tmp_path / "store")
    key = store.put(world.trace_set, tea=world.tea,
                    meta={"benchmark": BENCHMARK, "scale": SCALE})
    new_key, _result = store.put_minimized(key)
    report = verify_snapshot_bytes(store.get_bytes(new_key))
    assert report.ok(strict=True), report.render_text()
    assert "TEA050" in report.rules_run


def test_store_gc_prunes_orphaned_jit_caches(world, tmp_path):
    """JIT sources older stores cached next to snapshots are removed by
    ``gc`` whether or not their snapshot is still present."""
    store = AutomatonStore(tmp_path / "store")
    meta = {"benchmark": BENCHMARK, "scale": SCALE}
    key_a = store.put(world.trace_set, tea=world.tea, meta=meta)
    key_b, _ = store.put_minimized(key_a)
    leftovers = []
    for key in (key_a, key_b):
        path = os.path.join(os.path.dirname(store.path_for(key)),
                            key + ".bptree-o8-direct16.jit.py")
        with open(path, "w") as handle:
            handle.write("# left behind by an older store\n")
        leftovers.append(path)
    os.unlink(store.path_for(key_a))
    assert store.gc() == 2
    assert not any(os.path.exists(path) for path in leftovers)
    assert store.keys() == [key_b]
    assert store.obs.metrics.counters()["store.gc_removed"] == 2
    assert store.gc() == 0  # idempotent


def test_describe_snapshot_reports_mergeable_estimate(world, tmp_path):
    path = tmp_path / "world.teab"
    path.write_bytes(dump_tea_binary(world.trace_set, tea=world.tea))
    info = describe_snapshot(str(path))
    aggressive = minimize_tea(world.tea, mode="aggressive")
    assert info["mergeable_estimate"] >= aggressive.merged
    min_path = tmp_path / "min.teab"
    min_path.write_bytes(
        dump_tea_binary(world.trace_set, tea=aggressive.tea)
    )
    assert (describe_snapshot(str(min_path))["mergeable_estimate"]
            <= info["mergeable_estimate"])
