"""Property test: batched ``TeaReplayer.run()`` == per-call ``step()``.

For randomized programs (random kernel mixes through the workload
generator) and **all four global-index kinds**, the batched replay
engine must account identically to the per-call engine:

- every ``replay.*`` event counter is equal **exactly** (they are
  integers — any drift is a real accounting bug);
- slow-path cost categories (``cache``, ``directory``, ``enter``) are
  equal **bit-for-bit**: ``run()`` charges them per event inside
  ``_leave_trace``/``_probe``, in the same order as ``step()``, so even
  float summation order matches.  That includes the ``CACHE_MISS``
  charge for failed local-cache probes (the PR 1 bugfix) — the local
  cache is deliberately squeezed (size 1-4) so misses actually happen;
- hot-path categories (``callback``, ``transition``) are equal up to
  float re-association: ``run()`` batches them as one multiply per
  flush, so only the summation order differs.
"""

from hypothesis import given, settings, strategies as st

from repro.core import ReplayConfig, TeaReplayer, build_tea
from repro.dbt import StarDBT
from repro.dbt.cost import CostModel
from repro.traces.recorder import RecorderLimits
from repro.workloads import BenchmarkSpec, build_workload_program

from tests.conftest import recorded_transitions

INDEX_KINDS = ("bptree", "list", "hash", "sorted")

#: Exactly-equal cost categories (charged per event on the slow path,
#: identical order in both engines).
EXACT_CATEGORIES = ("cache", "directory", "enter")


@st.composite
def kernel_descriptors(draw):
    kind = draw(st.sampled_from(
        ["branchy_loop", "counted_nest", "switch_loop", "call_loop"]
    ))
    if kind == "branchy_loop":
        return {
            "kind": kind,
            "iters": draw(st.integers(25, 70)),
            "diamonds": draw(st.integers(1, 3)),
            "body_ops": draw(st.integers(2, 5)),
        }
    if kind == "counted_nest":
        return {
            "kind": kind,
            "depth": 2,
            "outer_iters": draw(st.integers(4, 8)),
            "inner_iters": draw(st.integers(4, 9)),
            "body_ops": draw(st.integers(3, 6)),
        }
    if kind == "switch_loop":
        return {
            "kind": kind,
            "iters": draw(st.integers(25, 50)),
            "cases": draw(st.integers(2, 5)),
            "case_ops": draw(st.integers(2, 4)),
        }
    return {
        "kind": "call_loop",
        "iters": draw(st.integers(25, 50)),
        "n_funcs": draw(st.integers(2, 4)),
        "func_ops": draw(st.integers(3, 6)),
        "indirect": draw(st.booleans()),
    }


@st.composite
def replay_workloads(draw):
    """(transitions, tea, cache_kind, cache_size) for a random program."""
    kernels = draw(st.lists(kernel_descriptors(), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**20))
    spec = BenchmarkSpec("prop.%d" % seed, "int", seed, kernels)
    program = build_workload_program(spec).program

    limits = RecorderLimits(hot_threshold=10)
    trace_set = StarDBT(program, strategy="mret", limits=limits).run().trace_set
    transitions = recorded_transitions(program)
    cache_kind = draw(st.sampled_from(["direct", "lru"]))
    cache_size = draw(st.integers(1, 4))
    return transitions, build_tea(trace_set), cache_kind, cache_size


def _drive(tea, transitions, config, batched, chunk=None):
    replayer = TeaReplayer(tea, config=config)
    if not batched:
        for transition in transitions:
            replayer.step(transition.next_start, transition.instrs_dbt,
                           transition.instrs_pin)
    elif chunk:
        for start in range(0, len(transitions), chunk):
            replayer.run(transitions[start:start + chunk])
    else:
        replayer.run(transitions)
    return replayer


def _assert_equivalent(reference, candidate):
    assert candidate.state is reference.state
    assert candidate.stats.as_dict() == reference.stats.as_dict()
    for category in EXACT_CATEGORIES:
        assert (candidate.cost.breakdown.get(category, 0.0)
                == reference.cost.breakdown.get(category, 0.0)), category
    for category, cycles in reference.cost.breakdown.items():
        got = candidate.cost.breakdown.get(category, 0.0)
        assert abs(got - cycles) <= 1e-9 * max(abs(cycles), 1.0), category
    assert (abs(candidate.cost.cycles - reference.cost.cycles)
            <= 1e-9 * max(reference.cost.cycles, 1.0))


@settings(max_examples=12, deadline=None)
@given(workload=replay_workloads(), chunk=st.integers(16, 400))
def test_batched_run_matches_step_for_all_index_kinds(workload, chunk):
    transitions, tea, cache_kind, cache_size = workload
    for kind in INDEX_KINDS:
        def config(kind=kind):
            return ReplayConfig(
                global_index=kind, local_cache=True,
                cache_kind=cache_kind, cache_size=cache_size,
            )
        stepwise = _drive(tea, transitions, config(), batched=False)
        batched = _drive(tea, transitions, config(), batched=True)
        _assert_equivalent(stepwise, batched)
        chunked = _drive(tea, transitions, config(), batched=True,
                         chunk=chunk)
        _assert_equivalent(stepwise, chunked)


@settings(max_examples=6, deadline=None)
@given(workload=replay_workloads())
def test_batched_run_matches_step_without_local_cache(workload):
    transitions, tea, _, _ = workload
    for kind in INDEX_KINDS:
        def config(kind=kind):
            return ReplayConfig(global_index=kind, local_cache=False)
        stepwise = _drive(tea, transitions, config(), batched=False)
        batched = _drive(tea, transitions, config(), batched=True)
        _assert_equivalent(stepwise, batched)
        assert batched.stats.cache_hits == 0
        assert batched.stats.cache_misses == 0
        assert "cache" not in batched.cost.breakdown


def test_cache_miss_charges_match_exactly(nested_program, nested_traces):
    """Deterministic anchor: a size-1 cache guarantees CACHE_MISS traffic.

    Property runs can, in principle, draw workloads whose local caches
    never miss; this fixture-based case pins the miss path down
    unconditionally so the ``CACHE_MISS`` accounting is always covered.
    """
    transitions = recorded_transitions(nested_program)
    tea = build_tea(nested_traces)
    def config():
        return ReplayConfig(global_index="bptree", local_cache=True,
                            cache_kind="lru", cache_size=1)
    stepwise = _drive(tea, transitions, config(), batched=False)

    # Re-drive stepwise with every individual "cache" charge recorded,
    # so the batched total can be checked against the true event stream
    # rather than a reconstruction from aggregate counters (directory
    # hits reached from the NTE state carry no CACHE_INSERT, so the
    # aggregates alone under-determine the insert count).
    charges = []

    class RecordingCostModel(CostModel):
        def charge(self, category, cycles):
            if category == "cache":
                charges.append(cycles)
            CostModel.charge(self, category, cycles)

    audited = TeaReplayer(tea, config=config(), cost=RecordingCostModel())
    for transition in transitions:
        audited.step(transition.next_start, transition.instrs_dbt,
                      transition.instrs_pin)

    batched = _drive(tea, transitions, config(), batched=True)
    assert stepwise.stats.cache_misses > 0
    _assert_equivalent(stepwise, batched)
    params = stepwise.cost.params
    assert charges.count(params.CACHE_MISS) >= stepwise.stats.cache_misses
    assert batched.cost.breakdown["cache"] == sum(charges)