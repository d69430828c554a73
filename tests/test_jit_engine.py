"""Differential suite: the specializing JIT engine vs compiled vs step().

The JIT tier (:mod:`repro.core.jit`) generates one Python module per
``CompiledTea`` — dispatch lowered against baked transition labels and
cost literals — and its whole contract is the compiled engine's,
transitively ``step()``'s: *bit-identical accounting* (every
``replay.*`` counter, the full cost breakdown bit-for-bit, the same
final sid and coverage), plus three obligations of its own:

- the guard/deopt protocol (threshold deopts hand the batch remainder
  to a compiled fallback mid-stream without losing a single count);
- the code guards (a ``JitCode`` built for another automaton, config
  or cost parameters is regenerated, never bound);
- ``reset``/``register_trace`` semantics matching the other engines.

Checked across hypothesis-random programs, all four Table 4
configurations and chunked batches (Pin hands over 4096-block batches,
so mid-stream state carry matters).  No production caller hosts the
JIT: it is reachable only from these tests and
``benchmarks/bench_jit_engine.py``.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CompiledReplayer,
    CompiledTea,
    JitCode,
    JitReplayer,
    ReplayConfig,
    TeaReplayer,
    build_tea,
    generate_replay_source,
)
from repro.core.automaton import NTE_SID
from repro.core.compiled import PackedBatch
from repro.core.jit import (
    DEFAULT_SPECIALIZE_THRESHOLD,
    jit_config_token,
    params_token,
    specialize_tables,
    structural_digest,
)
from repro.dbt.cost import CostModel
from repro.pin import pack_transitions
from repro.store import AutomatonStore

from tests.conftest import record_traces, recorded_transitions
from tests.test_batch_equivalence import replay_workloads
from tests.test_compiled_engine import TABLE4_CONFIGS

pytestmark = []


def _capture(program):
    return recorded_transitions(program)


def _stepwise(tea, transitions, config):
    replayer = TeaReplayer(tea, config=config)
    for transition in transitions:
        replayer.step(transition.next_start, transition.instrs_dbt,
                       transition.instrs_pin)
    return replayer


def _compiled(compiled_tea, packed, config):
    replayer = CompiledReplayer(compiled_tea, config=config)
    replayer.run(PackedBatch(packed))
    return replayer


def _jit(compiled_tea, packed, config, chunk=None, **kwargs):
    replayer = JitReplayer(compiled_tea, config=config, **kwargs)
    if chunk:
        step = 3 * chunk
        for start in range(0, len(packed), step):
            replayer.run(PackedBatch(packed[start:start + step]))
    else:
        replayer.run(PackedBatch(packed))
    return replayer


def _assert_identical(reference, candidate):
    """Stats, final state, coverage and *whole* cost model, bit-exact.

    ``reference`` is a CompiledReplayer or TeaReplayer; ``candidate``
    the JIT replayer under test.
    """
    ref_sid = getattr(getattr(reference, "state", None), "sid",
                      getattr(reference, "sid", None))
    assert candidate.stats.as_dict() == reference.stats.as_dict()
    assert candidate.sid == ref_sid
    assert candidate.coverage() == reference.stats.coverage()
    assert candidate.cost.breakdown == reference.cost.breakdown
    assert candidate.cost.cycles == reference.cost.cycles
    assert candidate.directory.probes == reference.directory.probes
    assert candidate.directory.units == reference.directory.units
    gauges = [replayer.snapshot()["metrics"]["gauges"]
              for replayer in (reference, candidate)]
    for name in ("replay.local_caches", "replay.local_cache_hits",
                 "replay.local_cache_misses"):
        assert gauges[1][name] == gauges[0][name], name


# ---------------------------------------------------------------------
# property-based differential tests
# ---------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(workload=replay_workloads(), chunk=st.integers(16, 400))
def test_jit_matches_compiled_and_step(workload, chunk):
    transitions, tea, cache_kind, cache_size = workload
    compiled_tea = CompiledTea.from_tea(tea)
    packed = pack_transitions(transitions)
    config = ReplayConfig(
        global_index="bptree", local_cache=True,
        cache_kind=cache_kind, cache_size=cache_size,
    )
    reference = _stepwise(tea, transitions, config)
    compiled = _compiled(compiled_tea, packed, config)
    one_batch = _jit(compiled_tea, packed, config)
    _assert_identical(reference, one_batch)
    _assert_identical(compiled, one_batch)
    chunked = _jit(compiled_tea, packed, config, chunk=chunk)
    _assert_identical(reference, chunked)


@settings(max_examples=5, deadline=None)
@given(workload=replay_workloads(), threshold=st.integers(0, 2))
def test_jit_deopt_matches_compiled(workload, threshold):
    """Squeezed thresholds force mid-batch deopt; accounting must not
    lose a single count across the handover."""
    transitions, tea, cache_kind, cache_size = workload
    compiled_tea = CompiledTea.from_tea(tea)
    packed = pack_transitions(transitions)
    config = ReplayConfig(
        global_index="list", local_cache=True,
        cache_kind=cache_kind, cache_size=cache_size,
    )
    reference = _compiled(compiled_tea, packed, config)
    candidate = _jit(compiled_tea, packed, config, threshold=threshold)
    _assert_identical(reference, candidate)
    if candidate.deopted:
        assert candidate.deopt_reason == "specialization threshold"
        snap = candidate.snapshot()
        assert snap["metrics"]["counters"]["replay.jit_deopts"] == 1
        assert snap["metrics"]["gauges"]["replay.jit_active"] is False


# ---------------------------------------------------------------------
# fixture-anchored differential tests (deterministic)
# ---------------------------------------------------------------------

def test_jit_matches_both_engines_across_table4_configs(nested_program):
    trace_set = record_traces(nested_program).trace_set
    tea = build_tea(trace_set)
    compiled_tea = CompiledTea.from_tea(tea)
    transitions = _capture(nested_program)
    packed = pack_transitions(transitions)
    for name, factory in TABLE4_CONFIGS.items():
        reference = _stepwise(tea, transitions, factory())
        compiled = _compiled(compiled_tea, packed, factory())
        candidate = _jit(compiled_tea, packed, factory())
        _assert_identical(reference, candidate)
        _assert_identical(compiled, candidate)
        assert candidate.stats.blocks == len(transitions), name
        assert not candidate.deopted, name


def test_jit_snapshot_gauges_match_compiled(nested_program):
    trace_set = record_traces(nested_program).trace_set
    compiled_tea = CompiledTea.from_tea(build_tea(trace_set))
    packed = pack_transitions(_capture(nested_program))
    config = ReplayConfig.global_local
    reference = _compiled(compiled_tea, packed, config())
    candidate = _jit(compiled_tea, packed, config())
    ref_gauges = reference.snapshot()["metrics"]["gauges"]
    jit_gauges = candidate.snapshot()["metrics"]["gauges"]
    for gauge in ("replay.directory.kind", "replay.directory.size",
                  "replay.directory.probes", "replay.directory.units",
                  "replay.local_caches", "replay.local_cache_hits",
                  "replay.local_cache_misses", "replay.config"):
        assert jit_gauges[gauge] == ref_gauges[gauge], gauge
    assert jit_gauges["replay.engine"] == "jit"
    assert jit_gauges["replay.jit_active"] is True
    assert jit_gauges["replay.jit_code_digest"] == \
        structural_digest(compiled_tea)[:12]
    assert jit_gauges["replay.jit_specialized_states"] \
        + jit_gauges["replay.jit_deopt_states"] == compiled_tea.n_states


def test_jit_reset_semantics(nested_program):
    trace_set = record_traces(nested_program).trace_set
    compiled_tea = CompiledTea.from_tea(build_tea(trace_set))
    packed = pack_transitions(_capture(nested_program))
    config = ReplayConfig.global_local

    # clear_caches=True: full rewind — replay again, counts double vs
    # a single pass but each pass accounts identically.
    once = _jit(compiled_tea, packed, config())
    baseline = once.stats.as_dict()
    again = _jit(compiled_tea, packed, config())
    again.reset(clear_caches=True)
    assert again.sid == NTE_SID
    again.run(PackedBatch(packed))
    ref = CompiledReplayer(compiled_tea, config=config())
    ref.run(PackedBatch(packed))
    ref.reset(clear_caches=True)
    ref.run(PackedBatch(packed))
    assert again.stats.as_dict() == ref.stats.as_dict()
    assert again.stats.blocks == 2 * baseline["blocks"]

    # clear_caches=False: warm caches survive with their stats, so the
    # second pass hits more — exactly like the compiled engine.
    warm_jit = _jit(compiled_tea, packed, config())
    warm_ref = _compiled(compiled_tea, packed, config())
    warm_jit.reset(clear_caches=False)
    warm_ref.reset(clear_caches=False)
    warm_jit.run(PackedBatch(packed))
    warm_ref.run(PackedBatch(packed))
    assert warm_jit.stats.as_dict() == warm_ref.stats.as_dict()
    assert warm_jit.cost.breakdown == warm_ref.cost.breakdown


def test_jit_reset_rearms_after_threshold_deopt(nested_program):
    trace_set = record_traces(nested_program).trace_set
    compiled_tea = CompiledTea.from_tea(build_tea(trace_set))
    packed = pack_transitions(_capture(nested_program))
    replayer = _jit(compiled_tea, packed, ReplayConfig.global_local(),
                    threshold=0)
    assert replayer.deopted
    replayer.reset(clear_caches=True)
    assert not replayer.deopted
    assert replayer.sid == NTE_SID
    # Immediately deopts again, still bit-exact.
    replayer.run(PackedBatch(packed))
    assert replayer.deopted
    assert replayer.stats.blocks == 2 * (len(packed) // 3)


def test_jit_register_trace_invalidates_memo(nested_program, call_loop_program):
    """A trace registered mid-replay must be findable — and the
    directory memo flushed — exactly as under the compiled engine."""
    trace_set = record_traces(nested_program).trace_set
    compiled_tea = CompiledTea.from_tea(build_tea(trace_set))
    transitions = _capture(nested_program)
    half = len(transitions) // 2
    first = pack_transitions(transitions[:half])
    second = pack_transitions(transitions[half:])
    config = ReplayConfig.global_local

    jit = JitReplayer(compiled_tea, config=config())
    ref = CompiledReplayer(compiled_tea, config=config())
    jit.run(PackedBatch(first))
    ref.run(PackedBatch(first))
    assert len(jit._dir_memo) > 0
    # Register a synthetic head: entry PC nobody uses, routed to an
    # existing in-trace state.  Insertion reshapes the directory, so
    # the probe-unit memo must drop wholesale.
    fake_entry = max(compiled_tea.labels) + 0x1000
    target = compiled_tea.head_sids[0]
    jit.register_trace(fake_entry, target)
    ref.register_trace(fake_entry, target)
    assert jit._dir_memo == {}
    jit.run(PackedBatch(second))
    ref.run(PackedBatch(second))
    assert jit.stats.as_dict() == ref.stats.as_dict()
    assert jit.cost.breakdown == ref.cost.breakdown
    assert len(jit.directory) == len(ref.directory)


# ---------------------------------------------------------------------
# codegen and the source format
# ---------------------------------------------------------------------

def test_generated_source_header_and_determinism(nested_traces):
    compiled_tea = CompiledTea.from_tea(build_tea(nested_traces))
    config = ReplayConfig.global_local()
    params = CostModel().params
    source = generate_replay_source(compiled_tea, config=config,
                                    params=params)
    header = source.split("\n", 1)[0]
    for field in ("digest=%s" % structural_digest(compiled_tea),
                  "config=%s" % jit_config_token(config),
                  "params=%s" % params_token(params),
                  "threshold=%d" % DEFAULT_SPECIALIZE_THRESHOLD):
        assert field in header.split()
    code = JitCode.from_compiled(compiled_tea, config=config, params=params)
    assert code.digest == structural_digest(compiled_tea)
    assert code.config_token == jit_config_token(config)
    assert code.params_token == params_token(params)
    assert code.threshold == DEFAULT_SPECIALIZE_THRESHOLD
    # Same automaton + config + params => byte-identical source.
    assert source == code.source
    assert source == generate_replay_source(compiled_tea, config=config,
                                            params=params)


def test_jit_code_guards(nested_traces, simple_loop_program):
    compiled_tea = CompiledTea.from_tea(build_tea(nested_traces))
    other = CompiledTea.from_tea(
        build_tea(record_traces(simple_loop_program).trace_set))
    config = ReplayConfig.global_local()
    code = JitCode.from_compiled(compiled_tea, config=config)
    assert code.matches(compiled=compiled_tea, config=config,
                        params=CostModel().params)
    assert not code.matches(compiled=other)
    assert not code.matches(config=ReplayConfig.no_global_no_local())
    from repro.dbt.cost import CostParameters
    drifted = CostParameters(CACHE_MISS=CostModel().params.CACHE_MISS + 1.0)
    assert not code.matches(params=drifted)
    # A replayer given mismatched code silently regenerates: behaviour
    # stays correct and the bound code matches *its* automaton.
    replayer = JitReplayer(other, config=config, code=code)
    assert replayer.code.matches(compiled=other)
    assert not replayer.deopted


def test_specialize_tables_rejects_negative_labels(nested_traces):
    compiled_tea = CompiledTea.from_tea(build_tea(nested_traces))
    import copy
    broken = copy.copy(compiled_tea)
    labels = list(broken.labels)
    labels[0] = -5
    broken.labels = array("q", labels)
    with pytest.raises(ValueError):
        specialize_tables(broken)


# ---------------------------------------------------------------------
# a store-loaded snapshot replays identically under the JIT
# ---------------------------------------------------------------------

def test_store_jit_replays_identically(tmp_path, nested_program):
    recorded = record_traces(nested_program)
    store = AutomatonStore(tmp_path / "store")
    key = store.put(recorded.trace_set)
    config = ReplayConfig.global_local
    compiled = store.get_compiled(key)
    code = JitCode.from_compiled(compiled, config=config())
    packed = pack_transitions(_capture(nested_program))
    candidate = _jit(compiled, packed, config(), code=code)
    reference = _compiled(compiled, packed, config())
    _assert_identical(reference, candidate)
    assert not candidate.deopted   # supplied code bound without regen
    assert candidate.code is code
