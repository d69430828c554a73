"""The TEA diff subsystem (``repro.compare``) — library and RPC.

Covers the alignment semantics (self-diff is identical, including
across object/compiled representations), counters that add up to each
side's totals, and the ``diff`` RPC on the replay service with replay
deltas.
"""

import pytest

from tests.conftest import record_traces
from repro.compare import TeaDiff, diff_automata, replay_delta
from repro.core import build_tea
from repro.obs import Observability
from repro.service.protocol import E_PARAMS, E_SNAPSHOT, ServiceError
from repro.service.testing import ServiceThread
from repro.store import AutomatonStore, compile_tea_binary, dump_tea_binary
from repro.workloads import load_benchmark

BENCHMARK = "181.mcf"
SCALE = 0.3


class _World:
    """Two recordings of one benchmark plus a store with both (and a
    minimized third) preloaded for the service tests."""

    def __init__(self, root):
        self.program = load_benchmark(BENCHMARK, scale=SCALE).program
        self.traces_tt = record_traces(self.program, strategy="tt").trace_set
        self.traces_mret = record_traces(
            self.program, strategy="mret"
        ).trace_set
        self.tea_tt = build_tea(self.traces_tt)
        self.tea_mret = build_tea(self.traces_mret)
        self.store = AutomatonStore(root)
        meta = {"benchmark": BENCHMARK, "scale": SCALE}
        self.key_tt = self.store.put(
            self.traces_tt, tea=self.tea_tt, meta=dict(meta, label="tt"),
            program=self.program,
        )
        self.key_mret = self.store.put(
            self.traces_mret, tea=self.tea_mret,
            meta=dict(meta, label="mret"), program=self.program,
        )
        self.key_min, self.minimized = self.store.put_minimized(self.key_tt)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return _World(tmp_path_factory.mktemp("compare") / "store")


# ---------------------------------------------------------------------
# library semantics
# ---------------------------------------------------------------------


def test_self_diff_is_identical(world):
    diff = diff_automata(world.tea_tt, world.tea_tt)
    assert isinstance(diff, TeaDiff)
    assert diff.identical
    assert diff.similarity == 1.0
    assert diff.states["removed"] == diff.states["added"] == 0
    assert diff.matching[0] == 0  # NTE always pairs with NTE
    assert diff.states["matched"] == world.tea_tt.n_states


def test_self_diff_across_representations(world):
    data = dump_tea_binary(world.traces_tt, tea=world.tea_tt)
    compiled = compile_tea_binary(data, verify=False)
    diff = diff_automata(world.tea_tt, compiled,
                         label_a="object", label_b="compiled")
    assert diff.identical
    assert diff.similarity == 1.0


def assert_counters_add_up(diff):
    """Each side's totals split into matched, removed or added, and
    retargeted entries; the similarity is a fraction."""
    report = diff.to_json()
    states = report["states"]
    assert states["matched"] + states["removed"] == report["a"]["states"]
    assert states["matched"] + states["added"] == report["b"]["states"]
    for section in ("transitions", "heads"):
        body = report[section]
        assert (body["matched"] + body["removed"] + body["retargeted"]
                == report["a"][section]), section
        assert (body["matched"] + body["added"] + body["retargeted"]
                == report["b"][section]), section
    assert 0.0 <= report["similarity"] <= 1.0
    assert report["identical"] == (
        states["matched"] == report["a"]["states"] == report["b"]["states"]
        and not any(report[section][field]
                    for section in ("transitions", "heads")
                    for field in ("removed", "added", "retargeted")))


def test_diff_of_different_recordings(world):
    diff = diff_automata(world.tea_tt, world.tea_mret,
                         label_a="tt", label_b="mret")
    assert not diff.identical
    assert 0.0 < diff.similarity < 1.0
    assert diff.a["states"] == world.tea_tt.n_states
    assert diff.b["states"] == world.tea_mret.n_states
    assert_counters_add_up(diff)


def test_diff_original_vs_minimized(world):
    diff = diff_automata(world.tea_tt, world.minimized.tea)
    assert not diff.identical
    # Minimization only removes: nothing may appear on the b side.
    assert diff.states["added"] == 0
    assert diff.states["removed"] == world.minimized.merged
    assert diff.heads["matched"] == world.tea_tt.n_traces
    assert_counters_add_up(diff)


def test_diff_detects_retargeted_transition(world):
    mutated = build_tea(world.traces_tt)
    state = next(
        s for s in mutated.states[1:]
        if s.transitions and s not in mutated.heads.values()
    )
    label = min(state.transitions)
    old_dest = state.transitions[label]
    new_dest = next(
        head for head in mutated.heads.values()
        if head.sid != old_dest.sid
    )
    state.transitions[label] = new_dest
    diff = diff_automata(world.tea_tt, mutated)
    assert not diff.identical
    assert diff.transitions["retargeted"] >= 1
    assert_counters_add_up(diff)


def test_render_text_shape(world):
    diff = diff_automata(world.tea_tt, world.minimized.tea,
                         label_a="full", label_b="minimized")
    text = diff.render_text()
    assert "tea diff: full vs minimized" in text
    assert "similarity:" in text
    assert "only in full:" in text
    json_shape = diff.to_json()
    assert json_shape["a"]["label"] == "full"
    assert json_shape["states"]["removed_names"]


def test_diff_metrics(world):
    obs = Observability()
    diff_automata(world.tea_tt, world.minimized.tea, obs=obs)
    counters = obs.metrics.counters()
    assert counters["compare.runs"] == 1
    assert counters["compare.states_removed"] == world.minimized.merged


def test_replay_delta_arithmetic():
    a = {"cycles": 100, "coverage_pin": 0.5, "ok": True,
         "stats": {"blocks": 10, "hits": 4}, "label": "a"}
    b = {"cycles": 140, "coverage_pin": 0.5, "ok": False,
         "stats": {"blocks": 12, "hits": 4}, "label": "b"}
    delta = replay_delta(a, b)
    assert delta["cycles"] == 40
    assert delta["coverage_pin"] == 0.0
    assert "ok" not in delta  # bools are not numbers
    assert "label" not in delta
    assert delta["stats"] == {"blocks": 2, "hits": 0}


# ---------------------------------------------------------------------
# service RPC
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def service(world):
    with ServiceThread(world.store) as service:
        yield service


def test_rpc_diff_by_label(world, service):
    with service.client(timeout=120.0) as client:
        result = client.diff("mret", a="tt")
    assert result["snapshot_a"] == world.key_tt
    assert result["snapshot_b"] == world.key_mret
    assert result["a"]["label"] == "tt"
    assert result["b"]["label"] == "mret"
    assert not result["identical"]
    direct = diff_automata(world.tea_tt, world.tea_mret)
    assert result["similarity"] == direct.similarity
    assert result["states"] == direct.to_json()["states"]


def test_rpc_self_diff_identical(world, service):
    with service.client(timeout=120.0) as client:
        result = client.diff("tt", a="tt")
    assert result["identical"]
    assert result["similarity"] == 1.0


def test_rpc_diff_with_replay_delta(world, service):
    with service.client(timeout=120.0) as client:
        result = client.diff("tt-min", a="tt", replay=True)
    assert not result["identical"]
    replay = result["replay"]
    # Exact-mode minimization: the full accounting is bit-identical,
    # so every delta — cycles, coverage, each stats counter — is zero.
    assert replay["a"]["cycles"] > 0
    assert replay["delta"]["cycles"] == 0
    assert replay["delta"]["coverage_pin"] == 0
    assert all(value == 0 for value in replay["delta"]["stats"].values())


def test_rpc_diff_missing_b_is_bad_params(service):
    with service.client(timeout=120.0) as client:
        with pytest.raises(ServiceError) as err:
            client.call("diff", snapshot="tt")
    assert err.value.code == E_PARAMS


def test_rpc_diff_ambiguous_default_is_bad_params(service):
    with service.client(timeout=120.0) as client:
        with pytest.raises(ServiceError) as err:
            client.call("diff", b="mret")
    assert err.value.code == E_PARAMS


def test_rpc_diff_unknown_b_is_unknown_snapshot(service):
    with service.client(timeout=120.0) as client:
        with pytest.raises(ServiceError) as err:
            client.diff("nonesuch", a="tt")
    assert err.value.code == E_SNAPSHOT
