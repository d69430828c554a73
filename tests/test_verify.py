"""The static verification subsystem (``repro.verify``).

Hand-corrupted automata, compiled tables and trace sets trip exactly
the rule built to catch them; the seeded TEAB faults and the rules
that catch them are tests/test_rule_matrix.py's.  The gates built on
the snapshot rules (store load, service preload, CLI, SARIF) are
checked here, and so is the cost of a snapshot verify: one scan.  The
round-trip property pins down the other direction: anything the
recorder produces and the store serves verifies clean.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    CALL_LOOP_SOURCE,
    NESTED_DIAMOND_SOURCE,
    SIMPLE_LOOP_SOURCE,
    record_traces,
)
from tests.test_rule_matrix import (
    stale_version,
    traces_overlong_varint,
    transition_labels_unsorted,
)
from repro.core import build_tea
from repro.core.compiled import CompiledTea
from repro.errors import SerializationError, VerificationError
from repro.isa import assemble
from repro.store import AutomatonStore
from repro.store.binary import dump_tea_binary, load_tea_binary
from repro.verify import (
    all_rules,
    default_engine,
    reports_to_sarif,
    rule_by_id,
    verify_compiled,
    verify_snapshot_bytes,
    verify_tea,
    verify_trace_set,
)

# ---------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    program = assemble(NESTED_DIAMOND_SOURCE)
    trace_set = record_traces(program).trace_set
    tea = build_tea(trace_set)
    return program, trace_set, tea


@pytest.fixture(scope="module")
def snapshot(world):
    _, trace_set, tea = world
    return dump_tea_binary(trace_set, tea=tea)


# ---------------------------------------------------------------------
# catalog and engine basics
# ---------------------------------------------------------------------


def test_catalog_is_complete_and_stable():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for family, members in {
        "automaton": ["TEA003", "TEA004", "TEA005"],
        "cfg": ["TEA010", "TEA011"],
        "snapshot": ["TEA020", "TEA021", "TEA022", "TEA023"],
        "compiled": ["TEA030", "TEA032"],
        "traces": ["TEA040", "TEA041", "TEA042", "TEA043"],
    }.items():
        for rule_id in members:
            assert rule_by_id(rule_id).family == family


def test_clean_recording_passes_every_applicable_rule(world):
    program, trace_set, tea = world
    report = verify_tea(tea, trace_set=trace_set, program=program,
                        compiled=CompiledTea.from_tea(tea))
    assert report.ok()
    assert report.diagnostics == []
    # All five families had their facets present.
    assert {"TEA003", "TEA005", "TEA010", "TEA030", "TEA040"} \
        <= set(report.rules_run)


def test_engine_disable_and_obs_counters(world):
    program, trace_set, tea = world
    from repro.obs import Observability

    obs = Observability()
    engine = default_engine(disabled=("TEA003",), obs=obs)
    report = verify_tea(tea, trace_set=trace_set, program=program,
                        engine=engine)
    assert "TEA003" not in report.rules_run
    counters = obs.snapshot()["metrics"]["counters"]
    assert counters["verify.runs"] == 1
    assert counters["verify.rules_run"] == len(report.rules_run)
    assert counters.get("verify.failures", 0) == 0


# ---------------------------------------------------------------------
# one scan per snapshot verify
# ---------------------------------------------------------------------


@pytest.fixture
def count_scans(monkeypatch):
    """Counts calls of ``scan_snapshot``, of the deep blob walk, and of
    the codec's own header parse (``peek``)."""
    from repro.store import binary
    from repro.verify import rules_snapshot

    calls = {"scan": 0, "blobs": 0, "peek": 0}

    def counting(module, name, counter):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[counter] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(rules_snapshot, "scan_snapshot", "scan")
    counting(rules_snapshot, "_scan_blobs", "blobs")
    counting(binary, "peek_tea_binary", "peek")
    return calls


@pytest.mark.parametrize("deep", [False, True])
@pytest.mark.parametrize("fmt", ["golden", "v2"])
def test_snapshot_verify_scans_once(world, snapshot, golden_snapshot,
                                    count_scans, fmt, deep):
    """``v2``: a snapshot verified with its program; ``golden``: the
    golden snapshot verified without one."""
    program, _, _ = world
    data = snapshot if fmt == "v2" else golden_snapshot
    report = verify_snapshot_bytes(
        data, program=program if fmt == "v2" else None, deep=deep)
    assert report.ok()
    assert {"TEA020", "TEA025"} <= set(report.rules_run)
    assert count_scans["scan"] == 1
    # Only a deep scan walks the blobs a snapshot embeds.
    assert count_scans["blobs"] == (1 if deep else 0)
    # Every rule reads the snapshot through that one scan (TEA050's
    # provenance meta included), never through a second parse.
    assert count_scans["peek"] == 0


def test_store_gate_scans_once_per_load(world, snapshot, tmp_path,
                                        count_scans):
    from repro.cfg.basic_block import BlockIndex

    program, _, _ = world
    store = AutomatonStore(tmp_path / "store")
    key = store.put_bytes(snapshot)
    store.load(key, BlockIndex(program))
    store.get_compiled(key)
    assert (count_scans["scan"], count_scans["blobs"]) == (2, 0)


def test_overlong_varint_trips_roundtrip_rule(golden_snapshot,
                                              golden_snapshot_program):
    # An overlong varint decodes to the same value and the CRCs re-seal,
    # so every decoder accepts it — but the bytes are no longer
    # canonical, which breaks content addressing.  Only TEA023 sees it.
    from repro.cfg.basic_block import BlockIndex
    from repro.store.binary import SEC_TRACES, open_v2
    from tests.test_store import assert_same_automaton

    data = traces_overlong_varint(golden_snapshot)
    index = BlockIndex(golden_snapshot_program)
    # The decoder itself is fooled: it reads identical values.
    assert_same_automaton(load_tea_binary(golden_snapshot, index)[1],
                          load_tea_binary(data, index)[1])
    # The deep verify is not.
    report = verify_snapshot_bytes(data)
    assert report.rule_ids == ["TEA023"]
    assert report.errors[0].data["offset"] == open_v2(data)[SEC_TRACES][0]


# ---------------------------------------------------------------------
# automaton / compiled / CFG vectors
# ---------------------------------------------------------------------


def test_nondeterministic_automaton_trips_determinism_rule():
    # Duplicate labels in one state's transition run: constructible
    # (the constructor gate checks structure, not ordering), caught by
    # TEA030's ordering check — a run of strictly increasing labels is
    # what makes the tables a deterministic automaton.
    compiled = CompiledTea(
        3, b"\x00\x01\x01",
        trans_offset=[0, 0, 2, 2],
        trans_labels=[0x10, 0x10], trans_dest=[2, 2],
        head_entries=[0x30], head_sids=[1],
    )
    report = verify_compiled(compiled)
    assert report.rule_ids == ["TEA030"]
    assert "not strictly increasing" in report.errors[0].message


def test_unreachable_state_is_a_warning_and_strict_blocks():
    compiled = CompiledTea(
        3, b"\x00\x01\x01",
        trans_offset=[0, 0, 0, 0],
        trans_labels=[], trans_dest=[],
        head_entries=[0x10], head_sids=[1],   # sid 2 is unreachable
    )
    report = verify_compiled(compiled)
    assert report.rule_ids == ["TEA003"]
    assert report.ok()
    assert not report.ok(strict=True)
    with pytest.raises(VerificationError):
        report.raise_on_error(strict=True)
    report.raise_on_error()   # non-strict: warnings pass


def test_dangling_head_trips_dangling_target_rule():
    with pytest.raises(VerificationError) as excinfo:
        CompiledTea(
            2, b"\x00\x01",
            trans_offset=[0, 0, 0],
            trans_labels=[], trans_dest=[],
            head_entries=[0x10], head_sids=[7],
        )
    assert excinfo.value.rule_ids == ["TEA030"]
    assert isinstance(excinfo.value, ValueError)
    assert isinstance(excinfo.value, SerializationError)


def test_compiled_equivalence_rule_certifies_the_lowering(world):
    _, _, tea = world
    report = verify_compiled(CompiledTea.from_tea(tea), tea=tea)
    assert report.ok()
    assert "TEA032" in report.rules_run


def test_head_registry_mismatch_trips_head_rule(world):
    _, trace_set, _ = world
    tea = build_tea(trace_set)
    entry, head = next(iter(tea.heads.items()))
    del tea.heads[entry]
    tea.heads[entry + 1] = head   # bogus entry, missing real one
    report = verify_tea(tea, trace_set=trace_set)
    assert "TEA005" in report.rule_ids
    messages = " / ".join(d.message for d in report.errors)
    assert "no head registration" in messages
    assert "matches no recorded trace" in messages


def test_fake_cfg_edge_trips_infeasible_edge_rule(world):
    program, _, _ = world
    trace_set = record_traces(program).trace_set
    from repro.verify.rules_cfg import _allowed_labels

    injected = False
    for trace in trace_set:
        for source in trace:
            allowed = _allowed_labels(program, source.block)
            if allowed is None:
                continue
            for target in trace:
                label = target.block.start
                if label not in allowed and label not in source.successors:
                    source.successors[label] = target.index
                    injected = True
                    break
            if injected:
                break
        if injected:
            break
    assert injected, "no infeasible edge candidate in the recording"
    report = verify_trace_set(trace_set, program=program)
    assert report.rule_ids == ["TEA010"]
    assert "cannot reach" in report.errors[0].message


# ---------------------------------------------------------------------
# round-trip property: whatever the store serves verifies clean
# ---------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    source=st.sampled_from(
        [NESTED_DIAMOND_SOURCE, SIMPLE_LOOP_SOURCE, CALL_LOOP_SOURCE]
    ),
    strategy=st.sampled_from(["mret", "tt", "ctt"]),
    hot_threshold=st.sampled_from([5, 10, 30]),
)
def test_store_round_trip_verifies_clean(tmp_path_factory, source,
                                         strategy, hot_threshold):
    program = assemble(source)
    trace_set = record_traces(
        program, strategy=strategy, hot_threshold=hot_threshold
    ).trace_set
    store = AutomatonStore(tmp_path_factory.mktemp("roundtrip"))
    key = store.put(trace_set, meta={"strategy": strategy})
    report = verify_snapshot_bytes(store.get_bytes(key), program=program,
                                   source=key)
    assert report.ok(strict=True)
    assert report.diagnostics == []


# ---------------------------------------------------------------------
# SARIF rendering
# ---------------------------------------------------------------------


def test_sarif_log_shape(snapshot):
    failing = verify_snapshot_bytes(stale_version(snapshot), deep=False,
                                    source="bad.teab")
    clean = verify_snapshot_bytes(snapshot, deep=False,
                                  source="good.teab")
    log = reports_to_sarif([failing, clean], all_rules(),
                           tool_version="1.0.0")
    assert log["version"] == "2.1.0"
    assert log["$schema"].endswith("sarif-2.1.0.json")
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-verify"
    assert driver["version"] == "1.0.0"
    rules = driver["rules"]
    assert [r["id"] for r in rules] == [r.rule_id for r in all_rules()]
    by_id = {r["id"]: r for r in rules}
    assert by_id["TEA003"]["defaultConfiguration"]["level"] == "warning"
    assert by_id["TEA020"]["defaultConfiguration"]["level"] == "error"
    (result,) = run["results"]
    assert result["ruleId"] == "TEA020"
    assert result["level"] == "error"
    assert rules[result["ruleIndex"]]["id"] == "TEA020"
    uri = result["locations"][0]["physicalLocation"]["artifactLocation"]
    assert uri["uri"] == "bad.teab"
    json.dumps(log)   # must be serializable as-is


# ---------------------------------------------------------------------
# store gate
# ---------------------------------------------------------------------


def test_store_load_gate_rejects_noncanonical_snapshot(golden_snapshot,
                                                       golden_snapshot_program,
                                                       tmp_path):
    program = golden_snapshot_program
    bad = transition_labels_unsorted(golden_snapshot)
    store = AutomatonStore(tmp_path / "store")
    key = store.put_bytes(bad)   # envelope + CRCs are fine
    from repro.cfg.basic_block import BlockIndex

    with pytest.raises(VerificationError) as excinfo:
        store.load(key, BlockIndex(program))
    assert excinfo.value.rule_ids == ["TEA024"]
    with pytest.raises(VerificationError):
        store.get_compiled(key)
    counters = store.obs.snapshot()["metrics"]["counters"]
    assert counters["store.verify_failed"] == 2

    trusting = AutomatonStore(tmp_path / "store", verify_on_load=False)
    trace_set, tea, profile = trusting.load(key, BlockIndex(program))
    assert tea.n_states > 1


def test_store_gate_passes_clean_snapshots(world, snapshot, tmp_path):
    program, _, _ = world
    store = AutomatonStore(tmp_path / "store")
    key = store.put_bytes(snapshot)
    from repro.cfg.basic_block import BlockIndex

    store.load(key, BlockIndex(program))
    store.get_compiled(key)
    counters = store.obs.snapshot()["metrics"]["counters"]
    assert counters["store.verify_ok"] == 2
    assert counters.get("store.verify_failed", 0) == 0


# ---------------------------------------------------------------------
# service quarantine: corrupted snapshots degrade to structured errors
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def quarantine_store(tmp_path_factory, golden_snapshot,
                     golden_snapshot_program):
    store = AutomatonStore(tmp_path_factory.mktemp("svc") / "store")
    good_key = store.put_bytes(golden_snapshot,
                               program=golden_snapshot_program)
    bad_key = store.put_bytes(transition_labels_unsorted(golden_snapshot))
    return store, good_key, bad_key


def test_service_preload_quarantines_corrupt_snapshot(quarantine_store):
    from repro.service.server import TeaService

    store, good_key, bad_key = quarantine_store
    service = TeaService(store)
    service.preload()
    assert list(service.entries) == [good_key]
    assert service.invalid[bad_key]["rules"] == ["TEA024"]
    counters = service.obs.snapshot()["metrics"]["counters"]
    assert counters["service.verify_ok"] == 1
    assert counters["service.verify_failed"] == 1


def test_service_rpc_reports_invalid_automaton(quarantine_store):
    from repro.service.protocol import E_INVALID, ServiceError
    from repro.service.testing import ServiceThread

    store, good_key, bad_key = quarantine_store
    with ServiceThread(store) as service:
        with service.client() as client:
            listing = client.call("snapshots")
            assert [e["key"] for e in listing["snapshots"]] == [good_key]
            assert [e["key"] for e in listing["invalid"]] == [bad_key]
            assert listing["invalid"][0]["rules"] == ["TEA024"]
            with pytest.raises(ServiceError) as excinfo:
                client.replay(snapshot=bad_key)
            assert excinfo.value.code == E_INVALID
            assert "TEA024" in str(excinfo.value)
            # The healthy snapshot still serves.
            result = client.replay(snapshot=good_key)
            assert result["coverage_pin"] > 0


def test_service_refuses_store_with_only_invalid_snapshots(golden_snapshot,
                                                           tmp_path):
    from repro.service.server import ServiceSetupError
    from repro.service.testing import ServiceThread

    store = AutomatonStore(tmp_path / "store")
    store.put_bytes(transition_labels_unsorted(golden_snapshot))
    with pytest.raises(ServiceSetupError):
        ServiceThread(store).start()


# ---------------------------------------------------------------------
# harness pre-flight
# ---------------------------------------------------------------------


def test_harness_preflight_verifies_once_per_benchmark():
    from repro.harness import HarnessConfig, Runner

    config = HarnessConfig(scale=0.4, hot_threshold=10,
                           benchmarks=["171.swim"], verify=True)
    runner = Runner(config)
    runner.dbt_summary("171.swim", "mret")
    runner.replay_summary("171.swim")
    timers = runner.obs.snapshot()["metrics"]["timers"]
    assert timers["harness.verify"]["count"] == 1  # memoized


def test_harness_preflight_off_by_default():
    from repro.harness import HarnessConfig, Runner

    config = HarnessConfig(scale=0.4, hot_threshold=10,
                           benchmarks=["171.swim"])
    runner = Runner(config)
    runner.dbt_summary("171.swim", "mret")
    timers = runner.obs.snapshot()["metrics"]["timers"]
    assert "harness.verify" not in timers


def test_harness_verify_excluded_from_cache_fingerprint():
    from repro.harness import HarnessConfig
    from repro.harness.cache import config_fingerprint

    base = dict(scale=0.4, hot_threshold=10, benchmarks=["171.swim"])
    plain = HarnessConfig(**base)
    verifying = HarnessConfig(verify=True, **base)
    assert config_fingerprint(plain) == config_fingerprint(verifying)


# ---------------------------------------------------------------------
# CLI: repro tools verify
# ---------------------------------------------------------------------


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def test_cli_verify_clean_snapshot(snapshot, tmp_path, capsys):
    from repro.tools.__main__ import main

    path = _write(tmp_path, "good.teab", snapshot)
    assert main(["verify", path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_corrupt_snapshot_fails(snapshot, tmp_path, capsys):
    from repro.tools.__main__ import main

    path = _write(tmp_path, "bad.teab", stale_version(snapshot))
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "TEA020" in out and "FAIL" in out


def test_cli_verify_disable_and_strict(snapshot, tmp_path, capsys):
    from repro.tools.__main__ import main

    path = _write(tmp_path, "bad.teab", stale_version(snapshot))
    assert main(["verify", "--disable", "TEA020", path]) == 0
    capsys.readouterr()
    assert main(["verify", "--disable", "TEA999", path]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_verify_recorded_json_trace_file(world, tmp_path, capsys):
    # Regression: ``repro tools record`` writes a plain trace-set
    # document (version/kind/traces), not a nested TEA document —
    # verify_path must accept both shapes.
    from repro.tools.__main__ import main
    from repro.traces.serialization import trace_set_to_json

    program, trace_set, _ = world
    source = tmp_path / "program.s"
    source.write_text(NESTED_DIAMOND_SOURCE)
    traces = tmp_path / "traces.json"
    traces.write_text(json.dumps(trace_set_to_json(trace_set)))
    assert main(["verify", "--source", str(source), str(traces)]) == 0
    assert "PASS" in capsys.readouterr().out
    # Without a program image, a JSON document is a usage error.
    capsys.readouterr()
    assert main(["verify", str(traces)]) == 2


def test_verify_path_accepts_nested_tea_document(world, tmp_path):
    from repro.core.serialization import tea_to_json
    from repro.verify import verify_path

    program, trace_set, tea = world
    path = tmp_path / "tea.json"
    path.write_text(json.dumps(tea_to_json(trace_set, tea=tea)))
    report = verify_path(str(path), program=program)
    assert report.ok(strict=True)


def test_cli_verify_sarif_out(snapshot, tmp_path, capsys):
    from repro.tools.__main__ import main

    path = _write(tmp_path, "good.teab", snapshot)
    out = tmp_path / "report.sarif"
    assert main(["verify", "--format", "sarif", "--out", str(out),
                 path]) == 0
    capsys.readouterr()
    log = json.loads(out.read_text())
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["results"] == []
