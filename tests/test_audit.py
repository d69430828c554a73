"""Fleet audit engine: scheduler, result cache, baseline, CLI.

The acceptance bar asserted here: a ≥50-snapshot store audits in
parallel, a warm rerun costs under 10% of the cold wall-clock (it is
served entirely from the content-addressed cache), `--baseline`
reports only injected-new findings, and the cache invalidates itself
when the rule catalog changes.
"""

import json
import os
import stat
import time

import pytest

from dev.concurrency_lint import DEFAULT_TARGETS, ROOT, default_paths
from repro.audit import AuditCache, audit_store
from repro.audit.cache import audit_fingerprint, file_digest
from repro.audit.scheduler import audit_paths, store_artifact_paths
from repro.core import build_tea
from repro.isa import assemble
from repro.isa.image import encode_image
from repro.store import AutomatonStore
from repro.tools.__main__ import main

from .conftest import NESTED_DIAMOND_SOURCE, SIMPLE_LOOP_SOURCE, record_traces

N_SNAPSHOTS = 50


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A store holding N_SNAPSHOTS distinct snapshots."""
    from repro.isa import assemble

    program = assemble(NESTED_DIAMOND_SOURCE)
    trace_set = record_traces(program).trace_set
    tea = build_tea(trace_set)
    root = tmp_path_factory.mktemp("fleet") / "store"
    store = AutomatonStore(root)
    for i in range(N_SNAPSHOTS):
        store.put(trace_set, tea=tea, meta={"variant": i})
    assert len(store) == N_SNAPSHOTS
    return str(root)


# ---------------------------------------------------------------------
# cache primitives
# ---------------------------------------------------------------------

def test_audit_fingerprint_varies_with_every_input():
    base = audit_fingerprint("d" * 64, "1-abc")
    assert audit_fingerprint("e" * 64, "1-abc") != base
    assert audit_fingerprint("d" * 64, "2-abc") != base
    assert audit_fingerprint("d" * 64, "1-abc",
                             disabled=("TEA003",)) != base
    assert audit_fingerprint("d" * 64, "1-abc", strict=True) != base
    assert audit_fingerprint("d" * 64, "1-abc", deep=False) != base
    assert audit_fingerprint("d" * 64, "1-abc",
                             image_digest="e" * 64) != base
    # Disabled-rule order does not matter.
    assert audit_fingerprint("d" * 64, "1-abc",
                             disabled=("TEA003", "TEA001")) == \
        audit_fingerprint("d" * 64, "1-abc",
                          disabled=("TEA001", "TEA003"))


def test_audit_cache_roundtrip_corruption_and_clear(tmp_path):
    cache = AuditCache(tmp_path / "cache")
    key = audit_fingerprint("a" * 64, "1-abc")
    assert cache.get(key) is None
    document = {"target": "x", "ok": True, "errors": 0, "warnings": 0,
                "rules_run": [], "diagnostics": []}
    cache.put(key, document)
    assert cache.get(key) == document
    assert len(cache) == 1
    # Corrupt entry counts as a miss.
    with open(cache.path_for(key), "w") as handle:
        handle.write("{not json")
    assert cache.get(key) is None
    # A wrong embedded key counts as a miss.
    other = audit_fingerprint("b" * 64, "1-abc")
    cache.put(other, document)
    os.replace(cache.path_for(other), cache.path_for(key))
    assert cache.get(key) is None
    assert cache.clear() >= 1
    assert len(cache) == 0


def test_file_digest_none_for_missing_file(tmp_path):
    assert file_digest(tmp_path / "missing") is None
    path = tmp_path / "x"
    path.write_bytes(b"hello")
    assert len(file_digest(path)) == 64


# ---------------------------------------------------------------------
# scheduler: parallel cold run, warm rerun under 10%
# ---------------------------------------------------------------------

def test_fleet_audit_parallel_and_warm_rerun(fleet, tmp_path):
    artifacts = store_artifact_paths(fleet)
    assert len(artifacts) == N_SNAPSHOTS

    cache = AuditCache(tmp_path / "cache")
    started = time.monotonic()
    cold = audit_store(fleet, jobs=4, cache=cache)
    cold_elapsed = time.monotonic() - started
    assert cold.ok(), [r for r in cold.reports if not r["ok"]]
    assert cold.stats["jobs"] == 4
    assert cold.stats["cold_runs"] == len(cold.reports)
    assert cold.stats["cache_hits"] == 0
    # Store artifacts only: the fleet has no images or sidecars.
    assert cold.stats["artifacts"] == N_SNAPSHOTS

    started = time.monotonic()
    warm = audit_store(fleet, jobs=4, cache=cache)
    warm_elapsed = time.monotonic() - started
    assert warm.ok()
    assert warm.stats["cold_runs"] == 0
    assert warm.stats["cache_hits"] == warm.stats["artifacts"]
    assert warm.reports == cold.reports
    assert warm_elapsed < 0.10 * cold_elapsed, (
        "warm rerun %.3fs not under 10%% of cold %.3fs"
        % (warm_elapsed, cold_elapsed))


def test_cache_invalidates_on_catalog_epoch_bump(fleet, tmp_path,
                                                 monkeypatch):
    from repro.verify import engine

    cache = AuditCache(tmp_path / "cache")
    paths = store_artifact_paths(fleet)[:3]
    first = audit_paths(paths, cache=cache)
    assert first.stats["cold_runs"] == 3
    again = audit_paths(paths, cache=cache)
    assert again.stats["cold_runs"] == 0
    monkeypatch.setattr(engine, "CATALOG_EPOCH",
                        engine.CATALOG_EPOCH + 1)
    bumped = audit_paths(paths, cache=cache)
    assert bumped.stats["cold_runs"] == 3, \
        "catalog change must invalidate every cached result"


def test_unreadable_artifact_gets_synthetic_report(tmp_path):
    missing = str(tmp_path / "ghost.teab")
    result = audit_paths([missing])
    assert not result.ok()
    assert result.stats["unreadable"] == 1
    report = result.reports[0]
    assert report["diagnostics"][0]["rule"] == "AUDIT000"


def test_default_code_paths_cover_the_service_stack():
    # The concurrency lint is dev/concurrency_lint.py, run by CI; the
    # audit walks store artifacts only.
    paths = default_paths()
    names = {os.path.basename(p) for p in paths}
    assert "server.py" in names
    assert "mapping.py" in names
    for target in DEFAULT_TARGETS:
        assert os.path.exists(os.path.join(ROOT, target)), target


# ---------------------------------------------------------------------
# the program image beside a snapshot
# ---------------------------------------------------------------------

@pytest.fixture
def imaged(tmp_path):
    """A store holding one snapshot with its program image; returns
    ``(store, key)``."""
    program = assemble(NESTED_DIAMOND_SOURCE)
    trace_set = record_traces(program).trace_set
    store = AutomatonStore(tmp_path / "store")
    key = store.put(trace_set, tea=build_tea(trace_set), program=program)
    assert os.path.exists(store.image_path(key))
    return store, key


def _snapshot_report(store, key, cache=None):
    result = audit_store(store.root, cache=cache)
    path = store.path_for(key)
    return next(report for report in result.reports
                if report["target"] == path)


def _replace(path, data):
    os.chmod(path, stat.S_IRUSR | stat.S_IWUSR)
    with open(path, "wb") as handle:
        handle.write(data)


def test_cached_audit_follows_a_replaced_image(imaged, tmp_path):
    store, key = imaged
    cache = AuditCache(tmp_path / "cache")
    warm = _snapshot_report(store, key, cache)
    assert warm["ok"] and "TEA011" in warm["rules_run"]
    image = store.image_path(key)
    with open(image, "rb") as handle:
        damaged = bytearray(handle.read())
    damaged[-1] ^= 0xFF
    _replace(image, bytes(damaged))
    assert _snapshot_report(store, key, cache) == \
        _snapshot_report(store, key)


def test_cached_audit_follows_a_deleted_image(imaged, tmp_path):
    store, key = imaged
    cache = AuditCache(tmp_path / "cache")
    _snapshot_report(store, key, cache)
    os.unlink(store.image_path(key))
    uncached = _snapshot_report(store, key)
    assert "TEA011" not in uncached["rules_run"]
    assert _snapshot_report(store, key, cache) == uncached


def test_image_of_another_program_is_a_finding(imaged, tmp_path, capsys):
    # The image decodes under the snapshot's key but holds another
    # program: the snapshot's traces do not decode against it.
    store, key = imaged
    _replace(store.image_path(key),
             encode_image(assemble(SIMPLE_LOOP_SOURCE), owner=key))
    other = AutomatonStore(tmp_path / "store").put(
        record_traces(assemble(SIMPLE_LOOP_SOURCE)).trace_set)
    result = audit_store(store.root)
    by_target = {report["target"]: report for report in result.reports}
    assert len(by_target) == 3          # both snapshots and the image
    report = by_target[store.path_for(key)]
    assert [diag["rule"] for diag in report["diagnostics"]] == ["TEA010"]
    assert "do not decode against the program" in \
        report["diagnostics"][0]["message"]
    assert by_target[store.path_for(other)]["ok"]
    assert main(["verify", store.path_for(key)]) == 1
    assert "[TEA010]" in capsys.readouterr().out


# ---------------------------------------------------------------------
# CLI: exit codes, SARIF artifact, baseline ratchet
# ---------------------------------------------------------------------

def _run_audit(fleet, tmp_path, *extra):
    return main(["audit", fleet,
                 "--cache-dir", str(tmp_path / "clicache"),
                 *extra])


def test_cli_audit_clean_store_exits_zero(fleet, tmp_path, capsys):
    sarif_path = tmp_path / "audit.sarif"
    code = _run_audit(fleet, tmp_path, "--jobs", "2",
                      "--format", "sarif", "--out", str(sarif_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "audit:" in out
    sarif = json.loads(sarif_path.read_text())
    assert sarif["version"] == "2.1.0"
    rules = sarif["runs"][0]["tool"]["driver"]["rules"]
    rule_ids = [rule["id"] for rule in rules]
    assert len(rule_ids) == len(set(rule_ids)), "rule index must dedupe"
    assert all("helpUri" in rule for rule in rules)


def test_cli_audit_unknown_rule_exits_two(fleet, tmp_path, capsys):
    assert _run_audit(fleet, tmp_path, "--disable", "TEA999") == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_audit_missing_store_exits_two(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "nope")]) == 2
    assert "not a store directory" in capsys.readouterr().err


def test_cli_audit_unreadable_baseline_exits_two(fleet, tmp_path,
                                                 capsys):
    bad = tmp_path / "bad.sarif"
    bad.write_text("{broken")
    assert _run_audit(fleet, tmp_path, "--baseline", str(bad)) == 2
    assert "baseline" in capsys.readouterr().err


def test_cli_baseline_reports_only_new_findings(fleet, tmp_path,
                                                capsys):
    baseline_path = tmp_path / "baseline.sarif"
    code = _run_audit(fleet, tmp_path, "--format", "sarif",
                      "--out", str(baseline_path))
    assert code == 0
    capsys.readouterr()

    # Inject one corrupted snapshot: flip a payload byte so the CRC
    # breaks — a brand-new artifact with brand-new findings.
    store = AutomatonStore(fleet)
    victim_key = sorted(store.keys())[0]
    data = bytearray(open(store.path_for(victim_key), "rb").read())
    data[-1] ^= 0xFF
    injected = os.path.join(fleet, "zz")
    os.makedirs(injected, exist_ok=True)
    injected_path = os.path.join(injected, "f" * 64 + ".teab")
    with open(injected_path, "wb") as handle:
        handle.write(bytes(data))
    try:
        sarif_path = tmp_path / "new.sarif"
        code = _run_audit(fleet, tmp_path,
                          "--baseline", str(baseline_path),
                          "--format", "sarif", "--out", str(sarif_path))
        out = capsys.readouterr().out
        assert code == 1, "new findings must block"
        sarif = json.loads(sarif_path.read_text())
        results = [res for run in sarif["runs"]
                   for res in run["results"]]
        assert results, "the injected corruption must be reported"
        uris = {loc["physicalLocation"]["artifactLocation"]["uri"]
                for res in results for loc in res["locations"]}
        assert all("f" * 64 in uri for uri in uris), (
            "only the injected artifact may appear as new: %s" % uris)
        assert "new finding(s)" in out

        # With the *updated* SARIF as baseline the same tree is quiet.
        code = _run_audit(fleet, tmp_path,
                          "--baseline", str(sarif_path))
        capsys.readouterr()
        assert code == 0
    finally:
        os.unlink(injected_path)


def test_engine_strict_escalation_with_mixed_severities():
    # An unreachable state yields only the TEA003 warning: the same
    # report passes lenient and blocks strict, and the serialized
    # document (what the audit cache stores) carries the verdict the
    # engine was configured with.
    from repro.core.compiled import CompiledTea
    from repro.verify import verify_compiled

    compiled = CompiledTea(
        3, b"\x00\x01\x01",
        trans_offset=[0, 0, 0, 0],
        trans_labels=[], trans_dest=[],
        head_entries=[0x10], head_sids=[1],   # sid 2 is unreachable
    )
    report = verify_compiled(compiled)
    assert report.warnings and not report.errors
    assert report.ok() and not report.ok(strict=True)
    assert report.to_json()["ok"] is True
    assert report.to_json(strict=True)["ok"] is False


def test_engine_unknown_disabled_rule_raises():
    from repro.verify import rule_by_id

    with pytest.raises(KeyError):
        rule_by_id("TEA999")
