"""Rule-catalog consistency meta-tests.

The catalog is the contract between the verifier, the audit cache
(whose keys embed :func:`repro.verify.catalog_version`) and the docs:
every registered rule must be well-formed, resolvable, fully described
and documented with a matching row in docs/static_verification.md.
"""

import re
from pathlib import Path

from repro.verify import all_rules, catalog_version, rule_by_id
from repro.verify.diagnostics import ERROR, INFO, WARNING

DOCS = (Path(__file__).resolve().parent.parent
        / "docs" / "static_verification.md")

#: Facets a rule may require — must match Subject's slots.
KNOWN_FACETS = {
    "source", "tea", "trace_set", "program", "compiled", "snapshot",
    "snapshot_deep", "jit_source", "minimization", "tea_diff",
    "profile", "python_source", "views", "stream",
}


def test_rule_ids_unique_sorted_and_well_formed():
    ids = [rule.rule_id for rule in all_rules()]
    assert len(ids) == len(set(ids)), "duplicate rule ids"
    assert ids == sorted(ids), "catalog must be sorted by rule id"
    for rule_id in ids:
        assert re.fullmatch(r"TEA0\d\d", rule_id), rule_id


def test_every_rule_resolvable_by_id():
    for rule in all_rules():
        assert rule_by_id(rule.rule_id) is rule


def test_rule_metadata_complete():
    for rule in all_rules():
        assert rule.name and re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)+",
                                          rule.name), rule.rule_id
        assert rule.severity in (ERROR, WARNING, INFO), rule.rule_id
        assert rule.family, rule.rule_id
        assert rule.description and len(rule.description) >= 20, \
            rule.rule_id
        assert rule.paper, rule.rule_id
        assert rule.requires, rule.rule_id
        unknown = set(rule.requires) - KNOWN_FACETS
        assert not unknown, "%s requires unknown facets %s" % (
            rule.rule_id, sorted(unknown))


def test_new_families_present():
    families = {rule.family for rule in all_rules()}
    assert {"dataflow", "jit-static", "concurrency", "stream"} <= families


def test_stream_sidecar_rule_registered():
    rule = rule_by_id("TEA027")
    assert rule.name == "stream-sidecar"
    assert rule.family == "stream"
    assert rule.requires == ("stream",)


def test_every_rule_has_a_docs_row():
    text = DOCS.read_text()
    missing = [rule.rule_id for rule in all_rules()
               if "| %s |" % rule.rule_id not in text]
    assert not missing, (
        "rules without a docs/static_verification.md row: %s" % missing)


def test_catalog_version_shape_and_epoch(monkeypatch):
    from repro.verify import engine

    version = catalog_version()
    assert re.fullmatch(r"\d+-[0-9a-f]{12}", version)
    assert version == catalog_version(), "must be deterministic"
    monkeypatch.setattr(engine, "CATALOG_EPOCH", engine.CATALOG_EPOCH + 1)
    assert catalog_version() != version, "epoch bump must change it"
