"""Static verification of TEA artifacts (the ``repro verify`` rules).

A rule engine (:mod:`repro.verify.engine`) runs a catalog of
``TEAxxx`` rules over any combination of facets — a built automaton, a
trace set plus program image, a compiled lowering, raw TEAB snapshot
bytes — and produces :class:`Report` objects that render as text, JSON
or SARIF 2.1.0 (:mod:`repro.verify.diagnostics`).  See
``docs/static_verification.md`` for the full rule catalog.

Import discipline: this package is imported *by* the trace model, the
compiled automaton and the store, so only :mod:`~repro.verify.engine`
and :mod:`~repro.verify.diagnostics` load eagerly (they depend on
nothing but :mod:`repro.errors`); the rule modules and the high-level
API import the rest of ``repro`` lazily inside functions.
"""

from repro.errors import VerificationError
from repro.verify.api import (
    default_engine,
    program_for_meta,
    verify_compiled,
    verify_diff_report,
    verify_minimization,
    verify_path,
    verify_python_source,
    verify_snapshot_bytes,
    verify_stream_bytes,
    verify_tea,
    verify_trace_set,
)
from repro.verify.diagnostics import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Diagnostic,
    Report,
    report_from_json,
    reports_to_sarif,
)
from repro.verify.engine import (
    Rule,
    RuleEngine,
    Subject,
    all_rules,
    catalog_version,
    rule_by_id,
)

__all__ = [
    "Diagnostic", "Report", "Rule", "RuleEngine", "Subject",
    "VerificationError", "ERROR", "WARNING", "INFO", "SEVERITIES",
    "all_rules", "catalog_version", "default_engine", "program_for_meta",
    "report_from_json", "reports_to_sarif", "rule_by_id",
    "verify_compiled", "verify_diff_report", "verify_minimization",
    "verify_path", "verify_python_source", "verify_snapshot_bytes",
    "verify_stream_bytes", "verify_tea", "verify_trace_set",
]
