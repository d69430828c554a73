"""Diagnostic and report value objects for the static verifier.

A :class:`Diagnostic` is one finding: a rule id (``TEA003`` style), a
severity, a human message, and optional machine-readable ``location``
/ ``data`` payloads.  A :class:`Report` is an ordered collection of
diagnostics for one verification target with three renderings:

- ``render_text()`` — compiler-style one-line-per-finding text;
- ``to_json()`` — a stable JSON document for tooling;
- ``to_sarif()`` — a SARIF 2.1.0 log for CI annotation (one run, one
  result per diagnostic, the rule catalog embedded in the driver).

This module deliberately imports nothing from the rest of ``repro``
except the error types, so every layer (the trace model, the compiled
automaton, the store) can produce diagnostics without import cycles.
"""

from __future__ import annotations

from repro.errors import VerificationError

#: Severity levels, ordered most to least severe.
ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES = (ERROR, WARNING, INFO)

#: SARIF 2.1.0 ``level`` values for each severity.
_SARIF_LEVELS = {ERROR: "error", WARNING: "warning", INFO: "note"}

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: Documentation base for per-rule ``helpUri`` anchors.
DOC_BASE_URI = ("https://example.invalid/repro/docs/"
                "static_verification.md")


class Diagnostic:
    """One verifier finding."""

    __slots__ = ("rule_id", "severity", "message", "location", "data")

    def __init__(self, rule_id, severity, message, location=None, data=None):
        if severity not in SEVERITIES:
            raise ValueError("unknown severity %r" % (severity,))
        self.rule_id = rule_id
        self.severity = severity
        self.message = message
        #: Where the finding is anchored: a file path, snapshot key,
        #: state/trace name — free-form but stable per rule.
        self.location = location
        self.data = dict(data) if data else {}

    def as_dict(self):
        document = {
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
        }
        if self.location:
            document["location"] = self.location
        if self.data:
            document["data"] = self.data
        return document

    def render(self):
        where = ("%s: " % self.location) if self.location else ""
        return "%s%s: [%s] %s" % (where, self.severity, self.rule_id,
                                  self.message)

    def __repr__(self):
        return "<Diagnostic %s %s %r>" % (self.rule_id, self.severity,
                                          self.message)


class Report:
    """Ordered diagnostics for one verification target."""

    __slots__ = ("target", "diagnostics", "rules_run")

    def __init__(self, target="<memory>", diagnostics=None, rules_run=None):
        self.target = target
        self.diagnostics = list(diagnostics or [])
        #: Rule ids that actually executed (applicable and enabled) —
        #: a clean report over zero rules is not evidence of anything.
        self.rules_run = list(rules_run or [])

    # -- collection ----------------------------------------------------

    def add(self, diagnostic):
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics):
        self.diagnostics.extend(diagnostics)

    def __len__(self):
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    # -- interrogation -------------------------------------------------

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def rule_ids(self):
        """Distinct rule ids that fired, in first-seen order."""
        seen = []
        for diagnostic in self.diagnostics:
            if diagnostic.rule_id not in seen:
                seen.append(diagnostic.rule_id)
        return seen

    def ok(self, strict=False):
        """True when nothing blocking fired.

        ``strict`` promotes warnings to blocking (the CLI ``--strict``).
        """
        if self.errors:
            return False
        return not (strict and self.warnings)

    def raise_on_error(self, strict=False):
        """Raise :class:`~repro.errors.VerificationError` unless ok."""
        if self.ok(strict=strict):
            return self
        blocking = self.errors or self.warnings
        first = blocking[0]
        raise VerificationError(
            "%s failed verification: %d blocking diagnostic(s); "
            "first: [%s] %s"
            % (self.target, len(blocking), first.rule_id, first.message),
            diagnostics=self.diagnostics,
        )

    # -- renderings ----------------------------------------------------

    def render_text(self, strict=False):
        lines = []
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.render())
        verdict = "PASS" if self.ok(strict=strict) else "FAIL"
        lines.append(
            "%s: %s (%d error(s), %d warning(s), %d rule(s) run)"
            % (self.target, verdict, len(self.errors), len(self.warnings),
               len(self.rules_run))
        )
        return "\n".join(lines)

    def to_json(self, strict=False):
        return {
            "target": self.target,
            "ok": self.ok(strict=strict),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "rules_run": list(self.rules_run),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def __repr__(self):
        return "<Report %s: %d diagnostic(s), %d error(s)>" % (
            self.target, len(self.diagnostics), len(self.errors),
        )


def reports_to_sarif(reports, catalog, tool_version="0"):
    """Render reports as one SARIF 2.1.0 log (one run, shared driver).

    ``catalog`` is an iterable of rule objects (anything with
    ``rule_id``, ``severity``, ``description``); it becomes the
    driver's ``rules`` array so CI viewers can show rule help.  Each
    rule entry carries a ``helpUri`` anchored into the rule-catalog
    docs (``help_uri`` on the rule object overrides it), and the index
    is deduplicated by rule id — merging catalogs from several engine
    runs over multiple subjects cannot produce duplicate entries.
    """
    rules = []
    rule_index = {}
    for rule in catalog:
        if rule.rule_id in rule_index:
            continue
        rule_index[rule.rule_id] = len(rules)
        help_uri = getattr(rule, "help_uri", None) or (
            "%s#%s" % (DOC_BASE_URI, rule.rule_id.lower())
        )
        rules.append({
            "id": rule.rule_id,
            "name": getattr(rule, "name", rule.rule_id),
            "shortDescription": {"text": rule.description},
            "helpUri": help_uri,
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(rule.severity, "warning"),
            },
        })
    results = []
    for report in reports:
        for diagnostic in report:
            result = {
                "ruleId": diagnostic.rule_id,
                "level": _SARIF_LEVELS.get(diagnostic.severity, "warning"),
                "message": {"text": diagnostic.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": str(report.target)},
                    },
                }],
            }
            index = rule_index.get(diagnostic.rule_id)
            if index is not None:
                result["ruleIndex"] = index
            if diagnostic.location:
                result["locations"][0]["logicalLocations"] = [
                    {"fullyQualifiedName": str(diagnostic.location)}
                ]
            results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-verify",
                    "informationUri": DOC_BASE_URI,
                    "version": str(tool_version),
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
