"""The verification rule engine.

A :class:`Rule` packages one static invariant: a stable id
(``TEA001``), a default severity, a one-line description, the paper
section it guards, and a ``check(subject)`` generator yielding
:class:`~repro.verify.diagnostics.Diagnostic` findings.  Rules declare
which *facets* of a :class:`Subject` they need (``requires``); the
:class:`RuleEngine` runs every enabled rule whose facets are present,
so one engine verifies automata, snapshots, trace sets and compiled
lowerings alike — each subject simply exposes fewer or more facets.

Rules register themselves into the module-level catalog at import time
(:func:`register`); :func:`all_rules` returns the catalog sorted by
rule id.  Engines can disable individual rules by id and run in strict
mode, where warnings block like errors.

This module imports nothing from the wider package (the subject facets
are duck-typed), so every layer can depend on the engine without
cycles.
"""

from __future__ import annotations

import hashlib

from repro.verify.diagnostics import ERROR, Diagnostic, Report

#: The global rule catalog: rule_id -> Rule instance.
_CATALOG = {}

#: Bumped by hand when rule *semantics* change without any catalog
#: text changing — forces audit-cache invalidation either way.
CATALOG_EPOCH = 1


def register(rule):
    """Add one rule instance to the catalog (idempotent by id)."""
    existing = _CATALOG.get(rule.rule_id)
    if existing is not None and type(existing) is not type(rule):
        raise ValueError("duplicate rule id %s" % rule.rule_id)
    _CATALOG[rule.rule_id] = rule
    return rule


def all_rules():
    """Every registered rule, sorted by rule id."""
    _load_builtin_rules()
    return [_CATALOG[rule_id] for rule_id in sorted(_CATALOG)]


def rule_by_id(rule_id):
    """Look up one rule; raises ``KeyError`` for unknown ids."""
    _load_builtin_rules()
    return _CATALOG[rule_id]


def _load_builtin_rules():
    """Import the built-in rule modules (registration side effect)."""
    from repro.verify import (  # noqa: F401 — imported for registration
        rules_automaton,
        rules_cfg,
        rules_compiled,
        rules_concurrency,
        rules_dataflow,
        rules_minimize,
        rules_snapshot,
        rules_stream,
        rules_traces,
    )


def catalog_version() -> str:
    """Content version of the rule catalog: ``<epoch>-<12 hex>``.

    Hashes every registered rule's id, name, severity and description
    plus :data:`CATALOG_EPOCH`, so adding, removing or rewording a
    rule (or bumping the epoch) changes the version — the audit result
    cache keys on it and invalidates itself automatically.
    """
    payload = "|".join(
        "%s:%s:%s:%s" % (rule.rule_id, rule.name, rule.severity,
                         rule.description)
        for rule in all_rules()
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
    return "%d-%s" % (CATALOG_EPOCH, digest)


class Rule:
    """Base class for one verification rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding diagnostics (an empty iterator means the invariant holds).
    """

    #: Stable identifier, e.g. ``"TEA001"``.
    rule_id = None
    #: Short kebab-case name, e.g. ``"automaton-determinism"``.
    name = None
    #: Default severity of this rule's findings.
    severity = ERROR
    #: Rule family: automaton / cfg / snapshot / compiled / traces.
    family = None
    #: One-line description (shown in SARIF rule metadata and docs).
    description = ""
    #: Paper anchor the rule guards (section/figure/definition).
    paper = ""
    #: Subject facet names this rule needs (all must be non-None).
    requires = ()

    def applicable(self, subject):
        return all(
            getattr(subject, facet, None) is not None
            for facet in self.requires
        )

    def check(self, subject):
        raise NotImplementedError

    def diag(self, message, severity=None, location=None, **data):
        """Build one finding attributed to this rule."""
        return Diagnostic(
            self.rule_id,
            severity or self.severity,
            message,
            location=location,
            data=data or None,
        )

    def __repr__(self):
        return "<Rule %s %s>" % (self.rule_id, self.name)


class Subject:
    """One verification target: any combination of facets.

    Facets (each ``None`` when unavailable):

    - ``tea`` — a built :class:`~repro.core.automaton.TEA`;
    - ``trace_set`` — a :class:`~repro.traces.model.TraceSet`;
    - ``program`` — the ISA program image the traces were recorded
      against (enables the CFG-consistency family);
    - ``compiled`` — a :class:`~repro.core.compiled.CompiledTea`;
    - ``snapshot`` — raw TEAB snapshot bytes;
    - ``snapshot_deep`` — ``True`` when the caller opted into the
      expensive deep snapshot checks (the conversion round-trip rule
      TEA026); load-path gating leaves it unset so verify-on-load stays
      O(section table);
    - ``minimization`` — a
      :class:`~repro.minimize.MinimizationResult` (original automaton,
      quotient and state map; enables TEA051-TEA053);
    - ``tea_diff`` — a diff report dict in the
      :meth:`~repro.compare.TeaDiff.to_json` shape (enables TEA054);
    - ``profile`` — a :class:`~repro.core.profile.TeaProfile` recorded
      alongside the automaton (enables TEA061's profile cross-check);
    - ``python_source`` — Python module text for the concurrency lint
      family (TEA080-TEA082);
    - ``stream`` — raw ``TEAS`` execution-stream sidecar bytes (rule
      TEA027), with the optional expectations ``stream_key`` (the store
      key the file is filed under) and ``stream_digest`` (the content
      digest of the program it must have been recorded from).

    ``views`` lazily materialises one uniform
    :class:`~repro.verify.views.AutomatonView` per available automaton
    representation, so the automaton family checks the object graph and
    the flat tables with the same code.
    """

    __slots__ = ("source", "tea", "trace_set", "program", "compiled",
                 "snapshot", "snapshot_deep", "minimization", "tea_diff",
                 "profile", "python_source", "stream", "stream_key",
                 "stream_digest", "_views")

    def __init__(self, source="<memory>", tea=None, trace_set=None,
                 program=None, compiled=None, snapshot=None,
                 snapshot_deep=None, minimization=None, tea_diff=None,
                 profile=None, python_source=None,
                 stream=None, stream_key=None, stream_digest=None):
        self.source = str(source)
        self.tea = tea
        self.trace_set = trace_set
        self.program = program
        self.compiled = compiled
        self.snapshot = snapshot
        self.snapshot_deep = snapshot_deep
        self.minimization = minimization
        self.tea_diff = tea_diff
        self.profile = profile
        self.python_source = python_source
        self.stream = stream
        self.stream_key = stream_key
        self.stream_digest = stream_digest
        self._views = None

    @property
    def views(self):
        """Automaton views, or ``None`` when no automaton facet exists."""
        if self._views is None:
            from repro.verify.views import AutomatonView

            views = []
            if self.tea is not None:
                views.append(AutomatonView.from_tea(self.tea))
            if self.compiled is not None:
                views.append(AutomatonView.from_compiled(self.compiled))
            self._views = views
        return self._views or None

    def __repr__(self):
        facets = [
            facet for facet in
            ("tea", "trace_set", "program", "compiled", "snapshot",
             "snapshot_deep", "minimization", "tea_diff",
             "profile", "python_source", "stream")
            if getattr(self, facet) is not None
        ]
        return "<Subject %s: %s>" % (self.source, "+".join(facets) or "empty")


class RuleEngine:
    """Runs every enabled, applicable rule over a subject.

    Parameters
    ----------
    rules:
        Rule instances to consider; defaults to the full catalog.
    disabled:
        Iterable of rule ids to skip.
    strict:
        When true, :meth:`Report.ok` treats warnings as blocking (the
        engine stores the flag and passes it to the reports it builds).
    obs:
        Optional :class:`~repro.obs.Observability`; the engine counts
        ``verify.runs`` / ``verify.rules_run`` / ``verify.diagnostics``
        / ``verify.failures`` into its registry.
    """

    def __init__(self, rules=None, disabled=(), strict=False, obs=None):
        self.rules = list(rules) if rules is not None else all_rules()
        self.disabled = set(disabled)
        self.strict = strict
        self.obs = obs

    def enabled_rules(self):
        return [
            rule for rule in self.rules if rule.rule_id not in self.disabled
        ]

    def verify(self, subject):
        """Run the engine; returns a :class:`Report` (never raises)."""
        report = Report(target=subject.source)
        for rule in self.enabled_rules():
            if not rule.applicable(subject):
                continue
            report.rules_run.append(rule.rule_id)
            report.extend(rule.check(subject))
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.counter("verify.runs").inc()
            metrics.counter("verify.rules_run").inc(len(report.rules_run))
            metrics.counter("verify.diagnostics").inc(len(report))
            if not report.ok(strict=self.strict):
                metrics.counter("verify.failures").inc()
        return report

    def check(self, subject):
        """Verify and raise on a blocking report; returns the report."""
        return self.verify(subject).raise_on_error(strict=self.strict)
