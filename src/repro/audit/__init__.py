"""Fleet-scale static audit engine.

``repro.audit`` turns the per-artifact verifier (:mod:`repro.verify`)
into a store-wide analysis pipeline over store artifacts only:

- :mod:`repro.audit.scheduler` — walks an entire
  :class:`~repro.store.AutomatonStore` (snapshots, program images,
  stream sidecars) in parallel, reusing the harness sharding pattern;
- :mod:`repro.audit.cache` — the content-addressed result cache keyed
  on (artifact digest, the digest of the program image a deep snapshot
  verify reads, rule-catalog version, engine options) that makes warm
  audits near-instant;
- :mod:`repro.audit.baseline` — SARIF baseline diffing (``--baseline
  old.sarif`` reports only new findings).

The concurrency lint over the service sources is a development check,
``dev/concurrency_lint.py``, not part of the audit.  The package never
imports :mod:`repro.verify` at module level, so the two packages stay
cycle-free.
"""

from repro.audit.baseline import diff_new_results, load_baseline
from repro.audit.cache import AuditCache
from repro.audit.scheduler import AuditResult, audit_paths, audit_store

__all__ = [
    "AuditCache",
    "AuditResult",
    "audit_paths",
    "audit_store",
    "diff_new_results",
    "load_baseline",
]
