"""Fleet-scale static audit engine.

``repro.audit`` turns the per-artifact verifier (:mod:`repro.verify`)
into a store-wide analysis pipeline:

- :mod:`repro.audit.fixpoint` — the dataflow framework (reachability /
  liveness worklist solver, static cost intervals, directory probe
  bounds) behind the TEA06x rule family;
- :mod:`repro.audit.concurrency` — the AST concurrency analysis
  (blocking calls reachable from coroutines, lock discipline, shared
  cache guarding) behind the TEA08x rule family;
- :mod:`repro.audit.scheduler` — walks an entire
  :class:`~repro.store.AutomatonStore` (snapshots, stream sidecars)
  plus the service source tree in parallel, reusing the harness
  sharding pattern;
- :mod:`repro.audit.cache` — the content-addressed result cache keyed
  on (artifact digest, rule-catalog version, engine options) that
  makes warm audits near-instant;
- :mod:`repro.audit.baseline` — SARIF baseline diffing (``--baseline
  old.sarif`` reports only new findings).

The package never imports :mod:`repro.verify` at module level (the
verify rules import the analyses here at function level), so the two
packages stay cycle-free.
"""

from repro.audit.baseline import diff_new_results, load_baseline
from repro.audit.cache import AuditCache
from repro.audit.scheduler import (
    AuditResult,
    audit_paths,
    audit_store,
    default_code_paths,
)

__all__ = [
    "AuditCache",
    "AuditResult",
    "audit_paths",
    "audit_store",
    "default_code_paths",
    "diff_new_results",
    "load_baseline",
]
