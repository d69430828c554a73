"""Fleet audit scheduler: walk a store's artifacts in parallel.

Reuses the parallel-harness sharding pattern
(:mod:`repro.harness.parallel`): a module-level worker function so the
pool can pickle it, a pending list built by consulting the result
cache first, and a ``jobs=1`` path that never touches
``multiprocessing``.  Each artifact is verified independently through
:func:`repro.verify.verify_path`, so the scheduler parallelizes
*subjects*, not rules — the engine stays single-threaded and
deterministic per artifact.

Audited artifacts:

- every ``*.teab`` snapshot in the store (deep verify: snapshot,
  compiled, automaton and — with a sound program image beside it —
  CFG and trace families);
- every ``*.teas`` execution-stream sidecar and ``*.teap`` program
  image (TEA027).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple


def store_artifact_paths(store_root: Any) -> List[str]:
    """Every snapshot, program image and stream sidecar in a store,
    sorted."""
    from repro.store.store import IMAGE_SUFFIX, SNAPSHOT_SUFFIX, STREAM_SUFFIX

    paths = []
    if not os.path.isdir(store_root):
        return paths
    for shard in sorted(os.listdir(store_root)):
        shard_dir = os.path.join(store_root, shard)
        if not os.path.isdir(shard_dir):
            continue
        for filename in sorted(os.listdir(shard_dir)):
            if filename.startswith("."):
                continue
            if filename.endswith((SNAPSHOT_SUFFIX, IMAGE_SUFFIX,
                                  STREAM_SUFFIX)):
                paths.append(os.path.join(shard_dir, filename))
    return paths


def _synthetic_error_report(path: Any, message: str) -> Dict[str, Any]:
    """A report document for an artifact that could not be audited."""
    return {
        "target": str(path),
        "ok": False,
        "errors": 1,
        "warnings": 0,
        "rules_run": [],
        "diagnostics": [{
            "rule": "AUDIT000",
            "severity": "error",
            "message": message,
        }],
    }


def _audit_worker(job: Tuple[Any, Tuple[str, ...], bool, bool]) -> Tuple[Any, Dict[str, Any]]:
    """Verify one artifact; returns ``(path, report_document)``.

    Module-level so ``multiprocessing`` can pickle it; everything it
    needs rides in the job tuple.  An artifact the verifier cannot
    process gets an error report of its own; the rest of the fleet is
    still audited.
    """
    path, disabled, strict, deep = job
    from repro.errors import ReproError
    from repro.verify import default_engine, verify_path

    engine = default_engine(disabled=disabled, strict=strict)
    try:
        report = verify_path(path, engine=engine, deep=deep)
    except ReproError as error:
        return path, _synthetic_error_report(path, str(error))
    return path, report.to_json(strict=strict)


class AuditResult:
    """Outcome of one fleet audit."""

    def __init__(self, reports: List[Dict[str, Any]],
                 stats: Dict[str, Any]) -> None:
        #: Report documents (``Report.to_json`` shape), input order.
        self.reports = reports
        #: ``artifacts`` / ``cache_hits`` / ``cold_runs`` / ``elapsed``.
        self.stats = stats

    def ok(self) -> bool:
        return all(bool(report.get("ok")) for report in self.reports)

    def report_objects(self) -> List[Any]:
        """The reports as :class:`~repro.verify.Report` instances."""
        from repro.verify import report_from_json

        return [report_from_json(document) for document in self.reports]

    def __repr__(self) -> str:
        return "<AuditResult %d artifact(s), %d cached, ok=%s>" % (
            self.stats.get("artifacts", 0),
            self.stats.get("cache_hits", 0), self.ok(),
        )


def audit_paths(paths: Iterable[Any], jobs: int = 1,
                cache: Optional[Any] = None,
                disabled: Iterable[str] = (), strict: bool = False,
                deep: bool = True, obs: Any = None) -> AuditResult:
    """Audit every path; returns an :class:`AuditResult`.

    ``cache`` is an :class:`~repro.audit.cache.AuditCache` (or
    ``None`` to disable caching); cached artifacts are served without
    touching the pool, so a warm rerun over an unchanged fleet costs
    one content digest per artifact.
    """
    from repro.audit.cache import audit_fingerprint, file_digest
    from repro.store.store import SNAPSHOT_SUFFIX, image_path_for
    from repro.verify import catalog_version

    started = time.monotonic()
    paths = list(paths)
    version = catalog_version()
    disabled = tuple(sorted(set(disabled)))
    documents = {}
    keys = {}
    pending = []
    for path in paths:
        digest = file_digest(path)
        if digest is None:
            documents[path] = _synthetic_error_report(
                path, "cannot read artifact")
            continue
        # A deep snapshot verify also reads the program image beside
        # the snapshot, so the image's bytes are part of the key.
        image_digest = None
        if deep and str(path).endswith(SNAPSHOT_SUFFIX):
            image_digest = file_digest(image_path_for(path))
        key = audit_fingerprint(digest, version, disabled=disabled,
                                strict=strict, deep=deep,
                                image_digest=image_digest)
        keys[path] = key
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            documents[path] = cached
        else:
            pending.append(path)

    jobs = max(1, int(jobs))
    if pending:
        job_list = [(path, disabled, strict, deep) for path in pending]
        if jobs == 1 or len(job_list) == 1:
            outcomes = [_audit_worker(job) for job in job_list]
        else:
            with multiprocessing.Pool(processes=min(jobs, len(job_list))) \
                    as pool:
                outcomes = list(pool.imap_unordered(_audit_worker,
                                                    job_list))
        for path, document in outcomes:
            documents[path] = document
            if cache is not None:
                cache.put(keys[path], document)

    stats = {
        "artifacts": len(paths),
        "cache_hits": len(paths) - len(pending)
        - sum(1 for path in paths if path not in keys),
        "cold_runs": len(pending),
        "unreadable": sum(1 for path in paths if path not in keys),
        "elapsed": time.monotonic() - started,
        "catalog_version": version,
        "jobs": jobs,
    }
    if obs is not None:
        metrics = obs.metrics
        metrics.counter("audit.runs").inc()
        metrics.counter("audit.artifacts").inc(stats["artifacts"])
        metrics.counter("audit.cold_runs").inc(stats["cold_runs"])
        metrics.counter("audit.cache_hits").inc(stats["cache_hits"])
    return AuditResult([documents[path] for path in paths], stats)


def audit_store(store_root: Any, jobs: int = 1,
                cache: Optional[Any] = None,
                disabled: Iterable[str] = (), strict: bool = False,
                deep: bool = True, obs: Any = None) -> AuditResult:
    """Audit every artifact of a :class:`~repro.store.AutomatonStore`
    tree."""
    return audit_paths(store_artifact_paths(store_root), jobs=jobs,
                       cache=cache, disabled=disabled, strict=strict,
                       deep=deep, obs=obs)
