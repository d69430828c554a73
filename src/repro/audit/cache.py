"""Content-addressed audit result cache.

Mirrors the harness :class:`~repro.harness.cache.ResultCache`
discipline — two-level hash-prefix sharding, atomic JSON writes,
corrupt entries count as misses — but keys on the *audit fingerprint*:
the artifact's content digest, the digest of the program image a deep
snapshot verify reads from beside the snapshot (or its absence), the
rule-catalog version (:func:`repro.verify.catalog_version`), and the
engine options that change what a run means (disabled rules, strict
mode, deep decode).

Because the catalog version hashes the source of every rule module,
adding or changing a rule invalidates every cached result
automatically: the fleet re-audits exactly when the rules change, and
warm reruns over an unchanged store cost one digest per artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Iterable, Iterator, Optional

#: Bumped when the cached document layout changes.
AUDIT_CACHE_SCHEMA = 1


def audit_fingerprint(artifact_digest: str, catalog_version: str,
                      disabled: Iterable[str] = (),
                      strict: bool = False, deep: bool = True,
                      image_digest: Optional[str] = None) -> str:
    """The cache key for one (artifact, catalog, options) triple.

    ``image_digest`` is the digest of the program image the artifact's
    verify reads (``None``: it reads none).
    """
    payload = json.dumps({
        "schema": AUDIT_CACHE_SCHEMA,
        "artifact": artifact_digest,
        "image": image_digest,
        "catalog": catalog_version,
        "disabled": sorted(disabled),
        "strict": bool(strict),
        "deep": bool(deep),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def file_digest(path: Any) -> Optional[str]:
    """SHA-256 hex of a file's bytes, or ``None`` when unreadable."""
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


class AuditCache:
    """Disk-backed audit report cache under ``root``."""

    def __init__(self, root: Any, obs: Any = None) -> None:
        self.root = str(root)
        self.obs = obs

    def _count(self, name: str) -> None:
        if self.obs is not None:
            self.obs.metrics.counter(name).inc()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[Any]:
        """The cached report document, or ``None`` (corrupt = miss)."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            self._count("audit.cache.misses")
            return None
        if (not isinstance(document, dict)
                or document.get("schema") != AUDIT_CACHE_SCHEMA
                or document.get("key") != key):
            self._count("audit.cache.misses")
            return None
        self._count("audit.cache.hits")
        return document.get("report")

    def put(self, key: str, report: Any) -> None:
        """Store one report document (atomic write)."""
        from repro.util.fsio import atomic_write_json

        atomic_write_json(self.path_for(key), {
            "schema": AUDIT_CACHE_SCHEMA,
            "key": key,
            "report": report,
        })
        self._count("audit.cache.writes")

    def _entry_paths(self) -> Iterator[str]:
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for filename in sorted(os.listdir(shard_dir)):
                if filename.endswith(".json"):
                    yield os.path.join(shard_dir, filename)

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed
