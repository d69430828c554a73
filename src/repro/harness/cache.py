"""Persistent on-disk cache for harness stage summaries.

Every harness stage (a native run, a DBT recording, a TEA replay, ...)
reduces to a small JSON-able *summary* — the handful of floats the
table builders consume (see ``Runner.summary``).  This module stores
those summaries on disk keyed by a content hash of everything that can
change them, so a rerun of ``python -m repro.harness all`` only
simulates stages whose inputs actually changed.

Cache key
---------
``stage_key(benchmark, stage, config)`` hashes, canonically serialised:

- the **benchmark definition** (name, suite, seed, and the full kernel
  descriptor list — not just the name, so editing a workload spec
  invalidates its entries);
- the **stage id** (``"native"``, ``"dbt:mret"``,
  ``"replay:global_local"``, ...);
- the **harness configuration** (scale, hot threshold, instruction
  budget);
- the **memory-model parameters** (Table 1 byte accounting);
- the **cost-model parameters** (every ``CostParameters`` constant —
  recalibrating the cycle model invalidates everything);
- the **code**: a digest of every module of the ``repro`` package
  (:func:`code_fingerprint`), so editing how any stage computes its
  summary invalidates its entries;
- a cache **schema version**.

Anything not in the key cannot affect a summary; anything in the key
that changes produces a different hash, so invalidation is purely
content-addressed — there is no TTL and no manual invalidation beyond
``--no-cache`` / deleting the directory (``repro tools cache --clear``).

Entries are one JSON file per key, sharded by hash prefix, written via
the shared atomic temp-file + :func:`os.replace` helper
(:mod:`repro.util.fsio`) so concurrent writers (parallel harness
shards, or two harness processes) can never expose a torn entry.  A corrupt or unreadable entry is treated as a miss and
overwritten.  Traffic is counted in the shared metrics registry
(``harness.cache.disk_hits`` / ``disk_misses`` / ``writes``).
"""

import functools
import hashlib
import json
import os

from repro.dbt.cost import CostParameters
from repro.obs import Observability
from repro.util import atomic_write_json, source_digest
from repro.workloads import get_benchmark

#: Bumped on incompatible changes to the summary schema or key layout.
CACHE_SCHEMA_VERSION = 1

#: Default cache directory (relative to the invoking CWD).
DEFAULT_CACHE_DIR = ".repro_cache"


def benchmark_fingerprint(name):
    """JSON-able identity of one benchmark's full definition."""
    spec = get_benchmark(name)
    return {
        "name": spec.name,
        "suite": spec.suite,
        "seed": spec.seed,
        "kernels": spec.kernels,
    }


@functools.lru_cache(maxsize=None)
def code_fingerprint():
    """Digest of the source of every module of the ``repro`` package.

    Any stage summary can depend on any layer (ISA, interpreter, CFG,
    recorders, DBT, Pin, replay engine, workloads, harness), so the
    whole package is hashed rather than an import-derived subset that
    could miss a module.  Computed once per process.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(
        os.path.relpath(os.path.join(directory, name), root)
        for directory, _dirs, files in os.walk(root)
        for name in files if name.endswith(".py")
    )
    return source_digest(root, paths)


def config_fingerprint(config):
    """JSON-able fingerprint of every knob that can change a summary."""
    memory = config.memory_model
    params = CostParameters()
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "scale": config.scale,
        "hot_threshold": config.hot_threshold,
        "max_instructions": config.max_instructions,
        "memory_model": {
            name: value for name, value in sorted(vars(memory).items())
        },
        "cost_params": {
            name: getattr(params, name) for name in sorted(params.__slots__)
        },
    }


def stage_key(benchmark, stage, config):
    """Content hash addressing one (benchmark, stage, config) summary."""
    payload = {
        "benchmark": benchmark_fingerprint(benchmark),
        "stage": stage,
        "config": config_fingerprint(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """A content-addressed JSON store for stage summaries.

    Parameters
    ----------
    root:
        Directory to store entries in (created lazily on first write).
    obs:
        Optional :class:`~repro.obs.Observability` whose registry
        receives the ``harness.cache.*`` traffic counters; a private
        one is created otherwise (the counters still work, they are
        just not shared).
    """

    def __init__(self, root=DEFAULT_CACHE_DIR, obs=None):
        self.root = str(root)
        self.obs = obs if obs is not None else Observability()
        metrics = self.obs.metrics
        self._hits = metrics.counter("harness.cache.disk_hits")
        self._misses = metrics.counter("harness.cache.disk_misses")
        self._writes = metrics.counter("harness.cache.writes")

    # ------------------------------------------------------------------

    def path_for(self, key):
        """File backing ``key`` (two-level sharding by hash prefix)."""
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key):
        """The stored summary for ``key``, or ``None`` on a miss.

        Unreadable and corrupt entries count as misses; the next
        :meth:`put` simply overwrites them.
        """
        path = self.path_for(key)
        try:
            with open(path) as handle:
                document = json.load(handle)
            value = document["value"]
        except (OSError, ValueError, KeyError, TypeError):
            self._misses.inc()
            return None
        self._hits.inc()
        return value

    def put(self, key, value):
        """Persist ``value`` (JSON-able) under ``key`` atomically."""
        document = {"key": key, "schema": CACHE_SCHEMA_VERSION,
                    "value": value}
        atomic_write_json(self.path_for(key), document, sort_keys=True)
        self._writes.inc()

    # ------------------------------------------------------------------

    def _entry_paths(self):
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for filename in sorted(os.listdir(shard_dir)):
                if filename.endswith(".json") and not filename.startswith("."):
                    yield os.path.join(shard_dir, filename)

    def __len__(self):
        return sum(1 for _ in self._entry_paths())

    def total_bytes(self):
        """Bytes used by all entries (for ``repro tools cache``)."""
        return sum(os.path.getsize(path) for path in self._entry_paths())

    def clear(self):
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self):
        return "<ResultCache %s: %d entries>" % (self.root, len(self))
