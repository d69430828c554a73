"""Small shared utilities used across subsystems.

- :mod:`repro.util.fsio` — crash-safe on-disk writes (temp file +
  ``os.replace``), the discipline every persistent artifact in this
  repository follows (harness result cache, trace files, TEA documents,
  automaton store snapshots, metrics dumps).
- :mod:`repro.util.sources` — :func:`source_digest`, the hash of a list
  of source files that keys every cache on the code computing it.
"""

from repro.util.fsio import (
    atomic_write,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.util.sources import source_digest

__all__ = [
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "source_digest",
]
