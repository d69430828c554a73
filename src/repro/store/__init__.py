"""``repro.store`` — persistent, reusable TEA snapshots.

The paper's third listed use of TEA is "storing trace shape and
profiling information for reuse in future executions".  This package
turns that into a real artifact layer:

- :mod:`repro.store.binary` — the ``TEAB`` snapshot codec
  (``dump_tea_binary``, ``load_tea_binary``, ``compile_tea_binary``,
  ``peek_tea_binary``): a fixed header + section table whose automaton
  tables are raw little-endian int64 runs, so a snapshot lowers to a
  :class:`~repro.core.compiled.CompiledTea` *zero-copy* from an
  ``mmap``.  Loading rebuilds the saved automaton byte-exactly
  *without* re-running Algorithm 1.
- :mod:`repro.store.mapping` — :class:`SnapshotMapping`, one shared
  read-only ``mmap`` of a snapshot per process, and the cache that
  lets every worker in a fleet serve the same page-cache copy.
- :mod:`repro.store.store` — :class:`AutomatonStore`, a
  content-addressed snapshot directory with atomic writes, plus
  :func:`describe_snapshot` for format-sniffing inspection of both the
  binary and the JSON TEA formats.

The replay service (:mod:`repro.service`) serves snapshots straight
out of a store; ``repro tools tea info`` inspects individual files.
"""

from repro.store.binary import (
    BINARY_VERSION,
    compile_tea_binary,
    dump_tea_binary,
    load_tea_binary,
    load_tea_binary_file,
    peek_tea_binary,
    save_tea_binary,
)
from repro.store.mapping import (
    SnapshotMapping,
    cached_compiled,
    cached_mapping,
    clear_mapping_cache,
    open_snapshot_mapping,
)
from repro.store.store import (
    DEFAULT_STORE_DIR,
    AutomatonStore,
    describe_snapshot,
    snapshot_key,
)

__all__ = [
    "BINARY_VERSION",
    "compile_tea_binary",
    "dump_tea_binary",
    "load_tea_binary",
    "load_tea_binary_file",
    "peek_tea_binary",
    "save_tea_binary",
    "AutomatonStore",
    "DEFAULT_STORE_DIR",
    "describe_snapshot",
    "snapshot_key",
    "SnapshotMapping",
    "cached_compiled",
    "cached_mapping",
    "clear_mapping_cache",
    "open_snapshot_mapping",
]
