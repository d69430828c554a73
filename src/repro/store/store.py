"""Content-addressed on-disk store for binary TEA snapshots.

An :class:`AutomatonStore` is a directory of ``TEAB`` snapshots keyed
by the SHA-256 of their bytes — the same content-addressing discipline
as the harness result cache (``repro.harness.cache``), with the same
two-level hash-prefix sharding and the same atomic temp-file +
``os.replace`` writes (now shared via :mod:`repro.util.fsio`).  Because
the binary codec is deterministic, storing the same automaton twice is
a no-op, and a key fully identifies an automaton's shape, numbering and
profile.

New snapshots are written in the TEAB v2 section layout
(:mod:`repro.store.binary_v2`) so :meth:`AutomatonStore.map_compiled`
can serve them zero-copy off a shared read-only ``mmap``; v1 snapshots
load transparently everywhere and :meth:`AutomatonStore.migrate`
re-encodes a store in place.

The replay service (:mod:`repro.service`) preloads every snapshot in a
store at startup and serves them by key (or by the ``label`` /
``benchmark`` recorded in the snapshot meta) to concurrent clients.

Next to the snapshots a store keeps read-only execution-stream
sidecars (``<key>.teas``, see :mod:`repro.cpu.stream`): one recorded
run per program, filed under the stream key of the program digest and
instruction budget, so the service replays a snapshot's program
without running the interpreter.  No snapshot byte refers to a
sidecar; :meth:`AutomatonStore.gc` keeps exactly the sidecars of the
programs the present snapshots' ``benchmark``/``scale`` meta names.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import stat

from repro.errors import SerializationError
from repro.obs import Observability
from repro.store.binary import (
    BINARY_VERSION,
    compile_tea_binary,
    dump_tea_binary,
    load_tea_binary,
    peek_tea_binary,
    snapshot_version,
)
from repro.store.binary_v2 import (
    BINARY_VERSION_V2,
    DEFAULT_SNAPSHOT_VERSION,
    convert_v1_to_v2,
    convert_v2_to_v1,
    dump_tea_binary_v2,
)
from repro.util import atomic_write_bytes

#: File extension for stored snapshots.
SNAPSHOT_SUFFIX = ".teab"

#: File extension of execution-stream sidecars (``<stream-key>.teas``).
STREAM_SUFFIX = ".teas"

#: Default store directory (relative to the invoking CWD).
DEFAULT_STORE_DIR = ".tea_store"


def snapshot_key(data):
    """The content address (SHA-256 hex digest) of snapshot bytes."""
    return hashlib.sha256(data).hexdigest()


def stable_hash64(text, salt=""):
    """A deterministic 64-bit hash of a string (SHA-256 prefix).

    Unlike ``hash()``, this is independent of ``PYTHONHASHSEED`` and
    identical across processes and machines — the property the cluster
    router's consistent-hash ring needs so every router instance (and
    the ``repro tools cluster plan`` CLI) agrees on which worker owns a
    snapshot digest.  ``salt`` separates hash domains (ring points vs
    routed keys) so a node name can never collide with a content key
    by construction.
    """
    payload = ("%s\x00%s" % (salt, text)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class AutomatonStore:
    """A directory of content-addressed binary TEA snapshots.

    Parameters
    ----------
    root:
        Directory holding the snapshots (created lazily on first put).
    obs:
        Optional :class:`~repro.obs.Observability` receiving the
        ``store.*`` traffic counters; a private one is created
        otherwise.
    verify_on_load:
        When true (the default), :meth:`load` and :meth:`get_compiled`
        run the static snapshot rules (``TEA020``-``TEA025``) over the
        bytes before decoding and raise
        :class:`~repro.errors.VerificationError` — still a
        :class:`SerializationError` — on damage the CRC alone cannot
        see.  ``store.verify_ok`` / ``store.verify_failed`` count the
        outcomes.
    """

    def __init__(self, root=DEFAULT_STORE_DIR, obs=None,
                 verify_on_load=True):
        self.root = str(root)
        self.obs = obs if obs is not None else Observability()
        self.verify_on_load = bool(verify_on_load)
        metrics = self.obs.metrics
        self._puts = metrics.counter("store.puts")
        self._gets = metrics.counter("store.gets")
        self._bytes_written = metrics.counter("store.bytes_written")
        self._verify_ok = metrics.counter("store.verify_ok")
        self._verify_failed = metrics.counter("store.verify_failed")
        self._gc_removed = metrics.counter("store.gc_removed")
        self._gc_streams_removed = metrics.counter("store.gc_streams_removed")
        self._streams_written = metrics.counter("store.streams_written")
        self._mmap_opened = metrics.counter("store.mmap_opened")

    def _gate(self, key, data):
        """Run the snapshot rules over ``data`` when the gate is on."""
        if not self.verify_on_load:
            return
        from repro.verify.api import verify_snapshot_bytes

        report = verify_snapshot_bytes(data, source=key, deep=False)
        if report.ok():
            self._verify_ok.inc()
        else:
            self._verify_failed.inc()
            report.raise_on_error()

    # ------------------------------------------------------------------

    def path_for(self, key):
        """File backing ``key`` (two-level sharding by hash prefix)."""
        return os.path.join(self.root, key[:2], key + SNAPSHOT_SUFFIX)

    def put_bytes(self, data):
        """Store raw snapshot bytes; returns their content key.

        Validates the envelope first so a store can never hold a file
        that is not a parseable snapshot.  Re-putting existing content
        is a cheap no-op (the key already names identical bytes).
        """
        peek_tea_binary(data)  # envelope + CRC validation
        key = snapshot_key(data)
        path = self.path_for(key)
        if not os.path.exists(path):
            atomic_write_bytes(path, data)
            self._bytes_written.inc(len(data))
        self._puts.inc()
        return key

    def put(self, trace_set, tea=None, profile=None, meta=None,
            version=DEFAULT_SNAPSHOT_VERSION):
        """Encode and store one automaton; returns its content key.

        ``version`` selects the snapshot format: 2 (the default) writes
        the mmap-able section layout, 1 the legacy varint stream.  Both
        are canonical per version — the same automaton always produces
        the same bytes, hence the same content key, within a format.
        """
        if version == BINARY_VERSION_V2:
            data = dump_tea_binary_v2(trace_set, tea=tea, profile=profile,
                                      meta=meta)
        elif version == BINARY_VERSION:
            data = dump_tea_binary(trace_set, tea=tea, profile=profile,
                                   meta=meta)
        else:
            raise SerializationError(
                "unknown snapshot version %r (know 1 and 2)" % (version,)
            )
        return self.put_bytes(data)

    def get_bytes(self, key):
        """Raw snapshot bytes for ``key``; raises on unknown keys."""
        try:
            with open(self.path_for(key), "rb") as handle:
                data = handle.read()
        except OSError:
            raise SerializationError(
                "no snapshot %s in store %s" % (key, self.root)
            ) from None
        self._gets.inc()
        return data

    def load(self, key, block_index, with_meta=False):
        """Rebuild ``(trace_set, tea, profile)`` for ``key``.

        ``block_index`` must be backed by the program image the
        snapshot was recorded against, exactly as for the JSON loaders.
        """
        data = self.get_bytes(key)
        self._gate(key, data)
        return load_tea_binary(data, block_index, with_meta=with_meta)

    def get_compiled(self, key):
        """A :class:`~repro.core.compiled.CompiledTea` for ``key``.

        Lowers the snapshot's automaton tables straight into the
        compiled flat-table layout — no program image, no ``TeaState``
        object graph, no Algorithm 1 (see
        :func:`~repro.store.binary.compile_tea_binary`).
        """
        data = self.get_bytes(key)
        self._gate(key, data)
        return compile_tea_binary(data, verify=False)

    def map_compiled(self, key):
        """A zero-copy :class:`~repro.core.compiled.CompiledTea` for
        ``key``, backed by a shared read-only ``mmap``.

        For v2 snapshots the automaton tables are int64 views straight
        into the mapped file: every process (and every caller within a
        process) mapping the same snapshot shares one page-cache copy,
        so cold-start cost is O(section table) and resident growth per
        extra worker is near zero.  The verify gate runs once per
        mapping, not once per call; ``store.mmap_opened`` counts fresh
        mappings.  v1 snapshots have no zero-copy layout and fall back
        to :meth:`get_compiled` (a private decoded copy).
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                head = handle.read(5)
        except OSError:
            raise SerializationError(
                "no snapshot %s in store %s" % (key, self.root)
            ) from None
        if snapshot_version(head) != BINARY_VERSION_V2:
            return self.get_compiled(key)
        from repro.store.mapping import cached_mapping

        def gate(mapping):
            self._mmap_opened.inc()
            self._gate(key, mapping.data)

        self._gets.inc()
        return cached_mapping(path, gate=gate).compiled()

    def migrate(self, to_version=BINARY_VERSION_V2):
        """Re-encode every snapshot into ``to_version``; returns a dict
        mapping each re-encoded snapshot's old content key to its new
        one (unchanged snapshots are not in the dict).

        The conversion is checked before anything is deleted: the new
        bytes must convert *back* to the original image byte-for-byte
        (the TEA026 invariant), so a migration can never lose content.
        Because keys are content addresses, migrating changes them.
        """
        if to_version not in (BINARY_VERSION, BINARY_VERSION_V2):
            raise SerializationError(
                "unknown snapshot version %r (know 1 and 2)" % (to_version,)
            )
        forward = (convert_v1_to_v2 if to_version == BINARY_VERSION_V2
                   else convert_v2_to_v1)
        backward = (convert_v2_to_v1 if to_version == BINARY_VERSION_V2
                    else convert_v1_to_v2)
        migrated = {}
        for path in list(self._entry_paths()):
            with open(path, "rb") as handle:
                data = handle.read()
            if snapshot_version(data) == to_version:
                continue
            old_key = os.path.basename(path)[:-len(SNAPSHOT_SUFFIX)]
            self._gate(old_key, data)
            converted = forward(data)
            if backward(converted) != data:
                raise SerializationError(
                    "snapshot %s does not survive the v%d round-trip; "
                    "refusing to migrate it" % (old_key, to_version)
                )
            migrated[old_key] = self.put_bytes(converted)
            try:
                os.unlink(path)
            except OSError:
                pass
        return migrated

    def describe(self, key):
        """Structural summary of ``key`` (no program image needed)."""
        info = peek_tea_binary(self.get_bytes(key))
        info["key"] = key
        return info

    def put_minimized(self, key, block_index=None, mode="exact",
                      budget=None, hotness=None):
        """Minimize snapshot ``key`` and store the result next to it.

        Returns ``(new_key, result)`` — the minimized snapshot's
        content key and the :class:`~repro.minimize.MinimizationResult`
        that produced it.  The new snapshot's meta carries full
        provenance (gated by verify rule TEA050 at every load
        boundary): ``minimized_from`` names the original content key,
        ``minimize`` summarizes the pass, and any ``label`` gains a
        ``-min`` suffix so the two never alias in the service registry.

        ``block_index`` must cover the program the snapshot was
        recorded against; when omitted it is rebuilt from the
        snapshot's ``benchmark``/``scale`` meta (the service
        convention).  The profile section is dropped — its counts are
        keyed by original state identities.
        """
        from repro.minimize import minimize_tea

        data = self.get_bytes(key)
        self._gate(key, data)
        meta = peek_tea_binary(data).get("meta") or {}
        if block_index is None:
            from repro.cfg.basic_block import BlockIndex
            from repro.verify.api import program_for_meta

            program = program_for_meta(meta)
            if program is None:
                raise SerializationError(
                    "snapshot %s carries no benchmark meta; pass a "
                    "block_index to minimize it" % key
                )
            block_index = BlockIndex(program)
        trace_set, tea, _profile = load_tea_binary(data, block_index)
        result = minimize_tea(tea, mode=mode, budget=budget,
                              hotness=hotness, obs=self.obs)
        out_meta = dict(meta)
        out_meta["minimized_from"] = key
        out_meta["minimize"] = result.describe()
        if out_meta.get("label"):
            out_meta["label"] = "%s-min" % out_meta["label"]
        new_key = self.put(trace_set, tea=result.tea, meta=out_meta)
        return new_key, result

    # ------------------------------------------------------------------
    # execution-stream sidecars

    def stream_path(self, key):
        """File backing the stream sidecar ``key`` (same sharding)."""
        return os.path.join(self.root, key[:2], key + STREAM_SUFFIX)

    def put_stream(self, stream):
        """Store an :class:`~repro.cpu.stream.ExecutionStream` as a
        read-only sidecar; returns its key.  A present sidecar is kept
        when it passes TEA027 (its key fixes its content) and replaced
        otherwise."""
        from repro.cpu.stream import check_stream_bytes

        key = stream.key
        path = self.stream_path(key)
        try:
            with open(path, "rb") as handle:
                sound = not check_stream_bytes(handle.read(), key=key)
        except FileNotFoundError:
            sound = False
        if not sound:
            data = stream.to_bytes()
            atomic_write_bytes(path, data)
            os.chmod(path, stat.S_IRUSR | stat.S_IRGRP | stat.S_IROTH)
            self._bytes_written.inc(len(data))
            self._streams_written.inc()
        return key

    def open_stream(self, program_digest, max_instructions):
        """The stored stream of ``(program_digest, max_instructions)``,
        mapped read-only and zero-copy, or ``None`` when the store holds
        none.

        The sidecar must pass verify rule TEA027 (envelope, CRC, key,
        totals); a failing one raises
        :class:`~repro.errors.VerificationError` and is never served.
        """
        from repro.cpu.stream import ExecutionStream, stream_key
        from repro.verify.api import verify_stream_bytes

        key = stream_key(program_digest, max_instructions)
        path = self.stream_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            data = b""      # an empty file cannot be mapped
        report = verify_stream_bytes(data, key=key,
                                     program_digest=program_digest,
                                     source=path)
        if not report.ok():
            self._verify_failed.inc()
            report.raise_on_error()
        self._verify_ok.inc()
        self._gets.inc()
        return ExecutionStream.from_buffer(data)

    def _stream_paths(self):
        return self._shard_files(STREAM_SUFFIX)

    def stream_keys(self):
        """Keys of every stored stream sidecar (sorted)."""
        return [
            os.path.basename(path)[:-len(STREAM_SUFFIX)]
            for path in self._stream_paths()
        ]

    def _referenced_programs(self):
        """Program digests named by the present snapshots' meta."""
        from repro.errors import ReproError
        from repro.workloads import program_digest

        digests = set()
        for path in self._entry_paths():
            try:
                with open(path, "rb") as handle:
                    meta = peek_tea_binary(handle.read()).get("meta") or {}
            except (OSError, SerializationError):
                continue
            benchmark = meta.get("benchmark")
            if not benchmark:
                continue
            try:
                digests.add(program_digest(benchmark,
                                           float(meta.get("scale", 1.0))))
            except (ReproError, TypeError, ValueError):
                continue
        return digests

    # ------------------------------------------------------------------

    def _shard_files(self, suffix):
        """Paths of every non-hidden file ending in ``suffix`` (sorted)."""
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for filename in sorted(os.listdir(shard_dir)):
                if filename.endswith(suffix) and not filename.startswith("."):
                    yield os.path.join(shard_dir, filename)

    def _entry_paths(self):
        return self._shard_files(SNAPSHOT_SUFFIX)

    def keys(self):
        """Content keys of every stored snapshot (sorted)."""
        return [
            os.path.basename(path)[:-len(SNAPSHOT_SUFFIX)]
            for path in self._entry_paths()
        ]

    def __contains__(self, key):
        return os.path.exists(self.path_for(key))

    def __len__(self):
        return sum(1 for _ in self._entry_paths())

    def total_bytes(self):
        """Bytes used by all snapshots."""
        return sum(os.path.getsize(path) for path in self._entry_paths())

    def _superseded_keys(self):
        """Keys named in another present snapshot's ``supersedes`` meta.

        ``meta["supersedes"]`` (a content key or list of them) is the
        hot-reload breadcrumb: ``repro tools service build`` stamps it
        on a rebuilt snapshot so the swap it triggers leaves a record of
        what it replaced.  Chains resolve because the claims are
        collected before anything is removed — if C supersedes B and B
        supersedes A, one pass prunes both A and B.
        """
        superseded = set()
        for path in self._entry_paths():
            key = os.path.basename(path)[:-len(SNAPSHOT_SUFFIX)]
            try:
                with open(path, "rb") as handle:
                    meta = peek_tea_binary(handle.read()).get("meta") or {}
            except (OSError, SerializationError):
                continue
            names = meta.get("supersedes")
            if isinstance(names, str):
                names = (names,)
            for name in names or ():
                if name != key:
                    superseded.add(name)
        return superseded

    def gc(self):
        """Prune superseded snapshots, leftover JIT-source files and
        unreferenced stream sidecars; returns how many snapshot and JIT
        files were removed.

        The first two passes are counted together in
        ``store.gc_removed`` and in the return value:

        1. Any snapshot named in another present snapshot's
           ``meta["supersedes"]`` is deleted — these are the old
           versions a hot-reload swap retired but left on disk so
           in-flight replays could drain.
        2. Every ``*.jit.py`` file is deleted: older stores cached
           generated replay code there, and nothing reads it any more
           (see :meth:`_remove_legacy_jit`).

        Third, a stream sidecar is kept only while some remaining
        snapshot's ``benchmark``/``scale`` meta names the program it
        was recorded from (any budget).  Sidecars are derived data, so
        their removals go to ``store.gc_streams_removed`` alone and do
        not count in the return value.
        """
        removed = 0
        superseded = self._superseded_keys()
        for key in superseded:
            path = self.path_for(key)
            if not os.path.exists(path):
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        removed += self._remove_legacy_jit()
        self._gc_removed.inc(removed)
        self._gc_streams_removed.inc(self._gc_streams())
        return removed

    def _remove_legacy_jit(self):
        """Delete the ``<key>.<config>.jit.py`` replay sources older
        stores cached next to their snapshots; returns how many went.
        JIT code is generated in memory per process and never read from
        disk, so these files are removed unconditionally."""
        removed = 0
        for path in list(self._shard_files(".jit.py")):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def _gc_streams(self):
        from repro.cpu.stream import StreamHeader

        paths = list(self._stream_paths())
        if not paths:
            return 0
        live = self._referenced_programs()
        removed = 0
        for path in paths:
            try:
                with open(path, "rb") as handle:
                    digest = StreamHeader.parse(handle.read()).program_digest
            except OSError:
                continue
            except SerializationError:
                digest = None   # unreadable: nothing can use it
            if digest in live:
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def clear(self):
        """Delete every snapshot (and stream sidecar and leftover JIT
        source); returns how many snapshots were removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        for path in list(self._stream_paths()):
            try:
                os.unlink(path)
            except OSError:
                pass
        self._remove_legacy_jit()
        return removed

    def __repr__(self):
        return "<AutomatonStore %s: %d snapshots>" % (self.root, len(self))


def describe_snapshot(path):
    """Format-sniffing summary of a TEA file (JSON document or binary).

    Backs ``repro tools tea info``: returns the same dict shape for
    both formats — version, format, state/transition/head counts,
    profile presence, on-disk size, plus the minimization-relevant
    ``mergeable_estimate`` (a first-order upper bound on how many
    states partition refinement could merge; see
    :func:`repro.minimize.mergeable_estimate`).  JSON documents rebuild
    their automaton with Algorithm 1, so the derived counts (one state
    per TBB plus NTE, one transition per edge, one head per trace) are
    reported for them.
    """
    import json

    from repro.minimize import mergeable_estimate

    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SerializationError("cannot read %s: %s" % (path, error)) from None
    if data[:4] == b"TEAB":
        info = peek_tea_binary(data)
        if snapshot_version(data) == BINARY_VERSION_V2:
            # The CSR tables sit raw in the file: read them as int64
            # views, never materializing an automaton at all.
            from repro.store.binary_v2 import (
                SEC_HEAD_SIDS, SEC_TRANS_LABELS, SEC_TRANS_OFFSET,
                int64_section, open_v2,
            )

            sections = open_v2(data)
            offsets = int64_section(data, *sections[SEC_TRANS_OFFSET][:2])
            labels = int64_section(data, *sections[SEC_TRANS_LABELS][:2])
            head_sids = int64_section(data, *sections[SEC_HEAD_SIDS][:2])
            n_states = len(offsets) - 1
        else:
            compiled = compile_tea_binary(data, verify=False)
            offsets = compiled.trans_offset
            labels = compiled.trans_labels
            head_sids = compiled.head_sids
            n_states = compiled.n_states
        edge_labels = [
            list(labels[offsets[sid]:offsets[sid + 1]])
            for sid in range(n_states)
        ]
        info["mergeable_estimate"] = mergeable_estimate(
            edge_labels, set(head_sids)
        )
        return info
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise SerializationError(
            "%s is neither a binary TEA snapshot nor a JSON document" % path
        ) from None
    if not isinstance(document, dict) or "version" not in document:
        raise SerializationError("%s is not a TEA document" % path)
    traces_doc = document.get("traces", document)
    traces = traces_doc.get("traces", [])
    n_tbbs = sum(len(trace.get("tbbs", ())) for trace in traces)
    n_edges = sum(len(trace.get("edges", ())) for trace in traces)
    # Mirror Algorithm 1's state numbering (NTE, then one state per TBB
    # in trace order) to estimate merge potential for documents too.
    edge_labels = [[]]
    head_sids = set()
    for trace in traces:
        first_sid = len(edge_labels)
        head_sids.add(first_sid)
        by_index = {}
        for from_index, _to_index, label in trace.get("edges", ()):
            by_index.setdefault(from_index, []).append(label)
        for index in range(len(trace.get("tbbs", ()))):
            edge_labels.append(by_index.get(index, []))
    return {
        "format": "json",
        "version": document.get("version"),
        "kind": traces_doc.get("kind"),
        "traces": len(traces),
        "tbbs": n_tbbs,
        "edges": n_edges,
        "states": n_tbbs + 1,
        "transitions": n_edges,
        "heads": len(traces),
        "profile": "profile" in document,
        "meta": None,
        "bytes": len(data),
        "mergeable_estimate": mergeable_estimate(edge_labels, head_sids),
    }
