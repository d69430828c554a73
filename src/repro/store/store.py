"""Content-addressed on-disk store for binary TEA snapshots.

An :class:`AutomatonStore` is a directory of ``TEAB`` snapshots keyed
by the SHA-256 of their bytes — the same content-addressing discipline
as the harness result cache (``repro.harness.cache``), with the same
two-level hash-prefix sharding and the same atomic temp-file +
``os.replace`` writes (now shared via :mod:`repro.util.fsio`).  Because
the binary codec is deterministic, storing the same automaton twice is
a no-op, and a key fully identifies an automaton's shape, numbering and
profile.

Snapshots are written in the TEAB section layout
(:mod:`repro.store.binary`), so :meth:`AutomatonStore.map_compiled` can
serve them zero-copy off a shared read-only ``mmap``.  A file in any
other format is refused at every read, with a message that says how to
rebuild it.

The replay service (:mod:`repro.service`) preloads every snapshot in a
store at startup and serves them by key (or by the ``label`` /
``benchmark`` recorded in the snapshot meta) to concurrent clients.

Beside each snapshot a store keeps the read-only image of the program
it was recorded against (``<snapshot-key>.teap``, see
:mod:`repro.isa.image`), so a replaying host decodes the program
instead of generating and assembling it again; the image's header
carries the program digest.  Next to both it keeps read-only
execution-stream sidecars (``<key>.teas``, see :mod:`repro.cpu.stream`):
one recorded run per program, filed under the stream key of the program
digest and instruction budget, so the service replays a snapshot's
program without running the interpreter.  No snapshot byte refers to
an image or a sidecar; :meth:`AutomatonStore.gc` keeps exactly the
sidecars of the programs the present snapshots' images name.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import stat

from repro.errors import SerializationError, VerificationError
from repro.isa.image import ImageHeader, decode_image, encode_image
from repro.isa.image import HEADER_SIZE as IMAGE_HEADER_SIZE
from repro.obs import Observability
from repro.store.binary import (
    _REBUILD,
    compile_tea_binary,
    dump_tea_binary,
    load_tea_binary,
    peek_tea_binary,
)
from repro.util import atomic_write_bytes

#: File extension for stored snapshots.
SNAPSHOT_SUFFIX = ".teab"

#: File extension of execution-stream sidecars (``<stream-key>.teas``).
STREAM_SUFFIX = ".teas"

#: File extension of program images (``<snapshot-key>.teap``).
IMAGE_SUFFIX = ".teap"

#: Default store directory (relative to the invoking CWD).
DEFAULT_STORE_DIR = ".tea_store"


def snapshot_key(data):
    """The content address (SHA-256 hex digest) of snapshot bytes."""
    return hashlib.sha256(data).hexdigest()


def image_path_for(snapshot_path):
    """The program image beside the snapshot file ``snapshot_path``."""
    root, _suffix = os.path.splitext(str(snapshot_path))
    return root + IMAGE_SUFFIX


def read_image(path):
    """The bytes of the image at ``path``, or ``None`` when absent."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def snapshot_program(image, key, source=None):
    """The program snapshot ``key`` was recorded against, decoded from
    its image bytes (``None``: the snapshot has none).

    A missing image raises :class:`SerializationError`; one that fails
    verify rule TEA027 (envelope, CRC, owner, digest) raises
    :class:`VerificationError`.  Both say how to rebuild the snapshot:
    no program is ever regenerated from the snapshot's meta.
    """
    if image is None:
        raise SerializationError("snapshot %s has no program image; %s"
                                 % (key[:12], _REBUILD))
    try:
        return decode_image(image, owner=key)
    except SerializationError as error:
        from repro.verify.api import verify_image_bytes

        report = verify_image_bytes(image, key=key, source=source or key)
        raise VerificationError(
            "snapshot %s has a damaged program image (%s); %s"
            % (key[:12], error, _REBUILD), report.diagnostics) from None


def _header_digest(path, parse, header_size):
    """The program digest in the header of the file at ``path``, read
    without reading the rest; ``None`` when it is unreadable."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(header_size)
            size = os.fstat(handle.fileno()).st_size
        return parse(head, size=size).program_digest
    except (OSError, SerializationError):
        return None


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
        self._gc_images_removed = metrics.counter("store.gc_images_removed")
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

    def put_bytes(self, data, program=None):
        """Store raw snapshot bytes; returns their content key.

        Validates the envelope first so a store can never hold a file
        that is not a parseable snapshot.  Re-putting existing content
        is a cheap no-op (the key already names identical bytes).

        ``program`` (the program the snapshot was recorded against) is
        stored as the snapshot's image, before the snapshot itself, so
        a reader never meets the snapshot without it.  The replay
        service serves only snapshots that have an image.
        """
        peek_tea_binary(data)  # envelope + CRC validation
        key = snapshot_key(data)
        if program is not None:
            self._put_image(key, program)
        path = self.path_for(key)
        if not os.path.exists(path):
            atomic_write_bytes(path, data)
            self._bytes_written.inc(len(data))
        self._puts.inc()
        return key

    def put(self, trace_set, tea=None, profile=None, meta=None,
            program=None):
        """Encode one automaton as TEAB and store it; returns its
        content key.

        The encoding is canonical — the same automaton always produces
        the same bytes, hence the same content key.  ``program`` is
        stored as the snapshot's image (see :meth:`put_bytes`).
        """
        data = dump_tea_binary(trace_set, tea=tea, profile=profile,
                               meta=meta)
        return self.put_bytes(data, program=program)

    def image_path(self, key):
        """File backing snapshot ``key``'s program image."""
        return os.path.join(self.root, key[:2], key + IMAGE_SUFFIX)

    def _put_image(self, key, program):
        """Write ``program``'s image for snapshot ``key``, read-only; an
        identical present image is kept (the encoding is canonical)."""
        data = encode_image(program, key)
        path = self.image_path(key)
        if read_image(path) != data:
            atomic_write_bytes(path, data)
            os.chmod(path, stat.S_IRUSR | stat.S_IRGRP | stat.S_IROTH)
            self._bytes_written.inc(len(data))

    def get_image(self, key):
        """Snapshot ``key``'s program image bytes, or ``None``."""
        return read_image(self.image_path(key))

    def load_program(self, key):
        """The program snapshot ``key`` was recorded against, decoded
        from its image (see :func:`snapshot_program`)."""
        return snapshot_program(self.get_image(key), key,
                                source=self.image_path(key))

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

        The automaton tables are int64 views straight into the mapped
        file: every process (and every caller within a process) mapping
        the same snapshot shares one page-cache copy, so cold-start cost
        is O(section table) and resident growth per extra worker is near
        zero.  The verify gate runs once per
        mapping, not once per call; ``store.mmap_opened`` counts fresh
        mappings.
        """
        path = self.path_for(key)
        if not os.path.exists(path):
            raise SerializationError(
                "no snapshot %s in store %s" % (key, self.root)
            )
        from repro.store.mapping import cached_mapping

        def gate(mapping):
            self._mmap_opened.inc()
            self._gate(key, mapping.data)

        self._gets.inc()
        return cached_mapping(path, gate=gate).compiled()

    def describe(self, key):
        """Structural summary of ``key`` (no program image needed)."""
        info = peek_tea_binary(self.get_bytes(key))
        info["key"] = key
        return info

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

    def _snapshot_metas(self):
        """``{key: meta}`` of every readable snapshot (one read each)."""
        metas = {}
        for path in self._entry_paths():
            key = os.path.basename(path)[:-len(SNAPSHOT_SUFFIX)]
            try:
                with open(path, "rb") as handle:
                    metas[key] = (peek_tea_binary(handle.read()).get("meta")
                                  or {})
            except (OSError, SerializationError):
                continue
        return metas

    @staticmethod
    def _superseded_keys(metas):
        """Keys named in another present snapshot's ``supersedes`` meta.

        ``meta["supersedes"]`` (a content key or list of them) is the
        hot-reload breadcrumb: ``repro tools service build`` stamps it
        on a rebuilt snapshot so the swap it triggers leaves a record of
        what it replaced.  Chains resolve because the claims are
        collected before anything is removed — if C supersedes B and B
        supersedes A, one pass prunes both A and B.
        """
        superseded = set()
        for key, meta in metas.items():
            names = meta.get("supersedes")
            if isinstance(names, str):
                names = (names,)
            for name in names or ():
                if name != key:
                    superseded.add(name)
        return superseded

    def gc(self):
        """Prune superseded snapshots with their images, and
        unreferenced stream sidecars; returns how many snapshots were
        removed.

        Any snapshot named in another present snapshot's
        ``meta["supersedes"]`` is deleted — these are the old versions
        a hot-reload swap retired but left on disk so in-flight replays
        could drain.  They are counted in ``store.gc_removed`` and in
        the return value.  Each one's program image goes with it,
        counted in ``store.gc_images_removed`` alone.

        Then a stream sidecar is kept only while the image of some
        remaining snapshot names the program it was recorded from (any
        budget).  Sidecars are derived data, so their removals go to
        ``store.gc_streams_removed`` alone and do not count in the
        return value.  Only the headers of images and sidecars are read.
        """
        metas = self._snapshot_metas()
        removed = 0
        images_removed = 0
        for key in sorted(self._superseded_keys(metas)):
            try:
                os.unlink(self.path_for(key))
                removed += 1
            except OSError:
                continue
            metas.pop(key, None)
            try:
                os.unlink(self.image_path(key))
                images_removed += 1
            except OSError:
                pass
        self._gc_removed.inc(removed)
        self._gc_images_removed.inc(images_removed)
        self._gc_streams_removed.inc(self._gc_streams(metas))
        return removed

    def _gc_streams(self, metas):
        """Delete the sidecars no image of a snapshot in ``metas``
        names; returns how many went."""
        from repro.cpu.stream import HEADER_SIZE, StreamHeader

        paths = list(self._stream_paths())
        if not paths:
            return 0
        live = {_header_digest(self.image_path(key), ImageHeader.parse,
                               IMAGE_HEADER_SIZE) for key in metas}
        live.discard(None)
        removed = 0
        for path in paths:
            if _header_digest(path, StreamHeader.parse, HEADER_SIZE) in live:
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def clear(self):
        """Delete every snapshot (and program image and stream sidecar);
        returns how many snapshots were removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        for path in (list(self._stream_paths())
                     + list(self._shard_files(IMAGE_SUFFIX))):
            try:
                os.unlink(path)
            except OSError:
                pass
        return removed

    def __repr__(self):
        return "<AutomatonStore %s: %d snapshots>" % (self.root, len(self))


def describe_snapshot(path):
    """Format-sniffing summary of a TEA file (JSON document or binary).

    Backs ``repro tools tea info``: returns the same dict shape for
    both formats — version, format, state/transition/head counts,
    profile presence, on-disk size.  JSON documents rebuild their
    automaton with Algorithm 1, so the derived counts (one state per
    TBB plus NTE, one transition per edge, one head per trace) are
    reported for them.
    """
    import json

    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SerializationError("cannot read %s: %s" % (path, error)) from None
    if data[:4] == b"TEAB":
        return peek_tea_binary(data)
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
    }
