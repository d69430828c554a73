"""The TEA replay service: an asyncio JSON-over-TCP automaton server.

The paper's headline result is cross-system replay — traces recorded in
one world (StarDBT) driving execution observation in another (Pin).
This server is the "many futures" version of that hand-off: it preloads
binary automaton snapshots from an :class:`~repro.store.AutomatonStore`
once, then serves replay, coverage, automaton-walk and introspection
requests to any number of concurrent clients, none of which ever
re-runs Algorithm 1.

Concurrency model
-----------------
- one asyncio task per connection reads frames and spawns one task per
  request, so a single connection can pipeline requests (responses are
  matched by ``id``, written under a per-connection lock);
- CPU-bound replays run in a configurable thread worker pool via
  ``run_in_executor``; the preloaded program image, trace set and TEA
  are shared read-only across workers (each replay builds its own
  directory, local caches and stats);
- every request is bounded by ``request_timeout`` and every frame by
  ``max_payload`` — violations produce structured error replies
  (:mod:`repro.service.protocol` error codes), never a silent hangup;
- ``SIGTERM``/``shutdown`` drain gracefully: the listener closes, new
  requests are refused with ``shutting-down``, and every in-flight
  request completes and is answered before the process exits.

All traffic is metered through ``repro.obs`` (``service.*`` counters,
per-method latency timers) and exported via the ``stats`` RPC.
"""

import asyncio
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

from repro import __version__
from repro.cfg.basic_block import BlockIndex
from repro.core.replay import ReplayConfig
from repro.cpu.executor import DEFAULT_MAX_INSTRUCTIONS
from repro.cpu.stream import ExecutionStream, stream_key
from repro.errors import ReproError, SerializationError, VerificationError
from repro.obs import Observability
from repro.pin import Pin, TeaReplayTool
from repro.pin.pin import native_cost
from repro.service.protocol import (
    E_INTERNAL,
    E_INVALID,
    E_METHOD,
    E_PARAMS,
    E_PARSE,
    E_SHUTDOWN,
    E_SNAPSHOT,
    E_TIMEOUT,
    E_TOO_LARGE,
    MAX_PAYLOAD_DEFAULT,
    PayloadTooLarge,
    ProtocolError,
    encode_frame,
    error_reply,
    read_frame,
    result_reply,
)
from repro.store.binary import load_and_compile_tea_binary
from repro.store.store import snapshot_program
from repro.verify import all_rules, verify_snapshot_bytes

# Everything preload and replay run is imported here, on the importing
# thread, and nothing else (docs/architecture.md, "What each process
# imports").  That includes the verify rule catalog, which would
# otherwise be compiled on a pool thread in the middle of preload.
all_rules()

#: Replay configuration names accepted by the ``replay``/``coverage``
#: RPCs (the Table 4 axes, same names as the tools CLI).
REPLAY_CONFIGS = {
    "global_local": ReplayConfig.global_local,
    "global_no_local": ReplayConfig.global_no_local,
    "no_global_local": ReplayConfig.no_global_local,
    "no_global_no_local": ReplayConfig.no_global_no_local,
}

#: The one replay engine, echoed in every ``replay``/``coverage`` reply
#: and the only value a request's optional ``engine`` param may carry:
#: the compiled walk over the stream's packed batches, on the
#: :class:`~repro.core.compiled.CompiledTea` each preloaded snapshot
#: carries (lowered straight from the snapshot bytes).
REPLAY_ENGINE = "compiled"


class ServiceSetupError(ReproError):
    """The service could not preload its snapshots."""


class _BadParams(ReproError):
    """Internal: invalid params for an RPC (mapped to ``bad-params``)."""


def _integer(value, hex_string=False):
    """``value`` when its type is exactly ``int`` (no bool, no float), or
    with ``hex_string`` a hex string's value; else ``None``."""
    if hex_string and isinstance(value, str):
        try:
            return int(value, 16)
        except ValueError:
            return None
    return value if type(value) is int else None


class _UnknownSnapshot(ReproError):
    """Internal: no such snapshot (mapped to ``unknown-snapshot``)."""


class _InvalidSnapshot(ReproError):
    """Internal: snapshot failed verification (``invalid-automaton``)."""


class ServiceConfig:
    """Operational knobs for one :class:`TeaService` instance."""

    __slots__ = ("host", "port", "workers", "request_timeout",
                 "max_payload", "drain_timeout", "debug", "verify")

    def __init__(self, host="127.0.0.1", port=0, workers=4,
                 request_timeout=60.0, max_payload=MAX_PAYLOAD_DEFAULT,
                 drain_timeout=30.0, debug=False, verify=True):
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.request_timeout = request_timeout
        self.max_payload = max_payload
        self.drain_timeout = drain_timeout
        #: Enables the ``sleep`` RPC (used by the timeout/drain tests).
        self.debug = debug
        #: Opt-out gate: statically verify every snapshot at preload;
        #: failing snapshots are quarantined (``invalid-automaton``
        #: RPC errors) instead of crashing startup.
        self.verify = bool(verify)


class StreamSource:
    """One program's execution stream, shared by every entry replaying
    that program.

    The service opens it at load: the store's sidecar for the program,
    mapped read-only once it passes TEA027.  Without a sound sidecar
    the stream is recorded in memory on first use, exactly once:
    concurrent first replays wait for that one recording
    (single-flight).  ``lock`` is the service-wide recording lock;
    recordings are CPU-bound under the GIL anyway, and serializing them
    keeps the executor's ``exec.run`` timer from overlapping.
    """

    __slots__ = ("program", "_stream", "_lock", "__weakref__")

    def __init__(self, program, lock, stream=None):
        self.program = program
        self._stream = stream
        self._lock = lock

    def get(self, obs=None):
        """The stream; records it first when there is none yet."""
        stream = self._stream
        if stream is None:
            with self._lock:
                stream = self._stream
                if stream is None:
                    stream = ExecutionStream.record(self.program, obs=obs)
                    self._stream = stream
        return stream


class SnapshotEntry:
    """One preloaded snapshot: program image + trace set + automaton.

    Entries loaded from a store additionally carry the read-only
    :class:`~repro.store.mapping.SnapshotMapping` their compiled tables
    view into (``mapping``); hot-reload retires an entry by flagging
    ``retired`` and closes the mapping once ``inflight`` — the number
    of replay/diff requests currently using the entry, maintained on
    the event loop — drains to zero.  ``stream`` is the
    :class:`StreamSource` of the snapshot's program, shared with every
    other entry of the same program.
    """

    __slots__ = ("key", "meta", "label", "program", "trace_set", "tea",
                 "compiled", "profile", "n_bytes", "mapping", "stream",
                 "inflight", "retired")

    def __init__(self, key, meta, program, trace_set, tea, profile, n_bytes,
                 compiled=None, mapping=None, stream=None):
        self.key = key
        self.meta = meta or {}
        self.label = self.meta.get("label") or self.meta.get("benchmark") or key
        self.program = program
        self.trace_set = trace_set
        self.tea = tea
        self.compiled = compiled
        self.profile = profile
        self.n_bytes = n_bytes
        self.mapping = mapping
        self.stream = (stream if stream is not None
                       else StreamSource(program, threading.Lock()))
        self.inflight = 0
        self.retired = False

    def describe(self):
        return {
            "key": self.key,
            "label": self.label,
            "benchmark": self.meta.get("benchmark"),
            "scale": self.meta.get("scale"),
            "kind": self.trace_set.kind,
            "traces": len(self.trace_set),
            "tbbs": self.trace_set.n_tbbs,
            "edges": self.trace_set.n_edges,
            "states": self.tea.n_states,
            "transitions": self.tea.n_transitions,
            "heads": self.tea.n_traces,
            "profile": self.profile is not None,
            "bytes": self.n_bytes,
            "meta": self.meta,
        }


def load_entry(key, data, image, verify=True, mapping=None, streams=None):
    """Preload one snapshot's bytes into a :class:`SnapshotEntry`.

    ``image`` is the snapshot's program image (``<key>.teap`` bytes,
    ``None`` when the store holds none; ``repro.service build`` writes
    it): the program is decoded from it, never regenerated from the
    snapshot's meta — the service equivalent of the paper's
    requirement that both systems agree on the program's address
    space.  A missing image raises
    :class:`~repro.errors.SerializationError` and a damaged one
    :class:`~repro.errors.VerificationError` (rule TEA027); both say
    to rebuild the snapshot.

    With ``verify=True`` the static snapshot rules run over the bytes
    first; damage raises :class:`~repro.errors.VerificationError` with
    the offending rule ids.  :meth:`TeaService.preload` quarantines
    the snapshot on any of these errors rather than crash at startup.

    The compiled automaton's tables are views into ``data``.  Pass
    ``mapping`` (a :class:`~repro.store.mapping.SnapshotMapping` whose
    bytes ``data`` must be) to make the entry zero-copy: the tables
    then view the shared read-only ``mmap``, so N service workers
    mapping the same snapshot share one page-cache copy, and retiring
    the entry closes the mapping.

    ``streams`` maps the snapshot's program to its shared
    :class:`StreamSource` (the service passes its own registry); a
    private source, recorded on first replay, is used when omitted.
    """
    if verify:
        verify_snapshot_bytes(data, source=key, deep=False).raise_on_error()
    program = snapshot_program(image, key)
    # One decode of the section table (its CRCs checked once, gate or
    # no gate) gives the objects and the compiled flat-table layout,
    # whose tables view ``data``; the successor dispatch dicts are built
    # eagerly so the worker pool shares them read-only from the start.
    trace_set, tea, profile, meta, compiled = load_and_compile_tea_binary(
        data, BlockIndex(program))
    compiled.successor_maps()
    return SnapshotEntry(key, meta or {}, program, trace_set, tea, profile,
                         len(data), compiled=compiled, mapping=mapping,
                         stream=streams(program) if streams else None)


class TeaService:
    """The replay server.  ``await start()``, then ``serve_forever()``.

    Parameters
    ----------
    store:
        The :class:`~repro.store.AutomatonStore` to preload (every
        snapshot in it is served).
    config:
        :class:`ServiceConfig`; defaults are fine for tests.
    obs:
        Optional shared :class:`~repro.obs.Observability`.
    """

    def __init__(self, store, config=None, obs=None):
        self.store = store
        self.config = config or ServiceConfig()
        self.obs = obs if obs is not None else Observability()
        self.entries = {}          # key -> SnapshotEntry
        self.invalid = {}          # key -> {"error": ..., "rules": [...]}
        self._aliases = {}         # label/benchmark -> key
        self._server = None
        self._pool = None
        self._inflight = set()
        self._draining = False
        self._stopped = None       # asyncio.Event, created in start()
        self._started_at = None
        self._replay_memo = {}     # (key, config) -> result dict
        self._replay_memo_lock = None
        # Retired keys still present in the store, so a later reload
        # does not load them again; forgotten once their files go.
        self._retired_keys = set()
        # stream key -> StreamSource, shared by the entries of one
        # program; entries hold the sources, so a source goes with the
        # last entry of its program.  Loads run on pool threads.
        self._streams = weakref.WeakValueDictionary()
        self._streams_lock = threading.Lock()
        self._record_lock = threading.Lock()
        metrics = self.obs.metrics
        self._requests = metrics.counter("service.requests")
        self._ok = metrics.counter("service.ok")
        self._errors = metrics.counter("service.errors")
        self._bytes_in = metrics.counter("service.bytes_in")
        self._bytes_out = metrics.counter("service.bytes_out")
        self._connections = metrics.counter("service.connections")
        self._verify_ok = metrics.counter("service.verify_ok")
        self._verify_failed = metrics.counter("service.verify_failed")
        self._stream_sidecars = metrics.counter("service.stream_sidecars")
        self._stream_invalid = metrics.counter("service.stream_invalid")
        self._active = metrics.gauge("service.connections_active")
        self._active.set(0)
        self._methods = {
            "ping": self._rpc_ping,
            "snapshots": self._rpc_snapshots,
            "snapshot-info": self._rpc_snapshot_info,
            "replay": self._rpc_replay,
            "coverage": self._rpc_coverage,
            "diff": self._rpc_diff,
            "step-batch": self._rpc_step_batch,
            "stats": self._rpc_stats,
            "reload": self._rpc_reload,
            "shutdown": self._rpc_shutdown,
        }
        if self.config.debug:
            self._methods["sleep"] = self._rpc_sleep

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def preload(self):
        """Load every snapshot in the store (idempotent, synchronous).

        Snapshots that fail static verification (or cannot be decoded
        at all) are *quarantined* in :attr:`invalid` — the service
        still starts, and requests naming them get a structured
        ``invalid-automaton`` error instead of a crash.  So are
        snapshots without a sound program image: their error says to
        rebuild them.
        """
        with self.obs.metrics.timer("service.preload"):
            for key in self.store.keys():
                if key in self.entries or key in self.invalid:
                    continue
                try:
                    entry = self._load_key(key)
                except VerificationError as error:
                    self._verify_failed.inc()
                    self.invalid[key] = {
                        "error": str(error),
                        "rules": error.rule_ids,
                    }
                    continue
                except SerializationError as error:
                    self._verify_failed.inc()
                    self.invalid[key] = {"error": str(error), "rules": []}
                    continue
                self._verify_ok.inc()
                self.entries[key] = entry
                self._aliases.setdefault(entry.label, key)
                benchmark = entry.meta.get("benchmark")
                if benchmark:
                    self._aliases.setdefault(benchmark, key)
        self._refresh_gauges()

    def _load_key(self, key):
        """Load one snapshot zero-copy off a shared ``mmap``, with its
        program image."""
        from repro.store.mapping import open_snapshot_mapping

        image = self.store.get_image(key)
        mapping = open_snapshot_mapping(self.store.path_for(key))
        try:
            return load_entry(key, mapping.data, image,
                              verify=self.config.verify, mapping=mapping,
                              streams=self._stream_for)
        except BaseException:
            mapping.close()
            raise

    def _stream_for(self, program):
        """The shared :class:`StreamSource` of ``program`` (pool thread).

        The first entry of a program opens the store's sidecar; one
        that fails TEA027 is counted in ``service.stream_invalid`` and
        never served — the source records afresh instead.
        """
        digest = program.content_digest()
        key = stream_key(digest, DEFAULT_MAX_INSTRUCTIONS)
        with self._streams_lock:
            source = self._streams.get(key)
            if source is None:
                try:
                    stream = self.store.open_stream(digest,
                                                    DEFAULT_MAX_INSTRUCTIONS)
                except (SerializationError, OSError):
                    self._stream_invalid.inc()
                    stream = None
                if stream is not None:
                    self._stream_sidecars.inc()
                source = StreamSource(program, self._record_lock, stream)
                self._streams[key] = source
        return source

    def _refresh_gauges(self):
        self.obs.metrics.set_gauge("service.snapshots", len(self.entries))
        self.obs.metrics.set_gauge("service.snapshots_invalid",
                                   len(self.invalid))

    async def start(self):
        """Preload snapshots, bind the listener, spin up the pool."""
        if not len(self.store):
            raise ServiceSetupError(
                "store %s holds no snapshots; build one with "
                "'python -m repro.service build'" % self.store.root
            )
        # Loop-bound primitives are created here, inside the running
        # loop, so the service object itself can be built anywhere.
        # The pool exists before the preload so the store walk (file
        # I/O, mmap, verify-on-load) runs off the event loop — the
        # loop stays responsive while a large fleet loads (see
        # dev/concurrency_lint.py).
        self._stopped = asyncio.Event()
        self._replay_memo_lock = asyncio.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="tea-replay"
        )
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(self._pool, self.preload)
        if not self.entries:
            raise ServiceSetupError(
                "all %d snapshot(s) in store %s failed verification"
                % (len(self.invalid), self.store.root)
            )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port,
        )
        self._started_at = time.monotonic()
        return self

    @property
    def address(self):
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        sockets = self._server.sockets
        return sockets[0].getsockname()[:2]

    async def serve_forever(self):
        """Block until :meth:`stop` completes."""
        await self._stopped.wait()

    def initiate_shutdown(self):
        """Begin a graceful drain from the event loop (signal-safe)."""
        if not self._draining:
            asyncio.ensure_future(self.stop())

    async def stop(self):
        """Graceful drain: refuse new work, finish in-flight, close."""
        if self._server is None:
            return
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        pending = [task for task in self._inflight if not task.done()]
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.config.drain_timeout
            )
            for task in still_pending:
                task.cancel()
        self._pool.shutdown(wait=False)
        for entry in self.entries.values():
            if entry.mapping is not None:
                entry.mapping.close()
        self._stopped.set()

    # ------------------------------------------------------------------
    # hot-reload plumbing (all entry/memo mutation on the event loop)
    # ------------------------------------------------------------------

    def _retire(self, entry):
        """Take ``entry`` out of service; release it once it drains.

        The entry is already unreachable (popped from :attr:`entries`),
        so no new request can pick it up; requests that resolved it
        before the swap finish against the old tables and trigger
        :meth:`_finalize` from their own ``finally`` when the last one
        completes.
        """
        entry.retired = True
        if entry.inflight == 0:
            self._finalize(entry)

    def _finalize(self, entry):
        """Drop a drained retired entry's memoized results and mapping."""
        for memo_key in [key for key in self._replay_memo
                         if key[0] == entry.key]:
            del self._replay_memo[memo_key]
        if entry.mapping is not None:
            entry.mapping.close()

    def _release(self, entry):
        """Count one in-flight request done (event-loop-confined)."""
        entry.inflight -= 1
        if entry.retired and entry.inflight == 0:
            self._finalize(entry)

    def _load_new_entries(self, known):
        """Worker-pool body of ``reload``: load unseen store keys.

        Also returns the full set of keys currently present in the
        store — the retire scan needs it, and computing it here keeps
        the store's directory walk off the event loop.
        """
        added = []
        invalid = []
        present = set(self.store.keys())
        for key in sorted(present):
            if key in known:
                continue
            try:
                entry = self._load_key(key)
            except VerificationError as error:
                invalid.append((key, {"error": str(error),
                                      "rules": error.rule_ids}))
            except SerializationError as error:
                invalid.append((key, {"error": str(error), "rules": []}))
            else:
                added.append((key, entry))
        return added, invalid, present

    async def _rpc_reload(self, params):
        """Hot-swap: pick up store changes without dropping a request.

        New snapshots are loaded off the event loop (in the worker
        pool), then applied atomically on it: entries registered,
        label/benchmark aliases repointed latest-wins, and every entry
        that a new snapshot's ``meta["supersedes"]`` names — or whose
        backing file is gone from the store (e.g. after ``store gc``) —
        is retired.  Retired entries stay alive for their in-flight
        replays and are finalized (memo purge + mapping close) when the
        last one drains, so concurrent clients see zero dropped or
        wrong answers across the swap.
        """
        loop = asyncio.get_event_loop()
        known = set(self.entries) | set(self.invalid) | self._retired_keys
        added, invalid, present = await loop.run_in_executor(
            self._pool, self._load_new_entries, known
        )
        for _key, _entry in added:
            self._verify_ok.inc()
        for key, info in invalid:
            self._verify_failed.inc()
            self.invalid[key] = info
        superseded = set()
        for key, entry in added:
            self.entries[key] = entry
            self._aliases[entry.label] = key
            benchmark = entry.meta.get("benchmark")
            if benchmark:
                self._aliases[benchmark] = key
            names = entry.meta.get("supersedes")
            if isinstance(names, str):
                names = (names,)
            superseded.update(name for name in names or () if name != key)
        retired = sorted(
            key for key in self.entries
            if key in superseded or key not in present
        )
        for key in retired:
            self._retire(self.entries.pop(key))
        self._retired_keys.update(retired)
        self._retired_keys &= present
        for key in list(self.invalid):
            if key not in present:
                del self.invalid[key]
        self._aliases = {
            alias: key for alias, key in self._aliases.items()
            if key in self.entries
        }
        self._refresh_gauges()
        return {
            "loaded": sorted(key for key, _entry in added),
            "retired": retired,
            "invalid": sorted(key for key, _info in invalid),
            "snapshots": len(self.entries),
        }

    # ------------------------------------------------------------------
    # connection / request plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        self._connections.inc()
        self._active.value = (self._active.value or 0) + 1
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                try:
                    request = await read_frame(
                        reader, self.config.max_payload,
                        counter=self._bytes_in,
                    )
                except PayloadTooLarge as error:
                    await self._send(
                        writer, write_lock,
                        error_reply(None, E_TOO_LARGE, error),
                    )
                    self._errors.inc()
                    break
                except ProtocolError as error:
                    await self._send(
                        writer, write_lock,
                        error_reply(None, E_PARSE, error),
                    )
                    self._errors.inc()
                    break
                if request is None:
                    break
                task = asyncio.ensure_future(
                    self._serve_request(request, writer, write_lock)
                )
                tasks.add(task)
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # Answer everything already accepted before closing — this
            # is what "no pending-request loss" means on drain.
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._active.value = (self._active.value or 0) - 1

    async def _send(self, writer, lock, reply):
        data = encode_frame(reply)
        async with lock:
            writer.write(data)
            await writer.drain()
        self._bytes_out.inc(len(data))

    async def _serve_request(self, request, writer, write_lock):
        request_id = request.get("id")
        method = request.get("method")
        self._requests.inc()
        started = time.perf_counter()
        if self._draining:
            reply = error_reply(
                request_id, E_SHUTDOWN, "server is draining"
            )
        else:
            handler = self._methods.get(method)
            if handler is None:
                reply = error_reply(
                    request_id, E_METHOD, "unknown method %r" % method
                )
            else:
                reply = await self._invoke(handler, request, request_id)
        if reply.get("ok"):
            self._ok.inc()
        else:
            self._errors.inc()
        try:
            await self._send(writer, write_lock, reply)
        except (ConnectionError, OSError):
            pass
        if method in self._methods:
            # Manual latency accumulation: PhaseTimer's start/stop guard
            # rejects overlap, and requests of one method do overlap.
            timer = self.obs.metrics.timer("service.latency.%s" % method)
            timer.elapsed += time.perf_counter() - started
            timer.count += 1
            self.obs.metrics.counter("service.method.%s" % method).inc()

    async def _invoke(self, handler, request, request_id):
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return error_reply(request_id, E_PARAMS,
                               "params must be an object")
        try:
            result = await asyncio.wait_for(
                handler(params), timeout=self.config.request_timeout
            )
            return result_reply(request_id, result)
        except asyncio.TimeoutError:
            return error_reply(
                request_id, E_TIMEOUT,
                "request exceeded %.1fs" % self.config.request_timeout,
            )
        except _BadParams as error:
            return error_reply(request_id, E_PARAMS, error)
        except _UnknownSnapshot as error:
            return error_reply(request_id, E_SNAPSHOT, error)
        except _InvalidSnapshot as error:
            return error_reply(request_id, E_INVALID, error)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 — structured reply
            return error_reply(
                request_id, E_INTERNAL,
                "%s: %s" % (type(error).__name__, error),
            )

    # ------------------------------------------------------------------
    # RPC methods
    # ------------------------------------------------------------------

    def _resolve(self, params):
        name = params.get("snapshot")
        if name is None:
            if len(self.entries) == 1:
                return next(iter(self.entries.values()))
            raise _BadParams(
                "'snapshot' is required when multiple snapshots are loaded"
            )
        key = self._aliases.get(name, name)
        entry = self.entries.get(key)
        if entry is None:
            quarantined = self.invalid.get(key)
            if quarantined is not None:
                raise _InvalidSnapshot(
                    "snapshot %r failed static verification (%s): %s"
                    % (name, ", ".join(quarantined["rules"]) or "decode",
                       quarantined["error"])
                )
            raise _UnknownSnapshot("no snapshot %r is loaded" % name)
        return entry

    async def _rpc_ping(self, params):
        return {"pong": True, "role": "worker", "version": __version__,
                "snapshots": len(self.entries)}

    async def _rpc_snapshots(self, params):
        result = {
            "snapshots": [
                self.entries[key].describe()
                for key in sorted(self.entries)
            ]
        }
        if self.invalid:
            result["invalid"] = [
                {"key": key, **self.invalid[key]}
                for key in sorted(self.invalid)
            ]
        return result

    async def _rpc_snapshot_info(self, params):
        return self._resolve(params).describe()

    def _replay_config(self, params):
        name = params.get("config", "global_local")
        factory = REPLAY_CONFIGS.get(name)
        if factory is None:
            raise _BadParams(
                "unknown replay config %r (expected one of %s)"
                % (name, ", ".join(sorted(REPLAY_CONFIGS)))
            )
        return name, factory

    def _check_engine(self, params):
        engine = params.get("engine", REPLAY_ENGINE)
        if engine != REPLAY_ENGINE:
            raise _BadParams(
                "unknown replay engine %r (the only engine is %r; omit "
                "'engine')" % (engine, REPLAY_ENGINE)
            )

    async def _rpc_replay(self, params):
        entry = self._resolve(params)
        name, factory = self._replay_config(params)
        self._check_engine(params)
        batch = params.get("batch")
        if batch is not None and (_integer(batch) is None or batch < 1):
            raise _BadParams("'batch' must be a positive integer")
        loop = asyncio.get_event_loop()
        entry.inflight += 1
        try:
            result = await loop.run_in_executor(
                self._pool, self._replay_blocking, entry, factory(), batch,
            )
        finally:
            self._release(entry)
        result["snapshot"] = entry.key
        result["config"] = name
        result["engine"] = REPLAY_ENGINE
        async with self._replay_memo_lock:
            if not entry.retired:
                self._replay_memo.setdefault((entry.key, name), result)
        return result

    async def _rpc_diff(self, params):
        """Structural diff between two loaded snapshots.

        ``snapshot`` (or its alias ``a``) names the left side — the
        usual single-snapshot default applies — and ``b`` the right
        side.  With ``replay: true`` both sides are also replayed
        (honouring ``config`` / ``batch``) and the numeric deltas
        attached.
        """
        from repro.compare import diff_automata, replay_delta

        if "snapshot" not in params and "a" in params:
            params = dict(params, snapshot=params["a"])
        self._check_engine(params)
        entry_a = self._resolve(params)
        name_b = params.get("b")
        if name_b is None:
            raise _BadParams("'b' (the snapshot to diff against) is required")
        entry_b = self._resolve({"snapshot": name_b})
        loop = asyncio.get_event_loop()
        entry_a.inflight += 1
        entry_b.inflight += 1
        try:
            diff = await loop.run_in_executor(
                self._pool, lambda: diff_automata(
                    entry_a.tea, entry_b.tea,
                    label_a=entry_a.label or entry_a.key,
                    label_b=entry_b.label or entry_b.key,
                    obs=self.obs,
                ),
            )
        finally:
            self._release(entry_a)
            self._release(entry_b)
        result = diff.to_json()
        result["snapshot_a"] = entry_a.key
        result["snapshot_b"] = entry_b.key
        if params.get("replay"):
            base = {
                key: params[key] for key in ("config", "batch")
                if key in params
            }
            report_a = await self._rpc_replay(
                dict(base, snapshot=entry_a.key)
            )
            report_b = await self._rpc_replay(
                dict(base, snapshot=entry_b.key)
            )
            result["replay"] = {
                "a": report_a,
                "b": report_b,
                "delta": replay_delta(report_a, report_b),
            }
        return result

    async def _rpc_coverage(self, params):
        entry = self._resolve(params)
        name, _ = self._replay_config(params)
        self._check_engine(params)
        async with self._replay_memo_lock:
            memo = self._replay_memo.get((entry.key, name))
        if memo is None:
            memo = await self._rpc_replay(params)
        return {
            "snapshot": entry.key,
            "config": name,
            "engine": REPLAY_ENGINE,
            "coverage_pin": memo["coverage_pin"],
            "coverage_dbt": memo["coverage_dbt"],
            "covered_pin": memo["stats"]["covered_pin"],
            "total_pin": memo["stats"]["total_pin"],
        }

    def _replay_blocking(self, entry, config, batch):
        """Worker-pool body: one full replay over a shared automaton."""
        tool = TeaReplayTool(
            trace_set=entry.trace_set, config=config,
            batch_size=batch, tea=entry.tea, compiled=entry.compiled,
        )
        stream = entry.stream.get(self.obs)
        result = Pin(entry.program, tool=tool, stream=stream).run()
        stats = tool.stats.as_dict()
        native = native_cost(stream).cycles
        return {
            "coverage_pin": tool.stats.coverage(pin_counting=True),
            "coverage_dbt": tool.stats.coverage(pin_counting=False),
            "stats": stats,
            "cycles": result.cycles,
            "megacycles": result.megacycles,
            "native_cycles": native,
            "slowdown": (result.cycles / native) if native else 0.0,
            "states": entry.tea.n_states,
            "transitions": entry.tea.n_transitions,
        }

    async def _rpc_step_batch(self, params):
        entry = self._resolve(params)
        labels = params.get("labels")
        if not isinstance(labels, list) or not labels:
            raise _BadParams("'labels' must be a non-empty list of PCs")
        pcs = [_integer(label, hex_string=True) for label in labels]
        if None in pcs:
            raise _BadParams("labels must be integers or hex strings")
        tea = entry.tea
        start = params.get("start", 0)
        if _integer(start) is None or not 0 <= start < tea.n_states:
            raise _BadParams("'start' must be a state id in [0, %d)"
                             % tea.n_states)
        return_states = bool(params.get("return_states", False))
        sids = []
        in_trace = 0
        enters = 0
        exits = 0
        current = tea.states[start]
        next_state = tea.next_state
        for pc in pcs:
            following = next_state(current, pc)
            if return_states:
                sids.append(following.sid)
            if following.tbb is not None:
                in_trace += 1
            if current.trace_id != following.trace_id:
                if following.tbb is not None:
                    enters += 1
                if current.tbb is not None:
                    exits += 1
            current = following
        result = {
            "snapshot": entry.key,
            "steps": len(pcs),
            "final": current.sid,
            "final_name": current.name,
            "in_trace": in_trace,
            "nte": len(pcs) - in_trace,
            "trace_enters": enters,
            "trace_exits": exits,
        }
        if return_states:
            result["states"] = sids
        return result

    async def _rpc_stats(self, params):
        snapshot = self.obs.snapshot()
        methods = {
            name.split("service.method.", 1)[1]: value
            for name, value in snapshot["metrics"]["counters"].items()
            if name.startswith("service.method.")
        }
        return {
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None else 0.0
            ),
            "snapshots": len(self.entries),
            "draining": self._draining,
            "methods": methods,
            "metrics": snapshot["metrics"],
        }

    async def _rpc_shutdown(self, params):
        self.initiate_shutdown()
        return {"stopping": True}

    async def _rpc_sleep(self, params):
        seconds = float(params.get("seconds", 0.0))
        await asyncio.sleep(seconds)
        return {"slept": seconds}
