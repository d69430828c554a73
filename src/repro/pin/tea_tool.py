"""The TEA pintools: the paper's experimental tools under MiniPin.

"For this paper, we implemented a pintool that loads traces from a input
file and uses the traces for program execution.  Our tool is also capable
of recording traces if they are not available prior to program
execution."  That pintool is these two classes:

- :class:`TeaReplayTool` — loads a trace set (typically recorded by
  StarDBT and serialized), builds the TEA with Algorithm 1, and replays
  it against the executing program (Tables 2 and 4).
- :class:`TeaRecordTool` — records traces online with Algorithm 2 while
  maintaining the TEA (Table 3).
"""

from repro.core.builder import build_tea
from repro.core.compiled import CompiledReplayer, CompiledTea, PackedBatch
from repro.core.jit import JitReplayer
from repro.core.online import OnlineTeaRecorder
from repro.core.replay import REPLAY_ENGINES, ReplayConfig, TeaReplayer
from repro.pin.packed import DEFAULT_PACKED_BATCH, PackedTransitionEncoder
from repro.pin.pintool import Pintool
from repro.traces import make_recorder
from repro.traces.model import TraceSet


class TeaReplayTool(Pintool):
    """Replay previously recorded traces via TEA.

    Parameters
    ----------
    trace_set:
        The traces to replay (pass an empty/None set for the Table 4
        "Empty" configuration).
    config:
        The transition-function configuration (Table 4 axes).
    profile:
        Optional :class:`~repro.core.profile.TeaProfile` to fill
        (object engine only — the compiled engine consumes packed int
        streams, which carry no per-transition objects to profile).
    link_traces:
        Materialise statically known trace-to-trace transitions in the
        automaton (ablation; the paper resolves them dynamically).
    obs:
        Optional :class:`~repro.obs.Observability` for the replayer's
        metrics; when omitted, the engine's own (``Pin(obs=...)``) is
        used so the whole run reports into one registry.
    batch_size:
        When set (> 0), transitions are buffered and fed to the batched
        engine in chunks of this size instead of per-call :meth:`step` —
        same accounting, lower interpreter overhead.  ``None`` (default)
        keeps exact per-call behaviour for the object engine
        (bit-identical float charge ordering); the compiled engine is
        batch-only and defaults to
        :data:`~repro.pin.packed.DEFAULT_PACKED_BATCH`.
    tea:
        A prebuilt automaton to replay.  When given, Algorithm 1 is
        *not* re-run — this is how the replay service drives automata
        loaded from binary store snapshots (``link_traces`` is ignored;
        the snapshot already fixed the transition tables).
    engine:
        ``"object"``, ``"compiled"`` or ``"jit"``; defaults to
        ``config.engine``.  The compiled and jit engines drive
        :class:`~repro.core.compiled.CompiledReplayer` /
        :class:`~repro.core.jit.JitReplayer` respectively over
        :class:`~repro.core.compiled.PackedBatch` batches: under
        :class:`~repro.pin.pin.Pin` alone, the stream's batches, built
        once per stream and batch size and handed to :meth:`on_packed`;
        delivered per transition (inside a
        :class:`~repro.pin.pintool.MultiTool`), the tool packs them
        itself and wraps each full batch.
    compiled:
        A prebuilt :class:`~repro.core.compiled.CompiledTea` (e.g. from
        :func:`repro.store.compile_tea_binary`).  Lowered from ``tea``
        on attach when omitted and the compiled or jit engine is
        selected.
    jit:
        A prebuilt :class:`~repro.core.jit.JitCode` (e.g. one an
        earlier tool generated, exposed as its ``jit``).  Generated from
        the compiled automaton on attach when omitted and the jit
        engine is selected.
    """

    def __init__(self, trace_set=None, config=None, profile=None,
                 link_traces=False, obs=None, batch_size=None, tea=None,
                 engine=None, compiled=None, jit=None):
        super().__init__()
        self.trace_set = trace_set if trace_set is not None else TraceSet()
        self.config = config or ReplayConfig.global_local()
        self.engine = engine if engine is not None else self.config.engine
        if self.engine not in REPLAY_ENGINES:
            raise ValueError(
                "engine must be one of %s" % ", ".join(
                    repr(name) for name in REPLAY_ENGINES
                )
            )
        if profile is not None and self.engine in ("compiled", "jit"):
            raise ValueError(
                "the %s engine cannot fill a TeaProfile (it replays "
                "packed int streams, not transition objects); use "
                "engine='object' for profiling runs" % self.engine
            )
        self.profile = profile
        self.obs = obs
        self.batch_size = batch_size if batch_size and batch_size > 0 else None
        self._buffer = []
        self._encoder = None
        self.tea = tea if tea is not None else build_tea(
            self.trace_set, link_traces=link_traces
        )
        self.compiled = compiled
        self.jit = jit
        self.replayer = None

    def attach(self, pin):
        super().attach(pin)
        obs = self.obs if self.obs is not None else pin.obs
        if self.engine in ("compiled", "jit"):
            if self.compiled is None:
                self.compiled = CompiledTea.from_tea(self.tea)
            if self.engine == "jit":
                self.replayer = JitReplayer(
                    self.compiled, config=self.config, cost=pin.cost,
                    obs=obs, code=self.jit,
                )
                self.jit = self.replayer.code
            else:
                self.replayer = CompiledReplayer(
                    self.compiled, config=self.config, cost=pin.cost,
                    obs=obs,
                )
            self.packed_batch = self.batch_size or DEFAULT_PACKED_BATCH
            self._encoder = PackedTransitionEncoder(self.packed_batch)
            return
        self.replayer = TeaReplayer(
            self.tea, config=self.config, cost=pin.cost, profile=self.profile,
            obs=obs,
        )

    def on_transition(self, transition):
        encoder = self._encoder
        if encoder is not None:
            batch = encoder.add(transition)
            if batch is not None:
                self.replayer.run(PackedBatch(batch))
            return
        if self.batch_size is None:
            self.replayer.step(transition)
            return
        buffer = self._buffer
        buffer.append(transition)
        if len(buffer) >= self.batch_size:
            self.replayer.run(buffer)
            buffer.clear()

    def on_packed(self, batch):
        self.replayer.run(batch)

    def on_finish(self):
        if self._encoder is not None:
            batch = self._encoder.flush()
            if batch is not None:
                self.replayer.run(PackedBatch(batch))
            return
        if self._buffer:
            self.replayer.run(self._buffer)
            self._buffer.clear()

    @property
    def stats(self):
        return self.replayer.stats

    @property
    def coverage(self):
        """Covered instruction fraction under Pin counting (Section 4.1)."""
        return self.replayer.stats.coverage(pin_counting=True)

    def snapshot(self):
        """The replayer's observability snapshot (see TeaReplayer)."""
        return self.replayer.snapshot()


class TeaRecordTool(Pintool):
    """Record traces online (Algorithm 2) and grow the TEA as they finish."""

    def __init__(self, strategy="mret", limits=None, config=None,
                 profile=None, recorder_kwargs=None, obs=None):
        super().__init__()
        kwargs = dict(recorder_kwargs or {})
        kwargs["limits"] = limits
        self.recorder = make_recorder(strategy, **kwargs)
        self.config = config or ReplayConfig.global_local()
        self.profile = profile
        self.obs = obs
        self.online = None
        self.trace_set = None

    def attach(self, pin):
        super().attach(pin)
        obs = self.obs if self.obs is not None else pin.obs
        self.online = OnlineTeaRecorder(
            self.recorder, config=self.config, cost=pin.cost,
            profile=self.profile, obs=obs,
        )

    def on_transition(self, transition):
        self.online.observe(transition)

    def on_finish(self):
        self.trace_set = self.online.finish()

    @property
    def tea(self):
        return self.online.tea

    @property
    def stats(self):
        return self.online.stats

    @property
    def coverage(self):
        return self.online.stats.coverage(pin_counting=True)

    def snapshot(self):
        """The online recorder's observability snapshot."""
        return self.online.snapshot()
