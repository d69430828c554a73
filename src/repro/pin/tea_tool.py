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
from repro.core.compiled import CompiledReplayer, CompiledTea
from repro.core.online import OnlineTeaRecorder
from repro.core.replay import ReplayConfig, TeaReplayer
from repro.cpu.events import END_OF_RUN
from repro.pin.pintool import Pintool
from repro.traces import make_recorder
from repro.traces.model import TraceSet


class TeaReplayTool(Pintool):
    """Replay previously recorded traces via TEA.

    The tool has two walks over the packed batches :meth:`on_packed`
    receives.  By default it drives
    :class:`~repro.core.compiled.CompiledReplayer` over each batch.
    Given a ``profile``, it calls :meth:`TeaReplayer.step()
    <repro.core.replay.TeaReplayer.step>` once per row instead: the
    object-graph walk that fills the profile and that the differential
    suite treats as the oracle.  Both walks count identically (stats,
    coverage, cost categories); the compiled walk adds its charges at
    batch boundaries, so total cycles may differ from the oracle's in
    the last ULPs.

    Parameters
    ----------
    trace_set:
        The traces to replay (pass an empty/None set for the Table 4
        "Empty" configuration).
    config:
        The transition-function configuration (Table 4 axes).
    profile:
        Optional :class:`~repro.core.profile.TeaProfile` to fill;
        selects the per-row ``step()`` walk.
    link_traces:
        Materialise statically known trace-to-trace transitions in the
        automaton (ablation; the paper resolves them dynamically).
    obs:
        Optional :class:`~repro.obs.Observability` for the replayer's
        metrics; when omitted, the engine's own (``Pin(obs=...)``) is
        used so the whole run reports into one registry.
    batch_size:
        Rows per packed batch (> 0); ``None`` means
        :data:`~repro.pin.packed.DEFAULT_PACKED_BATCH`.  Batch
        boundaries change only when the engines flush their metrics and
        Pin folds its charges, never what they count (total cycles may
        move in the last ULPs).
    tea:
        A prebuilt automaton to replay.  When given, Algorithm 1 is
        *not* re-run — this is how the replay service drives automata
        loaded from binary store snapshots (``link_traces`` is ignored;
        the snapshot already fixed the transition tables).
    compiled:
        A prebuilt :class:`~repro.core.compiled.CompiledTea` (e.g. from
        :func:`repro.store.compile_tea_binary`).  Lowered from ``tea``
        on attach when omitted.
    """

    def __init__(self, trace_set=None, config=None, profile=None,
                 link_traces=False, obs=None, batch_size=None, tea=None,
                 compiled=None):
        super().__init__()
        self.trace_set = trace_set if trace_set is not None else TraceSet()
        self.config = config or ReplayConfig.global_local()
        self.profile = profile
        self.obs = obs
        if batch_size and batch_size > 0:
            self.packed_batch = batch_size
        self.tea = tea if tea is not None else build_tea(
            self.trace_set, link_traces=link_traces
        )
        self.compiled = compiled
        self.replayer = None

    def attach(self, pin):
        super().attach(pin)
        obs = self.obs if self.obs is not None else pin.obs
        if self.profile is not None:
            self.replayer = TeaReplayer(
                self.tea, config=self.config, cost=pin.cost,
                profile=self.profile, obs=obs,
            )
            return
        if self.compiled is None:
            self.compiled = CompiledTea.from_tea(self.tea)
        self.replayer = CompiledReplayer(
            self.compiled, config=self.config, cost=pin.cost, obs=obs,
        )

    def on_packed(self, batch):
        if self.profile is None:
            self.replayer.run(batch)
            return
        step = self.replayer.step
        triples = batch.triples
        for next_start, instrs_dbt, instrs_pin in zip(
                batch.pcs, triples[1::3], triples[2::3]):
            step(None if next_start == END_OF_RUN else next_start,
                 instrs_dbt, instrs_pin)

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

    def on_packed(self, batch):
        self.online.observe(batch, self.pin.block_index.block_from)

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
