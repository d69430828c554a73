"""Benchmark execution with per-benchmark artifact caching.

Tables 1-4 share most of their raw runs (Table 2 replays the traces the
Table 1 MRET recording produced; Table 4's Global/Local column is
Table 2's run).  The :class:`Runner` memoises every (benchmark, stage,
configuration) result so ``python -m repro.harness all`` does the minimum
amount of simulation.

Two layers of caching:

- **heavy artifacts** (full ``PinResult``/``DBTResult`` objects plus
  tools) are memoised in-process, exactly as before;
- **stage summaries** — the small JSON-able dicts the table builders
  actually consume (see :meth:`Runner.summary`) — can additionally be
  served from a persistent :class:`~repro.harness.cache.ResultCache`,
  in which case the heavy simulation is skipped entirely.

The summaries are also the unit of work the sharded parallel harness
(:mod:`repro.harness.parallel`) ships across process boundaries, which
is why the table builders consume summaries rather than result objects:
serial, parallel and cached runs all feed the very same floats into the
same renderer, so their tables are byte-identical.

Default knobs (documented in EXPERIMENTS.md): scale 4.0 and hot threshold
30 — full-length SPEC runs make trace-formation warm-up negligible; at
our workload sizes, scale x threshold is chosen so warm-up stays a small
fraction of the run, as in the paper.
"""

from repro.core import MemoryModel, ReplayConfig
from repro.cpu.stream import ExecutionStream
from repro.dbt import StarDBT
from repro.harness.cache import stage_key
from repro.obs import Observability
from repro.pin import Pin, TeaReplayTool, TeaRecordTool, run_native
from repro.traces.recorder import RecorderLimits
from repro.workloads import BENCHMARKS, load_benchmark

#: Table 4 transition-function configurations, paper order.
REPLAY_CONFIGS = {
    "no_global_local": ReplayConfig.no_global_local,
    "global_no_local": ReplayConfig.global_no_local,
    "global_local": ReplayConfig.global_local,
}

#: Every per-benchmark stage Tables 1-4 need, in dependency-friendly
#: order (the replays reuse the ``dbt:mret`` trace set when it is
#: already in memory).  A stage id is ``<kind>`` or ``<kind>:<arg>``.
STAGES = (
    "native",
    "dbt:mret",
    "dbt:ctt",
    "dbt:tt",
    "pin_without_tool",
    "replay_empty",
    "replay:no_global_local",
    "replay:global_no_local",
    "replay:global_local",
    "record",
)


class HarnessConfig:
    """Harness-wide knobs."""

    def __init__(self, scale=4.0, hot_threshold=30, benchmarks=None,
                 memory_model=None, max_instructions=50_000_000,
                 verify=False):
        self.scale = scale
        self.hot_threshold = hot_threshold
        self.benchmarks = list(benchmarks) if benchmarks else list(BENCHMARKS)
        self.memory_model = memory_model or MemoryModel()
        self.max_instructions = max_instructions
        #: Run the static verifier over each benchmark's recorded
        #: automaton before its trace-consuming stages (``--verify``).
        #: A pre-flight check, not a knob that changes any summary —
        #: deliberately left out of the cache fingerprint.
        self.verify = bool(verify)

    def limits(self):
        return RecorderLimits(hot_threshold=self.hot_threshold)


class SummaryProvider:
    """The summary-consumer API shared by every runner flavour.

    The table builders (:mod:`repro.harness.tables`) are written against
    this interface alone, so any object that implements
    :meth:`summary` (plus ``config``) can feed them — the serial
    :class:`Runner`, the sharded
    :class:`~repro.harness.parallel.ParallelRunner`, or a test double.
    """

    def summary(self, name, stage):
        raise NotImplementedError

    # -- convenience accessors used by the table builders --------------

    def native_summary(self, name):
        return self.summary(name, "native")

    def dbt_summary(self, name, strategy):
        return self.summary(name, "dbt:%s" % strategy)

    def pin_summary(self, name):
        return self.summary(name, "pin_without_tool")

    def empty_summary(self, name):
        return self.summary(name, "replay_empty")

    def replay_summary(self, name, config_key="global_local"):
        return self.summary(name, "replay:%s" % config_key)

    def record_summary(self, name):
        return self.summary(name, "record")

    def slowdown_cycles(self, name, cycles):
        """``cycles`` normalised to the benchmark's native run."""
        baseline = self.native_summary(name)["cycles"]
        return cycles / baseline if baseline else 0.0


class Runner(SummaryProvider):
    """Caches per-benchmark runs; the table builders pull from here.

    Every stage is timed into the shared observability registry
    (``harness.<stage>`` phase timers) and cache traffic is counted, so
    ``metrics_snapshot()`` shows where a table's wall-clock time
    actually went and how much the memoisation saved:

    - ``harness.stage_runs`` — fresh heavy executions; always equal to
      the sum of the ``harness.<stage>`` timer counts.  A stage served
      from any cache tier must never increment this (the regression
      test in ``tests/test_parallel_harness.py`` pins that down).
    - ``harness.cache_hits`` / ``harness.cache_misses`` — stage
      requests served from a cache tier vs needing a fresh run.
    - ``harness.cache.disk_hits`` / ``disk_misses`` / ``writes`` —
      persistent-cache traffic (counted by the
      :class:`~repro.harness.cache.ResultCache` itself).

    ``cache`` is an optional :class:`~repro.harness.cache.ResultCache`;
    when given, :meth:`summary` consults it before simulating and
    persists what it computes.
    """

    def __init__(self, config=None, progress=None, obs=None, cache=None):
        self.config = config or HarnessConfig()
        self.progress = progress
        self.obs = obs if obs is not None else Observability()
        self.cache = cache
        self._workloads = {}
        self._native = {}
        self._dbt = {}
        self._replay = {}
        self._empty = {}
        self._pin_only = {}
        self._record = {}
        self._summaries = {}
        self._verified = set()
        self._streams = {}

    def _log(self, message):
        if self.progress is not None:
            self.progress(message)

    def _stage(self, name, cached):
        """Count a stage request and return the stage phase timer.

        A cache hit counts *only* as a hit: the fresh-execution counter
        (``harness.stage_runs``) and the stage timer are reserved for
        the miss path, which actually simulates.
        """
        metrics = self.obs.metrics
        if cached:
            metrics.counter("harness.cache_hits").inc()
        else:
            metrics.counter("harness.cache_misses").inc()
            metrics.counter("harness.stage_runs").inc()
        return metrics.timer("harness.%s" % name)

    def metrics_snapshot(self):
        """JSON-able snapshot of all harness metrics gathered so far."""
        return self.obs.snapshot()

    # ------------------------------------------------------------------
    # raw artifacts
    # ------------------------------------------------------------------

    def workload(self, name):
        found = self._workloads.get(name)
        if found is None:
            with self.obs.metrics.timer("harness.workload"):
                found = load_benchmark(name, scale=self.config.scale)
            self._workloads[name] = found
        return found

    def stream(self, name):
        """The benchmark's recorded execution stream.

        Recorded on first use — the benchmark's one interpreter run,
        counted in ``exec.runs`` — and consumed by every stage: native,
        the StarDBT strategies and every MiniPin configuration.
        """
        found = self._streams.get(name)
        if found is None:
            found = ExecutionStream.record(
                self.workload(name).program, self.config.max_instructions,
                obs=self.obs)
            self._streams[name] = found
        return found

    def native(self, name):
        """Native run (the Table 4 baseline)."""
        found = self._native.get(name)
        timer = self._stage("native", cached=found is not None)
        if found is None:
            self._log("%s: native" % name)
            # Load the workload before entering the stage timer so
            # harness.native does not double-count harness.workload time.
            program = self.workload(name).program
            with timer:
                found = run_native(
                    program,
                    max_instructions=self.config.max_instructions,
                    stream=self.stream(name),
                )
            self._native[name] = found
        return found

    def dbt(self, name, strategy):
        """StarDBT recording run for one strategy (Tables 1-3 baselines)."""
        key = (name, strategy)
        found = self._dbt.get(key)
        timer = self._stage("dbt", cached=found is not None)
        if found is None:
            self._log("%s: DBT %s" % (name, strategy))
            program = self.workload(name).program
            with timer:
                found = StarDBT(
                    program,
                    strategy=strategy,
                    limits=self.config.limits(),
                    memory_model=self.config.memory_model,
                    max_instructions=self.config.max_instructions,
                    stream=self.stream(name),
                ).run()
            self._dbt[key] = found
        return found

    def pin_without_tool(self, name):
        """Bare MiniPin run (Table 4 'Without Pintool')."""
        found = self._pin_only.get(name)
        timer = self._stage("pin_without_tool", cached=found is not None)
        if found is None:
            self._log("%s: pin (no tool)" % name)
            program = self.workload(name).program
            with timer:
                found = Pin(
                    program,
                    tool=None,
                    max_instructions=self.config.max_instructions,
                    stream=self.stream(name),
                ).run()
            self._pin_only[name] = found
        return found

    def replay_empty(self, name):
        """TEA replay with no traces (Table 4 'Empty')."""
        found = self._empty.get(name)
        timer = self._stage("replay_empty", cached=found is not None)
        if found is None:
            self._log("%s: TEA empty" % name)
            program = self.workload(name).program
            tool = TeaReplayTool(trace_set=None)
            with timer:
                result = Pin(
                    program,
                    tool=tool,
                    max_instructions=self.config.max_instructions,
                    stream=self.stream(name),
                ).run()
            found = (result, tool)
            self._empty[name] = found
        return found

    def replay(self, name, config_key="global_local"):
        """TEA replay of the DBT's MRET traces under one configuration."""
        key = (name, config_key)
        found = self._replay.get(key)
        timer = self._stage("replay", cached=found is not None)
        if found is None:
            self._log("%s: TEA replay %s" % (name, config_key))
            trace_set = self.dbt(name, "mret").trace_set
            program = self.workload(name).program
            tool = TeaReplayTool(
                trace_set=trace_set, config=REPLAY_CONFIGS[config_key](),
            )
            with timer:
                result = Pin(
                    program,
                    tool=tool,
                    max_instructions=self.config.max_instructions,
                    stream=self.stream(name),
                ).run()
            found = (result, tool)
            self._replay[key] = found
        return found

    def record(self, name):
        """Online TEA recording under MiniPin (Table 3)."""
        found = self._record.get(name)
        timer = self._stage("record", cached=found is not None)
        if found is None:
            self._log("%s: TEA record" % name)
            program = self.workload(name).program
            tool = TeaRecordTool(strategy="mret", limits=self.config.limits())
            with timer:
                result = Pin(
                    program,
                    tool=tool,
                    max_instructions=self.config.max_instructions,
                    stream=self.stream(name),
                ).run()
            found = (result, tool)
            self._record[name] = found
        return found

    def preflight_verify(self, name):
        """Verify ``name``'s recorded automaton once (``--verify``).

        Builds the MRET trace set's automaton and runs the full static
        rule catalog — automaton, trace-structure and CFG families —
        before the trace-consuming stages execute.  Findings raise
        :class:`~repro.errors.VerificationError`, so a harness run on a
        damaged recording fails loudly up front instead of folding bad
        numbers into a table.  Memoised per benchmark; a no-op unless
        ``config.verify`` is set.
        """
        if not self.config.verify or name in self._verified:
            return
        from repro.core.builder import build_tea
        from repro.verify import verify_tea

        trace_set = self.dbt(name, "mret").trace_set
        program = self.workload(name).program
        self._log("%s: verify" % name)
        with self.obs.metrics.timer("harness.verify"):
            tea = build_tea(trace_set)
            verify_tea(
                tea, trace_set=trace_set, program=program,
                source="%s (mret recording)" % name, obs=self.obs,
            ).raise_on_error()
        self._verified.add(name)

    # ------------------------------------------------------------------
    # stage summaries (what the table builders consume)
    # ------------------------------------------------------------------

    def summary(self, name, stage):
        """The JSON-able summary for one ``(benchmark, stage)`` pair.

        Resolution order: in-memory summary, persistent cache (when one
        is attached), fresh simulation.  A persistent-cache hit skips
        the heavy stage *and all its dependencies* — e.g. a cached
        ``replay:global_local`` never triggers the ``dbt:mret`` run it
        would need to simulate from scratch.
        """
        memo_key = (name, stage)
        found = self._summaries.get(memo_key)
        if found is not None:
            self.obs.metrics.counter("harness.cache_hits").inc()
            return found
        if self.cache is not None:
            disk_key = stage_key(name, stage, self.config)
            found = self.cache.get(disk_key)
            if found is not None:
                self.obs.metrics.counter("harness.cache_hits").inc()
                self._summaries[memo_key] = found
                return found
        found = self._compute_summary(name, stage)
        self._summaries[memo_key] = found
        if self.cache is not None:
            self.cache.put(disk_key, found)
        return found

    def _compute_summary(self, name, stage):
        kind, _, arg = stage.partition(":")
        if kind in ("dbt", "replay", "record"):
            self.preflight_verify(name)
        if kind == "native":
            result = self.native(name)
            return {"cycles": result.cycles, "megacycles": result.megacycles}
        if kind == "dbt":
            result = self.dbt(name, arg)
            dbt_kb, tea_kb, savings = self.config.memory_model.table1_row(
                result.trace_set
            )
            return {
                "cycles": result.cycles,
                "megacycles": result.megacycles,
                "coverage": result.coverage,
                "table1": [dbt_kb, tea_kb, savings],
            }
        if kind == "pin_without_tool":
            result = self.pin_without_tool(name)
            return {"cycles": result.cycles, "megacycles": result.megacycles}
        if kind == "replay_empty":
            result, tool = self.replay_empty(name)
            return {
                "cycles": result.cycles,
                "megacycles": result.megacycles,
                "coverage": tool.coverage,
            }
        if kind == "replay":
            result, tool = self.replay(name, arg)
            return {
                "cycles": result.cycles,
                "megacycles": result.megacycles,
                "coverage": tool.coverage,
            }
        if kind == "record":
            result, tool = self.record(name)
            return {
                "cycles": result.cycles,
                "megacycles": result.megacycles,
                "coverage": tool.coverage,
            }
        raise ValueError("unknown stage %r" % (stage,))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    def slowdown(self, name, result):
        """Cycles of ``result`` normalised to the native run."""
        baseline = self.native(name).cycles
        return result.cycles / baseline if baseline else 0.0
