"""The TEA replayer: the optimised transition function of Section 4.2.

The replayer consumes block transitions (from MiniPin's edge
instrumentation) and walks the automaton.  The transition function is the
paper's optimised implementation:

1. **Explicit transition** (common case, "optimized for ... executing hot
   code"): the current state's successor map has the next PC — a short,
   inlineable analysis routine (``CALLBACK_FAST`` + map hit).
2. **Trace exit**: the out-of-line slow callback runs; if enabled, the
   per-state **local cache** is consulted first (it "speeds up transitions
   from one trace to another"), then the **global directory** (linked
   list or B+ tree); a miss lands in NTE.
3. **NTE**: every block boundary probes the global directory — local
   caches are "pointless outside of traces", exactly as the paper notes —
   which is why the Empty configuration is *slower* than replaying real
   traces (Table 4's counter-intuitive result falls out of this code).

Coverage is accounted per completed block under both counting semantics
(StarDBT-style and Pin-style; Section 4.1).

Two consumption APIs drive the automaton:

- :meth:`TeaReplayer.step` — one ``(next_start, instrs_dbt,
  instrs_pin)`` row per call.  It is the reference the compiled engine
  (:mod:`repro.core.compiled`, the one production walk) is tested
  against, the walk that fills a :class:`~repro.core.profile.TeaProfile`
  (``TeaReplayTool(profile=...)``) and the online recorder's walk;
- :meth:`TeaReplayer.run` — a batched variant that consumes an iterable
  of transitions in one loop with metric flushes deferred to the batch
  boundary.  Identical accounting; no production caller is left, only
  its tests and ``benchmarks/bench_replay_engine.py``.

All event counts live in one :class:`~repro.obs.metrics.MetricsRegistry`
(the ``replay.*`` namespace); :class:`ReplayStats` keeps the historic
attribute API as thin properties over those counters.
"""

from repro.core.directory import DIRECTORY_COST_PARAM, make_directory
from repro.dbt.cost import CostModel
from repro.obs import Observability
from repro.structures.lru import MISS, DirectMappedCache, LRUCache

#: Table 4 report labels for every supported global index kind.  The
#: paper only names the B+ tree ("Global") and linked-list ("No Global")
#: containers; the future-work structures get explicit labels so reports
#: never misfile a hash or sorted-array run as "No Global".
GLOBAL_INDEX_LABELS = {
    "bptree": "Global",
    "list": "No Global",
    "hash": "Global (Hash)",
    "sorted": "Global (Sorted)",
}


class ReplayConfig:
    """Transition-function configuration (the Table 4 axes).

    ``global_index``: ``"bptree"`` or ``"list"`` (the paper's No-Global
    configurations keep traces in a linked list), plus the future-work
    structures ``"hash"`` and ``"sorted"``.
    ``local_cache``: enable the per-state cache.
    ``cache_kind``: ``"direct"`` (direct-mapped) or ``"lru"``.
    ``cache_size``: entries per state cache (>= 1).
    ``bptree_order``: B+ tree fan-out (>= 3, the tree's own minimum).
    """

    __slots__ = ("global_index", "local_cache", "cache_kind", "cache_size",
                 "bptree_order")

    def __init__(self, global_index="bptree", local_cache=True,
                 cache_kind="direct", cache_size=16, bptree_order=16):
        if global_index not in GLOBAL_INDEX_LABELS:
            raise ValueError(
                "global_index must be one of 'bptree', 'list', 'hash', "
                "'sorted'"
            )
        if cache_kind not in ("direct", "lru"):
            raise ValueError("cache_kind must be 'direct' or 'lru'")
        # Validate the structure-sizing knobs here, where the caller can
        # see them, instead of letting DirectMappedCache/LRUCache or the
        # B+ tree raise deep inside the replay hot path on first use.
        if not isinstance(cache_size, int) or cache_size < 1:
            raise ValueError(
                "cache_size must be a positive integer (got %r); the "
                "per-state local caches need at least one slot" % (cache_size,)
            )
        if not isinstance(bptree_order, int) or bptree_order < 3:
            raise ValueError(
                "bptree_order must be an integer >= 3 (got %r); a B+ tree "
                "node cannot hold fewer than two keys" % (bptree_order,)
            )
        self.global_index = global_index
        self.local_cache = local_cache
        self.cache_kind = cache_kind
        self.cache_size = cache_size
        self.bptree_order = bptree_order

    @classmethod
    def global_local(cls):
        """The paper's best configuration (B+ tree + local cache)."""
        return cls(global_index="bptree", local_cache=True)

    @classmethod
    def global_no_local(cls):
        return cls(global_index="bptree", local_cache=False)

    @classmethod
    def no_global_local(cls):
        return cls(global_index="list", local_cache=True)

    @classmethod
    def no_global_no_local(cls):
        """The configuration the paper could not even measure (>100x)."""
        return cls(global_index="list", local_cache=False)

    def describe(self):
        global_name = GLOBAL_INDEX_LABELS[self.global_index]
        local_name = "Local" if self.local_cache else "No Local"
        return "%s / %s" % (global_name, local_name)


#: Every replay event counter, in reporting order.
STAT_FIELDS = (
    "blocks",
    "in_trace_hits",
    "cache_hits",
    "cache_misses",
    "directory_hits",
    "directory_misses",
    "nte_probes",
    "trace_enters",
    "trace_exits",
    "covered_dbt",
    "covered_pin",
    "total_dbt",
    "total_pin",
)


class ReplayStats:
    """Event counters for one replay run, stored in a metrics registry.

    Each statistic is a ``replay.<name>`` counter in the registry; the
    historic ``stats.blocks``-style attributes remain available as thin
    read/write properties over those counters, so everything written
    against the old API keeps working while ``repro tools metrics`` and
    the harness read the registry.
    """

    __slots__ = ("_metrics", "_counters")

    FIELDS = STAT_FIELDS

    def __init__(self, metrics=None, namespace="replay"):
        self._metrics = metrics if metrics is not None else (
            Observability().metrics
        )
        self._counters = {
            name: self._metrics.counter("%s.%s" % (namespace, name))
            for name in STAT_FIELDS
        }

    @property
    def metrics(self):
        """The backing :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self._metrics

    def counter(self, name):
        """The raw :class:`~repro.obs.metrics.Counter` for one field."""
        return self._counters[name]

    def as_dict(self):
        """Field -> value mapping (reporting order)."""
        counters = self._counters
        return {name: counters[name].value for name in STAT_FIELDS}

    def coverage(self, pin_counting=True):
        """Covered fraction of dynamic instructions (0.0-1.0)."""
        counters = self._counters
        if pin_counting:
            total = counters["total_pin"].value
            return counters["covered_pin"].value / total if total else 0.0
        total = counters["total_dbt"].value
        return counters["covered_dbt"].value / total if total else 0.0

    def __repr__(self):
        return (
            "<ReplayStats blocks=%d hits=%d enters=%d exits=%d coverage=%.1f%%>"
            % (
                self.blocks,
                self.in_trace_hits,
                self.trace_enters,
                self.trace_exits,
                100.0 * self.coverage(),
            )
        )


def _stat_property(name):
    def _get(self):
        return self._counters[name].value

    def _set(self, value):
        self._counters[name].value = value

    return property(_get, _set, doc="Thin view over the %r counter." % name)


for _name in STAT_FIELDS:
    setattr(ReplayStats, _name, _stat_property(_name))
del _name


class TeaReplayer:
    """Drives a TEA over block transitions with cost accounting.

    Parameters
    ----------
    tea:
        The automaton to drive.
    config:
        :class:`ReplayConfig`; defaults to the paper's best (B+ tree +
        local cache).
    cost:
        Shared :class:`~repro.dbt.cost.CostModel`; a private one is
        created otherwise.
    profile:
        Optional :class:`~repro.core.profile.TeaProfile` to fill.
    obs:
        Optional :class:`~repro.obs.Observability`; the replayer's
        counters live in its metrics registry and rare events (batch
        flushes) go to its tracer.  A private one is created otherwise.
    """

    def __init__(self, tea, config=None, cost=None, profile=None, obs=None):
        self.tea = tea
        self.config = config or ReplayConfig.global_local()
        self.cost = cost if cost is not None else CostModel()
        self.profile = profile
        self.obs = obs if obs is not None else Observability()
        self.stats = ReplayStats(metrics=self.obs.metrics)
        self.state = tea.nte
        self.directory = make_directory(
            self.config.global_index, order=self.config.bptree_order
        )
        for entry, head in tea.heads.items():
            self.directory.insert(entry, head)
        self._caches = {}

    # ------------------------------------------------------------------

    def register_trace(self, entry, head_state):
        """Make a newly recorded trace findable (online recording path)."""
        self.directory.insert(entry, head_state)

    def _cache_for(self, state):
        cache = self._caches.get(state.sid)
        if cache is None:
            if self.config.cache_kind == "direct":
                cache = DirectMappedCache(self.config.cache_size)
            else:
                cache = LRUCache(self.config.cache_size)
            self._caches[state.sid] = cache
        return cache

    # ------------------------------------------------------------------

    def step(self, next_start, instrs_dbt, instrs_pin):
        """Consume one block transition; returns the new state.

        A block of ``instrs_dbt`` / ``instrs_pin`` instructions just ran
        and execution continues at ``next_start`` (``None``: the run
        ended); its coverage goes to the state the automaton was in.
        """
        counters = self.stats._counters
        cost = self.cost
        params = cost.params
        state = self.state

        counters["blocks"].value += 1
        counters["total_dbt"].value += instrs_dbt
        counters["total_pin"].value += instrs_pin
        in_trace = state.tbb is not None
        if in_trace:
            counters["covered_dbt"].value += instrs_dbt
            counters["covered_pin"].value += instrs_pin

        if next_start is None:
            # Program ended; no transition to take.
            if self.profile is not None:
                self.profile.record_block(state, instrs_dbt)
            return state

        if in_trace:
            destination = state.transitions.get(next_start)
            if destination is not None:
                cost.charge("callback", params.CALLBACK_FAST)
                cost.charge("transition", params.IN_TRACE_TRANSITION)
                counters["in_trace_hits"].value += 1
                self.state = destination
            else:
                cost.charge("callback", params.CALLBACK_SLOW)
                counters["trace_exits"].value += 1
                self.state = self._leave_trace(state, next_start)
        else:
            cost.charge("callback", params.CALLBACK_SLOW)
            counters["nte_probes"].value += 1
            self.state = self._probe(next_start, cache=None)

        if self.profile is not None:
            self.profile.record_block(state, instrs_dbt)
            self.profile.record_edge(state, self.state)
        return self.state

    def run(self, transitions):
        """Consume an iterable of block transitions; returns the final state.

        The batched replay engine: per-block work is the automaton walk
        alone — attribute lookups, cost parameters and statistic counters
        are hoisted into locals, and event counts and hot-path cycle
        charges are flushed once at the batch boundary.  Accounting is
        identical to calling :meth:`step` per transition.

        When a ``profile`` is attached the replayer falls back to
        per-call :meth:`step`, so the profile records exactly what a
        :meth:`step` walk records.
        """
        if self.profile is not None:
            state = self.state
            for transition in transitions:
                state = self.step(transition.next_start, transition.instrs_dbt,
                                  transition.instrs_pin)
            return state

        counters = self.stats._counters
        cost = self.cost
        params = cost.params
        leave_trace = self._leave_trace
        probe = self._probe
        state = self.state

        blocks = 0
        total_dbt = 0
        total_pin = 0
        covered_dbt = 0
        covered_pin = 0
        fast_hits = 0
        trace_exits = 0
        nte_probes = 0

        try:
            for transition in transitions:
                blocks += 1
                instrs_dbt = transition.instrs_dbt
                instrs_pin = transition.instrs_pin
                total_dbt += instrs_dbt
                total_pin += instrs_pin
                in_trace = state.tbb is not None
                if in_trace:
                    covered_dbt += instrs_dbt
                    covered_pin += instrs_pin
                next_start = transition.next_start
                if next_start is None:
                    continue
                if in_trace:
                    destination = state.transitions.get(next_start)
                    if destination is not None:
                        fast_hits += 1
                        state = destination
                    else:
                        trace_exits += 1
                        state = leave_trace(state, next_start)
                else:
                    nte_probes += 1
                    state = probe(next_start, cache=None)
        finally:
            # Batch-boundary flush: counters first, then the deferred
            # hot-path cycle charges (slow-path charges were applied
            # inside _leave_trace/_probe as they happened).
            self.state = state
            counters["blocks"].value += blocks
            counters["total_dbt"].value += total_dbt
            counters["total_pin"].value += total_pin
            counters["covered_dbt"].value += covered_dbt
            counters["covered_pin"].value += covered_pin
            counters["in_trace_hits"].value += fast_hits
            counters["trace_exits"].value += trace_exits
            counters["nte_probes"].value += nte_probes
            if fast_hits:
                cost.charge("callback", fast_hits * params.CALLBACK_FAST)
                cost.charge("transition",
                            fast_hits * params.IN_TRACE_TRANSITION)
            slow_calls = trace_exits + nte_probes
            if slow_calls:
                cost.charge("callback", slow_calls * params.CALLBACK_SLOW)
            self.obs.emit(
                "replay.batch",
                blocks=blocks,
                in_trace_hits=fast_hits,
                trace_exits=trace_exits,
                nte_probes=nte_probes,
            )
        return state

    def _leave_trace(self, state, next_start):
        """Side exit: local cache, then global directory, else NTE."""
        params = self.cost.params
        cache = self._cache_for(state) if self.config.local_cache else None
        if cache is not None:
            found = cache.probe(next_start)
            if found is not MISS:
                self.cost.charge("cache", params.CACHE_HIT)
                self.stats._counters["cache_hits"].value += 1
                self.stats._counters["trace_enters"].value += 1
                return found
            self.cost.charge("cache", params.CACHE_MISS)  # the failed probe
            self.stats._counters["cache_misses"].value += 1
        return self._probe(next_start, cache=cache)

    def _probe(self, next_start, cache):
        params = self.cost.params
        counters = self.stats._counters
        found, units = self.directory.lookup(next_start)
        per_unit = getattr(params, DIRECTORY_COST_PARAM[self.directory.kind])
        self.cost.charge("directory", units * per_unit)
        if found is None:
            counters["directory_misses"].value += 1
            return self.tea.nte
        counters["directory_hits"].value += 1
        counters["trace_enters"].value += 1
        self.cost.charge("enter", params.ENTER_TRACE)
        if cache is not None:
            cache.insert(next_start, found)
            self.cost.charge("cache", params.CACHE_INSERT)
        return found

    # ------------------------------------------------------------------

    def snapshot(self):
        """One JSON-able observability snapshot for this replayer.

        Bundles the metrics registry (all ``replay.*`` counters, plus
        whatever else shares the registry), the tracer ring (if any),
        directory work counters, local-cache totals, and the cost-model
        breakdown.
        """
        metrics = self.obs.metrics
        directory = self.directory
        metrics.set_gauge("replay.config", self.config.describe())
        metrics.set_gauge("replay.directory.kind", directory.kind)
        metrics.set_gauge("replay.directory.size", len(directory))
        metrics.set_gauge("replay.directory.probes", directory.probes)
        metrics.set_gauge("replay.directory.units", directory.units)
        metrics.set_gauge("replay.local_caches", len(self._caches))
        metrics.set_gauge(
            "replay.local_cache_hits",
            sum(cache.hits for cache in self._caches.values()),
        )
        metrics.set_gauge(
            "replay.local_cache_misses",
            sum(cache.misses for cache in self._caches.values()),
        )
        snap = self.obs.snapshot()
        snap["cost"] = {
            "cycles": self.cost.cycles,
            "breakdown": dict(self.cost.breakdown),
        }
        return snap

    def reset(self, clear_caches=True):
        """Return to NTE (e.g. between program runs on one automaton).

        Historically this reset only ``state``, so a reused replayer
        leaked the previous run's per-state local caches (stale hit/miss
        counters *and* stale cached destinations) and the directory's
        probe/unit work counters into the next run's accounting.  By
        default both are now cleared; pass ``clear_caches=False`` for
        the old state-only behaviour when warm caches across runs are
        actually wanted.
        """
        self.state = self.tea.nte
        if clear_caches:
            self._caches.clear()
            self.directory.reset_counters()
