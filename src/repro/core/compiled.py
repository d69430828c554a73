"""The compiled flat-table replay engine.

:class:`~repro.core.replay.TeaReplayer` walks the automaton as an
object graph: one call per transition, per-state ``TeaState``
attribute chasing, per-state transition
dicts holding state *objects*.  That is fine for correctness work, but
Table 4 says the transition function is the replay hot path — so this
module lowers the automaton the way a real DBT lowers its dispatch
tables: into contiguous integer arrays, indexed by state id.

:class:`CompiledTea` holds the lowered automaton:

- ``labels`` / ``label_ids`` — the global PC-label intern table: every
  distinct transition label and head entry, as a sorted ``array('q')``
  plus the reverse ``{pc: label_index}`` dict;
- ``trans_offset`` / ``trans_labels`` / ``trans_dest`` — every state's
  transition list flattened into one successor array; state ``sid``
  owns the slice ``[trans_offset[sid], trans_offset[sid + 1])``, sorted
  by label (the exact order the TEAB codec stores);
- ``head_entries`` / ``head_sids`` — the packed NTE head registry, in
  the source automaton's registration order (directory *insertion
  order* shapes the probe-unit accounting — linked-list scan lengths,
  B+ tree node layout, hash clustering — so it must be preserved, not
  normalised);
- ``tbb_flag`` / ``instrs_dbt`` / ``instrs_pin`` — parallel per-state
  metadata: in-trace flag plus the state's *static* instruction counts
  (advisory; zero when lowered straight from a TEAB snapshot, which
  does not store them).

:class:`CompiledReplayer` replays **packed transition batches** — flat
``(next_start, instrs_dbt, instrs_pin)`` int triples (see
:mod:`repro.pin.packed`) in a :class:`PackedBatch`, which also carries
their ``next_start`` list and instruction totals — instead of
transition objects.  It links the tables into one small list per state
(a *cell*: the state's expected next PC and a direct link to that
successor's cell, its local cache, its last side exit), so an in-trace
block costs one compare and one list index.  The accounting is
identical to ``TeaReplayer``: the same ``replay.*`` counters, the same
CostModel charges in the same order, the same local-cache/directory
semantics on side exits.  The differential suite in
``tests/test_compiled_engine.py`` pins that equivalence down.

``CompiledTea`` instances are immutable after construction and safe to
share read-only across threads (the replay service preloads one per
snapshot); each :class:`CompiledReplayer` owns its own cells, caches,
directory and stats, exactly like ``TeaReplayer``.
"""

from array import array

from repro.core.automaton import NTE_SID
from repro.core.directory import (
    DIRECTORY_COST_PARAM,
    DIRECTORY_UNITS_ATTR,
    make_directory,
)
from repro.core.replay import ReplayConfig, ReplayStats
from repro.dbt.cost import CostModel
from repro.obs import Observability

#: ``next_start`` value marking an end-of-run transition in a packed
#: stream (``BlockTransition.next_start is None``).  Real PCs are
#: non-negative, so any negative value is terminal.
END_OF_RUN = -1

#: A cell's expected or last-exit PC when it has none: outside the
#: int64 range of a packed batch, so no ``next_start`` ever equals it.
NO_MATCH = -(2 ** 64)


class PackedBatch:
    """One packed batch in the shape :meth:`CompiledReplayer.run` walks.

    - ``triples`` — the flat ``(next_start, instrs_dbt, instrs_pin)``
      int sequence itself (``array('q')``, a list, or a zero-copy slice
      of a recorded stream's ``transitions`` lane);
    - ``pcs`` — its ``next_start`` lane as a list holding one int object
      per distinct PC: ``seen`` maps each PC to the object every later
      occurrence reuses (pass one dict to every batch of a stream to
      share the objects across batches);
    - ``instrs_dbt`` / ``instrs_pin`` — the batch's instruction totals;
    - ``flags`` / ``start`` — the rows' flag bytes and where the first
      row's block starts, for tools that walk the rows (the compiled
      walk reads neither).

    Everything here depends only on the recorded run, so a recorded
    stream builds its batches once and every replay reuses them (MiniPin
    keeps them in its :class:`~repro.pin.pin.ChargeTape`); a flat
    sequence from anywhere else is wrapped by this constructor.
    """

    __slots__ = ("triples", "pcs", "instrs_dbt", "instrs_pin", "flags",
                 "start")

    def __init__(self, triples, seen=None, flags=None, start=None):
        if len(triples) % 3:
            raise ValueError(
                "packed batch length %d is not a multiple of 3"
                % len(triples)
            )
        intern = ({} if seen is None else seen).setdefault
        starts = triples[0::3]
        self.triples = triples
        self.pcs = list(map(intern, starts, starts))
        self.instrs_dbt = sum(triples[1::3])
        self.instrs_pin = sum(triples[2::3])
        self.flags = flags
        self.start = start

    def __len__(self):
        """Transitions (triples) in the batch."""
        return len(self.pcs)


class CompiledTea:
    """A TEA lowered into contiguous integer tables (see module doc)."""

    __slots__ = ("n_states", "labels", "label_ids", "tbb_flag",
                 "trans_offset", "trans_labels", "trans_dest",
                 "head_entries", "head_sids", "_head_map",
                 "instrs_dbt", "instrs_pin", "_succ")

    def __init__(self, n_states, tbb_flag, trans_offset, trans_labels,
                 trans_dest, head_entries, head_sids,
                 instrs_dbt=None, instrs_pin=None):
        self.n_states = n_states
        self.tbb_flag = bytes(tbb_flag)
        self.trans_offset = array("q", trans_offset)
        self.trans_labels = array("q", trans_labels)
        self.trans_dest = array("q", trans_dest)
        self.head_entries = array("q", head_entries)
        self.head_sids = array("q", head_sids)
        self.instrs_dbt = array(
            "q", instrs_dbt if instrs_dbt is not None else [0] * n_states
        )
        self.instrs_pin = array(
            "q", instrs_pin if instrs_pin is not None else [0] * n_states
        )
        self._head_map = dict(zip(self.head_entries, self.head_sids))
        # Global PC intern table: every label seen anywhere in the
        # automaton (transitions + heads), sorted, deduplicated.
        distinct = sorted(set(self.trans_labels) | set(self.head_entries))
        self.labels = array("q", distinct)
        self.label_ids = {pc: lid for lid, pc in enumerate(distinct)}
        self._succ = None
        self._validate()

    def _validate(self):
        """Constructor-time structural gate.

        Thin wrapper over the verifier's table checks
        (:func:`repro.verify.rules_compiled.structural_diagnostics`):
        every finding carries rule id ``TEA030``, and the raised
        :class:`~repro.errors.VerificationError` is still a
        ``ValueError``, preserving the historical contract.  Ordering
        (per-state label sortedness) is *not* enforced here — the
        replayer tolerates unsorted runs — only by the full TEA030
        rule in a verification pass.
        """
        from repro.errors import VerificationError
        from repro.verify.rules_compiled import structural_diagnostics

        diagnostics = list(structural_diagnostics(self))
        if diagnostics:
            raise VerificationError(
                "malformed compiled TEA tables: %s"
                % diagnostics[0].message,
                diagnostics=diagnostics,
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_buffers(cls, n_states, tbb_flag, trans_offset, trans_labels,
                     trans_dest, head_entries, head_sids, labels=None,
                     instrs_dbt=None, instrs_pin=None, validate=True):
        """Adopt already-lowered tables without copying them.

        Unlike ``__init__`` (which copies every sequence into a fresh
        ``array('q')``), the int64 buffers are taken as-is — typically
        ``memoryview.cast('q')`` views straight into an ``mmap``'ed
        TEAB v2 snapshot, so N processes mapping the same file share
        one read-only copy of the tables.  The views keep their backing
        buffer alive for the compiled automaton's lifetime.  ``labels``
        may pass the snapshot's interned PC pool (sorted distinct
        labels + head entries) to skip rebuilding it.

        ``validate=False`` skips the TEA030 structural gate; only pass
        it when the bytes were already certified (the v2 section scan,
        rule TEA024, proves the same CSR invariants).
        """
        self = object.__new__(cls)
        self.n_states = n_states
        self.tbb_flag = bytes(tbb_flag)
        self.trans_offset = trans_offset
        self.trans_labels = trans_labels
        self.trans_dest = trans_dest
        self.head_entries = head_entries
        self.head_sids = head_sids
        self.instrs_dbt = (instrs_dbt if instrs_dbt is not None
                           else array("q", bytes(8 * n_states)))
        self.instrs_pin = (instrs_pin if instrs_pin is not None
                           else array("q", bytes(8 * n_states)))
        self._head_map = dict(zip(head_entries, head_sids))
        if labels is None:
            labels = array(
                "q", sorted(set(trans_labels) | set(head_entries))
            )
        self.labels = labels
        self.label_ids = {pc: lid for lid, pc in enumerate(labels)}
        self._succ = None
        if validate:
            self._validate()
        return self

    @classmethod
    def from_tea(cls, tea):
        """Lower a built :class:`~repro.core.automaton.TEA`."""
        n_states = tea.n_states
        tbb_flag = bytearray(n_states)
        instrs_dbt = array("q", [0] * n_states)
        instrs_pin = array("q", [0] * n_states)
        trans_offset = array("q", [0] * (n_states + 1))
        trans_labels = array("q")
        trans_dest = array("q")
        for state in tea.states:
            sid = state.sid
            for label, destination in sorted(state.transitions.items()):
                trans_labels.append(label)
                trans_dest.append(destination.sid)
            trans_offset[sid + 1] = len(trans_labels)
            if state.tbb is not None:
                tbb_flag[sid] = 1
                n_instrs = state.tbb.block.n_instrs
                instrs_dbt[sid] = n_instrs
                instrs_pin[sid] = n_instrs
        # Registration order, NOT sorted: the replayer inserts heads
        # into its lookup directory in this order, and probe-unit
        # accounting (list scans, tree shape, hash clustering) depends
        # on it.  A TEAB snapshot stores heads sorted by entry — and the
        # object TEA loaded from that snapshot carries the same sorted
        # dict order, so the engines still agree there.
        head_entries = array("q")
        head_sids = array("q")
        for entry, head in tea.heads.items():
            head_entries.append(entry)
            head_sids.append(head.sid)
        return cls(n_states, tbb_flag, trans_offset, trans_labels,
                   trans_dest, head_entries, head_sids,
                   instrs_dbt=instrs_dbt, instrs_pin=instrs_pin)

    # ------------------------------------------------------------------
    # interrogation
    # ------------------------------------------------------------------

    @property
    def n_transitions(self):
        return len(self.trans_labels)

    @property
    def n_heads(self):
        return len(self.head_entries)

    @property
    def n_labels(self):
        return len(self.labels)

    def successor_maps(self):
        """Per-state ``{next_pc: dest_sid}`` dispatch dicts, by sid.

        Built lazily from the canonical flat arrays and cached on the
        compiled automaton, so every replayer sharing it (the service
        worker pool) reuses one set of read-only dicts.  States with no
        transitions share a single empty dict.
        """
        maps = self._succ
        if maps is None:
            offsets = self.trans_offset
            trans_labels = self.trans_labels
            trans_dest = self.trans_dest
            empty = {}
            maps = []
            for sid in range(self.n_states):
                low, high = offsets[sid], offsets[sid + 1]
                if low == high:
                    maps.append(empty)
                else:
                    maps.append(dict(zip(trans_labels[low:high],
                                         trans_dest[low:high])))
            self._succ = maps
        return maps

    def head_sid(self, entry):
        """The head state id registered at ``entry``, or ``None``."""
        return self._head_map.get(entry)

    def next_sid(self, sid, label):
        """Pure transition function over the tables (mirrors
        :meth:`~repro.core.automaton.TEA.next_state`)."""
        destination = self.successor_maps()[sid].get(label)
        if destination is not None:
            return destination
        head = self.head_sid(label)
        return head if head is not None else NTE_SID

    def structurally_equal(self, other):
        """True when both lowerings encode the same automaton *shape*.

        The per-state instruction metadata is deliberately excluded:
        TEAB snapshots do not store it, so a snapshot-compiled automaton
        carries zeros where a ``from_tea`` lowering carries real counts.
        Heads are compared as a mapping — their array *order* is
        directory-insertion provenance, not automaton shape.
        """
        return (
            self.n_states == other.n_states
            and self.tbb_flag == other.tbb_flag
            and self.trans_offset == other.trans_offset
            and self.trans_labels == other.trans_labels
            and self.trans_dest == other.trans_dest
            and self._head_map == other._head_map
            and self.labels == other.labels
        )

    def describe(self):
        """JSON-able structural summary (mirrors TEA interrogation)."""
        return {
            "states": self.n_states,
            "in_trace_states": sum(self.tbb_flag),
            "transitions": self.n_transitions,
            "heads": self.n_heads,
            "labels": self.n_labels,
            "static_instrs_dbt": sum(self.instrs_dbt),
            "static_instrs_pin": sum(self.instrs_pin),
        }

    def __repr__(self):
        return "<CompiledTea states=%d transitions=%d heads=%d labels=%d>" % (
            self.n_states, self.n_transitions, self.n_heads, self.n_labels,
        )


class CompiledReplayer:
    """Drives a :class:`CompiledTea` over packed transition batches.

    The API mirrors :class:`~repro.core.replay.TeaReplayer` — same
    constructor knobs, same ``stats``/``cost``/``directory``/``snapshot``
    surface — except the current state is the integer :attr:`sid` and
    :meth:`run` consumes a :class:`PackedBatch` of int triples rather
    than transition objects (:func:`repro.pin.packed.pack_transitions`
    produces the triples).

    The walk runs over :attr:`cells`, one list per state, built from
    :meth:`CompiledTea.successor_maps`: ``[expected_pc, next_cell, sid,
    cache_keys, cache_values, last_exit_pc, last_exit_cell, multi]``:

    - the fast path is one compare and one index: a state's first
      successor label is baked into its cell with a direct link to the
      successor's cell, and the remaining successors of a fan-out > 1
      state sit in the cell's own ``multi`` dict (empty for the other
      in-trace states, ``None`` for out-of-trace ones);
    - the *exit memo* holds the last side exit taken from the state.  A
      state's local cache changes only on that state's own exits, so the
      same PC as the previous exit proves the cache would hit again
      (90-97% of exits on the Table 4 workloads repeat the previous
      exit PC);
    - the local cache lives in the cell, created on the state's first
      exit: a dict in recency order (LRU) or parallel key/value lists
      (direct-mapped), holding destination cells;
    - directory lookups are memoised per replayer (the directory only
      changes through :meth:`register_trace`, which drops the memo); the
      probe and unit counts of memoised lookups are added to the
      directory's counters at the batch boundary.

    Cells link to each other in cycles, so :meth:`__del__` unlinks them:
    a finished replayer is freed by reference counting alone.
    """

    def __init__(self, compiled, config=None, cost=None, obs=None):
        self.compiled = compiled
        self.config = config or ReplayConfig.global_local()
        self.cost = cost if cost is not None else CostModel()
        self.obs = obs if obs is not None else Observability()
        self.stats = ReplayStats(metrics=self.obs.metrics)
        self.sid = NTE_SID
        self.directory = make_directory(
            self.config.global_index, order=self.config.bptree_order
        )
        for entry, head_sid in zip(compiled.head_entries,
                                   compiled.head_sids):
            self.directory.insert(entry, head_sid)
        self._dir_memo = {}
        self._agg_cache_hits = 0
        self._agg_cache_misses = 0
        self.cells = cells = [
            [NO_MATCH, None, sid, None, None, NO_MATCH, None, None]
            for sid in range(compiled.n_states)
        ]
        tbb_flag = compiled.tbb_flag
        no_more = {}
        for cell, successors in zip(cells, compiled.successor_maps()):
            # Only in-trace states consult their successors; a negative
            # label could never be taken (negative PCs end the run).
            if not tbb_flag[cell[2]]:
                continue
            links = [(label, cells[dest])
                     for label, dest in successors.items() if label >= 0]
            if links:
                cell[0], cell[1] = links[0]
            cell[7] = dict(links[1:]) if len(links) > 1 else no_more

    def __del__(self):
        for cell in getattr(self, "cells", ()):
            cell.clear()

    # ------------------------------------------------------------------

    def register_trace(self, entry, head_sid):
        """Make a newly known trace findable (parity with TeaReplayer).

        Drops the directory memo wholesale: an insertion reshapes the
        container, so the memoised unit counts of other entries go
        stale too.
        """
        self.directory.insert(entry, head_sid)
        self._dir_memo.clear()

    # ------------------------------------------------------------------

    def run(self, batch):
        """Consume one :class:`PackedBatch`; returns the final state id.

        The walk reads the batch's ``pcs`` list and adds its
        precomputed instruction totals, so a batch a stream built once
        costs no per-replay boxing or summing; wrap any other flat
        ``(next_start, instrs_dbt, instrs_pin)`` sequence with
        ``PackedBatch(triples)``.  A negative ``next_start``
        (:data:`END_OF_RUN`) accounts the block but takes no transition,
        exactly like a ``next_start=None`` object.

        Accounting matches :meth:`TeaReplayer.run` with *every* charge
        deferred to the batch boundary — the object engine defers only
        the hot-path charges and applies cache/directory/enter charges
        per event, but every replay charge constant is an integral
        float, so summing them in a different association is still
        bit-exact (exact double arithmetic below 2**53).  One more
        deliberate difference: the batch's block and instruction totals
        are flushed whole, so if an exception escapes mid-batch the
        whole batch's totals are still counted (batch-atomic, vs. the
        object engine's partial-progress flush) — the automaton walk
        itself cannot raise, so this only shows under injected faults.

        Configuration branches sit only on the cache-miss path.  The
        in-trace hit count is derived at the flush (blocks walked minus
        every other outcome) rather than counted per block.
        """
        packed = batch.triples
        counters = self.stats._counters
        cost = self.cost
        params = cost.params
        cells = self.cells
        node = cells[self.sid]
        nte_cell = cells[NTE_SID]

        # Slow-path collaborators, hoisted out of the walk loop.
        config = self.config
        use_cache = config.local_cache
        cache_size = config.cache_size
        is_lru = config.cache_kind != "direct"
        directory = self.directory
        lookup = directory.lookup
        memo = self._dir_memo
        memo_get = memo.get
        per_unit = getattr(params, DIRECTORY_COST_PARAM[directory.kind])

        pcs = batch.pcs
        blocks = len(pcs)
        # Coverage is the batch's total minus the instructions of
        # out-of-trace blocks, read from ``packed`` only on the (rare)
        # NTE path — all integer arithmetic, so the counters are exact.
        total_dbt = batch.instrs_dbt
        total_pin = batch.instrs_pin
        uncovered_dbt = 0
        uncovered_pin = 0
        exit_memo_hits = 0
        trace_exits = 0
        nte_probes = 0
        run_ends = 0
        cache_hits = 0
        cache_misses = 0
        cache_inserts = 0
        directory_hits = 0
        directory_misses = 0
        directory_units = 0
        lookups = 0
        lookup_units = 0
        keys = None
        walk = iter(pcs)
        remaining = walk.__length_hint__

        try:
            for pc in walk:
                if pc == node[0]:
                    node = node[1]
                    continue
                if pc == node[5]:
                    exit_memo_hits += 1
                    node = node[6]
                    continue
                multi = node[7]
                if multi is not None:
                    # In-trace state: another successor, or a side exit
                    # (local cache, then directory).
                    if multi:
                        dest = multi.get(pc)
                        if dest is not None:
                            node = dest
                            continue
                    if pc < 0:
                        run_ends += 1
                        continue
                    trace_exits += 1
                    if use_cache:
                        keys = node[3]
                        if keys is None:
                            dest = None
                            if is_lru:
                                keys = node[3] = {}
                            else:
                                keys = node[3] = [None] * cache_size
                                node[4] = [None] * cache_size
                        elif is_lru:
                            dest = keys.get(pc)
                            if dest is not None:
                                del keys[pc]
                                keys[pc] = dest
                        else:
                            slot = pc % cache_size
                            dest = node[4][slot] if keys[slot] == pc else None
                        if dest is not None:
                            cache_hits += 1
                            node[5] = pc
                            node[6] = dest
                            node = dest
                            continue
                        cache_misses += 1
                else:
                    # Out of trace: the block is uncovered; probe the
                    # directory unless the run ends here.
                    base = 3 * (blocks - remaining())
                    uncovered_dbt += packed[base - 2]
                    uncovered_pin += packed[base - 1]
                    if pc < 0:
                        run_ends += 1
                        continue
                    nte_probes += 1
                    keys = None
                memoised = memo_get(pc)
                if memoised is None:
                    found, units = lookup(pc)
                    lookups += 1
                    lookup_units += units
                    memoised = memo[pc] = (
                        cells[found] if found is not None else None, units,
                    )
                dest, units = memoised
                directory_units += units
                if dest is None:
                    directory_misses += 1
                    node = nte_cell
                    continue
                directory_hits += 1
                if keys is not None:
                    # A side exit found its trace: fill the local cache.
                    cache_inserts += 1
                    if is_lru:
                        keys[pc] = dest
                        if len(keys) > cache_size:
                            del keys[next(iter(keys))]
                    else:
                        slot = pc % cache_size
                        keys[slot] = pc
                        node[4][slot] = dest
                    node[5] = pc
                    node[6] = dest
                node = dest
        finally:
            # Batch-boundary flush: counters first, then every deferred
            # cycle charge (see the docstring for why batching the
            # slow-path charges is still bit-exact).
            trace_exits += exit_memo_hits
            cache_hits += exit_memo_hits
            fast_hits = (blocks - remaining() - trace_exits - nte_probes
                         - run_ends)
            self.sid = sid = node[2]
            # The directory counted its own lookups; add the memoised ones.
            directory.probes += directory_hits + directory_misses - lookups
            units_attr = DIRECTORY_UNITS_ATTR[directory.kind]
            setattr(directory, units_attr, getattr(directory, units_attr)
                    + directory_units - lookup_units)
            self._agg_cache_hits += cache_hits
            self._agg_cache_misses += cache_misses
            counters["blocks"].value += blocks
            counters["total_dbt"].value += total_dbt
            counters["total_pin"].value += total_pin
            counters["covered_dbt"].value += total_dbt - uncovered_dbt
            counters["covered_pin"].value += total_pin - uncovered_pin
            counters["in_trace_hits"].value += fast_hits
            counters["trace_exits"].value += trace_exits
            counters["nte_probes"].value += nte_probes
            counters["cache_hits"].value += cache_hits
            counters["cache_misses"].value += cache_misses
            counters["directory_hits"].value += directory_hits
            counters["directory_misses"].value += directory_misses
            counters["trace_enters"].value += cache_hits + directory_hits
            if fast_hits:
                cost.charge("callback", fast_hits * params.CALLBACK_FAST)
                cost.charge("transition",
                            fast_hits * params.IN_TRACE_TRANSITION)
            slow_calls = trace_exits + nte_probes
            if slow_calls:
                cost.charge("callback", slow_calls * params.CALLBACK_SLOW)
            if cache_hits or cache_misses or cache_inserts:
                cost.charge(
                    "cache",
                    cache_hits * params.CACHE_HIT
                    + cache_misses * params.CACHE_MISS
                    + cache_inserts * params.CACHE_INSERT,
                )
            if trace_exits + nte_probes > cache_hits:
                # At least one directory lookup happened.
                cost.charge("directory", directory_units * per_unit)
            if directory_hits:
                cost.charge("enter", directory_hits * params.ENTER_TRACE)
            self.obs.emit(
                "replay.batch",
                blocks=blocks,
                in_trace_hits=fast_hits,
                trace_exits=trace_exits,
                nte_probes=nte_probes,
            )
        return sid

    # ------------------------------------------------------------------

    def coverage(self, pin_counting=True):
        return self.stats.coverage(pin_counting=pin_counting)

    def snapshot(self):
        """Observability snapshot (same gauges as TeaReplayer, plus the
        ``replay.engine`` marker)."""
        metrics = self.obs.metrics
        directory = self.directory
        metrics.set_gauge("replay.engine", "compiled")
        metrics.set_gauge("replay.config", self.config.describe())
        metrics.set_gauge("replay.directory.kind", directory.kind)
        metrics.set_gauge("replay.directory.size", len(directory))
        metrics.set_gauge("replay.directory.probes", directory.probes)
        metrics.set_gauge("replay.directory.units", directory.units)
        metrics.set_gauge("replay.local_caches", self.local_caches())
        metrics.set_gauge("replay.local_cache_hits", self._agg_cache_hits)
        metrics.set_gauge("replay.local_cache_misses",
                          self._agg_cache_misses)
        snap = self.obs.snapshot()
        snap["cost"] = {
            "cycles": self.cost.cycles,
            "breakdown": dict(self.cost.breakdown),
        }
        return snap

    def local_caches(self):
        """How many states hold a local cache (created on first exit)."""
        return sum(1 for cell in self.cells if cell[3] is not None)

    def reset(self, clear_caches=True):
        """Return to NTE; by default also drop per-state caches and
        zero the directory probe/unit counters (see
        :meth:`TeaReplayer.reset`)."""
        self.sid = NTE_SID
        if clear_caches:
            for cell in self.cells:
                cell[3] = cell[4] = cell[6] = None
                cell[5] = NO_MATCH
            self._agg_cache_hits = 0
            self._agg_cache_misses = 0
            self.directory.reset_counters()
