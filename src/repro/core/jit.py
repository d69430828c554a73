"""Per-automaton specializing replay codegen (the TEA JIT engine).

The paper's observation that the transition function dominates replay
(Table 4) points at the classic DBT answer — specialize the dispatch
code *per automaton*, the way a translator specializes per trace.
This module is that translator.  Its speed turned out to come from the
state cells below rather than from the generated code: the compiled
engine (:mod:`repro.core.compiled`) walks the same kind of cells in
plain Python and is as fast.  :func:`generate_replay_source` emits a
Python module tailored to one :class:`~repro.core.compiled.CompiledTea`
and one :class:`~repro.core.replay.ReplayConfig`:

- **state cells** — each state becomes a small list
  ``[expected_pc, next_cell, sid, cache, cache_values, exit_pc,
  exit_cell]``; the in-trace fast path is one integer compare plus one
  list index (``if pc == node[0]: node = node[1]``).  This exploits a
  structural fact of real TEAs: almost every in-trace state has exactly
  one successor, so its transition label is a *constant* that can be
  baked into the cell;
- **monomorphic exit stubs** — slots 5/6 memoise the last side exit
  taken from the state.  A state's local cache mutates only on that
  state's own exits, so "same PC as the previous exit" *proves* the
  cache would hit again — the dominant slow path collapses to one
  compare (measured: 90-97%% of exits on the Table 4 workloads repeat
  the previous exit PC);
- **baked constants** — cost-model charge constants
  (``CALLBACK_FAST``, ``IN_TRACE_TRANSITION``, ``CACHE_MISS``, the
  per-directory probe-unit cost), the cache geometry and the
  ``tbb_flag`` discrimination are emitted as literals; configuration
  branches the compiled engine tests per event simply do not exist in
  the generated code;
- **directory memoisation** — the global directory is immutable during
  a replay (``register_trace`` invalidates), so lookup results,
  including their probe-unit counts, are memoised; the deferred
  ``probes``/unit work is flushed into the directory's own counters at
  the batch boundary so observability gauges stay exact.

States with more than one successor fall back to a shared jump table
(``MULTI``); states whose fan-out exceeds the specialization threshold
are *not* specialized — reaching one mid-batch hands the rest of the
stream to a :class:`~repro.core.compiled.CompiledReplayer` (guard +
deopt, see :class:`JitReplayer`).

Accounting is bit-exact against ``TeaReplayer.step()`` and
``CompiledReplayer.run()``: identical ``replay.*`` counters, identical
cost charges in the same batch-boundary order (all replay charge
constants are integral floats, so regrouping sums is exact below
2**53).  The differential suite in ``tests/test_jit_engine.py`` pins
this down over the Table 4 configs and randomized automata.

Generated code lives only in the process that generated it: a
:class:`JitCode` is built by :meth:`JitCode.from_compiled` from the
string :func:`generate_replay_source` has just returned, and is never
written to or read back from disk.  Codegen costs a few milliseconds
per automaton and config, so callers that replay repeatedly keep the
``JitCode`` in memory (the replay service caches one per snapshot and
config).  The source's first line is a comment naming the automaton
digest, config token, cost-parameter token and threshold it was
specialized for; :meth:`JitCode.matches` checks the same identity.
"""

import hashlib

from repro.core.automaton import NTE_SID
from repro.core.compiled import CompiledReplayer, PackedBatch
from repro.core.directory import (
    DIRECTORY_COST_PARAM,
    DIRECTORY_UNITS_ATTR,
    make_directory,
)
from repro.core.replay import ReplayConfig, ReplayStats
from repro.dbt.cost import CostModel
from repro.obs import Observability

#: A state whose successor fan-out exceeds this is left unspecialized;
#: reaching it deopts the batch remainder to the compiled engine.
DEFAULT_SPECIALIZE_THRESHOLD = 16

#: Cell slot holding a value no packed ``next_start`` can equal (real
#: PCs are >= 0 and END_OF_RUN is -1): the "no expectation" marker.
_NO_MATCH = -3

#: Cost parameters the generated code bakes as literals, in emission
#: order (:func:`params_token` hashes these values).
JIT_COST_FIELDS = (
    "CALLBACK_FAST", "CALLBACK_SLOW", "IN_TRACE_TRANSITION",
    "CACHE_HIT", "CACHE_MISS", "CACHE_INSERT",
    "LIST_ELEMENT", "BPTREE_NODE", "HASH_SLOT", "ARRAY_COMPARISON",
    "ENTER_TRACE",
)


def structural_digest(compiled):
    """SHA-256 over the automaton's flat tables (shape identity).

    Mirrors :meth:`CompiledTea.structurally_equal`: the per-state
    instruction metadata is excluded (snapshot-lowered automata carry
    zeros there), so a snapshot round-trip keeps its digest.
    """
    digest = hashlib.sha256()
    digest.update(b"TEAJIT-TABLES-1")
    for table in (compiled.labels, compiled.trans_offset,
                  compiled.trans_labels, compiled.trans_dest,
                  compiled.head_entries, compiled.head_sids):
        digest.update(table.tobytes())
        digest.update(b"|")
    digest.update(bytes(compiled.tbb_flag))
    return digest.hexdigest()


def jit_config_token(config):
    """Short stable token naming the config axes the codegen bakes."""
    if config.local_cache:
        cache = "%s%d" % (config.cache_kind, config.cache_size)
    else:
        cache = "nocache"
    return "%s-o%d-%s" % (config.global_index, config.bptree_order, cache)


def params_signature(params):
    """The baked cost constants as a tuple of floats."""
    return tuple(float(getattr(params, name)) for name in JIT_COST_FIELDS)


def params_token(params):
    """12-hex-digit token over the baked cost constants."""
    payload = ",".join(repr(value) for value in params_signature(params))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


def specialize_tables(compiled, threshold=DEFAULT_SPECIALIZE_THRESHOLD):
    """Derive the specialization tables for one automaton.

    Returns ``(shift, exp, nxt, multi, deopt_sids)``:

    - ``shift`` — label bit width for the packed ``(sid << shift) |
      label`` jump-table keys;
    - ``exp[sid]`` — the transition label the fast path compares
      against (:data:`_NO_MATCH` when the state takes no fast path);
    - ``nxt[sid]`` — destination state of that fast transition;
    - ``multi`` — packed-key jump table for the remaining successors of
      states with fan-out in ``[2, threshold]``;
    - ``deopt_sids`` — states with fan-out above ``threshold`` (left
      unspecialized; the runner hands these to the compiled engine).

    Raises ``ValueError`` for automata the codegen cannot specialize
    (negative transition labels would collide with the packed stream's
    terminal sentinel).
    """
    labels = compiled.labels
    if len(labels) and min(labels) < 0:
        raise ValueError(
            "cannot specialize: automaton has negative transition labels"
        )
    max_label = max(labels) if len(labels) else 0
    shift = max(1, int(max_label).bit_length())
    n_states = compiled.n_states
    tbb_flag = compiled.tbb_flag
    successors = compiled.successor_maps()
    exp = [_NO_MATCH] * n_states
    nxt = list(range(n_states))
    multi = {}
    deopt = []
    for sid in range(n_states):
        # Mirrors the compiled engine: only in-trace states consult
        # their successor map; NTE and any other out-of-trace state go
        # straight to the directory.
        if not tbb_flag[sid] or not successors[sid]:
            continue
        items = list(successors[sid].items())
        if len(items) > threshold:
            deopt.append(sid)
            continue
        exp[sid], nxt[sid] = items[0]
        for label, dest in items[1:]:
            multi[(sid << shift) | label] = dest
    return shift, exp, nxt, multi, tuple(deopt)


# ----------------------------------------------------------------------
# Code generation


def _emit_flush(lines, config, params, per_unit_name, units_attr):
    """Emit the batch-boundary flush (shared by the normal and deopt
    epilogues — the deopt path rewrites ``blocks``/totals first)."""
    signature = params_signature(params)
    baked = dict(zip(JIT_COST_FIELDS, signature))
    lines += [
        "        fast_hits = blocks - trace_exits - nte_probes - eor",
        "        counters['blocks'].value += blocks",
        "        counters['total_dbt'].value += total_dbt",
        "        counters['total_pin'].value += total_pin",
        "        counters['covered_dbt'].value += total_dbt - uncovered_dbt",
        "        counters['covered_pin'].value += total_pin - uncovered_pin",
        "        counters['in_trace_hits'].value += fast_hits",
        "        counters['trace_exits'].value += trace_exits",
        "        counters['nte_probes'].value += nte_probes",
        "        counters['cache_hits'].value += cache_hits",
        "        counters['cache_misses'].value += cache_misses",
        "        counters['directory_hits'].value += directory_hits",
        "        counters['directory_misses'].value += directory_misses",
        "        counters['trace_enters'].value += "
        "cache_hits + directory_hits",
        "        directory = R.directory",
        "        directory.probes += memo_probes",
        "        directory.%s += memo_units" % units_attr,
        "        R._agg_cache_hits += cache_hits",
        "        R._agg_cache_misses += cache_misses",
        "        if fast_hits:",
        "            charge('callback', fast_hits * %r)"
        % baked["CALLBACK_FAST"],
        "            charge('transition', fast_hits * %r)"
        % baked["IN_TRACE_TRANSITION"],
        "        slow_calls = trace_exits + nte_probes",
        "        if slow_calls:",
        "            charge('callback', slow_calls * %r)"
        % baked["CALLBACK_SLOW"],
        "        if cache_hits or cache_misses or cache_inserts:",
        "            charge('cache', cache_hits * %r + cache_misses * %r"
        " + cache_inserts * %r)"
        % (baked["CACHE_HIT"], baked["CACHE_MISS"], baked["CACHE_INSERT"]),
        "        if trace_exits + nte_probes > cache_hits:",
        "            charge('directory', directory_units * %r)"
        % baked[per_unit_name],
        "        if directory_hits:",
        "            charge('enter', directory_hits * %r)"
        % baked["ENTER_TRACE"],
        "        R.obs.emit('replay.batch', blocks=blocks,"
        " in_trace_hits=fast_hits, trace_exits=trace_exits,"
        " nte_probes=nte_probes)",
        "        R._node = node",
    ]


def _emit_directory_probe(lines, indent, counts_nte):
    """Emit the memoised directory lookup (shared by exit/NTE paths)."""
    pad = " " * indent
    lines += [
        pad + "m = memo_get(pc)",
        pad + "if m is None:",
        pad + "    found, units = lookup(pc)",
        pad + "    m = memo[pc] = (",
        pad + "        cells[found] if found is not None else None, units)",
        pad + "else:",
        pad + "    memo_probes += 1",
        pad + "    memo_units += m[1]",
        pad + "dest = m[0]",
        pad + "directory_units += m[1]",
    ]


def generate_replay_source(compiled, config=None, params=None,
                           threshold=DEFAULT_SPECIALIZE_THRESHOLD):
    """Emit the specialized replay module for one automaton + config.

    The result is a self-contained Python source string: literal
    specialization tables, a ``bind()`` function returning fresh
    ``(cells, run)``, and a first-line comment naming what it was
    specialized for.  ``exec`` it once (that is what :class:`JitCode`
    does) and call ``run(replayer, packed)`` per batch.  ``run`` takes
    the replayer as an argument rather than closing over it, so a
    replayer holding its own ``run`` forms no reference cycle.
    """
    config = config or ReplayConfig.global_local()
    params = params if params is not None else CostModel().params
    shift, exp, nxt, multi, deopt_sids = specialize_tables(
        compiled, threshold=threshold
    )
    use_cache = config.local_cache
    is_lru = use_cache and config.cache_kind != "direct"
    cache_size = config.cache_size
    per_unit_name = DIRECTORY_COST_PARAM[config.global_index]
    units_attr = DIRECTORY_UNITS_ATTR[config.global_index]
    use_multi = bool(multi)
    use_deopt = bool(deopt_sids)

    lines = [
        "# TEAJIT digest=%s config=%s params=%s threshold=%d" % (
            structural_digest(compiled), jit_config_token(config),
            params_token(params), threshold,
        ),
        '"""Machine-generated specialized TEA replay loop; do not edit.',
        "",
        "Emitted by repro.core.jit.generate_replay_source for the",
        "automaton and config named in the first line, and executed",
        "only in the process that generated it.",
        '"""',
        "",
        "SHIFT = %d" % shift,
        "N_STATES = %d" % compiled.n_states,
        "TBB = %r" % bytes(compiled.tbb_flag),
        "EXP = %r" % (exp,),
        "NXT = %r" % (nxt,),
        "MULTI = %r" % (multi,),
        "DEOPT_SIDS = %r" % (deopt_sids,),
        "",
        "_DEOPT = ['deopt']   # identity marker for unspecialized cells",
        "",
        "",
        "def bind():",
        "    cells = [[EXP[s], None, s, None, None, %d, None]" % _NO_MATCH,
        "             for s in range(N_STATES)]",
        "    for s in range(N_STATES):",
        "        cells[s][1] = cells[NXT[s]]",
        "    for s in range(N_STATES):",
        "        if TBB[s]:",
    ]
    if is_lru:
        lines += ["            cells[s][3] = {}"]
    elif use_cache:
        lines += [
            "            cells[s][3] = [None] * %d" % cache_size,
            "            cells[s][4] = [None] * %d" % cache_size,
        ]
    else:
        lines += ["            cells[s][3] = True"]
    lines += [
        "    for s in DEOPT_SIDS:",
        "        cells[s][0] = %d" % _NO_MATCH,
        "        cells[s][3] = _DEOPT",
        "        cells[s][5] = %d" % _NO_MATCH,
        "    multi = {key: cells[dest] for key, dest in MULTI.items()}",
        "    multi_get = multi.get",
        "    nte_cell = cells[%d]" % NTE_SID,
        "",
        "    def run(R, packed):",
        "        length = len(packed)",
        "        if length % 3:",
        "            raise ValueError(",
        "                'packed batch length %d is not a multiple of 3'",
        "                % length)",
        "        counters = R.stats._counters",
        "        charge = R.cost.charge",
        "        lookup = R.directory.lookup",
        "        memo = R._dir_memo",
        "        memo_get = memo.get",
        "        touched_add = R._cache_touched.add",
        "        node = R._node",
        "        blocks = length // 3",
        "        starts = list(packed[0::3])",
        "        dbt_lane = list(packed[1::3])",
        "        pin_lane = list(packed[2::3])",
        "        total_dbt = sum(dbt_lane)",
        "        total_pin = sum(pin_lane)",
        "        uncovered_dbt = 0",
        "        uncovered_pin = 0",
        "        trace_exits = 0",
        "        nte_probes = 0",
        "        eor = 0",
        "        cache_hits = 0",
        "        cache_misses = 0",
        "        cache_inserts = 0",
        "        directory_hits = 0",
        "        directory_misses = 0",
        "        directory_units = 0",
        "        memo_probes = 0",
        "        memo_units = 0",
        "        it = iter(starts)",
        "        hint = it.__length_hint__",
    ]
    if use_deopt:
        lines += ["        deopt_at = -1"]
    lines += [
        "        for pc in it:",
        "            if pc == node[0]:",
        "                node = node[1]",
        "                continue",
    ]
    if use_cache:
        # Monomorphic exit stub: same PC as the previous (cache-backed)
        # exit from this state proves the cache hits again.
        lines += [
            "            if pc == node[5]:",
            "                trace_exits += 1",
            "                cache_hits += 1",
            "                node = node[6]",
            "                continue",
        ]
    lines += [
        "            keys = node[3]",
        "            if keys is not None:",
    ]
    if use_deopt:
        lines += [
            "                if keys is _DEOPT:",
            "                    deopt_at = blocks - hint() - 1",
            "                    break",
        ]
    if use_multi:
        lines += [
            "                d = multi_get((node[2] << %d) | pc)" % shift,
            "                if d is not None:",
            "                    node = d",
            "                    continue",
        ]
    lines += [
        "                if pc < 0:",
        "                    eor += 1",
        "                    continue",
        "                trace_exits += 1",
    ]
    if is_lru:
        lines += [
            "                found = keys.get(pc)",
            "                if found is not None:",
            "                    del keys[pc]",
            "                    keys[pc] = found",
            "                    cache_hits += 1",
            "                    node[5] = pc",
            "                    node[6] = found",
            "                    node = found",
            "                    continue",
            "                cache_misses += 1",
        ]
    elif use_cache:
        lines += [
            "                slot = pc %% %d" % cache_size,
            "                if keys[slot] == pc:",
            "                    cache_hits += 1",
            "                    found = node[4][slot]",
            "                    node[5] = pc",
            "                    node[6] = found",
            "                    node = found",
            "                    continue",
            "                cache_misses += 1",
        ]
    _emit_directory_probe(lines, 16, counts_nte=False)
    lines += [
        "                if dest is None:",
        "                    directory_misses += 1",
    ]
    if use_cache:
        # The compiled engine creates the state's (empty) cache on any
        # exit; record dir-miss exits so the cache-population gauges
        # agree (every other exit leaves a visible cache entry).
        lines += ["                    touched_add(node[2])"]
    lines += [
        "                    node = nte_cell",
        "                else:",
        "                    directory_hits += 1",
    ]
    if is_lru:
        lines += [
            "                    cache_inserts += 1",
            "                    keys[pc] = dest",
            "                    if len(keys) > %d:" % cache_size,
            "                        del keys[next(iter(keys))]",
            "                    node[5] = pc",
            "                    node[6] = dest",
        ]
    elif use_cache:
        lines += [
            "                    cache_inserts += 1",
            "                    keys[slot] = pc",
            "                    node[4][slot] = dest",
            "                    node[5] = pc",
            "                    node[6] = dest",
        ]
    lines += [
        "                    node = dest",
        "            else:",
        "                index = blocks - hint() - 1",
        "                uncovered_dbt += dbt_lane[index]",
        "                uncovered_pin += pin_lane[index]",
        "                if pc < 0:",
        "                    eor += 1",
        "                    continue",
        "                nte_probes += 1",
    ]
    _emit_directory_probe(lines, 16, counts_nte=True)
    lines += [
        "                if dest is None:",
        "                    directory_misses += 1",
        "                    node = nte_cell",
        "                else:",
        "                    directory_hits += 1",
        "                    node = dest",
    ]
    if use_deopt:
        lines += [
            "        if deopt_at >= 0:",
            "            blocks = deopt_at",
            "            total_dbt = sum(dbt_lane[:deopt_at])",
            "            total_pin = sum(pin_lane[:deopt_at])",
        ]
    _emit_flush(lines, config, params, per_unit_name, units_attr)
    if use_deopt:
        lines += [
            "        if deopt_at >= 0:",
            "            return (node[2], deopt_at)",
        ]
    lines += [
        "        return node[2]",
        "",
        "    return cells, run",
        "",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Compiled code wrapper


class JitCode:
    """One generated replay module: source + executed namespace.

    Immutable and shareable: ``bind()`` builds fresh per-replayer cells,
    so many :class:`JitReplayer` instances (or service workers) can hold
    one ``JitCode``.
    """

    __slots__ = ("source", "digest", "config_token", "params_token",
                 "threshold", "_namespace", "_bind")

    def __init__(self, compiled, config=None, params=None,
                 threshold=DEFAULT_SPECIALIZE_THRESHOLD):
        config = config or ReplayConfig.global_local()
        params = params if params is not None else CostModel().params
        self.source = generate_replay_source(
            compiled, config=config, params=params, threshold=threshold,
        )
        self.digest = structural_digest(compiled)
        self.config_token = jit_config_token(config)
        self.params_token = params_token(params)
        self.threshold = threshold
        namespace = {}
        code = compile(self.source, "<teajit:%s>" % self.digest[:12], "exec")
        # Executes only ``self.source``, generated above in this
        # process; no JIT code is ever read from disk.
        exec(code, namespace)  # noqa: S102
        # ``bind`` keeps the namespace as its globals; taken out of it,
        # the two form no reference cycle.
        self._bind = namespace.pop("bind")
        self._namespace = namespace

    @classmethod
    def from_compiled(cls, compiled, config=None, params=None,
                      threshold=DEFAULT_SPECIALIZE_THRESHOLD):
        """Generate + compile the specialized module for an automaton."""
        return cls(compiled, config=config, params=params,
                   threshold=threshold)

    # ------------------------------------------------------------------

    @property
    def n_states(self):
        return self._namespace["N_STATES"]

    @property
    def deopt_sids(self):
        return self._namespace["DEOPT_SIDS"]

    def matches(self, compiled=None, config=None, params=None):
        """Guard check: does this code describe that automaton/config?"""
        if compiled is not None and self.digest != structural_digest(compiled):
            return False
        if config is not None and self.config_token != jit_config_token(config):
            return False
        if params is not None and self.params_token != params_token(params):
            return False
        return True

    def bind(self):
        """Build fresh cells + runner closure for one replayer; the
        runner is called as ``run(replayer, packed)``."""
        return self._bind()

    def __repr__(self):
        return "<JitCode digest=%s config=%s states=%d deopt=%d>" % (
            self.digest[:12], self.config_token, self.n_states,
            len(self.deopt_sids),
        )


# ----------------------------------------------------------------------
# The replayer


class JitReplayer:
    """Drives generated specialized code over packed transition batches.

    The API mirrors :class:`~repro.core.compiled.CompiledReplayer` —
    same constructor knobs plus ``code`` (a prebuilt :class:`JitCode`,
    e.g. one the replay service keeps per snapshot) and ``threshold``;
    same ``stats``/``cost``/``directory``/``sid``/``snapshot`` surface; the
    accounting is bit-exact against both other engines.

    Guards and deopt
    ----------------
    - *Construction guards*: a supplied ``code`` must match the
      automaton digest, the config token and the live cost parameters;
      code is regenerated when only the parameters drifted, and the
      replayer falls back to a :class:`CompiledReplayer` outright when
      the automaton cannot be specialized at all.
    - *Runtime guard*: reaching a state whose fan-out exceeded the
      specialization threshold hands the remainder of that batch — and
      every later batch — to the compiled engine, with the prefix
      already flushed (counters are registry-backed, so the handover is
      seamless and still bit-exact).
    - ``reset(clear_caches=True)`` re-arms the specialized loop after a
      threshold deopt; permanent (construction) deopts stay put.

    Observability adds ``replay.jit_deopts`` (counter) and the
    ``replay.jit_*`` gauges emitted by :meth:`snapshot`.
    """

    def __init__(self, compiled, config=None, cost=None, obs=None,
                 code=None, threshold=DEFAULT_SPECIALIZE_THRESHOLD):
        self.compiled = compiled
        self.config = config or ReplayConfig.global_local()
        self.cost = cost if cost is not None else CostModel()
        self.obs = obs if obs is not None else Observability()
        self.stats = ReplayStats(metrics=self.obs.metrics)
        self.directory = make_directory(
            self.config.global_index, order=self.config.bptree_order
        )
        for entry, head_sid in zip(compiled.head_entries,
                                   compiled.head_sids):
            self.directory.insert(entry, head_sid)
        self.threshold = threshold
        self._dir_memo = {}
        # States that took an exit whose lookup dir-missed: the
        # compiled engine materialises an (empty) cache there, so the
        # cache-population gauge must count them too.
        self._cache_touched = set()
        self._agg_cache_hits = 0
        self._agg_cache_misses = 0
        self._fallback = None
        self._fallback_active = False
        self._deopt_reason = None
        self._permanent_deopt = False
        self._deopts = self.obs.metrics.counter("replay.jit_deopts")
        self.cells = None
        self._node = None
        self._runner = None

        if code is not None and not code.matches(
                compiled=compiled, config=self.config):
            # Wrong automaton or config: that code cannot be trusted
            # here under any parameters.
            code = None
        if code is not None and not code.matches(params=self.cost.params):
            # Right automaton, drifted cost constants: the baked charge
            # literals are stale.  Regenerate below.
            code = None
        if code is None:
            try:
                code = JitCode.from_compiled(
                    compiled, config=self.config, params=self.cost.params,
                    threshold=threshold,
                )
            except ValueError as error:
                self.code = None
                self._activate_fallback(
                    "unspecializable: %s" % error, sid=NTE_SID,
                    permanent=True,
                )
                return
        self.code = code
        self.cells, self._runner = code.bind()
        self._node = self.cells[NTE_SID]

    def __del__(self):
        # Cells link to each other in cycles; unlinking them lets
        # reference counting free a finished replayer's cells.
        for cell in getattr(self, "cells", None) or ():
            cell.clear()

    # ------------------------------------------------------------------

    @property
    def sid(self):
        """Current state id (mirrors ``CompiledReplayer.sid``)."""
        if self._fallback_active:
            return self._fallback.sid
        return self._node[2]

    @sid.setter
    def sid(self, value):
        if self._fallback_active:
            self._fallback.sid = value
        else:
            self._node = self.cells[value]

    @property
    def deopted(self):
        """True while the compiled fallback is driving."""
        return self._fallback_active

    @property
    def deopt_reason(self):
        return self._deopt_reason

    # ------------------------------------------------------------------

    def register_trace(self, entry, head_sid):
        """Make a newly known trace findable (parity with TeaReplayer).

        Invalidates the directory memo wholesale: an insertion reshapes
        the container, so the memoised probe-unit counts of *other*
        entries go stale too, not just this PC's result.
        """
        if self._fallback is not None:
            # Inserts into the shared directory and drops its own memo.
            self._fallback.register_trace(entry, head_sid)
        else:
            self.directory.insert(entry, head_sid)
        self._dir_memo.clear()

    def run(self, batch):
        """Consume one packed batch; returns the final state id.

        Accepts the same :class:`~repro.core.compiled.PackedBatch` as
        :meth:`CompiledReplayer.run`, with the same batch-boundary
        accounting; the generated code reads its ``triples``.  One
        deviation: the compiled engine flushes batch-atomically even
        when an injected fault escapes mid-batch; the generated loop has
        no try/finally (nothing in the specialized walk can raise), so a
        fault injected into the directory surfaces before any flush.
        """
        if self._fallback_active:
            return self._fallback.run(batch)
        result = self._runner(self, batch.triples)
        if type(result) is tuple:
            sid, index = result
            self._activate_fallback("specialization threshold", sid=sid)
            remainder = batch.triples[3 * index:]
            if len(remainder):
                return self._fallback.run(PackedBatch(remainder))
            return self._fallback.sid
        return result

    # ------------------------------------------------------------------

    def _activate_fallback(self, reason, sid, permanent=False):
        """Hand the replay over to a compiled engine sharing our state."""
        fallback = CompiledReplayer(
            self.compiled, config=self.config, cost=self.cost, obs=self.obs,
        )
        # Counters are registry-backed, so the fallback's ReplayStats
        # already aliases ours; directory identity preserves probe/unit
        # counters and any traces registered mid-replay.
        fallback.stats = self.stats
        fallback.directory = self.directory
        fallback.sid = sid
        self._convert_caches(fallback.cells)
        self._fallback = fallback
        self._fallback_active = True
        self._permanent_deopt = self._permanent_deopt or permanent
        self._deopt_reason = reason
        self._deopts.inc()
        self.obs.emit("replay.jit_deopt", reason=reason,
                      permanent=bool(permanent))

    def _convert_caches(self, target):
        """Copy the cell-embedded caches into the compiled engine's
        ``target`` cells, relinked to those cells."""
        if self.cells is None or not self.config.local_cache:
            return
        is_lru = self.config.cache_kind != "direct"
        size = self.config.cache_size
        deopt_sids = set(self.code.deopt_sids)
        for cell in self.cells:
            sid = cell[2]
            store = cell[3]
            # Unspecialized cells carry the _DEOPT marker (a list) in
            # the cache slot — not a cache.
            if sid in deopt_sids or not isinstance(store, (dict, list)):
                continue
            into = target[sid]
            if is_lru:
                if store:
                    # Recency order (hits reinsert) carries over as is.
                    into[3] = {pc: target[dest[2]]
                               for pc, dest in store.items()}
            elif any(key is not None for key in store):
                into[3] = list(store)
                into[4] = [target[dest[2]] if dest is not None else None
                           for dest in cell[4]]
        # Dir-miss-only states: compiled holds an empty cache for them.
        for sid in self._cache_touched:
            into = target[sid]
            if into[3] is None:
                if is_lru:
                    into[3] = {}
                else:
                    into[3] = [None] * size
                    into[4] = [None] * size

    # ------------------------------------------------------------------

    def coverage(self, pin_counting=True):
        return self.stats.coverage(pin_counting=pin_counting)

    def snapshot(self):
        """Observability snapshot (compiled-engine gauges plus the
        ``replay.jit_*`` markers)."""
        metrics = self.obs.metrics
        directory = self.directory
        metrics.set_gauge("replay.engine", "jit")
        metrics.set_gauge("replay.config", self.config.describe())
        metrics.set_gauge("replay.directory.kind", directory.kind)
        metrics.set_gauge("replay.directory.size", len(directory))
        metrics.set_gauge("replay.directory.probes", directory.probes)
        metrics.set_gauge("replay.directory.units", directory.units)
        cache_hits = self._agg_cache_hits
        cache_misses = self._agg_cache_misses
        active = 0
        if self._fallback is not None:
            active = self._fallback.local_caches()
            cache_hits += self._fallback._agg_cache_hits
            cache_misses += self._fallback._agg_cache_misses
        elif self.cells is not None and self.config.local_cache:
            deopt_sids = set(self.code.deopt_sids)
            populated = set(self._cache_touched)
            for cell in self.cells:
                if cell[2] in deopt_sids:
                    continue
                store = cell[3]
                if isinstance(store, dict) and store:
                    populated.add(cell[2])
                elif (isinstance(store, list)
                        and any(k is not None for k in store)):
                    populated.add(cell[2])
            active = len(populated)
        metrics.set_gauge("replay.local_caches", active)
        metrics.set_gauge("replay.local_cache_hits", cache_hits)
        metrics.set_gauge("replay.local_cache_misses", cache_misses)
        code = self.code
        metrics.set_gauge("replay.jit_active", not self._fallback_active)
        metrics.set_gauge(
            "replay.jit_code_digest", code.digest[:12] if code else "")
        metrics.set_gauge(
            "replay.jit_specialized_states",
            (code.n_states - len(code.deopt_sids)) if code else 0)
        metrics.set_gauge(
            "replay.jit_deopt_states", len(code.deopt_sids) if code else 0)
        metrics.set_gauge(
            "replay.jit_dir_memo_entries", len(self._dir_memo))
        if self._deopt_reason:
            metrics.set_gauge("replay.jit_deopt_reason", self._deopt_reason)
        snap = self.obs.snapshot()
        snap["cost"] = {
            "cycles": self.cost.cycles,
            "breakdown": dict(self.cost.breakdown),
        }
        return snap

    def reset(self, clear_caches=True):
        """Return to NTE (see :meth:`CompiledReplayer.reset`).

        With ``clear_caches=True`` this also re-arms the specialized
        loop after a threshold deopt (the warm caches the fallback
        accumulated are dropped along with everything else); permanent
        construction-time deopts stay on the compiled fallback.
        """
        if self._permanent_deopt:
            self._fallback.reset(clear_caches=clear_caches)
            return
        if clear_caches:
            self._fallback = None
            self._fallback_active = False
            self._deopt_reason = None
            self._dir_memo.clear()
            self._cache_touched.clear()
            self.directory.reset_counters()
            self._agg_cache_hits = 0
            self._agg_cache_misses = 0
            size = self.config.cache_size
            deopt_sids = set(self.code.deopt_sids)
            for cell in self.cells:
                if cell[2] in deopt_sids:
                    continue   # keep the _DEOPT marker (and its -3 slots)
                store = cell[3]
                if isinstance(store, dict):
                    store.clear()
                elif isinstance(store, list):
                    cell[3] = [None] * size
                    cell[4] = [None] * size
                cell[5] = _NO_MATCH
                cell[6] = None
            self._node = self.cells[NTE_SID]
            return
        # State-only reset: warm caches survive *with* their stats —
        # exactly the object/compiled engines' clear_caches=False
        # contract (the directory memo stays valid too: the directory
        # itself was not touched).
        if self._fallback_active:
            self._fallback.reset(clear_caches=False)
            return
        self._node = self.cells[NTE_SID]

    def __repr__(self):
        mode = "fallback:%s" % self._deopt_reason if self._fallback_active \
            else "specialized"
        return "<JitReplayer states=%d %s>" % (self.compiled.n_states, mode)
