"""Differential validation: TEA replay vs DBT trace execution.

The paper's correctness argument (Properties 1 and 2) says the TEA
"models the exact behavior of the program's traces".  This module checks
that claim *dynamically*: it walks a DBT-style trace cursor (what
replicated code would execute) and the TEA replayer in lockstep over one
block-transition stream and verifies that, at every step, the automaton
state names exactly the TBB the code cache would be executing.

Useful as a library feature too: ``validate_trace_file`` proves a
serialized trace set is consistent with a program before an expensive
replay/optimization run on it.
"""

from repro.cfg.basic_block import BlockIndex
from repro.core.builder import build_tea
from repro.core.replay import ReplayConfig, TeaReplayer
from repro.cpu.executor import DEFAULT_MAX_INSTRUCTIONS
from repro.cpu.stream import ExecutionStream
from repro.errors import TeaError


class Divergence:
    """One disagreement between the cursor and the automaton."""

    __slots__ = ("step", "block_start", "cursor_tbb", "state_name")

    def __init__(self, step, block_start, cursor_tbb, state_name):
        self.step = step
        self.block_start = block_start
        self.cursor_tbb = cursor_tbb
        self.state_name = state_name

    def __repr__(self):
        return "<Divergence step=%d block=%#x cursor=%s tea=%s>" % (
            self.step,
            self.block_start,
            self.cursor_tbb,
            self.state_name,
        )


class DifferentialChecker:
    """Lockstep DBT cursor + TEA replayer over one transition stream."""

    def __init__(self, trace_set, tea=None, config=None):
        self.trace_set = trace_set
        self.tea = tea if tea is not None else build_tea(trace_set)
        self.replayer = TeaReplayer(
            self.tea, config=config or ReplayConfig.global_local()
        )
        self._cursor = None  # (trace, index) the code cache would be in
        self.steps = 0
        self.agreements = 0
        self.divergences = []

    def _advance_cursor(self, next_start):
        """The DBT-side reference semantics (mirrors StarDBT linking)."""
        if next_start is None:
            self._cursor = None
            return
        cursor = self._cursor
        if cursor is not None:
            trace, index = cursor
            successor = trace.tbbs[index].successors.get(next_start)
            if successor is not None:
                self._cursor = (trace, successor)
                return
            if next_start == trace.entry:
                self._cursor = (trace, 0)
                return
        entered = self.trace_set.trace_at(next_start)
        self._cursor = (entered, 0) if entered is not None else None

    def on_transition(self, transition):
        """Feed one block transition; records any divergence."""
        self.steps += 1
        # Compare the state that covered this block.
        state = self.replayer.state
        cursor = self._cursor
        if cursor is None:
            matches = state.tbb is None
            cursor_name = None
        else:
            trace, index = cursor
            tbb = trace.tbbs[index]
            matches = (
                state.tbb is not None
                and state.tbb.trace_id == tbb.trace_id
                and state.tbb.index == tbb.index
            )
            cursor_name = tbb.name
        if matches:
            self.agreements += 1
        else:
            self.divergences.append(
                Divergence(self.steps, transition.block.start, cursor_name,
                           state.name)
            )
        self.replayer.step(transition)
        self._advance_cursor(transition.next_start)

    @property
    def is_equivalent(self):
        return not self.divergences

    def raise_on_divergence(self):
        if self.divergences:
            raise TeaError(
                "TEA diverged from trace execution %d time(s); first: %r"
                % (len(self.divergences), self.divergences[0])
            )


def _drive(program, on_transition, max_instructions):
    """Feed the StarDBT-flavour block transitions of one recorded run of
    ``program`` to ``on_transition``.  A run over budget delivers its
    prefix, then raises :class:`~repro.errors.InstructionLimitExceeded`."""
    stream = ExecutionStream.record(program, max_instructions)
    for transition in stream.block_transitions(BlockIndex(program),
                                               program.entry):
        on_transition(transition)
    if stream.exceeded:
        raise stream.limit_error()


def check_equivalence(program, trace_set, tea=None, config=None,
                      max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Run ``program`` once, validating TEA against the DBT cursor.

    Returns the :class:`DifferentialChecker` with its verdict.
    """
    checker = DifferentialChecker(trace_set, tea=tea, config=config)
    _drive(program, checker.on_transition, max_instructions)
    return checker


class MinimizationChecker:
    """Lockstep original vs minimized replay over one transition stream.

    Drives two :class:`~repro.core.replay.TeaReplayer` instances (with
    independent cost models and caches) over the same recording and
    compares the *observable* verdict at every step: is the replayer
    in-trace, and which basic block does its state cover?  Merged
    states have different names but must cover the same block; with
    budget spills the minimized side may fall out of trace early, which
    is tolerated only in ``lossy`` mode (minimized in-trace implies
    original in-trace, never the converse).

    After the run, :meth:`stats_match` reports whether the full
    Table 4 accounting (stats, coverage, cost breakdown) is
    bit-identical — the stronger exact-mode guarantee.
    """

    def __init__(self, trace_set, original, minimized, config=None,
                 lossy=False):
        config = config or ReplayConfig.global_local()
        self.trace_set = trace_set
        # The replayers never mutate their config, so sharing one is
        # safe; each still gets its own cost model and caches.
        self.original = TeaReplayer(original, config=config)
        self.minimized = TeaReplayer(minimized, config=config)
        self.lossy = lossy
        self.steps = 0
        self.agreements = 0
        self.divergences = []

    def on_transition(self, transition):
        """Feed one block transition to both sides; record divergence."""
        self.steps += 1
        state_a = self.original.state
        state_b = self.minimized.state
        in_a = state_a.tbb is not None
        in_b = state_b.tbb is not None
        if in_a == in_b:
            matches = (not in_a) or state_a.tbb.start == state_b.tbb.start
        else:
            # One side fell out of trace: only legal as a budget spill
            # on the minimized side.
            matches = self.lossy and in_a and not in_b
        if matches:
            self.agreements += 1
        else:
            self.divergences.append(
                Divergence(self.steps, transition.block.start,
                           state_a.name, state_b.name)
            )
        self.original.step(transition)
        self.minimized.step(transition)

    @property
    def is_equivalent(self):
        return not self.divergences

    def stats_match(self):
        """True when both sides' full accounting is bit-identical."""
        snap_a = self.original.snapshot()
        snap_b = self.minimized.snapshot()
        return (
            self.original.stats.as_dict() == self.minimized.stats.as_dict()
            and snap_a["cost"] == snap_b["cost"]
        )

    def raise_on_divergence(self):
        if self.divergences:
            raise TeaError(
                "minimized TEA diverged from the original %d time(s); "
                "first: %r"
                % (len(self.divergences), self.divergences[0])
            )


def check_minimization(program, trace_set, original, minimized,
                       config=None, lossy=False,
                       max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Replay ``program`` once through original and minimized automata.

    Returns the :class:`MinimizationChecker` with its verdict; callers
    assert :attr:`~MinimizationChecker.is_equivalent` (every step
    agreed) and, for exact-mode minimization, :meth:`stats_match`.
    """
    checker = MinimizationChecker(trace_set, original, minimized,
                                  config=config, lossy=lossy)
    _drive(program, checker.on_transition, max_instructions)
    return checker


def validate_trace_file(path, program, config=None, dynamic=True):
    """Load a trace file and prove it consistent with ``program``.

    The static portion is the verifier's own rule families — trace
    structure (``TEA040``-``TEA043``) and CFG consistency
    (``TEA010``-``TEA012``) — run through
    :func:`repro.verify.verify_trace_set`, so this entry point reports
    exactly what ``repro tools verify`` would; the former ad-hoc
    per-edge checks live only there now.  A blocking finding raises
    :class:`~repro.errors.VerificationError` carrying the diagnostics.

    With ``dynamic=True`` (default) the lockstep cursor/automaton
    check then also runs, raising :class:`~repro.errors.TeaError` on
    divergence — the dynamic Property 1/2 complement to the static
    rules.  Malformed files propagate
    :class:`~repro.errors.SerializationError` as before.  Returns the
    (validated) trace set.
    """
    from repro.traces.serialization import load_trace_set
    from repro.verify import verify_trace_set

    trace_set = load_trace_set(path, BlockIndex(program))
    verify_trace_set(
        trace_set, program=program, source=str(path)
    ).raise_on_error()
    if dynamic:
        checker = check_equivalence(program, trace_set, config=config)
        checker.raise_on_divergence()
    return trace_set
