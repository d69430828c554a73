"""Instruction-granularity TEA.

The paper defines TEA over "instructions or basic blocks"; Figure 1's
trace is written at instruction granularity ((1)-(6)), and the Section 2
profiling discussion is per-instruction.  This module provides that
finer automaton:

- one state per *trace instruction* (a TBB expands into a chain of
  instruction states, linked by fall-through-labelled transitions);
- the TBB's outgoing labelled transitions move from its last
  instruction's state;
- NTE and the head directory work exactly as at block granularity.

The replayer consumes the same block-transition stream the engines
already produce and expands each block into its statically known
instruction PC sequence, so no new instrumentation is needed — at the
cost of one automaton step per instruction (which is also the honest
cost a real instruction-level TEA pays, and why the paper's
implementation works on basic blocks; see ``bench_ablation_granularity``).
"""

from repro.core.automaton import TeaState
from repro.core.directory import DIRECTORY_COST_PARAM, make_directory
from repro.core.replay import ReplayConfig, ReplayStats
from repro.dbt.cost import CostModel
from repro.errors import TeaError


class InstructionPoint:
    """Identity of one instruction inside a TBB (plays the tbb role for
    :class:`~repro.core.automaton.TeaState`)."""

    __slots__ = ("trace_id", "tbb_index", "offset", "addr", "index")

    def __init__(self, trace_id, tbb_index, offset, addr):
        self.trace_id = trace_id
        self.tbb_index = tbb_index
        self.offset = offset
        self.addr = addr
        # ``index`` keeps TeaState.name-compatible semantics unique.
        self.index = (tbb_index, offset)

    @property
    def name(self):
        return "$$T%d.%#x[%d.%d]" % (
            self.trace_id, self.addr, self.tbb_index, self.offset
        )

    def __repr__(self):
        return "<InstructionPoint %s>" % self.name


class InstructionTEA:
    """The instruction-granularity automaton."""

    def __init__(self):
        self.nte = TeaState(0)
        self.states = [self.nte]
        self.heads = {}
        self._by_point = {}

    def _add_state(self, point):
        state = TeaState(len(self.states), point)
        self.states.append(state)
        self._by_point[(point.trace_id, point.tbb_index, point.offset)] = state
        return state

    def state_at(self, trace_id, tbb_index, offset):
        try:
            return self._by_point[(trace_id, tbb_index, offset)]
        except KeyError:
            raise TeaError(
                "no instruction state (T%d, #%d, +%d)"
                % (trace_id, tbb_index, offset)
            ) from None

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_transitions(self):
        return sum(len(state.transitions) for state in self.states)

    @property
    def n_traces(self):
        return len(self.heads)


def _block_instruction_addrs(program, block):
    addrs = []
    addr = block.start
    while True:
        instruction = program.instruction_at(addr)
        addrs.append(addr)
        if addr == block.end:
            return addrs
        addr = instruction.fallthrough


def build_instruction_tea(trace_set, program):
    """Algorithm 1 at instruction granularity."""
    tea = InstructionTEA()
    chains = {}  # (trace_id, tbb_index) -> [states]
    for trace in trace_set:
        for tbb in trace:
            addrs = _block_instruction_addrs(program, tbb.block)
            chain = []
            for offset, addr in enumerate(addrs):
                point = InstructionPoint(trace.trace_id, tbb.index, offset, addr)
                chain.append(tea._add_state(point))
            chains[(trace.trace_id, tbb.index)] = chain
            # Fall-through transitions within the block: the label is
            # the next instruction's PC.
            for state, successor, addr in zip(chain, chain[1:], addrs[1:]):
                state.transitions[addr] = successor
    for trace in trace_set:
        for tbb in trace:
            last = chains[(trace.trace_id, tbb.index)][-1]
            for label, successor_index in tbb.successors.items():
                target = chains[(trace.trace_id, successor_index)][0]
                existing = last.transitions.get(label)
                if existing is not None and existing is not target:
                    raise TeaError(
                        "nondeterministic instruction transition at %#x"
                        % label
                    )
                last.transitions[label] = target
        head = chains[(trace.trace_id, 0)][0]
        tea.heads[trace.entry] = head
    return tea


class InstructionTeaReplayer:
    """Replays block transitions by expanding them to instruction PCs."""

    def __init__(self, tea, program, config=None, cost=None, profile=None):
        self.tea = tea
        self.program = program
        self.config = config or ReplayConfig.global_local()
        self.cost = cost if cost is not None else CostModel()
        self.profile = profile
        self.stats = ReplayStats()
        self.state = tea.nte
        self.directory = make_directory(
            self.config.global_index, order=self.config.bptree_order
        )
        for entry, head in tea.heads.items():
            self.directory.insert(entry, head)
        self._addr_cache = {}

    def _addrs_for(self, block):
        found = self._addr_cache.get(block.key)
        if found is None:
            found = _block_instruction_addrs(self.program, block)
            self._addr_cache[block.key] = found
        return found

    def step_block(self, transition):
        """Expand one block transition into instruction-level steps."""
        stats = self.stats
        stats.blocks += 1
        stats.total_dbt += transition.instrs_dbt
        stats.total_pin += transition.instrs_pin
        block = transition.block
        addrs = self._addrs_for(block)

        # Coverage is per instruction now: the automaton may enter/leave
        # a trace mid-block (it cannot at block granularity, but the
        # accounting stays uniform and conservative here).
        covered = 0
        state = self.state
        # Step over the instructions *after* the first: the first
        # instruction's state is where the previous step left us.
        if state.tbb is not None:
            covered += 1
        for addr in addrs[1:]:
            state = self._step_label(state, addr)
            if state.tbb is not None:
                covered += 1
        if transition.next_start is not None:
            state = self._step_label(state, transition.next_start)
        self.state = state
        stats.covered_dbt += covered
        # REP expansion executes inside one instruction: attribute the
        # Pin-count surplus to that instruction's coverage state.
        surplus = transition.instrs_pin - transition.instrs_dbt
        stats.covered_pin += covered + (
            surplus if state.tbb is not None else 0
        )
        if self.profile is not None:
            self.profile.record_block(state, transition.instrs_dbt)
        return state

    def _step_label(self, state, label):
        params = self.cost.params
        explicit = state.transitions.get(label)
        if explicit is not None:
            self.cost.charge("callback", params.CALLBACK_FAST)
            self.cost.charge("transition", params.IN_TRACE_TRANSITION)
            self.stats.in_trace_hits += 1
            return explicit
        self.cost.charge("callback", params.CALLBACK_SLOW)
        if state.tbb is not None:
            self.stats.trace_exits += 1
        else:
            self.stats.nte_probes += 1
        found, units = self.directory.lookup(label)
        per_unit = getattr(params, DIRECTORY_COST_PARAM[self.directory.kind])
        self.cost.charge("directory", units * per_unit)
        if found is None:
            self.stats.directory_misses += 1
            return self.tea.nte
        self.stats.directory_hits += 1
        self.stats.trace_enters += 1
        self.cost.charge("enter", params.ENTER_TRACE)
        return found


def instruction_tea_bytes(tea, model):
    """Memory-model accounting for an instruction-granularity TEA."""
    return (
        model.nte_bytes
        + (tea.n_states - 1) * model.state_bytes
        + tea.n_transitions * model.transition_bytes
        + tea.n_traces
        * (model.tea_trace_descriptor_bytes + model.directory_entry_bytes)
    )
