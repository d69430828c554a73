"""Dynamic control-flow graph — TEA's explicit counterpart.

Section 3: "The TEA is logically similar to the dynamic control flow
graph (DCFG) for the traces ... TEA, however, contains just the *state*
information, whereas the DCFG contains code replication.  TEA also
models the whole program execution with the aid of the NTE state, while
the DCFG only represents the hot code."

:class:`DynamicCFG` collects the executed blocks and edges from the
run's packed batches (via :class:`DcfgTool` under MiniPin), accounts
the bytes an explicit code-carrying representation would need, and
renders to Graphviz.  :func:`compare_with_tea` quantifies the paper's
"state information vs code replication" contrast on real executions.
"""

from repro.core.memory_model import MemoryModel
from repro.cpu.events import END_OF_RUN
from repro.pin.pintool import Pintool


class DcfgNode:
    """One executed basic block with its execution count."""

    __slots__ = ("block", "executions", "instrs_dbt")

    def __init__(self, block):
        self.block = block
        self.executions = 0
        self.instrs_dbt = 0

    def __repr__(self):
        return "<DcfgNode %#x x%d>" % (self.block.start, self.executions)


class DynamicCFG:
    """Executed blocks + executed edges, with counts."""

    def __init__(self):
        self.nodes = {}   # block start -> DcfgNode
        self.edges = {}   # (src start, dst start) -> count

    def add_block(self, block, next_start, instrs_dbt):
        start = block.start
        node = self.nodes.get(start)
        if node is None:
            node = DcfgNode(block)
            self.nodes[start] = node
        node.executions += 1
        node.instrs_dbt += instrs_dbt
        if next_start != END_OF_RUN:
            key = (start, next_start)
            self.edges[key] = self.edges.get(key, 0) + 1

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def code_bytes(self):
        """Original code bytes across all executed blocks."""
        return sum(node.block.size_bytes for node in self.nodes.values())

    def representation_bytes(self, model=None):
        """Bytes to materialise this DCFG *with code* (the paper's
        contrast object): replicated/translated block code plus an edge
        record per distinct edge."""
        model = model or MemoryModel()
        code = self.code_bytes * model.translation_expansion
        edges = self.n_edges * model.link_record_bytes
        descriptors = self.n_nodes * 8  # block descriptor (addr + meta)
        return code + edges + descriptors

    def hottest_nodes(self, limit=10):
        ranked = sorted(self.nodes.values(), key=lambda n: -n.executions)
        return ranked[:limit]

    def hot_subgraph(self, min_executions):
        """Node starts executed at least ``min_executions`` times — the
        'hot code' subset a trace DCFG would represent."""
        return {
            start for start, node in self.nodes.items()
            if node.executions >= min_executions
        }

    def to_dot(self, min_executions=0):
        lines = ["digraph dcfg {", "  node [shape=box, fontname=monospace];"]
        kept = self.hot_subgraph(min_executions)
        for start, node in sorted(self.nodes.items()):
            if start not in kept:
                continue
            lines.append(
                '  b%x [label="%#x..%#x\\nx%d"];'
                % (start, node.block.start, node.block.end, node.executions)
            )
        for (src, dst), count in sorted(self.edges.items()):
            if src in kept and dst in kept:
                lines.append('  b%x -> b%x [label="%d"];' % (src, dst, count))
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return "<DynamicCFG %d nodes, %d edges>" % (self.n_nodes, self.n_edges)


class DcfgTool(Pintool):
    """MiniPin tool that collects the whole-program DCFG."""

    def __init__(self):
        super().__init__()
        self.dcfg = DynamicCFG()

    def on_packed(self, batch):
        add = self.dcfg.add_block
        block_from = self.pin.block_index.block_from
        start = batch.start
        for next_start, instrs_dbt in zip(batch.pcs, batch.triples[1::3]):
            add(block_from(start), next_start, instrs_dbt)
            start = next_start


def compare_with_tea(dcfg, trace_set, model=None):
    """Quantify the Section 3 contrast for one execution.

    Returns a dict with the DCFG-with-code footprint, the TEA footprint
    for the recorded traces, and their ratio.
    """
    model = model or MemoryModel()
    dcfg_bytes = dcfg.representation_bytes(model)
    tea_bytes = model.tea_total_bytes(trace_set)
    return {
        "dcfg_bytes": dcfg_bytes,
        "tea_bytes": tea_bytes,
        "tea_over_dcfg": tea_bytes / dcfg_bytes if dcfg_bytes else 0.0,
        "dcfg_nodes": dcfg.n_nodes,
        "dcfg_edges": dcfg.n_edges,
        "tea_states": 1 + trace_set.n_tbbs,
    }
