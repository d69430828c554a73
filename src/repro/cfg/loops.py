"""Natural-loop detection over the static CFG.

The static view of the loops a trace recorder meets at run time (TT and
CTT find their headers dynamically, from backward edges).  Headers are
found the classical way: compute dominators from the CFG entry, then
every edge ``u -> v`` where ``v`` dominates ``u`` is a back edge and ``v``
a loop header.  Immediate dominators come from the iterative algorithm of
Cooper, Harvey and Kennedy ("A Simple, Fast Dominance Algorithm", 2001)
over the reverse postorder of the blocks reachable from the entry.  The
loop body is collected by the usual reverse reachability walk from the
back-edge sources.
"""


class LoopInfo:
    """Loop structure of one CFG.

    Attributes
    ----------
    headers:
        Set of loop-header block start addresses.
    bodies:
        Mapping header -> set of block starts forming the natural loop
        (header included).
    back_edges:
        List of ``(tail, header)`` block-start pairs.
    """

    def __init__(self, headers, bodies, back_edges):
        self.headers = headers
        self.bodies = bodies
        self.back_edges = back_edges

    def loop_depth(self, start):
        """Number of natural loops containing ``start`` (0 = not in a loop)."""
        return sum(1 for body in self.bodies.values() if start in body)

    def __repr__(self):
        return "<LoopInfo %d headers>" % len(self.headers)


def find_loops(cfg):
    """Return :class:`LoopInfo` for a :class:`~repro.cfg.cfg.ControlFlowGraph`."""
    succ = cfg.succ
    entry = cfg.entry
    if entry not in succ:
        return LoopInfo(set(), {}, [])
    order = _reverse_postorder(succ, entry)
    rank = {node: i for i, node in enumerate(order)}
    # Reachable predecessors only: a body walk never enters code the
    # entry cannot reach.
    preds = {node: [] for node in order}
    for src in order:
        for dst in succ[src]:
            preds[dst].append(src)
    idom = _immediate_dominators(order, rank, preds)

    def dominates(a, b):
        """True when block ``a`` dominates block ``b``."""
        node = b
        while node != a:
            parent = idom[node]
            if parent == node:
                return False
            node = parent
        return True

    back_edges = [(u, v) for u in succ if u in rank
                  for v in succ[u] if dominates(v, u)]

    headers = set()
    bodies = {}
    for tail, header in back_edges:
        headers.add(header)
        body = bodies.setdefault(header, {header})
        stack = [tail]
        while stack:
            node = stack.pop()
            if node in body:
                continue
            body.add(node)
            stack.extend(preds[node])
    return LoopInfo(headers, bodies, back_edges)


def _reverse_postorder(succ, entry):
    """Blocks reachable from ``entry``, in reverse DFS postorder."""
    seen = {entry}
    postorder = []
    stack = [(entry, iter(succ[entry]))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(succ[child])))
                break
        else:
            stack.pop()
            postorder.append(node)
    postorder.reverse()
    return postorder


def _immediate_dominators(order, rank, preds):
    """Cooper-Harvey-Kennedy: ``{block: idom}`` with the entry its own."""
    entry = order[0]
    idom = {entry: entry}

    def intersect(a, b):
        while a != b:
            while rank[a] > rank[b]:
                a = idom[a]
            while rank[b] > rank[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            new = None
            for pred in preds[node]:
                if pred in idom:
                    new = pred if new is None else intersect(pred, new)
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    return idom
