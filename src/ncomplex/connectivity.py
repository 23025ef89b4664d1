"""Vertex connectivity with a witness cut, and the components of a cut.

Connectivity runs on unit-capacity flows over the vertex-split digraph:
vertex v becomes an arc in(v) -> out(v) of capacity one, each graph edge
becomes a pair of opposite arcs between out- and in-nodes. Augmentation
breaks ties toward lower vertex indices, so results are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import connected_components, induced_subgraph, is_connected


@dataclass(frozen=True)
class CutReport:
    kappa: int
    witness_cut: frozenset | None


@dataclass(frozen=True)
class CutComponents:
    cut: frozenset
    components: tuple


def _inn(v):
    return 2 * v


def _out(v):
    return 2 * v + 1


def _flow_network(G, s, t):
    """Residual capacities and static adjacency for the split digraph.

    Edge arcs get capacity n+1 so that only the unit internal arcs can be
    saturated across a minimum cut; the one exception is an edge joining s
    and t directly, whose two unsplit endpoints leave the arc itself as the
    bottleneck.
    """
    cap = {}
    nbr = {}
    big = G.n + 1

    def arc(x, y, c):
        cap[(x, y)] = cap.get((x, y), 0) + c
        nbr.setdefault(x, set()).add(y)
        nbr.setdefault(y, set()).add(x)

    for v in range(G.n):
        if v != s and v != t:
            arc(_inn(v), _out(v), 1)
    for u, w in G.edges:
        c = 1 if {u, w} == {s, t} else big
        arc(_out(u), _inn(w), c)
        arc(_out(w), _inn(u), c)
    adjacency = {x: sorted(ys) for x, ys in nbr.items()}
    return cap, adjacency


def _augment(cap, adjacency, src, snk):
    """One BFS augmenting path; returns True if flow increased."""
    parent = {src: None}
    queue = [src]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        if x == snk:
            break
        for y in adjacency.get(x, ()):
            if y not in parent and cap.get((x, y), 0) > 0:
                parent[y] = x
                queue.append(y)
    if snk not in parent:
        return False
    y = snk
    while parent[y] is not None:
        x = parent[y]
        cap[(x, y)] -= 1
        cap[(y, x)] = cap.get((y, x), 0) + 1
        y = x
    return True


def _max_disjoint(G, s, t):
    """(flow value, residual cap, adjacency) for s-t vertex flow."""
    cap, adjacency = _flow_network(G, s, t)
    src, snk = _out(s), _inn(t)
    value = 0
    while _augment(cap, adjacency, src, snk):
        value += 1
    return value, cap, adjacency


def _min_cut_from_residual(G, s, t, cap, adjacency):
    """Vertices whose internal arc is saturated across the residual frontier."""
    src = _out(s)
    reach = {src}
    stack = [src]
    while stack:
        x = stack.pop()
        for y in adjacency.get(x, ()):
            if y not in reach and cap.get((x, y), 0) > 0:
                reach.add(y)
                stack.append(y)
    cut = set()
    for v in range(G.n):
        if v != s and v != t and _inn(v) in reach and _out(v) not in reach:
            cut.add(v)
    return frozenset(cut)


def vertex_connectivity(G):
    """Exact vertex connectivity with a witness cut for non-complete graphs.

    Complete graphs get kappa = n - 1 by convention. Otherwise kappa is the
    minimum s-t vertex flow; sources range over the closed neighborhood of a
    minimum-degree vertex, which must miss at least one minimum cut.
    """
    if G.n == 0:
        raise ValueError("connectivity needs at least one vertex")
    if G.is_complete():
        return CutReport(G.n - 1, None)
    if not is_connected(G):
        return CutReport(0, frozenset())
    adj = G.adjacency
    v0 = min(range(G.n), key=lambda v: (len(adj[v]), v))
    best = None
    witness = None
    for u in sorted({v0} | set(adj[v0])):
        for t in range(G.n):
            if t == u or t in adj[u]:
                continue
            if best is not None and best == 0:
                break
            value, cap, adjacency = _max_disjoint(G, u, t)
            if best is None or value < best:
                best = value
                witness = _min_cut_from_residual(G, u, t, cap, adjacency)
    return CutReport(best, witness)


def cut_components(G, cut):
    """Components of G - cut, each extended by the cut itself."""
    cut = frozenset(cut)
    for v in cut:
        G.neighbors(v)
    if len(cut) >= G.n:
        raise ValueError("cut must be a proper subset of the vertices")
    rest = [v for v in range(G.n) if v not in cut]
    sub = induced_subgraph(G, rest)
    back = {i: rest[i] for i in range(len(rest))}
    comps = []
    for comp in connected_components(sub):
        comps.append(frozenset(back[i] for i in comp) | cut)
    comps.sort(key=lambda c: min(c - cut) if c - cut else -1)
    return CutComponents(cut, tuple(comps))
