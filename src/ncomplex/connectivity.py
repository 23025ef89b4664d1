"""Vertex connectivity with a witness cut, and the components of a cut.

Connectivity follows the flow scheme of Even (1975) and Esfahanian & Hakimi
(1984): for a minimum-degree vertex v0, kappa is the least s-t vertex flow
over the pairs (v0, t) with t outside N[v0] and the non-adjacent pairs
inside N(v0), about n + delta^2 flows. A minimum cut that misses v0
separates it from some such t; one that holds v0 separates two of its
neighbours. The flows run on the vertex-split digraph, where vertex v
becomes an arc in(v) -> out(v) of capacity one and each edge a pair of arcs
out -> in of capacity n + 1. An edge arc never carries more than one unit,
so the residual network is read off G's own adjacency and one predecessor
per vertex: `into[w] = u` while a path runs u -> w, for w other than t.
Every common neighbour w of s and t carries its own path s -> w -> t before
any search, since some maximum flow uses all of them; augmentation then
breaks ties toward lower vertex indices and stops at a given limit. The
witness comes from the first pair (u, t), u in N[v0] and t not adjacent to
u, both ascending, whose flow stopped at kappa + 1 equals kappa, which is
then a maximum flow: its cut, the vertices whose in-node but not out-node
the search that ends the flow reaches from s, is the same for every maximum
flow, so the witness does not depend on the paths chosen.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import connected_components, is_connected


@dataclass(frozen=True)
class CutReport:
    kappa: int
    witness_cut: frozenset | None


def _max_flow(G, closed, s, t, limit):
    """(value, cut) of a flow from s to t, which must not be adjacent,
    stopped at `limit`; `closed[v]` is v's sorted closed neighbourhood.
    Nodes are in(v) = 2v and out(v) = 2v + 1. Residual arcs: out(v) ->
    in(w) for every w in N(v), out(v) -> in(v) while v carries a path, and
    from in(v) the one arc to out(into[v]), or to out(v) if v is free. Each
    augmenting path comes from a BFS out of out(s) with ties toward lower
    nodes. A search that misses in(t) has reached exactly the source side
    of a minimum cut, so the flow ends there and `cut` holds the vertices
    whose in-node but not out-node it reached. A flow stopped at `limit`
    has cut None, also when the common neighbours alone reach `limit`."""
    common = G.adjacency[s] & G.adjacency[t]
    if len(common) >= limit:
        return limit, None
    into = dict.fromkeys(common, s)
    src, snk = 2 * s + 1, 2 * t
    value = len(common)
    while value < limit:
        parent = {src: None}
        queue = [src]
        for x in queue:
            if x == snk:
                break
            v = x >> 1
            if x & 1:
                for w in closed[v]:
                    y = 2 * w
                    if y not in parent and (w != v or v in into):
                        parent[y] = x
                        queue.append(y)
            else:
                y = 2 * into[v] + 1 if v in into else x + 1
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        if snk not in parent:
            cut = frozenset(x // 2 for x in parent if x % 2 == 0 and x + 1 not in parent)
            return value, cut
        # walking back, an edge arc u -> w gives w the predecessor u and a
        # reverse arc out of in(w) takes it away; internal arcs need nothing
        y = snk
        while y != src:
            x = parent[y]
            if x >> 1 != y >> 1:
                if x & 1:
                    if y != snk:
                        into[y >> 1] = x >> 1
                else:
                    del into[x >> 1]
            y = x
        value += 1
    return value, None


def vertex_connectivity(G):
    """Exact vertex connectivity with a witness cut for non-complete graphs.

    Complete graphs get kappa = n - 1 by convention. Otherwise kappa comes
    from the Esfahanian-Hakimi pairs, each flow stopped at the best value so
    far, and the witness from the first pair (u, t), u in the closed
    neighbourhood of the minimum-degree vertex v0 and t not adjacent to u,
    both ascending, whose flow stopped at kappa + 1 equals kappa.
    """
    if G.n == 0:
        raise ValueError("connectivity needs at least one vertex")
    if G.is_complete():
        return CutReport(G.n - 1, None)
    if not is_connected(G):
        return CutReport(0, frozenset())
    adj = G.adjacency
    v0 = min(range(G.n), key=lambda v: (len(adj[v]), v))
    closed = [sorted(a | {v}) for v, a in enumerate(adj)]
    pairs = [(v0, t) for t in range(G.n) if t != v0 and t not in adj[v0]]
    pairs += [(x, y) for x in adj[v0] for y in adj[v0] if x < y and y not in adj[x]]
    kappa = len(adj[v0])
    for s, t in pairs:
        kappa = _max_flow(G, closed, s, t, kappa)[0]
    # next() without a default raises rather than return a witness of None
    return CutReport(kappa, next(
        cut for u in closed[v0] for t in range(G.n) if t != u and t not in adj[u]
        for value, cut in [_max_flow(G, closed, u, t, kappa + 1)] if value == kappa))


def cut_components(G, cut):
    """The tuple of components of G - cut, each extended by the cut itself."""
    cut = frozenset(cut)
    for v in cut:
        G.neighbors(v)
    if len(cut) >= G.n:
        raise ValueError("cut must be a proper subset of the vertices")
    return tuple(c | cut for c in connected_components(G, cut))
