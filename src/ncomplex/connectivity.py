"""Vertex connectivity with a witness cut, and the components of a cut.

Connectivity follows the flow scheme of Even (1975) and Esfahanian & Hakimi
(1984): kappa is the least s-t vertex flow over sources s in the closed
neighbourhood of a minimum-degree vertex and sinks t not adjacent to s. The
flows run on one vertex-split digraph per graph, built once: vertex v
becomes an arc in(v) -> out(v) of capacity one, each edge a pair of arcs
out -> in of capacity n + 1, and each pair copies its capacities. Every
common neighbour w of s and t carries its own path s -> w -> t before any
search, since some maximum flow uses all of them; augmentation then breaks
ties toward lower vertex indices and stops once the flow reaches the best
value so far. Only a strictly smaller flow, which is then a maximum flow,
gives a new witness: its cut, the vertices whose in-node but not out-node
the search that ends the flow reaches from s, is the same for every maximum
flow, so the witness does not depend on the paths chosen.
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


def _split_network(G):
    """Capacities of the split digraph, with every reverse arc at zero, and
    the sorted residual neighbours of each node; in(v) = 2v, out(v) = 2v + 1."""
    big = G.n + 1
    cap = {}
    adjacency = []
    for v in range(G.n):
        cap[(2 * v, 2 * v + 1)] = 1
        cap[(2 * v + 1, 2 * v)] = 0
        for w in G.adjacency[v]:
            cap[(2 * v + 1, 2 * w)] = big
            cap[(2 * w, 2 * v + 1)] = 0
        closed = sorted(G.adjacency[v] | {v})
        adjacency.append([2 * w + 1 for w in closed])
        adjacency.append([2 * w for w in closed])
    return cap, adjacency


def _max_flow(G, network, s, t, limit):
    """(value, cut) of a flow from s to t, which must not be adjacent,
    stopped at `limit`. Each augmenting path comes from a BFS out of out(s)
    with ties toward lower nodes. A search that misses in(t) has reached
    exactly the source side of a minimum cut, so the flow ends there and
    `cut` holds the vertices whose in-node but not out-node it reached. A
    flow stopped at `limit` has cut None; when the common neighbours alone
    reach `limit`, no capacities are copied."""
    common = G.adjacency[s] & G.adjacency[t]
    if len(common) >= limit:
        return limit, None
    cap = dict(network[0])
    src, snk = 2 * s + 1, 2 * t
    for w in common:
        for arc in ((src, 2 * w), (2 * w, 2 * w + 1), (2 * w + 1, snk)):
            cap[arc] -= 1
            cap[arc[::-1]] += 1
    value = len(common)
    while value < limit:
        parent = {src: None}
        queue = [src]
        for x in queue:
            if x == snk:
                break
            for y in network[1][x]:
                if y not in parent and cap[(x, y)] > 0:
                    parent[y] = x
                    queue.append(y)
        if snk not in parent:
            cut = frozenset(x // 2 for x in parent if x % 2 == 0 and x + 1 not in parent)
            return value, cut
        y = snk
        while parent[y] is not None:
            x = parent[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x
        value += 1
    return value, None


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
    network = _split_network(G)
    best = G.n
    witness = None
    for u in sorted(adj[v0] | {v0}):
        for t in range(G.n):
            if t == u or t in adj[u]:
                continue
            value, cut = _max_flow(G, network, u, t, best)
            if value < best:
                best, witness = value, cut
    return CutReport(best, witness)


def cut_components(G, cut):
    """Components of G - cut, each extended by the cut itself."""
    cut = frozenset(cut)
    for v in cut:
        G.neighbors(v)
    if len(cut) >= G.n:
        raise ValueError("cut must be a proper subset of the vertices")
    rest = [v for v in range(G.n) if v not in cut]
    # rest ascends, so the components come by smallest member, as in G - cut
    comps = connected_components(induced_subgraph(G, rest))
    return CutComponents(cut, tuple(frozenset(rest[i] for i in c) | cut for c in comps))
