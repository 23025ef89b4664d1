"""Chordality, elimination orders, clique structure, weak triangulation.

Recognition runs lexicographic BFS and validates the resulting elimination
order directly, so a True answer carries its own certificate. A False answer
comes with an induced cycle of length at least four.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapExceededError
from .graph import is_connected

from . import connectivity as _connectivity


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    elimination_order: tuple | None
    hole: tuple | None

    def __bool__(self):
        return self.chordal


@dataclass(frozen=True)
class CliqueDecomposition:
    cliques: tuple
    intersection_sizes: tuple


@dataclass(frozen=True)
class WeakTriangulationResult:
    holds: bool
    witness_kind: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.holds


def lex_bfs_order(G):
    """Lexicographic BFS visit order, lowest index first on ties."""
    partitions = [list(range(G.n))]
    adj = G.adjacency
    order = []
    while partitions:
        cls = partitions[0]
        v = min(cls)
        cls.remove(v)
        if not cls:
            partitions.pop(0)
        order.append(v)
        refined = []
        for block in partitions:
            inside = [u for u in block if u in adj[v]]
            outside = [u for u in block if u not in adj[v]]
            if inside:
                refined.append(inside)
            if outside:
                refined.append(outside)
        partitions = refined
    return tuple(order)


def _is_elimination_order(G, order):
    """Check the perfect-elimination property: later neighbors form a clique.

    It suffices to verify that all later neighbors of v, beyond the first,
    are adjacent to that first one.
    """
    pos = {v: i for i, v in enumerate(order)}
    adj = G.adjacency
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        first = min(later, key=pos.__getitem__)
        for u in later:
            if u != first and u not in adj[first]:
                return False
    return True


def _find_hole(G):
    """An induced cycle of length >= 4, for non-chordal G.

    For some midpoint v with non-adjacent neighbors u, w, any shortest u-w
    path avoiding the rest of N[v] closes up with v into a chordless cycle.
    """
    adj = G.adjacency
    for v in range(G.n):
        nv = sorted(adj[v])
        for u, w in combinations(nv, 2):
            if w in adj[u]:
                continue
            allowed = (set(range(G.n)) - adj[v] - {v}) | {u, w}
            parent = {u: None}
            queue = [u]
            head = 0
            while head < len(queue):
                x = queue[head]
                head += 1
                if x == w:
                    break
                for y in sorted(adj[x]):
                    if y in allowed and y not in parent:
                        parent[y] = x
                        queue.append(y)
            if w in parent:
                path = []
                x = w
                while x is not None:
                    path.append(x)
                    x = parent[x]
                return tuple([v] + path[::-1])
    return None


def is_chordal(G):
    """Chordality with a certificate either way.

    True answers carry a perfect elimination order; False answers carry an
    induced cycle of length at least four.
    """
    order = tuple(reversed(lex_bfs_order(G)))
    if _is_elimination_order(G, order):
        return ChordalityResult(True, order, None)
    hole = _find_hole(G)
    return ChordalityResult(False, None, hole)


def simplicial_vertices(G):
    """Vertices whose neighborhood induces a clique, ascending."""
    adj = G.adjacency
    out = []
    for v in range(G.n):
        nv = adj[v]
        if all(b in adj[a] for a, b in combinations(sorted(nv), 2)):
            out.append(v)
    return out


def maximal_cliques(G):
    """All maximal cliques via Bron-Kerbosch with pivoting, sorted."""
    adj = G.adjacency
    found = []

    def expand(r, p, x):
        if not p and not x:
            found.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: (len(adj[u] & p), -u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(frozenset(), frozenset(range(G.n)), frozenset())
    return sorted(found, key=lambda c: tuple(sorted(c)))


def clique_number(G):
    """Size of a largest clique; 0 for the graph with no vertices."""
    return max((len(c) for c in maximal_cliques(G)), default=0)


def clique_decomposition(G, start):
    """Arrange the maximal cliques so each meets the union of its
    predecessors in a clique.

    Builds a maximum-weight spanning tree of the clique-intersection graph
    (a clique tree) and emits cliques in the order the tree grows from
    `start`; the running-intersection property makes every prefix
    intersection equal the intersection with the parent clique.
    """
    res = is_chordal(G)
    if not res.chordal:
        raise ValueError(f"graph is not chordal; induced cycle {res.hole}")
    if not is_connected(G):
        raise ValueError("clique decomposition needs a connected graph")
    cliques = maximal_cliques(G)
    start = frozenset(start)
    if start not in cliques:
        raise ValueError("start is not a maximal clique")
    k = len(cliques)
    start_idx = cliques.index(start)
    in_tree = {start_idx}
    sequence = [cliques[start_idx]]
    sizes = []
    union = set(cliques[start_idx])
    while len(in_tree) < k:
        best = None
        for j in range(k):
            if j in in_tree:
                continue
            w = max(len(cliques[i] & cliques[j]) for i in in_tree)
            if best is None or w > best[0] or (w == best[0] and j < best[1]):
                best = (w, j)
        _, j = best
        in_tree.add(j)
        inter = cliques[j] & union
        sizes.append(len(inter))
        sequence.append(cliques[j])
        union |= cliques[j]
    return CliqueDecomposition(tuple(sequence), tuple(sizes))


def _induces_cycle(adj, subset):
    sub = sorted(subset)
    if len(sub) < 3:
        return False
    inside = set(sub)
    for v in sub:
        if len(adj[v] & inside) != 2:
            return False
    # 2-regular: a cycle iff connected
    seen = {sub[0]}
    stack = [sub[0]]
    while stack:
        x = stack.pop()
        for y in adj[x] & inside:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(sub)


def is_weakly_triangulated(G, max_vertices=16):
    """No induced cycle of length >= 5 and no induced complement of one.

    Exhaustive over vertex subsets, so the witness doubles as the
    certificate; refuses graphs above `max_vertices`.
    """
    if G.n > max_vertices:
        raise CapExceededError(
            f"weak-triangulation search capped at {max_vertices} vertices (got {G.n})")
    adj = G.adjacency
    co_adj = tuple(frozenset(range(G.n)) - adj[v] - {v} for v in range(G.n))
    for size in range(5, G.n + 1):
        for subset in combinations(range(G.n), size):
            if _induces_cycle(adj, subset):
                return WeakTriangulationResult(False, "cycle", subset)
            if _induces_cycle(co_adj, subset):
                return WeakTriangulationResult(False, "complement-of-cycle", subset)
    return WeakTriangulationResult(True)


def cut_apex_property(G, cut):
    """True when every component of G - cut has a vertex adjacent to all of cut."""
    cut = frozenset(cut)
    parts = _connectivity.cut_components(G, cut)
    if len(parts.components) < 2:
        raise ValueError("given set is not a vertex cut")
    adj = G.adjacency
    for comp in parts.components:
        if not any(cut <= adj[v] for v in comp - cut):
            return False
    return True
