"""Chordality, clique structure, weak triangulation.

One hole search decides both chordality (no chordless cycle of four or more
vertices) and weak triangulation (none of five or more, in G or in its
complement; Hayward 1985). It joins the ends of each induced path on three
or four vertices by a shortest path that avoids the closed neighborhoods of
the path's interior, so it takes polynomial time and needs no vertex cap.
The search is complete, so a graph is chordal exactly when it finds no
hole, and a False answer carries the hole it found. Chordal graphs are
weakly triangulated: a long hole is a hole, the complement of C5 is C5, and
that of Ck, k >= 6, has the induced C4 0-3-1-4.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import connectivity as _connectivity
from .graph import complement


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    hole: tuple | None


@dataclass(frozen=True)
class WeakTriangulationResult:
    holds: bool
    witness_kind: str | None = None
    witness: tuple | None = None


def _find_hole(G, length):
    """A chordless cycle of at least `length` (4 or 5) vertices, or None.

    Every such cycle contains an induced path a-...-d on `length` - 1
    vertices: a vertex v between a and d for length 4, an edge b-c for
    length 5. A shortest a-d path whose inner vertices avoid the closed
    neighborhoods of that interior closes a chordless cycle with it.
    """
    adj = G.adjacency
    if length == 4:
        interiors = [(v,) for v in range(G.n)]
    else:
        interiors = [(b, c) for b in range(G.n) for c in sorted(adj[b])]
    for inner in interiors:
        blocked = set(inner).union(*(adj[x] for x in inner))
        starts = adj[inner[0]].difference(*(adj[x] | {x} for x in inner[1:]))
        ends = adj[inner[-1]].difference(*(adj[x] | {x} for x in inner[:-1]))
        for a in sorted(starts):
            for d in sorted(ends):
                if d <= a or d in adj[a]:
                    continue
                parent = {a: None}
                queue = [a]
                for x in queue:
                    if x == d:
                        break
                    for y in sorted(adj[x]):
                        if (y == d or y not in blocked) and y not in parent:
                            parent[y] = x
                            queue.append(y)
                if d in parent:
                    path = []
                    x = d
                    while x is not None:
                        path.append(x)
                        x = parent[x]
                    return inner[::-1] + tuple(path[::-1])
    return None


def is_chordal(G):
    """Chordality; a False answer carries an induced cycle of length at
    least four, the first hole the search finds."""
    hole = _find_hole(G, 4)
    return ChordalityResult(hole is None, hole)


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


def is_weakly_triangulated(G):
    """No induced cycle of length >= 5 and no induced complement of one.

    A False answer carries the offending cycle in order, of G or of the
    complement of G, which is built only when G has no such cycle.
    """
    for kind, graph in (("cycle", lambda: G), ("complement-of-cycle", lambda: complement(G))):
        hole = _find_hole(graph(), 5)
        if hole is not None:
            return WeakTriangulationResult(False, kind, hole)
    return WeakTriangulationResult(True)


def cut_apex_property(G, cut):
    """True when every component of G - cut has a vertex adjacent to all of cut."""
    cut = frozenset(cut)
    parts = _connectivity.cut_components(G, cut)
    if len(parts) < 2:
        raise ValueError("given set is not a vertex cut")
    adj = G.adjacency
    return all(any(cut <= adj[v] for v in comp - cut) for comp in parts)
