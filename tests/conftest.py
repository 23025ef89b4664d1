"""Shared strategies and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: chromatic
numbers come from plain backtracking over color assignments, connectivity
and minimum cuts from exhaustive subset removal, Smith forms from gcds of
minors, faces of a neighborhood complex from common neighborhoods and
nerves. Tests pit the real implementations against these.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations
from math import gcd

from hypothesis import strategies as st

from ncomplex.complexes import SimplicialComplex
from ncomplex.graph import Graph, induced_subgraph, is_connected
from ncomplex.homology import ConnectivityBound


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph(n, edges)


@st.composite
def complexes(draw, max_n=7, max_facets=6):
    """Small complexes on vertices 0..n-1, from up to `max_facets` random
    faces of which the maximal ones are kept."""
    n = draw(st.integers(1, max_n))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                          min_size=1, max_size=max_facets))
    return SimplicialComplex.from_faces(faces)


def seeded_graphs(count, max_n, seed, min_n=2, density=0.5, connected=False):
    out = []
    for offset in range(count):
        for attempt in range(200):
            rng = random.Random((seed + offset) * 7919 + attempt)
            n = rng.randint(min_n, max_n)
            edges = [e for e in combinations(range(n), 2) if rng.random() < density]
            g = Graph(n, edges)
            if not connected or is_connected(g):
                out.append(g)
                break
        else:
            raise RuntimeError("no connected sample found")
    return out


def reversed_labels(G):
    """G with vertex v renamed n-1-v: greedy folding of it scans the
    original vertices from the largest down, a second fold order."""
    return Graph(G.n, [(G.n - 1 - u, G.n - 1 - v) for u, v in G.edges])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_force_chromatic(G):
    """Smallest k admitting a proper coloring, by raw backtracking."""
    if G.n == 0:
        raise ValueError("empty graph")
    adj = G.adjacency

    def colorable(k):
        colors = [-1] * G.n

        def rec(v):
            if v == G.n:
                return True
            for c in range(k):
                if all(colors[w] != c for w in adj[v] if w < v):
                    colors[v] = c
                    if rec(v + 1):
                        return True
                    colors[v] = -1
            return False

        return rec(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_force_kappa(G):
    """Vertex connectivity by removing every subset in size order."""
    if G.is_complete():
        return G.n - 1
    for size in range(G.n):
        for subset in combinations(range(G.n), size):
            rest = [v for v in range(G.n) if v not in subset]
            if len(rest) >= 2 and not is_connected(induced_subgraph(G, rest)):
                return size
    raise AssertionError("non-complete graph must have a cut")


def brute_force_min_cuts(G):
    """Every vertex cut of minimum size, by subset enumeration."""
    if G.is_complete():
        raise ValueError("complete graph has no vertex cut")
    k = brute_force_kappa(G)
    for subset in combinations(range(G.n), k):
        rest = [v for v in range(G.n) if v not in subset]
        if not is_connected(induced_subgraph(G, rest)):
            yield frozenset(subset)


def brute_force_min_separator(G, s, t):
    """Smallest vertex set (avoiding s, t) whose removal separates s from t."""
    if G.has_edge(s, t):
        raise ValueError("separator undefined for adjacent endpoints")
    others = [v for v in range(G.n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for subset in combinations(others, size):
            keep = [v for v in range(G.n) if v not in subset]
            sub = induced_subgraph(G, keep)
            si, ti = keep.index(s), keep.index(t)
            # reachability check
            seen = {si}
            stack = [si]
            while stack:
                x = stack.pop()
                for y in sub.adjacency[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if ti not in seen:
                return size
    raise AssertionError("no separator found")


def naive_chordal(G):
    """Chordality by repeated deletion of simplicial vertices."""
    adj = {v: set(G.adjacency[v]) for v in range(G.n)}
    alive = set(range(G.n))
    while alive:
        pick = None
        for v in sorted(alive):
            nv = adj[v] & alive
            if all(b in adj[a] for a, b in combinations(sorted(nv), 2)):
                pick = v
                break
        if pick is None:
            return False
        alive.discard(pick)
    return True


def brute_force_maximal_cliques(G):
    """Maximal cliques by scanning every vertex subset (small graphs only)."""
    adj = G.adjacency
    cliques = []
    for size in range(1, G.n + 1):
        for subset in combinations(range(G.n), size):
            if all(b in adj[a] for a, b in combinations(subset, 2)):
                cliques.append(frozenset(subset))
    return sorted((c for c in cliques
                   if not any(c < d for d in cliques)),
                  key=lambda c: tuple(sorted(c)))


def minors_gcd_smith(matrix):
    """Invariant factors via gcds of k-by-k minors; exponential, small only."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def det(rs, cs):
        if len(rs) == 1:
            return matrix[rs[0]][cs[0]]
        total = 0
        for i, c in enumerate(cs):
            minor = det(rs[1:], cs[:i] + cs[i + 1:])
            total += (-1) ** i * matrix[rs[0]][c] * minor
        return total

    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, det(list(rs), list(cs)))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def brute_force_isomorphic(G, H):
    """Is some vertex permutation an isomorphism? By permutation scan (tiny graphs)."""
    if G.n != H.n or len(G.edges) != len(H.edges):
        return False
    return any(all(H.has_edge(perm[u], perm[v]) for u, v in G.edges)
               for perm in permutations(range(G.n)))


def common_neighborhood(G, vertices):
    """Vertices adjacent to every member of `vertices`; all of V for the empty set."""
    result = set(range(G.n))
    for v in vertices:
        result &= G.adjacency[v]
    return frozenset(result)


def has_face(X, face):
    """Is `face` inside some facet of X? Never for the void complex."""
    return any(frozenset(face) <= f for f in X.facets)


def nerve(family):
    """Nerve of an indexed family of sets: index sets whose members share a
    point. Each point contributes the indices of the members holding it, and
    the maximal such sets are the facets."""
    family = [frozenset(s) for s in family]
    points = set().union(*family)
    duals = [frozenset(i for i, s in enumerate(family) if w in s) for w in points]
    if not duals:
        return SimplicialComplex([frozenset()])
    return SimplicialComplex.from_faces(duals)


def homological_connectivity(report):
    """Connectivity read off a full homology report of a non-void complex:
    one less than the first degree with nonzero reduced homology, -2 for the
    empty complex (its reduced homology sits in degree -1), and "at least
    max_dim" when every group vanishes."""
    if report.face_counts[0] == 0:
        return ConnectivityBound(-2, True)
    for g in report.groups:
        if not g.is_zero:
            return ConnectivityBound(g.dim - 1, True)
    return ConnectivityBound(report.max_dim, False)
