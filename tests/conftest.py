"""Shared strategies and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: chromatic
numbers come from plain backtracking over color assignments, connectivity
and minimum cuts from exhaustive subset removal, Smith forms from gcds of
minors, faces of a neighborhood complex from common neighborhoods and
nerves, whether a graph folds onto a clique from every fold sequence, and
extension-chain certificates from rebuilt subgraphs and every neighbor
subset.
Vertex connectivity also has a reference flow routine that builds a fresh
network for every pair and runs every flow to completion. Tests pit the
real implementations against these.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations
from math import gcd

from hypothesis import strategies as st

from ncomplex.complexes import SimplicialComplex
from ncomplex.connectivity import CutReport
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


def reference_flow(G, s, t):
    """(value, residual capacities, adjacency) of a maximum s-t vertex flow
    on a fresh split digraph: in(v) = 2v -> out(v) = 2v + 1 of capacity one
    for v other than s and t, edge arcs of capacity n + 1, except an edge
    joining s and t directly, which keeps capacity one and so counts as one
    path. Augmentation is BFS with ties toward lower node indices."""
    cap = {}
    nbr = {}
    big = G.n + 1

    def arc(x, y, c):
        cap[(x, y)] = cap.get((x, y), 0) + c
        nbr.setdefault(x, set()).add(y)
        nbr.setdefault(y, set()).add(x)

    for v in range(G.n):
        if v != s and v != t:
            arc(2 * v, 2 * v + 1, 1)
    for u, w in G.edges:
        c = 1 if {u, w} == {s, t} else big
        arc(2 * u + 1, 2 * w, c)
        arc(2 * w + 1, 2 * u, c)
    adjacency = {x: sorted(ys) for x, ys in nbr.items()}
    src, snk = 2 * s + 1, 2 * t
    value = 0
    while True:
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
            return value, cap, adjacency
        y = snk
        while parent[y] is not None:
            x = parent[y]
            cap[(x, y)] -= 1
            cap[(y, x)] = cap.get((y, x), 0) + 1
            y = x
        value += 1


def reference_vertex_connectivity(G):
    """CutReport from one reference_flow per pair (u, t), u in the closed
    neighbourhood of the first minimum-degree vertex and t not adjacent to
    u, both ascending; the first least flow gives the witness, read off its
    residual network."""
    if G.is_complete():
        return CutReport(G.n - 1, None)
    if not is_connected(G):
        return CutReport(0, frozenset())
    adj = G.adjacency
    v0 = min(range(G.n), key=lambda v: (len(adj[v]), v))
    best = witness = None
    for u in sorted({v0} | set(adj[v0])):
        for t in range(G.n):
            if t == u or t in adj[u]:
                continue
            value, cap, adjacency = reference_flow(G, u, t)
            if best is None or value < best:
                best = value
                reach = {2 * u + 1}
                stack = [2 * u + 1]
                while stack:
                    x = stack.pop()
                    for y in adjacency.get(x, ()):
                        if y not in reach and cap.get((x, y), 0) > 0:
                            reach.add(y)
                            stack.append(y)
                witness = frozenset(v for v in range(G.n) if v not in (u, t)
                                    and 2 * v in reach and 2 * v + 1 not in reach)
    return CutReport(best, witness)


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


def brute_force_weakly_triangulated(G):
    """No induced cycle of five or more vertices in G or in its complement,
    by scanning every vertex subset of size five or more (small graphs only)."""
    adj = G.adjacency
    co_adj = tuple(frozenset(range(G.n)) - adj[v] - {v} for v in range(G.n))

    def induces_cycle(nbrs, subset):
        inside = set(subset)
        if any(len(nbrs[v] & inside) != 2 for v in subset):
            return False
        # 2-regular: a cycle iff connected
        seen = {subset[0]}
        stack = [subset[0]]
        while stack:
            for y in nbrs[stack.pop()] & inside:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(subset)

    return not any(induces_cycle(nbrs, subset)
                   for size in range(5, G.n + 1)
                   for subset in combinations(range(G.n), size)
                   for nbrs in (adj, co_adj))


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


def reference_folds_onto_clique(G, p):
    """Fold steps (removed, dominator) by which some fold sequence reaches a
    complete graph on p vertices, or None; every sequence is searched, with
    memoization on the surviving vertex set (small graphs only)."""
    if p < 1:
        raise ValueError("target clique size must be positive")
    memo = {}

    def search(alive):
        if alive in memo:
            return memo[alive]
        adj = {v: G.adjacency[v] & alive for v in alive}
        if len(alive) <= p:
            complete = all(len(adj[v]) == len(alive) - 1 for v in alive)
            ans = [] if len(alive) == p and complete else None
            memo[alive] = ans
            return ans
        ans = None
        for u in sorted(alive):
            # the residual depends only on the removed vertex, so one
            # dominator per candidate removal suffices
            dom = next((v for v in sorted(alive) if v != u and adj[u] <= adj[v]), None)
            if dom is None:
                continue
            rest = search(alive - {u})
            if rest is not None:
                ans = [(u, dom)] + rest
                break
        memo[alive] = ans
        return ans

    return search(frozenset(range(G.n)))


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


def brute_force_certify(G, order, k):
    """Extension-chain check by rebuilding the graph on the surviving
    vertices at every step: the base must be complete on at least k+3
    vertices, and each re-added vertex v needs, for every subset S of its
    neighbours of every size up to k+1, a common neighbour of S other than
    v. No monotonicity shortcut."""
    removed = set(order)
    alive = [v for v in range(G.n) if v not in removed]
    base = induced_subgraph(G, alive)
    if base.n < k + 3 or not base.is_complete():
        return False
    for v in reversed(order):
        alive = sorted(alive + [v])
        H = induced_subgraph(G, alive)
        hv = alive.index(v)
        nv = sorted(H.adjacency[hv])
        for size in range(k + 2):
            for subset in combinations(nv, size):
                if not common_neighborhood(H, subset) - {hv}:
                    return False
    return True


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
