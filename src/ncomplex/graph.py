"""Finite simple undirected graphs on dense integer vertices.

Vertices are always 0..n-1. Edges are stored as a frozenset of sorted pairs,
so a graph value is immutable and safe to share. Optional labels carry
display strings (chessboard coordinates and the like); they never affect
structural equality.
"""
from __future__ import annotations

import json
import random
from itertools import combinations

from .errors import CapExceededError


def json_field(obj, name, parse):
    """parse(obj[name]), or a ValueError naming the field if that fails."""
    try:
        return parse(obj[name])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"JSON field {name!r} is missing or malformed") from exc


class Graph:
    """Immutable simple graph. Equality and hashing use (n, edges) only."""

    __slots__ = ("n", "edges", "labels", "_adj")

    def __init__(self, n, edges=(), labels=None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        self.labels = dict(labels) if labels else None
        self._adj = None

    @property
    def adjacency(self):
        """Tuple of neighbor frozensets, indexed by vertex."""
        if self._adj is None:
            nbrs = [set() for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            self._adj = tuple(frozenset(s) for s in nbrs)
        return self._adj

    def neighbors(self, v):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.adjacency[v]

    def degree(self, v):
        return len(self.neighbors(v))

    def has_edge(self, u, v):
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def is_complete(self):
        return len(self.edges) == self.n * (self.n - 1) // 2

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    def sorted_edges(self):
        return sorted(self.edges)

    def to_json(self):
        """Canonical JSON text: byte-reproducible for equal graphs."""
        obj = {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}
        if self.labels:
            obj["labels"] = {str(v): self.labels[v] for v in sorted(self.labels)}
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        n = json_field(obj, "n", int)
        edges = json_field(obj, "edges", lambda es: [(int(u), int(v)) for u, v in es])
        labels = None
        if "labels" in obj and obj["labels"]:
            labels = json_field(obj, "labels",
                                lambda ls: {int(k): str(v) for k, v in ls.items()})
        return cls(n, edges, labels)

    @classmethod
    def from_edge_list(cls, text):
        n = None
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "n" and len(parts) == 2:
                if n is not None:
                    raise ValueError(f"line {lineno}: duplicate vertex-count line")
                n = int(parts[1])
            elif parts[0] == "e" and len(parts) == 3:
                if n is None:
                    raise ValueError(f"line {lineno}: edge before vertex-count line")
                edges.append((int(parts[1]), int(parts[2])))
            else:
                raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        if n is None:
            raise ValueError("missing vertex-count line `n <count>`")
        return cls(n, edges)


def connected_components(G):
    """Components as frozensets, sorted by smallest member."""
    seen = [False] * G.n
    comps = []
    adj = G.adjacency
    for start in range(G.n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in sorted(adj[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def is_connected(G):
    return G.n <= 1 or len(connected_components(G)) == 1


def complete_graph(p):
    if p < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(p, combinations(range(p), 2))


def cycle_graph(k):
    if k < 3:
        raise ValueError("cycle graph needs at least three vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k):
    if k < 1:
        raise ValueError("path graph needs at least one vertex")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def _board_graph(m, n, attacks):
    """Squares of an m-by-n board, adjacent when `attacks(di, dj)` holds for
    their row and column distances. Vertex index of (i,j) is (i-1)*n + (j-1);
    coordinates are kept in the label map."""
    if m < 1 or n < 1:
        raise ValueError("board sides must be positive")
    squares = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    edges = [(a, b) for (a, (i, j)), (b, (k, l)) in combinations(enumerate(squares), 2)
             if attacks(abs(i - k), abs(j - l))]
    labels = {a: f"({i},{j})" for a, (i, j) in enumerate(squares)}
    return Graph(m * n, edges, labels)


def queen_graph(m, n):
    """Queen-move adjacency on an m-by-n board: squares sharing a row, a
    column or a diagonal, at any distance."""
    return _board_graph(m, n, lambda di, dj: di == 0 or dj == 0 or di == dj)


def king_graph(m, n):
    """King-move adjacency on an m-by-n board: Chebyshev distance one."""
    return _board_graph(m, n, lambda di, dj: max(di, dj) == 1)


def mycielskian(G):
    """Mycielski construction on 2n+1 vertices.

    Vertex i is the original v_i, n+i its shadow u_i, and 2n the hub w.
    Edges: originals keep E(G); each shadow u_i joins the neighbors of v_i;
    the hub joins every shadow.
    """
    n = G.n
    if n < 1:
        raise ValueError("mycielskian needs at least one vertex")
    edges = list(G.edges)
    for u, v in G.edges:
        edges.append((n + u, v))
        edges.append((n + v, u))
    edges.extend((2 * n, n + i) for i in range(n))
    return Graph(2 * n + 1, edges)


def complement(G):
    present = G.edges
    edges = [e for e in combinations(range(G.n), 2) if e not in present]
    return Graph(G.n, edges, G.labels)


def induced_subgraph(G, vertices):
    """Subgraph on `vertices`, re-indexed 0..k-1 in ascending vertex order.

    The label map records where each new index came from.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} out of range for n={G.n}")
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in G.edges if u in index and v in index]
    old_labels = G.labels or {}
    labels = {i: old_labels.get(v, str(v)) for v, i in index.items()}
    return Graph(len(keep), edges, labels)


def _greedy_clique(G):
    """A maximal clique found greedily from each start vertex; lower bound for coloring."""
    adj = G.adjacency
    order = sorted(range(G.n), key=lambda v: (-len(adj[v]), v))
    best = frozenset()
    for start in order[: min(G.n, 8)]:
        clique = {start}
        candidates = set(adj[start])
        while candidates:
            v = min(candidates, key=lambda w: (-len(adj[w] & candidates), w))
            clique.add(v)
            candidates &= adj[v]
        if len(clique) > len(best):
            best = frozenset(clique)
    return best


def _colorable(G, k):
    """Exact k-colorability by DSATUR-ordered backtracking."""
    adj = G.adjacency
    colors = [-1] * G.n
    neighbor_colors = [set() for _ in range(G.n)]

    def pick():
        return max((u for u in range(G.n) if colors[u] == -1),
                   key=lambda u: (len(neighbor_colors[u]), len(adj[u]), -u))

    def assign(v, c, delta):
        colors[v] = c
        for w in adj[v]:
            if c in neighbor_colors[w]:
                continue
            neighbor_colors[w].add(c)
            delta.append(w)

    def unassign(v, c, delta):
        colors[v] = -1
        for w in delta:
            neighbor_colors[w].discard(c)

    def solve(colored, used):
        if colored == G.n:
            return True
        v = pick()
        # trying more than one brand-new color only permutes color names
        limit = min(used + 1, k)
        for c in range(limit):
            if c in neighbor_colors[v]:
                continue
            delta = []
            assign(v, c, delta)
            if solve(colored + 1, max(used, c + 1)):
                return True
            unassign(v, c, delta)
        return False

    return solve(0, 0)


# Largest graph whose chromatic number is computed; the exact search is
# exponential in the vertex count.
CHROMATIC_CAP = 32


def chromatic_number(G):
    """Exact chromatic number by branch and bound.

    Clique size gives the starting count, raised until an exact
    k-colorability test succeeds; its first descent is DSATUR, so the
    search stops at once when the DSATUR count is optimal. Inputs above
    CHROMATIC_CAP are refused rather than approximated.
    """
    if G.n < 1:
        raise ValueError("chromatic number needs at least one vertex")
    if G.n > CHROMATIC_CAP:
        raise CapExceededError(
            f"exact chromatic number capped at {CHROMATIC_CAP} vertices (got {G.n})")
    k = len(_greedy_clique(G))
    while not _colorable(G, k):
        k += 1
    return k


def random_chordal_graph(num_cliques, size_range, overlap_min, seed):
    """Random chordal graph built by gluing cliques, plus the clique sequence.

    Each new clique meets the union of its predecessors in a shared
    sub-clique of size at least `overlap_min`, chosen inside one existing
    clique and strictly smaller than both it and the new clique. Deterministic
    for a fixed seed. Returns (graph, cliques) where `cliques` is the gluing
    order; chordality is a consequence of the construction but callers
    re-verify it rather than assume it.
    """
    lo, hi = size_range
    if num_cliques < 1:
        raise ValueError("need at least one clique")
    if not 1 <= lo <= hi:
        raise ValueError(f"bad clique size range {size_range}")
    if overlap_min < 0 or overlap_min >= lo:
        raise ValueError("overlap_min must be non-negative and below the minimum clique size")
    rng = random.Random(seed)
    cliques = []
    edges = set()
    next_vertex = 0
    for j in range(num_cliques):
        size = rng.randint(lo, hi)
        if j == 0:
            members = list(range(size))
            next_vertex = size
        else:
            host = cliques[rng.randrange(len(cliques))]
            max_overlap = min(len(host) - 1, size - 1)
            take = rng.randint(overlap_min, max_overlap)
            shared = rng.sample(sorted(host), take)
            fresh = list(range(next_vertex, next_vertex + size - take))
            next_vertex += size - take
            members = sorted(shared) + fresh
        cliques.append(frozenset(members))
        edges.update(combinations(sorted(members), 2))
    return Graph(next_vertex, edges), cliques
