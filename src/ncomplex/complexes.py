"""Abstract simplicial complexes stored by their maximal faces.

A complex holds only its facets (an antichain of frozensets); faces of a
given dimension are enumerated on demand. Two degenerate values matter and
are distinct: the void complex (no faces at all, `facets == frozenset()`)
and the empty complex (just the empty face, `facets == {frozenset()}`).
The neighborhood complex of a graph with vertices but no edges is the
latter, never the former.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, induced_subgraph, is_complete_on, restricted_adjacency


class SimplicialComplex:
    """Immutable complex defined by its facets."""

    __slots__ = ("facets", "_vertices")

    def __init__(self, facets):
        facets = frozenset(frozenset(f) for f in facets)
        for a in facets:
            for b in facets:
                if a < b:
                    raise ValueError(f"facet {sorted(a)} is contained in {sorted(b)}")
        self.facets = facets
        self._vertices = None

    @classmethod
    def from_faces(cls, faces):
        """Build from any face collection, keeping only the maximal ones."""
        faces = sorted({frozenset(f) for f in faces}, key=len, reverse=True)
        maximal = []
        for f in faces:
            if not any(f < g for g in maximal):
                maximal.append(f)
        return cls(maximal)

    @property
    def vertices(self):
        if self._vertices is None:
            verts = set()
            for f in self.facets:
                verts |= f
            self._vertices = frozenset(verts)
        return self._vertices

    @property
    def is_void(self):
        return not self.facets

    @property
    def dim(self):
        """Dimension of the largest face; -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def faces(self, k):
        """All k-dimensional faces as sorted tuples, in lexicographic order.

        k = -1 yields the empty face (for any non-void complex).
        """
        if self.is_void:
            return []
        if k == -1:
            return [()]
        out = set()
        for f in self.facets:
            if len(f) >= k + 1:
                out.update(combinations(sorted(f), k + 1))
        return sorted(out)

    def face_count(self, k):
        return len(self.faces(k))

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        shown = sorted(sorted(f) for f in self.facets)
        return f"SimplicialComplex({shown})"

    def to_json(self):
        facets = sorted(sorted(f) for f in self.facets)
        return json.dumps({"facets": facets}, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls.from_faces(obj["facets"])


def neighborhood_complex(G):
    """Complex whose faces are the vertex sets with a common neighbor.

    Facets are the inclusion-maximal neighborhoods N(v). A graph with
    vertices but no edges yields the empty complex.
    """
    if G.n == 0:
        return SimplicialComplex([])
    nbhds = [set(G.adjacency[v]) for v in range(G.n) if G.adjacency[v]]
    if not nbhds:
        return SimplicialComplex([frozenset()])
    return SimplicialComplex.from_faces(nbhds)


def has_face(X, face):
    face = frozenset(face)
    return any(face <= f for f in X.facets)


def link(X, face):
    """Faces disjoint from `face` whose union with it is still a face."""
    face = frozenset(face)
    if not has_face(X, face):
        raise ValueError(f"{sorted(face)} is not a face of the complex")
    return SimplicialComplex.from_faces(f - face for f in X.facets if face <= f)


def star(X, face):
    """Faces whose union with `face` is a face; a cone, hence contractible."""
    face = frozenset(face)
    if not has_face(X, face):
        raise ValueError(f"{sorted(face)} is not a face of the complex")
    return SimplicialComplex(f for f in X.facets if face <= f)


def induced_subcomplex(X, vertices):
    """Faces contained in `vertices`."""
    vertices = frozenset(vertices)
    if X.is_void:
        return X
    return SimplicialComplex.from_faces(f & vertices for f in X.facets)


def nerve(family):
    """Nerve of an indexed family of sets.

    Index subsets form a face exactly when their sets share a point. Facets
    are computed dually: each point w contributes the index set of the
    members containing w, and the maximal such sets are the facets.
    """
    family = [frozenset(s) for s in family]
    points = set()
    for s in family:
        points |= s
    duals = []
    for w in sorted(points):
        duals.append(frozenset(i for i, s in enumerate(family) if w in s))
    if not duals:
        return SimplicialComplex([frozenset()])
    return SimplicialComplex.from_faces(duals)


def suspension(X):
    """Join with two fresh apex vertices; shifts reduced homology up one."""
    if X.is_void:
        raise ValueError("cannot suspend the void complex")
    top = max(X.vertices, default=-1)
    a, b = top + 1, top + 2
    facets = [f | {a} for f in X.facets] + [f | {b} for f in X.facets]
    return SimplicialComplex(facets)


def has_full_skeleton(X, ground, k):
    """Is every (k+1)-subset of `ground` a face of X?"""
    if k < 0:
        raise ValueError("skeleton dimension must be non-negative")
    ground = sorted(set(ground))
    return all(has_face(X, s) for s in combinations(ground, k + 1))


def path_connected(X):
    """Connectivity of the 1-skeleton; single-vertex complexes count, the
    empty and void complexes do not."""
    verts = X.vertices
    if not verts:
        return False
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in X.facets:
        anchor = None
        for v in sorted(f):
            if anchor is None:
                anchor = find(v)
            else:
                parent[find(v)] = anchor
    roots = {find(v) for v in verts}
    return len(roots) == 1


@dataclass(frozen=True)
class ExtensionCheck:
    holds: bool
    witnesses: dict | None
    failing_subset: frozenset | None


@dataclass(frozen=True)
class ChainStep:
    vertex: int
    check: ExtensionCheck


@dataclass(frozen=True)
class ConnectivityCertificate:
    kind: str                 # "complete-graph-base" | "extension-chain"
    claimed_connectivity: int
    chain: tuple              # ChainStep records, in re-addition order
    base_graph: Graph
    base_vertices: tuple


def _extension_check(adj, v, depth):
    """Within an adjacency map: does every subset of N(v) of the critical
    size have a common neighbor other than v?

    Subsets smaller than min(depth + 1, deg v) are covered by monotonicity:
    a common neighbor for a set also serves every subset of it.
    """
    nv = sorted(adj[v])
    size = min(depth + 1, len(nv))
    witnesses = {}
    for subset in combinations(nv, size):
        candidates = set(adj) - {v}
        for x in subset:
            candidates &= adj[x]
        candidates.discard(v)
        if not candidates:
            return ExtensionCheck(False, None, frozenset(subset))
        witnesses[frozenset(subset)] = min(candidates)
    return ExtensionCheck(True, witnesses, None)


def extension_property(G, v, depth):
    """True when every subset of N(v) with at most depth+1 vertices has a
    common neighbor different from v."""
    G.neighbors(v)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    adj = {u: set(G.adjacency[u]) for u in range(G.n)}
    return _extension_check(adj, v, depth)


def neighbor_subcomplex_connected(G, v):
    """Is the neighborhood complex of G - v, restricted to N(v), path
    connected?"""
    nv = G.neighbors(v)
    if not nv:
        raise ValueError("vertex has no neighbors")
    rest = [u for u in range(G.n) if u != v]
    sub = induced_subgraph(G, rest)
    back = {i: rest[i] for i in range(len(rest))}
    X = neighborhood_complex(sub)
    target = frozenset(i for i, orig in back.items() if orig in nv)
    return path_connected(induced_subcomplex(X, target))


def certify_connectivity(G, order, k):
    """Checker for k-connectedness of the neighborhood complex.

    Removing `order` from G must leave a complete graph on at least k+3
    vertices; re-adding the vertices in reverse order, each one must pass
    the extension check at depth k. Returns a certificate, or None when any
    condition fails. The caller chooses the elimination order.
    """
    if k < 0:
        raise ValueError("connectivity level must be non-negative")
    order = list(order)
    if len(set(order)) != len(order):
        raise ValueError("order contains repeated vertices")
    for v in order:
        G.neighbors(v)
    alive = set(range(G.n)) - set(order)
    if not alive:
        return None
    base_alive = frozenset(alive)
    if not is_complete_on(restricted_adjacency(G, base_alive), base_alive):
        return None
    if len(base_alive) < k + 3:
        return None
    chain = []
    for v in reversed(order):
        alive.add(v)
        adj = restricted_adjacency(G, alive)
        check = _extension_check(adj, v, k)
        if not check.holds:
            return None
        chain.append(ChainStep(v, check))
    kind = "extension-chain" if order else "complete-graph-base"
    return ConnectivityCertificate(
        kind=kind,
        claimed_connectivity=k,
        chain=tuple(chain),
        base_graph=induced_subgraph(G, sorted(base_alive)),
        base_vertices=tuple(sorted(base_alive)),
    )
