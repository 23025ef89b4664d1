"""Abstract simplicial complexes stored by their maximal faces.

A complex holds its facets (an antichain of frozensets); faces of a given
dimension are computed on first demand and kept per degree. Two degenerate
values matter and are distinct: the void complex (no faces at all,
`facets == frozenset()`) and the empty complex (just the empty face,
`facets == {frozenset()}`). The neighborhood complex of a graph with
vertices but no edges is the latter, never the former.
"""
from __future__ import annotations

import json
from itertools import combinations

from .graph import canonical_json, json_field, json_int, json_list


class SimplicialComplex:
    """Immutable complex defined by its facets; `vertices` is their union."""

    __slots__ = ("facets", "vertices", "_faces")

    def __init__(self, facets):
        facets = frozenset(frozenset(f) for f in facets)
        for a in facets:
            for b in facets:
                if a < b:
                    raise ValueError(f"facet {sorted(a)} is contained in {sorted(b)}")
        self.facets = facets
        self.vertices = frozenset().union(*facets)
        self._faces = {}  # k -> sorted k-faces; the facets never change

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
    def is_void(self):
        return not self.facets

    @property
    def dim(self):
        """Dimension of the largest face; -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def faces(self, k):
        """All k-dimensional faces as sorted tuples, in lexicographic order.

        k = -1 yields the empty face for any non-void complex and nothing for
        the void one; below that, a non-void complex raises ValueError. Each
        call returns a fresh list.
        """
        if k not in self._faces:
            self._faces[k] = sorted({face for f in self.facets
                                     for face in combinations(sorted(f), k + 1)})
        return list(self._faces[k])

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
        return canonical_json({"facets": facets})

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        facets = json_field(obj, "facets",
                            lambda fs: [frozenset(json_int(v) for v in json_list(f))
                                       for f in json_list(fs)])
        return cls.from_faces(facets)


def neighborhood_complex(G):
    """Complex whose faces are the vertex sets with a common neighbor.

    Facets are the inclusion-maximal neighborhoods N(v). A graph with no
    vertices yields the void complex; one with vertices but no edges yields
    the empty complex, whose only face is the empty neighborhood.
    """
    return SimplicialComplex.from_faces(G.adjacency)


def _extension_check(G, alive, v, depth):
    """Within the subgraph on `alive`: does every subset of N(v) of the
    critical size have a common neighbor other than v?

    Subsets smaller than min(depth + 1, deg v) are covered by monotonicity:
    a common neighbor for a set also serves every subset of it.
    """
    adj = G.adjacency
    nv = sorted(adj[v] & alive)
    size = min(depth + 1, len(nv))
    return all(alive.intersection(*(adj[x] for x in subset)) - {v}
               for subset in combinations(nv, size))


def certify_connectivity(G, order, k):
    """Checker for k-connectedness of the neighborhood complex; the removal
    order is the certificate.

    Removing `order` from G must leave a complete graph on at least k+3
    vertices; re-adding the vertices in reverse order, each one must pass
    the extension check at depth k. Returns True when every condition
    holds, False otherwise. The caller chooses the order.
    """
    if k < 0:
        raise ValueError("connectivity level must be non-negative")
    order = list(order)
    if len(set(order)) != len(order):
        raise ValueError("order contains repeated vertices")
    for v in order:
        G.neighbors(v)
    adj = G.adjacency
    alive = set(range(G.n)) - set(order)
    if len(alive) < k + 3 or any(len(adj[v] & alive) != len(alive) - 1 for v in alive):
        return False
    for v in reversed(order):
        alive.add(v)
        if not _extension_check(G, alive, v, k):
            return False
    return True
