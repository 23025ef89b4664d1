"""Reduced integral homology of simplicial complexes.

The chain complex is augmented: the boundary of a vertex is the empty face,
so H~_0 of a connected complex vanishes and all groups come out reduced.
Faces are enumerated in lexicographic order per dimension; the face missing
the vertex at sorted position i carries sign (-1)^i. Ranks and invariant
factors come from exact integer arithmetic in `snf`.

The Smith route clears rows before it reduces a boundary (Chen & Kerber
2011, "Persistent homology computation with a twist", here over Z). The
rows of d_{k+1} and the columns of d_k are both the k-faces in
lexicographic order, so the two share indices. Let (P, C) be the rows and
columns of the unit pivots that `smith_normal_form` took on d_k:

* Row operations bring d_k[P, C] to a triangle with +-1 on the diagonal,
  so the block is unimodular.
* d_k d_{k+1} = 0 gives d_{k+1}[C, :] = -d_k[P, C]^-1 d_k[P, C'] d_{k+1}[C', :],
  with C' the other k-faces. Unimodular row operations thus zero the rows
  C, and d_{k+1} has the Smith form of d_{k+1}[C', :].
* The identity holds for any rows of d_k, so it still holds when d_k was
  itself cleared.

Only unit pivots clear rows; the classical reduction's pivots never do.
The rational-rank route clears nothing and stays an independent check on
the full matrices.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count, islice
from math import comb

from .errors import CapExceededError
from .snf import rank_over_rationals, smith_normal_form


@dataclass(frozen=True)
class BoundaryMatrix:
    dim: int
    rows: tuple   # (dim-1)-faces, lexicographic
    cols: tuple   # dim-faces, lexicographic
    entries: dict  # (row index, col index) -> +1 / -1

    def shape(self):
        return (len(self.rows), len(self.cols))


@dataclass(frozen=True)
class HomologyGroup:
    dim: int
    betti: int
    torsion: tuple  # invariant factors > 1, divisibility order

    @property
    def is_zero(self):
        return self.betti == 0 and not self.torsion

    def describe(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class HomologyReport:
    groups: tuple            # HomologyGroup, dims 0..max_dim
    max_dim: int
    face_counts: tuple       # faces per dimension 0..max_dim
    source: str = ""

    def group(self, k):
        return self.groups[k]

    def to_json(self):
        obj = {
            "complex": self.source,
            "groups": [
                {"dim": g.dim, "betti": g.betti, "torsion": list(g.torsion)}
                for g in self.groups
            ],
            "max_dim": self.max_dim,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def boundary_matrix(X, k):
    """Boundary operator from k-chains to (k-1)-chains.

    For k = 0 the rows hold the single empty face, making the complex
    augmented.
    """
    if k < 0:
        raise ValueError("boundary dimension must be non-negative")
    rows = X.faces(k - 1)
    cols = X.faces(k)
    row_index = {f: i for i, f in enumerate(rows)}
    entries = {}
    for j, face in enumerate(cols):
        for i in range(k + 1):
            sub = face[:i] + face[i + 1:]
            entries[(row_index[sub], j)] = -1 if i % 2 else 1
    return BoundaryMatrix(k, tuple(rows), tuple(cols), entries)


# Largest number of faces in one degree that homology enumerates. Every
# verifier input stays below 26,000; queen 6x6 reaches 180,828 at max_dim 3
# and 357,140 at max_dim 4.
FACE_CAP = 250_000


def _check_face_cap(X, k):
    """Refuse a complex whose k-faces could exceed FACE_CAP, bounding them
    by sum over facets F of C(|F|, k + 1)."""
    bound = sum(comb(len(f), k + 1) for f in X.facets)
    if bound > FACE_CAP:
        raise CapExceededError(
            f"degree {k} may have up to {bound} faces, above the cap of {FACE_CAP}")


def _reduce(entries, method, cleared):
    """(rank, torsion, unit-pivot columns) of one boundary matrix.

    The Smith route drops the rows in `cleared` first (see the module
    docstring). The rank route clears nothing, returns no pivots and sees
    no torsion.
    """
    if method == "rank":
        return rank_over_rationals(entries), (), frozenset()
    if method != "smith":
        raise ValueError(f"unknown method {method!r}")
    form = smith_normal_form({rc: v for rc, v in entries.items() if rc[0] not in cleared})
    return form.rank, tuple(d for d in form.factors if d > 1), form.unit_pivot_cols


def _homology_groups(X, method):
    """Yield H~_0, H~_1, ... in turn, reducing each boundary once.

    H~_k needs d_k and d_{k+1}; each boundary is built only when the next
    group asks for it, after its degree passes the face cap, and the unit
    pivots of d_k clear the rows of d_{k+1}.
    """
    _check_face_cap(X, 0)
    rank_k, _, cleared = _reduce(boundary_matrix(X, 0).entries, method, frozenset())
    for k in count():
        _check_face_cap(X, k + 1)
        B = boundary_matrix(X, k + 1)
        rank_next, torsion, cleared = _reduce(B.entries, method, cleared)
        # torsion of H~_k comes from the boundary out of degree k + 1
        yield HomologyGroup(k, len(B.rows) - rank_k - rank_next, torsion)
        rank_k = rank_next


def reduced_homology(X, max_dim, method="smith", source=""):
    """Reduced homology groups H~_k for 0 <= k <= max_dim.

    method="smith" computes invariant factors, so torsion is exact.
    method="rank" derives Betti numbers from fraction-free rank alone and
    reports no torsion; it exists as an independent cross-check.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    for k in range(max_dim + 2):
        _check_face_cap(X, k)
    counts = tuple(X.face_count(k) for k in range(max_dim + 2))
    return HomologyReport(
        groups=tuple(islice(_homology_groups(X, method), max_dim + 1)),
        max_dim=max_dim,
        face_counts=counts[: max_dim + 1],
        source=source,
    )


@dataclass(frozen=True)
class ConnectivityBound:
    value: int
    exact: bool

    def describe(self):
        return str(self.value) if self.exact else f"at least {self.value}"


def connectivity_of_complex(X, dim_cap, method="smith"):
    """Homological connectivity computed degree by degree with early exit.

    method="smith" also sees pure-torsion groups, so its early exit is
    exact; the rank-only variant exists for cross-checks on torsion-free
    complexes. A degree past the first nonzero group is never built, nor
    checked against the face cap.
    """
    if X.is_void:
        return ConnectivityBound(dim_cap, False)
    if not X.vertices:
        return ConnectivityBound(-2, True)
    for g in islice(_homology_groups(X, method), dim_cap + 1):
        if not g.is_zero:
            return ConnectivityBound(g.dim - 1, True)
    return ConnectivityBound(dim_cap, False)
