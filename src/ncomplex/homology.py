"""Reduced integral homology of simplicial complexes.

The chain complex is augmented: the boundary of a vertex is the empty face,
so H~_0 of a connected complex vanishes and all groups come out reduced.
Faces are enumerated in lexicographic order per dimension; the face missing
the vertex at sorted position i carries sign (-1)^i. Ranks and invariant
factors come from exact integer arithmetic in `snf`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
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
    has_empty_face: bool = True
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


# Largest number of faces in one degree that `reduced_homology` enumerates.
# Every verifier input stays below 26,000; queen 6x6 reaches 180,828 at
# max_dim 3 and 357,140 at max_dim 4.
FACE_CAP = 250_000


def _check_face_cap(X, top):
    """Refuse a complex whose k-faces, for some k <= top, could exceed
    FACE_CAP, bounding them by sum over facets F of C(|F|, k + 1)."""
    for k in range(top + 1):
        bound = sum(comb(len(f), k + 1) for f in X.facets)
        if bound > FACE_CAP:
            raise CapExceededError(
                f"degree {k} may have up to {bound} faces, above the cap of {FACE_CAP}")


def _reduce(entries, method):
    """(rank, torsion) of one boundary matrix. The rank route sees no
    torsion; "both" also runs it and insists the two ranks agree."""
    if method == "rank":
        return rank_over_rationals(entries), ()
    if method not in ("smith", "both"):
        raise ValueError(f"unknown method {method!r}")
    form = smith_normal_form(entries)
    if method == "both":
        rational = rank_over_rationals(entries)
        if rational != form.rank:
            raise AssertionError(
                f"rank mismatch between routes: smith={form.rank} rational={rational}")
    return form.rank, tuple(d for d in form.factors if d > 1)


def reduced_homology(X, max_dim, method="smith", source=""):
    """Reduced homology groups H~_k for 0 <= k <= max_dim.

    method="smith" computes invariant factors, so torsion is exact.
    method="rank" derives Betti numbers from fraction-free rank alone and
    reports no torsion; it exists as an independent cross-check.
    method="both" runs the two and insists they agree.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    _check_face_cap(X, max_dim + 1)
    counts = tuple(X.face_count(k) for k in range(max_dim + 2))
    ranks, torsion = zip(*(_reduce(boundary_matrix(X, k).entries, method)
                           for k in range(max_dim + 2)))
    # torsion of H~_k comes from the boundary out of degree k + 1
    groups = [HomologyGroup(k, counts[k] - ranks[k] - ranks[k + 1], torsion[k + 1])
              for k in range(max_dim + 1)]
    return HomologyReport(
        groups=tuple(groups),
        max_dim=max_dim,
        face_counts=counts[: max_dim + 1],
        has_empty_face=not X.is_void,
        source=source,
    )


def betti_numbers(X, max_dim):
    """Betti numbers via the rank-only route."""
    report = reduced_homology(X, max_dim, method="rank")
    return [g.betti for g in report.groups]


@dataclass(frozen=True)
class ConnectivityBound:
    value: int
    exact: bool

    def describe(self):
        return str(self.value) if self.exact else f"at least {self.value}"


def homological_connectivity(report):
    """One less than the smallest degree with nonzero reduced homology.

    When every group through max_dim vanishes the result is the inexact
    bound "at least max_dim". The empty complex (only the empty face) sits
    at -2: its reduced homology lives in degree -1.
    """
    if report.face_counts and report.face_counts[0] == 0 and report.has_empty_face:
        return ConnectivityBound(-2, True)
    for g in report.groups:
        if not g.is_zero:
            return ConnectivityBound(g.dim - 1, True)
    return ConnectivityBound(report.max_dim, False)


def connectivity_of_complex(X, dim_cap, method="smith"):
    """Homological connectivity computed degree by degree with early exit.

    method="smith" also sees pure-torsion groups, so its early exit is
    exact; the rank-only variant exists for cross-checks on torsion-free
    complexes.
    """
    if X.is_void:
        return ConnectivityBound(dim_cap, False)
    if X.face_count(0) == 0:
        return ConnectivityBound(-2, True)
    rank_k, _ = _reduce(boundary_matrix(X, 0).entries, method)
    for k in range(dim_cap + 1):
        B = boundary_matrix(X, k + 1)
        rank_next, torsion = _reduce(B.entries, method)
        betti = len(B.rows) - rank_k - rank_next
        if betti or torsion:
            return ConnectivityBound(k - 1, True)
        rank_k = rank_next
    return ConnectivityBound(dim_cap, False)
