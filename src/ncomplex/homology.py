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
A cleared row is never built: `boundary_matrix` leaves it out of its row
index, so it gets no entries. The rational-rank route clears nothing and
stays an independent check on the full matrices.

The connectivity scan reduces a smaller chain complex, the one relative
to the closed star st w of one apex vertex w (Munkres 1984, sections 9
and 24):

* st w is a cone on w, so its reduced homology vanishes, and the exact
  sequence of the pair gives H~_k(X) = H_k(X, st w) for every k, over Z
  and torsion included.
* A face lies outside st w exactly when it misses w and is not in the
  link lk w = {F - w : w in F}. So C(X)/C(st w) = C(X - w)/C(lk w), with
  X - w the subcomplex of faces missing w. A face of X - w in no facet
  that misses w lies in lk w, and one in lk w is held by a facet through
  w, so the basis is the faces of the facets that miss w, less those some
  facet through w holds. The empty face lies in st w: degree -1 is empty.
* The basis is read off `SimplicialComplex.faces`, the one face
  enumerator, on the far complex of the facets that miss w. Bit i of a
  vertex's mask is set when the i-th facet through w holds it, so a face
  is held by one exactly when its vertices' masks AND to a nonzero value.
* The quotient boundary drops the subfaces that lie in st w; of a face
  missing w these are the ones some facet through w holds.
* This is a chain complex with its faces in lexicographic order per
  degree, so the clearing argument above holds on it unchanged.
* The face cap bounds degree k by C(|F|, k + 1) summed over the facets F missing w.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, count, islice
from math import comb
from operator import and_

from .complexes import SimplicialComplex
from .errors import CapExceededError
from .graph import canonical_json
from .snf import rank_over_rationals, smith_normal_form


@dataclass(frozen=True)
class BoundaryMatrix:
    dim: int
    rows: tuple   # (dim-1)-faces, lexicographic
    cols: tuple   # dim-faces, lexicographic
    entries: dict  # (row index, col index) -> +1 / -1


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
        return canonical_json(obj)


def boundary_matrix(X, k, cleared=frozenset()):
    """Boundary operator from k-chains to (k-1)-chains.

    For k = 0 the rows hold the single empty face, making the complex
    augmented. X may also be the faces outside a closed star
    (`_OutsideStar`): a subface missing from its rows is held by a facet
    through the apex, so it is zero in the quotient and is skipped, as is
    any row whose index is in `cleared`: it stays in `rows` with no entries.
    """
    if k < 0:
        raise ValueError("boundary dimension must be non-negative")
    rows = X.faces(k - 1)
    cols = X.faces(k)
    row_index = {f: i for i, f in enumerate(rows) if i not in cleared}
    # combinations(face, k) drops the vertex at position k first, then k - 1,
    # ...; a degree with no faces skips the list, so a large max_dim stays linear
    signs = [-1 if i % 2 else 1 for i in range(k, -1, -1)] if cols else ()
    entries = {}
    for j, face in enumerate(cols):
        for sub, sign in zip(combinations(face, k), signs):
            i = row_index.get(sub)
            if i is not None:
                entries[(i, j)] = sign
    return BoundaryMatrix(k, tuple(rows), tuple(cols), entries)


class _OutsideStar:
    """The faces of X outside the closed star of `apex`, lexicographic per
    degree: the basis of C(X, st apex). The k-faces are those of the far
    complex, on the facets that miss the apex, whose vertices' masks AND to
    0 (see the module docstring); the AND starts from -1, so the empty face
    is never kept. A degree must pass the face cap to be enumerated."""

    def __init__(self, X, apex):
        self._far = SimplicialComplex(f for f in X.facets if apex not in f)
        self.facets = self._far.facets
        star = [f for f in X.facets if apex in f]
        self._mask = {v: sum(1 << i for i, f in enumerate(star) if v in f) for v in X.vertices}
        self._faces = {}

    def faces(self, k):
        if k not in self._faces:
            if k >= 0:  # degree -1 only decides whether d_0 is skipped
                _check_face_cap(self, k)
            mask = self._mask.__getitem__
            self._faces[k] = [s for s in self._far.faces(k) if not reduce(and_, map(mask, s), -1)]
        return self._faces[k]


def _apex(X):
    """The vertex maximising the sum of 2^|F| over the facets F containing
    it, which bounds the faces its closed star removes; ties go to the
    lowest vertex."""
    weight = {}
    for f in X.facets:
        for v in f:
            weight[v] = weight.get(v, 0) + (1 << len(f))
    return min(weight, key=lambda v: (-weight[v], v))


# Largest number of faces in one degree that homology enumerates. Every
# verifier input stays below 26,000; queen 6x6 reaches 180,828 at max_dim 3
# and 357,140 at max_dim 4.
FACE_CAP = 250_000


def _check_face_cap(chains, k):
    """Refuse a chain complex whose k-faces could exceed FACE_CAP, bounding
    them by sum over its facets F of C(|F|, k + 1)."""
    bound = sum(comb(len(f), k + 1) for f in chains.facets)
    if bound > FACE_CAP:
        raise CapExceededError(
            f"degree {k} may have up to {bound} faces, above the cap of {FACE_CAP}")


def _reduce(entries, method):
    """(rank, torsion, unit-pivot columns) of one boundary matrix. The rank
    route returns no pivots and sees no torsion."""
    if method == "rank":
        return rank_over_rationals(entries), (), frozenset()
    form = smith_normal_form(entries)
    return form.rank, tuple(d for d in form.factors if d > 1), form.unit_pivot_cols


def _homology_groups(chains, method):
    """Yield H~_0, H~_1, ... of `chains` in turn, reducing each boundary once.

    `chains` is a complex X, or the faces of X outside a closed star, whose
    groups are the same; `chains` or its caller checks the face cap. H~_{k-1}
    needs d_{k-1} and d_k, each built when the next group asks for it. On
    the Smith route the unit pivots of d_{k-1} clear the rows of d_k, which
    are never built. With no (-1)-face, as relative to a star or on a void
    complex, d_0 is zero and is skipped.
    """
    rank_k, cleared = 0, frozenset()
    for k in count():
        if not k and not chains.faces(-1):
            continue
        B = boundary_matrix(chains, k, cleared)
        rank_next, torsion, cleared = _reduce(B.entries, method)
        if k:
            # torsion of H~_{k-1} comes from the boundary out of degree k
            yield HomologyGroup(k - 1, len(B.rows) - rank_k - rank_next, torsion)
        rank_k = rank_next


def reduced_homology(X, max_dim, method="smith", source=""):
    """Reduced homology groups H~_k for 0 <= k <= max_dim.

    method="smith" computes invariant factors, so torsion is exact.
    method="rank" derives Betti numbers from fraction-free rank alone and
    reports no torsion; it exists as an independent cross-check. Where the
    groups reach X.dim, the reduced Euler characteristic must equal the
    alternating sum of Betti numbers, or ArithmeticError is raised.
    """
    if method not in ("smith", "rank"):
        raise ValueError(f"unknown method {method!r}")
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    for k in range(max_dim + 2):
        _check_face_cap(X, k)
    groups = tuple(islice(_homology_groups(X, method), max_dim + 1))
    if not X.is_void and max_dim >= X.dim:
        euler = -1 + sum((-1) ** k * X.face_count(k) for k in range(max_dim + 2))
        # the empty complex has its one group, H~_{-1} = Z, below degree 0
        betti = sum((-1) ** g.dim * g.betti for g in groups) - (not X.vertices)
        if euler != betti:
            raise ArithmeticError(
                f"reduced Euler characteristic {euler} != alternating Betti sum {betti}")
    return HomologyReport(groups=groups, max_dim=max_dim, source=source)


@dataclass(frozen=True)
class ConnectivityBound:
    value: int
    exact: bool

    def describe(self):
        return str(self.value) if self.exact else f"at least {self.value}"


def connectivity_of_complex(X, dim_cap, method="smith"):
    """Homological connectivity computed degree by degree with early exit.

    The groups come from the chain complex relative to the closed star of
    `_apex(X)`, which has them all and fewer faces (see the module
    docstring). method="smith" also sees pure-torsion groups, so its early
    exit is exact; the rank-only variant exists for cross-checks on
    torsion-free complexes. Each degree of the relative basis is checked
    against the face cap, over the facets that miss the apex, just before it
    is built; a degree past the first nonzero group is neither.
    """
    if method not in ("smith", "rank"):
        raise ValueError(f"unknown method {method!r}")
    if dim_cap < -1:
        raise ValueError("dim_cap must be at least -1")
    if X.is_void:
        return ConnectivityBound(dim_cap, False)
    if not X.vertices:
        return ConnectivityBound(-2, True)
    chains = _OutsideStar(X, _apex(X))
    for g in islice(_homology_groups(chains, method), dim_cap + 1):
        if not g.is_zero:
            return ConnectivityBound(g.dim - 1, True)
    return ConnectivityBound(dim_cap, False)
