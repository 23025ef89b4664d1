"""Exact integer linear algebra for sparse matrices.

Two independent routes are kept deliberately separate:

* `smith_normal_form` reduces by unimodular row/column operations. Unit
  pivots eliminate the bulk of a boundary matrix with no divisions: the
  shortest row holding a +-1 entry goes first, pivoting on that entry in
  its sparsest column. Whatever remains, which for torsion-free complexes
  is nothing, goes through a classical invariant-factor reduction. The
  Smith form is unique, so the pivot order changes the cost, not the
  result. The columns of the unit pivots are reported alongside it, for
  `homology` to clear the matching rows of the next boundary.
* `rank_over_rationals` runs fraction-free cross-multiplication
  elimination, normalizing rows by their gcd to keep entries small.

Everything uses Python integers, so intermediate growth is safe, only slow.
Betti numbers derived from the two routes must agree; tests lean on that
redundancy.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class SmithForm:
    rank: int
    factors: tuple  # invariant factors d1 | d2 | ... | d_rank, all positive
    # Columns pivoted on a +-1 entry by the unit-pivot phase. Their
    # submatrix, with the pivot rows, is unimodular. This set depends on the
    # pivot order, unlike rank and factors; the classical reduction's
    # pivots are never in it.
    unit_pivot_cols: frozenset = frozenset()


def _sparse_from_entries(entries):
    rows = {}
    cols = {}
    for (r, c), v in entries.items():
        if v == 0:
            continue
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    return rows, cols


def _unit_pivot_phase(rows, cols):
    """Eliminate on +-1 pivots; returns the list of pivot columns.

    A lazy heap of (length, row) visits the shortest row first. An entry
    whose length no longer matches its row is skipped: every elimination
    pushes each row it changes again. A row with no +-1 entry is dropped
    until an elimination changes it, so when the heap runs dry no row left
    holds a +-1 entry. Otherwise the pivot is the row's +-1 entry in the
    sparsest column, ties going to the lower column index.

    Each pivot clears its column by row operations, then its row and column
    are dropped: with the column already zero elsewhere, the implicit column
    operations that would clear the pivot row touch nothing else.
    """
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, r = heapq.heappop(heap)
        row = rows.get(r)
        if row is None or len(row) != length:
            continue
        best = min(((len(cols[cc]), cc) for cc, v in row.items() if v in (1, -1)),
                   default=None)
        if best is None:
            continue
        c = best[1]
        piv = row[c]
        prow = rows.pop(r)
        for c2 in prow:
            cols[c2].discard(r)
            if not cols[c2]:
                del cols[c2]
        for r2 in sorted(cols.pop(c, ())):
            row2 = rows[r2]
            factor = row2.pop(c) * piv
            for c2, v2 in prow.items():
                if c2 == c:
                    continue
                nv = row2.get(c2, 0) - factor * v2
                if nv == 0:
                    if c2 in row2:
                        del row2[c2]
                        cols[c2].discard(r2)
                        if not cols[c2]:
                            del cols[c2]
                else:
                    if c2 not in row2:
                        cols.setdefault(c2, set()).add(r2)
                    row2[c2] = nv
            if row2:
                heapq.heappush(heap, (len(row2), r2))
            else:
                del rows[r2]
        pivots.append(c)
    return pivots


def _classical_invariant_factors(rows):
    """Invariant factors of a small residual matrix, by textbook reduction.

    Repeatedly brings the entry of least magnitude to the pivot, reduces its
    row and column by division with remainder, and folds in any entry the
    pivot fails to divide, so the factors come out in divisibility order.
    """
    cells = {}
    for r, row in rows.items():
        for c, v in row.items():
            cells[(r, c)] = v
    factors = []
    while cells:
        (r0, c0), piv = min(cells.items(), key=lambda kv: (abs(kv[1]), kv[0]))
        if piv < 0:
            for c in [c for (r, c) in cells if r == r0]:
                cells[(r0, c)] = -cells[(r0, c)]
            piv = cells[(r0, c0)]
        col_rest = [r for (r, c) in cells if c == c0 and r != r0]
        row_rest = [c for (r, c) in cells if r == r0 and c != c0]
        dirty = False
        for r in col_rest:
            q = cells[(r, c0)] // piv
            if q:
                for c in [c for (rr, c) in cells if rr == r0]:
                    nv = cells.get((r, c), 0) - q * cells[(r0, c)]
                    if nv:
                        cells[(r, c)] = nv
                    else:
                        cells.pop((r, c), None)
            if (r, c0) in cells:
                dirty = True
        for c in row_rest:
            q = cells[(r0, c)] // piv
            if q:
                for r in [r for (r, cc) in cells if cc == c0]:
                    nv = cells.get((r, c), 0) - q * cells[(r, c0)]
                    if nv:
                        cells[(r, c)] = nv
                    else:
                        cells.pop((r, c), None)
            if (r0, c) in cells:
                dirty = True
        if dirty:
            continue
        # pivot row and column are clear; enforce divisibility of the rest
        offender = next(((r, c) for (r, c), v in cells.items()
                         if (r, c) != (r0, c0) and v % piv != 0), None)
        if offender is not None:
            r1 = offender[0]
            for c in [c for (r, c) in cells if r == r1]:
                cells[(r0, c)] = cells.get((r0, c), 0) + cells[(r1, c)]
                if cells[(r0, c)] == 0:
                    del cells[(r0, c)]
            continue
        factors.append(abs(piv))
        del cells[(r0, c0)]
    return factors


def smith_normal_form(entries):
    """Rank and invariant factors of an integer matrix.

    `entries` maps (row, column) to a nonzero integer; zero rows and columns
    are irrelevant to the result and may be omitted.
    """
    rows, cols = _sparse_from_entries(entries)
    pivots = _unit_pivot_phase(rows, cols)
    tail = _classical_invariant_factors(rows)
    # a diagonal block of ones prepends cleanly to any divisibility chain
    return SmithForm(len(pivots) + len(tail), (1,) * len(pivots) + tuple(tail),
                     frozenset(pivots))


def rank_over_rationals(entries):
    """Rank by fraction-free elimination, exact over the rationals."""
    rows, cols = _sparse_from_entries(entries)
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        nnz, r = heapq.heappop(heap)
        row = rows.get(r)
        if row is None:
            continue
        if len(row) > nnz:
            heapq.heappush(heap, (len(row), r))
            continue
        c = min(row, key=lambda cc: (len(cols[cc]), cc))
        piv = row[c]
        prow = rows.pop(r)
        for c2 in prow:
            cols[c2].discard(r)
            if not cols[c2]:
                del cols[c2]
        for r2 in sorted(cols.pop(c, ())):
            row2 = rows[r2]
            b = row2.pop(c)
            if piv in (1, -1):
                scale, mult = 1, b * piv
            else:
                scale, mult = piv, b
            for c2 in set(row2) | set(prow):
                if c2 == c:
                    continue
                nv = scale * row2.get(c2, 0) - mult * prow.get(c2, 0)
                if nv == 0:
                    if c2 in row2:
                        del row2[c2]
                        cols[c2].discard(r2)
                        if not cols[c2]:
                            del cols[c2]
                else:
                    if c2 not in row2:
                        cols.setdefault(c2, set()).add(r2)
                    row2[c2] = nv
            if row2:
                g = 0
                for v in row2.values():
                    g = gcd(g, v)
                if g > 1:
                    for c2 in row2:
                        row2[c2] //= g
                heapq.heappush(heap, (len(row2), r2))
            else:
                del rows[r2]
        rank += 1
    return rank
