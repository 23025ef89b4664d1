"""Exact integer linear algebra for sparse matrices.

Both routes hold a matrix as `_sparse` builds it, a dict {column: value}
per row and a list of row indices per column (a boundary column holds at
most k + 1, and a short list takes about 90 bytes to an empty set's 216).
Both visit rows through one lazy heap of (length, row): each elimination
pushes every row it changes again, and an entry whose length no longer
matches its row is skipped. A pivot clears its column's rows in list
order, which is safe: each update reads only the pivot row and writes its
own. `_add_multiple` is the one row update of both routes.

* `smith_normal_form` reduces by unimodular row/column operations. Unit
  pivots eliminate the bulk of a boundary matrix with no divisions: the
  shortest row holding a +-1 entry goes first, pivoting on that entry in
  its sparsest column. Whatever remains, which for torsion-free complexes
  is nothing, Euclid's algorithm brings to a diagonal, and a gcd/lcm pass
  over its pairs puts that in divisibility order. The Smith form is
  unique, so the pivot order changes the cost, not the result. The
  columns of the unit pivots are reported alongside it, for `homology` to
  clear the matching rows of the next boundary.
* `rank_over_rationals` pivots on the shortest row's entry in its
  sparsest column and runs fraction-free cross-multiplication
  elimination, normalizing rows by their gcd to keep entries small.

Everything uses Python integers, so intermediate growth is safe, only slow.
Betti numbers derived from the two routes must agree; tests lean on that
redundancy. The rank route's independence lies in its pivot choice and
arithmetic, and in test oracles that build their own layout.
"""
from __future__ import annotations

import heapq
from collections import defaultdict
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


def _sparse(entries):
    """Row dicts and column lists of a {(row, column): value} matrix, zeros skipped."""
    rows, cols = defaultdict(dict), defaultdict(list)
    for (r, c), v in entries.items():
        if v:
            rows[r][c] = v
            cols[c].append(r)
    rows.default_factory = cols.default_factory = None
    return rows, cols


def _detach(rows, cols, r, c):
    """Drop row r and column c of the matrix; returns the entry (r, c), the
    rest of row r and the other rows of column c."""
    row = rows.pop(r)
    pivot = row.pop(c)
    for c2 in row:
        col = cols[c2]
        col.remove(r)
        if not col:
            del cols[c2]
    others = cols.pop(c)
    others.remove(r)
    return pivot, row, others


def _add_multiple(cols, r2, row2, factor, prow):
    """Add `factor` times the (column, value) pairs `prow` to row r2, held
    in `row2`, in place; r2 joins the column list of each entry that appears
    and leaves that of each that cancels, and an emptied list is deleted."""
    for c2, v2 in prow:
        v = row2.get(c2)
        if v is None:
            row2[c2] = factor * v2
            col = cols.get(c2)
            if col is None:
                cols[c2] = [r2]
            else:
                col.append(r2)
            continue
        v += factor * v2
        if v:
            row2[c2] = v
        else:
            del row2[c2]
            col = cols[c2]
            col.remove(r2)
            if not col:
                del cols[c2]


def _unit_pivot_phase(rows, cols):
    """Eliminate on +-1 pivots; returns the list of pivot columns.

    A row with no +-1 entry is dropped until an elimination changes it, so
    when the heap runs dry no row left holds a +-1 entry. Otherwise the
    pivot is the row's +-1 entry in the sparsest column, ties going to the
    lower column index. Each pivot clears its column by row operations,
    then its row and column are dropped: with the column already zero
    elsewhere, the implicit column operations that would clear the pivot
    row touch nothing else.
    """
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, r = heapq.heappop(heap)
        row = rows.get(r)
        if row is None or len(row) != length:
            continue
        c = None
        for cc, v in row.items():
            if v == 1 or v == -1:
                n = len(cols[cc])
                if c is None or n < best or (n == best and cc < c):
                    best, c = n, cc
        if c is None:
            continue
        pivot, row, others = _detach(rows, cols, r, c)
        if others:
            prow = list(row.items())
            for r2 in others:
                row2 = rows[r2]
                # the pivot is its own inverse: adding -pivot * row2[c] times
                # the pivot row to row2 clears row2[c]
                _add_multiple(cols, r2, row2, -pivot * row2.pop(c), prow)
                if row2:
                    heapq.heappush(heap, (len(row2), r2))
                else:
                    del rows[r2]
        pivots.append(c)
    return pivots


def _classical_invariant_factors(rows):
    """Invariant factors of a small residual matrix, by textbook reduction.

    Euclid on the entry of least magnitude: reducing its row and column by
    division with remainder either clears them, leaving the pivot alone on
    the diagonal, or leaves a smaller remainder to pivot on next. Replacing
    each diagonal pair (d_i, d_j), i < j, by (gcd, lcm) then sorts every
    prime's exponents, so the factors come out in divisibility order.
    """
    cells = {(r, c): v for r, row in rows.items() for c, v in row.items()}

    def subtract(target, q, source):
        # cells[t] -= q * cells[s] for each pair, so zero cells stay absent
        for t, s in zip(target, source):
            nv = cells.get(t, 0) - q * cells[s]
            if nv:
                cells[t] = nv
            else:
                cells.pop(t, None)

    diagonal = []
    while cells:
        (r0, c0), piv = min(cells.items(), key=lambda kv: (abs(kv[1]), kv[0]))
        # row operations leave the pivot row as it is, column operations
        # the pivot column
        line = [c for (r, c) in cells if r == r0]
        for r in [r for (r, c) in cells if c == c0 and r != r0]:
            subtract([(r, c) for c in line], cells[(r, c0)] // piv,
                     [(r0, c) for c in line])
        line = [r for (r, c) in cells if c == c0]
        for c in [c for (r, c) in cells if r == r0 and c != c0]:
            subtract([(r, c) for r in line], cells[(r0, c)] // piv,
                     [(r, c0) for r in line])
        # no cell shares just one of the pivot's row and column
        if all((r == r0) == (c == c0) for (r, c) in cells):
            diagonal.append(abs(piv))
            del cells[(r0, c0)]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] * diagonal[j] // g
    return diagonal


def smith_normal_form(entries):
    """Rank and invariant factors of an integer matrix.

    `entries` maps (row, column) to a nonzero integer; zero rows and columns
    are irrelevant to the result and may be omitted.
    """
    rows, cols = _sparse(entries)
    pivots = _unit_pivot_phase(rows, cols)
    tail = _classical_invariant_factors(rows)
    # a diagonal block of ones prepends cleanly to any divisibility chain
    return SmithForm(len(pivots) + len(tail), (1,) * len(pivots) + tuple(tail),
                     frozenset(pivots))


def rank_over_rationals(entries):
    """Rank by fraction-free elimination, exact over the rationals."""
    rows, cols = _sparse(entries)
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        length, r = heapq.heappop(heap)
        row = rows.get(r)
        if row is None or len(row) != length:
            continue
        c = min(row, key=lambda cc: (len(cols[cc]), cc))
        piv, prow, others = _detach(rows, cols, r, c)
        for r2 in others:
            row2 = rows[r2]
            b = row2.pop(c)
            if piv in (1, -1):
                mult = b * piv
            else:
                mult = b
                for c2 in row2:
                    row2[c2] *= piv
            # columns outside the pivot row keep their (scaled) entries
            _add_multiple(cols, r2, row2, -mult, prow.items())
            if row2:
                g = gcd(*row2.values())
                if g > 1:
                    for c2 in row2:
                        row2[c2] //= g
                heapq.heappush(heap, (len(row2), r2))
            else:
                del rows[r2]
        rank += 1
    return rank
