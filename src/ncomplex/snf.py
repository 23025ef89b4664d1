"""Exact integer linear algebra for sparse matrices.

Two independent routes are kept deliberately separate:

* `smith_normal_form` reduces by unimodular row/column operations. Unit
  pivots eliminate the bulk of a boundary matrix with no divisions: the
  shortest row holding a +-1 entry goes first, pivoting on that entry in
  its sparsest column. Whatever remains, which for torsion-free complexes
  is nothing, Euclid's algorithm brings to a diagonal, and a gcd/lcm pass
  over its pairs puts that in divisibility order. The Smith form is
  unique, so the pivot order changes the cost, not the result. The
  columns of the unit pivots are reported alongside it, for `homology` to
  clear the matching rows of the next boundary. The elimination keeps
  its columns as lists of row indices, not sets: a boundary column holds
  at most k + 1 entries, an empty set already takes 216 bytes against
  about 90 for a short list, and the columns are much of the peak memory
  on the largest boundaries.
* `rank_over_rationals` runs fraction-free cross-multiplication
  elimination, normalizing rows by their gcd to keep entries small.

Everything uses Python integers, so intermediate growth is safe, only slow.
Betti numbers derived from the two routes must agree; tests lean on that
redundancy.
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


def _sparse_from_entries(entries):
    rows = {}
    cols = {}
    for (r, c), v in entries.items():
        if v == 0:
            continue
        row = rows.get(r)
        if row is None:
            rows[r] = row = {}
        row[c] = v
        col = cols.get(c)
        if col is None:
            cols[c] = col = set()
        col.add(r)
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
    operations that would clear the pivot row touch nothing else. The rows
    it clears are visited in no particular order: each update reads only the
    pivot row and writes only its own row, and the heap pops its entries in
    (length, row) order whatever order they were pushed in.
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
        del rows[r]
        # the pivot is its own inverse: adding -pivot * row2[c] times the
        # pivot row to row2 clears row2[c]
        f = -row.pop(c)
        for c2 in row:
            col = cols[c2]
            col.remove(r)
            if not col:
                del cols[c2]
        others = cols.pop(c)
        others.remove(r)
        if others:
            prow = list(row.items())
            for r2 in others:
                row2 = rows[r2]
                factor = f * row2.pop(c)
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
    rows, cols = defaultdict(dict), defaultdict(list)
    for (r, c), v in entries.items():
        if v:
            rows[r][c] = v
            cols[c].append(r)
    rows.default_factory = cols.default_factory = None
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
                mult = b * piv
            else:
                mult = b
                for c2 in row2:
                    row2[c2] *= piv
            # columns outside prow keep their (scaled) entries
            for c2, pv in prow.items():
                if c2 == c:
                    continue
                nv = row2.get(c2, 0) - mult * pv
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
