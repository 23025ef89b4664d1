import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncomplex import homology, snf
from ncomplex.complexes import neighborhood_complex
from ncomplex.graph import complete_graph, queen_graph
from ncomplex.homology import boundary_matrix, reduced_homology
from ncomplex.snf import rank_over_rationals, smith_normal_form

from conftest import minors_gcd_smith, reference_smith_normal_form


def entries_of(matrix):
    return {(i, j): v
            for i, row in enumerate(matrix)
            for j, v in enumerate(row) if v}


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    return [[draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def scrambled_diagonals(draw):
    """U * D * V for a diagonal D whose entries share a factor of at least
    2, so no entry is +-1 and the unit pivots leave the whole matrix to the
    residual reduction, and U, V products of elementary row and column
    operations. The entries of D come from products of 2, 3 and 5, so they
    often fail to divide each other and need reordering."""
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 4))
    shared = draw(st.integers(2, 3))
    parts = st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30])
    matrix = [[0] * cols for _ in range(rows)]
    for i in range(min(rows, cols)):
        matrix[i][i] = shared * draw(parts)
    for _ in range(draw(st.integers(0, 8))):
        on_rows = draw(st.booleans())
        i, j = draw(st.permutations(range(rows if on_rows else cols)))[:2]
        q = draw(st.sampled_from([-2, -1, 1, 2]))
        if on_rows:
            matrix[i] = [a + q * b for a, b in zip(matrix[i], matrix[j])]
        else:
            for row in matrix:
                row[i] += q * row[j]
    return matrix


class TestSmithNormalForm:
    def test_diagonal_input(self):
        form = smith_normal_form(entries_of([[2, 0], [0, 6]]))
        assert form.rank == 2 and form.factors == (2, 6)

    def test_rank_deficient(self):
        form = smith_normal_form(entries_of([[1, 1], [1, 1]]))
        assert form.rank == 1 and form.factors == (1,)

    def test_zero_matrix(self):
        form = smith_normal_form({})
        assert form.rank == 0 and form.factors == ()

    def test_swapped_diagonal_needs_reordering(self):
        form = smith_normal_form(entries_of([[6, 0], [0, 2]]))
        assert form.factors == (2, 6)

    def test_classic_torsion_block(self):
        # [[2,0],[0,3]] has factors 1, 6 after recombination
        form = smith_normal_form(entries_of([[2, 0], [0, 3]]))
        assert form.factors == (1, 6)

    def test_unsorted_diagonals(self):
        def diag(*d):
            return {(i, i): v for i, v in enumerate(d)}
        assert smith_normal_form(diag(4, 6, 10)).factors == (2, 2, 60)
        # a gcd/lcm pass over adjacent entries alone would leave (2, 15, 30)
        assert smith_normal_form(diag(6, 10, 15)).factors == (1, 30, 30)

    def test_k4_edge_boundary(self):
        B = boundary_matrix(neighborhood_complex(complete_graph(4)), 1)
        form = smith_normal_form(B.entries)
        assert form.rank == 3
        assert form.factors == (1, 1, 1)

    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_minors_gcd_oracle(self, matrix):
        form = smith_normal_form(entries_of(matrix))
        expected = minors_gcd_smith(matrix)
        assert list(form.factors) == expected

    @given(small_matrices())
    @settings(max_examples=100, deadline=None)
    def test_divisibility_chain(self, matrix):
        form = smith_normal_form(entries_of(matrix))
        factors = form.factors
        assert all(d > 0 for d in factors)
        assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))

    @given(scrambled_diagonals())
    @settings(max_examples=150, deadline=None)
    def test_scrambled_diagonals_against_oracle(self, matrix):
        form = smith_normal_form(entries_of(matrix))
        assert list(form.factors) == minors_gcd_smith(matrix)

    def test_unitless_matrices_against_oracle(self):
        # force the classical tail to do all the work: no +-1 entries at all
        import random
        rng = random.Random(99)
        for _ in range(40):
            rows, cols = rng.randint(2, 5), rng.randint(2, 5)
            matrix = [[rng.choice([0, 2, 3, 4, 6, -2, -4, -6, 9])
                       for _ in range(cols)] for _ in range(rows)]
            form = smith_normal_form(entries_of(matrix))
            assert list(form.factors) == minors_gcd_smith(matrix)


@pytest.fixture
def residuals(monkeypatch):
    """Every residual the unit-pivot phase hands the classical reduction."""
    seen = []
    real = snf._classical_invariant_factors

    def recorded(rows):
        seen.append({r: dict(row) for r, row in rows.items()})
        return real(rows)
    monkeypatch.setattr(snf, "_classical_invariant_factors", recorded)
    return seen


class TestUnitPivotPhase:
    def test_row_gains_a_unit_from_an_elimination(self, residuals):
        # row 0 is visited first and has no unit; pivoting row 1 on column 0
        # turns it into (0, 1), so it must be visited again
        form = smith_normal_form(entries_of([[2, 3], [1, 1]]))
        assert form.factors == (1, 1)
        assert residuals == [{}]

    def test_unit_pivots_then_torsion_residual(self, residuals):
        matrix = [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 6, 0], [1, 0, 0, 4]]
        form = smith_normal_form(entries_of(matrix))
        assert list(form.factors) == minors_gcd_smith(matrix) == [1, 2, 2, 12]
        # the residual's pivots are not unit pivots, so they clear nothing
        assert len(form.unit_pivot_cols) < form.rank
        (residual,) = residuals
        assert residual
        assert not form.unit_pivot_cols & {c for row in residual.values() for c in row}
        assert all(v not in (1, -1) for row in residual.values() for v in row.values())

    def test_queen_boundary_leaves_no_residual(self, residuals):
        # the whole queen 3x5 top boundary goes through unit pivots; work
        # pushed into the classical reduction would be far slower
        B = boundary_matrix(neighborhood_complex(queen_graph(3, 5)), 4)
        form = smith_normal_form(B.entries)
        assert form.rank == rank_over_rationals(B.entries)
        assert residuals == [{}]
        assert len(form.unit_pivot_cols) == form.rank


@st.composite
def unit_rich_matrices(draw):
    """Up to 8x8 with mostly +-1 entries, so that many rows hold several
    unit pivots and the choice among them matters."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    cell = st.sampled_from([0, 0, 0, 1, 1, -1, -1, 2, -3])
    return [[draw(cell) for _ in range(cols)] for _ in range(rows)]


def assert_layout(rows, cols):
    """Each entry (r, c) has r exactly once in cols[c], and each column list
    is non-empty and names only rows that hold its column."""
    for r, row in rows.items():
        for c in row:
            assert cols[c].count(r) == 1
    for c, col in cols.items():
        assert col and all(c in rows[r] for r in col)


any_matrices = st.one_of(unit_rich_matrices(), small_matrices())


class TestSparseLayout:
    @given(any_matrices, st.data())
    @settings(max_examples=200, deadline=None)
    def test_add_multiple_matches_dense_arithmetic(self, matrix, data):
        assume(len(matrix) >= 2)
        r, r2 = data.draw(st.permutations(range(len(matrix))))[:2]
        factor = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        # the pivot row is out of the layout, as `_detach` leaves it
        rows, cols = snf._sparse({(i, j): v for (i, j), v in entries_of(matrix).items()
                                  if i != r})
        row2 = rows.setdefault(r2, {})
        snf._add_multiple(cols, r2, row2, factor,
                          [(j, v) for j, v in enumerate(matrix[r]) if v])
        expected = [list(row) for row in matrix]
        expected[r] = [0] * len(matrix[r])
        expected[r2] = [a + factor * b for a, b in zip(matrix[r2], matrix[r])]
        assert [[rows.get(i, {}).get(j, 0) for j in range(len(row))]
                for i, row in enumerate(matrix)] == expected
        assert 0 not in row2.values()
        assert_layout(rows, cols)

    @given(any_matrices)
    @settings(max_examples=200, deadline=None)
    def test_unit_pivot_phase_keeps_the_layout(self, matrix):
        rows, cols = snf._sparse(entries_of(matrix))
        snf._unit_pivot_phase(rows, cols)
        assert_layout(rows, cols)
        assert all(rows.values())
        # the heap runs dry only when no row holds a unit
        assert all(v not in (1, -1) for row in rows.values() for v in row.values())


def cleared_queen_boundaries():
    """Every Smith input `reduced_homology` builds, rows already cleared,
    for the queen boards 2x5, 3x4 and 4x4 through degree 3."""
    seen = []
    real = homology.smith_normal_form

    def recorded(entries):
        seen.append(entries)
        return real(entries)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "smith_normal_form", recorded)
        for m, n in ((2, 5), (3, 4), (4, 4)):
            reduced_homology(neighborhood_complex(queen_graph(m, n)), 3)
    return seen


class TestAgainstReferenceKernel:
    """The kernel must reproduce the reference's pivots, not just its
    factors: the pivot columns clear the rows of the next boundary."""

    @given(unit_rich_matrices())
    @settings(max_examples=300, deadline=None)
    def test_integer_matrices(self, matrix):
        e = entries_of(matrix)
        assert smith_normal_form(e) == reference_smith_normal_form(e)

    def test_cleared_queen_boundaries(self):
        inputs = cleared_queen_boundaries()
        assert len(inputs) == 15 and sum(map(len, inputs)) > 10_000
        for entries in inputs:
            assert smith_normal_form(entries) == reference_smith_normal_form(entries)


class TestRationalRank:
    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_smith_rank(self, matrix):
        e = entries_of(matrix)
        assert rank_over_rationals(e) == smith_normal_form(e).rank

    def test_invariant_under_scaling(self):
        e = entries_of([[2, 4], [6, 8]])
        scaled = {k: 977 * v for k, v in e.items()}
        assert rank_over_rationals(e) == rank_over_rationals(scaled) == 2

    def test_big_entries_stay_exact(self):
        # fraction-free elimination must not lose exactness to overflow
        e = entries_of([[10**30, 1], [1, 10**30]])
        assert rank_over_rationals(e) == 2
        e = entries_of([[10**15, 1], [10**30, 10**15]])
        assert rank_over_rationals(e) == 1

    def test_queen_boundary_peak(self):
        # 14.9 MiB traced; 30.9 MiB when the rank route kept its columns as
        # sets; the matrix itself is built before tracing starts
        entries = boundary_matrix(neighborhood_complex(queen_graph(4, 6)), 4).entries
        tracemalloc.start()
        try:
            assert rank_over_rationals(entries) == 6773
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 22 * 2**20
