import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncomplex import homology
from ncomplex.complexes import SimplicialComplex, neighborhood_complex, suspension
from ncomplex.errors import CapExceededError
from ncomplex.graph import complete_graph, cycle_graph, queen_graph
from ncomplex.homology import (
    ConnectivityBound,
    boundary_matrix,
    connectivity_of_complex,
    reduced_homology,
)
from ncomplex.snf import smith_normal_form

from conftest import complexes, graphs, homological_connectivity, seeded_graphs

HOLLOW_TRIANGLE = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
SOLID_TRIANGLE = SimplicialComplex([(0, 1, 2)])

# six-vertex closed surface with Euler characteristic one: the projective
# plane, whose first homology is pure 2-torsion
PROJECTIVE_PLANE = SimplicialComplex([
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
])


def groups_of(X, max_dim, method="smith"):
    rep = reduced_homology(X, max_dim, method=method)
    return [(g.betti, g.torsion) for g in rep.groups]


def uncleared_groups(X, max_dim):
    """(betti, torsion) per degree from the Smith forms of the full
    boundaries, reduced one by one with no rows cleared."""
    forms = [smith_normal_form(boundary_matrix(X, k).entries) for k in range(max_dim + 2)]
    return [(X.face_count(k) - forms[k].rank - forms[k + 1].rank,
             tuple(d for d in forms[k + 1].factors if d > 1))
            for k in range(max_dim + 1)]


@pytest.fixture
def smith_calls(monkeypatch):
    """(entries, form) of every Smith reduction `homology` makes."""
    seen = []

    def recorded(entries):
        form = smith_normal_form(entries)
        seen.append((entries, form))
        return form
    monkeypatch.setattr(homology, "smith_normal_form", recorded)
    return seen


def multiply_is_zero(A, B):
    """Check composition A o B == 0 for consecutive boundary matrices."""
    rows = {}
    for (i, j), v in A.entries.items():
        rows.setdefault(i, {})[j] = v
    cols = {}
    for (j, l), v in B.entries.items():
        cols.setdefault(l, {})[j] = v
    for l, col in cols.items():
        for i, row in rows.items():
            total = sum(row.get(j, 0) * col[j] for j in col)
            if total != 0:
                return False
    return True


class TestBoundaryMatrix:
    def test_hollow_triangle_edge_matrix(self):
        B = boundary_matrix(HOLLOW_TRIANGLE, 1)
        assert B.shape() == (3, 3)
        from ncomplex.snf import rank_over_rationals
        assert rank_over_rationals(B.entries) == 2

    def test_solid_triangle_top(self):
        B = boundary_matrix(SOLID_TRIANGLE, 2)
        assert B.shape() == (3, 1)
        signs = {B.rows[i]: v for (i, _), v in B.entries.items()}
        assert signs == {(1, 2): 1, (0, 2): -1, (0, 1): 1}

    def test_augmentation_row(self):
        B = boundary_matrix(SOLID_TRIANGLE, 0)
        assert B.rows == ((),)
        assert all(v == 1 for v in B.entries.values())

    def test_boundary_squares_to_zero(self):
        for X in (SOLID_TRIANGLE, PROJECTIVE_PLANE,
                  neighborhood_complex(queen_graph(2, 3))):
            for k in range(1, 4):
                assert multiply_is_zero(boundary_matrix(X, k), boundary_matrix(X, k + 1))

    @given(graphs(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_boundary_squares_to_zero_random(self, g):
        X = neighborhood_complex(g)
        assert multiply_is_zero(boundary_matrix(X, 1), boundary_matrix(X, 2))
        assert multiply_is_zero(boundary_matrix(X, 2), boundary_matrix(X, 3))


class TestReducedHomology:
    def test_hollow_triangle_is_circle(self):
        assert groups_of(HOLLOW_TRIANGLE, 2) == [(0, ()), (1, ()), (0, ())]

    def test_solid_triangle_contractible(self):
        assert groups_of(SOLID_TRIANGLE, 2) == [(0, ()), (0, ()), (0, ())]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_complete_graph_complex_is_sphere(self, p):
        X = neighborhood_complex(complete_graph(p))
        groups = groups_of(X, p - 1)
        for k, g in enumerate(groups):
            assert g == ((1, ()) if k == p - 2 else (0, ()))

    def test_queen_2x2(self):
        X = neighborhood_complex(queen_graph(2, 2))
        assert groups_of(X, 3) == [(0, ()), (0, ()), (1, ()), (0, ())]

    def test_queen_3x5(self):
        X = neighborhood_complex(queen_graph(3, 5))
        assert groups_of(X, 3) == [(0, ()), (0, ()), (0, ()), (11, ())]

    def test_projective_plane_torsion(self):
        assert groups_of(PROJECTIVE_PLANE, 2) == [(0, ()), (0, (2,)), (0, ())]

    def test_disconnected_complex(self):
        X = neighborhood_complex(cycle_graph(4))
        assert groups_of(X, 1) == [(1, ()), (0, ())]

    def test_empty_complex_all_zero(self):
        X = SimplicialComplex([()])
        assert groups_of(X, 2) == [(0, ())] * 3

    def test_methods_agree(self):
        for g in seeded_graphs(25, 8, seed=7, density=0.5):
            X = neighborhood_complex(g)
            smith = groups_of(X, 3)
            rank = groups_of(X, 3, method="rank")
            assert [b for b, _ in smith] == [b for b, _ in rank]

    def test_euler_characteristic(self):
        for X in (HOLLOW_TRIANGLE, SOLID_TRIANGLE, PROJECTIVE_PLANE,
                  neighborhood_complex(queen_graph(2, 4)),
                  neighborhood_complex(cycle_graph(5))):
            top = X.dim
            rep = reduced_homology(X, top)
            alternating_faces = sum((-1) ** k * X.face_count(k) for k in range(top + 1))
            alternating_betti = sum((-1) ** g.dim * g.betti for g in rep.groups)
            assert alternating_faces == 1 + alternating_betti

    def test_suspension_shift_with_torsion(self):
        before = groups_of(PROJECTIVE_PLANE, 2)
        after = groups_of(suspension(PROJECTIVE_PLANE), 3)
        assert after[1:] == before and after[0] == (0, ())

    def test_queen_board_symmetry(self):
        # transposing the board leaves the homology untouched
        for m, n in [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]:
            a = groups_of(neighborhood_complex(queen_graph(m, n)), 3)
            b = groups_of(neighborhood_complex(queen_graph(n, m)), 3)
            assert a == b

    def test_report_json_contract(self):
        rep = reduced_homology(neighborhood_complex(queen_graph(2, 2)), 3, source="q22")
        payload = json.loads(rep.to_json())
        assert set(payload) == {"complex", "groups", "max_dim"}
        assert payload["complex"] == "q22"
        assert payload["max_dim"] == 3
        assert payload["groups"][2] == {"dim": 2, "betti": 1, "torsion": []}
        dims = [g["dim"] for g in payload["groups"]]
        assert dims == sorted(dims)


class TestConnectivity:
    def test_queen_2x2(self):
        bound = connectivity_of_complex(neighborhood_complex(queen_graph(2, 2)), 3)
        assert bound == ConnectivityBound(1, True)

    def test_disconnected(self):
        bound = connectivity_of_complex(neighborhood_complex(cycle_graph(4)), 2)
        assert bound == ConnectivityBound(-1, True)

    def test_complete_graph_value(self):
        bound = connectivity_of_complex(neighborhood_complex(complete_graph(5)), 3)
        assert bound == ConnectivityBound(2, True)

    def test_saturated_report(self):
        bound = connectivity_of_complex(SOLID_TRIANGLE, 2)
        assert bound == ConnectivityBound(2, False)
        assert bound.describe() == "at least 2"

    def test_empty_complex(self):
        assert connectivity_of_complex(SimplicialComplex([()]), 1) == ConnectivityBound(-2, True)

    def test_incremental_matches_full(self):
        for g in seeded_graphs(20, 8, seed=19, density=0.5):
            X = neighborhood_complex(g)
            rep = reduced_homology(X, 3)
            assert connectivity_of_complex(X, 3) == homological_connectivity(rep)

    def test_torsion_detected_by_scan(self):
        bound = connectivity_of_complex(PROJECTIVE_PLANE, 2)
        assert bound == ConnectivityBound(0, True)


class TestFaceCapOfTheScan:
    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(homology, "FACE_CAP", 30)

    def test_refuses_the_first_degree_over_the_cap(self):
        # the 8-vertex simplex has 8, 28 and 56 faces in degrees 0, 1, 2
        with pytest.raises(CapExceededError, match="degree 2 may have up to 56 faces"):
            connectivity_of_complex(SimplicialComplex([range(8)]), 3)

    def test_degrees_past_an_early_exit_are_not_checked(self):
        # degree 1 is bounded by 30 and H~_0 = Z stops the scan there, so the
        # degree 2 bound of 40 is never looked at
        X = SimplicialComplex([range(6), range(6, 12)])
        assert connectivity_of_complex(X, 3) == ConnectivityBound(-1, True)
        with pytest.raises(CapExceededError, match="degree 2 may have up to 40 faces"):
            reduced_homology(X, 1)


class TestClearing:
    def test_queen_top_boundary_keeps_only_uncleared_rows(self, smith_calls):
        X = neighborhood_complex(queen_graph(3, 5))
        reduced_homology(X, 3)
        assert len(smith_calls) == 5
        for _, form in smith_calls:
            # torsion-free: every pivot is a unit pivot
            assert len(form.unit_pivot_cols) == form.rank
        d4_input = smith_calls[4][0]
        d3_form = smith_calls[3][1]
        rows = {r for r, _ in d4_input}
        assert len(rows) == X.face_count(3) - d3_form.rank
        assert not rows & d3_form.unit_pivot_cols
        assert smith_calls[4][1].rank == smith_normal_form(boundary_matrix(X, 4).entries).rank

    @pytest.mark.parametrize("suspensions", [0, 1, 2])
    def test_projective_plane_keeps_its_torsion(self, smith_calls, suspensions):
        X = PROJECTIVE_PLANE
        for _ in range(suspensions):
            X = suspension(X)
        top = 2 + suspensions
        groups = groups_of(X, top)
        assert groups[1 + suspensions] == (0, (2,))
        assert all(g == (0, ()) for k, g in enumerate(groups) if k != 1 + suspensions)
        assert groups == uncleared_groups(X, top)
        # the boundary carrying the torsion did lose rows to clearing
        entries, _ = smith_calls[2 + suspensions]
        assert len({r for r, _ in entries}) < X.face_count(1 + suspensions)


class TestCrossRoute:
    @given(complexes())
    @settings(max_examples=150, deadline=None)
    def test_cleared_smith_matches_uncleared_reference(self, X):
        top = X.dim + 1
        groups = groups_of(X, top)
        assert groups == uncleared_groups(X, top)
        assert [b for b, _ in groups] == [b for b, _ in groups_of(X, top, method="rank")]

    @given(complexes(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_vertex_relabelling(self, X, rng):
        labels = sorted(X.vertices)
        image = rng.sample(range(3 * len(labels)), len(labels))
        relabel = dict(zip(labels, image))
        Y = SimplicialComplex([{relabel[v] for v in f} for f in X.facets])
        assert groups_of(Y, X.dim + 1) == groups_of(X, X.dim + 1)

    @given(complexes(max_n=6))
    @settings(max_examples=100, deadline=None)
    def test_suspension_shifts_up_one_degree(self, X):
        top = X.dim + 1
        lifted = groups_of(suspension(X), top + 1)
        assert lifted[0] == (0, ()) and lifted[1:] == groups_of(X, top)
