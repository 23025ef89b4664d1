import json
import time
import tracemalloc
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncomplex import homology
from ncomplex.complexes import SimplicialComplex, neighborhood_complex
from ncomplex.errors import CapExceededError
from ncomplex.graph import Graph, complete_graph, cycle_graph, mycielskian, queen_graph
from ncomplex.homology import (
    ConnectivityBound,
    boundary_matrix,
    connectivity_of_complex,
    reduced_homology,
)
from ncomplex.snf import smith_normal_form
from ncomplex.verify import random_chordal_corpus

from conftest import (
    complexes,
    graphs,
    groups_of,
    homological_connectivity,
    join,
    rank_mod_p,
    reference_boundary_entries,
    seeded_graphs,
    suspension,
)

HOLLOW_TRIANGLE = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
SOLID_TRIANGLE = SimplicialComplex([(0, 1, 2)])

# six-vertex closed surface with Euler characteristic one: the projective
# plane, whose first homology is pure 2-torsion
PROJECTIVE_PLANE = SimplicialComplex([
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
])


def uncleared_groups(X, max_dim):
    """(betti, torsion) per degree from the Smith forms of the full
    boundaries, reduced one by one with no rows cleared."""
    forms = [smith_normal_form(boundary_matrix(X, k).entries) for k in range(max_dim + 2)]
    return [(X.face_count(k) - forms[k].rank - forms[k + 1].rank,
             tuple(d for d in forms[k + 1].factors if d > 1))
            for k in range(max_dim + 1)]


def excised_groups(X, apex, chains=homology._OutsideStar):
    """(betti, torsion) in degrees 0..dim+1 from the chain complex of X
    relative to the closed star of `apex`."""
    groups = homology._homology_groups(chains(X, apex), "smith")
    return [(g.betti, g.torsion) for g in islice(groups, X.dim + 2)]


class OpenStarOnly:
    """Mutant: excises only the open star, keeping every face that misses
    the apex, the link faces among them."""

    def __init__(self, X, apex):
        self.facets = [sorted(f - {apex}) for f in X.facets]

    def faces(self, k):
        return sorted({s for f in self.facets for s in combinations(f, k + 1)})


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
        assert (len(B.rows), len(B.cols)) == (3, 3)
        from ncomplex.snf import rank_over_rationals
        assert rank_over_rationals(B.entries) == 2

    def test_solid_triangle_top(self):
        B = boundary_matrix(SOLID_TRIANGLE, 2)
        assert (len(B.rows), len(B.cols)) == (3, 1)
        signs = {B.rows[i]: v for (i, _), v in B.entries.items()}
        assert signs == {(1, 2): 1, (0, 2): -1, (0, 1): 1}

    def test_augmentation_row(self):
        B = boundary_matrix(SOLID_TRIANGLE, 0)
        assert B.rows == ((),)
        # combinations(face, 0) yields the empty face once, with sign +1
        assert B.entries == {(0, j): 1 for j in range(3)}

    def test_boundary_squares_to_zero(self):
        for X in (SOLID_TRIANGLE, PROJECTIVE_PLANE,
                  neighborhood_complex(queen_graph(2, 3))):
            for k in range(1, 4):
                assert multiply_is_zero(boundary_matrix(X, k), boundary_matrix(X, k + 1))

    @given(complexes())
    @settings(max_examples=150, deadline=None)
    def test_matches_sliced_reference(self, X):
        for k in range(X.dim + 2):
            assert boundary_matrix(X, k).entries == reference_boundary_entries(X, k)

    @given(complexes(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_cleared_rows_get_no_entries(self, X, rng):
        for k in range(X.dim + 2):
            full = boundary_matrix(X, k)
            cleared = frozenset(rng.sample(range(len(full.rows)),
                                           rng.randint(0, len(full.rows))))
            B = boundary_matrix(X, k, cleared)
            assert (B.rows, B.cols) == (full.rows, full.cols)
            assert B.entries == {(i, j): v for (i, j), v in full.entries.items()
                                 if i not in cleared}

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

    def test_euler_check_trips_on_a_dropped_entry(self, monkeypatch):
        # a point: without its one augmentation entry H~_0 reads Z
        def dropped(X, k, cleared=frozenset()):
            B = boundary_matrix(X, k, cleared)
            entries = dict(B.entries)
            if entries:
                del entries[min(entries)]
            return homology.BoundaryMatrix(B.dim, B.rows, B.cols, entries)
        monkeypatch.setattr(homology, "boundary_matrix", dropped)
        with pytest.raises(ArithmeticError, match="Euler"):
            reduced_homology(SimplicialComplex([(0,)]), 0)

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

    def test_large_max_dim_stays_linear(self):
        # a degree with no faces builds no sign list: 9.8 s at this size
        # when each built one of k + 1 entries
        t0 = time.time()
        rep = reduced_homology(neighborhood_complex(cycle_graph(5)), 20_000)
        elapsed = time.time() - t0
        assert len(rep.groups) == 20_001
        assert all(g.is_zero for g in rep.groups[2:])
        assert elapsed < 3

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
        chordal = [g for _, g in random_chordal_corpus(30, 1)]
        for g in seeded_graphs(20, 8, seed=19, density=0.5) + chordal:
            X = neighborhood_complex(g)
            rep = reduced_homology(X, 3)
            assert connectivity_of_complex(X, 3) == homological_connectivity(X, rep)

    def test_torsion_detected_by_scan(self):
        bound = connectivity_of_complex(PROJECTIVE_PLANE, 2)
        assert bound == ConnectivityBound(0, True)

    @pytest.mark.parametrize("suspensions", [0, 1, 2])
    def test_projective_plane_torsion_through_the_scan(self, suspensions):
        X = PROJECTIVE_PLANE
        for _ in range(suspensions):
            X = suspension(X)
        assert connectivity_of_complex(X, 4) == ConnectivityBound(suspensions, True)
        assert connectivity_of_complex(X, 4, method="rank") == ConnectivityBound(4, False)
        full = groups_of(X, X.dim + 1)
        for w in sorted(X.vertices):
            assert excised_groups(X, w) == full

    def test_unknown_method_is_refused_up_front(self):
        # each of these connectivity calls returns before any boundary is
        # reduced, so a check left to the reduction never sees the method
        for X, cap in ((SimplicialComplex([(0, 1)]), -1),
                       (SimplicialComplex([]), 2), (SimplicialComplex([()]), 2)):
            with pytest.raises(ValueError, match="unknown method 'bogus'"):
                connectivity_of_complex(X, cap, method="bogus")
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            reduced_homology(SimplicialComplex([(0, 1)]), 1, method="bogus")

    def test_dim_cap_below_minus_one_is_refused(self):
        X = SimplicialComplex([(0, 1)])
        with pytest.raises(ValueError, match="dim_cap"):
            connectivity_of_complex(X, -2)
        assert connectivity_of_complex(X, -1) == ConnectivityBound(-1, False)


class TestExcision:
    @given(complexes())
    @settings(max_examples=150, deadline=None)
    def test_every_apex_gives_the_full_groups(self, X):
        full = groups_of(X, X.dim + 1)
        for w in sorted(X.vertices):
            assert excised_groups(X, w) == full

    def test_excising_only_the_open_star_fails(self):
        # X - w keeps lk w, so it is not the pair (X, st w): the hollow
        # triangle less a vertex is an edge, and RP^2 less one is a Moebius band
        for X in (HOLLOW_TRIANGLE, PROJECTIVE_PLANE, suspension(PROJECTIVE_PLANE)):
            full = groups_of(X, X.dim + 1)
            assert excised_groups(X, min(X.vertices)) == full
            assert excised_groups(X, min(X.vertices), OpenStarOnly) != full

    def test_apex_weighs_facets_by_their_faces(self):
        # vertex 0 lies in two edges (4 + 4), vertex 1 in a triangle and an
        # edge (8 + 4): counting facets would tie them and take vertex 0
        X = SimplicialComplex([(0, 4), (0, 5), (1, 2, 3), (1, 6)])
        assert homology._apex(X) == 1
        # ties go to the lowest vertex
        assert homology._apex(HOLLOW_TRIANGLE) == 0

    @given(complexes())
    @settings(max_examples=150, deadline=None)
    def test_relative_faces_miss_the_closed_star(self, X):
        for w in sorted(X.vertices):
            chains = homology._OutsideStar(X, w)
            for k in range(-1, X.dim + 2):
                assert chains.faces(k) == [f for f in X.faces(k)
                                           if not any(set(f) | {w} <= g for g in X.facets)]

    def test_no_boundary_out_of_degree_zero_without_an_empty_face(self, monkeypatch):
        built = []

        def recorded(X, k, cleared=frozenset()):
            built.append(k)
            return boundary_matrix(X, k, cleared)
        monkeypatch.setattr(homology, "boundary_matrix", recorded)
        X = neighborhood_complex(cycle_graph(5))
        reduced_homology(X, 1)
        assert built == [0, 1, 2]
        # relative to the star there is no (-1)-face: d_0 is zero
        built.clear()
        assert connectivity_of_complex(X, 1) == ConnectivityBound(0, True)
        assert built == [1, 2]

    def test_the_scan_enumerates_only_through_the_far_complex(self, monkeypatch):
        queried = []
        faces = SimplicialComplex.faces

        def recorded(self, k):
            queried.append((self.facets, k))
            return faces(self, k)
        monkeypatch.setattr(SimplicialComplex, "faces", recorded)
        X = neighborhood_complex(cycle_graph(5))
        assert connectivity_of_complex(X, 1) == ConnectivityBound(0, True)
        # apex 0 lies in N(1) and N(4); N(0), N(2) and N(3) miss it, and their
        # complex is asked once per degree, the scan's own faces coming from it
        far = frozenset(map(frozenset, [(1, 4), (1, 3), (2, 4)]))
        assert queried == [(far, k) for k in (-1, 0, 1, 2)]


class TestFaceCapOfTheScan:
    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(homology, "FACE_CAP", 30)

    def test_refuses_the_first_degree_over_the_cap(self):
        # the boundary of the 9-vertex simplex: apex 0 leaves one far facet,
        # an 8-vertex simplex with 8, 28 and 56 faces in degrees 0, 1, 2
        X = SimplicialComplex(combinations(range(9), 8))
        with pytest.raises(CapExceededError, match="degree 2 may have up to 56 faces"):
            connectivity_of_complex(X, 3)

    def test_a_cone_has_no_faces_to_cap(self):
        # every facet of a simplex holds the apex, so the relative basis is
        # empty in every degree, though X has 56 faces in degree 2
        X = SimplicialComplex([range(8)])
        assert connectivity_of_complex(X, 3) == ConnectivityBound(3, False)
        with pytest.raises(CapExceededError, match="degree 2 may have up to 56 faces"):
            reduced_homology(X, 3)

    def test_queen_7x8_is_capped_on_the_facets_that_miss_the_apex(self, monkeypatch):
        monkeypatch.setattr(homology, "FACE_CAP", 181_652)
        X = neighborhood_complex(queen_graph(7, 8))
        chains = homology._OutsideStar(X, homology._apex(X))
        with pytest.raises(CapExceededError, match="degree 3 may have up to 351708 faces"):
            homology._check_face_cap(X, 3)
        homology._check_face_cap(chains, 3)
        monkeypatch.setattr(homology, "FACE_CAP", 181_651)
        with pytest.raises(CapExceededError, match="degree 3 may have up to 181652 faces"):
            homology._check_face_cap(chains, 3)
        # the bounds read facets alone: neither enumerates a face
        assert not X._faces and not chains._faces

    def test_degrees_past_an_early_exit_are_not_checked(self):
        # apex 0 leaves the far facet range(6, 12): degree 1 is bounded by 15
        # and H~_0 = Z stops the scan there, so degree 2 is never looked at;
        # reduced_homology bounds degree 2 on all of X by 40
        X = SimplicialComplex([range(6), range(6, 12)])
        assert connectivity_of_complex(X, 3) == ConnectivityBound(-1, True)
        with pytest.raises(CapExceededError, match="degree 2 may have up to 40 faces"):
            reduced_homology(X, 1)
        # apex 7 leaves the far facet range(7), with 21 faces in degree 1 and
        # 35 in degree 2: the scan stops before the bound it would refuse
        Y = SimplicialComplex([range(7), range(7, 15)])
        assert homology._apex(Y) == 7
        assert connectivity_of_complex(Y, 3) == ConnectivityBound(-1, True)


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


class TestMemory:
    def test_queen_report_peak(self):
        # 17.6 MiB traced; 32.2 MiB when the Smith route still built the
        # cleared rows and kept its elimination columns as sets
        tracemalloc.start()
        try:
            reduced_homology(neighborhood_complex(queen_graph(4, 6)), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


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


def incidence_graph(K):
    """The vertices and facets of K, with v ~ F when v lies in F. Its
    neighbourhood complex is K disjoint from the nerve of K's facets, so it
    has the homology of two copies of K."""
    vertices = sorted(K.vertices)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    facets = sorted(sorted(f) for f in K.facets)
    return Graph(n + len(facets),
                 [(index[v], n + j) for j, f in enumerate(facets) for v in f])


def assert_universal_coefficients(X, report, p):
    """dim H~_k(X; F_p) = betti_k + t_k(p) + t_{k-1}(p) in each degree of
    the report, with t_k(p) the number of invariant factors of H~_k that p
    divides (Hatcher 2002, Cor. 3A.6). The left side comes from ranks over
    GF(p) of the reference boundaries, with no Smith form."""
    top = report.max_dim
    ranks = [rank_mod_p(reference_boundary_entries(X, k), p) for k in range(top + 2)]
    divisible = [sum(d % p == 0 for d in g.torsion) for g in report.groups]
    for k, g in enumerate(report.groups):
        below = divisible[k - 1] if k else 0
        assert X.face_count(k) - ranks[k] - ranks[k + 1] == g.betti + divisible[k] + below


INCIDENCE_RP2 = neighborhood_complex(incidence_graph(PROJECTIVE_PLANE))


class TestTorsionModP:
    """The Smith route's torsion against ranks over GF(p), by universal
    coefficients: the rank route sees no torsion, so this is its only
    independent check on complexes larger than the minors oracle reaches."""

    TORSION = [
        (INCIDENCE_RP2, INCIDENCE_RP2.dim,
         [(1, ()), (0, (2, 2)), (0, ()), (0, ()), (0, ())]),
        (neighborhood_complex(mycielskian(incidence_graph(PROJECTIVE_PLANE))), 2,
         [(0, ()), (1, ()), (0, (2, 2))]),
        (suspension(PROJECTIVE_PLANE), 3, [(0, ()), (0, ()), (0, (2,)), (0, ())]),
        (suspension(suspension(PROJECTIVE_PLANE)), 4,
         [(0, ()), (0, ()), (0, ()), (0, (2,)), (0, ())]),
        # Kunneth for joins: Z/2 (x) Z/2 in degree 1 + 1 + 1, Tor(Z/2, Z/2) one higher
        (join(PROJECTIVE_PLANE, PROJECTIVE_PLANE), 5,
         [(0, ()), (0, ()), (0, ()), (0, (2,)), (0, (2,)), (0, ())]),
    ]

    @pytest.mark.parametrize("X, top, expected", TORSION, ids=[
        "incidence", "mycielskian", "suspension", "double-suspension", "join"])
    def test_torsion_complexes(self, X, top, expected):
        report = reduced_homology(X, top)
        assert [(g.betti, g.torsion) for g in report.groups] == expected
        for p in (2, 3, 5):
            assert_universal_coefficients(X, report, p)
        relative = homology._homology_groups(homology._OutsideStar(X, homology._apex(X)),
                                             "smith")
        assert tuple(islice(relative, top + 1)) == report.groups

    @given(complexes())
    @settings(max_examples=50, deadline=None)
    def test_random_complexes(self, X):
        report = reduced_homology(X, X.dim)
        for p in (2, 3, 5):
            assert_universal_coefficients(X, report, p)
