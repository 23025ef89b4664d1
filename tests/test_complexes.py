from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncomplex.complexes import (
    SimplicialComplex,
    _extension_check,
    certify_connectivity,
    neighborhood_complex,
)
from ncomplex.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    king_graph,
    queen_graph,
    random_chordal_graph,
)
from ncomplex.homology import connectivity_of_complex
from ncomplex.verify import board_removal_order, chordal_shelling_order

from conftest import (
    brute_force_certify,
    common_neighborhood,
    graphs,
    groups_of,
    has_face,
    nerve,
    seeded_graphs,
    suspension,
)

HOLLOW_TRIANGLE = SimplicialComplex([(0, 1), (1, 2), (0, 2)])


def assert_antichain(X):
    for a in X.facets:
        for b in X.facets:
            assert not a < b


def has_full_skeleton(X, ground, k):
    """Is every (k+1)-subset of `ground` a face of X?"""
    return all(has_face(X, s) for s in combinations(sorted(ground), k + 1))


def extension_check(g, v, depth):
    """The extension check of `v` at `depth` within the whole graph."""
    return _extension_check(g, set(range(g.n)), v, depth)


class TestSimplicialComplex:
    def test_rejects_nested_facets(self):
        with pytest.raises(ValueError):
            SimplicialComplex([(0, 1), (0, 1, 2)])

    def test_from_faces_prunes(self):
        X = SimplicialComplex.from_faces([(0, 1), (0, 1, 2), (2,), ()])
        assert X.facets == {frozenset({0, 1, 2})}

    def test_void_versus_empty(self):
        void = SimplicialComplex([])
        empty = SimplicialComplex([()])
        assert void.is_void and not empty.is_void
        assert void.faces(0) == [] and empty.faces(0) == []
        assert empty.faces(-1) == [()]
        assert void.faces(-1) == []

    def test_faces_enumeration(self):
        X = SimplicialComplex([(0, 1, 2)])
        assert X.faces(1) == [(0, 1), (0, 2), (1, 2)]
        assert X.dim == 2

    def test_json_round_trip_and_canonical(self):
        X = SimplicialComplex([(2, 1), (0, 3)])
        Y = SimplicialComplex.from_json(X.to_json())
        assert X == Y
        assert X.to_json() == '{"facets":[[0,3],[1,2]]}'


class TestFaceMemo:
    def test_repeated_calls_agree(self):
        X = neighborhood_complex(queen_graph(3, 3))
        for k in range(-1, X.dim + 2):
            assert X.faces(k) == X.faces(k)
        assert X.face_count(2) == len(X.faces(2))

    def test_returned_list_is_the_callers_own(self):
        X = SimplicialComplex([(0, 1, 2), (2, 3)])
        first = X.faces(1)
        first.append((7, 8))
        first.sort(reverse=True)
        assert X.faces(1) == [(0, 1), (0, 2), (1, 2), (2, 3)]
        X.faces(-1).append((9,))
        assert X.faces(-1) == [()]

    def test_equality_hash_and_repr_ignore_the_memo(self):
        X = SimplicialComplex([(0, 1, 2), (2, 3)])
        Y = SimplicialComplex([(2, 3), (0, 1, 2)])
        before = repr(X)
        for k in range(3):
            X.faces(k)
        assert X == Y and hash(X) == hash(Y)
        assert repr(X) == repr(Y) == before


class TestNeighborhoodComplex:
    def test_complete_graph_sphere_facets(self):
        for p in (3, 4, 5):
            X = neighborhood_complex(complete_graph(p))
            expected = {frozenset(range(p)) - {v} for v in range(p)}
            assert X.facets == expected

    def test_square(self):
        X = neighborhood_complex(cycle_graph(4))
        assert X.facets == {frozenset({0, 2}), frozenset({1, 3})}

    def test_edgeless_graph_gives_empty_complex(self):
        X = neighborhood_complex(Graph(3))
        assert X.facets == {frozenset()}

    @given(graphs(min_n=2, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_operations_preserve_facet_antichain(self, g):
        X = neighborhood_complex(g)
        assert_antichain(X)
        if X.is_void:
            return
        assert_antichain(suspension(X))
        assert_antichain(nerve([g.adjacency[v] for v in range(g.n)]))

    def test_faces_have_common_neighbors(self):
        for g in seeded_graphs(25, 7, seed=3, density=0.5):
            X = neighborhood_complex(g)
            assert_antichain(X)
            for k in range(-1, X.dim + 1):
                for face in X.faces(k):
                    assert common_neighborhood(g, face)
            # and everything with a common neighbor is a face
            for size in range(1, g.n + 1):
                for sub in combinations(range(g.n), size):
                    if common_neighborhood(g, sub):
                        assert has_face(X, sub)


class TestFaceQueries:
    def test_empty_face(self):
        assert has_face(HOLLOW_TRIANGLE, ())
        assert not has_face(SimplicialComplex([]), ())

    def test_facet_is_face(self):
        assert has_face(HOLLOW_TRIANGLE, (0, 1))

    def test_square_has_no_adjacent_pair(self):
        X = neighborhood_complex(cycle_graph(4))
        assert not has_face(X, (0, 1))


class TestNerve:
    def test_matches_neighborhood_complex(self):
        for g in seeded_graphs(20, 7, seed=9, density=0.5):
            family = [g.adjacency[v] for v in range(g.n)]
            assert nerve(family) == neighborhood_complex(g)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundary_of_simplex(self, n):
        ground = list(range(n + 2))
        family = [frozenset(ground) - {i} for i in ground]
        N = nerve(family)
        groups = groups_of(N, n + 1)
        expected = [(0, ())] * n + [(1, ()), (0, ())]
        assert groups == expected

    def test_two_disjoint_sets(self):
        N = nerve([{0, 1}, {2, 3}])
        assert N.facets == {frozenset({0}), frozenset({1})}


class TestSuspension:
    def test_two_points_make_circle(self):
        S0 = SimplicialComplex([(0,), (1,)])
        S1 = suspension(S0)
        assert groups_of(S1, 2) == [(0, ()), (1, ()), (0, ())]

    def test_triangle_to_sphere(self):
        S2 = suspension(HOLLOW_TRIANGLE)
        assert groups_of(S2, 2) == [(0, ()), (0, ()), (1, ())]

    def test_shift_on_pentagon_complex(self):
        X = neighborhood_complex(cycle_graph(5))
        before = groups_of(X, 3)
        after = groups_of(suspension(X), 4)
        assert after[1:] == before
        assert after[0] == (0, ())

    @given(graphs(min_n=2, max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_shift_property(self, g):
        X = neighborhood_complex(g)
        if X.is_void:
            return
        before = groups_of(X, 2)
        after = groups_of(suspension(X), 3)
        assert after[1:] == before

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            suspension(SimplicialComplex([]))


class TestSkeleton:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3), (4, 5), (5, 5)])
    def test_queen_boards_have_full_one_skeleton(self, p, q):
        g = queen_graph(p, q)
        X = neighborhood_complex(g)
        assert has_full_skeleton(X, range(g.n), 1)

    def test_square_lacks_it(self):
        X = neighborhood_complex(cycle_graph(4))
        assert not has_full_skeleton(X, range(4), 1)

    def test_zero_skeleton(self):
        X = neighborhood_complex(cycle_graph(4))
        assert has_full_skeleton(X, range(4), 0)

    def test_full_skeleton_kills_low_homology(self):
        # graphs whose complex has a full 1-skeleton have connected complexes
        for p, q in [(2, 2), (2, 4), (3, 3)]:
            X = neighborhood_complex(queen_graph(p, q))
            assert has_full_skeleton(X, range(p * q), 1)
            assert groups_of(X, 0) == [(0, ())]


class TestExtensionProperty:
    def test_star_center_fails(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert extension_check(g, 0, 0) is False

    def test_twin_always_passes(self):
        # K4 minus a perfect matching: 0,2 and 1,3 are twins
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for depth in range(4):
            assert extension_check(g, 0, depth) is True

    def test_simplicial_vertex_in_connected_chordal(self):
        # a simplicial vertex whose removal keeps the graph n-connected and
        # the chromatic number fixed extends every small neighbor subset
        from ncomplex.chordal import simplicial_vertices
        from ncomplex.connectivity import vertex_connectivity
        from ncomplex.graph import chromatic_number, induced_subgraph

        checked = 0
        for seed in range(1, 12):
            g, _ = random_chordal_graph(3, (4, 5), 2, seed=seed)
            if g.is_complete():
                continue
            n = vertex_connectivity(g).kappa
            chi = chromatic_number(g)
            for v in simplicial_vertices(g):
                rest = [u for u in range(g.n) if u != v]
                sub = induced_subgraph(g, rest)
                if (vertex_connectivity(sub).kappa >= n
                        and chromatic_number(sub) == chi and n >= 1):
                    assert extension_check(g, v, n - 1) is True
                    checked += 1
        assert checked > 5

    def test_critical_size_equals_all_sizes(self):
        # monotonicity: checking only the largest subsets is enough
        for g in seeded_graphs(30, 8, seed=41, density=0.5):
            for v in range(g.n):
                if g.degree(v) > 8:
                    continue
                for depth in (0, 1, 2):
                    fast = extension_check(g, v, depth)
                    nv = sorted(g.adjacency[v])
                    slow = True
                    for size in range(0, min(depth + 1, len(nv)) + 1):
                        for sub in combinations(nv, size):
                            cands = common_neighborhood(g, sub) - {v}
                            if not cands:
                                slow = False
                    assert fast is slow


class TestCertificates:
    def test_boards_certify_level_one(self):
        for gen in (queen_graph, king_graph):
            for m, n in [(2, 3), (3, 3), (4, 3)]:
                g = gen(m, n)
                order = board_removal_order(m, n)
                assert certify_connectivity(g, order, 1) is True
                base = [v for v in range(g.n) if v not in order]
                assert len(base) >= 4
                assert all(g.has_edge(u, v) for u, v in combinations(base, 2))

    def test_one_board_order_certifies_queen_and_king_boards(self):
        # corollary (i): the complexes of queen and king boards are simply
        # connected, here with one removal order for both kinds of board
        for gen in (queen_graph, king_graph):
            for m in range(2, 9):
                for n in range(2, 9):
                    assert certify_connectivity(gen(m, n), board_removal_order(m, n), 1)

    def test_complete_base(self):
        assert certify_connectivity(complete_graph(5), [], 2) is True

    def test_five_cycle_never_certifies(self):
        g = cycle_graph(5)
        for order in ([], [0], [0, 1], [4, 2]):
            assert certify_connectivity(g, order, 1) is False

    def test_base_too_small_rejected(self):
        # base K_3 cannot certify level 1
        assert certify_connectivity(complete_graph(3), [], 1) is False

    def test_certified_graphs_have_vanishing_low_homology(self):
        for m, n in [(2, 3), (3, 3)]:
            g = queen_graph(m, n)
            assert certify_connectivity(g, board_removal_order(m, n), 1) is True
            X = neighborhood_complex(g)
            assert groups_of(X, 1) == [(0, ()), (0, ())]

    def test_repeated_order_rejected(self):
        with pytest.raises(ValueError):
            certify_connectivity(complete_graph(4), [0, 0], 1)

    def test_bad_level_and_vertex_rejected(self):
        with pytest.raises(ValueError):
            certify_connectivity(complete_graph(4), [], -1)
        with pytest.raises(ValueError):
            certify_connectivity(complete_graph(4), [4], 0)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_rebuilt_subgraph_oracle(self, data):
        g = data.draw(graphs(max_n=9))
        k = data.draw(st.integers(0, 2))
        order = data.draw(st.permutations(range(g.n)))
        if data.draw(st.booleans()):
            # a complete base of at least k+3 vertices where the graph has
            # them, so the answer rests on the chain
            order = order[:data.draw(st.integers(0, max(g.n - k - 3, 0)))]
            base = [v for v in range(g.n) if v not in order]
            g = Graph(g.n, g.edges | set(combinations(base, 2)))
        else:
            order = order[:data.draw(st.integers(0, g.n))]
        assert certify_connectivity(g, order, k) is brute_force_certify(g, order, k)

    def test_boards_and_chordal_corpus_match_oracle(self):
        certified = 0
        cases = []
        for gen in (queen_graph, king_graph):
            for m in range(2, 7):
                for n in range(2, 7):
                    cases.append((gen(m, n), board_removal_order(m, n)))
        for seed in range(1, 61):
            g, _ = random_chordal_graph(3, (4, 5), 2, seed=seed)
            if not g.is_complete():
                order = chordal_shelling_order(g)
                if order is not None:
                    cases.append((g, order))
        for g, order in cases:
            for k in (0, 1, 2):
                got = certify_connectivity(g, order, k)
                assert got is brute_force_certify(g, order, k)
                certified += got
        assert certified > 50


class TestPathConnected:
    # a complex is path connected when its connectivity is at least 0
    def test_single_vertex(self):
        assert connectivity_of_complex(SimplicialComplex([(0,)]), 0).value >= 0

    def test_empty_not_connected(self):
        assert connectivity_of_complex(SimplicialComplex([()]), 0).value < 0

    def test_two_components(self):
        assert connectivity_of_complex(SimplicialComplex([(0, 1), (2, 3)]), 0).value < 0
