from itertools import combinations

import pytest

from ncomplex.chordal import (
    cut_apex_property,
    is_chordal,
    is_weakly_triangulated,
    lex_bfs_order,
    maximal_cliques,
    simplicial_vertices,
)
from ncomplex.errors import CapExceededError
from ncomplex.graph import (
    Graph,
    chromatic_number,
    complement,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    queen_graph,
    random_chordal_graph,
)

from conftest import (
    brute_force_maximal_cliques,
    brute_force_min_cuts,
    naive_chordal,
    seeded_graphs,
)


def verify_elimination_order(G, order):
    pos = {v: i for i, v in enumerate(order)}
    adj = G.adjacency
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        for a, b in combinations(later, 2):
            assert b in adj[a], f"later neighbors of {v} not a clique"


def assert_induced_cycle(G, cycle):
    k = len(cycle)
    assert k >= 4
    adj = G.adjacency
    for i, v in enumerate(cycle):
        assert cycle[(i + 1) % k] in adj[v]
    for i, j in combinations(range(k), 2):
        expected = abs(i - j) in (1, k - 1)
        assert (cycle[j] in adj[cycle[i]]) == expected


class TestChordality:
    def test_cycle_not_chordal_with_witness(self):
        res = is_chordal(cycle_graph(4))
        assert not res.chordal
        assert_induced_cycle(cycle_graph(4), res.hole)

    def test_near_complete(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        res = is_chordal(g)
        assert res.chordal
        verify_elimination_order(g, res.elimination_order)

    def test_generator_output_is_chordal(self):
        for seed in range(1, 40):
            g, _ = random_chordal_graph(4, (3, 6), 1, seed=seed)
            res = is_chordal(g)
            assert res.chordal
            verify_elimination_order(g, res.elimination_order)

    def test_long_holes_found(self):
        for k in (5, 6, 8):
            res = is_chordal(cycle_graph(k))
            assert not res.chordal
            assert_induced_cycle(cycle_graph(k), res.hole)

    def test_agrees_with_naive_oracle(self):
        for g in seeded_graphs(120, 8, seed=2, min_n=1, density=0.5):
            assert is_chordal(g).chordal == naive_chordal(g)

    def test_every_hole_witness_is_an_induced_cycle(self):
        found = 0
        for g in seeded_graphs(80, 9, seed=77, density=0.4):
            res = is_chordal(g)
            if not res.chordal:
                assert_induced_cycle(g, res.hole)
                found += 1
        assert found > 20

    def test_lex_bfs_is_permutation(self):
        g = queen_graph(3, 3)
        order = lex_bfs_order(g)
        assert sorted(order) == list(range(g.n))


class TestSimplicialVertices:
    def test_path_endpoints(self):
        assert simplicial_vertices(path_graph(4)) == [0, 3]

    def test_complete(self):
        assert simplicial_vertices(complete_graph(4)) == [0, 1, 2, 3]

    def test_cycle_has_none(self):
        assert simplicial_vertices(cycle_graph(4)) == []


class TestMaximalCliques:
    def test_cycle5_edges(self):
        cliques = maximal_cliques(cycle_graph(5))
        assert all(len(c) == 2 for c in cliques)
        assert len(cliques) == 5

    def test_complete(self):
        assert maximal_cliques(complete_graph(4)) == [frozenset(range(4))]

    def test_against_subset_enumeration(self):
        for g in seeded_graphs(40, 8, seed=13, density=0.5):
            assert maximal_cliques(g) == brute_force_maximal_cliques(g)
        assert maximal_cliques(queen_graph(3, 2)) == brute_force_maximal_cliques(queen_graph(3, 2))


class TestWeakTriangulation:
    def test_c5_fails(self):
        res = is_weakly_triangulated(cycle_graph(5))
        assert not res.holds and res.witness_kind == "cycle"

    def test_c4_passes(self):
        assert is_weakly_triangulated(cycle_graph(4)).holds

    def test_complement_of_long_cycle_fails(self):
        res = is_weakly_triangulated(complement(cycle_graph(6)))
        assert not res.holds and res.witness_kind == "complement-of-cycle"

    def test_chordal_implies_weakly_triangulated(self):
        for seed in range(1, 15):
            g, _ = random_chordal_graph(3, (3, 4), 1, seed=seed)
            if g.n <= 12:
                assert is_weakly_triangulated(g).holds

    def test_cap(self):
        with pytest.raises(CapExceededError):
            is_weakly_triangulated(cycle_graph(17))


class TestCutApexProperty:
    def test_c4(self):
        assert cut_apex_property(cycle_graph(4), {0, 2})

    def test_c6_antipodal_fails(self):
        assert not cut_apex_property(cycle_graph(6), {0, 3})

    def test_not_a_cut_rejected(self):
        with pytest.raises(ValueError):
            cut_apex_property(complete_graph(4), {0})

    def test_chordal_minimal_cuts(self):
        # weakly triangulated theorem instance: chordal graphs qualify
        for seed in range(1, 15):
            g, _ = random_chordal_graph(3, (3, 5), 1, seed=seed)
            if g.is_complete() or not is_connected(g):
                continue
            for cut in brute_force_min_cuts(g):
                assert cut_apex_property(g, cut)


class TestChordalColoring:
    def test_chromatic_equals_clique_number(self):
        for seed in range(1, 30):
            g, _ = random_chordal_graph(4, (3, 6), 1, seed=seed)
            if g.n <= 20:
                assert chromatic_number(g) == max(len(c) for c in maximal_cliques(g))

    def test_min_cuts_of_chordal_graphs_are_cliques(self):
        for seed in range(1, 25):
            g, _ = random_chordal_graph(4, (3, 5), 1, seed=seed)
            if g.is_complete() or not is_connected(g) or g.n > 14:
                continue
            adj = g.adjacency
            for cut in brute_force_min_cuts(g):
                for a, b in combinations(sorted(cut), 2):
                    assert b in adj[a]
