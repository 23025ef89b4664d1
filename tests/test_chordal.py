from itertools import combinations

import pytest
from hypothesis import given, settings

from ncomplex import chordal
from ncomplex.chordal import (
    cut_apex_property,
    is_chordal,
    is_weakly_triangulated,
    maximal_cliques,
    simplicial_vertices,
)
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
from ncomplex.verify import random_chordal_corpus

from conftest import (
    brute_force_maximal_cliques,
    brute_force_min_cuts,
    brute_force_weakly_triangulated,
    graphs,
    naive_chordal,
    seeded_graphs,
)


def assert_induced_cycle(G, cycle):
    k = len(cycle)
    assert k >= 4
    adj = G.adjacency
    for i, v in enumerate(cycle):
        assert cycle[(i + 1) % k] in adj[v]
    for i, j in combinations(range(k), 2):
        expected = abs(i - j) in (1, k - 1)
        assert (cycle[j] in adj[cycle[i]]) == expected


def check_weak_triangulation(G):
    """Compare with the exhaustive scan and check any witness; the answer."""
    res = is_weakly_triangulated(G)
    assert res.holds == brute_force_weakly_triangulated(G)
    if not res.holds:
        host = {"cycle": G, "complement-of-cycle": complement(G)}[res.witness_kind]
        assert len(res.witness) >= 5
        assert_induced_cycle(host, res.witness)
    return res.holds


class TestChordality:
    def test_cycle_not_chordal_with_witness(self):
        res = is_chordal(cycle_graph(4))
        assert not res.chordal
        assert_induced_cycle(cycle_graph(4), res.hole)

    def test_near_complete(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        res = is_chordal(g)
        assert res.chordal and res.hole is None

    def test_generator_output_is_chordal(self):
        for seed in range(1, 40):
            g, _ = random_chordal_graph(4, (3, 6), 1, seed=seed)
            res = is_chordal(g)
            assert res.chordal and res.hole is None

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

    @given(graphs(max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_hole_search_agrees_with_naive_oracle(self, g):
        res = is_chordal(g)
        assert res.chordal == naive_chordal(g)
        if res.hole is not None:
            assert_induced_cycle(g, res.hole)


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
        # Hayward 1985, also on graphs past the exhaustive scan's reach (up
        # to 23 vertices): it cross-checks the length-4 and length-5 searches
        corpus = [random_chordal_graph(3, (3, 4), 1, seed=s)[0] for s in range(1, 15)]
        corpus += [g for _, g in random_chordal_corpus(200, 1)]
        corpus += [random_chordal_graph(3, (4, 5), 2, seed=s)[0] for s in range(1, 61)]
        for g in corpus:
            assert is_chordal(g).chordal and is_weakly_triangulated(g).holds

    def test_complement_built_only_without_a_long_hole(self, monkeypatch):
        def refuse(G):
            raise AssertionError("complement built though G has a long hole")

        monkeypatch.setattr(chordal, "complement", refuse)
        res = is_weakly_triangulated(cycle_graph(7))
        assert not res.holds and res.witness_kind == "cycle"
        assert_induced_cycle(cycle_graph(7), res.witness)

    def test_cap(self):
        # no vertex cap: long holes are found, large chordal graphs pass
        res = is_weakly_triangulated(cycle_graph(17))
        assert not res.holds and res.witness_kind == "cycle"
        assert len(res.witness) == 17
        assert_induced_cycle(cycle_graph(17), res.witness)
        g, _ = random_chordal_graph(6, (4, 6), 1, seed=3)
        assert g.n > 16 and is_weakly_triangulated(g).holds

    @given(graphs(max_n=9))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_exhaustive_scan(self, g):
        check_weak_triangulation(g)

    def test_agrees_with_exhaustive_scan_on_seeded_corpus(self):
        answers = [check_weak_triangulation(g)
                   for density in (0.3, 0.5, 0.7)
                   for g in seeded_graphs(100, 11, seed=int(density * 100),
                                          min_n=1, density=density)]
        assert answers.count(False) > 30 and answers.count(True) > 30


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
