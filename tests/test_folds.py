import pytest
from hypothesis import given, settings

from ncomplex.complexes import neighborhood_complex
from ncomplex.folds import fold_reduction, folds_onto_clique
from ncomplex.graph import Graph, complete_graph, cycle_graph, induced_subgraph, path_graph
from ncomplex.homology import reduced_homology
from ncomplex.verify import counterexample_graph

from conftest import (
    brute_force_isomorphic,
    brute_force_stiff,
    graphs,
    reference_folds_onto_clique,
    reversed_labels,
    seeded_graphs,
)


def _survivors(g, trace):
    """Vertices of g that no step of `trace` removes, ascending."""
    removed = {u for u, _ in trace.steps}
    return tuple(v for v in range(g.n) if v not in removed)


class TestFindFold:
    """The first fold pair of the greedy reduction: the lexicographically
    smallest (u, v) with N(u) a subset of N(v)."""

    def test_square(self):
        assert fold_reduction(cycle_graph(4)).steps[0] == (0, 2)

    def test_five_cycle_stiff(self):
        assert fold_reduction(cycle_graph(5)).steps == ()

    def test_path(self):
        assert fold_reduction(path_graph(3)).steps[0] == (0, 2)

    def test_isolated_vertex_folds_away(self):
        g = Graph(4, [(1, 2), (2, 3), (1, 3)])
        assert fold_reduction(g).steps[0] == (0, 1)

    @given(graphs(min_n=1, max_n=7))
    @settings(max_examples=60)
    def test_returned_pair_dominates(self, g):
        steps = fold_reduction(g).steps
        if not steps:
            assert brute_force_stiff(g)
        else:
            u, v = steps[0]
            assert u != v
            assert g.adjacency[u] <= g.adjacency[v]


class TestFoldReduction:
    def test_square_reduces_to_edge(self):
        trace = fold_reduction(cycle_graph(4))
        assert trace.steps == ((0, 2), (1, 3))
        assert trace.result.n == 2 and trace.result.is_complete()

    def test_complete_graphs_are_stiff(self):
        for p in (1, 2, 4, 6):
            trace = fold_reduction(complete_graph(p))
            assert trace.steps == ()

    def test_counterexample_fixture_status_recorded(self):
        g = counterexample_graph()
        assert (fold_reduction(g).steps == ()) == brute_force_stiff(g)

    @given(graphs(min_n=1, max_n=8))
    @settings(max_examples=50)
    def test_idempotent_and_counts(self, g):
        trace = fold_reduction(g)
        assert trace.result.n + len(trace.steps) == g.n
        assert brute_force_stiff(trace.result)
        again = fold_reduction(trace.result)
        assert again.steps == ()

    def test_two_orders_give_homology_equal_residuals(self):
        for g in seeded_graphs(40, 9, seed=23, density=0.45):
            low = fold_reduction(g).result
            high = fold_reduction(reversed_labels(g)).result
            a = reduced_homology(neighborhood_complex(low), 3)
            b = reduced_homology(neighborhood_complex(high), 3)
            assert [(x.betti, x.torsion) for x in a.groups] == \
                   [(x.betti, x.torsion) for x in b.groups]

    @given(graphs(min_n=1, max_n=8))
    @settings(max_examples=200)
    def test_two_orders_give_isomorphic_residuals(self, g):
        low = fold_reduction(g).result
        high = fold_reduction(reversed_labels(g)).result
        assert brute_force_isomorphic(low, high)

    def test_homology_invariance_small_corpus(self):
        for g in seeded_graphs(25, 9, seed=31, density=0.4):
            trace = fold_reduction(g)
            before = reduced_homology(neighborhood_complex(g), 3)
            after = reduced_homology(neighborhood_complex(trace.result), 3)
            assert [(x.betti, x.torsion) for x in before.groups] == \
                   [(x.betti, x.torsion) for x in after.groups]


def _replay(g, steps):
    """Adjacency left after applying `steps`, each checked to be a fold."""
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    for u, v in steps:
        assert adj[u] <= adj[v] and u != v
        for w in adj[u]:
            adj[w].discard(u)
        del adj[u]
    return adj


class TestFoldsOntoClique:
    def test_already_complete(self):
        trace = folds_onto_clique(complete_graph(4), 4)
        assert trace is not None and trace.steps == ()

    def test_square_onto_edge(self):
        trace = folds_onto_clique(cycle_graph(4), 2)
        assert trace is not None
        assert trace.result.is_complete()

    def test_stiff_cycle_says_no(self):
        assert folds_onto_clique(cycle_graph(5), 2) is None

    def test_unknown_above_cap(self):
        # the decision has no vertex cap
        g = cycle_graph(13)
        assert brute_force_stiff(g)
        assert folds_onto_clique(g, 2) is None

    def test_target_larger_than_graph(self):
        assert folds_onto_clique(cycle_graph(4), 9) is None

    def test_stiff_hexagon_cannot_fold_at_all(self):
        g = cycle_graph(6)
        assert brute_force_stiff(g)
        assert folds_onto_clique(g, 3) is None
        assert folds_onto_clique(g, 2) is None

    def test_exhaustive_search_reaches_intermediate_cliques(self):
        # a triangle with two pendant dominated vertices reaches K_3 midway
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 0), (4, 0)])
        trace = folds_onto_clique(g, 3)
        assert trace is not None
        assert _survivors(g, trace) == (0, 1, 2)

    def test_trace_is_a_valid_fold_sequence(self):
        # K3 with a vertex seeing 0 and 1, and a pendant on that vertex
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (3, 4)])
        trace = folds_onto_clique(g, 3)
        assert trace is not None and len(trace.steps) == 2
        adj = _replay(g, trace.steps)
        assert trace.result == induced_subgraph(g, adj)
        assert all(len(adj[v]) == 2 for v in adj)

    def test_sixteen_vertices_of_pendants_on_a_clique(self):
        g = Graph(16, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                  + [(0, w) for w in range(4, 16)])
        trace = folds_onto_clique(g, 4)
        assert trace is not None and _survivors(g, trace) == (0, 1, 2, 3)
        assert folds_onto_clique(g, 3) is None
        assert folds_onto_clique(g, 5) is None

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            folds_onto_clique(cycle_graph(4), 0)

    @given(graphs(min_n=1, max_n=9))
    @settings(max_examples=80)
    def test_agrees_with_every_fold_sequence(self, g):
        for p in range(1, g.n + 2):
            trace = folds_onto_clique(g, p)
            expected = reference_folds_onto_clique(g, p)
            assert (trace is not None) == (expected is not None), p
            if trace is not None:
                adj = _replay(g, trace.steps)
                assert len(adj) == p
                assert all(len(nbrs) == p - 1 for nbrs in adj.values())
                assert trace.result == induced_subgraph(g, adj)
