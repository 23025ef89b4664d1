import random
from itertools import combinations

import pytest
from hypothesis import given, settings

import ncomplex.connectivity
from ncomplex.connectivity import (
    CutReport,
    _max_flow,
    cut_components,
    vertex_connectivity,
)
from ncomplex.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_connected,
    king_graph,
    mycielskian,
    path_graph,
    queen_graph,
    random_chordal_graph,
)
from ncomplex.verify import counterexample_graph

from conftest import (
    brute_force_kappa,
    brute_force_min_cuts,
    brute_force_min_separator,
    graphs,
    per_pair_vertex_connectivity,
    reference_flow,
    reference_vertex_connectivity,
    seeded_graphs,
)


def closed_neighbourhoods(G):
    return [sorted(a | {v}) for v, a in enumerate(G.adjacency)]


def flow_value(G, s, t):
    """Size of a maximum family of internally disjoint paths between
    non-adjacent s and t, from the library's uncapped flow."""
    return _max_flow(G, closed_neighbourhoods(G), s, t, G.n)[0]


class TestVertexConnectivity:
    def test_complete_graph_convention(self):
        rep = vertex_connectivity(complete_graph(4))
        assert rep.kappa == 3 and rep.witness_cut is None
        assert vertex_connectivity(complete_graph(1)).kappa == 0

    def test_cycles(self):
        for k in (4, 5, 7):
            rep = vertex_connectivity(cycle_graph(k))
            assert rep.kappa == 2
            rest = [v for v in range(k) if v not in rep.witness_cut]
            assert not is_connected(induced_subgraph(cycle_graph(k), rest))

    def test_counterexample_fixture_cut_vertex(self):
        G = counterexample_graph()
        rep = vertex_connectivity(G)
        assert rep.kappa == 1
        # single-vertex removal scan shows vertex 1 is the only cut vertex
        cut_vertices = []
        for v in range(G.n):
            rest = [u for u in range(G.n) if u != v]
            if not is_connected(induced_subgraph(G, rest)):
                cut_vertices.append(v)
        assert cut_vertices == [1]
        assert rep.witness_cut == {1}

    def test_agrees_with_brute_force(self):
        for g in seeded_graphs(200, 12, seed=3, min_n=2, density=0.45):
            assert vertex_connectivity(g).kappa == brute_force_kappa(g)

    def test_witness_cut_disconnects_and_smaller_sets_do_not(self):
        corpus = seeded_graphs(20, 9, seed=21, density=0.4, connected=True)
        corpus += seeded_graphs(6, 14, seed=43, min_n=11, density=0.3, connected=True)
        for g in corpus:
            rep = vertex_connectivity(g)
            if rep.witness_cut is None:
                continue
            assert len(rep.witness_cut) == rep.kappa
            rest = [v for v in range(g.n) if v not in rep.witness_cut]
            assert not is_connected(induced_subgraph(g, rest))
            for smaller in combinations(range(g.n), rep.kappa - 1):
                keep = [v for v in range(g.n) if v not in smaller]
                assert is_connected(induced_subgraph(g, keep))

    @given(graphs(min_n=2, max_n=8))
    @settings(max_examples=60)
    def test_bounded_by_min_degree(self, g):
        if g.is_complete():
            return
        kappa = vertex_connectivity(g).kappa
        assert kappa <= min(g.degree(v) for v in range(g.n))

    @given(graphs(min_n=2, max_n=10))
    @settings(max_examples=100)
    def test_matches_reference_flow_routine(self, g):
        # one shared network, pre-routed common neighbours and capped flows
        # give the per-pair routine's kappa and witness exactly
        assert vertex_connectivity(g) == per_pair_vertex_connectivity(g)

    @given(graphs(max_n=10))
    @settings(max_examples=100)
    def test_matches_two_pass_flow(self, g):
        # the search that ends each flow reads the same cut that a second
        # search of the residual network reads
        assert vertex_connectivity(g) == reference_vertex_connectivity(g)

    def test_boards_match_two_pass_flow(self):
        for gen in (queen_graph, king_graph):
            for m in range(1, 7):
                for n in range(1, 7):
                    g = gen(m, n)
                    assert vertex_connectivity(g) == reference_vertex_connectivity(g)

    def test_larger_sparse_graphs_match_two_pass_flow(self):
        # past ten vertices the Esfahanian-Hakimi pairs are far fewer than
        # the pairs the witness order walks, so kappa and the witness come
        # from different pair sets
        corpus = [cycle_graph(k) for k in range(3, 61, 3)]
        corpus += [path_graph(k) for k in range(2, 61, 3)]
        corpus += [Graph(2 * k, [(i, i + 1) for i in range(k - 1)]
                         + [(k + i, k + i + 1) for i in range(k - 1)]
                         + [(i, k + i) for i in range(k)]) for k in range(2, 31, 4)]
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(10, 60)
            order = rng.sample(range(n), n)
            edges = {tuple(sorted(order[i:i + 2])) for i in range(n - 1)}
            edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 2)}
            corpus.append(Graph(n, edges))
        for g in corpus:
            assert vertex_connectivity(g) == reference_vertex_connectivity(g)

    def test_flow_count_on_a_cycle(self, monkeypatch):
        # 37 flows from vertex 0 to the vertices it misses, one between its
        # two neighbours, and one that finds the witness; every (u, t) pair
        # of the witness order would take 111
        calls = []
        real = ncomplex.connectivity._max_flow

        def counted(*args):
            calls.append(args[2:4])
            return real(*args)

        monkeypatch.setattr(ncomplex.connectivity, "_max_flow", counted)
        assert vertex_connectivity(cycle_graph(40)) == CutReport(2, frozenset({1, 39}))
        assert len(calls) <= 40

    def test_disconnected_graph_runs_no_flow(self, monkeypatch):
        # the connectivity shortcut answers kappa = 0 at once; without it two
        # disjoint 1000-cycles take over a second instead of milliseconds
        calls = []
        real = ncomplex.connectivity._max_flow

        def counted(*args):
            calls.append(args[2:4])
            return real(*args)

        monkeypatch.setattr(ncomplex.connectivity, "_max_flow", counted)
        c = cycle_graph(40)
        two = Graph(80, list(c.edges) + [(u + 40, v + 40) for u, v in c.edges])
        assert vertex_connectivity(two) == CutReport(0, frozenset())
        assert calls == []

    def test_pinned_witness_cuts(self):
        fixtures = [
            (queen_graph(3, 3), 6, {1, 2, 3, 4, 6, 8}),
            (king_graph(3, 4), 3, {1, 4, 5}),
            (mycielskian(cycle_graph(5)), 3, {0, 2, 10}),
            (counterexample_graph(), 1, {1}),
            (random_chordal_graph(5, (4, 6), 2, 3)[0], 2, {2, 6}),
        ]
        for g, kappa, cut in fixtures:
            assert vertex_connectivity(g) == CutReport(kappa, frozenset(cut))

    def test_mycielskian_raises_connectivity(self):
        for g in [complete_graph(2), cycle_graph(4), cycle_graph(5), path_graph(4)]:
            assert vertex_connectivity(mycielskian(g)).kappa > vertex_connectivity(g).kappa


class TestDisjointPaths:
    # the s-t flow value counts internally disjoint paths; for adjacent s, t
    # the direct edge is one of them
    def test_complete(self):
        assert reference_flow(complete_graph(4), 0, 1)[0] == 3

    def test_every_path_through_a_common_neighbour(self):
        # K_{2,5} at its hubs: five paths, all routed before any search
        g = Graph(7, [(h, leaf) for h in (0, 1) for leaf in range(2, 7)])
        assert flow_value(g, 0, 1) == 5
        assert _max_flow(g, closed_neighbourhoods(g), 0, 1, 3) == (3, None)
        assert vertex_connectivity(g) == per_pair_vertex_connectivity(g)

    def test_path_turns_back_through_a_used_vertex(self):
        # the first path 4-1-3-8-7 blocks the flow; the second enters in(8),
        # cancels 3 -> 8, turns back through vertex 3 and cancels 1 -> 3,
        # which leaves the paths 4-2-0-8-7 and 4-1-6-5-7
        g = Graph(9, [(0, 2), (0, 8), (1, 3), (1, 4), (1, 6), (2, 4), (3, 8),
                      (5, 6), (5, 7), (7, 8)])
        assert flow_value(g, 4, 7) == brute_force_min_separator(g, 4, 7) == 2
        assert _max_flow(g, closed_neighbourhoods(g), 4, 7, g.n) == (2, frozenset({1, 2}))

    def test_cycle_opposite(self):
        assert flow_value(cycle_graph(4), 0, 2) == 2

    def test_path_endpoints(self):
        assert flow_value(path_graph(4), 0, 3) == 1

    def test_adjacent_pairs_against_edge_deleted_oracle(self):
        # for s ~ t the value is the direct edge plus a maximum family in
        # the graph without that edge
        checked = 0
        for g in seeded_graphs(40, 7, seed=67, density=0.5):
            pairs = [(s, t) for s in range(g.n) for t in range(s + 1, g.n)
                     if g.has_edge(s, t)]
            for s, t in pairs[:3]:
                pruned = Graph(g.n, set(g.edges) - {(min(s, t), max(s, t))})
                expected = 1 + brute_force_min_separator(pruned, s, t)
                assert reference_flow(g, s, t)[0] == expected
                checked += 1
        assert checked > 30

    def test_menger_against_brute_force(self):
        checked = 0
        corpus = seeded_graphs(50, 8, seed=17, density=0.45)
        corpus += seeded_graphs(10, 12, seed=57, min_n=10, density=0.35)
        for g in corpus:
            pairs = [(s, t) for s in range(g.n) for t in range(s + 1, g.n)
                     if not g.has_edge(s, t)]
            for s, t in pairs[:4]:
                assert flow_value(g, s, t) == brute_force_min_separator(g, s, t)
                checked += 1
        assert checked > 50


class TestMinCuts:
    # the oracle's minimum cuts, and the witness cut among them
    def test_cycle4(self):
        cuts = list(brute_force_min_cuts(cycle_graph(4)))
        assert sorted(sorted(c) for c in cuts) == [[0, 2], [1, 3]]
        assert vertex_connectivity(cycle_graph(4)).witness_cut in cuts

    def test_path(self):
        assert list(brute_force_min_cuts(path_graph(3))) == [frozenset({1})]
        assert vertex_connectivity(path_graph(3)).witness_cut == frozenset({1})

    def test_complete_rejected(self):
        with pytest.raises(ValueError):
            next(brute_force_min_cuts(complete_graph(3)))


class TestCutComponents:
    def test_cycle(self):
        parts = cut_components(cycle_graph(4), {0, 2})
        assert type(parts) is tuple
        assert sorted(sorted(c) for c in parts) == [[0, 1, 2], [0, 2, 3]]

    def test_whole_graph_connected(self):
        parts = cut_components(cycle_graph(5), frozenset())
        assert len(parts) == 1

    def test_counterexample_split(self):
        parts = cut_components(counterexample_graph(), {1})
        assert sorted(sorted(c) for c in parts) == [
            [0, 1, 2, 3], [1, 4, 5, 6, 7, 8, 9, 10, 11]]

    def test_components_pairwise_meet_in_cut(self):
        for g in seeded_graphs(20, 9, seed=5, density=0.35, connected=True):
            rep = vertex_connectivity(g)
            if rep.witness_cut is None:
                continue
            parts = cut_components(g, rep.witness_cut)
            union = set()
            for a, b in combinations(parts, 2):
                assert a & b == rep.witness_cut
            for c in parts:
                union |= c
            assert union == set(range(g.n))

    def test_full_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            cut_components(cycle_graph(3), {0, 1, 2})
