import json

import pytest
from hypothesis import given, settings

from ncomplex.errors import CapExceededError
from ncomplex.graph import (
    Graph,
    chromatic_number,
    complement,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    king_graph,
    mycielskian,
    path_graph,
    queen_graph,
    random_chordal_graph,
)

from conftest import (
    brute_force_chromatic,
    brute_force_isomorphic,
    common_neighborhood,
    graphs,
    seeded_graphs,
)


def board_index(m, n):
    return lambda i, j: (i - 1) * n + (j - 1)


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_edges_deduplicate_and_sort(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.sorted_edges() == [(0, 2), (1, 2)]

    def test_neighbors_out_of_range(self):
        with pytest.raises(ValueError):
            cycle_graph(4).neighbors(7)


class TestNeighborhoods:
    def test_cycle(self):
        assert cycle_graph(4).neighbors(0) == {1, 3}

    def test_complete(self):
        assert complete_graph(4).neighbors(2) == {0, 1, 3}

    def test_queen_3x2_center(self):
        # square (1,1) reaches everything except the far corner (3,2)
        idx = board_index(3, 2)
        g = queen_graph(3, 2)
        assert g.neighbors(idx(1, 1)) == set(range(6)) - {idx(1, 1), idx(3, 2)}

    def test_common_neighborhood(self):
        assert common_neighborhood(complete_graph(4), {0, 1}) == {2, 3}
        assert common_neighborhood(cycle_graph(4), {0, 2}) == {1, 3}
        assert common_neighborhood(cycle_graph(5), {0, 1}) == frozenset()

    def test_common_neighborhood_of_empty_set_is_everything(self):
        assert common_neighborhood(cycle_graph(5), frozenset()) == frozenset(range(5))


class TestGenerators:
    def test_complete_sizes(self):
        assert complete_graph(1).n == 1 and not complete_graph(1).edges
        assert len(complete_graph(4).edges) == 6
        assert brute_force_isomorphic(complete_graph(3), cycle_graph(3))

    def test_cycle(self):
        g = cycle_graph(5)
        assert len(g.edges) == 5
        assert all(g.degree(v) == 2 for v in range(5))
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_queen_2x2_is_complete(self):
        assert queen_graph(2, 2).is_complete()

    def test_queen_3x2_edge_set(self):
        # all 15 pairs except the two knight-move pairs
        idx = board_index(3, 2)
        g = queen_graph(3, 2)
        missing = {tuple(sorted((idx(1, 1), idx(3, 2)))),
                   tuple(sorted((idx(1, 2), idx(3, 1))))}
        assert len(g.edges) == 13
        assert set(g.edges).isdisjoint(missing)

    def test_queen_1x3_collinear_closure(self):
        assert queen_graph(1, 3).is_complete()

    def test_queen_transpose_isomorphic(self):
        for m, n in [(2, 3), (3, 4), (2, 5)]:
            g, h = queen_graph(m, n), queen_graph(n, m)
            relabel = {(i - 1) * n + (j - 1): (j - 1) * m + (i - 1)
                       for i in range(1, m + 1) for j in range(1, n + 1)}
            mapped = {tuple(sorted((relabel[u], relabel[v]))) for u, v in g.edges}
            assert mapped == set(h.edges)

    def test_king_2x2_is_complete(self):
        assert king_graph(2, 2).is_complete()

    def test_king_transpose_isomorphic(self):
        for m, n in [(2, 3), (4, 3)]:
            g, h = king_graph(m, n), king_graph(n, m)
            relabel = {(i - 1) * n + (j - 1): (j - 1) * m + (i - 1)
                       for i in range(1, m + 1) for j in range(1, n + 1)}
            mapped = {tuple(sorted((relabel[u], relabel[v]))) for u, v in g.edges}
            assert mapped == set(h.edges)

    def test_king_corner_degree(self):
        assert king_graph(4, 3).degree(board_index(4, 3)(1, 1)) == 3

    def test_king_4x3_exact_edges(self):
        idx = board_index(4, 3)
        rows = [((i, j), (i + 1, j)) for i in range(1, 4) for j in range(1, 4)]
        rails = [((i, j), (i, j + 1)) for i in range(1, 5) for j in range(1, 3)]
        diag = [((i, j), (i + 1, j + 1)) for i in range(1, 4) for j in range(1, 3)]
        anti = [((i, j + 1), (i + 1, j)) for i in range(1, 4) for j in range(1, 3)]
        expected = {tuple(sorted((idx(*a), idx(*b)))) for a, b in rows + rails + diag + anti}
        assert set(king_graph(4, 3).edges) == expected
        assert len(expected) == 29

    def test_board_labels(self):
        g = queen_graph(3, 2)
        assert g.labels[0] == "(1,1)"
        assert g.labels[5] == "(3,2)"


class TestMycielskian:
    def test_on_k2_gives_five_cycle(self):
        assert brute_force_isomorphic(mycielskian(complete_graph(2)), cycle_graph(5))

    def test_on_k1_keeps_original_isolated(self):
        # K_1 has no edges, so its shadow picks up only the hub edge
        m = mycielskian(complete_graph(1))
        assert m.n == 3
        assert m.sorted_edges() == [(1, 2)]

    @given(graphs(max_n=7))
    def test_edge_count_formula(self, g):
        assert len(mycielskian(g).edges) == 3 * len(g.edges) + g.n


class TestComplementAndInduced:
    def test_complement_complete_is_empty(self):
        assert not complement(complete_graph(5)).edges

    def test_complement_c5_selfcomplementary(self):
        assert brute_force_isomorphic(complement(cycle_graph(5)), cycle_graph(5))

    @given(graphs())
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    def test_induced(self):
        assert induced_subgraph(complete_graph(5), [0, 1, 2]) == complete_graph(3)
        assert brute_force_isomorphic(induced_subgraph(cycle_graph(5), [0, 1, 2]), path_graph(3))
        assert induced_subgraph(cycle_graph(5), []).n == 0

    def test_induced_records_origin(self):
        sub = induced_subgraph(cycle_graph(5), [1, 3, 4])
        assert sub.labels == {0: "1", 1: "3", 2: "4"}


class TestChromaticNumber:
    @pytest.mark.parametrize("g,expected", [
        (complete_graph(4), 4),
        (cycle_graph(5), 3),
        (cycle_graph(6), 2),
        (path_graph(6), 2),
        (complete_graph(1), 1),
    ])
    def test_known_values(self, g, expected):
        assert chromatic_number(g) == expected

    def test_mycielskian_of_k2(self):
        assert chromatic_number(mycielskian(complete_graph(2))) == 3

    def test_cap_is_loud(self):
        with pytest.raises(CapExceededError):
            chromatic_number(cycle_graph(33))

    def test_agrees_with_brute_force(self):
        for g in seeded_graphs(60, 8, seed=11, min_n=1):
            assert chromatic_number(g) == brute_force_chromatic(g)


class TestRandomChordal:
    def test_single_clique(self):
        g, cliques = random_chordal_graph(1, (4, 4), 0, seed=5)
        assert g.is_complete() and g.n == 4
        assert cliques == [frozenset(range(4))]

    def test_deterministic(self):
        a, _ = random_chordal_graph(5, (3, 6), 1, seed=42)
        b, _ = random_chordal_graph(5, (3, 6), 1, seed=42)
        assert a == b and a.to_json() == b.to_json()

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            random_chordal_graph(3, (3, 5), 3, seed=1)
        with pytest.raises(ValueError):
            random_chordal_graph(0, (3, 5), 1, seed=1)

    def test_gluing_record_matches_graph(self):
        g, cliques = random_chordal_graph(6, (3, 6), 1, seed=9)
        seen = set()
        for c in cliques:
            for a in c:
                for b in c:
                    if a < b:
                        assert g.has_edge(a, b)
                        seen.add((a, b))
        assert seen == set(g.edges)


class TestProperties:
    @given(graphs())
    def test_degree_sum(self, g):
        assert sum(g.degree(v) for v in range(g.n)) == 2 * len(g.edges)

    @given(graphs(max_n=6))
    @settings(max_examples=40)
    def test_chromatic_at_least_clique(self, g):
        from ncomplex.chordal import maximal_cliques
        if g.n == 0:
            return
        best = max(len(c) for c in maximal_cliques(g))
        assert chromatic_number(g) >= best


class TestSerialization:
    def test_json_round_trip(self):
        g = queen_graph(3, 2)
        h = Graph.from_json(g.to_json())
        assert h == g and h.labels == g.labels

    def test_json_canonical_bytes(self):
        g1 = Graph(4, [(2, 0), (1, 3), (0, 1)])
        g2 = Graph(4, [(0, 1), (0, 2), (3, 1)])
        assert g1.to_json() == g2.to_json()
        payload = json.loads(g1.to_json())
        assert payload["edges"] == sorted(payload["edges"])

    def test_edge_list_round_trip(self):
        g = cycle_graph(6)
        text = "n 6\n" + "".join(f"e {u} {v}\n" for u, v in g.sorted_edges())
        assert Graph.from_edge_list(text) == g

    def test_edge_list_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            Graph.from_edge_list("n 3\nx 0 1\n")
