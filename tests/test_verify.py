import json

import pytest

from ncomplex.graph import Graph, complete_graph
from ncomplex.complexes import neighborhood_complex
from ncomplex.homology import reduced_homology
from ncomplex.verify import (
    QUEEN_HOMOLOGY_TABLE,
    VerificationReport,
    board_removal_order,
    chordal_shelling_order,
    counterexample_graph,
    default_cut_bound_instances,
    group_data,
    overlay_graphs,
    run_verifier,
    verify_board_simple_connectivity,
    verify_chordal_fold_connectivity,
    verify_clique_cut,
    verify_counterexample,
    verify_cut_bounds,
    verify_lovasz_bound,
    verify_mycielskian_shift,
    verify_queen_table,
    verify_stiff_chordal,
)


COUNTEREXAMPLE_JSON = (
    '{"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[1,6],[1,8],[2,3],[4,5],[4,6],'
    '[4,8],[5,7],[5,10],[6,7],[6,9],[7,11],[8,9],[8,10],[9,11],[10,11]],"n":12}'
)


class TestFixtures:
    def test_counterexample_shape(self):
        g = counterexample_graph()
        assert g.n == 12 and len(g.edges) == 20

    def test_counterexample_canonical_bytes(self):
        # the fixture's identity is its canonical JSON; pin it
        assert counterexample_graph().to_json() == COUNTEREXAMPLE_JSON

    def test_smallest_board_canonical_bytes(self):
        from ncomplex.graph import queen_graph
        assert queen_graph(2, 2).to_json() == (
            '{"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]],'
            '"labels":{"0":"(1,1)","1":"(1,2)","2":"(2,1)","3":"(2,2)"},"n":4}')

    def test_counterexample_report(self):
        report = verify_counterexample()
        assert report.passed and report.instances_checked == 1

    def test_table_has_all_cells(self):
        assert len(QUEEN_HOMOLOGY_TABLE) == 19


class TestOverlay:
    def test_disjoint_union(self):
        g = overlay_graphs(complete_graph(3), complete_graph(3), frozenset())
        assert g.n == 6 and len(g.edges) == 6

    def test_shared_clique(self):
        g = overlay_graphs(complete_graph(4), complete_graph(4), frozenset({0, 1}))
        assert g.n == 6
        assert g.has_edge(0, 1) and g.has_edge(4, 5)
        assert not g.has_edge(2, 4)

    def test_disagreement_rejected(self):
        a = complete_graph(3)
        b = Graph(3, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="disagree"):
            overlay_graphs(a, b, frozenset({0, 1}))

    def test_out_of_range_shared(self):
        with pytest.raises(ValueError):
            overlay_graphs(complete_graph(2), complete_graph(4), frozenset({3}))


class TestOrders:
    def test_board_removal_order_covers_added_squares(self):
        order = board_removal_order("queen", 3, 3)
        assert len(order) == 9 - 4
        assert len(set(order)) == len(order)

    def test_chordal_shelling_reaches_complete_core(self):
        g = overlay_graphs(complete_graph(4), complete_graph(4), frozenset({0, 1}))
        order = chordal_shelling_order(g, 2)
        assert order is not None and len(order) == 2


class TestVerifiers:
    def test_queen_table_subset(self, monkeypatch):
        import ncomplex.verify
        cells = {c: QUEEN_HOMOLOGY_TABLE[c] for c in [(2, 2), (3, 3)]}
        monkeypatch.setattr(ncomplex.verify, "QUEEN_HOMOLOGY_TABLE", cells)
        report = verify_queen_table()
        assert report.passed and report.instances_checked == 2

    def test_queen_table_failure_round_trip(self, monkeypatch):
        import ncomplex.verify
        monkeypatch.setattr(ncomplex.verify, "QUEEN_HOMOLOGY_TABLE", {(2, 2): (0, 0, 7, 0)})
        report = verify_queen_table()
        assert not report.passed
        record = report.failures[0]
        reloaded = Graph.from_json(json.dumps(record["graph"]))
        hom = reduced_homology(neighborhood_complex(reloaded), 3)
        assert group_data(hom) == record["observed"]["groups"]
        assert record["observed"]["groups"] != record["expected"]["groups"]

    def test_counterexample(self):
        assert verify_counterexample().passed

    def test_boards(self):
        report = verify_board_simple_connectivity()
        assert report.passed and report.instances_checked == 18

    def test_mycielskian(self):
        report = verify_mycielskian_shift(count=5, seed=3)
        assert report.passed and report.instances_checked == 10

    def test_lovasz(self):
        report = verify_lovasz_bound(count=15, seed=5)
        assert report.passed
        assert report.regime == "certified-topological"
        assert report.instances_checked >= 15

    def test_stiff_chordal(self):
        report = verify_stiff_chordal(count=20, seed=2)
        assert report.passed and report.instances_checked > 0

    def test_chordal_fold_connectivity(self):
        report = verify_chordal_fold_connectivity(count=10, seed=1)
        assert report.passed and report.instances_checked > 0

    def test_clique_cut_defaults(self):
        report = verify_clique_cut()
        assert report.passed
        assert report.instances_checked == 3
        assert any("apex" in s["reason"] for s in report.skipped)

    def test_clique_cut_precondition_reporting(self):
        # sides whose complexes are not connected enough must be skipped
        from ncomplex.graph import cycle_graph
        instances = [(cycle_graph(4), cycle_graph(4), frozenset({0}), 1)]
        report = verify_clique_cut(instances)
        assert report.instances_checked == 0 and report.skipped

    def test_cut_bounds_defaults(self):
        report = verify_cut_bounds()
        assert report.passed
        assert report.instances_checked == len(default_cut_bound_instances())

    def test_unknown_verifier(self):
        with pytest.raises(ValueError):
            run_verifier("nonsense")

    def test_alias(self, monkeypatch):
        import ncomplex.verify
        cells = {(2, 2): (0, 0, 1, 0), (2, 3): (0, 0, 1, 0)}
        monkeypatch.setattr(ncomplex.verify, "QUEEN_HOMOLOGY_TABLE", cells)
        report = run_verifier("table1")
        assert report.theorem_id == "queen-table"
        assert report.instances_checked == len(cells)


class TestReports:
    def test_json_shape(self):
        report = verify_counterexample()
        payload = json.loads(report.to_json())
        assert set(payload) == {"theorem_id", "pass", "instances_checked",
                                "failures", "skipped", "regime", "seed"}
        assert payload["pass"] is True
        assert payload["regime"] in ("certified-topological", "homological-surrogate")

    def test_pass_iff_no_failures(self):
        report = VerificationReport("demo")
        assert report.passed
        report.add_failure(complete_graph(2), {"x": 1}, {"x": 2})
        assert not report.passed

    def test_deterministic_bytes(self):
        a = verify_stiff_chordal(count=10, seed=4).to_json()
        b = verify_stiff_chordal(count=10, seed=4).to_json()
        assert a == b

    def test_failure_graphs_round_trip(self):
        report = VerificationReport("demo")
        g = counterexample_graph()
        report.add_failure(g, {"want": 0}, {"got": 1})
        record = report.failures[0]
        assert Graph.from_json(json.dumps(record["graph"])) == g
