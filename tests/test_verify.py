import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import assume, given, settings

from ncomplex.chordal import simplicial_vertices
from ncomplex.connectivity import vertex_connectivity
from ncomplex.graph import Graph, complete_graph, induced_subgraph, random_chordal_graph
from ncomplex.complexes import neighborhood_complex
from ncomplex.folds import fold_reduction
from ncomplex.homology import ConnectivityBound, connectivity_of_complex, reduced_homology
from ncomplex.verify import (
    QUEEN_HOMOLOGY_TABLE,
    VerificationReport,
    _stiff_connectivity,
    board_removal_order,
    chordal_shelling_order,
    counterexample_graph,
    default_cut_bound_instances,
    group_data,
    overlay_graphs,
    random_chordal_corpus,
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

from conftest import (
    brute_force_kappa,
    brute_force_maximal_cliques,
    graphs,
    reference_shelling_order,
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
        order = board_removal_order(3, 3)
        assert len(order) == 9 - 4
        assert len(set(order)) == len(order)

    def test_chordal_shelling_reaches_complete_core(self):
        g = overlay_graphs(complete_graph(4), complete_graph(4), frozenset({0, 1}))
        order = chordal_shelling_order(g)
        assert order is not None and len(order) == 2

    @given(graphs(min_n=2, max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_simplicial_removal_never_lowers_connectivity(self, g):
        # lemma (a) of chordal_shelling_order
        assume(not g.is_complete())
        kappa = brute_force_kappa(g)
        for v in simplicial_vertices(g):
            rest = induced_subgraph(g, [u for u in range(g.n) if u != v])
            assert brute_force_kappa(rest) >= kappa

    @given(graphs(min_n=2, max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_removal_keeps_clique_number_iff_a_maximum_clique_avoids_it(self, g):
        # lemma (b) of chordal_shelling_order
        assume(not g.is_complete())
        cliques = brute_force_maximal_cliques(g)
        w = max(len(c) for c in cliques)
        for v in simplicial_vertices(g):
            rest = induced_subgraph(g, [u for u in range(g.n) if u != v])
            kept = max(len(c) for c in brute_force_maximal_cliques(rest)) == w
            assert kept is any(v not in c for c in cliques if len(c) == w)

    def test_shelling_order_matches_connectivity_floor_reference(self):
        corpus = [random_chordal_graph(3, (4, 5), 2, seed=s)[0] for s in range(1, 61)]
        corpus += [random_chordal_graph(6, (3, 6), 1, seed=s)[0] for s in range(1, 61)]
        removals = 0
        for g in corpus:
            order = chordal_shelling_order(g)
            assert order == reference_shelling_order(g, vertex_connectivity(g).kappa)
            removals += len(order or ())
        assert removals > 100


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

    def test_board_failure_record_reports_connectivity(self, monkeypatch):
        import ncomplex.verify
        monkeypatch.setattr(ncomplex.verify, "connectivity_of_complex",
                            lambda X, dim_cap: ConnectivityBound(0, True))
        report = verify_board_simple_connectivity()
        assert len(report.failures) == report.instances_checked == 18
        record = report.failures[0]
        assert record["expected"] == {"board": ["queen", 2, 2], "certificate": True,
                                      "vanishing_through": 1}
        assert record["observed"] == {"board": ["queen", 2, 2], "certificate": True,
                                      "connectivity": "0"}

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

    def test_clique_cut_failure_record_reports_connectivity(self, monkeypatch):
        import ncomplex.verify
        # "at least dim_cap" passes every side check and no gluing
        monkeypatch.setattr(ncomplex.verify, "connectivity_of_complex",
                            lambda X, dim_cap: ConnectivityBound(dim_cap, False))
        report = verify_clique_cut()
        assert report.instances_checked == 3
        assert [(f["expected"], f["observed"]) for f in report.failures] == [
            ({"vanishing_below": n, "nonzero_at": n}, {"connectivity": f"at least {n}"})
            for n in (1, 2, 3)]

    @pytest.mark.parametrize("shared, union_bound, verdict", [
        ({0}, ConnectivityBound(1, False), "skip"),
        ({0}, ConnectivityBound(0, True), "pass"),
        ({0}, ConnectivityBound(-1, True), "fail"),
        ({0, 1}, ConnectivityBound(2, False), "fail"),
        (set(), ConnectivityBound(0, False), "fail"),
    ], ids=["n1-above", "n1-at", "n1-below", "n2-above", "n0-above"])
    def test_clique_cut_surrogate_union_reading(
            self, monkeypatch, shared, union_bound, verdict):
        import ncomplex.verify
        # two 6-vertex wheels glued over n of hub 0 and rim vertex 1: the
        # union has holes, so its scan is a surrogate. Only at n = 1 is a
        # reading above n - 1 inconclusive; at n = 2 Hurewicz refutes it, and
        # at n = 0 it says the complex is connected
        wheel = Graph(6, [(0, v) for v in range(1, 6)]
                      + [(v, v % 5 + 1) for v in range(1, 6)])
        shared = frozenset(shared)
        n = len(shared)
        union = neighborhood_complex(overlay_graphs(wheel, wheel, shared))
        real = ncomplex.verify.connectivity_of_complex
        report = verify_clique_cut([(wheel, wheel, shared, n)])
        assert report.passed and report.instances_checked == 1 and not report.skipped
        monkeypatch.setattr(ncomplex.verify, "connectivity_of_complex",
                            lambda X, cap: union_bound if X == union else real(X, cap))
        report = verify_clique_cut([(wheel, wheel, shared, n)])
        assert report.regime == "homological-surrogate"
        if verdict == "skip":
            assert report.passed and report.instances_checked == 0
            assert report.skipped == [{"instance": f"glue n={n} sides 6+6",
                                       "reason": "surrogate-failure (inconclusive)"}]
        else:
            assert report.instances_checked == 1 and not report.skipped
            assert report.passed == (verdict == "pass")

    def test_clique_cut_skips_an_empty_glue_on_an_edgeless_side(self):
        # N of an edgeless graph is {empty face}, which is not (-1)-connected
        report = verify_clique_cut([(Graph(2, []), complete_graph(3), frozenset(), 0)])
        assert report.passed and report.instances_checked == 0
        assert [s["reason"] for s in report.skipped] == [
            "precondition failed: side complex not (n-1)-connected"]

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

    def test_cut_bounds_counts_an_inconclusive_instance_once(self, monkeypatch):
        import ncomplex.verify
        # "at least dim_cap" leaves the non-chordal union inconclusive: it is
        # skipped and not also counted as checked
        monkeypatch.setattr(ncomplex.verify, "connectivity_of_complex",
                            lambda X, dim_cap: ConnectivityBound(dim_cap, False))
        report = verify_cut_bounds(default_cut_bound_instances())
        assert report.instances_checked + len(report.skipped) == 4
        assert [s["reason"] for s in report.skipped] == [
            "surrogate-failure (inconclusive)",
            "premise needs the exact minimum side connectivity"]

    def test_cut_bounds_weak_triangulation_route_above_16_vertices(self, monkeypatch):
        import ncomplex.verify
        # non-adjacent hubs 0, 1 over a K8 block; two copies glued over the
        # hubs make an 18-vertex union that is weakly triangulated, not chordal
        hub_side = Graph(10, list(combinations(range(2, 10), 2))
                         + [(h, v) for h in (0, 1) for v in range(2, 10)])
        real = ncomplex.verify.is_weakly_triangulated
        calls = []

        def recording(G):
            res = real(G)
            calls.append((G.n, res.holds))
            return res
        monkeypatch.setattr(ncomplex.verify, "is_weakly_triangulated", recording)
        report = verify_cut_bounds(instances=[(hub_side, hub_side, frozenset({0, 1}), "i")])
        assert calls == [(18, True)]
        assert report.passed and report.instances_checked == 1

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


def _predicted(residual):
    """Reference prediction for a stiff chordal residual."""
    if residual.is_complete():
        return residual.n - 3
    return vertex_connectivity(residual).kappa - 1


class TestStiffConnectivity:
    @pytest.mark.parametrize("G, predicted", [
        (Graph(1), -2), (complete_graph(2), -1), (complete_graph(4), 1)])
    def test_complete_residuals(self, G, predicted):
        # N(K1) is just the empty face: H~_-1 = Z, so conn is -2
        assert _stiff_connectivity(G) == (predicted, ConnectivityBound(predicted, True))

    def test_empty_residual_is_refused(self):
        # K0 would predict -3, below any bound the scan can confirm
        with pytest.raises(ValueError, match="dim_cap must be at least -1"):
            _stiff_connectivity(Graph(0))

    @pytest.mark.parametrize("seed", [1, 101])
    def test_scan_of_the_residual_matches_the_scan_of_g(self, seed):
        # folds keep the homotopy type of N(G), so the residual's scan stands in
        for _, G in random_chordal_corpus(100, seed):
            predicted, bound = _stiff_connectivity(fold_reduction(G).result)
            cap = max(predicted + 1, 0)
            assert connectivity_of_complex(neighborhood_complex(G), cap) == bound


class TestStiffFailureRecords:
    """An "at least cap" scan fails every chordal instance. The passing
    stdout pins never reach these records, so their shape and bytes are
    pinned here."""

    @pytest.fixture(autouse=True)
    def inexact_scan(self, monkeypatch):
        import ncomplex.verify
        monkeypatch.setattr(ncomplex.verify, "connectivity_of_complex",
                            lambda X, dim_cap: ConnectivityBound(dim_cap, False))

    def test_chordal_main(self):
        expected = []
        for _, g in random_chordal_corpus(12, 3):
            residual = fold_reduction(g).result
            if residual.is_complete():
                continue
            kappa = _predicted(residual) + 1
            expected.append({"graph": json.loads(residual.to_json()),
                             "expected": {"connectivity": kappa - 1},
                             "observed": {"connectivity": f"at least {kappa}", "kappa": kappa}})
        report = verify_stiff_chordal(12, 3)
        assert report.instances_checked == len(expected) == 10
        assert report.failures == expected
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "fb83463491f7ee85e8202d0522604fe46df5661d9ffd110b689ffea5f661c71c")

    def test_lovasz_bound(self):
        expected = [{"graph": json.loads(g.to_json()),
                     "expected": {"confirmed_connectivity": True},
                     "observed": {"note": "homology disagrees with wedge prediction",
                                  "predicted": _predicted(fold_reduction(g).result)}}
                    for _, g in random_chordal_corpus(12, 3)]
        report = verify_lovasz_bound(12, 3)
        assert report.instances_checked == 0
        assert report.failures == expected
        assert [s["reason"] for s in report.skipped] == ["connectivity beyond scan cap"] * 3
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "92da5d7e4996ac110fce94b121b8c33a39fecd7b2cdd443160e71bbf7cea1f9e")


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
