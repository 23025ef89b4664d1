"""Quick checks of the benchmark's own machinery: wrappers go in and come
out cleanly, spans add up, and the output checks reject wrong answers."""
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import ncomplex.cli
import ncomplex.verify
from ncomplex import connectivity, cycle_graph, neighborhood_complex, queen_graph
from ncomplex import boundary_matrix, homology
from ncomplex.complexes import SimplicialComplex
from ncomplex.graph import Graph
from ncomplex.snf import rank_over_rationals

from tracing import PER_LAYER, Recorder, Tracer
from workloads import _check_summary

HERE = Path(__file__).resolve().parent


def test_wrappers_replace_every_reference_and_come_out():
    original = connectivity.vertex_connectivity
    faces = SimplicialComplex.__dict__["faces"]
    from_json = Graph.__dict__["from_json"]
    tracer = Tracer()
    tracer.install()
    try:
        for module in (connectivity, ncomplex.verify, ncomplex.cli, ncomplex):
            assert module.vertex_connectivity is not original
        assert SimplicialComplex.__dict__["faces"] is not faces
        assert Graph.from_json('{"n": 2, "edges": [[0, 1]]}').n == 2
    finally:
        tracer.remove()
    for module in (connectivity, ncomplex.verify, ncomplex.cli, ncomplex):
        assert module.vertex_connectivity is original
    assert SimplicialComplex.__dict__["faces"] is faces
    assert Graph.__dict__["from_json"] is from_json


def test_traced_pass_counts_the_homology_pipeline():
    X = neighborhood_complex(cycle_graph(5))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.phase("pass"):
            # through the module: the wrappers replace library references only
            homology.reduced_homology(X, 1)
    finally:
        tracer.remove()
    m = tracer.metrics(1, 0.0)
    assert set(m) == set(PER_LAYER)
    # degrees 0..max_dim+1 each give one boundary and one Smith reduction
    assert m["homology.boundaries"] == m["snf.smith_calls"] == 3
    assert m["snf.smith_rank"] == sum(
        rank_over_rationals(boundary_matrix(X, k).entries) for k in range(3))
    assert 0 < m["homology.boundary_s"] <= m["homology.reduced_homology_s"]
    assert m["snf.smith_s"] < m["homology.reduced_homology_s"]
    assert m["complexes.faces_enumerated"] == sum(
        X.face_count(k) * n for k, n in ((0, 3), (1, 3), (2, 2)))
    assert m["complexes.enumerations_per_skeleton"] == 8 / 3
    assert m["verify.queen-table_s"] == 0.0 and m["cli.main_self_s"] == 0.0


def test_recorder_sees_calls_made_through_other_modules():
    recorder = Recorder("homology", "connectivity_of_complex")
    try:
        ncomplex.verify.connectivity_of_complex(neighborhood_complex(cycle_graph(5)), 1)
    finally:
        recorder.close()
    (arguments, result), = recorder.calls
    assert arguments["dim_cap"] == 1 and arguments["method"] == "smith"
    assert (result.value, result.exact) == (0, True)


def test_analyze_checks_accept_the_library_and_reject_wrong_answers(tmp_path):
    G = queen_graph(2, 4)
    path = tmp_path / "board.json"
    path.write_text(G.to_json())
    out = StringIO()
    with redirect_stdout(out):
        assert ncomplex.cli.main(["analyze", str(path)]) == 0
    summary = json.loads(out.getvalue())
    assert _check_summary("board", G, summary) == []
    for key, wrong in (("kappa", summary["kappa"] - 1),
                       ("chromatic_number", summary["max_clique_size"] - 1),
                       ("stiff", not summary["stiff"]),
                       ("witness_cut", [0])):
        assert _check_summary("board", G, {**summary, key: wrong}), key


def test_run_fails_without_the_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
