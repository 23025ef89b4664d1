import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncomplex
from ncomplex.cli import main
from ncomplex.complexes import neighborhood_complex
from ncomplex.graph import (
    complete_graph,
    cycle_graph,
    king_graph,
    mycielskian,
    path_graph,
    queen_graph,
    random_chordal_graph,
)
from ncomplex.verify import random_chordal_corpus, random_graphs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# arguments of `ncomplex gen <kind>`, where "{c5}" names a file holding C5,
# and the library call that makes the same graph
GEN_KINDS = {
    "complete": (["5"], lambda: complete_graph(5)),
    "cycle": (["7"], lambda: cycle_graph(7)),
    "path": (["6"], lambda: path_graph(6)),
    "queen": (["3", "4"], lambda: queen_graph(3, 4)),
    "king": (["4", "3"], lambda: king_graph(4, 3)),
    "mycielskian": (["{c5}"], lambda: mycielskian(cycle_graph(5))),
    "random-chordal": (["--cliques", "5", "--size-min", "3", "--size-max", "5",
                        "--overlap-min", "2", "--seed", "9"],
                       lambda: random_chordal_graph(5, (3, 5), 2, 9)[0]),
}


class TestGen:
    def test_queen(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "queen", "3", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6 and len(payload["edges"]) == 13

    def test_complete(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "complete", "4")
        assert code == 0 and len(json.loads(out)["edges"]) == 6

    def test_mycielskian_from_file(self, capsys, tmp_path):
        path = tmp_path / "k2.json"
        code, out, _ = run_cli(capsys, "gen", "complete", "2")
        path.write_text(out)
        code, out, _ = run_cli(capsys, "gen", "mycielskian", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5 and len(payload["edges"]) == 5

    def test_random_chordal_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "random-chordal", "--seed", "9")
        _, out2, _ = run_cli(capsys, "gen", "random-chordal", "--seed", "9")
        assert out1 == out2

    def test_bad_generator_args(self, capsys):
        code, _, err = run_cli(capsys, "gen", "cycle", "2")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("kind", list(GEN_KINDS))
    def test_prints_the_generator_json(self, capsys, tmp_path, kind):
        args, make = GEN_KINDS[kind]
        c5 = tmp_path / "c5.json"
        c5.write_text(cycle_graph(5).to_json())
        code, out, _ = run_cli(capsys, "gen", kind, *(str(c5) if a == "{c5}" else a for a in args))
        assert code == 0 and out == make().to_json() + "\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        code, out, _ = run_cli(capsys, "gen", "king", "2", "2", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 4


class TestModuleEntry:
    def run_module(self, *argv):
        src = str(Path(ncomplex.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "ncomplex", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=path))

    def test_python_dash_m_runs_the_cli(self):
        result = self.run_module("gen", "queen", "2", "2")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["n"] == 4

    def test_exit_code_passes_through(self):
        result = self.run_module("gen", "cycle", "2")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error:")


class TestHomology:
    def test_queen_2x2(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        _, out, _ = run_cli(capsys, "gen", "queen", "2", "2")
        path.write_text(out)
        code, out, _ = run_cli(capsys, "homology", str(path), "--max-dim", "3")
        assert code == 0
        payload = json.loads(out)
        betti = {g["dim"]: g["betti"] for g in payload["groups"]}
        assert betti == {0: 0, 1: 0, 2: 1, 3: 0}

    def test_square_complex_disconnected(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        _, out, _ = run_cli(capsys, "gen", "cycle", "4")
        path.write_text(out)
        code, out, _ = run_cli(capsys, "homology", str(path), "--max-dim", "1")
        betti = {g["dim"]: g["betti"] for g in json.loads(out)["groups"]}
        assert betti[0] == 1

    def test_complex_file_input(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"facets":[[0,1],[1,2],[0,2]]}')
        code, out, _ = run_cli(capsys, "homology", str(path), "--complex", "--max-dim", "1")
        assert code == 0
        betti = {g["dim"]: g["betti"] for g in json.loads(out)["groups"]}
        assert betti == {0: 0, 1: 1}

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n")
        code, out, _ = run_cli(capsys, "homology", str(path), "--max-dim", "1")
        assert code == 0

    def test_table_format(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        _, out, _ = run_cli(capsys, "gen", "complete", "4")
        path.write_text(out)
        code, out, _ = run_cli(capsys, "homology", str(path), "--format", "table")
        assert code == 0 and "2  | Z" in out

    def test_face_cap_refuses_before_enumerating(self, capsys, tmp_path, monkeypatch):
        from ncomplex.complexes import SimplicialComplex
        path = tmp_path / "q66.json"
        _, out, _ = run_cli(capsys, "gen", "queen", "6", "6")
        path.write_text(out)

        def no_enumeration(self, k):
            raise AssertionError(f"enumerated {k}-faces past the cap")
        monkeypatch.setattr(SimplicialComplex, "faces", no_enumeration)
        code, out, err = run_cli(capsys, "homology", str(path))
        assert code == 2 and out == ""
        assert err == "error: degree 5 may have up to 357140 faces, above the cap of 250000\n"

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n 3\nnot an edge\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize("text, line", [
        ("n three\n", "line 1: cannot parse 'n three'"),
        ("n 3\ne 0 x\n", "line 2: cannot parse 'e 0 x'"),
        ("# comment\nn 3\ne 0 1 2\n", "line 3: cannot parse 'e 0 1 2'"),
    ])
    def test_parse_error_names_the_line(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {line}\n"

    # (argv, text, field, cause): the error is "JSON field <field> is <cause>"
    MALFORMED_JSON = [
        (["analyze"], '{"n": 3}', "edges",
         "missing"),
        (["analyze"], '{"n": 3, "edges": null}', "edges",
         "malformed: None is not an array"),
        (["homology", "--complex"], '{"facets": 5}', "facets",
         "malformed: 5 is not an array"),
        (["homology", "--complex"], '{"facets": [[0, "a"], [1, 2]]}', "facets",
         "malformed: 'a' is not an integer"),
        (["analyze"], '{"n": 3, "edges": [[0, 1.7], [true, 2]]}', "edges",
         "malformed: 1.7 is not an integer"),
        (["analyze"], '{"n": 3, "edges": [[true, 2]]}', "edges",
         "malformed: True is not an integer"),
        (["analyze"], '{"n": 2.5, "edges": []}', "n",
         "malformed: 2.5 is not an integer"),
        (["analyze"], '{"n": true, "edges": []}', "n",
         "malformed: True is not an integer"),
        (["homology", "--complex"], '{"facets": [[0, 1.5], [2.9, 0]]}', "facets",
         "malformed: 1.5 is not an integer"),
        (["homology", "--complex"], '{"facets": [[0, false], [1, 2]]}', "facets",
         "malformed: False is not an integer"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": {"7": "x", "01": "a", '
                      '"1": "b", "-3": 4}}', "labels",
         "malformed: '7': 'x' is not a label of a vertex"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": {"2": "x"}}', "labels",
         "malformed: '2': 'x' is not a label of a vertex"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": {"-1": "x"}}', "labels",
         "malformed: '-1': 'x' is not a label of a vertex"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": {"01": "a"}}', "labels",
         "malformed: '01': 'a' is not a label of a vertex"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": {" 1": "a"}}', "labels",
         "malformed: ' 1': 'a' is not a label of a vertex"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": {"1": 4}}', "labels",
         "malformed: '1': 4 is not a label of a vertex"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": {"1": null}}', "labels",
         "malformed: '1': None is not a label of a vertex"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": ["a", "b"]}', "labels",
         "malformed: ['a', 'b'] is not an object"),
        (["analyze"], '{"n": 3, "edges": [[0, 1], 2]}', "edges",
         "malformed: 2 is not an array"),
        (["homology", "--complex"], '{"facets": [[0, 1], 2]}', "facets",
         "malformed: 2 is not an array"),
        (["analyze"], '{"n": 3, "edges": [[0, 1, 2]]}', "edges",
         "malformed: [0, 1, 2] is not an edge"),
        (["analyze"], '{"n": 3, "edges": [[0]]}', "edges",
         "malformed: [0] is not an edge"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": []}', "labels",
         "malformed: [] is not an object"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": 0}', "labels",
         "malformed: 0 is not an object"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": false}', "labels",
         "malformed: False is not an object"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": ""}', "labels",
         "malformed: '' is not an object"),
        (["analyze"], '{"n": 2, "edges": [[0, 1]], "labels": null}', "labels",
         "malformed: None is not an object"),
    ]

    @pytest.mark.parametrize("argv, text, field", [case[:3] for case in MALFORMED_JSON])
    def test_malformed_json_exit_code(self, capsys, tmp_path, argv, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert repr(field) in err
        cause = next(case[3] for case in self.MALFORMED_JSON if case[1] == text)
        assert err == f"error: JSON field {field!r} is {cause}\n"


class TestAnalyze:
    def test_counterexample_summary(self, capsys, tmp_path):
        from ncomplex.verify import counterexample_graph
        path = tmp_path / "g.json"
        path.write_text(counterexample_graph().to_json())
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == 1
        assert payload["witness_cut"] == [1]
        assert payload["chordal"] is False
        assert payload["weakly_triangulated"] is False

    def test_caps_reported(self, capsys, tmp_path):
        # 33 vertices exceed CHROMATIC_CAP; weak triangulation has no cap
        path = tmp_path / "c33.json"
        _, out, _ = run_cli(capsys, "gen", "cycle", "33")
        path.write_text(out)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["chromatic_number"] == "skipped(cap)"
        assert payload["weakly_triangulated"] is False

    def test_k4(self, capsys, tmp_path):
        path = tmp_path / "k4.json"
        _, out, _ = run_cli(capsys, "gen", "complete", "4")
        path.write_text(out)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        payload = json.loads(out)
        assert payload["kappa"] == 3 and payload["chordal"] and payload["stiff"]
        assert payload["chromatic_number"] == 4

    def test_long_cycle(self, capsys, tmp_path):
        path = tmp_path / "c7.json"
        _, out, _ = run_cli(capsys, "gen", "cycle", "7")
        path.write_text(out)
        code, out, _ = run_cli(capsys, "analyze", str(path))
        payload = json.loads(out)
        assert payload["kappa"] == 2
        assert payload["chordal"] is False
        assert payload["weakly_triangulated"] is False

    def test_chordal_graphs_skip_the_weak_triangulation_search(
            self, capsys, tmp_path, monkeypatch):
        # a long hole is a hole and a long antihole holds a C4, so chordal
        # graphs are weakly triangulated and only the other graphs are searched
        import ncomplex.cli
        searched = []

        def refuse(G):
            searched.append(G.n)
            raise AssertionError("weak-triangulation search")

        monkeypatch.setattr(ncomplex.cli, "is_weakly_triangulated", refuse)
        path = tmp_path / "p30.json"
        path.write_text(path_graph(30).to_json())
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0 and searched == []
        assert json.loads(out)["weakly_triangulated"] is True
        path.write_text(cycle_graph(7).to_json())
        with pytest.raises(AssertionError, match="weak-triangulation search"):
            main(["analyze", str(path)])
        assert searched == [7]


class TestVerify:
    def test_counterexample_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "counterexample")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert "running" in err

    def test_table1_alias_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "chordal-main", "--count", "8", "--seed", "3")
        assert code == 0
        assert json.loads(out)["theorem_id"] == "chordal-main"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "chordal-main", "--count", "6", "--seed", "2")
        _, out2, _ = run_cli(capsys, "verify", "chordal-main", "--count", "6", "--seed", "2")
        assert out1 == out2

    def test_unknown_flag_rejected(self, capsys, tmp_path):
        path = tmp_path / "k3.json"
        path.write_text(complete_graph(3).to_json())
        # the search caps are module constants, not flags
        for argv in (["verify", "counterexample", "--bogus"],
                     ["verify", "chordal-connected", "--fold-cap", "5"],
                     ["analyze", str(path), "--chi-cap", "10"],
                     ["analyze", str(path), "--wt-cap", "10"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_unknown_id_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "no-such-theorem"])
        assert exc.value.code == 2

    def test_queen_grid_reuses_the_verifier_reports(self, capsys, monkeypatch):
        import ncomplex.cli
        import ncomplex.verify
        cells = {(2, 2): (0, 0, 1, 0), (2, 3): (0, 0, 1, 0)}
        monkeypatch.setattr(ncomplex.verify, "QUEEN_HOMOLOGY_TABLE", cells)
        calls = []
        real = ncomplex.verify.reduced_homology

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        for module in (ncomplex.verify, ncomplex.cli):
            monkeypatch.setattr(module, "reduced_homology", counted)
        code, out, _ = run_cli(capsys, "verify", "queen-table", "--format", "table")
        assert code == 0
        assert calls == [neighborhood_complex(queen_graph(2, 2)),
                         neighborhood_complex(queen_graph(2, 3))]
        head, _, *rows, summary = out.splitlines()
        assert head.split()[1:] == ["(2,2)", "(2,3)"]
        assert [row.split()[1:] for row in rows] == [["0", "0"], ["0", "0"],
                                                     ["Z", "Z"], ["0", "0"]]
        assert summary == "queen-table: pass (checked 2, skipped 0)"

    def test_negative_count_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "chordal-main", "--count", "-4")
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: count must be non-negative, not -4"]

    def test_count_above_cap_is_noted_on_stderr(self, capsys):
        code, capped, err = run_cli(capsys, "verify", "chordal-connected", "--count", "30")
        assert code == 0
        assert "note: chordal-connected checks at most 24" in err
        _, at_cap, err = run_cli(capsys, "verify", "chordal-connected", "--count", "24")
        assert capped == at_cap
        assert "note:" not in err


# SHA-256 of the stdout of `ncomplex verify <id> --seed 1 --count 100` for
# the verifiers that scan connectivity, recorded while the scan still
# reduced every face of the complex; queen-king's while it still read
# connectivity off full homology reports
SCAN_VERIFIER_STDOUT = {
    "lovasz-bound": "d5ad66b77cb397b527a59d2b2d570f8a2dee05081acb441823d6a981b2b565a0",
    "chordal-main": "74decc862fa5d117ee1bb44b3faf7cbcffc2430dc2ac30b7f6e5939c34099031",
    "chordal-connected": "4c954dc4e49ab94273bc168c416d8bf866c82eed6af6ac32c87a2aeb55508023",
    "cut-complete": "2f0ec7f435fc2f43131871b353ba5a0d216fdeaf3280aff950efdaabdb259d1d",
    "cut-bounds": "38c2e587e6ab6ff78cbaf673e02038931cf31aa47a1c31ec6c9dd05d3d20fa03",
    "queen-king": "19fb0ad4a7cdec164bd127f13ae07a0ba65f96d5195a57ba959644cadd4fef6e",
}


# the same for the verifiers that read full homology reports, recorded while
# the Smith route still built the cleared rows of each boundary and kept its
# elimination columns as sets
REPORT_VERIFIER_STDOUT = {
    "queen-table": "df3a553b0a4dd2b2d6c943e3d7cf482b5576b418f2e8b17cd93433a274df0328",
    "counterexample": "735e6c85e7edb4aa5ec966ec7b659b68aa590714cc17bdffc5a94a3b725fa1b1",
    "mycielskian": "c8ec05efb894b3d7f627bec23b931d70f4042ded9914a9ce47ddb1948466a550",
}

# the same for `ncomplex verify table1 --format table`, the queen-board grid
# the README documents
QUEEN_GRID_STDOUT = "3eae37c9c5f57747ac08fb974577e4c30f8fcf7d609c6d981891652270da4622"

# the same for `ncomplex analyze` on each graph of a seeded corpus in turn,
# the outputs joined; recorded while the flows still copied a capacity map
ANALYZE_STDOUT = "78733f77110449d266e8fdda5a6458ec3c224a6747ede4eb1c1925a14d5c3838"


def verifier_stdout_sha256(capsys, which):
    code, out, _ = run_cli(capsys, "verify", which, "--seed", "1", "--count", "100")
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("which", sorted(SCAN_VERIFIER_STDOUT))
def test_scan_verifier_stdout_is_pinned(capsys, which):
    assert verifier_stdout_sha256(capsys, which) == SCAN_VERIFIER_STDOUT[which]


@pytest.mark.parametrize("which", sorted(REPORT_VERIFIER_STDOUT))
def test_report_verifier_stdout_is_pinned(capsys, which):
    assert verifier_stdout_sha256(capsys, which) == REPORT_VERIFIER_STDOUT[which]


def test_queen_grid_stdout_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "table1", "--format", "table")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == QUEEN_GRID_STDOUT


def test_analyze_stdout_is_pinned(capsys, tmp_path):
    corpus = [g for _, g in random_graphs(60, 16, 1, connected=True)]
    corpus += [g for _, g in random_chordal_corpus(40, 1)]
    corpus += [gen(m, n) for gen in (queen_graph, king_graph)
               for m in range(2, 6) for n in range(m, 6)]
    corpus += [mycielskian(cycle_graph(k)) for k in range(3, 10)]
    outs = []
    for i, g in enumerate(corpus):
        path = tmp_path / f"g{i}.json"
        path.write_text(g.to_json())
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == ANALYZE_STDOUT
