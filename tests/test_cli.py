import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncomplex
from ncomplex.cli import main
from ncomplex.graph import complete_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("argv, text, field", [
        (["analyze"], '{"n": 3}', "edges"),
        (["analyze"], '{"n": 3, "edges": null}', "edges"),
        (["homology", "--complex"], '{"facets": 5}', "facets"),
        (["homology", "--complex"], '{"facets": [[0, "a"], [1, 2]]}', "facets"),
    ])
    def test_malformed_json_exit_code(self, capsys, tmp_path, argv, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert repr(field) in err


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
            calls.append(kwargs.get("source"))
            return real(*args, **kwargs)
        for module in (ncomplex.verify, ncomplex.cli):
            monkeypatch.setattr(module, "reduced_homology", counted)
        code, out, _ = run_cli(capsys, "verify", "queen-table", "--format", "table")
        assert code == 0
        assert calls == ["queen-2x2", "queen-2x3"]
        head, _, *rows, summary = out.splitlines()
        assert head.split()[1:] == ["(2,2)", "(2,3)"]
        assert [row.split()[1:] for row in rows] == [["0", "0"], ["0", "0"],
                                                     ["Z", "Z"], ["0", "0"]]
        assert summary == "queen-table: pass (checked 2, skipped 0)"

    def test_count_above_cap_is_noted_on_stderr(self, capsys):
        code, capped, err = run_cli(capsys, "verify", "chordal-connected", "--count", "30")
        assert code == 0
        assert "note: chordal-connected checks at most 24" in err
        _, at_cap, err = run_cli(capsys, "verify", "chordal-connected", "--count", "24")
        assert capped == at_cap
        assert "note:" not in err
