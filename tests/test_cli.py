import json
import os
import subprocess
import sys

import pytest

import clique_blowup
from clique_blowup import cli
from clique_blowup.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_complete_three(self, capsys):
        code, out, _ = run(capsys, "gen", "complete", "3")
        assert code == 0
        assert out == "0 1\n0 2\n1 2\n"

    def test_invalid_size_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "2")
        assert code == 2
        assert "cycle" in err

    def test_star(self, capsys):
        code, out, _ = run(capsys, "gen", "star", "5")
        assert code == 0
        assert out.splitlines() == ["0 1", "0 2", "0 3", "0 4"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.txt"
        code, out, _ = run(capsys, "gen", "path", "3", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "0 1\n1 2\n"

    def test_flag_style_arguments(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "path", "--k", "3")
        assert code == 0
        assert out == "0 1\n1 2\n"

    def test_missing_arguments_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "complete")
        assert code == 2
        assert "size" in err


class TestBlowup:
    def test_triangle_n5(self, capsys):
        code, out, err = run(capsys, "blowup", "--input", "complete:3", "--n", "5")
        assert code == 0
        assert len(out.splitlines()) == 30
        assert "N=12 E=30" in err

    def test_single_edge_becomes_triangle(self, capsys):
        code, out, _ = run(capsys, "blowup", "--input", "complete:2", "--n", "3")
        assert code == 0
        assert out == "0 1\n0 2\n1 2\n"

    def test_size_cap_exits_3(self, capsys):
        code, _, err = run(capsys, "blowup", "--input", "complete:3", "--n", "5", "--r", "6")
        assert code == 3
        assert "cap" in err

    def test_env_var_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CLIQUE_BLOWUP_MAX_VERTICES", "10")
        code, _, _ = run(capsys, "blowup", "--input", "complete:3", "--n", "5")
        assert code == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CLIQUE_BLOWUP_MAX_VERTICES", "10")
        code, _, _ = run(
            capsys, "blowup", "--input", "complete:3", "--n", "5", "--max-vertices", "20"
        )
        assert code == 0

    def test_reads_edge_list_file(self, capsys, tmp_path):
        source = tmp_path / "k2.txt"
        source.write_text("0 1\n")
        code, out, _ = run(capsys, "blowup", "--input", str(source), "--n", "4")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "blowup", "--input", "nope.txt", "--n", "4")
        assert code == 2

    def test_disconnected_input_exits_2(self, capsys, tmp_path):
        source = tmp_path / "disconnected.txt"
        source.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, "blowup", "--input", str(source), "--n", "3")
        assert code == 2
        assert "connected" in err


class TestSpectra:
    def test_both_match(self, capsys):
        code, out, _ = run(
            capsys, "spectra", "--input", "complete:3", "--n", "5", "--method", "both"
        )
        assert code == 0
        assert "verdict: match" in out
        assert "x9" in out

    def test_theorem_only_single_edge(self, capsys):
        code, out, _ = run(
            capsys, "spectra", "--input", "complete:2", "--n", "4", "--method", "theorem"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["0", "x1"]
        value, mult = lines[1].split()
        assert float(value) == pytest.approx(4 / 3)
        assert mult == "x3"

    def test_impossible_tolerance_exits_1(self, capsys):
        code, out, _ = run(
            capsys,
            "spectra", "--input", "complete:3", "--n", "5",
            "--method", "both", "--tol", "1e-30",
        )
        assert code == 1
        assert "mismatch" in out

    def test_json_is_deterministic(self, capsys):
        args = ("spectra", "--input", "cycle:4", "--n", "3", "--format", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["theorem"]["order"] == 8
        assert doc["matched"] is True

    def test_depth_zero_reports_base_spectrum(self, capsys):
        code, out, _ = run(
            capsys,
            "spectra", "--input", "cycle:4", "--n", "3", "--r", "0",
            "--method", "theorem", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["order"] == 4


class TestIndexes:
    def test_all_routes_triangle_blowup(self, capsys):
        code, out, _ = run(
            capsys,
            "indexes", "--input", "complete:3", "--n", "5", "--r", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        for route in ("spectral", "closed_form", "oracle"):
            assert doc[route]["kf_star"] == pytest.approx(752.0, rel=1e-8)
        assert doc["closed_form"]["tau_exact"] == "2343750"
        assert doc["closed_form"]["kemeny_exact"] == "188/15"
        assert doc["deltas"]["kf_star"] <= 1e-8

    def test_single_route_table(self, capsys):
        code, out, _ = run(
            capsys,
            "indexes", "--input", "complete:2", "--n", "3", "--r", "1",
            "--route", "closed_form",
        )
        assert code == 0
        assert "closed_form" in out and "8" in out and "4/3" in out

    def test_depth_zero_reports_input_graph(self, capsys):
        code, out, _ = run(
            capsys, "indexes", "--input", "complete:3", "--route", "oracle",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kf_star"] == pytest.approx(8.0)
        assert doc["tau_exact"] == "3"

    def test_depth_without_clique_size_exits_2(self, capsys):
        code, _, err = run(capsys, "indexes", "--input", "complete:3", "--r", "2")
        assert code == 2
        assert "--n" in err

    def test_oracle_over_exact_cap_exits_3(self, capsys):
        code, _, _ = run(
            capsys,
            "indexes", "--input", "petersen", "--n", "6", "--r", "1",
            "--route", "oracle", "--exact-cap", "50",
        )
        assert code == 3

    def test_closed_form_table_output_is_pinned(self):
        # a child interpreter, so that any warning reaches the real stderr
        src = os.path.dirname(os.path.dirname(clique_blowup.__file__))
        proc = subprocess.run(
            [
                sys.executable, "-m", "clique_blowup.cli",
                "indexes", "--input", "cycle:4", "--n", "3", "--r", "2",
                "--route", "closed_form",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            "route        kf_star                  kemeny                   tau\n"
            "closed_form  1776                     74/3                     15116544\n"
        )
        assert proc.stderr == ""

    def test_closed_form_json_output_is_pinned(self, capsys):
        code, out, err = run(
            capsys,
            "indexes", "--input", "cycle:4", "--n", "3", "--r", "2",
            "--route", "closed_form", "--format", "json",
        )
        assert code == 0
        assert out == (
            '{"kf_star":1776,"kemeny":24.666666666666668,"tau_float":15116544,'
            '"tau_exact":"15116544","route":"closed_form","n":3,"r":2,'
            '"kf_star_exact":"1776","kemeny_exact":"74/3"}\n'
        )
        assert err == ""

    @pytest.mark.parametrize("route", ["closed_form", "spectral"])
    def test_tau_beyond_float_range_exits_3(self, capsys, route):
        code, out, err = run(
            capsys,
            "indexes", "--input", "petersen", "--n", "6", "--r", "2",
            "--route", route,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unreachable_tolerance_exits_1(self, capsys):
        code, out, err = run(
            capsys,
            "indexes", "--input", "complete:3", "--n", "5", "--r", "1",
            "--tol", "1e-18",
        )
        assert code == 1
        assert "disagree" in err
        assert "deltas" in out


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--corpus", "complete:2,cycle:4", "--n-list", "3", "--r-list", "1",
        )
        assert code == 0
        assert "RESULT: PASS" in out
        assert "complete:2" in out and "n=3,r=1" in out

    def test_small_grid_output_is_pinned(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--corpus", "complete:2,cycle:4", "--n-list", "3", "--r-list", "1,2",
        )
        assert code == 0
        assert out == (
            "graph       structural  n=3,r=1  n=3,r=2\n"
            "complete:2  ok          ok       ok     \n"
            "cycle:4     ok          ok       ok     \n"
            "RESULT: PASS (66 checks, 0 failures, 0 skipped)\n"
        )

    @pytest.mark.parametrize("corpus", ["", ","])
    def test_empty_corpus_exits_2(self, capsys, corpus):
        code, _, err = run(capsys, "verify", "--corpus", corpus)
        assert code == 2
        assert "empty" in err

    def test_bad_spec_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--corpus", "wheel:9")
        assert code == 2

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_verification", exhausted)
        code, out, err = run(capsys, "verify", "--corpus", "complete:2")
        assert code == 3
        assert out == ""
        assert err == "error: out of memory\n"

    def test_jobs_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--corpus", "complete:2,complete:3",
            "--n-list", "3", "--r-list", "1", "--jobs", "2",
        )
        assert code == 0
        assert "RESULT: PASS" in out
