import ast
import graphlib
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import clique_blowup
from clique_blowup import (
    BlowupParams,
    NumericalFailureError,
    _blas,
    _exact,
    blowup,
    blowup_counts,
    cli,
    eig_sym,
    gen_family,
    indexes,
    spectral,
    tau_blowup_closed,
    verify,
)
from clique_blowup.cli import main
from clique_blowup.corpus import DEFAULT_CORPUS_SPECS

from conftest import late_fill_graph, set_physical_memory


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

    @pytest.mark.parametrize(
        "argv",
        [("cycle", "5", "--family", "path", "--k", "3"), ("cycle", "5", "--family", "path"),
         ("cycle", "5", "--k", "3"), ("path", "3", "4"), ("--k", "3", "path", "4")],
    )
    def test_a_value_given_twice_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert err == "error: gen takes the family and the size once each, positional or flag\n"

    def test_one_positional_and_the_other_flag(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "--k", "3")
        assert code == 0
        assert out == "0 1\n0 2\n1 2\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [(("--family", "path", "3"), "0 1\n1 2\n"), (("3", "--family", "path"), "0 1\n1 2\n"),
         (("--k", "3", "cycle"), "0 1\n0 2\n1 2\n")],
    )
    def test_a_positional_fills_the_value_no_flag_gave(self, capsys, argv, expected):
        code, out, err = run(capsys, "gen", *argv)
        assert (code, out, err) == (0, expected, "")

    def test_a_positional_size_must_be_an_integer(self, capsys):
        code, out, err = run(capsys, "gen", "path", "x")
        assert (code, out) == (2, "")
        assert err == "error: gen size must be an integer, got 'x'\n"

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

    def test_edge_bytes_over_physical_memory_exit_3(self, capsys, monkeypatch):
        # K_20000 has 199,990,000 edges: refused before any is built
        set_physical_memory(monkeypatch, 2**33)
        built = []
        monkeypatch.setattr(blowup, "clique_blowup", lambda *args: built.append(args))
        code, out, err = run(capsys, "blowup", "--input", "complete:2", "--n", "20000")
        assert (code, out, built) == (3, "", [])
        assert err == (
            f"error: a blowup with 199990000 edges would need {199990000 * blowup.EDGE_BYTES}"
            " bytes, more than the 8589934592 of physical memory\n"
        )

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

    def test_quotient_over_physical_memory_exits_3(self, capsys, monkeypatch):
        # cycle:200 at r=0 is twin-free: 200 edges fit, the order-200 quotient does not
        set_physical_memory(monkeypatch, 100_000)
        code, out, err = run(
            capsys, "spectra", "--input", "cycle:200", "--n", "3", "--r", "0",
            "--method", "numeric",
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: a matrix of order 200 would need 320000 bytes,"
            " more than the 100000 of physical memory\n"
        )

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

    def test_theorem_method_ignores_vertex_cap(self, capsys):
        # the mapping builds nothing, so 48816970 vertices are no reason to stop
        code, out, _ = run(
            capsys,
            "spectra", "--input", "petersen", "--n", "6", "--r", "6",
            "--method", "theorem", "--format", "json",
        )
        assert code == 0
        assert out.startswith('{"order":48816970,')

    @pytest.mark.parametrize("r", [8, 9])
    def test_theorem_method_maps_below_the_base_tolerance(self, capsys, r):
        # the mapped 4.267e-6 and 5.12e-6 at r = 8, and 0 and 8.53e-7 at r = 9,
        # lie within the base's 1e-6, but each level divides cluster_tol by n - 1
        code, out, err = run(
            capsys,
            "spectra", "--input", "petersen", "--n", "6", "--r", str(r),
            "--method", "theorem", "--format", "json",
        )
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["order"] == blowup_counts(10, 15, BlowupParams(6, r)).vertices
        assert doc["cluster_tol"] == pytest.approx(1e-6 / 5**r, rel=1e-12)

    def test_theorem_method_deepest_unmerged_output_is_pinned(self, capsys):
        code, out, err = run(
            capsys,
            "spectra", "--input", "petersen", "--n", "6", "--r", "7",
            "--method", "theorem", "--format", "json",
        )
        assert code == 0
        assert err == ""
        assert out == (
            '{"order":732254470,"cluster_tol":1.2800000000000002e-11,"entries":[[0,1],'
            "[8.5333333333333335e-06,5],[2.1333333333333335e-05,4],"
            "[2.5600000000000006e-05,5],[7.680000000000001e-05,55],"
            "[0.00012800000000000002,155],[0.00038400000000000006,745],"
            "[0.00064000000000000005,2405],[0.0019200000000000003,11095],"
            "[0.0032000000000000002,36155],[0.0096000000000000009,166345],"
            "[0.016,542405],[0.048000000000000001,2495095],"
            "[0.080000000000000002,8136155],[0.23999999999999999,37426345],"
            "[0.40000000000000002,122042405],[1.2,561395095]]}\n"
        )

    @pytest.mark.parametrize(
        "r, code, message",
        [
            (439, 0, ""),
            (440, 3, "error: mapped spectrum underflows at level 440: eigenvalue "
             "1.89e-308 is below the smallest normal double\n"),
        ],
    )
    def test_theorem_method_rejects_an_underflowing_level(self, capsys, r, code, message):
        # the smallest mapped value, 1.89e-308 at r = 440, is below 2.2e-308
        result, out, err = run(
            capsys,
            "spectra", "--input", "petersen", "--n", "6", "--r", str(r),
            "--method", "theorem", "--format", "json",
        )
        assert (result, err) == (code, message)
        assert out.startswith('{"order":') == (code == 0)

    def test_large_blowup_both_methods(self, capsys):
        # the spectra_large benchmark command, in-process
        code, out, _ = run(
            capsys,
            "spectra", "--input", "petersen", "--n", "8", "--r", "2",
            "--method", "both", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matched"] is True
        for route in ("theorem", "numeric"):
            assert doc[route]["order"] == 2620
            mults = [m for v, m in doc[route]["entries"] if abs(v - 8 / 7) <= 1e-9]
            assert mults == [2200]

    def test_numeric_method_skips_base_eigensolve(self, capsys, monkeypatch):
        solved = []
        original = spectral.laplacian_spectrum

        def recording(g, *args, **kwargs):
            solved.append(g.vertex_count)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(spectral, "laplacian_spectrum", recording)
        code, _, _ = run(
            capsys, "spectra", "--input", "cycle:5", "--n", "4", "--method", "numeric"
        )
        assert code == 0
        assert solved == [15]

    @pytest.mark.parametrize("method", ["numeric", "theorem", "both"])
    @pytest.mark.parametrize(
        "spec, extra, code, message",
        [
            ("path:1", (), 2, "error: normalized Laplacian needs every degree >= 1\n"),
            ("path:4", ("--max-vertices", "3"), 3, "error: matrix order 4 exceeds cap 3\n"),
        ],
    )
    def test_numeric_method_keeps_base_graph_errors(
        self, capsys, spec, extra, code, message, method
    ):
        # every method checks the base graph first, so each fails the same way
        got, out, err = run(
            capsys, "spectra", "--input", spec, "--n", "3", "--method", method, *extra
        )
        assert (got, out, err) == (code, "", message)

    @pytest.mark.parametrize("spec", DEFAULT_CORPUS_SPECS)
    def test_depth_zero_theorem_writes_the_numeric_bytes(self, capsys, spec):
        # at r = 0 the mapping is the identity and the blowup is the input graph
        theorem, numeric = (
            run(
                capsys, "spectra", "--input", spec, "--n", "3", "--r", "0",
                "--method", method, "--format", "json",
            )
            for method in ("theorem", "numeric")
        )
        assert theorem == numeric
        assert theorem[0] == 0 and theorem[2] == ""

    def test_numeric_method_rejects_disconnected_input(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        code, out, err = run(
            capsys, "spectra", "--input", str(path), "--n", "3", "--method", "numeric"
        )
        assert (code, out, err) == (2, "", "error: operation requires a connected graph\n")

    def test_both_method_over_vertex_cap_exits_3(self, capsys):
        code, out, _ = run(
            capsys,
            "spectra", "--input", "petersen", "--n", "6", "--r", "6",
            "--method", "both", "--format", "json",
        )
        assert code == 3
        assert out == ""


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

    @pytest.mark.parametrize("n", [[], ["--n", "5"]])
    def test_depth_zero_json_has_no_clique_size(self, capsys, n):
        # r = 0 inserts no clique: the report gives no n, whether or not --n was passed
        code, out, _ = run(
            capsys, "indexes", "--input", "petersen", "--route", "oracle", "--format", "json", *n,
        )
        assert (code, out) == (0, (
            '{"kf_star":297,"kemeny":9.9000000000000004,"tau_float":2000,"tau_exact":"2000",'
            '"route":"oracle","r":0}\n'
        ))

    def test_depth_without_clique_size_exits_2(self, capsys):
        code, _, err = run(capsys, "indexes", "--input", "complete:3", "--r", "2")
        assert code == 2
        assert "--n" in err

    def test_oracle_over_exact_cap_exits_3(self, capsys):
        # the n=3 blowup has no true twins, so its quotient order q = N = 25
        code, _, _ = run(
            capsys,
            "indexes", "--input", "petersen", "--n", "3", "--r", "1",
            "--route", "oracle", "--exact-cap", "20",
        )
        assert code == 3

    def test_oracle_checks_the_exact_cap_before_the_float_solve(self, capsys, monkeypatch):
        # the uncapped float solve of kf_star_direct must not run first: a
        # tau over the cap takes precedence over a failure of that solve
        def fail(rows):
            raise AssertionError("float solve ran before the exact cap")

        monkeypatch.setattr(indexes, "_shifted_inverse", fail)
        code, out, err = run(
            capsys,
            "indexes", "--input", "petersen", "--n", "5", "--r", "2", "--route", "oracle",
        )
        assert (code, out, err) == (3, "", "error: order 205 exceeds exact cap 200\n")

    def test_exact_cap_bounds_the_twin_quotient(self, capsys):
        # N = 70 is over the cap, but the 15 cliques of 4 twins leave q = 25
        code, out, _ = run(
            capsys,
            "indexes", "--input", "petersen", "--n", "6", "--r", "1",
            "--route", "oracle", "--exact-cap", "50", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["tau_exact"] == str(
            tau_blowup_closed(2000, 10, 15, BlowupParams(6, 1))
        )

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

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(clique_blowup.__file__))
        code = (
            "import sys, clique_blowup.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing') "
            "or m.startswith('concurrent.futures')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

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

    # Petersen at n=3 is twin-free (q = N = 25): every route, and the deltas
    PETERSEN_ALL = ("indexes", "--input", "petersen", "--n", "3", "--r", "1", "--route", "all")

    def test_all_routes_json_output_is_pinned(self, capsys):
        code, out, err = run(capsys, *self.PETERSEN_ALL, "--format", "json")
        assert code == 0
        assert out == (
            '{"spectral":{"kf_star":2832,"kemeny":31.466666666666669,'
            '"tau_float":2519423999.9999251,"route":"spectral","n":3,"r":1},'
            '"closed_form":{"kf_star":2832,"kemeny":31.466666666666665,'
            '"tau_float":2519424000,"tau_exact":"2519424000","route":"closed_form","n":3,"r":1,'
            '"kf_star_exact":"2832","kemeny_exact":"472/15"},'
            '"oracle":{"kf_star":2832.0000000000005,"kemeny":31.466666666666672,'
            '"tau_float":2519424000,"tau_exact":"2519424000","route":"oracle","n":3,"r":1},'
            '"deltas":{"kf_star":1.61e-16,"kemeny":2.26e-16,"tau":2.97e-14}}\n'
        )
        assert err == ""

    def test_all_routes_table_output_is_pinned(self, capsys):
        code, out, err = run(capsys, *self.PETERSEN_ALL)
        assert code == 0
        assert out == (
            "route        kf_star                  kemeny                   tau\n"
            "spectral     2832                     31.4666666667            2519424000\n"
            "closed_form  2832                     472/15                   2519424000\n"
            "oracle       2832                     31.4666666667            2519424000\n"
            'deltas: {"kf_star":1.61e-16,"kemeny":2.26e-16,"tau":2.97e-14}\n'
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

    @pytest.mark.parametrize(
        ("argv", "route", "log10"),
        [
            (("petersen", "--n", "6", "--r", "2", "--route", "closed_form"), "closed_form", "673.0"),
            (("petersen", "--n", "6", "--r", "2", "--route", "spectral"), "spectral", "673.0"),
            # the spectral route runs first and overflows first
            (("petersen", "--n", "6", "--r", "2", "--route", "all"), "spectral", "673.0"),
            (
                ("petersen", "--n", "5", "--r", "2", "--route", "oracle", "--exact-cap", "600"),
                "oracle",
                "308.7",
            ),
            (("cycle:1000", "--n", "3", "--r", "1", "--route", "spectral"), "spectral", "479.9"),
        ],
    )
    def test_beyond_double_range_names_index_route_and_size(self, capsys, argv, route, log10):
        code, out, err = run(capsys, "indexes", "--input", *argv)
        assert (code, out) == (3, "")
        assert err == (
            f"error: tau of the {route} route is beyond the double range (log10 tau = {log10})\n"
        )

    def test_deep_closed_form_tau_exits_3_without_forming_it(self):
        # 2^a 3^b tau0 at r = 30 would have about 2e15 digits; its log10 is refused first
        src = os.path.dirname(os.path.dirname(clique_blowup.__file__))
        proc = subprocess.run(
            [
                sys.executable, "-m", "clique_blowup.cli",
                "indexes", "--input", "petersen", "--n", "3", "--r", "30",
                "--route", "closed_form",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "error: tau of the closed_form route is beyond the double range"
            " (log10 tau = 600804157058839.8)\n"
        )

    def test_shifted_inverse_over_physical_memory_exits_3(self, capsys, monkeypatch):
        # petersen n=3 r=1 is twin-free: its 45 edges and exact tau fit, the float solve of
        # its 25 x 25 Laplacian (115 nonzeros) does not
        need = indexes.INVERSE_ARRAYS * 8 * 25 * 25 + indexes.ROW_BYTES * 115
        set_physical_memory(monkeypatch, need - 1)
        code, out, err = run(
            capsys, "indexes", "--input", "petersen", "--n", "3", "--r", "1", "--route", "oracle"
        )
        assert (code, out) == (3, "")
        assert err == (
            f"error: a shifted inverse of order 25 would need {need} bytes,"
            f" more than the {need - 1} of physical memory\n"
        )

    def test_dense_determinant_over_physical_memory_exits_3(self, capsys, monkeypatch, tmp_path):
        # 5 path vertices on a G(40, 0.9) core: exact tau hands the numpy loop the
        # 39 core rows, a prediction above the order-45 float solve's
        need = _exact.DENSE_BYTES * 39 * 39
        source = tmp_path / "late.txt"
        source.write_text("".join(f"{u} {v}\n" for u, v in late_fill_graph(40, 5).edges))
        set_physical_memory(monkeypatch, need - 1)
        code, out, err = run(capsys, "indexes", "--input", str(source), "--route", "oracle")
        assert (code, out) == (3, "")
        assert err == (
            f"error: a dense determinant of order 39 would need {need} bytes,"
            f" more than the {need - 1} of physical memory\n"
        )
        set_physical_memory(monkeypatch, need)
        code, _, _ = run(capsys, "indexes", "--input", str(source), "--route", "oracle")
        assert code == 0

    @pytest.mark.parametrize("route", ["closed_form", "oracle", "spectral", "all"])
    @pytest.mark.parametrize("r", ["0", "1"])
    def test_edgeless_input_exits_2(self, capsys, route, r):
        # every route divides by the edge count; all fail as the spectral one does
        code, out, err = run(
            capsys, "indexes", "--input", "path:1", "--n", "3", "--r", r, "--route", route
        )
        assert (code, out, err) == (
            2, "", "error: normalized Laplacian needs every degree >= 1\n"
        )

    def test_unreachable_tolerance_exits_1(self, capsys):
        code, out, err = run(
            capsys,
            "indexes", "--input", "complete:3", "--n", "5", "--r", "1",
            "--tol", "1e-18",
        )
        assert code == 1
        assert "disagree" in err
        assert "deltas" in out


TOL_COMMANDS = [
    ("spectra", "--input", "cycle:4", "--n", "3"),
    ("indexes", "--input", "cycle:4"),
    ("verify", "--corpus", "complete:2"),
]


class TestToleranceOption:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", TOL_COMMANDS)
    def test_invalid_tolerance_exits_2(self, capsys, argv, tol):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--tol={tol}"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "argument --tol: tolerance must be finite and >= 0" in err
        assert "Traceback" not in err

    def test_non_numeric_tolerance_message_unchanged(self, capsys):
        with pytest.raises(SystemExit):
            main(["indexes", "--input", "cycle:4", "--tol", "abc"])
        assert "argument --tol: invalid float value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", TOL_COMMANDS)
    def test_zero_tolerance_is_accepted(self, argv):
        assert cli.build_parser().parse_args([*argv, "--tol", "0"]).tol == 0.0


INT_OPTIONS = [
    (("blowup", "--input", "petersen", "--n", "3"), "--max-vertices", 0),
    (("spectra", "--input", "petersen", "--n", "3", "--method", "numeric"), "--max-vertices", 0),
    (("indexes", "--input", "petersen"), "--max-vertices", 0),
    (("indexes", "--input", "petersen"), "--exact-cap", 0),
    (("verify", "--corpus", "petersen", "--n-list", "3", "--r-list", "1"), "--max-vertices", 0),
    (("verify", "--corpus", "petersen", "--n-list", "3", "--r-list", "1"), "--exact-cap", 0),
    (("verify", "--corpus", "petersen", "--n-list", "3", "--r-list", "1"), "--jobs", 1),
]


class TestIntegerOptions:
    @pytest.mark.parametrize("argv, option, low", INT_OPTIONS)
    def test_below_the_floor_exits_2_with_usage(self, capsys, argv, option, low):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{option}={low - 1}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage: clique-blowup {argv[0]} ")
        assert captured.err.endswith(
            f"error: argument {option}: must be >= {low}, got {low - 1}\n"
        )

    @pytest.mark.parametrize("argv, option, low", INT_OPTIONS)
    def test_floor_is_accepted(self, argv, option, low):
        args = cli.build_parser().parse_args([*argv, option, str(low)])
        assert getattr(args, option[2:].replace("-", "_")) == low

    def test_non_numeric_message_unchanged(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--corpus", "complete:2", "--jobs", "x"])
        assert "argument --jobs: invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        ("-1", "CLIQUE_BLOWUP_MAX_VERTICES must be >= 0, got -1"),
        ("x", "CLIQUE_BLOWUP_MAX_VERTICES must be an integer, got 'x'"),
    ])
    def test_invalid_env_cap_exits_2(self, capsys, monkeypatch, raw, message):
        monkeypatch.setenv("CLIQUE_BLOWUP_MAX_VERTICES", raw)
        code, out, err = run(capsys, "blowup", "--input", "complete:3", "--n", "3")
        assert (code, out, err) == (2, "", f"error: {message}\n")


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
            "RESULT: PASS (62 checks, 0 failures, 0 skipped)\n"
        )

    def test_a_blowup_over_physical_memory_is_a_skip(self, capsys, monkeypatch):
        # cycle:5 n=5 r=1 has 50 edges; the base graph's 5 x 5 float solve still fits
        limit = 50 * blowup.EDGE_BYTES - 1
        assert indexes.INVERSE_ARRAYS * 8 * 5 * 5 + indexes.ROW_BYTES * 15 <= limit
        set_physical_memory(monkeypatch, limit)
        code, out, _ = run(
            capsys, "verify", "--corpus", "cycle:5", "--n-list", "5", "--r-list", "1",
        )
        assert code == 0
        assert out.splitlines()[1].split() == ["cycle:5", "ok", "skip"]
        assert out.endswith(" 0 failures, 1 skipped)\n")

    def test_a_float_solve_over_physical_memory_is_a_skip(self, capsys, monkeypatch):
        # the blowup of cycle:5 is twin-free at q = 10 (40 nonzeros); its spectrum
        # fits, its float Kf* does not, so the cell stops there with one skip: part
        need = indexes.INVERSE_ARRAYS * 8 * 10 * 10 + indexes.ROW_BYTES * 40
        set_physical_memory(monkeypatch, need - 1)
        code, out, _ = run(
            capsys, "verify", "--corpus", "cycle:5", "--n-list", "3", "--r-list", "1",
        )
        assert code == 0
        assert out.splitlines()[1].split() == ["cycle:5", "ok", "part"]
        assert out.endswith(" 0 failures, 1 skipped)\n")
        set_physical_memory(monkeypatch, need)
        code, out, _ = run(
            capsys, "verify", "--corpus", "cycle:5", "--n-list", "3", "--r-list", "1",
        )
        assert out.endswith(" 0 failures, 0 skipped)\n")

    def test_default_grid_output_is_pinned(self, capsys):
        # complete:4 n=5,r=2 (q = 82) and petersen n=4,r=2 (q = 130) are within
        # the exact cap; only petersen n=5,r=2 (q = 205) skips its exact tau,
        # and so its two tau checks: that cell reads part
        code, out, _ = run(capsys, "verify")
        assert code == 0
        ok_row = "ok          ok       ok       ok       ok       ok       ok     "
        names = ["complete:2", "path:3", "path:4", "cycle:4", "cycle:5",
                 "complete:3", "complete:4", "star:5"]
        assert out == (
            "graph       structural  n=3,r=1  n=3,r=2  n=4,r=1  n=4,r=2  n=5,r=1  n=5,r=2\n"
            + "".join(f"{name:<12}{ok_row}\n" for name in names)
            + f"{'petersen':<12}{ok_row[:-7]}part   \n"
            + "RESULT: PASS (634 checks, 0 failures, 1 skipped)\n"
        )

    def test_tau_over_the_exact_cap_skips_only_the_tau_checks(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--corpus", "petersen", "--n-list", "5", "--r-list", "2"
        )
        assert code == 0
        assert out.splitlines()[1].split() == ["petersen", "ok", "part"]
        assert out.endswith("RESULT: PASS (19 checks, 0 failures, 1 skipped)\n")
        report = clique_blowup.run_verification([("petersen", clique_blowup.petersen())], [5], [2])
        cell = {r.check: r for r in report.results if r.subject == "petersen n=5,r=2"}
        assert cell["cell"].skipped and cell["cell"].detail.startswith("skipped: order 205 ")
        for check in ("blowup-kf-oracle", "blowup-kemeny-oracle", "closed-vs-oracle-kf"):
            assert cell[check].passed and not cell[check].skipped
        assert "closed-vs-oracle-tau" not in cell and "blowup-tau-oracle" not in cell

    def test_deep_grid_forms_no_tree_count(self, capsys, monkeypatch):
        # the cell is over the vertex cap, and the monotonicity check compares
        # the exponents of tau, whose count at r = 7 would have about 1e8 bits
        def not_formed(*args):
            raise AssertionError("a tree count was formed")

        monkeypatch.setattr(clique_blowup.indexes, "_tau_count", not_formed)
        code, out, err = run(
            capsys, "verify", "--corpus", "petersen", "--n-list", "5", "--r-list", "7"
        )
        assert (code, err) == (0, "")
        assert out.endswith("RESULT: PASS (12 checks, 0 failures, 1 skipped)\n")

    def test_exact_cap_bounds_the_twin_quotient(self, capsys):
        # N = 70 is over the cap, but the 15 cliques of 4 twins leave q = 25
        code, out, _ = run(
            capsys,
            "verify", "--corpus", "petersen", "--n-list", "6", "--r-list", "1",
            "--exact-cap", "50",
        )
        assert code == 0
        assert out.endswith("RESULT: PASS (21 checks, 0 failures, 0 skipped)\n")

    def test_tau_beyond_float_range_is_checked_by_its_log(self, capsys):
        # q = 205 is within the cap, and log10 tau = 308.7 is beyond a double
        code, out, err = run(
            capsys,
            "verify", "--corpus", "petersen", "--n-list", "5", "--r-list", "2",
            "--exact-cap", "600",
        )
        assert (code, err) == (0, "")
        assert out.endswith("RESULT: PASS (20 checks, 0 failures, 0 skipped)\n")

    def test_failing_graph_fails_its_cells(self, capsys, monkeypatch):
        # the eigensolve of complete:2 fails: its structural checks and its one
        # cell each fail once, and path:3 still runs
        solve = verify.laplacian_spectrum

        def failing(g, *args, **kwargs):
            if g.vertex_count == 2:
                raise NumericalFailureError("dsyevd returned info 1")
            return solve(g, *args, **kwargs)

        monkeypatch.setattr(verify, "laplacian_spectrum", failing)
        code, out, err = run(
            capsys, "verify", "--corpus", "complete:2,path:3", "--n-list", "3", "--r-list", "1",
        )
        assert code == 1
        assert out == (
            "graph       structural  n=3,r=1\n"
            "complete:2  FAIL        FAIL   \n"
            "path:3      ok          ok     \n"
            "RESULT: FAIL (24 checks, 2 failures, 0 skipped)\n"
        )
        assert err == (
            "first failure: structural on complete:2: error: dsyevd returned info 1\n"
        )

    @pytest.mark.parametrize(
        "flag, values, message",
        [
            ("--corpus", "complete:2,path:3,complete:2", "corpus spec once, got complete:2"),
            ("--corpus", "path:3, path:3", "corpus spec once, got path:3"),
            ("--n-list", "3,4,3", "n once, got 3"),
            ("--r-list", "1,1", "r once, got 1"),
        ],
    )
    def test_a_repeated_grid_value_exits_2(self, capsys, flag, values, message):
        # a repeat would run its checks twice and print a row or column twice
        grid = {"--corpus": "path:3", "--n-list": "3", "--r-list": "1", flag: values}
        code, out, err = run(capsys, "verify", *[x for item in grid.items() for x in item])
        assert (code, out, err) == (2, "", f"error: verify takes each {message} twice\n")

    @pytest.mark.parametrize("spec", ["path:1", "star:1"])
    def test_one_vertex_corpus_graph_exits_2(self, capsys, spec):
        # no route can check a graph without edges, so nothing runs
        code, out, err = run(
            capsys, "verify", "--corpus", f"path:3,{spec}", "--n-list", "3", "--r-list", "1",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: corpus graph {spec}: normalized Laplacian needs every degree >= 1\n"
        )

    @pytest.mark.parametrize(
        "cap,row,summary",
        [
            ("9", "petersen  skip        skip   ", "2 checks, 0 failures, 2 skipped"),
            ("10", "petersen  ok          skip   ", "12 checks, 0 failures, 1 skipped"),
        ],
        ids=["base-over-cap", "base-at-cap"],
    )
    def test_vertex_cap_applies_to_base_graphs(self, capsys, cap, row, summary):
        code, out, err = run(
            capsys,
            "verify", "--corpus", "petersen", "--n-list", "3", "--r-list", "1",
            "--max-vertices", cap,
        )
        assert code == 0
        assert err == ""
        assert out == (
            f"graph     structural  n=3,r=1\n{row}\nRESULT: PASS ({summary})\n"
        )

    def test_base_graph_error_outranks_vertex_cap(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--corpus", "path:1", "--n-list", "3", "--r-list", "1",
            "--max-vertices", "0",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: corpus graph path:1: ") and err.count("\n") == 1
        assert "needs every degree >= 1" in err

    @pytest.mark.parametrize("grid", [  # each grid with its error message
        (["--n-list", "2"], "verify needs every n >= 3 and every r >= 1"),
        (["--r-list", "0"], "verify needs every n >= 3 and every r >= 1"),
        (["--r-list=-1"], "verify needs every n >= 3 and every r >= 1"),
        (["--n-list", "x"], "--n-list must be comma-separated integers"),
        (["--r-list", ","], "--r-list must not be empty"),
    ])
    def test_invalid_grid_exits_2(self, capsys, grid):
        argv, message = grid
        code, out, err = run(capsys, "verify", "--corpus", "complete:3", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

        monkeypatch.setattr(verify, "run_verification", exhausted)
        code, out, err = run(capsys, "verify", "--corpus", "complete:2")
        assert code == 3
        assert out == ""
        assert err == "error: out of memory\n"

    def test_console_script_entry_point_exits_with_the_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["clique-blowup", "verify", "--corpus", "complete:2"])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_jobs_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--corpus", "complete:2,complete:3",
            "--n-list", "3", "--r-list", "1", "--jobs", "2",
        )
        assert code == 0
        assert "RESULT: PASS" in out


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(code, **env_vars):
    """stdout of ``python -c code`` with only the given thread variables set.

    The environment is built from a copy without the three variables, because
    importing ``cli`` in this process has set them here.
    """
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env.update(PYTHONPATH=os.path.dirname(os.path.dirname(clique_blowup.__file__)), **env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


needs_task_dir = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)
needs_two_cores = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable cores",
)


class TestThreadPin:
    @needs_task_dir
    def test_cli_import_loads_numpy_on_one_thread(self):
        code = "import clique_blowup.cli, numpy, os; print(len(os.listdir('/proc/self/task')))"
        assert run_child(code) == "1\n"

    @needs_task_dir
    def test_module_run_loads_numpy_on_one_thread(self):
        # run_module imports the package first, as `python -m clique_blowup.cli` does;
        # gen loads no numpy, so a numeric command runs
        code = (
            "import os, runpy, sys\n"
            "sys.argv = ['clique-blowup', 'spectra', '--input', 'complete:2', '--n', '3',\n"
            "            '--r', '0', '--method', 'numeric', '--format', 'json']\n"
            "try:\n"
            "    runpy.run_module('clique_blowup.cli', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))\n"
        )
        assert run_child(code).splitlines()[-1] == "True 1"

    def test_cli_import_looks_up_no_openblas(self):
        code = (
            "import clique_blowup.cli\n"
            "from clique_blowup import _blas\n"
            "print(_blas._openblas.cache_info().currsize)\n"
        )
        assert run_child(code) == "0\n"

    def test_numpy_loaded_first_keeps_its_count(self):
        # the variables are still set, but the count is numpy's, so it is never raised
        code = (
            "import numpy, os\n"
            "import clique_blowup.cli\n"
            "from clique_blowup import _blas, eig_sym\n"
            "eig_sym(numpy.eye(_blas.PARALLEL_ORDER))\n"
            f"print([os.environ[v] for v in {THREAD_VARS}], _blas._owner == os.getpid(),\n"
            "      _blas._setter.cache_info().currsize)\n"
        )
        assert run_child(code) == "['1', '1', '1'] False 0\n"

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or (os.cpu_count() or 1) < 2,
        reason="needs an affinity mask narrower than the CPU count",
    )
    def test_verify_workers_are_capped_by_the_affinity_mask(self):
        # one usable core of two or more: verify --jobs 2 runs serially
        code = (
            "import concurrent.futures, os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from clique_blowup import gen_family, run_verification\n"
            "pools = []\n"
            "class Pool:\n"  # records its worker count and maps serially: nothing forks
            "    def __init__(self, max_workers):\n"
            "        pools.append(max_workers)\n"
            "    def __enter__(self):\n"
            "        return self\n"
            "    def __exit__(self, *exc):\n"
            "        pass\n"
            "    map = staticmethod(map)\n"
            "concurrent.futures.ProcessPoolExecutor = Pool\n"
            "corpus = [('complete:3', gen_family('complete', 3))]\n"
            "print(run_verification(corpus, [3], [1, 2], jobs=2).passed, pools)\n"
        )
        assert run_child(code) == "True []\n"

    def test_a_count_the_user_set_stands(self):
        code = f"import os, clique_blowup.cli; print([os.environ.get(v) for v in {THREAD_VARS}])"
        assert run_child(code, OMP_NUM_THREADS="3") == "['3', None, None]\n"

    @needs_task_dir
    @needs_two_cores
    def test_large_factorizations_use_every_core(self):
        # the count rises only from PARALLEL_ORDER on, and never in a forked worker:
        # each side counts its set-count lookups, which a recorder answers with None
        code = (
            "import clique_blowup.cli, numpy, os\n"
            "from clique_blowup import _blas, eig_sym\n"
            "eig_sym(numpy.eye(_blas.PARALLEL_ORDER - 1))\n"
            "small = len(os.listdir('/proc/self/task'))\n"
            "eig_sym(numpy.eye(_blas.PARALLEL_ORDER))\n"
            "large = len(os.listdir('/proc/self/task'))\n"
            "pid = os.fork()\n"
            "calls = []\n"
            "_blas._setter = lambda: calls.append(None)\n"
            "with _blas.threads_for(_blas.PARALLEL_ORDER):\n"
            "    pass\n"
            "if pid == 0:\n"
            "    os._exit(len(calls))\n"
            "print(small, large > 1, len(calls), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        assert run_child(code) == "1 True 1 0\n"

    @needs_task_dir
    def test_a_count_the_user_set_is_never_raised(self):
        code = (
            "import clique_blowup.cli, numpy, os\n"
            "from clique_blowup import _blas, eig_sym\n"
            "eig_sym(numpy.eye(_blas.PARALLEL_ORDER))\n"
            "print(_blas._owner == os.getpid(), _blas._setter.cache_info().currsize,\n"
            "      len(os.listdir('/proc/self/task')))\n"
        )
        assert run_child(code, OPENBLAS_NUM_THREADS="1") == "False 0 1\n"

    @needs_two_cores
    def test_in_place_solve_is_bit_identical_on_two_threads(self):
        # below PARALLEL_ORDER on one thread, from it on every core, each side alike
        code = (
            "import clique_blowup.cli, numpy as np, os\n"
            "from clique_blowup import SpectrumMultiset, _blas, eig_sym\n"
            "SpectrumMultiset.from_eigenvalues = staticmethod(lambda values, **_: values)\n"
            "rng = np.random.default_rng(3)\n"
            "for order in (_blas.PARALLEL_ORDER - 1, _blas.PARALLEL_ORDER):\n"
            "    lower = rng.standard_normal((order, order))\n"
            "    m = np.tril(lower) + np.tril(lower, -1).T\n"
            "    with _blas.threads_for(order):\n"
            "        expected = np.linalg.eigvalsh(m).tobytes()\n"
            "    print(eig_sym(m).tobytes() == expected,\n"
            "          eig_sym(m, overwrite=True).tobytes() == expected)\n"
            "print(_blas._owner == os.getpid() and _blas._setter() is not None)\n"
        )
        assert run_child(code) == "True True\nTrue True\nTrue\n"

    @needs_two_cores
    def test_shifted_inverse_is_exactly_symmetric(self):
        # resistance_matrix relies on it: below PARALLEL_ORDER on one thread, from it on every core
        code = (
            "import clique_blowup.cli, numpy as np, os\n"
            "from clique_blowup import BlowupParams, _blas, blowup_iterate, default_corpus, gen_family\n"
            "from clique_blowup.indexes import _laplacian_rows, _shifted_inverse\n"
            "graphs = [blowup_iterate(g, BlowupParams(4, 1)) for _, g in default_corpus()]\n"
            "graphs += [gen_family('cycle', _blas.PARALLEL_ORDER + k) for k in (-1, 0, 400)]\n"
            "for g in graphs:\n"
            "    s = _shifted_inverse(_laplacian_rows(g.edges, [1] * g.vertex_count, g.degrees))\n"
            "    print(np.array_equal(s, s.T), end=' ')\n"
            "print(_blas._owner == os.getpid() and _blas._setter() is not None)\n"
        )
        assert run_child(code) == "True " * 12 + "True\n"

    def test_threads_for_brackets_every_large_factorization(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_blas, "_owner", os.getpid())
        monkeypatch.setattr(_blas, "_setter", lambda: calls.append)
        monkeypatch.setattr(_blas, "cores", lambda: 4)
        order = _blas.PARALLEL_ORDER
        eig_sym(np.eye(order - 1))
        indexes._shifted_inverse(indexes._quotient_rows(gen_family("cycle", order - 1)))
        assert calls == []
        eig_sym(np.eye(order))
        indexes._shifted_inverse(indexes._quotient_rows(gen_family("cycle", order)))
        assert calls == [4, 1, 4, 1]

    def test_package_import_loads_no_numpy_and_sets_nothing(self):
        code = (
            "import os, sys; before = dict(os.environ); import clique_blowup; "
            "print('numpy' in sys.modules, dict(os.environ) == before)"
        )
        assert run_child(code) == "False True\n"


# the modules that cli imports at its top, and the only ones loaded before a numeric command
NUMPY_FREE = ("cli", "_blas", "_exact", "graphs", "blowup", "corpus", "errors")


def run_command_child(argv):
    """Exit code of ``cli.main(argv)`` in a fresh interpreter, and the modules it left loaded.

    With argv None the child only imports ``clique_blowup.cli``.
    """
    code = (
        "import sys\n"
        "import clique_blowup.cli\n"
        "try:\n"
        f"    code = None if {argv!r} is None else clique_blowup.cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(repr((code, sorted(sys.modules))))\n"
    )
    return ast.literal_eval(run_child(code).splitlines()[-1])


class TestStartUp:
    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (None, None),
            (["gen", "cycle", "5"], 0),
            (["blowup", "--input", "cycle:4", "--n", "3"], 0),
            (["--help"], 0),
            (["spectra", "--n", "3"], 2),  # a usage error: --input is missing
        ],
    )
    def test_command_loads_no_numpy(self, argv, exit_code):
        code, loaded = run_command_child(argv)
        assert code == exit_code
        assert "numpy" not in loaded
        assert "ctypes" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectra", "--input", "cycle:4", "--n", "3"],
            ["indexes", "--input", "cycle:4", "--n", "3", "--r", "1"],
            ["verify", "--corpus", "complete:2", "--n-list", "3", "--r-list", "1"],
        ],
    )
    def test_numeric_command_loads_every_submodule(self, argv):
        # bench/tracer.py looks every exporting module up in sys.modules after one command
        code, loaded = run_command_child(argv)
        assert code == 0
        assert {f"clique_blowup.{module}" for module in clique_blowup._EXPORTS} <= set(loaded)

    def test_numpy_free_modules_import_no_numpy_at_module_level(self):
        def module_level(node):
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    yield child
                    yield from module_level(child)

        package = os.path.dirname(clique_blowup.__file__)
        for module in NUMPY_FREE:
            with open(os.path.join(package, f"{module}.py")) as source:
                tree = ast.parse(source.read())
            for node in module_level(tree):
                if isinstance(node, ast.Import):
                    assert all(a.name.split(".")[0] != "numpy" for a in node.names), module
                elif isinstance(node, ast.ImportFrom) and node.level:
                    siblings = [node.module] if node.module else [a.name for a in node.names]
                    assert set(siblings) <= set(NUMPY_FREE), module
                elif isinstance(node, ast.ImportFrom):
                    assert node.module.split(".")[0] != "numpy", module


class TestPackageSurface:
    def test_every_export_is_its_defining_modules_object(self):
        listed = []
        for module, names in clique_blowup._EXPORTS.items():
            defining = importlib.import_module(f"clique_blowup.{module}")
            for name in names:
                value = getattr(clique_blowup, name)
                assert value is getattr(defining, name)
                assert getattr(value, "__module__", defining.__name__) == defining.__name__
                listed.append(name)
        assert sorted(listed) == clique_blowup.__all__

    def test_module_imports_are_acyclic(self):
        # every relative import at any depth, function-local ones included
        package = os.path.dirname(clique_blowup.__file__)
        imports = {}
        for filename in os.listdir(package):
            if filename.endswith(".py"):
                with open(os.path.join(package, filename)) as source:
                    tree = ast.parse(source.read())
                imports[filename[:-3]] = {
                    module
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                    for module in ([node.module] if node.module else [a.name for a in node.names])
                }
        try:
            graphlib.TopologicalSorter(imports).prepare()
        except graphlib.CycleError as exc:
            pytest.fail(f"import cycle {' -> '.join(reversed(exc.args[1]))}")  # a -> b: a imports b
        assert imports["_exact"] == {"errors"}  # the lowest numeric layer

    def test_dir_lists_every_export(self):
        assert set(clique_blowup.__all__) <= set(dir(clique_blowup))

    def test_first_use_loads_every_submodule(self):
        # as an eager __init__ did: `import clique_blowup` then `clique_blowup.spectral` works
        code = (
            "import sys, clique_blowup\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('clique_blowup.'))\n"
            "clique_blowup.errors\n"
            "print(loaded, clique_blowup.spectral.eig_sym is clique_blowup.eig_sym,\n"
            "      all(f'clique_blowup.{module}' in sys.modules for module in clique_blowup._EXPORTS))\n"
        )
        assert run_child(code) == "[] True True\n"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            clique_blowup.no_such_name  # noqa: B018
        assert not hasattr(clique_blowup, "no_such_name")

    def test_star_import_binds_every_export(self):
        # a fresh interpreter, so that every name goes through the module __getattr__
        code = (
            "from clique_blowup import *\n"
            "import importlib\n"  # not `import clique_blowup`: that rebinds the exported function
            "package = importlib.import_module('clique_blowup')\n"
            "print(all(globals()[name] is getattr(importlib.import_module(f'clique_blowup.{module}'), name)\n"
            "          for module, names in package._EXPORTS.items() for name in names))\n"
        )
        assert run_child(code) == "True\n"
