import json
import os
import subprocess
import sys

import pytest

import clique_blowup
from clique_blowup import BlowupParams, blowup_counts, cli, tau_blowup_closed
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
        original = cli.laplacian_spectrum

        def recording(g, *args, **kwargs):
            solved.append(g.vertex_count)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(cli, "laplacian_spectrum", recording)
        code, _, _ = run(
            capsys, "spectra", "--input", "cycle:5", "--n", "4", "--method", "numeric"
        )
        assert code == 0
        assert solved == [15]

    @pytest.mark.parametrize(
        "spec, extra, code, message",
        [
            ("path:1", (), 2, "error: normalized Laplacian needs every degree >= 1\n"),
            ("path:4", ("--max-vertices", "3"), 3, "error: matrix order 4 exceeds cap 3\n"),
        ],
    )
    def test_numeric_method_keeps_base_graph_errors(self, capsys, spec, extra, code, message):
        got, out, err = run(
            capsys, "spectra", "--input", spec, "--n", "3", "--method", "numeric", *extra
        )
        assert (got, out, err) == (code, "", message)

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
            "RESULT: PASS (66 checks, 0 failures, 0 skipped)\n"
        )

    def test_default_grid_output_is_pinned(self, capsys):
        # complete:4 n=5,r=2 (q = 82) and petersen n=4,r=2 (q = 130) are within
        # the exact cap; only petersen n=5,r=2 (q = 205) skips its exact tau
        code, out, _ = run(capsys, "verify")
        assert code == 0
        ok_row = "ok          ok       ok       ok       ok       ok       ok     "
        names = ["complete:2", "path:3", "path:4", "cycle:4", "cycle:5",
                 "complete:3", "complete:4", "star:5", "petersen"]
        assert out == (
            "graph       structural  n=3,r=1  n=3,r=2  n=4,r=1  n=4,r=2  n=5,r=1  n=5,r=2\n"
            + "".join(f"{name:<12}{ok_row}\n" for name in names)
            + "RESULT: PASS (686 checks, 0 failures, 1 skipped)\n"
        )

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
        assert out.endswith("RESULT: PASS (22 checks, 0 failures, 0 skipped)\n")

    def test_tau_beyond_float_range_is_checked_by_its_log(self, capsys):
        # q = 205 is within the cap, and log10 tau = 308.7 is beyond a double
        code, out, err = run(
            capsys,
            "verify", "--corpus", "petersen", "--n-list", "5", "--r-list", "2",
            "--exact-cap", "600",
        )
        assert (code, err) == (0, "")
        assert out.endswith("RESULT: PASS (21 checks, 0 failures, 0 skipped)\n")

    def test_failing_graph_fails_its_cells(self, capsys):
        # path:1 has an isolated vertex: its structural checks and its one
        # cell each fail once, and path:3 still runs
        code, out, err = run(
            capsys, "verify", "--corpus", "path:1,path:3", "--n-list", "3", "--r-list", "1",
        )
        assert code == 1
        assert out == (
            "graph   structural  n=3,r=1\n"
            "path:1  FAIL        FAIL   \n"
            "path:3  ok          ok     \n"
            "RESULT: FAIL (25 checks, 2 failures, 0 skipped)\n"
        )
        assert err == (
            "first failure: structural on path:1: "
            "error: normalized Laplacian needs every degree >= 1\n"
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
        assert code == 1
        assert "path:1  FAIL        skip   " in out
        assert "needs every degree >= 1" in err

    @pytest.mark.parametrize("grid", [["--n-list", "2"], ["--r-list", "0"], ["--r-list=-1"]])
    def test_invalid_grid_exits_2(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--corpus", "complete:3", *grid)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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
