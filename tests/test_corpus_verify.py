import concurrent.futures
import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clique_blowup import (
    BlowupParams,
    InternalAssertionError,
    InvalidParameterError,
    bipartition,
    default_corpus,
    gen_family,
    graph_from_spec,
    petersen,
    blowup_iterate,
    laplacian_spectrum,
    run_verification,
)
from clique_blowup import graphs, indexes, verify
from clique_blowup.verify import base_facts, cell_checks, graph_checks

from conftest import graphs_with_twins, record_orders


class TestCorpus:
    def test_petersen_shape(self):
        g = petersen()
        assert (g.vertex_count, g.edge_count) == (10, 15)
        assert all(d == 3 for d in g.degrees)
        assert not bipartition(g).is_bipartite

    def test_spec_parsing(self):
        assert graph_from_spec("complete:3") == gen_family("complete", 3)
        assert graph_from_spec(" cycle:5 ") == gen_family("cycle", 5)
        assert graph_from_spec("petersen") == petersen()

    @pytest.mark.parametrize("spec", ["wheel:4", "complete:x", "complete", "k3"])
    def test_bad_specs(self, spec):
        with pytest.raises(InvalidParameterError):
            graph_from_spec(spec)

    def test_default_corpus_contents(self):
        names = [name for name, _ in default_corpus()]
        assert names[0] == "complete:2"
        assert "petersen" in names
        assert len(names) == 9


class TestHarness:
    def test_graph_checks_pass_on_corpus(self, corpus):
        for name, g in corpus:
            results = graph_checks(name, g, base_facts(g))
            assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_cell_checks_pass(self):
        g = gen_family("complete", 3)
        results = cell_checks("complete:3", g, base_facts(g), 5, 1)
        assert results and all(r.passed for r in results)

    def test_cell_skips_over_cap(self):
        g = gen_family("complete", 3)
        results = cell_checks("complete:3", g, base_facts(g), 5, 3, max_vertices=100)
        assert len(results) == 1 and results[0].skipped and results[0].passed

    def test_base_exact_facts_computed_once_per_graph(self, monkeypatch):
        calls = {"kf_star_exact": 0, "tau_exact": 0}

        def counted(attr):
            original = getattr(indexes, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return original(*args, **kwargs)

            return wrapper

        for attr in calls:
            monkeypatch.setattr(indexes, attr, counted(attr))
        corpus = [("complete:3", gen_family("complete", 3)),
                  ("cycle:4", gen_family("cycle", 4))]
        # the twin-free r = 2 blowups (q = N = 15 and 20) are over the cap
        report = run_verification(corpus, [3], [1, 2], exact_cap=10)
        assert report.passed
        assert sorted(r.subject for r in report.skipped) == [
            "complete:3 n=3,r=2", "cycle:4 n=3,r=2"
        ]
        # once per graph, and tau once per cell, where its own cap may raise
        cells = len(corpus) * 2
        assert calls == {"kf_star_exact": len(corpus), "tau_exact": len(corpus) + cells}

    def test_closed_form_levels_lifted_once_per_graph(self, monkeypatch):
        lifts = []
        original = indexes._closed_form_lift

        def counted(kf0, n0, e0, n, r):
            lifts.append((n0, n, r))
            return original(kf0, n0, e0, n, r)

        monkeypatch.setattr(indexes, "_closed_form_lift", counted)
        corpus = [("complete:3", gen_family("complete", 3)),
                  ("cycle:4", gen_family("cycle", 4))]
        report = run_verification(corpus, [3, 4], [1, 2])
        assert report.passed
        # monotonicity lifts levels 0..2 once for each n; the cells reuse them
        assert sorted(lifts) == sorted((n0, n, 2) for n0 in (3, 4) for n in (3, 4))
        assert len(set(lifts)) == len(lifts) == 4

    def test_shared_levels_survive_pickling(self):
        g = gen_family("cycle", 4)
        base = base_facts(g)
        levels = base.closed_form(g, 3, 2)
        copy = pickle.loads(pickle.dumps(base))
        assert copy.levels == {3: levels}
        assert dataclasses.replace(base, kf_star=base.kf_star + 1).levels == {}

    def test_resistance_triangle_violation_fails(self, monkeypatch):
        # d(0, 2) = 5 exceeds the detour d(0, 1) + d(1, 2) = 2
        broken = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        monkeypatch.setattr(
            indexes, "resistance_matrix", lambda g, max_order: broken.copy()
        )
        g = gen_family("path", 3)
        results = graph_checks("path:3", g, base_facts(g))
        assert "resistance-metric" in {r.check for r in results if not r.passed}

    def test_wrong_base_kf_star_fails_kemeny_oracle(self):
        g = petersen()
        base = dataclasses.replace(base_facts(g), kf_star=297 + 1)
        results = graph_checks("petersen", g, base)
        assert {r.check for r in results if not r.passed} == {"kemeny-oracle"}

    def test_wrong_closed_kemeny_fails_blowup_kemeny_oracle(self, monkeypatch):
        original = indexes._closed_form_lift

        def corrupted(*args):
            return [(kf, ke + 1, exps) for kf, ke, exps in original(*args)]

        monkeypatch.setattr(indexes, "_closed_form_lift", corrupted)
        g = gen_family("complete", 3)
        results = cell_checks("complete:3", g, base_facts(g), 3, 1)
        assert "blowup-kemeny-oracle" in {r.check for r in results if not r.passed}

    def test_exact_tau_beyond_4300_digits_fails_without_raising(self, monkeypatch):
        # Python refuses a decimal str of an int with more than 4300 digits
        g = gen_family("complete", 3)
        base = base_facts(g)
        monkeypatch.setattr(indexes, "tau_exact", lambda g, max_order: 10**5000)
        results = cell_checks("complete:3", g, base, 3, 1)
        failed = {r.check for r in results if not r.passed}
        assert failed == {"closed-vs-oracle-tau", "blowup-tau-oracle"}

    def test_incidence_rank_skipped_over_exact_cap(self, monkeypatch):
        def not_called(rows, width):
            raise AssertionError("incidence matrix eliminated over the exact cap")

        monkeypatch.setattr(graphs, "modular_rank", not_called)
        g = petersen()
        results = graph_checks("petersen", g, base_facts(g, exact_cap=5))
        rank = [r for r in results if r.check == "incidence-rank"]
        assert len(rank) == 1 and rank[0].skipped and rank[0].passed
        assert rank[0].detail == "skipped: order 10 exceeds exact cap 5"

    def test_long_odd_cycle_passes_graph_checks(self):
        # 2 - lambda_max is 9.99e-7 here, so a fixed gap of 1e-6 would fail it
        g = graph_from_spec("cycle:2223")
        results = graph_checks("cycle:2223", g, base_facts(g))
        assert all(r.passed for r in results), [r for r in results if not r.passed]
        assert "lambda-max-below-two" in {r.check for r in results if not r.skipped}

    def test_small_grid_report(self):
        corpus = [("complete:2", gen_family("complete", 2))]
        report = run_verification(corpus, [3], [1, 2])
        assert report.passed
        matrix = report.matrix(["complete:2"])
        assert "n=3,r=1" in matrix and "ok" in matrix
        assert "PASS" in report.summary()

    def test_parallel_matches_serial(self):
        corpus = [("complete:3", gen_family("complete", 3)),
                  ("cycle:4", gen_family("cycle", 4))]
        serial = run_verification(corpus, [3], [1], jobs=1)
        parallel = run_verification(corpus, [3], [1], jobs=2)
        assert [r.check for r in serial.results] == [r.check for r in parallel.results]
        assert serial.passed and parallel.passed

    @pytest.mark.parametrize(
        "jobs, cpus, expected",
        [(64, 8, 2), (3, 2, 2), (1, 8, None), (64, 1, None), (64, None, None)],
    )
    def test_jobs_clamped_to_cells_and_cpus(self, monkeypatch, jobs, cpus, expected):
        # a fake pool that maps serially: no process is started
        requested = []

        class FakePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        corpus = [("complete:2", gen_family("complete", 2))]
        report = run_verification(corpus, [3], [1, 2], jobs=jobs)
        assert report.passed
        assert requested == ([] if expected is None else [expected])

    def test_sensitivity_to_corrupted_constant(self, monkeypatch):
        # deliberately corrupt the closed-form Kf* levels; the harness must
        # notice the disagreement with the resistance oracle
        original = indexes._closed_form_lift

        def corrupted(*args):
            return [(kf + Fraction(1, 7), ke, exps) for kf, ke, exps in original(*args)]

        monkeypatch.setattr(indexes, "_closed_form_lift", corrupted)
        report = run_verification([("complete:3", gen_family("complete", 3))], [3], [1])
        assert not report.passed
        assert any("kf" in r.check for r in report.failures)

    def test_corrupted_one_step_recurrence_raises(self, monkeypatch):
        # the iterated recurrence no longer matches its single-shot
        # expression, so the closed form raises instead of returning
        original = indexes._kf_one_step

        def corrupted(kf, vertices, edges, n):
            return original(kf, vertices, edges, n) + Fraction(1, 7)

        monkeypatch.setattr(indexes, "_kf_one_step", corrupted)
        with pytest.raises(InternalAssertionError, match="single-shot Kf"):
            indexes.kf_star_blowup_closed(8, 3, 3, BlowupParams(3, 1))
        report = run_verification([("complete:3", gen_family("complete", 3))], [3], [1])
        assert not report.passed
        assert any("single-shot Kf" in r.detail for r in report.failures)


class TestSingleCap:
    @settings(max_examples=30, deadline=None)
    @given(graphs_with_twins(), st.data())
    def test_cap_between_q_and_n_runs_the_exact_checks(self, g, data):
        q = len(g._twins[1])
        assume(q < g.vertex_count)
        cap = data.draw(st.integers(q, g.vertex_count - 1))
        with pytest.MonkeyPatch.context() as mp:
            det_orders = record_orders(mp, indexes, "modular_determinant")
            inv_orders = record_orders(mp, indexes, "fraction_inverse")
            report = run_verification([("g", g)], [3], [1], exact_cap=cap)
        assert report.passed
        ran = {r.check for r in report.results if r.subject in ("g", "g n=3")}
        skipped = {r.check for r in report.skipped if r.subject == "g"}
        assert {"kf-oracle", "tau-oracle", "kemeny-oracle", "index-monotonicity"} <= ran
        # the incidence rank and the resistances work at order N, over the cap
        assert skipped == {"incidence-rank", "resistance-metric"}
        assert det_orders and inv_orders
        assert max(det_orders + inv_orders) <= cap

    def test_over_cap_base_keeps_its_exact_facts(self):
        # N = 300 is over the default cap, but its one twin class leaves q = 1
        g = graph_from_spec("complete:300")
        report = run_verification([("complete:300", g)], [3], [1])
        assert report.passed
        assert {(r.check, r.detail) for r in report.skipped} == {
            ("incidence-rank", "skipped: order 300 exceeds exact cap 200"),
            ("resistance-metric", "skipped: order 300 exceeds exact cap 200"),
            ("cell", "skipped: blowup would create 45150 vertices (cap 20000)"),
        }
        ran = {r.check for r in report.results if not r.skipped}
        assert {"kf-oracle", "tau-oracle", "kemeny-oracle", "index-monotonicity"} <= ran

    def test_tau_beyond_float_range_passes_its_oracle(self):
        # log10 tau = 308.7 at q = 205: the spectral tau is compared by its log
        report = run_verification([("petersen", petersen())], [5], [2], exact_cap=205)
        assert report.passed and not report.skipped
        tau = [r for r in report.results if r.check == "blowup-tau-oracle"]
        assert len(tau) == 1 and tau[0].passed
        blown = blowup_iterate(petersen(), BlowupParams(5, 2))
        with pytest.raises(OverflowError):
            indexes.tau_spectral(blown, laplacian_spectrum(blown))

    def test_base_over_exact_cap_skips_its_exact_checks(self):
        # petersen is twin-free, so q = N = 10 is over a cap of 9
        report = run_verification([("petersen", petersen())], [3], [1], exact_cap=9)
        assert report.passed
        assert {(r.check, r.subject) for r in report.skipped} == {
            ("incidence-rank", "petersen"),
            ("oracle-closure", "petersen"),
            ("resistance-metric", "petersen"),
            ("structural", "petersen"),
            ("cell", "petersen n=3,r=1"),
        }
