from fractions import Fraction

import pytest

from clique_blowup import (
    BlowupParams,
    InternalAssertionError,
    InvalidParameterError,
    bipartition,
    default_corpus,
    gen_family,
    graph_from_spec,
    petersen,
    run_verification,
)
from clique_blowup import indexes, verify
from clique_blowup.verify import cell_checks, graph_checks


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
            results = graph_checks(name, g)
            assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_cell_checks_pass(self):
        results = cell_checks("complete:3", gen_family("complete", 3), 5, 1)
        assert results and all(r.passed for r in results)

    def test_cell_skips_over_cap(self):
        results = cell_checks("complete:3", gen_family("complete", 3), 5, 3,
                              max_vertices=100)
        assert len(results) == 1 and results[0].skipped and results[0].passed

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

        monkeypatch.setattr(verify, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        corpus = [("complete:2", gen_family("complete", 2))]
        report = run_verification(corpus, [3], [1, 2], jobs=jobs)
        assert report.passed
        assert requested == ([] if expected is None else [expected])

    def test_sensitivity_to_corrupted_constant(self, monkeypatch):
        # deliberately corrupt the closed-form Kf*; the harness must notice
        # the disagreement with the resistance oracle
        original = indexes.kf_star_blowup_closed

        def corrupted(kf, n0, e0, params):
            return original(kf, n0, e0, params) + Fraction(1, 7)

        monkeypatch.setattr(indexes, "kf_star_blowup_closed", corrupted)
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
