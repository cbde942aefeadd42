from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clique_blowup import (
    BlowupParams,
    InconsistentSpectrumError,
    IndexReport,
    InternalAssertionError,
    InvalidParameterError,
    SizeCapExceededError,
    SpectrumMultiset,
    blowup_iterate,
    gen_family,
    kemeny_blowup_closed,
    kemeny_direct,
    kemeny_exact,
    kemeny_spectral,
    kf_star_blowup_closed,
    kf_star_direct,
    kf_star_exact,
    kf_star_spectral,
    laplacian_spectrum,
    petersen,
    resistance_matrix,
    resistance_matrix_exact,
    tau_blowup_closed,
    tau_exact,
    tau_spectral,
)
from clique_blowup._exact import bareiss_determinant
from clique_blowup.blowup import blowup_counts, count_sequence
from clique_blowup.indexes import _combinatorial_laplacian

from conftest import connected_graphs

SIGMA_K2 = SpectrumMultiset(((Fraction(0), 1), (Fraction(2), 1)))
SIGMA_K3 = SpectrumMultiset(((Fraction(0), 1), (Fraction(3, 2), 2)))

K2 = gen_family("complete", 2)
K3 = gen_family("complete", 3)
K4 = gen_family("complete", 4)
C4 = gen_family("cycle", 4)
P3 = gen_family("path", 3)


class TestSpectralFormulas:
    def test_kf_single_edge(self):
        assert kf_star_spectral(SIGMA_K2, 1) == 1

    def test_kf_triangle(self):
        assert kf_star_spectral(SIGMA_K3, 3) == 8

    def test_kf_blowup_triangle(self):
        blown = blowup_iterate(K3, BlowupParams(5, 1))
        kf = kf_star_spectral(laplacian_spectrum(blown), blown.edge_count)
        assert kf == pytest.approx(752.0, rel=1e-9)

    def test_kemeny_single_edge(self):
        assert kemeny_spectral(SIGMA_K2) == Fraction(1, 2)

    def test_kemeny_triangle(self):
        assert kemeny_spectral(SIGMA_K3) == Fraction(4, 3)

    def test_kemeny_matches_closed_form_instance(self):
        # K_e of the n=3 blowup of a single edge, two independent routes
        closed = kemeny_blowup_closed(Fraction(1, 2), 2, 1, BlowupParams(3, 1))
        assert closed == Fraction(4, 3)
        assert kemeny_spectral(SIGMA_K3) == closed

    def test_kf_requires_single_zero(self):
        bad = SpectrumMultiset(((0.0, 2), (1.5, 1)))
        with pytest.raises(InconsistentSpectrumError):
            kf_star_spectral(bad, 3)

    def test_kf_requires_positive_edge_count(self):
        with pytest.raises(InvalidParameterError):
            kf_star_spectral(SIGMA_K3, 0)

    @pytest.mark.parametrize(
        "g,expected", [(K3, 3.0), (C4, 4.0), (K4, 16.0)]
    )
    def test_tau_fixtures(self, g, expected):
        tau = tau_spectral(g, laplacian_spectrum(g))
        assert tau == pytest.approx(expected, rel=1e-9)
        assert tau_exact(g) == int(expected)


class TestResistance:
    def test_single_edge(self):
        assert resistance_matrix(K2)[0, 1] == pytest.approx(1.0)

    def test_triangle_series_parallel(self):
        res = resistance_matrix(K3)
        off = res[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2 / 3)

    def test_path_resistors_in_series(self):
        assert resistance_matrix(P3)[0, 2] == pytest.approx(2.0)

    def test_symmetric_zero_diagonal(self):
        res = resistance_matrix(petersen())
        assert np.allclose(res, res.T)
        assert np.allclose(np.diag(res), 0.0)

    def test_exact_matches_float(self):
        exact = resistance_matrix_exact(K3)
        assert exact[0][1] == Fraction(2, 3)
        assert np.allclose(resistance_matrix(K3), np.array(exact, dtype=float))

    def test_exact_cap(self):
        with pytest.raises(SizeCapExceededError):
            resistance_matrix_exact(petersen(), max_order=5)


class TestOracles:
    def test_kf_direct_fixtures(self):
        assert kf_star_direct(K2) == pytest.approx(1.0)
        assert kf_star_direct(K3) == pytest.approx(8.0)

    def test_kf_direct_blowup(self):
        blown = blowup_iterate(K3, BlowupParams(5, 1))
        assert kf_star_direct(blown) == pytest.approx(752.0, rel=1e-8)

    def test_kf_exact(self):
        assert kf_star_exact(K2) == 1
        assert kf_star_exact(K3) == 8
        assert kemeny_exact(K3) == Fraction(4, 3)

    def test_tau_exact_triangle(self):
        assert tau_exact(K3) == 3

    def test_tau_exact_petersen(self):
        g = petersen()
        # independent float-determinant oracle for the same minor
        lap = np.diag(g.degrees).astype(float)
        for u, v in g.edges:
            lap[u, v] = lap[v, u] = -1.0
        oracle = round(float(np.linalg.det(lap[1:, 1:])))
        assert tau_exact(g) == oracle == 2000

    def test_tau_exact_blowup(self):
        blown = blowup_iterate(K3, BlowupParams(5, 1))
        assert tau_exact(blown) == 2343750 == 2 * 5**8 * 3

    def test_tau_exact_cap(self):
        with pytest.raises(SizeCapExceededError):
            tau_exact(petersen(), max_order=5)

    def test_tau_exact_matches_bareiss_on_verify_grid(self, corpus):
        # the default verify grid, up to about 110 vertices to keep it fast
        checked = 0
        for _, g in corpus:
            for n in (3, 4, 5):
                for r in (1, 2):
                    params = BlowupParams(n, r)
                    if blowup_counts(g.vertex_count, g.edge_count, params).vertices > 110:
                        continue
                    blown = blowup_iterate(g, params)
                    lap = _combinatorial_laplacian(blown)
                    minor = [row[1:] for row in lap[1:]]
                    assert tau_exact(blown) == bareiss_determinant(minor)
                    checked += 1
        assert checked >= 30

    def test_tau_exact_matches_closed_form_at_196_vertices(self):
        g = gen_family("path", 4)
        params = BlowupParams(6, 2)
        blown = blowup_iterate(g, params)
        assert blown.vertex_count == 196
        assert tau_exact(blown) == tau_blowup_closed(1, 4, 3, params)

    def test_kemeny_direct(self):
        assert kemeny_direct(K3) == pytest.approx(4 / 3)


class TestClosedForms:
    def test_kf_one_step_single_edge(self):
        assert kf_star_blowup_closed(1, 2, 1, BlowupParams(3, 1)) == 8

    def test_kf_one_step_triangle(self):
        assert kf_star_blowup_closed(8, 3, 3, BlowupParams(5, 1)) == 752

    def test_kf_depth_zero(self):
        assert kf_star_blowup_closed(Fraction(7, 3), 4, 5, BlowupParams(4, 0)) == Fraction(7, 3)

    def test_kemeny_one_step_triangle(self):
        assert kemeny_blowup_closed(Fraction(4, 3), 3, 3, BlowupParams(5, 1)) == Fraction(188, 15)

    def test_kemeny_depth_zero(self):
        assert kemeny_blowup_closed(Fraction(1, 2), 2, 1, BlowupParams(3, 0)) == Fraction(1, 2)

    def test_tau_one_step(self):
        assert tau_blowup_closed(1, 2, 1, BlowupParams(3, 1)) == 3
        assert tau_blowup_closed(3, 3, 3, BlowupParams(5, 1)) == 2343750

    def test_tau_depth_zero(self):
        assert tau_blowup_closed(17, 5, 6, BlowupParams(3, 0)) == 17

    def test_rejects_negative_inputs(self):
        with pytest.raises(InvalidParameterError):
            kf_star_blowup_closed(-1, 2, 1, BlowupParams(3, 1))
        with pytest.raises(InvalidParameterError):
            tau_blowup_closed(0, 2, 1, BlowupParams(3, 1))

    def test_closed_forms_match_explicit_blowups(self):
        for g in (K2, P3, C4, K3):
            n0, e0 = g.vertex_count, g.edge_count
            kf0, tau0 = kf_star_exact(g), tau_exact(g)
            for n in (3, 4):
                params = BlowupParams(n, 1)
                blown = blowup_iterate(g, params)
                assert tau_blowup_closed(tau0, n0, e0, params) == tau_exact(blown)
                closed_kf = kf_star_blowup_closed(kf0, n0, e0, params)
                assert float(closed_kf) == pytest.approx(kf_star_direct(blown), rel=1e-8)
                assert closed_kf == kf_star_exact(blown)

    def test_kf_kemeny_coupling_is_exact(self):
        params = BlowupParams(4, 3)
        kf = kf_star_blowup_closed(8, 3, 3, params)
        ke = kemeny_blowup_closed(Fraction(4, 3), 3, 3, params)
        edges = 3 * (4 * 3 // 2) ** 3
        assert kf == 2 * edges * ke


class TestSingleShotKemenyDeviation:
    """The single-shot depth-r expressions equal the iterated recurrences.

    Any deviation between the two raises instead of returning a value.
    """

    def test_single_shot_disagreement_raises(self, monkeypatch):
        from clique_blowup import indexes

        def tampered(expression):
            return lambda *args: expression(*args) + Fraction(1, 7)

        params = BlowupParams(3, 2)
        monkeypatch.setattr(indexes, "_kf_r_level", tampered(indexes._kf_r_level))
        with pytest.raises(InternalAssertionError, match="single-shot Kf"):
            kf_star_blowup_closed(1, 2, 1, params)
        monkeypatch.undo()
        monkeypatch.setattr(indexes, "_kemeny_r_level", tampered(indexes._kemeny_r_level))
        with pytest.raises(InternalAssertionError, match="single-shot Kemeny"):
            kemeny_blowup_closed(Fraction(1, 2), 2, 1, params)

    def test_returned_value_matches_spectral_route(self):
        blown = blowup_iterate(K2, BlowupParams(3, 2))
        spectral = kemeny_spectral(laplacian_spectrum(blown))
        assert spectral == pytest.approx(float(Fraction(14, 3)), rel=1e-9)

    def test_depth_one_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kemeny_blowup_closed(Fraction(1, 2), 2, 1, BlowupParams(3, 1))

    def test_single_shot_equals_recurrence_on_grid(self):
        from clique_blowup.indexes import (
            _kemeny_one_step,
            _kemeny_r_level,
            _kf_one_step,
            _kf_r_level,
        )

        for n0, e0 in [(2, 1), (3, 3), (4, 4), (10, 15)]:
            kf0 = Fraction(17, 3)
            ke0 = kf0 / (2 * e0)
            for n in range(3, 8):
                kf, ke = kf0, ke0
                levels = count_sequence(n0, e0, n, 5)
                for r, (vertices, edges) in enumerate(levels[:-1], start=1):
                    kf = _kf_one_step(kf, vertices, edges, n)
                    ke = _kemeny_one_step(ke, vertices, edges, n)
                    assert _kf_r_level(kf0, n0, e0, n, r) == kf
                    assert _kemeny_r_level(ke0, n0, e0, n, r) == ke


class TestIndexReport:
    def test_json_shape(self):
        report = IndexReport(
            752.0,
            float(Fraction(188, 15)),
            2343750.0,
            "closed_form",
            tau_exact=2343750,
            kf_star_exact=Fraction(752),
            kemeny_exact=Fraction(188, 15),
            params=BlowupParams(5, 1),
        )
        text = report.to_json()
        assert text.startswith('{"kf_star":752,"kemeny":12.533333333333333,')
        assert '"tau_exact":"2343750"' in text
        assert '"kemeny_exact":"188/15"' in text
        assert '"n":5' in text and '"r":1' in text
        assert text == report.to_json()

    def test_route_validated(self):
        with pytest.raises(InvalidParameterError):
            IndexReport(1.0, 1.0, 1.0, "guess")


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(min_vertices=2, max_vertices=7))
    def test_kf_is_2m_times_kemeny(self, g):
        sigma = laplacian_spectrum(g)
        kf = kf_star_spectral(sigma, g.edge_count)
        ke = kemeny_spectral(sigma)
        assert abs(kf - 2 * g.edge_count * ke) <= 1e-12 * abs(kf)

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(min_vertices=2, max_vertices=7))
    def test_spectral_vs_oracles(self, g):
        sigma = laplacian_spectrum(g)
        kf_s = kf_star_spectral(sigma, g.edge_count)
        assert kf_s == pytest.approx(kf_star_direct(g), rel=1e-7)
        assert tau_spectral(g, sigma) == pytest.approx(tau_exact(g), rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(connected_graphs(min_vertices=2, max_vertices=6), st.sampled_from([3, 4, 5]))
    def test_indices_increase_with_depth(self, g, n):
        n0, e0 = g.vertex_count, g.edge_count
        kf0, tau0 = kf_star_exact(g), tau_exact(g)
        ke0 = kf0 / (2 * e0)
        kf_prev, ke_prev, tau_prev = kf0, ke0, tau0
        for r in (1, 2):
            params = BlowupParams(n, r)
            kf = kf_star_blowup_closed(kf0, n0, e0, params)
            ke = kemeny_blowup_closed(ke0, n0, e0, params)
            tau = tau_blowup_closed(tau0, n0, e0, params)
            assert kf > kf_prev and ke > ke_prev and tau > tau_prev
            kf_prev, ke_prev, tau_prev = kf, ke, tau
