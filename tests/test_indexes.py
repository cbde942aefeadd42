import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from clique_blowup import (
    BlowupParams,
    Graph,
    InconsistentSpectrumError,
    IndexReport,
    InternalAssertionError,
    InvalidParameterError,
    NumericalFailureError,
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
    tau_blowup_closed,
    tau_exact,
    tau_spectral,
)
from clique_blowup import indexes
from clique_blowup._exact import bareiss_determinant, fraction_inverse, modular_determinant
from clique_blowup.blowup import blowup_counts, count_sequence

from conftest import (
    connected_graphs,
    graphs_with_twins,
    laplacian,
    late_fill_graph,
    record_orders,
    set_physical_memory,
    sparse_rows,
)

SIGMA_K2 = SpectrumMultiset(((Fraction(0), 1), (Fraction(2), 1)))
SIGMA_K3 = SpectrumMultiset(((Fraction(0), 1), (Fraction(3, 2), 2)))

K2 = gen_family("complete", 2)
K3 = gen_family("complete", 3)
K4 = gen_family("complete", 4)
C4 = gen_family("cycle", 4)
P3 = gen_family("path", 3)


def dense(rows):
    """The square integer matrix of rows {column: entry}."""
    return np.array([[row.get(j, 0) for j in range(len(rows))] for row in rows], dtype=np.int64)


def class_product(g):
    """Reference P^T L P, P the indicator matrix of g's true-twin classes."""
    class_of, size, _, _ = g._twins
    p = np.zeros((g.vertex_count, len(size)), dtype=np.int64)
    p[np.arange(g.vertex_count), class_of] = 1
    return p.T @ laplacian(g) @ p


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

    def test_equals_two_step_reference(self, corpus):
        # reference: the same solve keeping every intermediate array, bit for bit
        blown = blowup_iterate(gen_family("cycle", 5), BlowupParams(4, 2))
        blowups = [blowup_iterate(g, BlowupParams(4, 1)) for _, g in corpus]
        large = [gen_family("cycle", 200), gen_family("path", 200), gen_family("complete", 150)]
        seeded = [late_fill_graph(core, tail, seed)
                  for core, tail, seed in ((10, 40, 3), (60, 5, 4), (149, 1, 5))]
        for g in [g for _, g in corpus] + [blown] + blowups + large + seeded:
            size = g.vertex_count
            shifted = laplacian(g).astype(float) + 1.0 / size
            inv_factor = np.linalg.inv(np.linalg.cholesky(shifted))
            pinv = inv_factor.T @ inv_factor - 1.0 / size
            pinv = (pinv + pinv.T) / 2.0
            diag = np.diag(pinv)
            expected = diag[:, None] + diag[None, :] - 2.0 * pinv
            np.fill_diagonal(expected, 0.0)
            assert resistance_matrix(g).tobytes() == expected.tobytes()

    def test_cap_on_the_vertex_count(self, monkeypatch):
        assert resistance_matrix(petersen(), max_order=10).shape == (10, 10)

        def not_called(*args):
            raise AssertionError("Laplacian built or inverted over the cap")

        monkeypatch.setattr(indexes, "_laplacian_rows", not_called)
        monkeypatch.setattr(indexes, "_shifted_inverse", not_called)
        with pytest.raises(SizeCapExceededError, match="^order 10 exceeds exact cap 9$"):
            resistance_matrix(petersen(), max_order=9)

    def test_indefinite_shifted_laplacian_raises(self, monkeypatch):
        # L + J/N = [[0.5, -4.5], [-4.5, 0.5]] has no Cholesky factor
        monkeypatch.setattr(
            indexes, "_laplacian_rows", lambda links, size, degree: [{0: 0, 1: -5}, {0: -5, 1: 0}]
        )
        with pytest.raises(NumericalFailureError, match="shifted Laplacian solve"):
            resistance_matrix(K2)


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

    def test_kf_exact_cap(self):
        with pytest.raises(SizeCapExceededError):
            kf_star_exact(petersen(), max_order=5)

    def test_kf_exact_does_not_depend_on_labels_or_grounded_vertex(self):
        # exact Kf* grounds vertex 0; shuffling the labels grounds other vertices
        params = BlowupParams(4, 2)
        blown = blowup_iterate(C4, params)
        assert blown.vertex_count == 60
        expected = kf_star_blowup_closed(20, 4, 4, params)
        assert expected == 24624
        grounded_degrees = set()
        for seed in (None, 0, 1, 2):
            label = list(range(blown.vertex_count))
            if seed is not None:
                random.Random(seed).shuffle(label)
            relabelled = Graph(blown.vertex_count, [(label[u], label[v]) for u, v in blown.edges])
            grounded_degrees.add(relabelled.degrees[0])
            exact = kf_star_exact(relabelled)
            assert isinstance(exact, Fraction)
            assert exact == expected
        assert len(grounded_degrees) > 1

    def test_kf_exact_of_single_vertex_is_a_fraction(self):
        exact = kf_star_exact(Graph(1, []))
        assert isinstance(exact, Fraction)
        assert exact == 0

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(min_vertices=1, max_vertices=7))
    def test_kf_identity_equals_resistance_definition(self, g):
        # sum_{i<j} d_i d_j r_ij with r_ij = S_ii + S_jj - 2 S_ij, S = (L + J/N)^-1;
        # sympy inverts S, so the reference shares no code with kf_star_exact
        size, deg = g.vertex_count, g.degrees
        shift = sympy.Rational(1, size)
        lap = laplacian(g).tolist()
        s = sympy.Matrix(size, size, lambda i, j: lap[i][j] + shift).inv()
        definition = sum(
            (
                deg[i] * deg[j] * (s[i, i] + s[j, j] - 2 * s[i, j])
                for i in range(size)
                for j in range(i + 1, size)
            ),
            sympy.Integer(0),
        )
        exact = kf_star_exact(g)
        assert isinstance(exact, Fraction)
        assert exact == Fraction(int(definition.p), int(definition.q))
        assert kf_star_direct(g) == pytest.approx(float(exact), rel=1e-12, abs=0)

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
                    # Python ints: np.int64 entries overflow in Bareiss
                    minor = laplacian(blown)[1:, 1:].tolist()
                    assert tau_exact(blown) == bareiss_determinant(minor)
                    checked += 1
        assert checked >= 30

    def test_tau_exact_matches_closed_form_at_196_vertices(self):
        g = gen_family("path", 4)
        params = BlowupParams(6, 2)
        blown = blowup_iterate(g, params)
        assert blown.vertex_count == 196
        assert tau_exact(blown) == tau_blowup_closed(1, 4, 3, params)

    def test_tau_exact_does_not_depend_on_labels(self):
        params = BlowupParams(6, 2)
        blown = blowup_iterate(gen_family("path", 4), params)
        label = list(range(blown.vertex_count))
        random.Random(6).shuffle(label)
        relabelled = Graph(blown.vertex_count, [(label[u], label[v]) for u, v in blown.edges])
        assert relabelled.degrees != blown.degrees
        assert tau_exact(relabelled) == tau_blowup_closed(1, 4, 3, params)

    def test_kemeny_direct(self):
        assert kemeny_direct(K3) == pytest.approx(4 / 3)


class TestFloatOracleMemory:
    """The float solve fills L + J/q into one array and checks its bytes first."""

    def test_kf_direct_peak_is_two_arrays(self):
        # cycle:500 is twin-free, q = 500: no integer Laplacian beside the float one
        g = gen_family("cycle", 500)
        array_bytes = 8 * len(g._twins[1]) ** 2
        tracemalloc.start()
        try:
            kf_star_direct(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * array_bytes

    def test_byte_cap_fires_before_any_array_is_built(self, monkeypatch):
        g = gen_family("cycle", 500)
        array_bytes = 8 * len(g._twins[1]) ** 2
        need = indexes.INVERSE_ARRAYS * array_bytes + indexes.ROW_BYTES * 1500  # 3 nonzeros a row
        set_physical_memory(monkeypatch, need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapExceededError, match="^a shifted inverse of order 500 "):
                kf_star_direct(g)
            with pytest.raises(SizeCapExceededError, match="physical memory"):
                resistance_matrix(g, max_order=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < array_bytes / 4
        set_physical_memory(monkeypatch, need)
        # every degree is 2, and the Kirchhoff index of the cycle C_q is (q^3 - q)/12
        assert kf_star_direct(g) == pytest.approx(4 * (500**3 - 500) / 12, rel=1e-9)

    def test_byte_cap_counts_the_rows_of_a_dense_quotient(self, monkeypatch):
        # G(120, 1/2) plus a path is twin-free, and its rows hold about 7,300
        # nonzeros: about 2 q x q arrays of doubles, beside the solve's own
        rng = random.Random(1)
        q = 120
        edges = {(i, i + 1) for i in range(q - 1)}
        edges |= {(i, j) for i in range(q) for j in range(i + 1, q) if rng.random() < 0.5}
        g = Graph(q, edges)
        assert len(g._twins[1]) == q
        arrays = indexes.INVERSE_ARRAYS * 8 * q * q
        rows = indexes.ROW_BYTES * (q + 2 * g.edge_count)
        set_physical_memory(monkeypatch, arrays + rows - 1)
        tracemalloc.start()
        try:
            indexes._quotient_rows(g)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(SizeCapExceededError, match=f"would need {arrays + rows} bytes"):
                kf_star_direct(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the rows, less than a quarter of one q x q array of doubles
        assert peak < built + 2 * q * q
        set_physical_memory(monkeypatch, arrays + rows)
        assert kf_star_direct(g) == pytest.approx(float(kf_star_exact(g)), rel=1e-9)


class TestTwinQuotient:
    """The oracles eliminate at the order q of the true-twin quotient, not N.

    Each reduced route is compared with an order-N reference on the
    Laplacian itself.
    """

    @settings(max_examples=40, deadline=None)
    @given(graphs_with_twins())
    def test_reduced_routes_equal_full_order(self, g):
        size = g.vertex_count
        assert len(g._twins[1]) < size
        minor = laplacian(g)[1:, 1:].tolist()
        assert tau_exact(g) == modular_determinant(sparse_rows(minor))
        full = np.full((size, size), Fraction(0), dtype=object)
        full[1:, 1:] = fraction_inverse(minor)
        exact = kf_star_exact(g)
        assert isinstance(exact, Fraction)
        assert exact == indexes._kf_star_identity(full, g.degrees)
        deg = np.array(g.degrees, dtype=float)
        reference = deg @ resistance_matrix(g) @ deg / 2
        tol = 64 * size * np.finfo(float).eps
        assert abs(kf_star_direct(g) - reference) <= tol * reference

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(graphs_with_twins(), connected_graphs()))
    def test_class_laplacian_is_indicator_product(self, g):
        # the rows made dense: L from the edges alone, and P^T L P with P the
        # class indicator matrix
        _, size, degree, links = g._twins
        singletons = indexes._laplacian_rows(g.edges, [1] * g.vertex_count, g.degrees)
        assert np.array_equal(dense(singletons), laplacian(g))
        assert np.array_equal(dense(indexes._laplacian_rows(links, size, degree)), class_product(g))

    def test_tau_minor_rows_come_from_the_class_edges(self, monkeypatch):
        # the sparse rows handed to the determinant are the grounded minor of L_w
        blown = blowup_iterate(P3, BlowupParams(4, 2))
        got = []

        def spy(rows):
            got.append(rows)
            return modular_determinant(rows)

        monkeypatch.setattr(indexes, "modular_determinant", spy)
        assert tau_exact(blown) == tau_blowup_closed(1, 3, 2, BlowupParams(4, 2))
        (rows,) = got
        assert rows == sparse_rows(class_product(blown)[1:, 1:].tolist())

    def test_petersen_blowup_at_default_cap(self, monkeypatch):
        # N = 220 is over the default cap of 200; 90 pairs of twins leave q = 130
        params = BlowupParams(4, 2)
        blown = blowup_iterate(petersen(), params)
        assert (blown.vertex_count, len(blown._twins[1])) == (220, 130)
        orders = record_orders(monkeypatch, indexes, "modular_determinant")
        assert tau_exact(blown) == tau_blowup_closed(2000, 10, 15, params)
        assert orders == [129]

    def test_twin_free_graph_eliminates_at_order_n(self, monkeypatch):
        blown = blowup_iterate(petersen(), BlowupParams(3, 1))
        assert len(blown._twins[1]) == blown.vertex_count == 25
        det_orders = record_orders(monkeypatch, indexes, "modular_determinant")
        inv_orders = record_orders(monkeypatch, indexes, "fraction_inverse")
        tau_exact(blown)
        kf_star_exact(blown)
        assert det_orders == inv_orders == [24]

    def test_kf_exact_inverts_the_quotient_minor(self, monkeypatch):
        params = BlowupParams(6, 2)
        blown = blowup_iterate(gen_family("path", 4), params)
        assert blown.vertex_count == 196
        orders = record_orders(monkeypatch, indexes, "fraction_inverse")
        assert kf_star_exact(blown) == kf_star_blowup_closed(19, 4, 3, params)
        assert orders == [60]

    def test_twin_free_float_kf_is_unchanged(self):
        # with q = N the quotient is L itself and the twin term is exactly 0
        g = blowup_iterate(petersen(), BlowupParams(3, 1))
        shifted = laplacian(g).astype(float) + 1.0 / g.vertex_count
        inv_factor = np.linalg.inv(np.linalg.cholesky(shifted))
        expected = indexes._kf_star_identity(inv_factor.T @ inv_factor, g.degrees)
        assert kf_star_direct(g) == float(expected)

    def test_cap_bounds_the_quotient_order(self):
        blown = blowup_iterate(petersen(), BlowupParams(6, 1))
        assert (blown.vertex_count, len(blown._twins[1])) == (70, 25)
        assert tau_exact(blown, max_order=25) == tau_blowup_closed(2000, 10, 15, BlowupParams(6, 1))
        with pytest.raises(SizeCapExceededError, match="^order 25 exceeds exact cap 24$"):
            tau_exact(blown, max_order=24)
        with pytest.raises(SizeCapExceededError, match="^order 25 exceeds exact cap 24$"):
            kf_star_exact(blown, max_order=24)

    def test_indivisible_quotient_count_raises(self, monkeypatch):
        # path:3 n=3 r=1 has two classes of 2 twins of degree 2, so the quotient
        # count times 3 * 3 must be divisible by 2 * 2
        blown = blowup_iterate(P3, BlowupParams(3, 1))
        assert sorted(blown._twins[1]) == [1, 2, 2]
        monkeypatch.setattr(indexes, "modular_determinant", lambda minor: 1)
        with pytest.raises(InternalAssertionError, match="not divisible"):
            tau_exact(blown)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_complete_graph_is_one_class(self, monkeypatch, k):
        orders = record_orders(monkeypatch, indexes, "fraction_inverse")
        g = gen_family("complete", k)
        assert tau_exact(g) == k ** (k - 2)
        assert kf_star_exact(g) == (k - 1) ** 3
        assert kf_star_direct(g) == (k - 1) ** 3
        assert orders == [0]


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

    def test_tau_stays_an_integer_on_the_shared_lift(self):
        tau = tau_blowup_closed(3, 3, 3, BlowupParams(4, 3))
        assert type(tau) is int
        # one-step exponents summed over the levels (3, 3), (9, 18), (45, 108)
        assert tau == 3 * 2**75 * 4**183

    def test_tau_negative_exponent_rejected(self):
        # E - N + 1 < 0: these counts belong to no connected graph
        with pytest.raises(InternalAssertionError, match="negative exponent in one-step form"):
            tau_blowup_closed(1, 5, 2, BlowupParams(3, 1))

    def test_tau_corrupted_one_step_raises(self, monkeypatch):
        original = indexes._tau_one_step
        monkeypatch.setattr(
            indexes, "_tau_one_step", lambda *args: 2 * original(*args)
        )
        with pytest.raises(InternalAssertionError, match="single-shot tree count"):
            tau_blowup_closed(3, 3, 3, BlowupParams(5, 2))

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


def _reference_tau_one_step(tau: int, vertices: int, edges: int, n: int) -> int:
    """The integer one-step tree count the exponent lift replaced, kept as a reference."""
    exp2 = edges - vertices + 1
    expn = (n - 3) * edges + vertices - 1
    assert exp2 >= 0 and expn >= 0
    return tau * 2**exp2 * n**expn


def _reference_tau_r_level(tau0: int, n0: int, e0: int, n: int, r: int) -> int:
    """The integer single-shot tree count the exponent lift replaced."""
    alpha = Fraction(Fraction(n * (n - 1), 2) ** r - 1, n * n - n - 2)
    drift = Fraction(2 * e0, n + 1) * (2 * alpha - r)
    exp2_total = 2 * e0 * alpha - r * n0 - drift + r
    expn_total = 2 * (n - 3) * e0 * alpha + r * n0 + drift - r
    assert exp2_total.denominator == expn_total.denominator == 1
    return 2 ** int(exp2_total) * n ** int(expn_total) * tau0


# the deepest r per n at which the integer reference stays under about 2e5
# bits for a base of 8 vertices; Petersen at n = 5, r = 7 has about 1e8
REFERENCE_DEPTH = {3: 6, 4: 5, 5: 4, 6: 3, 7: 3, 8: 3}

connected_counts = st.integers(2, 8).flatmap(
    lambda n0: st.tuples(st.just(n0), st.integers(n0 - 1, n0 * (n0 - 1) // 2))
)


class TestTauExponents:
    @settings(max_examples=80, deadline=None)
    @given(connected_counts, st.integers(1, 10**6), st.integers(3, 8), st.data())
    def test_exponent_lift_matches_integer_reference(self, counts, tau0, n, data):
        n0, e0 = counts
        r = data.draw(st.integers(0, REFERENCE_DEPTH[n]), label="r")
        reference = [tau0]
        for level, (vertices, edges) in enumerate(count_sequence(n0, e0, n, r)[:-1], start=1):
            reference.append(_reference_tau_one_step(reference[-1], vertices, edges, n))
            assert _reference_tau_r_level(tau0, n0, e0, n, level) == reference[-1]
        exps = [level[2] for level in indexes._closed_form_lift(1, n0, e0, n, r)]
        assert [indexes._tau_count(tau0, n, e) for e in exps] == reference
        assert tau_blowup_closed(tau0, n0, e0, BlowupParams(n, r)) == reference[-1]
        # consecutive exponent pairs order like the counts they stand for
        assert [a < b for a, b in zip(exps, exps[1:])] == [
            a < b for a, b in zip(reference, reference[1:])
        ]

    @pytest.mark.parametrize("r", range(7))
    @pytest.mark.parametrize("n", range(3, 9))
    def test_exponents_agree_and_grow_at_every_depth(self, n, r):
        # Petersen's counts (10, 15): the lift checks each level itself
        levels = indexes._closed_form_lift(297, 10, 15, n, r)
        assert len(levels) == r + 1 and levels[0][2] == (0, 0)
        for level, (_, _, exps) in enumerate(levels):
            assert exps == indexes._tau_r_level((0, 0), 10, 15, n, level)
        assert all(low < high for low, high in zip(levels, levels[1:]))

    def test_one_step_exponents(self):
        # K2 -> K3 at n = 3: 2^0 * 3^1, and a triangle at n = 5: 2^1 * 5^8
        assert indexes._tau_one_step((0, 0), 2, 1, 3) == (0, 1)
        assert indexes._tau_one_step((4, 7), 3, 3, 5) == (5, 15)
        assert indexes._tau_r_level((0, 0), 3, 3, 5, 1) == (1, 8)

    def test_count_formed_from_exponents(self):
        assert indexes._tau_count(3, 5, (1, 8)) == 2343750


class TestSingleShotKemenyDeviation:
    """The single-shot depth-r expressions equal the iterated recurrences.

    Any deviation between the two raises instead of returning a value.
    """

    def test_single_shot_disagreement_raises(self, monkeypatch):
        from clique_blowup import blowup, indexes

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
            Fraction(752), Fraction(188, 15), 2343750, "closed_form", params=BlowupParams(5, 1)
        )
        text = report.to_json()
        assert text.startswith('{"kf_star":752,"kemeny":12.533333333333333,')
        assert '"tau_exact":"2343750"' in text
        assert '"kemeny_exact":"188/15"' in text
        assert '"n":5' in text and '"r":1' in text
        assert text == report.to_json()

    def test_value_beyond_double_range_is_named(self):
        # log10(10^400 / 3) = 399.52: the log comes from numerator and denominator
        with pytest.raises(
            OverflowError,
            match=r"^kemeny of the closed_form route is beyond the double range "
            r"\(log10 kemeny = 399\.5\)$",
        ):
            IndexReport(Fraction(1), Fraction(10**400, 3), 1, "closed_form")

    def test_route_validated(self):
        with pytest.raises(InvalidParameterError):
            IndexReport(1.0, 1.0, 1.0, "guess")

    def test_compute_validates_the_route(self):
        with pytest.raises(InvalidParameterError, match="route must be one of"):
            indexes.compute(petersen(), BlowupParams(3, 0), "guess")


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
