import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clique_blowup import (
    BlowupParams,
    DegreeZeroError,
    Graph,
    InconsistentSpectrumError,
    InternalAssertionError,
    InvalidParameterError,
    NotConnectedError,
    NotSymmetricError,
    SizeCapExceededError,
    SpectrumMultiset,
    bipartition,
    blowup_counts,
    blowup_iterate,
    clique_blowup,
    eig_sym,
    gen_family,
    graph_from_spec,
    laplacian_spectrum,
    multiset_match,
    normalized_laplacian,
    spectrum_by_theorem,
    spectrum_iterated,
)
from clique_blowup import _blas, spectral
from clique_blowup.blowup import count_sequence
from clique_blowup.corpus import DEFAULT_CORPUS_SPECS
from clique_blowup.spectral import SYMMETRY_BLOCK

from conftest import connected_graphs, graphs_with_twins, record_orders, set_physical_memory

# frozen by hand: L(K_3) = (3/2)I - J/2 and J has eigenvalues {3, 0, 0}
SIGMA_K3 = SpectrumMultiset(((Fraction(0), 1), (Fraction(3, 2), 2)))
# L(K_2) is [[1,-1],[-1,1]]
SIGMA_K2 = SpectrumMultiset(((Fraction(0), 1), (Fraction(2), 1)))
# L(C_4) = I - A/2 and A(C_4) has eigenvalues {2, 0, 0, -2}
SIGMA_C4 = SpectrumMultiset(((Fraction(0), 1), (Fraction(1), 2), (Fraction(2), 1)))


class TestNormalizedLaplacian:
    def test_single_edge(self):
        m = normalized_laplacian(gen_family("complete", 2))
        assert np.allclose(m, [[1, -1], [-1, 1]])

    def test_triangle(self):
        m = normalized_laplacian(gen_family("complete", 3))
        expected = np.full((3, 3), -0.5)
        np.fill_diagonal(expected, 1.0)
        assert np.allclose(m, expected)

    def test_path_entry_mixes_degrees(self):
        m = normalized_laplacian(gen_family("path", 3))
        assert m[0, 1] == pytest.approx(-1 / math.sqrt(2))

    def test_rejects_single_vertex(self):
        with pytest.raises(DegreeZeroError):
            normalized_laplacian(gen_family("path", 1))

    def test_equals_edge_loop_fill(self, corpus):
        # reference: the one-edge-at-a-time fill, the same products bit for bit
        blown = blowup_iterate(gen_family("cycle", 5), BlowupParams(4, 2))
        for g in [g for _, g in corpus] + [blown]:
            inv_sqrt = 1.0 / np.sqrt(np.asarray(g.degrees, dtype=float))
            expected = np.eye(g.vertex_count)
            for u, v in g.edges:
                expected[u, v] = expected[v, u] = -inv_sqrt[u] * inv_sqrt[v]
            assert normalized_laplacian(g).tobytes() == expected.tobytes()


class TestEigSym:
    def test_identity(self):
        sigma = eig_sym(np.eye(4))
        assert sigma.entries == ((1.0, 4),)

    def test_single_edge_extremes(self):
        sigma = laplacian_spectrum(gen_family("complete", 2))
        flat = sigma.flatten()
        assert flat[0] == pytest.approx(0.0, abs=1e-12)
        assert flat[1] == pytest.approx(2.0, abs=1e-12)

    def test_triangle_matches_hand_derivation(self):
        sigma = laplacian_spectrum(gen_family("complete", 3))
        report = multiset_match(sigma, SIGMA_K3, 1e-9)
        assert report.matched, report.detail

    @pytest.mark.parametrize("spec", [("path", 4), ("cycle", 5), ("star", 5)])
    def test_against_symbolic_eigenvalues(self, spec):
        # independent oracle: exact eigenvalues of I - D^{-1}A, which is
        # similar to the normalized Laplacian and has rational entries
        g = gen_family(*spec)
        deg = sympy.diag(*[sympy.Rational(1, d) for d in g.degrees])
        adj = sympy.zeros(g.vertex_count)
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = 1
        walk = sympy.eye(g.vertex_count) - deg * adj
        exact = sorted(
            float(value) for value, mult in walk.eigenvals().items() for _ in range(mult)
        )
        computed = laplacian_spectrum(g).flatten()
        assert np.allclose(computed, exact, atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_asymmetry_in_last_partial_block(self):
        # blocks of SYMMETRY_BLOCK bytes: 109 rows at order 300, the last one 82
        size = 300
        rows = SYMMETRY_BLOCK // (8 * size)
        assert size // rows >= 2 and size % rows
        m = np.eye(size)
        m[size - 1, size - 2] = 3e-9
        deviation = float(np.max(np.abs(m - m.T)))
        with pytest.raises(NotSymmetricError) as excinfo:
            eig_sym(m)
        assert str(excinfo.value) == f"asymmetry {deviation:.3e} exceeds 1e-12"

    def test_rejects_non_square(self):
        with pytest.raises(InvalidParameterError):
            eig_sym(np.ones((2, 3)))

    def test_order_cap(self):
        with pytest.raises(SizeCapExceededError):
            eig_sym(np.eye(5), max_order=4)


def raw_eig_sym(matrix, **kwargs):
    """eig_sym's unclustered eigenvalue array."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpectrumMultiset, "from_eigenvalues", staticmethod(lambda values, **_: values))
        return eig_sym(matrix, **kwargs)


def mirrored(lower):
    """The exactly symmetric matrix with the given lower triangle."""
    return np.tril(lower) + np.tril(lower, -1).T


def quotient(g):
    _, sizes, degrees, links = g._twins
    return spectral._quotient_laplacian(
        links, np.array(sizes, dtype=float), np.array(degrees, dtype=float)
    )


square_floats = st.integers(0, 12).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3, width=64))
)
needs_syevd = pytest.mark.skipif(_blas.syevd() is None, reason="needs numpy's OpenBLAS dsyevd")


class TestInPlaceSolve:
    @settings(max_examples=80, deadline=None)
    @given(square_floats)
    def test_symmetric_in_place_is_bit_identical_to_eigvalsh(self, lower):
        matrix = mirrored(lower)
        expected = np.linalg.eigvalsh(matrix).tobytes()
        assert raw_eig_sym(matrix.copy()).tobytes() == expected
        assert raw_eig_sym(matrix.copy(), overwrite=True).tobytes() == expected

    @settings(max_examples=80, deadline=None)
    @given(square_floats)
    def test_slightly_asymmetric_reads_the_lower_triangle(self, lower):
        assume(len(lower) >= 2)
        matrix = mirrored(lower)
        upper = np.triu_indices(len(matrix), 1)
        matrix[upper] = np.nextafter(matrix[upper], np.inf)  # one ulp off: below SYMMETRY_TOL
        kept = matrix.copy()
        expected = np.linalg.eigvalsh(matrix).tobytes()
        assert raw_eig_sym(matrix).tobytes() == expected
        # overwrite=True solves such an array on a copy as well
        assert raw_eig_sym(matrix, overwrite=True).tobytes() == expected
        assert matrix.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("spec", DEFAULT_CORPUS_SPECS)
    def test_grid_quotients_are_bit_identical(self, spec):
        base = graph_from_spec(spec)
        for n in (3, 4, 5):
            for r in (0, 1, 2):
                matrix = quotient(blowup_iterate(base, BlowupParams(n, r)))
                expected = np.linalg.eigvalsh(matrix).tobytes()
                assert raw_eig_sym(matrix, overwrite=True).tobytes() == expected

    def test_spectra_large_quotient_is_bit_identical(self):
        matrix = quotient(blowup_iterate(graph_from_spec("petersen"), BlowupParams(8, 2)))
        assert len(matrix) == 520 and matrix.flags.c_contiguous
        expected = np.linalg.eigvalsh(matrix).tobytes()
        assert raw_eig_sym(matrix, overwrite=True).tobytes() == expected

    def test_default_leaves_the_array_untouched(self):
        matrix = quotient(blowup_iterate(graph_from_spec("petersen"), BlowupParams(4, 1)))
        kept = matrix.copy()
        eig_sym(matrix)
        assert matrix.tobytes() == kept.tobytes()

    @needs_syevd
    def test_overwrite_solves_in_the_callers_array(self):
        matrix = quotient(blowup_iterate(graph_from_spec("petersen"), BlowupParams(4, 1)))
        kept = matrix.copy()
        eig_sym(matrix, overwrite=True)
        assert matrix.tobytes() != kept.tobytes()
        # neither a Fortran-ordered array nor a read-only one is written
        read_only = kept.copy()
        read_only.flags.writeable = False
        for other in (kept.copy(order="F"), read_only):
            eig_sym(other, overwrite=True)
            assert other.tobytes() == kept.tobytes()

    @needs_syevd
    def test_laplacian_spectrum_holds_one_quotient_array(self):
        # eigvalsh's copy would double it: the peak stays below 1.5 arrays
        g = blowup_iterate(graph_from_spec("petersen"), BlowupParams(8, 2))
        array_bytes = 8 * len(g._twins[1]) ** 2
        tracemalloc.start()
        try:
            laplacian_spectrum(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert array_bytes <= peak < 1.5 * array_bytes

    @needs_syevd
    def test_eigvalsh_is_not_called(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        g = blowup_iterate(graph_from_spec("petersen"), BlowupParams(8, 2))
        sigma = laplacian_spectrum(g)
        assert [m for v, m in sigma.entries if abs(v - 8 / 7) <= sigma.cluster_tol] == [2200]

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_fallback_without_the_symbol_gives_the_same_bits(self, monkeypatch, overwrite):
        rng = np.random.default_rng(7)
        matrices = [mirrored(rng.standard_normal((k, k))) for k in (0, 1, 2, 9, 40)]
        matrices.append(quotient(blowup_iterate(graph_from_spec("petersen"), BlowupParams(5, 1))))
        solved = [raw_eig_sym(m.copy(), overwrite=overwrite).tobytes() for m in matrices]
        monkeypatch.setattr(_blas, "syevd", lambda: None)
        assert [raw_eig_sym(m.copy(), overwrite=overwrite).tobytes() for m in matrices] == solved

    @pytest.mark.parametrize("symbol", [True, False])
    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize(
        "cell, value",
        [((0, 0), math.nan), ((0, 1), math.nan), ((1, 0), math.nan), ((1, 1), math.inf),
         ((2, 2), -math.inf)],
    )
    def test_non_finite_entries_raise(self, monkeypatch, symbol, overwrite, cell, value):
        if not symbol:
            monkeypatch.setattr(_blas, "syevd", lambda: None)
        matrix = np.eye(3)
        matrix[cell] = value
        with pytest.raises(InvalidParameterError, match="non-finite"):
            eig_sym(matrix, overwrite=overwrite)
        matrix = np.eye(3)
        matrix[0, 1] = matrix[1, 0] = math.inf  # a mirrored pair
        with pytest.raises(InvalidParameterError, match="non-finite"):
            eig_sym(matrix, overwrite=overwrite)

    def test_memory_cap_is_one_array_before_any_is_built(self, monkeypatch):
        # the bytes of this host's solve: the quotient in place where dsyevd is bound,
        # the quotient and eigvalsh's copy where it is not
        g = blowup_iterate(graph_from_spec("petersen"), BlowupParams(4, 1))
        order = len(g._twins[1])
        copy = "" if _blas.syevd() else " and its copy"
        nbytes = (16 if copy else 8) * order * order
        built = record_orders(monkeypatch, spectral, "_quotient_laplacian")
        set_physical_memory(monkeypatch, nbytes - 1)
        with pytest.raises(SizeCapExceededError, match=f"order {order}{copy} would need {nbytes} "):
            laplacian_spectrum(g)
        assert built == []
        with pytest.raises(SizeCapExceededError, match="physical memory"):
            eig_sym(np.eye(order))
        set_physical_memory(monkeypatch, nbytes)
        assert laplacian_spectrum(g).order == g.vertex_count
        eig_sym(np.eye(order), overwrite=True)

    def test_memory_cap_without_dsyevd_counts_the_copy_before_the_quotient(self, monkeypatch):
        # where dsyevd is not bound, eig_sym copies the quotient: 16 q^2 bytes, checked first
        monkeypatch.setattr(_blas, "syevd", lambda: None)
        g = blowup_iterate(graph_from_spec("petersen"), BlowupParams(4, 1))
        order = len(g._twins[1])
        assert order == 25
        built = record_orders(monkeypatch, spectral, "_quotient_laplacian")
        set_physical_memory(monkeypatch, 8 * order * order)
        message = "a matrix of order 25 and its copy would need 10000 bytes"
        with pytest.raises(SizeCapExceededError, match=message):
            laplacian_spectrum(g)
        assert built == []
        set_physical_memory(monkeypatch, 16 * order * order)
        assert laplacian_spectrum(g).order == g.vertex_count
        assert len(built) == 1

    def test_memory_cap_of_the_copy_path_counts_the_matrix_and_its_copy(self, monkeypatch):
        # eigvalsh copies the matrix, so two arrays are held at once
        order = 30
        set_physical_memory(monkeypatch, 16 * order * order - 1)
        with pytest.raises(SizeCapExceededError, match="physical memory"):
            eig_sym(np.eye(order))
        set_physical_memory(monkeypatch, 16 * order * order)
        assert eig_sym(np.eye(order)).entries == ((1.0, order),)


def edge_remap_quotient(edges, class_of, size, degree):
    """Reference: the quotient builder that maps every edge to its pair of classes."""
    weight = np.sqrt(size) * (1.0 / np.sqrt(degree))
    us, vs = class_of[np.array(edges, dtype=np.intp).reshape(-1, 2)].T
    between = us != vs
    us, vs = us[between], vs[between]
    m = np.diag(1.0 - (size - 1.0) / degree)
    m[us, vs] = m[vs, us] = -weight[us] * weight[vs]
    return m


def assert_quotient_matches_edge_remap(g):
    class_of, sizes, degrees, links = g._twins
    size, degree = np.array(sizes, dtype=float), np.array(degrees, dtype=float)
    built = spectral._quotient_laplacian(links, size, degree)
    expected = edge_remap_quotient(g.edges, np.array(class_of, dtype=np.intp), size, degree)
    assert built.shape == expected.shape
    assert built.tobytes() == expected.tobytes()


class TestTwinDeflation:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(graphs_with_twins(), connected_graphs()))
    def test_quotient_from_class_edges_is_bit_identical(self, g):
        assert_quotient_matches_edge_remap(g)

    @pytest.mark.parametrize(
        "spec, n, r", [("cycle:5", 4, 2), ("petersen", 8, 2), ("star:6", 5, 1)]
    )
    def test_blowup_quotient_is_bit_identical(self, spec, n, r):
        assert_quotient_matches_edge_remap(blowup_iterate(graph_from_spec(spec), BlowupParams(n, r)))

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_twins())
    def test_matches_dense_eigensolve(self, g):
        # tolerance fixed from the dtype: 64 N eps for an order-N eigensolve
        dense = np.linalg.eigvalsh(normalized_laplacian(g))
        sigma = laplacian_spectrum(g)
        assert len(g._twins[1]) < g.vertex_count
        assert sigma.order == g.vertex_count
        tol = 64 * g.vertex_count * np.finfo(float).eps
        assert np.max(np.abs(np.array(sigma.flatten()) - dense)) <= tol

    @pytest.mark.parametrize(
        "spec, n, r", [("cycle:5", 3, 0), ("petersen", 3, 0), ("petersen", 3, 1)]
    )
    def test_twin_free_is_bit_identical_to_dense(self, monkeypatch, spec, n, r):
        g = blowup_iterate(graph_from_spec(spec), BlowupParams(n, r))
        dense = eig_sym(normalized_laplacian(g))
        orders = record_orders(monkeypatch, spectral, "eig_sym")
        assert laplacian_spectrum(g).entries == dense.entries
        assert orders == [g.vertex_count]

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_complete_graph_is_one_class(self, monkeypatch, k):
        orders = record_orders(monkeypatch, spectral, "eig_sym")
        sigma = laplacian_spectrum(gen_family("complete", k))
        assert orders == [1]
        assert sigma.entries[0] == (0.0, 1)
        (value, mult), = sigma.entries[1:]
        assert mult == k - 1
        assert value == pytest.approx(k / (k - 1), rel=1e-15)

    def test_blowup_solves_only_the_quotient(self, monkeypatch):
        # Petersen n=8 r=2: 100 singleton classes and 420 cliques of 6 twins
        g = blowup_iterate(graph_from_spec("petersen"), BlowupParams(8, 2))
        orders = record_orders(monkeypatch, spectral, "eig_sym")
        sigma = laplacian_spectrum(g)
        assert orders == [520]
        assert sigma.order == 2620
        assert [m for v, m in sigma.entries if abs(v - 8 / 7) <= sigma.cluster_tol] == [2200]

    def test_rejects_single_vertex(self):
        with pytest.raises(DegreeZeroError):
            laplacian_spectrum(gen_family("path", 1))

    def test_rejects_disconnected(self):
        with pytest.raises(NotConnectedError):
            laplacian_spectrum(Graph(4, [(0, 1), (2, 3)]))

    def test_cap_runs_before_any_allocation(self, monkeypatch):
        def fail(*args):
            raise AssertionError("classes computed over the cap")

        monkeypatch.setattr(Graph, "_twins", property(fail))
        with pytest.raises(SizeCapExceededError, match="^matrix order 10 exceeds cap 9$"):
            laplacian_spectrum(graph_from_spec("petersen"), max_order=9)

    def test_corrupted_blowup_still_mismatches(self):
        # removing an edge inside one clique breaks a twin class; the
        # deflation sees the graph as built, so the theorem disagrees
        g = gen_family("cycle", 5)
        params = BlowupParams(5, 1)
        blown = blowup_iterate(g, params)
        corrupted = Graph(blown.vertex_count, [e for e in blown.edges if e != (5, 6)])
        themed = spectrum_iterated(
            laplacian_spectrum(g), g.vertex_count, g.edge_count, params, False
        )
        assert multiset_match(themed, laplacian_spectrum(blown), 1e-7).matched
        assert not multiset_match(themed, laplacian_spectrum(corrupted), 1e-7).matched


class TestSpectrumMultiset:
    def test_clustering_merges_chain(self):
        sigma = SpectrumMultiset.from_eigenvalues([0.0, 4e-7, 8e-7, 1.0])
        assert sigma.entries[0][1] == 3
        assert sigma.entries[0][0] == pytest.approx(4e-7)
        assert sigma.entries[1] == (1.0, 1)

    def test_tiny_negative_snaps_to_zero(self):
        sigma = SpectrumMultiset.from_eigenvalues([-1e-12, 1.0])
        assert sigma.entries[0] == (0.0, 1)

    def test_genuine_negative_survives(self):
        sigma = SpectrumMultiset.from_eigenvalues([-0.5, 1.0])
        assert sigma.entries[0] == (-0.5, 1)

    def test_rejects_tight_entries(self):
        with pytest.raises(InvalidParameterError):
            SpectrumMultiset(((0.0, 1), (1e-8, 1)))

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(InvalidParameterError):
            SpectrumMultiset(((0.0, 0),))

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_rejects_cluster_tol_not_positive_and_finite(self, tol):
        with pytest.raises(InvalidParameterError, match="cluster_tol"):
            SpectrumMultiset(((0.0, 1), (1.0, 1)), cluster_tol=tol)

    def test_order_and_flatten(self):
        sigma = SpectrumMultiset(((0.0, 1), (1.5, 2)))
        assert sigma.order == 3
        assert sigma.flatten() == [0.0, 1.5, 1.5]

    def test_multiplicity_lookup(self):
        sigma = SpectrumMultiset(((0.0, 1), (1.25, 9)))
        assert dict(sigma.entries)[1.25] == 9
        assert 1.2 not in dict(sigma.entries)

    def test_exactness_tracking(self):
        assert SIGMA_K3.is_exact
        assert not SpectrumMultiset(((0.0, 1), (1.5, 2))).is_exact

    def test_json_roundtrip_and_determinism(self):
        sigma = laplacian_spectrum(gen_family("cycle", 5))
        text = sigma.to_json()
        assert text == sigma.to_json()


class TestTheoremMapping:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_single_edge_gives_complete_graph_spectrum(self, n):
        mapped = spectrum_by_theorem(SIGMA_K2, 2, 1, n, bipartite=True)
        assert mapped.entries == ((Fraction(0), 1), (Fraction(n, n - 1), n - 1))

    def test_triangle_n5_values(self):
        mapped = spectrum_by_theorem(SIGMA_K3, 3, 3, 5, bipartite=False)
        assert mapped.entries == (
            (Fraction(0), 1),
            (Fraction(3, 8), 2),
            (Fraction(5, 4), 9),
        )

    def test_triangle_n5_matches_explicit(self):
        blown = blowup_iterate(gen_family("complete", 3), BlowupParams(5, 1))
        numeric = laplacian_spectrum(blown)
        mapped = spectrum_by_theorem(SIGMA_K3, 3, 3, 5, bipartite=False)
        assert multiset_match(mapped, numeric, 1e-7).matched

    def test_square_n3_exact_and_explicit(self):
        mapped = spectrum_by_theorem(SIGMA_C4, 4, 4, 3, bipartite=True)
        assert mapped.entries == (
            (Fraction(0), 1),
            (Fraction(1, 2), 2),
            (Fraction(1), 1),
            (Fraction(3, 2), 4),
        )
        blown = blowup_iterate(gen_family("cycle", 4), BlowupParams(3, 1))
        assert multiset_match(mapped, laplacian_spectrum(blown), 1e-7).matched

    def test_float_input_stays_float(self):
        sigma = laplacian_spectrum(gen_family("complete", 3))
        mapped = spectrum_by_theorem(sigma, 3, 3, 5, bipartite=False)
        assert not mapped.is_exact
        assert multiset_match(
            mapped, spectrum_by_theorem(SIGMA_K3, 3, 3, 5, False), 1e-9
        ).matched

    def test_bipartite_flag_needs_eigenvalue_two(self):
        with pytest.raises(InconsistentSpectrumError):
            spectrum_by_theorem(SIGMA_K3, 3, 3, 5, bipartite=True)

    def test_zero_multiplicity_must_be_one(self):
        bad = SpectrumMultiset(((0.0, 2), (1.5, 1)))
        with pytest.raises(InconsistentSpectrumError):
            spectrum_by_theorem(bad, 3, 3, 4, bipartite=False)

    def test_missing_zero_rejected(self):
        bad = SpectrumMultiset(((0.5, 3),))
        with pytest.raises(InconsistentSpectrumError):
            spectrum_by_theorem(bad, 3, 3, 4, bipartite=False)

    def test_mapped_value_near_zero_stays_apart(self):
        # 3e-6 maps to 7.5e-7, within the base's 1e-6 of 0 but not within 1e-6/4
        sigma = SpectrumMultiset(((0.0, 1), (3e-6, 1), (1.5, 1)))
        mapped = spectrum_by_theorem(sigma, 3, 3, 5, bipartite=False)
        assert mapped.entries == ((0.0, 1), (3e-6 / 4, 1), (1.5 / 4, 1), (1.25, 9))
        assert mapped.cluster_tol == 1e-6 / 4

    def test_close_distinct_values_stay_apart(self):
        # 1.0 and 1.000003 map to 0.25 and 0.25 + 7.5e-7, still 3 * cluster_tol apart
        sigma = SpectrumMultiset(((0.0, 1), (1.0, 1), (1.000003, 1)))
        mapped = spectrum_by_theorem(sigma, 3, 3, 5, bipartite=False)
        assert mapped.entries == ((0.0, 1), (0.25, 1), (1.000003 / 4, 1), (1.25, 9))

    @pytest.mark.parametrize("top", [2 - 5e-7, Fraction(2)])
    def test_non_bipartite_eigenvalue_near_two_rejected(self, top):
        # top / 4 lies within cluster_tol = 1e-6 / 4 of the new 2 / 4
        sigma = SpectrumMultiset(((0.0, 1), (1.0, 2), (top, 1)))
        with pytest.raises(InconsistentSpectrumError, match="cluster_tol"):
            spectrum_by_theorem(sigma, 4, 5, 5, bipartite=False)

    def test_non_bipartite_eigenvalue_just_apart_from_two(self):
        # (2 - top) / 4 = 5e-7 exceeds 1e-6 / 4, but not the base's 1e-6
        sigma = SpectrumMultiset(((0.0, 1), (1.0, 2), (2 - 2e-6, 1)))
        mapped = spectrum_by_theorem(sigma, 4, 5, 5, bipartite=False)
        assert [float(v) for v, _ in mapped.entries] == [0, 0.25, (2 - 2e-6) / 4, 0.5, 1.25]

    def test_negative_low_multiplicity_rejected(self):
        # a connected non-bipartite graph cannot have E < N
        bad = SpectrumMultiset(((0.0, 1), (1.0, 4)))
        with pytest.raises(InconsistentSpectrumError):
            spectrum_by_theorem(bad, 5, 3, 4, bipartite=False)

    def test_total_mismatch_caught(self):
        padded = SpectrumMultiset(((0.0, 1), (1.0, 3)))
        with pytest.raises(InternalAssertionError):
            spectrum_by_theorem(padded, 3, 3, 3, bipartite=False)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParameterError):
            spectrum_by_theorem(SIGMA_K3, 3, 3, 2, bipartite=False)


class TestIteratedMapping:
    def test_two_steps_from_single_edge(self):
        # CL(CL(K_2)) with n=3 is CL(K_3) with n=3
        mapped = spectrum_iterated(SIGMA_K2, 2, 1, BlowupParams(3, 2), bipartite=True)
        assert mapped.entries == (
            (Fraction(0), 1),
            (Fraction(3, 4), 2),
            (Fraction(3, 2), 3),
        )
        blown = blowup_iterate(gen_family("complete", 2), BlowupParams(3, 2))
        assert multiset_match(mapped, laplacian_spectrum(blown), 1e-7).matched

    def test_depth_one_equals_one_step(self):
        once = spectrum_iterated(SIGMA_K3, 3, 3, BlowupParams(5, 1), bipartite=False)
        assert once.entries == spectrum_by_theorem(SIGMA_K3, 3, 3, 5, False).entries

    def test_two_steps_triangle_top_multiplicity(self):
        mapped = spectrum_iterated(SIGMA_K3, 3, 3, BlowupParams(5, 2), bipartite=False)
        assert mapped.order == 102
        assert dict(mapped.entries)[Fraction(5, 4)] == (5 - 3) * 30 + 12
        blown = blowup_iterate(gen_family("complete", 3), BlowupParams(5, 2))
        assert multiset_match(mapped, laplacian_spectrum(blown), 1e-7).matched

    def test_depth_zero_is_the_identity(self):
        # CL^0(G) = G: no level runs, so the entries and cluster_tol come back as given
        numeric = laplacian_spectrum(gen_family("cycle", 4))
        for sigma in (SIGMA_C4, numeric, SpectrumMultiset(((0.0, 1), (1.5, 2)), 1e-3)):
            for bipartite in (False, True):
                mapped = spectrum_iterated(sigma, 4, 4, BlowupParams(5, 0), bipartite)
                assert mapped.entries == sigma.entries
                assert mapped.cluster_tol == sigma.cluster_tol

    def test_float_level_below_the_normal_range_raises(self):
        # 1.5 / 999^103 = 1.66e-309 is subnormal; the exact value is not rounded
        params = BlowupParams(1000, 103)
        exact = spectrum_iterated(SIGMA_K3, 3, 3, params, bipartite=False)
        assert exact.entries[1][0] == Fraction(3, 2) / 999**103
        numeric = SpectrumMultiset(((0.0, 1), (1.5, 2)))
        message = "underflows at level 103: eigenvalue 1.66e-309"
        with pytest.raises(SizeCapExceededError, match=message):
            spectrum_iterated(numeric, 3, 3, params, bipartite=False)
        level_102 = spectrum_iterated(numeric, 3, 3, BlowupParams(1000, 102), bipartite=False)
        assert level_102.entries[1][0] == pytest.approx(1.5 / 999**102)


def reference_spectrum_by_theorem(sigma_g, n0, e0, n, bipartite):
    """Reference mapping: cluster at the input's cluster_tol, reject any merge.

    It fails once the mapped values shrink below that tolerance; where it
    succeeds, spectrum_by_theorem must give the same entries.
    """
    tol = sigma_g.cluster_tol
    entries = list(sigma_g.entries)
    excluded = {spectral.zero_index(sigma_g)}
    if bipartite:
        (two_at,) = spectral._locate(entries, 2.0, tol)
        excluded.add(two_at)
    cast = Fraction if sigma_g.is_exact else float
    out = [(cast(0), 1)]
    out.extend(
        (cast(v) / (n - 1), m) for i, (v, m) in enumerate(entries) if i not in excluded
    )
    mult_low = e0 - n0 + (1 if bipartite else 0)
    if mult_low > 0:
        out.append((cast(2) / (n - 1), mult_low))
    out.append((cast(n) / (n - 1), (n - 3) * e0 + n0))
    result = SpectrumMultiset.from_entries(out, cluster_tol=tol)
    if len(result.entries) != len({v for v, _ in out}):
        raise InconsistentSpectrumError(
            f"distinct mapped eigenvalues merged within cluster_tol={tol:g}"
        )
    return result


class TestMappingAtDepth:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(DEFAULT_CORPUS_SPECS).map(graph_from_spec),
            connected_graphs(max_vertices=7),
        ),
        st.integers(3, 8),
        st.integers(1, 12),
    )
    def test_order_resolution_and_reference_entries(self, g, n, r):
        sigma, bip = laplacian_spectrum(g), bipartition(g).is_bipartite
        n0, e0 = g.vertex_count, g.edge_count
        mapped = spectrum_iterated(sigma, n0, e0, BlowupParams(n, r), bip)
        assert mapped.order == blowup_counts(n0, e0, BlowupParams(n, r)).vertices
        assert mapped.cluster_tol == pytest.approx(
            sigma.cluster_tol / (n - 1) ** r, rel=1e-12
        )
        values = [float(v) for v, _ in mapped.entries]
        assert all(b - a > mapped.cluster_tol for a, b in zip(values, values[1:]))
        reference = sigma
        try:
            for level, (vertices, edges) in enumerate(count_sequence(n0, e0, n, r)[:-1]):
                reference = reference_spectrum_by_theorem(
                    reference, vertices, edges, n, bip and level == 0
                )
        except InconsistentSpectrumError:
            return  # the reference merged values that the mapping keeps apart
        assert mapped.entries == reference.entries


class TestMultisetMatch:
    def test_equal_multisets(self):
        a = SpectrumMultiset(((0.0, 1), (1.5, 2)))
        assert multiset_match(a, a, 1e-7).matched

    def test_length_mismatch(self):
        a = SpectrumMultiset(((0.0, 1),))
        b = SpectrumMultiset(((0.0, 2),))
        report = multiset_match(a, b, 1.0)
        assert not report.matched
        assert (report.count_a, report.count_b) == (1, 2)
        assert "length" in report.detail

    def test_value_mismatch_reports_first_index(self):
        a = SpectrumMultiset(((0.0, 1), (1.0, 1)))
        b = SpectrumMultiset(((0.0, 1), (1.001, 1)))
        report = multiset_match(a, b, 1e-7)
        assert not report.matched
        assert report.first_mismatch_index == 1
        assert report.value_a == 1.0 and report.value_b == 1.001

    def test_tolerance_is_relative_to_reference(self):
        a = SpectrumMultiset(((1.0 + 5e-8, 1),))
        b = SpectrumMultiset(((1.0, 1),))
        assert multiset_match(a, b, 1e-7).matched
        a2 = SpectrumMultiset(((1.0 + 3e-7, 1),))
        assert not multiset_match(a2, b, 1e-7).matched

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_tolerance_not_finite_and_nonnegative(self, tol):
        # a NaN or infinite tol would report 1.0 and 5.0 as a match
        a = SpectrumMultiset(((1.0, 1),))
        b = SpectrumMultiset(((5.0, 1),))
        with pytest.raises(InvalidParameterError, match="tolerance"):
            multiset_match(a, b, tol)

    def test_zero_tolerance_is_exact_comparison(self):
        a = SpectrumMultiset(((1.0, 1),))
        assert multiset_match(a, a, 0.0).matched
        assert not multiset_match(a, SpectrumMultiset(((1.0 + 1e-15, 1),)), 0.0).matched


class TestSpectralProperties:
    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_vertices=7), st.sampled_from([3, 4, 5]))
    def test_theorem_matches_eigensolve(self, g, n):
        bip = bipartition(g).is_bipartite
        mapped = spectrum_iterated(
            laplacian_spectrum(g), g.vertex_count, g.edge_count, BlowupParams(n, 1), bip
        )
        numeric = laplacian_spectrum(clique_blowup(g, n))
        assert multiset_match(mapped, numeric, 1e-7).matched

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_trace_and_range(self, g):
        sigma = laplacian_spectrum(g)
        flat = sigma.flatten()
        assert sum(flat) == pytest.approx(g.vertex_count, rel=1e-6)
        assert all(0.0 <= v <= 2.0 + 1e-9 for v in flat)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_top_eigenvalue_detects_bipartiteness(self, g):
        flat = laplacian_spectrum(g).flatten()
        if bipartition(g).is_bipartite:
            assert max(flat) == pytest.approx(2.0, abs=1e-7)
            mirrored = sorted(2.0 - v for v in flat)
            assert np.allclose(flat, mirrored, atol=1e-7)
        else:
            assert max(flat) < 2.0 - 1e-6
