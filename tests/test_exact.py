"""Oracle tests for the exact elimination helpers."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clique_blowup import _exact
from clique_blowup._exact import (
    FILL_LIMIT,
    _is_prime,
    _primes,
    bareiss_determinant,
    fraction_inverse,
    integer_rank,
    modular_determinant,
    modular_rank,
)
from clique_blowup.blowup import BlowupParams, blowup_iterate
from clique_blowup.corpus import default_corpus, graph_from_spec
from clique_blowup.errors import NumericalFailureError, SizeCapExceededError
from clique_blowup.indexes import _grounded, _quotient_rows, kf_star_exact, tau_exact
from conftest import late_fill_graph, record_orders, sparse_rows

int_matrices = arrays(
    np.int64, (4, 4), elements=st.integers(min_value=-6, max_value=6)
)

# small entries make singular matrices and vanishing pivots common; the wide
# ones need many primes and, beyond int64, a reduction in Python ints
entries = st.one_of(
    st.integers(-3, 3), st.integers(-(2**45), 2**45), st.integers(-(2**70), 2**70)
)
square_int_matrices = st.integers(0, 8).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@st.composite
def sparse_int_matrices(draw):
    """Square, not symmetric, with 10-30% of the entries nonzero."""
    n = draw(st.integers(1, 20))
    count = draw(st.integers(max(1, n * n // 10), max(1, 3 * n * n // 10)))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    cells = draw(st.lists(cell, min_size=count, max_size=count, unique=True))
    values = draw(st.lists(entries.filter(bool), min_size=count, max_size=count))
    matrix = [[0] * n for _ in range(n)]
    for (i, j), v in zip(cells, values):
        matrix[i][j] = v
    return matrix


def sylvester_hadamard(order: int) -> list[list[int]]:
    h = np.array([[1]])
    while len(h) < order:
        h = np.block([[h, h], [h, -h]])
    return h.tolist()


@given(int_matrices)
def test_determinant_matches_float_oracle(matrix):
    exact = bareiss_determinant(matrix.tolist())
    approx = np.linalg.det(matrix.astype(float))
    assert exact == round(approx)


@given(int_matrices)
def test_rank_matches_float_oracle(matrix):
    assert integer_rank(matrix.tolist()) == np.linalg.matrix_rank(matrix.astype(float))


def test_rank_of_rectangular():
    assert integer_rank([[1, 1, 0], [0, 1, 1]]) == 2
    assert integer_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert integer_rank([[0, 0], [0, 0]]) == 0


def test_determinant_of_empty_and_singular():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


# rectangular; a column with no pivot before the last one; row swaps that
# flip the sign; singular and full rank
BAREISS_CASES = [
    [[1, 1, 0], [0, 1, 1]],
    [[0, 2, 1], [0, 4, 3]],
    [[1, 2, 3, 4], [2, 4, 7, 9], [3, 6, 1, 1]],
    [[1, 2], [2, 4], [3, 7]],
    [[1, 2, 3], [2, 4, 5], [3, 6, 7]],
    [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
    [[0, 1], [1, 0]],
    [[0, 2, 1], [3, 1, 1], [1, 1, 0]],
    [[1, 1, 2], [1, 1, 3], [2, 5, 1]],
    [[2, 1, 0, 3], [4, 2, 1, 1], [0, 3, 5, 2], [1, 0, 2, 7]],
    [[0, 0], [0, 0]],
]

small_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


def check_against_sympy(matrix):
    reference = sympy.Matrix(matrix)
    assert integer_rank(matrix) == reference.rank()
    if len(matrix) == len(matrix[0]):
        assert bareiss_determinant(matrix) == reference.det()


@pytest.mark.parametrize("matrix", BAREISS_CASES)
def test_bareiss_matches_sympy(matrix):
    check_against_sympy(matrix)


@given(small_matrices)
def test_bareiss_matches_sympy_on_random(matrix):
    check_against_sympy(matrix)


@given(small_matrices)
def test_modular_rank_matches_integer_rank(matrix):
    # every minor is below 2**31 in absolute value, so none vanishes mod p
    assert modular_rank(sparse_rows(matrix), len(matrix[0])) == integer_rank(matrix)


def test_modular_rank_skips_empty_columns():
    assert modular_rank(sparse_rows([[0, 1, 0, 2], [0, 2, 0, 4], [0, 0, 0, 1]]), 4) == 2
    assert modular_rank([{}, {}], 3) == 0


@given(square_int_matrices)
def test_modular_determinant_matches_bareiss(matrix):
    # entries up to 2**70 are reduced as Python ints modulo each prime
    assert modular_determinant(sparse_rows(matrix)) == bareiss_determinant(matrix)


@given(sparse_int_matrices())
def test_modular_determinant_matches_bareiss_on_sparse(matrix):
    assert modular_determinant(sparse_rows(matrix)) == bareiss_determinant(matrix)


# the largest order at which a dense matrix stays on the sparse loop
SPARSE_DENSE_ORDER = math.isqrt(FILL_LIMIT) + 1


@st.composite
def laplacian_like_matrices(draw):
    """Symmetric, off-diagonal entries <= 0, diagonal at least the row's |sum|.

    Sparse (a few neighbours a row) or dense, and of orders on both sides of
    the one where a dense matrix leaves the sparse loop.
    """
    n = draw(st.integers(1, SPARSE_DENSE_ORDER + 3))
    density = draw(st.sampled_from([0.1, 0.3, 1.0]))
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.floats(0, 1)) < density:
                matrix[i][j] = matrix[j][i] = -draw(st.integers(1, 3))
    for i in range(n):
        matrix[i][i] = -sum(matrix[i]) + draw(st.integers(0, 2))
    return matrix


@given(laplacian_like_matrices())
def test_modular_determinant_matches_bareiss_on_laplacian_like(matrix):
    assert modular_determinant(sparse_rows(matrix)) == bareiss_determinant(matrix)


def dense_laplacian_minor(order: int) -> list[list[int]]:
    """The grounded Laplacian of K_(order+1): det = (order+1)**(order-1)."""
    return [[order if i == j else -1 for j in range(order)] for i in range(order)]


@pytest.mark.parametrize(
    "order,dense", [(SPARSE_DENSE_ORDER, False), (SPARSE_DENSE_ORDER + 1, True), (40, True)]
)
def test_fill_limit_sends_dense_matrices_to_the_numpy_loop(monkeypatch, order, dense):
    calls = record_orders(monkeypatch, _exact, "_dense_determinant")
    minor = sparse_rows(dense_laplacian_minor(order))
    assert modular_determinant(minor) == (order + 1) ** (order - 1)
    assert calls == ([order] if dense else [])


def test_default_grid_minors_stay_on_the_sparse_loop(monkeypatch):
    def not_called(*args):
        raise AssertionError("a default-grid minor reached the numpy loop")

    monkeypatch.setattr(_exact, "_dense_determinant", not_called)
    calls = 0
    for _, base in default_corpus():
        graphs = [base] + [
            blowup_iterate(base, BlowupParams(n, r)) for n in (3, 4, 5) for r in (1, 2)
        ]
        for g in graphs:
            try:
                tau_exact(g)
            except SizeCapExceededError:
                continue
            calls += 1
    assert calls == 62


def test_late_fill_hands_the_numpy_loop_only_the_rows_left(monkeypatch):
    # q = 120: the sparse loop pivots the 80 path vertices, then stops before
    # the core fills in, and the numpy loop takes the 39 core rows left
    minor = _grounded(_quotient_rows(late_fill_graph(40, 80)))
    assert len(minor) == 119
    calls = record_orders(monkeypatch, _exact, "_dense_determinant")
    dense = [[row.get(j, 0) for j in range(len(minor))] for row in minor]
    assert modular_determinant(minor) == bareiss_determinant(dense)
    assert calls == [39]


@st.composite
def blocks_modulo_primes(draw):
    """A square block of order 1-12 and the 1-6 largest primes.

    Multiples of those primes vanish modulo one of them only, so a diagonal
    entry or a whole column can be zero for some primes and not others.
    """
    plist = _primes(draw(st.integers(1, 6)))
    n = draw(st.integers(1, 12))
    cell = st.one_of(
        st.integers(-3, 3),
        st.builds(lambda p, x: p * x, st.sampled_from(plist), st.integers(-3, 3)),
        st.integers(-(2**70), 2**70),
    )
    matrix = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return matrix, plist


@given(blocks_modulo_primes())
def test_dense_determinant_is_the_determinant_modulo_the_primes(block):
    matrix, plist = block
    expected = bareiss_determinant(matrix) % math.prod(plist)
    assert _exact._dense_determinant(sparse_rows(matrix), plist) == expected


def test_dense_determinant_peak_stays_within_its_prediction():
    # distinct 1000-bit entries make the numbering dearest, and the prediction
    # counts no primes: the peak must not grow with the 50 of them
    rng = random.Random(1)
    rows = [{j: rng.getrandbits(1000) for j in range(60)} for _ in range(60)]
    plist = _primes(50)
    _exact._dense_determinant([{0: 1}], plist)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        _exact._dense_determinant(rows, plist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _exact.DENSE_BYTES * 60 * 60


def test_sparse_pivot_parity():
    # the pivots of columns 0, 1 (and 2) come from rows 1, 0 (and 2): odd
    with_swap = [[0, 1, 0], [1, 0, 0], [0, 0, 5]]
    assert modular_determinant(sparse_rows(with_swap)) == bareiss_determinant(with_swap) == -5
    # a 3-cycle of pivot rows is even
    cycle = [[0, 2, 0], [0, 0, 3], [5, 0, 0]]
    assert modular_determinant(sparse_rows(cycle)) == bareiss_determinant(cycle) == 30


def test_non_unit_pivot_is_passed_over(monkeypatch):
    # both largest primes divide M; the first row's pivot is not a unit, so
    # the second row pivots column 0 (an odd permutation) and no decline
    p, q = _primes(2)
    matrix = [[p * q, 1], [1, 1]]
    calls = record_orders(monkeypatch, _exact, "_dense_determinant")
    assert modular_determinant(sparse_rows(matrix)) == p * q - 1
    assert calls == []


def test_column_without_unit_declines_and_stays_exact(monkeypatch):
    # after the pivot 3, column 1 holds only p*q, which shares two primes with M;
    # the numpy loop takes the one row left
    p, q = _primes(2)
    matrix = [[p * q, 1], [0, 3]]
    calls = record_orders(monkeypatch, _exact, "_dense_determinant")
    assert modular_determinant(sparse_rows(matrix)) == bareiss_determinant(matrix) == 3 * p * q
    assert calls == [1]


def test_rows_left_sign_the_determinant_with_the_pivot_rows(monkeypatch):
    # row 1 pivots column 0; then column 1 holds only p*q*(1 - 5/3) in row 0,
    # which shares two primes with M: the rows in order 1, 0 are odd
    p, q = _primes(2)
    matrix = [[p * q, p * q], [3, 5]]
    calls = record_orders(monkeypatch, _exact, "_dense_determinant")
    assert modular_determinant(sparse_rows(matrix)) == bareiss_determinant(matrix) == 2 * p * q
    assert calls == [1]


def test_modular_determinant_pivot_vanishes_after_reordering():
    # Nonzero counts 3, 2, 3 put the rows in order 1, 0, 2, giving
    # [[1, 1, 0], [1, 1 + p, 1], [1, 2, 3]]. After the first step the second
    # pivot is p: zero mod p only, so that prime alone swaps in the third row,
    # whose entry below the pivot then vanishes mod p but not mod the others.
    p = _primes(1)[0]
    matrix = [[1 + p, 1, 1], [1, 1, 0], [2, 1, 3]]
    assert modular_determinant(sparse_rows(matrix)) == bareiss_determinant(matrix) == 3 * p - 1


def test_modular_determinant_at_the_hadamard_bound():
    # |det H16| = 16**8 = 2**32 is exactly the Hadamard bound
    h = sylvester_hadamard(16)
    assert modular_determinant(sparse_rows(h)) == 2**32
    assert modular_determinant(sparse_rows([h[1], h[0]] + h[2:])) == -(2**32)


def block_diagonal(block, copies):
    """Sparse rows of the block-diagonal matrix with the given 2 x 2 block repeated."""
    (a, b), (c, d) = block
    rows = []
    for k in range(0, 2 * copies, 2):
        rows += [{k: a, k + 1: b}, {k: c, k + 1: d}]
    return rows


def primes_used(monkeypatch):
    """Record how many primes each modular_determinant call eliminates modulo."""
    counts = []
    eliminate = _exact._eliminate

    def spy(rows, width, modulus, budget=None):
        counts.append(sum(1 for p in _primes(64) if modulus % p == 0))
        return eliminate(rows, width, modulus, budget)

    monkeypatch.setattr(_exact, "_eliminate", spy)
    return counts


def test_a_laplacian_minor_takes_primes_for_its_diagonal_product(monkeypatch):
    # cycle:40 at n=3: 40 vertices of degree 4 and 40 of degree 2. Grounded at a
    # degree-4 vertex, prod a_ii = 2**40 * 4**39 needs M > 2**119, 4 primes;
    # the Hadamard bound, near 2**136, would take 5.
    g = blowup_iterate(graph_from_spec("cycle:40"), BlowupParams(3, 1))
    laplacian = [[0] * 80 for _ in range(80)]
    for u, v in g.edges:
        laplacian[u][v] = laplacian[v][u] = -1
        laplacian[u][u] += 1
        laplacian[v][v] += 1
    minor = sparse_rows([row[1:] for row in laplacian[1:]])
    tau = tau_exact(g)
    counts = primes_used(monkeypatch)
    assert modular_determinant(minor) == tau
    diagonal = math.prod(row[i] for i, row in enumerate(minor))
    assert diagonal == 2**40 * 4**39
    assert counts == [4]
    assert math.prod(_primes(4)) ** 2 <= 4 * math.prod(sum(x * x for x in r.values()) for r in minor)


@pytest.mark.parametrize(
    "block, copies, det",
    [
        # dominant, positive diagonal, not symmetric: det 2**31 > prod a_ii = 1
        (((1, 1), (-1, 1)), 31, 2**31),
        # symmetric, positive diagonal, not dominant: det (-3)**20, prod a_ii = 1
        (((1, 2), (2, 1)), 20, 3**20),
        # symmetric and dominant: det (-2)**31 with a negative diagonal
        (((1, 1), (1, -1)), 31, -(2**31)),
    ],
)
def test_the_diagonal_bound_needs_a_positive_semidefinite_matrix(monkeypatch, block, copies, det):
    # one prime would do for prod a_ii; det exceeds half of it, so a wrong
    # bound lifts the residue to a wrong value
    rows = block_diagonal(block, copies)
    counts = primes_used(monkeypatch)
    assert modular_determinant(rows) == det
    assert counts[0] >= 2


@pytest.mark.parametrize(
    "spec, n, r", [("petersen", 3, 1), ("cycle:5", 3, 2), ("complete:4", 5, 2)]
)
def test_elimination_modulo_a_square_gives_kf_star(spec, n, r):
    # L0 is the grounded quotient minor and w0 the class weights k*d past class 0,
    # W = 2m. det(L0 + t diag(w0)) = c0 + c1 t + ..., with c0 = det L0 and
    # c1 = sum_i w_i adj(L0)_ii in [0, W H], H = prod a_ii. At t = M > 2 W**2 H
    # its residue mod M**2, neither prime nor squarefree, is c0 + c1 M, and
    # Kf* = (W c1 + det[[L0, w0], [w0^T, 0]]) / c0 + 2m sum d (k - 1) / (d + 1)
    g = blowup_iterate(graph_from_spec(spec), BlowupParams(n, r))
    _, size, degree, _ = g._twins
    w = [k * d for k, d in zip(size, degree)][1:]
    total = 2 * g.edge_count
    minor = _grounded(_quotient_rows(g))
    bound = math.prod(row[i] for i, row in enumerate(minor))
    count = 1
    while math.prod(_primes(count)) <= 2 * total**2 * bound:
        count += 1
    modulus = math.prod(_primes(count))
    shifted = [{**row, i: row[i] + modulus * x} for i, (row, x) in enumerate(zip(minor, w))]
    pivot_rows, value, stop = _exact._eliminate(shifted, len(minor), modulus**2)
    assert stop == len(minor)
    if _exact._is_odd(pivot_rows):
        value = -value % modulus**2
    c0, c1 = value % modulus, value // modulus
    assert c0 == modular_determinant(minor)
    bordered = [{**row, len(w): x} for row, x in zip(minor, w)] + [dict(enumerate(w))]
    inside = sum(Fraction(d * (k - 1), d + 1) for k, d in zip(size, degree))
    kf = Fraction(total * c1 + modular_determinant(bordered), c0) + total * inside
    assert kf == kf_star_exact(g)


def test_modular_determinant_lifts_with_m_above_twice_the_bound():
    # det = B = p - 1 for the largest prime p: M = p exceeds B, not 2B
    p = _primes(1)[0]
    assert modular_determinant([{0: p - 1}]) == p - 1
    assert modular_determinant([{0: p - 1, 1: 1}, {0: 1, 1: 1}]) == p - 2


def test_modular_determinant_with_unlucky_first_prime():
    # every entry of the first column vanishes mod the first prime used
    p = _primes(1)[0]
    assert modular_determinant([{0: p}, {1: 3}]) == 3 * p
    assert modular_determinant([{1: 1}, {0: p, 1: 5}]) == -p


def test_modular_determinant_of_empty_and_singular():
    assert modular_determinant([]) == 1
    assert modular_determinant(sparse_rows([[1, 2], [2, 4]])) == 0
    assert modular_determinant([{0: 2**70, 1: 3}, {}]) == 0
    # an explicit zero entry is no nonzero: the second row is still a zero row
    assert modular_determinant([{0: 2**70, 1: 3}, {1: 0}]) == 0


def test_modular_determinant_rejects_a_column_out_of_range():
    for column in (-1, 2, 5):
        with pytest.raises(ValueError, match=r"^column index outside 0\.\.1$"):
            modular_determinant([{0: 1}, {column: 1}])


def is_prime_by_trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primes_are_the_largest_below_2_31():
    assert all(_is_prime(n) == is_prime_by_trial_division(n) for n in range(5000))
    expected, n = [], 2**31 - 1
    while len(expected) < 12:
        if is_prime_by_trial_division(n):
            expected.append(n)
        n -= 1
    assert _primes(12) == expected


def test_fraction_inverse_roundtrip():
    m = [
        [Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(3), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(2)],
    ]
    inv = fraction_inverse(m)
    size = len(m)
    product = [
        [sum(m[i][k] * inv[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]
    assert product == [
        [Fraction(int(i == j)) for j in range(size)] for i in range(size)
    ]


def test_fraction_inverse_rejects_singular():
    with pytest.raises(NumericalFailureError):
        fraction_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


# small integers make singular matrices and zero pivots common
rationals = st.one_of(
    st.integers(-2, 2).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
square_rational_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def check_inverse_against_sympy(matrix):
    size = len(matrix)
    reference = sympy.Matrix(
        size, size, lambda i, j: sympy.Rational(matrix[i][j].numerator, matrix[i][j].denominator)
    )
    if reference.det() == 0:
        with pytest.raises(NumericalFailureError):
            fraction_inverse(matrix)
        return
    expected = reference.inv()
    assert fraction_inverse(matrix) == [
        [Fraction(int(expected[i, j].p), int(expected[i, j].q)) for j in range(size)]
        for i in range(size)
    ]


@given(square_rational_matrices)
def test_fraction_inverse_matches_sympy(matrix):
    check_inverse_against_sympy(matrix)


# singular with a zero first pivot; singular with a nonzero diagonal;
# nonsingular only after a row swap
@pytest.mark.parametrize(
    "matrix",
    [
        [[0, 0], [0, 1]],
        [[2, 1, 1], [1, 2, 1], [3, 3, 2]],
        [[0, 1, 2], [1, 0, 3], [4, -3, 8]],
    ],
)
def test_fraction_inverse_fixed_cases(matrix):
    check_inverse_against_sympy([[Fraction(x) for x in row] for row in matrix])
