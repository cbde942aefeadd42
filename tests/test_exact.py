"""Oracle tests for the exact elimination helpers."""

import math
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
from clique_blowup.corpus import default_corpus
from clique_blowup.errors import NumericalFailureError, SizeCapExceededError
from clique_blowup.indexes import tau_exact
from conftest import record_orders

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


def sparse_rows(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


@given(small_matrices)
def test_modular_rank_matches_integer_rank(matrix):
    # every minor is below 2**31 in absolute value, so none vanishes mod p
    assert modular_rank(sparse_rows(matrix), len(matrix[0])) == integer_rank(matrix)


def test_modular_rank_skips_empty_columns():
    assert modular_rank(sparse_rows([[0, 1, 0, 2], [0, 2, 0, 4], [0, 0, 0, 1]]), 4) == 2
    assert modular_rank([{}, {}], 3) == 0


@given(square_int_matrices)
def test_modular_determinant_matches_bareiss(matrix):
    assert modular_determinant(matrix) == bareiss_determinant(matrix)


@given(sparse_int_matrices())
def test_modular_determinant_matches_bareiss_on_sparse(matrix):
    assert modular_determinant(matrix) == bareiss_determinant(matrix)


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
    assert modular_determinant(matrix) == bareiss_determinant(matrix)


def dense_laplacian_minor(order: int) -> list[list[int]]:
    """The grounded Laplacian of K_(order+1): det = (order+1)**(order-1)."""
    return [[order if i == j else -1 for j in range(order)] for i in range(order)]


@pytest.mark.parametrize(
    "order,dense", [(SPARSE_DENSE_ORDER, False), (SPARSE_DENSE_ORDER + 1, True), (40, True)]
)
def test_fill_limit_sends_dense_matrices_to_the_numpy_loop(monkeypatch, order, dense):
    calls = record_orders(monkeypatch, _exact, "_dense_determinant")
    assert modular_determinant(dense_laplacian_minor(order)) == (order + 1) ** (order - 1)
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


def test_sparse_pivot_parity():
    # the pivots of columns 0, 1 (and 2) come from rows 1, 0 (and 2): odd
    with_swap = [[0, 1, 0], [1, 0, 0], [0, 0, 5]]
    assert modular_determinant(with_swap) == bareiss_determinant(with_swap) == -5
    # a 3-cycle of pivot rows is even
    cycle = [[0, 2, 0], [0, 0, 3], [5, 0, 0]]
    assert modular_determinant(cycle) == bareiss_determinant(cycle) == 30


def test_non_unit_pivot_is_passed_over(monkeypatch):
    # both largest primes divide M; the first row's pivot is not a unit, so
    # the second row pivots column 0 (an odd permutation) and no decline
    p, q = _primes(2)
    matrix = [[p * q, 1], [1, 1]]
    calls = record_orders(monkeypatch, _exact, "_dense_determinant")
    assert modular_determinant(matrix) == p * q - 1
    assert calls == []


def test_column_without_unit_declines_and_stays_exact(monkeypatch):
    # after the pivot 3, column 1 holds only p*q, which shares two primes with M
    p, q = _primes(2)
    matrix = [[p * q, 1], [0, 3]]
    calls = record_orders(monkeypatch, _exact, "_dense_determinant")
    assert modular_determinant(matrix) == bareiss_determinant(matrix) == 3 * p * q
    assert calls == [2]


def test_modular_determinant_pivot_vanishes_after_reordering():
    # Nonzero counts 3, 2, 3 put the rows in order 1, 0, 2, giving
    # [[1, 1, 0], [1, 1 + p, 1], [1, 2, 3]]. After the first step the second
    # pivot is p: zero mod p only, so that prime alone swaps in the third row,
    # whose entry below the pivot then vanishes mod p but not mod the others.
    p = _primes(1)[0]
    matrix = [[1 + p, 1, 1], [1, 1, 0], [2, 1, 3]]
    assert modular_determinant(matrix) == bareiss_determinant(matrix) == 3 * p - 1


def test_modular_determinant_at_the_hadamard_bound():
    # |det H16| = 16**8 = 2**32 is exactly the Hadamard bound
    h = sylvester_hadamard(16)
    assert modular_determinant(h) == 2**32
    assert modular_determinant([h[1], h[0]] + h[2:]) == -(2**32)


def test_modular_determinant_with_unlucky_first_prime():
    # every entry of the first column vanishes mod the first prime used
    p = _primes(1)[0]
    assert modular_determinant([[p, 0], [0, 3]]) == 3 * p
    assert modular_determinant([[0, 1], [p, 5]]) == -p


def test_modular_determinant_of_empty_and_singular():
    assert modular_determinant([]) == 1
    assert modular_determinant([[1, 2], [2, 4]]) == 0
    assert modular_determinant([[2**70, 3], [0, 0]]) == 0


def test_modular_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        modular_determinant([[1, 2]])


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
