"""Oracle tests for the exact elimination helpers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clique_blowup._exact import (
    _is_prime,
    _primes,
    bareiss_determinant,
    fraction_inverse,
    integer_rank,
    modular_determinant,
)
from clique_blowup.errors import NumericalFailureError

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


@given(square_int_matrices)
def test_modular_determinant_matches_bareiss(matrix):
    assert modular_determinant(matrix) == bareiss_determinant(matrix)


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
