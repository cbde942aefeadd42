"""Exact linear algebra on integers and fractions.

``modular_determinant`` computes integer determinants by elimination modulo
word-sized primes, all primes at once in numpy, and recovers the value by the
Chinese remainder theorem. The number of primes comes from the Hadamard
bound, so the result is certified, not probabilistic.

Fraction-free (Bareiss) elimination on Python ints gives integer ranks and a
reference determinant that the tests compare against; the rational
Gauss-Jordan inverse is the exact Kf* route. All routines are exact; they
exist so that rank dichotomies and spanning-tree counts never depend on
floating-point rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericalFailureError

# Primes below 2**31 in descending order, extended on demand. Residues stay
# below 2**31, so a product of two fits in int64 with room for a subtraction.
_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(count: int) -> list[int]:
    """The ``count`` largest primes below 2**31, largest first."""
    candidate = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
    while len(_PRIMES) < count:
        if _is_prime(candidate):
            _PRIMES.append(candidate)
        candidate -= 2
    return _PRIMES[:count]


def modular_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, by multi-modular elimination.

    |det| <= B with B**2 = prod_i sum_j a_ij**2 (Hadamard), so primes whose
    product M exceeds 2B fix det as the residue mod M lifted to the
    symmetric range. Gaussian elimination runs modulo every prime together
    on one (primes, N, N) int64 array, with a pivot search per prime: an
    entry can vanish mod p without vanishing over Q. A column with no
    nonzero entry mod p makes that prime's residue 0, which is a true
    residue and still enters the reconstruction.
    """
    size = len(matrix)
    for row in matrix:
        if len(row) != size:
            raise ValueError("matrix must be square")
    bound_sq = math.prod(sum(x * x for x in row) for row in matrix)
    plist: list[int] = []
    modulus = 1
    while modulus * modulus <= 4 * bound_sq:
        plist = _primes(len(plist) + 1)
        modulus *= plist[-1]
    primes = np.array(plist, dtype=np.int64)
    p_col = primes[:, None]
    p_cube = primes[:, None, None]
    try:
        a = np.array(matrix, dtype=np.int64).reshape(1, size, size) % p_cube
    except OverflowError:
        # entries beyond int64: reduce as Python ints first
        big = np.array(matrix, dtype=object).reshape(size, size)
        reduced = [big % p for p in plist]
        a = np.array(reduced, dtype=np.int64).reshape(len(plist), size, size)
    det = np.ones(len(plist), dtype=np.int64)
    negate = np.zeros(len(plist), dtype=bool)
    for _ in range(size):
        first = (a[:, :, 0] != 0).argmax(axis=1)
        for j in np.flatnonzero(first):
            a[j, [0, first[j]]] = a[j, [first[j], 0]]
        negate ^= first != 0
        pivot = a[:, 0, 0]
        det = det * pivot % primes
        inverse = np.array(
            [pow(v, -1, p) if v else 0 for v, p in zip(pivot.tolist(), plist)],
            dtype=np.int64,
        )
        row = a[:, 0, 1:] * inverse[:, None] % p_col
        rest = a[:, 1:, 1:]
        rest -= a[:, 1:, :1] * row[:, None, :]
        rest %= p_cube
        a = rest
    det = np.where(negate, (primes - det) % primes, det)
    value, modulus = 0, 1
    for residue, p in zip(det.tolist(), plist):
        value += modulus * ((residue - value) * pow(modulus, -1, p) % p)
        modulus *= p
    return value - modulus if 2 * value > modulus else value


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix.

    One-step fraction-free elimination: every intermediate entry is a minor
    of the original matrix, so the division in the update rule is exact.
    """
    m = [list(row) for row in matrix]
    size = len(m)
    if size == 0:
        return 1
    for row in m:
        if len(row) != size:
            raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            # partial pivot: any nonzero entry below keeps exactness
            pivot_row = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[size - 1][size - 1]


def integer_rank(matrix: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, fraction-free.

    Bareiss updates stay valid with column skips: after k pivots each entry
    is a (k+1)x(k+1) minor of the original matrix, so dividing by the
    previous pivot remains an exact integer division.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot_row = next((i for i in range(row, rows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for i in range(row + 1, rows):
            factor = m[i][col]
            for j in range(col + 1, cols):
                m[i][j] = (m[i][j] * pivot - factor * m[row][j]) // prev
            m[i][col] = 0
        prev = pivot
        rank += 1
        row += 1
    return rank


def fraction_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular rational matrix (Gauss-Jordan)."""
    size = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot_row = next((i for i in range(col, size) if aug[i][col] != 0), None)
        if pivot_row is None:
            raise NumericalFailureError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for i in range(size):
            if i == col or aug[i][col] == 0:
                continue
            factor = aug[i][col]
            aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [row[size:] for row in aug]
