"""Exact linear algebra on integers and fractions.

``modular_determinant`` computes integer determinants by elimination modulo
word-sized primes, all primes at once in numpy, and recovers the value by the
Chinese remainder theorem. The number of primes comes from the Hadamard
bound, so the result is certified, not probabilistic. The elimination is
built for sparse input: it eliminates the rows with the fewest nonzeros
first and updates only the rows and columns that a pivot touches, so a
blowup Laplacian minor stays sparse outside its cliques. Dense matrices are
not its traffic and run about twice as slowly as a dense update would.

One fraction-free Gauss-Jordan elimination on Python ints (Bareiss) gives
integer ranks, a reference determinant that the tests compare against, and
the exact rational inverse of the exact Kf* route. All routines are exact;
they exist so that rank dichotomies, spanning-tree counts and Kf* never
depend on floating-point rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericalFailureError, SizeCapExceededError

DEFAULT_EXACT_CAP = 200  # the order a capped routine may work at, by default

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


def require_within_cap(order: int, max_order: int) -> None:
    """Raise SizeCapExceededError for an order over max_order; call it before allocating."""
    if order > max_order:
        raise SizeCapExceededError(f"order {order} exceeds exact cap {max_order}")


def modular_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, by multi-modular elimination.

    |det| <= B with B**2 = prod_i sum_j a_ij**2 (Hadamard), so primes whose
    product M exceeds 2B fix det as the residue mod M lifted to the
    symmetric range. Gaussian elimination runs modulo every prime together
    on one (primes, N, N) int64 array, with a pivot search per prime: an
    entry can vanish mod p without vanishing over Q. A column with no
    nonzero entry mod p makes that prime's residue 0, which is a true
    residue and still enters the reconstruction.

    The elimination is sparsity-aware. Rows and columns are first permuted
    by one symmetric permutation into ascending order of nonzero count,
    which leaves the determinant unchanged (det PAP^T = det A); on a graph
    Laplacian minor this eliminates the lowest-degree vertices first, so
    the fill stays inside their cliques (the minimum-degree ordering of
    Markowitz 1957 and Rose 1972). Each step then updates only the rows
    nonzero in the pivot column and the columns nonzero in the pivot row,
    taking the union over all primes: a zero multiplier for one prime is a
    no-op, so the restricted update is exact. The gather and scatter cost
    more than slicing does, so a dense matrix takes about twice as long as
    a dense update would; the only caller, ``tau_exact``, passes Laplacian
    minors with about degree + 1 nonzeros per row.
    """
    size = len(matrix)
    bound_sq, counts = 1, []
    for row in matrix:
        if len(row) != size:
            raise ValueError("matrix must be square")
        bound_sq *= sum(x * x for x in row)
        counts.append(sum(1 for x in row if x))
    order = np.argsort(counts, kind="stable")
    plist: list[int] = []
    modulus = 1
    while modulus * modulus <= 4 * bound_sq:
        plist = _primes(len(plist) + 1)
        modulus *= plist[-1]
    primes = np.array(plist, dtype=np.int64)
    p_col = primes[:, None]
    p_cube = primes[:, None, None]
    try:
        a = np.array(matrix, dtype=np.int64).reshape(size, size)
        a = a[np.ix_(order, order)].reshape(1, size, size) % p_cube
    except OverflowError:
        # entries beyond int64: reduce as Python ints first
        big = np.array(matrix, dtype=object).reshape(size, size)[np.ix_(order, order)]
        reduced = [big % p for p in plist]
        a = np.array(reduced, dtype=np.int64).reshape(len(plist), size, size)
    det = np.ones(len(plist), dtype=np.int64)
    negate = np.zeros(len(plist), dtype=bool)
    for k in range(size):
        first = (a[:, k:, k] != 0).argmax(axis=1)
        for j in np.flatnonzero(first):
            a[j, [k, k + first[j]]] = a[j, [k + first[j], k]]
        negate ^= first != 0
        pivot = a[:, k, k]
        det = det * pivot % primes
        inverse = np.array(
            [pow(v, -1, p) if v else 0 for v, p in zip(pivot.tolist(), plist)],
            dtype=np.int64,
        )
        below, right = a[:, k + 1 :, k], a[:, k, k + 1 :]
        rows = np.flatnonzero(below.any(axis=0))
        cols = np.flatnonzero(right.any(axis=0))
        row = right[:, cols] * inverse[:, None] % p_col
        r, c = k + 1 + rows[:, None], k + 1 + cols
        a[:, r, c] = (a[:, r, c] - below[:, rows, None] * row[:, None, :]) % p_cube
    det = np.where(negate, (primes - det) % primes, det)
    value, modulus = 0, 1
    for residue, p in zip(det.tolist(), plist):
        value += modulus * ((residue - value) * pow(modulus, -1, p) % p)
        modulus *= p
    return value - modulus if 2 * value > modulus else value


def _bareiss(matrix: list[list[int]], pivot_cols: int | None = None) -> tuple[list, int, int, int]:
    """Fraction-free Gauss-Jordan elimination: (rows, rank, swap sign, last pivot).

    Pivots come from the first ``pivot_cols`` columns (default all); each one
    clears its column in every other row by (pivot*row - factor*top) // prev.
    Every entry stays a minor of the original matrix, so each division is
    exact, also past a column without a pivot (Bareiss, Math. Comp. 1968).
    The pivot rows end as the last pivot (1 when there is none) times the
    reduced row echelon form.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank, sign, prev = 0, 1, 1
    for col in range(cols if pivot_cols is None else pivot_cols):
        pivot_row = next((i for i in range(rank, rows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            sign = -sign
        top = m[rank]
        pivot = top[col]
        for i, row in enumerate(m):
            factor = row[col]
            if factor and i != rank:
                m[i] = [(a * pivot - factor * b) // prev for a, b in zip(row, top)]
            elif not factor and pivot != prev:
                m[i] = [a * pivot // prev for a in row]
        prev = pivot
        rank += 1
    return m, rank, sign, prev


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, by fraction-free elimination."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    _, rank, sign, last = _bareiss(matrix)
    return sign * last if rank == size else 0


def integer_rank(matrix: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, fraction-free."""
    return _bareiss(matrix)[1]


def fraction_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular rational matrix, by fraction-free Gauss-Jordan."""
    size = len(matrix)
    scale = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    aug = [
        [int(Fraction(x) * scale) for x in row] + [int(i == j) for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    # with s the lcm of the denominators, [sA | I] reduces to [pI | p(sA)^-1]
    reduced, rank, _, last = _bareiss(aug, pivot_cols=size)
    if rank < size:
        raise NumericalFailureError("matrix is singular")
    return [[Fraction(scale * x, last) for x in row[size:]] for row in reduced]
