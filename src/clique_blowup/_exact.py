"""Exact linear algebra on integers and fractions.

``modular_determinant`` computes integer determinants modulo M, a product
of word-sized primes whose count comes from the Hadamard bound, so the
result is certified, not probabilistic. It is structured Gaussian
elimination: a pass over the nonzero pattern predicts the fill, and a matrix
that stays sparse, such as a blowup's Laplacian minor, is eliminated in
Python on sparse rows modulo M, with the lowest-degree rows first. A matrix
that fills in goes to a numpy loop that eliminates modulo every prime at
once and recovers the value by the Chinese remainder theorem.
``modular_rank`` runs the same sparse loop modulo one prime.

One fraction-free Gauss-Jordan elimination on Python ints (Bareiss) gives
the exact rational inverse of the exact Kf* route, and the integer rank and
determinant that the tests compare against. All routines are exact; they
exist so that rank dichotomies, spanning-tree counts and Kf* never depend on
floating-point rounding.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import NumericalFailureError, SizeCapExceededError

DEFAULT_EXACT_CAP = 200  # the order a capped routine may work at, by default

# Entries per matrix row that the pivots left may touch before the sparse
# determinant leaves the matrix to the numpy loop (see _fills_in). On dense
# Laplacian minors of K_(k+1), the sparse loop against the numpy loop took
# 1.14 vs 1.31 ms at order 16 (225 entries per pivot) and 2.14 vs 1.66 ms
# at order 20 (361), so the limit sits at the crossover: a dense matrix of
# order 17 or less stays sparse (a 2-vCPU x86-64 host). Blowup minors stay
# far below it: at most 9 per row on the default verify grid, 79 on the
# blowup of K_45 at n=3, which then takes 0.44 s instead of 1.16 s.
FILL_LIMIT = 256

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
    """Exact determinant of a square integer matrix, by elimination modulo M.

    |det| <= B with B**2 = prod_i sum_j a_ij**2 (Hadamard), so for a product
    M of primes below 2**31 with M > 2B the residue mod M, lifted to the
    symmetric range, is det. Rows and columns are first permuted by one
    symmetric permutation into ascending order of nonzero count, which
    leaves the determinant unchanged (det PAP^T = det A); on a graph
    Laplacian minor this eliminates the lowest-degree vertices first, so the
    fill stays inside their cliques (the minimum-degree ordering of
    Markowitz 1957 and Rose 1972).

    This is structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO
    1990): sparse pivots in Python, a dense solver where the matrix fills
    in. ``_fills_in`` first eliminates the nonzero pattern alone; where it
    finds too much fill, the numpy loop ``_dense_determinant`` takes the
    matrix, one prime at a time with its own pivots. Otherwise ``_eliminate``
    runs on sparse rows modulo M itself. A column with no nonzero mod M
    gives det = 0, certified because |det| < M/2. ``_eliminate`` declines
    where a column's nonzeros all share a prime with M, and the numpy loop
    then starts from the original matrix, so no prime is ever retried. The only
    caller, ``tau_exact``, passes Laplacian minors; those of the blowups on
    the default ``verify`` grid never reach the numpy loop.
    """
    size = len(matrix)
    bound_sq = 1
    for row in matrix:
        if len(row) != size:
            raise ValueError("matrix must be square")
        bound_sq *= sum(map(operator.mul, row, row))
    order = sorted(range(size), key=lambda i: size - matrix[i].count(0))
    plist: list[int] = []
    modulus = 1
    while modulus * modulus <= 4 * bound_sq:
        plist = _primes(len(plist) + 1)
        modulus *= plist[-1]
    position = [0] * size
    for k, i in enumerate(order):
        position[i] = k
    # a nonzero entry is nonzero mod M too: M > 2B >= 2|x| unless B = 0
    rows = [{position[j]: x for j, x in enumerate(matrix[i]) if x} for i in order]
    eliminated = None if _fills_in(rows) else _eliminate(rows, size, modulus)
    if eliminated is None:
        value = _dense_determinant(matrix, order, plist)
    else:
        pivot_rows, value = eliminated
        if len(pivot_rows) < size:
            return 0
        if _is_odd(pivot_rows):
            value = -value % modulus
    return value - modulus if 2 * value > modulus else value


def modular_rank(rows: list[dict[int, int]], width: int) -> int:
    """Rank over GF(p), p the largest prime below 2**31, of sparse integer rows.

    Each row is ``{column: entry}`` with columns below ``width``; the rows
    are consumed. Every nonzero residue is a unit mod a prime, so the
    elimination never declines. The rank over GF(p) is at most the rank r
    over Q, and equal to it where some r x r minor is prime to p.
    """
    pivot_rows, _ = _eliminate(rows, width, _primes(1)[0])
    return len(pivot_rows)


def _fills_in(rows: list[dict[int, int]]) -> bool:
    """Whether a pivot of the sparse elimination would touch too many entries.

    Eliminates the pattern of A + A^T in order, pivots on the diagonal, with
    no arithmetic: pivot k joins its c later neighbours into a clique, which
    is the fill, and its update touches c**2 entries. With the same c for
    every pivot left, the rest would touch c**2 * (size - k) entries; the
    elimination fills in where that exceeds ``FILL_LIMIT`` per row of the
    matrix. A Laplacian minor is positive definite, so unless a pivot
    shares a prime with M its pivots are on the diagonal, and its numeric
    fill is this pattern's or less.
    """
    size = len(rows)
    around = [set(row) for row in rows]
    for i, row in enumerate(rows):
        for c in row:
            around[c].add(i)
    for k, later in enumerate(around):
        later.discard(k)
        if len(later) ** 2 * (size - k) > FILL_LIMIT * size:
            return True
        for i in later:
            neighbours = around[i]
            neighbours |= later
            neighbours.discard(k)
    return False


def _eliminate(
    rows: list[dict[int, int]], width: int, modulus: int
) -> tuple[list[int], int] | None:
    """Gaussian elimination modulo ``modulus`` on sparse rows ``{column: entry}``.

    Columns 0 .. width-1 are taken in turn. The pivot is the first live row
    (not yet a pivot) whose entry in the column is a unit; a column with no
    live nonzero is skipped. Each pivot updates only the live rows nonzero
    in its column, at the pivot row's nonzeros. Returns the pivot row of
    each column that got one, in column order, and the product of the
    pivots; for a square matrix with every column pivoted, det = sign(pivot
    rows) times that product. Returns None where a column has nonzeros but
    no unit. The rows are consumed.
    """
    live: list[set[int]] = [set() for _ in range(width)]
    for i, row in enumerate(rows):
        for c in row:
            live[c].add(i)
    pivot_rows: list[int] = []
    product = 1
    for col in range(width):
        holders = live[col]
        if not holders:
            continue
        pivot = min(holders)
        if math.gcd(rows[pivot][col], modulus) != 1:
            pivot = next(
                (i for i in sorted(holders) if math.gcd(rows[i][col], modulus) == 1), None
            )
            if pivot is None:
                return None
        holders.discard(pivot)
        top = rows[pivot]
        value = top.pop(col)
        for c in top:
            live[c].discard(pivot)
        pivot_rows.append(pivot)
        product = product * value % modulus
        inverse = pow(value, -1, modulus)
        for i in holders:
            row = rows[i]
            factor = row.pop(col) * inverse % modulus
            for c, v in top.items():
                new = (row.get(c, 0) - factor * v) % modulus
                if new:
                    row[c] = new
                    live[c].add(i)
                elif c in row:
                    del row[c]
                    live[c].discard(i)
    return pivot_rows, product


def _is_odd(permutation: list[int]) -> bool:
    """Parity of a permutation of 0..n-1: a cycle of length L is L - 1 transpositions."""
    seen = [False] * len(permutation)
    odd = False
    for start in range(len(permutation)):
        if seen[start]:
            continue
        j = start
        while not seen[j]:
            seen[j] = True
            j = permutation[j]
            odd = not odd
        odd = not odd
    return odd


def _dense_determinant(matrix: list[list[int]], order: list[int], plist: list[int]) -> int:
    """det mod prod(plist) in [0, M), all primes at once in numpy.

    Gaussian elimination runs modulo every prime together on one
    (primes, N, N) int64 array in the symmetric ``order``, with a pivot
    search per prime: an entry can vanish mod p without vanishing over Q. A
    column with no nonzero entry mod p makes that prime's residue 0, which
    is a true residue and still enters the Chinese remainder reconstruction.
    Each step updates only the rows nonzero in the pivot column and the
    columns nonzero in the pivot row for some prime: a zero multiplier for
    one prime is a no-op, so the restricted update is exact.
    """
    size = len(matrix)
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
    return value


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
