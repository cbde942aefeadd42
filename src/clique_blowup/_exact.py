"""Exact linear algebra on integers and fractions.

``modular_determinant`` computes integer determinants modulo M, a product
of word-sized primes whose count comes from the Hadamard bound, so the
result is certified, not probabilistic. It takes sparse rows
``{column: entry}``, as ``modular_rank`` does, and is structured Gaussian
elimination in one pass: Python pivots on those rows modulo M, lowest-degree
rows first, until a pivot's update would pass a fill budget. Only the rows
left then become a dense array, for a numpy loop that eliminates modulo
every prime at once and recovers their determinant by the Chinese remainder
theorem. ``modular_rank`` runs the same sparse loop modulo one prime.

One fraction-free Gauss-Jordan elimination on Python ints (Bareiss) gives
the exact rational inverse of the exact Kf* route, and the integer rank and
determinant that the tests compare against. All routines are exact; they
exist so that rank dichotomies, spanning-tree counts and Kf* never depend on
floating-point rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NumericalFailureError, SizeCapExceededError

DEFAULT_EXACT_CAP = 200  # the order a capped routine may work at, by default

# Entries per matrix row that the pivots left may touch before the sparse
# determinant hands the rows left to the numpy loop (see _eliminate). On dense
# Laplacian minors of K_(k+1), the sparse loop against the numpy loop took
# 1.14 vs 1.31 ms at order 16 (225 entries per pivot) and 2.14 vs 1.66 ms
# at order 20 (361), so the limit sits at the crossover: a dense matrix of
# order 17 or less stays sparse (a 2-vCPU x86-64 host). Blowup minors stay
# far below it: at most 9 per row on the default verify grid, 79 on the
# blowup of K_45 at n=3, which then takes 0.44 s instead of 1.16 s.
FILL_LIMIT = 256

# Peak bytes of the numpy loop per byte of its (primes, N, N) int64 array,
# rounded up: tracemalloc peaks of 4.2, 4.0 and 4.0 and ru_maxrss growths of
# 4.7, 4.8 and 4.6 on G(q, 1/2) plus a path at q = 100, 200 and 300
DENSE_ARRAYS = 5

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


def modular_determinant(rows: list[dict[int, int]]) -> int:
    """Exact determinant of the q x q integer matrix with sparse rows ``{column: entry}``.

    Columns lie in 0 .. q-1 (else ValueError); the rows are not consumed.
    |det| <= B with B**2 = prod_i sum_j a_ij**2 over the nonzeros (Hadamard),
    and B may be the smaller prod_i a_ii where ``_dominant_diagonal`` finds
    the matrix positive semidefinite. So for a product M of primes below
    2**31 with M > 2B the residue mod M, lifted to the symmetric range, is
    det. Rows and columns are first permuted by one symmetric permutation
    into ascending order of nonzero count, which leaves the determinant unchanged (det PAP^T = det A); on a
    graph Laplacian minor this eliminates the lowest-degree vertices first,
    so the fill stays inside their cliques (the minimum-degree ordering of
    Markowitz 1957 and Rose 1972).

    This is structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO
    1990) in one pass. ``_eliminate`` pivots on the sparse rows modulo M
    until an update would pass ``FILL_LIMIT`` entries per row, or a column's
    nonzeros all share a prime with M; a column with no nonzero mod M before
    that gives det = 0, certified as |det| < M/2. The numpy loop
    ``_dense_determinant`` takes the rows left, with its own pivots for each
    prime, and det is the product of both parts, signed by the row order:
    the pivot rows, then the rest. The Laplacian minors of the blowups on
    the default ``verify`` grid never reach the numpy loop.
    """
    size = len(rows)
    bound_sq = 1
    for row in rows:
        if not all(0 <= j < size for j in row):
            raise ValueError(f"column index outside 0..{size - 1}")
        bound_sq *= sum(x * x for x in row.values())
    if not bound_sq:
        return 0  # a zero row
    diagonal = _dominant_diagonal(rows)
    if diagonal is not None:
        bound_sq = min(bound_sq, diagonal * diagonal)
    order = sorted(range(size), key=lambda i: len(rows[i]))
    plist: list[int] = []
    modulus = 1
    while modulus * modulus <= 4 * bound_sq:
        plist = _primes(len(plist) + 1)
        modulus *= plist[-1]
    position = {i: k for k, i in enumerate(order)}
    # a nonzero entry is nonzero mod M too: M > 2B >= 2|x|
    sparse = [{position[j]: x for j, x in rows[i].items() if x} for i in order]
    pivot_rows, value, stop = _eliminate(sparse, size, modulus, FILL_LIMIT * size)
    if len(pivot_rows) < stop:
        return 0
    rest = sorted(set(range(size)).difference(pivot_rows))
    if rest:
        block = [{c - stop: x for c, x in sparse[i].items()} for i in rest]
        value = value * _dense_determinant(block, plist) % modulus
    if _is_odd(pivot_rows + rest):
        value = -value % modulus
    return value - modulus if 2 * value > modulus else value


def _dominant_diagonal(rows: list[dict[int, int]]) -> int | None:
    """prod_i a_ii where the rows are symmetric with a weakly dominant diagonal.

    Dominance, 2 a_ii >= sum_j |a_ij|, makes the diagonal of nonzero rows
    positive. By Gershgorin every eigenvalue then lies in some
    [a_ii - r_i, a_ii + r_i] with r_i <= a_ii, so a symmetric such matrix
    is positive semidefinite and Hadamard's inequality for those gives
    det <= prod_i a_ii. A Laplacian minor is one. None for any other matrix.
    """
    product = 1
    for i, row in enumerate(rows):
        pivot = row.get(i, 0)
        if 2 * pivot < sum(map(abs, row.values())):
            return None
        for j, x in row.items():  # a loop, not any(): half the time on the verify grid
            if rows[j].get(i, 0) != x:
                return None
        product *= pivot
    return product


def modular_rank(rows: list[dict[int, int]], width: int) -> int:
    """Rank over GF(p), p the largest prime below 2**31, of sparse integer rows.

    Each row is ``{column: entry}`` with columns below ``width``; the rows
    are consumed. Every nonzero residue is a unit mod a prime, so the
    elimination never declines. The rank over GF(p) is at most the rank r
    over Q, and equal to it where some r x r minor is prime to p.
    """
    pivot_rows, _, _ = _eliminate(rows, width, _primes(1)[0])
    return len(pivot_rows)


def _eliminate(
    rows: list[dict[int, int]], width: int, modulus: int, budget: int | None = None
) -> tuple[list[int], int, int]:
    """Gaussian elimination modulo ``modulus`` on sparse rows ``{column: entry}``.

    Columns 0 .. width-1 are taken in turn. The pivot is the first live row
    (not yet a pivot) whose entry in the column is a unit; a column with no
    live nonzero is skipped. Each pivot updates only the c live rows nonzero
    in its column, at the pivot row's c' other nonzeros. With a ``budget``,
    the loop stops before a pivot at column k whose c * c' * (width - k), the
    work left were every update this large, exceeds it; so the updates made
    total at most budget * H_width, H the harmonic number. Returns the pivot row
    of each column that got one, in column order, the product of the pivots,
    and ``stop``: the first column not eliminated (no unit, the budget, or
    ``width``). The live rows then hold only columns ``stop`` on. For a
    square matrix with every column before ``stop`` pivoted, det = sign(pivot
    rows, then live rows) * product * det(live rows). The rows are consumed.
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
                return pivot_rows, product, col
        holders.discard(pivot)
        top = rows[pivot]
        if budget is not None and len(holders) * (len(top) - 1) * (width - col) > budget:
            return pivot_rows, product, col
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
    return pivot_rows, product, width


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


def _dense_determinant(rows: list[dict[int, int]], plist: list[int]) -> int:
    """det mod prod(plist) in [0, M) of sparse rows, all primes at once in numpy.

    Gaussian elimination runs modulo every prime together on one
    (primes, N, N) int64 array, its bytes checked first, and each distinct
    entry is reduced as a Python int modulo each prime. A pivot search runs
    per prime: an entry can vanish mod p without vanishing over Q. A column
    with no nonzero entry mod p makes that prime's residue 0, which is a
    true residue and still enters the Chinese remainder reconstruction. Each
    step updates only the rows nonzero in the pivot column and the columns
    nonzero in the pivot row for some prime: a zero multiplier for one prime
    is a no-op, so the restricted update is exact.
    """
    from .blowup import require_memory  # here: blowup imports graphs, which imports this module

    size = len(rows)
    need = DENSE_ARRAYS * 8 * len(plist) * size * size
    require_memory(need, f"a dense determinant of order {size} modulo {len(plist)} primes")
    primes = np.array(plist, dtype=np.int64)
    p_col = primes[:, None]
    p_cube = primes[:, None, None]
    code: dict[int, int] = {}  # each distinct entry, numbered
    cells = [
        (i, j, code.setdefault(x, len(code)))
        for i, row in enumerate(rows) for j, x in row.items()
    ]
    i, j, k = np.array(cells, dtype=np.intp).T
    a = np.zeros((len(plist), size, size), dtype=np.int64)
    a[:, i, j] = np.array([[x % p for x in code] for p in plist], dtype=np.int64)[:, k]
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
