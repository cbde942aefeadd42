"""Exact linear algebra on integers and fractions.

``modular_determinant`` computes integer determinants modulo M, a product
of word-sized primes whose count comes from the Hadamard bound, so the
result is certified, not probabilistic. It takes sparse rows
``{column: entry}``, as ``modular_rank`` does, and is structured Gaussian
elimination in one pass: Python pivots on those rows modulo M, lowest-degree
rows first, until a pivot's update would pass a fill budget. Only the rows
left then become a dense array, which a numpy loop eliminates modulo one
prime at a time, recovering their determinant by the Chinese remainder
theorem. ``modular_rank`` runs the same sparse loop modulo one prime.

One fraction-free Gauss-Jordan elimination on Python ints (Bareiss) gives
the exact rational inverse of the exact Kf* route, and the integer rank and
determinant that the tests compare against. All routines are exact; they
exist so that rank dichotomies, spanning-tree counts and Kf* never depend on
floating-point rounding. The two checks a capped routine makes before it
allocates live here too: ``require_within_cap`` on its order and
``require_memory`` on its predicted bytes. So do ``ROUTES``, ``DEFAULT_MATCH_TOL``
and ``require_tolerance``, which the command line's parser reads without numpy:
this module imports numpy only inside its dense loop.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .errors import InvalidParameterError, NumericalFailureError, SizeCapExceededError

DEFAULT_EXACT_CAP = 200  # the order a capped routine may work at, by default
DEFAULT_MATCH_TOL = 1e-7  # relative: of multiset_match, and spectra's and verify's --tol
ROUTES = ("spectral", "closed_form", "oracle")  # the routes to Kf*, Kemeny and tau

# Entries per matrix row that the pivots left may touch before the sparse
# determinant hands the rows left to the numpy loop (see _eliminate). On dense
# Laplacian minors of K_(k+1), the sparse loop against the numpy loop took
# 0.60-0.64 vs 0.61-0.66 ms at order 16 (225 entries per pivot) and 1.10-1.20
# vs 0.81-0.91 ms at order 20 (361), so the limit sits at the crossover: a
# dense matrix of order 17 or less stays sparse (medians of 200 interleaved
# calls in each of 3 processes, a 2-vCPU x86-64 host). Blowup minors stay
# far below it: at most 9 per row on the default verify grid, 79 on the
# blowup of K_45 at n=3, which then takes 0.44 s instead of 1.16 s.
FILL_LIMIT = 256

# Peak bytes of the numpy loop per entry of its N x N block, rounded up: tracemalloc
# peaks of 28-76 on G(q, 1/2) plus a path (N = 20, 60, 100, 200, 300), 38-48 on a
# G(c, 0.9) core plus a path of 9c (N = 59, 100, 200, 300) and 137-167 on random
# blocks of distinct 1000-bit entries (N = 20-300), whose numbering costs the most;
# ru_maxrss growths of at most 73, 41 and 173
DENSE_BYTES = 200

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


def physical_memory() -> int | None:
    """Bytes of physical memory of the host, from os.sysconf; None where unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_memory(nbytes: int, what: str) -> None:
    """Raise SizeCapExceededError where nbytes exceeds physical memory; call it before allocating."""
    limit = physical_memory()
    if limit is not None and nbytes > limit:
        raise SizeCapExceededError(
            f"{what} would need {nbytes} bytes, more than the {limit} of physical memory"
        )


def require_tolerance(tol: float) -> float:
    """Return tol if it is a finite number >= 0, else raise InvalidParameterError."""
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidParameterError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


def modular_determinant(rows: list[dict[int, int]]) -> int:
    """Exact determinant of the q x q integer matrix with sparse rows ``{column: entry}``.

    Columns lie in 0 .. q-1 (else ValueError); the rows are not consumed.
    |det| <= B with B**2 = prod_i sum_j a_ij**2 over the nonzeros (Hadamard).
    Where the rows are symmetric with a weakly dominant diagonal, 2 a_ii >=
    sum_j |a_ij|, the diagonal of nonzero rows is positive, and by Gershgorin
    every eigenvalue lies in some [a_ii - r_i, a_ii + r_i] with r_i <= a_ii:
    the matrix is positive semidefinite, and Hadamard's inequality for those
    gives the smaller B = prod_i a_ii. A Laplacian minor is one. So for a
    product M of primes below 2**31 with M > 2B the residue mod M, lifted to
    the symmetric range, is det. Rows and columns are permuted by one
    symmetric permutation into ascending order of nonzero count, which leaves
    the determinant unchanged (det PAP^T = det A); on a graph Laplacian minor
    this eliminates the lowest-degree vertices first, so the fill stays
    inside their cliques (the minimum-degree ordering of Markowitz 1957 and
    Rose 1972). One pass over the rows in that order checks the columns,
    takes both bounds and makes the permuted rows.

    This is structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO
    1990) in one pass. ``_eliminate`` pivots on the sparse rows modulo M
    until an update would pass ``FILL_LIMIT`` entries per row, or a column's
    nonzeros all share a prime with M; a column with no nonzero mod M before
    that gives det = 0, certified as |det| < M/2. The numpy loop
    ``_dense_determinant`` takes the rows left, one prime at a time with its
    own pivots, and det is the product of both parts, signed by the row order:
    the pivot rows, then the rest. The Laplacian minors of the blowups on
    the default ``verify`` grid never reach the numpy loop.
    """
    size = len(rows)
    order = sorted(range(size), key=lambda i: len(rows[i]))
    position = {i: k for k, i in enumerate(order)}
    bound_sq, diagonal, sparse = 1, 1, []
    for i in order:
        row = rows[i]
        if not all(0 <= j < size for j in row):
            raise ValueError(f"column index outside 0..{size - 1}")
        bound_sq *= sum(x * x for x in row.values())
        pivot = row.get(i, 0)
        if not diagonal or 2 * pivot < sum(map(abs, row.values())):
            diagonal = 0  # not dominant: no diagonal bound
        else:
            for j, x in row.items():  # a loop, not any(): half the time on the verify grid
                if rows[j].get(i, 0) != x:
                    pivot = 0  # not symmetric
                    break
            diagonal *= pivot
        # a nonzero entry is nonzero mod M too: M > 2B >= 2|x|
        sparse.append({position[j]: x for j, x in row.items() if x})
    if not bound_sq:
        return 0  # a zero row
    if diagonal:
        bound_sq = diagonal * diagonal  # a_ii**2 <= sum_j a_ij**2, so never larger
    plist: list[int] = []
    modulus = 1
    while modulus * modulus <= 4 * bound_sq:
        plist = _primes(len(plist) + 1)
        modulus *= plist[-1]
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
    """det mod prod(plist) in [0, M) of sparse rows, one prime at a time in numpy.

    For each prime, one (N, N) int64 array holds the entries mod p, each
    distinct entry reduced once as a Python int, and Gaussian elimination
    runs on it in place. A row is swapped in only where the diagonal entry
    is 0 mod p: an entry can vanish mod p without vanishing over Q. A column
    with no nonzero entry mod p makes that prime's residue 0, which is a true
    residue and still enters the Chinese remainder reconstruction. Memory is
    one array and the update's temporary, whatever the prime count; its
    predicted bytes are checked first.
    """
    import numpy as np
    size = len(rows)
    require_memory(DENSE_BYTES * size * size, f"a dense determinant of order {size}")
    nonzeros = sum(map(len, rows))
    at = np.fromiter((size * i + j for i, row in enumerate(rows) for j in row), np.intp, nonzeros)
    code: dict[int, int] = {}  # each distinct entry, numbered
    k = np.fromiter(
        (code.setdefault(x, len(code)) for row in rows for x in row.values()), np.intp, nonzeros
    )
    value, modulus = 0, 1
    for p in plist:
        a = np.zeros((size, size), dtype=np.int64)
        a.flat[at] = np.array([x % p for x in code], dtype=np.int64)[k]
        det = 1
        for c in range(size):
            if not a[c, c]:
                nonzero = np.flatnonzero(a[c:, c])
                if not nonzero.size:
                    det = 0
                    break
                r = c + nonzero[0]
                a[[c, r]] = a[[r, c]]
                det = -det
            pivot = int(a[c, c])
            det = det * pivot % p
            row = a[c, c + 1 :] * pow(pivot, -1, p) % p
            rest = a[c + 1 :, c + 1 :]
            rest -= a[c + 1 :, c, None] * row
            rest %= p
        value += modulus * ((det - value) * pow(modulus, -1, p) % p)
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
