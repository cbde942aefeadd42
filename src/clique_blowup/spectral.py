"""Normalized Laplacian spectra: numeric eigensolve and the blowup mapping.

Two independent routes produce the spectrum of a blown-up graph:

* eigendecompose the explicitly constructed graph (``laplacian_spectrum``),
  or
* map the base graph's spectrum through ``spectrum_by_theorem``: eigenvalue
  0 stays with multiplicity 1; every other eigenvalue except 2 is divided
  by n - 1; 2/(n-1) enters with multiplicity E - N (one more when the base
  graph is bipartite, absorbing its eigenvalue 2); n/(n-1) enters with
  multiplicity (n-3)E + N.

``laplacian_spectrum`` first deflates true twins, vertices with the same
closed neighbourhood N[v]. For x supported on a class of k twins of degree
d with sum(x) = 0, Ax = -x, so the class gives 1 + 1/d with multiplicity
k - 1; ``eig_sym`` solves only the symmetric quotient, one row per class
and one entry pair per class edge; its singleton case is
``normalized_laplacian``. Classes and class edges come from the graph as
built (``Graph._twins``, shared with the index oracles), never from the
blowup parameters or the theorem, so the two routes stay independent.

``multiset_match`` compares the two on flattened value lists so clustering
can never manufacture a false match.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _blas
from ._exact import DEFAULT_MATCH_TOL, require_memory, require_tolerance
from .blowup import DEFAULT_MAX_VERTICES, BlowupParams, count_sequence
from .errors import (
    DegreeZeroError,
    InconsistentSpectrumError,
    InternalAssertionError,
    InvalidParameterError,
    NotSymmetricError,
    NumericalFailureError,
    SizeCapExceededError,
)
from .graphs import Graph, require_connected

DEFAULT_CLUSTER_TOL = 1e-6
SYMMETRY_TOL = 1e-12
SYMMETRY_BLOCK = 2**18  # bytes of the one buffer the symmetry check reuses

Value = Fraction | float


def _normalize_value(v) -> Value:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    v = float(v)
    if not np.isfinite(v):
        raise InvalidParameterError(f"non-finite eigenvalue {v!r}")
    return v


@dataclass(frozen=True)
class SpectrumMultiset:
    """Clustered eigenvalue multiset: ascending (value, multiplicity) pairs.

    Values are floats or exact rationals; adjacent values must differ by
    more than cluster_tol. Exact values survive arithmetic unrounded, which
    is what makes the rational-mode index computations possible.
    """

    entries: tuple[tuple[Value, int], ...]
    cluster_tol: float = DEFAULT_CLUSTER_TOL

    def __post_init__(self):
        if not (math.isfinite(self.cluster_tol) and self.cluster_tol > 0):
            raise InvalidParameterError("cluster_tol must be positive and finite")
        normalized = []
        for value, mult in self.entries:
            if mult < 1:
                raise InvalidParameterError(f"multiplicity must be >= 1, got {mult}")
            normalized.append((_normalize_value(value), int(mult)))
        for (a, _), (b, _) in zip(normalized, normalized[1:]):
            if not float(b) - float(a) > self.cluster_tol:
                raise InvalidParameterError(
                    "entries must be strictly increasing with gaps above cluster_tol"
                )
        object.__setattr__(self, "entries", tuple(normalized))

    @property
    def order(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v, _ in self.entries)

    def flatten(self) -> list[float]:
        """Each eigenvalue repeated by multiplicity, ascending floats."""
        out: list[float] = []
        for value, mult in self.entries:
            out.extend([float(value)] * mult)
        return out

    @staticmethod
    def from_eigenvalues(
        values, cluster_tol: float = DEFAULT_CLUSTER_TOL
    ) -> "SpectrumMultiset":
        """Cluster a raw eigenvalue sequence into (value, multiplicity) pairs."""
        return SpectrumMultiset.from_entries(
            [(v, 1) for v in values], cluster_tol=cluster_tol
        )

    @staticmethod
    def from_entries(
        pairs, cluster_tol: float = DEFAULT_CLUSTER_TOL
    ) -> "SpectrumMultiset":
        """Merge (value, multiplicity) pairs whose values chain within cluster_tol.

        A merged group's representative is the multiplicity-weighted mean;
        representatives within 1e-9 below zero are snapped to 0 (eigensolver
        noise on the positive semidefinite matrices this package works with).
        """
        items = sorted(
            ((_normalize_value(v), int(m)) for v, m in pairs), key=lambda p: float(p[0])
        )
        entries: list[tuple[Value, int]] = []
        group: list[tuple[Value, int]] = []

        def close_group():
            total = sum(m for _, m in group)
            first = group[0][0]
            if all(v == first for v, _ in group):
                rep: Value = first
            else:
                rep = sum(v * m for v, m in group) / total
            if isinstance(rep, float) and -1e-9 <= rep < 0.0:
                rep = 0.0
            entries.append((rep, total))

        for value, mult in items:
            if group and float(value) - float(group[-1][0]) > cluster_tol:
                close_group()
                group = []
            group.append((value, mult))
        if group:
            close_group()
        return SpectrumMultiset(tuple(entries), cluster_tol=cluster_tol)

    def to_json(self) -> str:
        """Serialize as {"order": ..., "cluster_tol": ..., "entries": [[value, mult], ...]}.

        Values print with 17 significant digits so the document is
        byte-for-byte deterministic and round-trips doubles exactly.
        """
        entries = ",".join(f"[{float(v):.17g},{m}]" for v, m in self.entries)
        return (
            f'{{"order":{self.order},"cluster_tol":{self.cluster_tol:.17g},'
            f'"entries":[{entries}]}}'
        )


@dataclass(frozen=True)
class MatchReport:
    matched: bool
    count_a: int
    count_b: int
    first_mismatch_index: int | None = None
    value_a: float | None = None
    value_b: float | None = None

    @property
    def detail(self) -> str:
        if self.matched:
            return f"match ({self.count_a} eigenvalues)"
        if self.count_a != self.count_b:
            return f"length mismatch: {self.count_a} vs {self.count_b}"
        return (
            f"mismatch at index {self.first_mismatch_index}: "
            f"{self.value_a!r} vs {self.value_b!r}"
        )


def _require_laplacian(g: Graph) -> None:
    require_connected(g)
    if any(d == 0 for d in g.degrees):
        raise DegreeZeroError("normalized Laplacian needs every degree >= 1")


def _check_order(order: int, max_order: int) -> None:
    if order > max_order:
        raise SizeCapExceededError(f"matrix order {order} exceeds cap {max_order}")


def _quotient_laplacian(links, size: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Normalized Laplacian restricted to vectors constant on each vertex class.

    Classes are sets of true twins (equal closed neighbourhoods), so class T
    has one degree d_T and a size k_T; ``links`` holds each adjacent pair
    (T, U) once. In the orthonormal basis 1_T / sqrt(k_T) the matrix has
    B[T,T] = 1 - (k_T - 1)/d_T and B[T,U] = -sqrt(k_T k_U) / sqrt(d_T d_U) for
    adjacent classes. With singleton classes and the edges as links, sqrt(1)
    = 1 and 1 - 0/d = 1, so B is the normalized Laplacian itself, bit for bit.
    """
    weight = np.sqrt(size) * (1.0 / np.sqrt(degree))
    us, vs = np.array(links, dtype=np.intp).reshape(-1, 2).T
    m = np.diag(1.0 - (size - 1.0) / degree)
    m[us, vs] = m[vs, us] = -weight[us] * weight[vs]
    return m


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Dense symmetric matrix with M[i,i] = 1, M[i,j] = -1/sqrt(d_i d_j) for i~j."""
    _require_laplacian(g)
    return _quotient_laplacian(g.edges, np.ones(g.vertex_count), np.asarray(g.degrees, dtype=float))


def _asymmetry(matrix: np.ndarray) -> float:
    """max |a_ij - a_ji|, NaN where an entry is NaN or a mirrored pair is infinite.

    Row blocks go through one reused buffer of SYMMETRY_BLOCK bytes, so the
    check adds that much to the matrix, not a second matrix.
    """
    order = len(matrix)
    step = max(1, SYMMETRY_BLOCK // (8 * order)) if order else 1
    buffer = np.empty((min(step, order), order))
    block_max = []
    with np.errstate(invalid="ignore"):
        for i in range(0, order, step):
            block = buffer[: min(step, order - i)]
            np.subtract(matrix[i : i + step], matrix[:, i : i + step].T, out=block)
            block_max.append(np.abs(block, out=block).max())
    return float(np.max(block_max, initial=0.0))


def eig_sym(
    matrix: np.ndarray,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    max_order: int = DEFAULT_MAX_VERTICES,
    *,
    overwrite: bool = False,
) -> SpectrumMultiset:
    """Full spectrum of a dense symmetric matrix, clustered.

    LAPACK dsyevd (tridiagonalize, then divide and conquer) solves it: by
    default through numpy.linalg.eigvalsh, which calls it on the lower
    triangle of a copy and leaves ``matrix`` as it was. With
    ``overwrite=True`` dsyevd, bound by ``_blas.syevd``, destroys ``matrix``
    itself where that gives eigvalsh's bits: a writeable C-contiguous
    float64 array whose asymmetry is exactly 0.0, so that its upper triangle,
    which dsyevd reads as the lower triangle of a column-major array, equals
    its lower one. Any other array, and every array where the routine is
    missing, goes to eigvalsh.

    dsyevd is deterministic for a fixed input and thread count; the test
    fixtures rely on that. The command line fixes the count unless the user
    set it: one BLAS thread below order ``_blas.PARALLEL_ORDER``, every core
    the process may use from there on. A NaN entry, or an infinite one
    mirrored by itself, raises InvalidParameterError before the solve.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got {matrix.shape}")
    order = matrix.shape[0]
    _check_order(order, max_order)
    deviation = _asymmetry(matrix)
    if deviation > SYMMETRY_TOL:
        raise NotSymmetricError(f"asymmetry {deviation:.3e} exceeds {SYMMETRY_TOL:.0e}")
    if math.isnan(deviation):
        raise InvalidParameterError("matrix has a non-finite entry")
    syevd = _blas.syevd()
    in_place = (syevd is not None and overwrite and deviation == 0.0
                and matrix.flags.c_contiguous and matrix.flags.writeable)
    if not in_place:  # eigvalsh's copy beside the matrix it copies
        require_memory(16 * order * order, f"a matrix of order {order} and its copy")
    with _blas.threads_for(order):
        if not in_place:
            values = np.linalg.eigvalsh(matrix)
        else:
            values = np.empty(order)
            info = syevd(matrix, values)
            if info:
                raise NumericalFailureError(f"dsyevd returned info {info}")
    return SpectrumMultiset.from_eigenvalues(values, cluster_tol=cluster_tol)


def check_spectrum_input(g: Graph, max_order: int = DEFAULT_MAX_VERTICES) -> None:
    """Raise what laplacian_spectrum(g) raises before it allocates anything."""
    _require_laplacian(g)
    _check_order(g.vertex_count, max_order)


def laplacian_spectrum(
    g: Graph,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
    max_order: int = DEFAULT_MAX_VERTICES,
) -> SpectrumMultiset:
    """Numeric normalized Laplacian spectrum of a connected graph.

    A class of k true twins of degree d contributes 1 + 1/d with
    multiplicity k - 1 (on a vector x supported on the class with sum 0,
    Ax = -x), and eig_sym solves only the quotient over the classes: in
    place where dsyevd is bound, the one q x q array this holds, else beside
    eigvalsh's copy. Those bytes are checked before the quotient is built.
    """
    check_spectrum_input(g, max_order)
    _, sizes, degrees, links = g._twins
    size, degree = np.array(sizes, dtype=float), np.array(degrees, dtype=float)
    deflated: dict[float, int] = {}
    for k, d in zip(size[size > 1], degree[size > 1]):
        value = 1.0 + 1.0 / float(d)
        deflated[value] = deflated.get(value, 0) + int(k) - 1
    q = len(sizes)
    copy = "" if _blas.syevd() else " and its copy"  # eig_sym's copy path without dsyevd
    require_memory((16 if copy else 8) * q * q, f"a matrix of order {q}{copy}")
    # positional: record_orders and the benchmark's tracer read the matrix from args[0]
    quotient = eig_sym(
        _quotient_laplacian(links, size, degree), cluster_tol, max_order, overwrite=True
    )
    return SpectrumMultiset.from_entries([*quotient.entries, *deflated.items()], cluster_tol)


def _locate(entries, target: float, tol: float) -> list[int]:
    return [i for i, (v, _) in enumerate(entries) if abs(float(v) - target) <= tol]


def zero_index(sigma: SpectrumMultiset) -> int:
    """Index of the entry at eigenvalue 0, which a connected graph has exactly once."""
    zero_at = _locate(sigma.entries, 0.0, sigma.cluster_tol)
    if len(zero_at) != 1 or sigma.entries[zero_at[0]][1] != 1:
        raise InconsistentSpectrumError(
            "spectrum must contain eigenvalue 0 with multiplicity exactly 1"
        )
    return zero_at[0]


def spectrum_by_theorem(
    sigma_g: SpectrumMultiset,
    n0: int,
    e0: int,
    n: int,
    bipartite: bool,
) -> SpectrumMultiset:
    """Spectrum of the blowup from the base spectrum, no eigensolve.

    sigma_g must contain eigenvalue 0 with multiplicity 1, and eigenvalue 2
    with multiplicity 1 when bipartite is set. Arithmetic is exact when
    every input value is an exact rational, double precision otherwise.
    The output multiplicities must total N + (n-2)E.

    The mapped values are distinct by construction, so they are sorted, never
    clustered, and kept apart by cluster_tol = tol/(n-1), tol the input's
    (at level k of an iteration, the base's tol over (n-1)^(k-1)):

    * input gaps above tol become gaps above tol/(n-1) after scaling by
      1/(n-1);
    * the mapped 0 stays exact, and the smallest scaled value, more than
      tol above the input's 0, lies more than tol/(n-1) above it;
    * n/(n-1) lies at least (n-2)/(n-1) above every scaled value, which is at
      most 2/(n-1);
    * at level 1, 2/(n-1) lies (2-x)/(n-1) above a scaled x. Here x < 2: a
      bipartite base's 2 is excluded, and the next value lies more than tol
      below it;
    * from level 2 on, every older value is at most n/(n-1)^2, which is
      (n-2)/(n-1)^2 below 2/(n-1).

    Those two fixed gaps, below n/(n-1) and below 2/(n-1), exceed the level's
    cluster_tol whenever the base's tol is below 1. So the only input the constructor's gap check can reject is
    a non-bipartite base whose largest eigenvalue lies within tol of 2; it
    raises InconsistentSpectrumError. Each level divides the resolution with
    the values, so depth is bounded only by double underflow, which
    ``spectrum_iterated`` rejects.
    """
    if n < 3:
        raise InvalidParameterError(f"clique size n must be >= 3, got {n}")
    tol = sigma_g.cluster_tol
    entries = list(sigma_g.entries)

    excluded = {zero_index(sigma_g)}
    if bipartite:
        two_at = _locate(entries, 2.0, tol)
        if not two_at:
            raise InconsistentSpectrumError(
                "bipartite flag set but no eigenvalue near 2"
            )
        if len(two_at) > 1 or entries[two_at[0]][1] != 1:
            raise InconsistentSpectrumError(
                "several eigenvalues cluster at 2; cannot exclude exactly one"
            )
        excluded.add(two_at[0])

    mult_low = e0 - n0 + (1 if bipartite else 0)
    if mult_low < 0:
        raise InconsistentSpectrumError(
            f"multiplicity {mult_low} for 2/(n-1) is negative; "
            "inconsistent counts for a connected graph"
        )

    cast = Fraction if sigma_g.is_exact else float
    out: list[tuple[Value, int]] = [(cast(0), 1)]
    out.extend(
        (cast(v) / (n - 1), m) for i, (v, m) in enumerate(entries) if i not in excluded
    )
    low, high = cast(2) / (n - 1), cast(n) / (n - 1)
    if mult_low > 0:
        out.append((low, mult_low))
    out.append((high, (n - 3) * e0 + n0))

    try:
        result = SpectrumMultiset(tuple(sorted(out)), cluster_tol=tol / (n - 1))
    except InvalidParameterError as exc:
        raise InconsistentSpectrumError(
            f"mapped eigenvalues not separated by cluster_tol={tol / (n - 1):g}: {exc}"
        ) from exc
    expected = n0 + (n - 2) * e0
    if result.order != expected:
        raise InternalAssertionError(
            f"mapped spectrum has {result.order} eigenvalues, expected {expected}"
        )
    return result


def spectrum_iterated(
    sigma_g: SpectrumMultiset,
    n0: int,
    e0: int,
    params: BlowupParams,
    bipartite: bool,
) -> SpectrumMultiset:
    """Apply the spectrum mapping r >= 0 times, tracking counts level by level.

    At r = 0 no level runs: sigma_g comes back as it is, cluster_tol too.
    The bipartite flag matters only at the first level: every blowup puts a
    triangle through each edge, so deeper levels are never bipartite. A
    float level whose smallest nonzero value is below the smallest normal
    double has lost precision to underflow and raises SizeCapExceededError.
    """
    sigma = sigma_g
    levels = count_sequence(n0, e0, params.n, params.r)
    for level, (vertices, edges) in enumerate(levels[:-1], start=1):
        sigma = spectrum_by_theorem(
            sigma, vertices, edges, params.n, bipartite and level == 1
        )
        smallest = sigma.entries[1][0]  # entries[0] is the mapped 0
        if isinstance(smallest, float) and smallest < sys.float_info.min:
            raise SizeCapExceededError(
                f"mapped spectrum underflows at level {level}: eigenvalue "
                f"{smallest:.3g} is below the smallest normal double"
            )
    return sigma


def multiset_match(
    a: SpectrumMultiset, b: SpectrumMultiset, tol: float = DEFAULT_MATCH_TOL
) -> MatchReport:
    """Elementwise comparison of flattened spectra.

    Match iff equal lengths and |a_i - b_i| <= tol * max(1, |b_i|) for all i.
    A mismatch is reported, not raised; a NaN, infinite or negative tol raises.
    """
    require_tolerance(tol)
    flat_a, flat_b = a.flatten(), b.flatten()
    if len(flat_a) != len(flat_b):
        return MatchReport(False, len(flat_a), len(flat_b))
    for i, (x, y) in enumerate(zip(flat_a, flat_b)):
        if abs(x - y) > tol * max(1.0, abs(y)):
            return MatchReport(False, len(flat_a), len(flat_b), i, x, y)
    return MatchReport(True, len(flat_a), len(flat_b))
