"""Kirchhoff-type index, Kemeny constant, spanning-tree counts.

Three mutually checking routes:

* spectral: from a normalized Laplacian spectrum, Kf* = 2m * sum(1/lambda),
  Kemeny = sum(1/lambda), tau = (1/2m) * prod(d_i) * prod(lambda != 0);
* oracle: resistance distances (Kf* = sum d_i d_j r_ij, summed by one
  identity on the float shifted and the exact grounded Laplacian inverse)
  and the exact matrix-tree determinant for tau. Both run on the true-twin
  quotient: the q x q integer Laplacian L_w = P^T L P of the classes of
  vertices with equal closed neighbourhoods, read from the built graph's
  adjacency. A twin class of size k and degree d enters through known
  factors (eigenvalue d + 1 with multiplicity k - 1), so a blowup, whose
  n - 2 new vertices per edge are twins, eliminates at order q, not N. A
  twin-free graph has q = N and L_w = L. The exact cap bounds q;
  ``resistance_matrix`` returns all N^2 pairs, so the same cap bounds N;
* closed form: one-step blowup recurrences iterated in exact rational
  arithmetic, tau as its exponents of 2 and n, cross-asserted against the
  single-shot expressions at every depth up to r.

A disagreement between an iterated recurrence and its single-shot r-level
expression raises InternalAssertionError. ``compute`` runs one route on the
r-fold blowup of a graph and returns an IndexReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import DEFAULT_EXACT_CAP, fraction_inverse, modular_determinant, require_within_cap
from .blowup import DEFAULT_MAX_VERTICES, BlowupParams, blowup_iterate, count_sequence
from .errors import (
    InternalAssertionError,
    InvalidParameterError,
    NumericalFailureError,
)
from .graphs import Graph, require_connected
from .spectral import SpectrumMultiset, _require_laplacian, laplacian_spectrum, zero_index

ROUTES = ("spectral", "closed_form", "oracle")


@dataclass(frozen=True)
class IndexReport:
    """Index values with the provenance of the computation route.

    Exact fields are populated when the route supports exact arithmetic;
    the float fields are always present.
    """

    kf_star: float
    kemeny: float
    tau_float: float
    route: str
    tau_exact: int | None = None
    kf_star_exact: Fraction | None = None
    kemeny_exact: Fraction | None = None
    params: BlowupParams | None = None

    def __post_init__(self):
        if self.route not in ROUTES:
            raise InvalidParameterError(f"route must be one of {ROUTES}")

    def to_json(self) -> str:
        parts = [
            f'"kf_star":{self.kf_star:.17g}',
            f'"kemeny":{self.kemeny:.17g}',
            f'"tau_float":{self.tau_float:.17g}',
        ]
        if self.tau_exact is not None:
            parts.append(f'"tau_exact":"{self.tau_exact}"')
        parts.append(f'"route":"{self.route}"')
        if self.params is not None:
            parts.append(f'"n":{self.params.n}')
            parts.append(f'"r":{self.params.r}')
        if self.kf_star_exact is not None:
            parts.append(f'"kf_star_exact":"{self.kf_star_exact}"')
        if self.kemeny_exact is not None:
            parts.append(f'"kemeny_exact":"{self.kemeny_exact}"')
        return "{" + ",".join(parts) + "}"


def _nonzero_entries(sigma: SpectrumMultiset):
    """Entries of a connected graph's spectrum with the single 0 removed."""
    skip = zero_index(sigma)
    return [entry for i, entry in enumerate(sigma.entries) if i != skip]


def kemeny_spectral(sigma: SpectrumMultiset) -> Fraction | float:
    """sum over nonzero eigenvalues of multiplicity / eigenvalue.

    Exact when the spectrum carries exact values.
    """
    total = sum(m / v for v, m in _nonzero_entries(sigma))
    return total if sigma.is_exact else float(total)


def kf_star_spectral(sigma: SpectrumMultiset, m: int) -> Fraction | float:
    """2m * sum(multiplicity / eigenvalue) over nonzero eigenvalues."""
    if m <= 0:
        raise InvalidParameterError("edge count m must be positive")
    return 2 * m * kemeny_spectral(sigma)


def _log_tau_spectral(g: Graph, sigma: SpectrumMultiset) -> float:
    """log tau = -log 2m + sum log d_i + sum m log lambda over nonzero lambda."""
    require_connected(g)
    log_tau = -math.log(2 * g.edge_count)
    log_tau += sum(math.log(d) for d in g.degrees)
    for v, m in _nonzero_entries(sigma):
        log_tau += m * math.log(float(v))
    return log_tau


def tau_spectral(g: Graph, sigma: SpectrumMultiset) -> float:
    """Spanning-tree count from the spectrum, accumulated in the log domain.

    Documented accuracy: within 1e-6 relative of the exact count for graphs
    up to a few hundred vertices. A count beyond the float range raises
    OverflowError.
    """
    return math.exp(_log_tau_spectral(g, sigma))


def _class_laplacian(edges, class_of: np.ndarray, order: int) -> np.ndarray:
    """Integer P^T L P, P the indicator matrix of a partition into true-twin classes.

    Each edge puts -1 between the classes of its ends and +1 on their
    diagonal entries, so adjacent classes T, U get -k_T k_U and an edge
    inside a class adds nothing. Singleton classes give L itself.
    """
    us, vs = class_of[np.array(edges, dtype=np.intp).reshape(-1, 2)].T
    lap = np.zeros((order, order), dtype=np.int64)
    rows, cols = np.concatenate([us, vs, us, vs]), np.concatenate([vs, us, us, vs])
    np.add.at(lap, (rows, cols), np.repeat([-1, -1, 1, 1], len(us)))
    return lap


def _combinatorial_laplacian(g: Graph) -> np.ndarray:
    n = g.vertex_count
    return _class_laplacian(g.edges, np.arange(n), n)


def _twin_laplacian(g: Graph, max_order: int | None = None) -> np.ndarray:
    """Integer Laplacian L_w of the true-twin quotient, order q capped at max_order.

    L_w is the Laplacian of the classes with weight k_T k_U between adjacent
    classes T and U. A twin-free graph has q = N and L_w = L.
    """
    require_connected(g)
    class_of, size, _ = g._twins
    if max_order is not None:
        require_within_cap(len(size), max_order)
    return _class_laplacian(g.edges, np.array(class_of, dtype=np.intp), len(size))


def _shifted_inverse(lap) -> np.ndarray:
    """(L + J/q)^{-1} of the order-q Laplacian L of a connected (weighted) graph.

    The shifted matrix is then positive definite, so it has a Cholesky
    factor C (the factorization fails otherwise) and
    (L + J/q)^{-1} = C^{-T} C^{-1}.
    """
    shifted = np.asarray(lap, dtype=float)
    shifted += 1.0 / len(shifted)
    try:
        factor = np.linalg.cholesky(shifted)
        del shifted
        inv_factor = np.linalg.inv(factor)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"shifted Laplacian solve failed: {exc}") from exc
    del factor
    return inv_factor.T @ inv_factor


def _kf_star_identity(inverse: np.ndarray, weights) -> Fraction | np.floating:
    """sum_{i<j} w_i w_j r_ij = W * sum_i w_i S_ii - w^T S w, W = sum_i w_i.

    Expands the sum with r_ij = S_ii + S_jj - 2 S_ij (Klein & Randic 1993),
    which holds for any symmetric S that gives the resistances: (L + J/q)^{-1}
    and the zero-padded grounded inverse differ from the pseudoinverse L^+ by
    terms u 1^T + 1 u^T, which cancel. Works on a float array and on an
    object array of Fractions alike: the weights take the array's dtype.
    """
    w = np.array(weights, dtype=inverse.dtype)
    return w.sum() * (inverse.diagonal() @ w) - w @ (inverse @ w)


def _kf_star_twins(inverse: np.ndarray, g: Graph) -> Fraction | np.floating:
    """Kf* of g from S, any symmetric matrix that gives the resistances of L_w.

    Let class T have size k_T and degree d_T. Vectors that sum to 0 on one
    class are eigenvectors of L with eigenvalue d_T + 1, so inside T
    r_ij = 2/(d_T + 1), and for i in T, j in U != T
    r_ij = R_w(T, U) + a_T + a_U with a_T = (k_T - 1)/(k_T (d_T + 1)). Summed
    with weights d_i d_j, the pairs between classes give the identity on
    w = k * d (sum 2m) plus the a_T terms, and those and the pairs inside
    classes add up to 2m * sum_T d_T (k_T - 1)/(d_T + 1), which is 0 without
    twins.
    """
    _, size, degree = g._twins
    inside = sum((Fraction(d * (k - 1), d + 1) for k, d in zip(size, degree)), Fraction(0))
    weights = [k * d for k, d in zip(size, degree)]
    # the twin term takes the array's dtype too: a Fraction, or a rounded float
    return _kf_star_identity(inverse, weights) + inverse.dtype.type(2 * g.edge_count * inside)


def resistance_matrix(g: Graph, max_order: int = DEFAULT_EXACT_CAP) -> np.ndarray:
    """Effective resistances between all vertex pairs.

    Uses the pseudoinverse of the combinatorial Laplacian through the
    rank-one shift (L + J/N)^{-1} - J/N, at order N: every pair is returned,
    so N is capped at max_order.
    """
    require_connected(g)
    require_within_cap(g.vertex_count, max_order)
    pinv = _shifted_inverse(_combinatorial_laplacian(g))
    pinv -= 1.0 / g.vertex_count
    pinv += pinv.T  # numpy reads the overlapping operand as if copied first
    pinv /= 2.0
    diag = pinv.diagonal().copy()
    # (d_i + d_j) - 2 p_ij, written into pinv: x - y is x + (-y) exactly
    pinv *= -2.0
    pinv += diag[:, None] + diag[None, :]
    np.fill_diagonal(pinv, 0.0)
    return pinv


def kf_star_direct(g: Graph) -> float:
    """Float Kf* = sum of d_i d_j r_ij over unordered pairs, on the twin quotient.

    S = (L_w + J/q)^{-1} by Cholesky gives the resistances of L_w.
    """
    return float(_kf_star_twins(_shifted_inverse(_twin_laplacian(g)), g))


def kemeny_direct(g: Graph) -> float:
    """Kemeny constant through the resistance oracle and Kf* = 2m * Kemeny."""
    return kf_star_direct(g) / (2 * g.edge_count)


def kf_star_exact(g: Graph, max_order: int = DEFAULT_EXACT_CAP) -> Fraction:
    """Exact rational Kf* on the twin quotient, whose order q is capped at max_order.

    S is the inverse of the integer minor L_w[1:, 1:] (as in ``tau_exact``),
    padded with zeros for class 0; it gives the resistances of L_w.
    """
    lap = _twin_laplacian(g, max_order)
    inverse = np.full(lap.shape, Fraction(0), dtype=object)
    inverse[1:, 1:] = fraction_inverse(lap[1:, 1:].tolist())
    return _kf_star_twins(inverse, g)


def kemeny_exact(g: Graph, max_order: int = DEFAULT_EXACT_CAP) -> Fraction:
    return kf_star_exact(g, max_order=max_order) / (2 * g.edge_count)


def tau_exact(g: Graph, max_order: int = DEFAULT_EXACT_CAP) -> int:
    """Exact spanning-tree count on the twin quotient, whose order q is capped.

    tau = det(L_w[1:, 1:]) * prod_T (d_T + 1)^(k_T - 1) / prod_T k_T: the
    minor is a cofactor of the weighted quotient (weighted matrix-tree
    theorem), and each class adds d_T + 1 with multiplicity k_T - 1 to the
    Laplacian spectrum. The determinant is taken modulo enough primes to
    pass the Hadamard bound, so the count is exact at any size the cap
    allows.
    """
    minor = _twin_laplacian(g, max_order)[1:, 1:].tolist()
    _, size, degree = g._twins
    twin_factor = math.prod((d + 1) ** (k - 1) for k, d in zip(size, degree))
    count, remainder = divmod(modular_determinant(minor) * twin_factor, math.prod(size))
    if remainder:
        raise InternalAssertionError(
            f"quotient tree count is not divisible by the class sizes ({remainder} left)"
        )
    return count


def _kf_one_step(kf: Fraction, vertices: int, edges: int, n: int) -> Fraction:
    c = Fraction((n - 1) ** 2 * (n - 2), 2)
    return Fraction(n * (n - 1) ** 2, 2) * kf + 3 * c * edges**2 - c * edges * vertices


def _kemeny_one_step(ke: Fraction, vertices: int, edges: int, n: int) -> Fraction:
    c = Fraction((n - 1) * (n - 2), 2 * n)
    return (n - 1) * ke + 3 * c * edges - c * vertices


def _kf_r_level(kf0: Fraction, n0: int, e0: int, n: int, r: int) -> Fraction:
    """Single-shot expression for Kf* after r steps."""
    t1 = Fraction(n**r * (n - 1) ** (2 * r), 2**r) * kf0
    t2 = (
        -Fraction(n ** (r - 1) * (n - 1) ** (2 * r + 1), 2**r)
        * (1 - Fraction(1, (n - 1) ** r))
        * e0
        * n0
    )
    inner = 3 * (Fraction(n**r, 2**r) - 1) - Fraction(1, n + 1) * (
        Fraction(n**r, 2 ** (r - 1)) + Fraction(1, (n - 1) ** (r - 1)) - n - 1
    )
    t3 = Fraction((n - 1) ** (2 * r) * n ** (r - 1), 2 ** (r - 1)) * inner * e0 * e0
    return t1 + t2 + t3


def _kemeny_r_level(ke0: Fraction, n0: int, e0: int, n: int, r: int) -> Fraction:
    """Single-shot expression for the Kemeny constant after r steps."""
    a = Fraction(n - 1) ** r * ke0
    b = Fraction((n - 1) ** (r + 1), 2 * n) * (Fraction(1, (n - 1) ** r) - 1) * n0
    c1 = Fraction(3 * (n - 1) ** r, n) * (Fraction(n**r, 2**r) - 1)
    c2 = Fraction((n - 1) ** r, n + 1) * (1 - Fraction(n ** (r - 1), 2 ** (r - 1)))
    c3 = Fraction((n - 1) ** r, n * (n + 1)) * (
        1 - Fraction(1, (n - 1) ** (r - 1))
    )
    return a + b + (c1 + c2 + c3) * e0


def _tau_one_step(exps: tuple[int, int], vertices: int, edges: int, n: int) -> tuple[int, int]:
    """Add one step's exponents of tau' = 2^(E-N+1) * n^((n-3)E+N-1) * tau."""
    exp2 = edges - vertices + 1
    expn = (n - 3) * edges + vertices - 1
    if exp2 < 0 or expn < 0:
        raise InternalAssertionError(
            f"negative exponent in one-step form (N={vertices}, E={edges})"
        )
    return exps[0] + exp2, exps[1] + expn


def _tau_r_level(exps0: tuple[int, int], n0: int, e0: int, n: int, r: int) -> tuple[int, int]:
    """exps0 plus the single-shot exponents (a, b) of 2^a * n^b after r steps, both integers."""
    alpha = Fraction(Fraction(n * (n - 1), 2) ** r - 1, n * n - n - 2)
    drift = Fraction(2 * e0, n + 1) * (2 * alpha - r)
    exp2_total = 2 * e0 * alpha - r * n0 - drift + r
    expn_total = 2 * (n - 3) * e0 * alpha + r * n0 + drift - r
    if exp2_total.denominator != 1 or expn_total.denominator != 1:
        raise InternalAssertionError(
            f"single-shot exponents are not integers: {exp2_total}, {expn_total}"
        )
    return exps0[0] + int(exp2_total), exps0[1] + int(expn_total)


def _tau_count(tau0: int, n: int, exps: tuple[int, int]) -> int:
    """The tree count 2^a * n^b * tau0 of a level whose exponents are (a, b)."""
    return 2 ** exps[0] * n ** exps[1] * tau0


def _lift(label, one_step, r_level, x0, n0, e0, n: int, r: int) -> list:
    """Values at levels 0..r of one_step iterated, each level k >= 1 checked against r_level at k.

    x0 has the type the steps work in: a Fraction for Kf* and Kemeny, the
    exponent pair (a, b) of 2^a * n^b for tau.
    """
    values = [x0]
    for level, (vertices, edges) in enumerate(count_sequence(n0, e0, n, r)[:-1], start=1):
        values.append(one_step(values[-1], vertices, edges, n))
        single_shot = r_level(x0, n0, e0, n, level)
        if single_shot != values[-1]:
            raise InternalAssertionError(
                f"single-shot {label} {single_shot} disagrees with iterated {values[-1]}"
            )
    return values


def kf_star_blowup_closed(
    kf: Fraction | int, n0: int, e0: int, params: BlowupParams
) -> Fraction:
    """Exact Kf* of the r-fold blowup from the base value.

    Iterates Kf' = n(n-1)^2/2 Kf + 3(n-1)^2(n-2)/2 E^2 - (n-1)^2(n-2)/2 E N
    and checks the single-shot r-level expression agrees at every level.
    """
    if kf < 0:
        raise InvalidParameterError("Kf* must be non-negative")
    return _lift("Kf*", _kf_one_step, _kf_r_level, Fraction(kf), n0, e0, params.n, params.r)[-1]


def kemeny_blowup_closed(
    ke: Fraction | int, n0: int, e0: int, params: BlowupParams
) -> Fraction:
    """Exact Kemeny constant of the r-fold blowup from the base value.

    Iterates Ke' = (n-1)Ke + 3(n-1)(n-2)E/(2n) - (n-1)(n-2)N/(2n) and
    checks the single-shot r-level expression agrees at every level.
    """
    if ke < 0:
        raise InvalidParameterError("Kemeny constant must be non-negative")
    return _lift(
        "Kemeny", _kemeny_one_step, _kemeny_r_level, Fraction(ke), n0, e0, params.n, params.r
    )[-1]


def tau_blowup_closed(tau: int, n0: int, e0: int, params: BlowupParams) -> int:
    """Exact spanning-tree count of the r-fold blowup from the base count.

    Sums the one-step exponents of tau' = 2^(E-N+1) * n^((n-3)E+N-1) * tau
    and checks, at every level, the single-shot exponents a, b of 2^a * n^b
    from the geometric-series constant alpha = ((n(n-1)/2)^r - 1)/(n^2-n-2):
    both must be integers and agree exactly. The count is formed once.
    """
    if tau < 1:
        raise InvalidParameterError("spanning-tree count must be >= 1")
    exps = _lift("tree count", _tau_one_step, _tau_r_level, (0, 0), n0, e0, params.n, params.r)
    return _tau_count(tau, params.n, exps[-1])


def _closed_form_lift(
    kf0: Fraction | int, n0: int, e0: int, n: int, r: int
) -> list[tuple[Fraction, Fraction, tuple[int, int]]]:
    """Exact (Kf*, Kemeny, tau exponents) of the n-blowups at levels 0..r, each chain lifted once.

    The base Kemeny constant is Kf*/(2E). Level k holds the exponents (a, b)
    of tau_k = 2^a * n^b * tau_0; ``_tau_count`` forms the count.
    """
    kf0 = Fraction(kf0)
    return list(zip(
        _lift("Kf*", _kf_one_step, _kf_r_level, kf0, n0, e0, n, r),
        _lift("Kemeny", _kemeny_one_step, _kemeny_r_level, kf0 / (2 * e0), n0, e0, n, r),
        _lift("tree count", _tau_one_step, _tau_r_level, (0, 0), n0, e0, n, r),
    ))


def compute(
    g: Graph,
    params: BlowupParams,
    route: str,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> IndexReport:
    """Kf*, Kemeny and tau of the r-fold blowup of g by one route.

    closed_form lifts exact base values of g and never constructs the
    blowup; spectral and oracle construct it under max_vertices. Exact
    routines are capped at exact_cap rows of the twin quotient they
    eliminate.
    """
    if route not in ROUTES:
        raise InvalidParameterError(f"route must be one of {ROUTES}")
    # every route divides by the edge count; fail as the spectral route does
    _require_laplacian(g)
    if route == "closed_form":
        kf0 = kf_star_exact(g, max_order=exact_cap)
        tau0 = tau_exact(g, max_order=exact_cap)
        kf, ke, exps = _closed_form_lift(kf0, g.vertex_count, g.edge_count, params.n, params.r)[-1]
        tau = _tau_count(tau0, params.n, exps)
        return IndexReport(
            float(kf), float(ke), float(tau), route,
            tau_exact=tau, kf_star_exact=kf, kemeny_exact=ke, params=params,
        )
    blown = blowup_iterate(g, params, max_vertices=max_vertices)
    if route == "spectral":
        sigma = laplacian_spectrum(blown, max_order=max_vertices)
        kf = kf_star_spectral(sigma, blown.edge_count)
        ke = kemeny_spectral(sigma)
        tau = tau_spectral(blown, sigma)
        return IndexReport(float(kf), float(ke), tau, route, params=params)
    kf = kf_star_direct(blown)
    tau = tau_exact(blown, max_order=exact_cap)
    return IndexReport(
        kf, kf / (2 * blown.edge_count), float(tau), route, tau_exact=tau, params=params
    )
