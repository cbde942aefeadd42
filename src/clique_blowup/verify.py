"""Cross-route verification harness over a corpus grid.

Every claim the package makes is checked twice: theorem-mapped spectra
against direct eigendecompositions, closed-form index recurrences against
resistance-distance and matrix-tree oracles, plus the structural spectrum
properties (trace, range, bipartite symmetry, incidence rank dichotomy).
Each corpus graph's spectrum, bipartite flag, exact Kf* and exact tau are
computed once, by ``base_facts``, and shared by all of its checks, and so are
the closed-form levels lifted from them, one list per n.

The harness makes no size decision of its own. It passes ``max_vertices``
on, and ``exact_cap`` too (a cell reads it from its graph's facts). Each
routine enforces its own cap (the construction and the eigensolve on N, the
exact tau and Kf* on the order q of the true-twin quotient, the incidence
rank and the resistances on N), and ``_skip_or_fail`` records the
SizeCapExceededError of any of them as a skip.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import indexes
from ._blas import cores
from .blowup import DEFAULT_MAX_VERTICES, BlowupParams, blowup_iterate, count_sequence
from .errors import CliqueBlowupError, InvalidParameterError, SizeCapExceededError
from .graphs import (
    Graph,
    bipartition,
    incidence_rank,
    parse_edge_list,
    serialize_edge_list,
)
from .spectral import (
    DEFAULT_MATCH_TOL,
    SpectrumMultiset,
    _require_laplacian,
    laplacian_spectrum,
    multiset_match,
    spectrum_iterated,
)

RANGE_SLACK = 1e-9
TRACE_RTOL = 1e-6
ORACLE_KF_RTOL = 1e-7
ORACLE_TAU_RTOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    check: str
    subject: str
    passed: bool
    detail: str = ""
    skipped: bool = False


@dataclass
class VerifyReport:
    names: tuple[str, ...]
    n_list: tuple[int, ...]
    r_list: tuple[int, ...]
    results: list[CheckResult] = field(default_factory=list)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    @property
    def skipped(self) -> list[CheckResult]:
        return [r for r in self.results if r.skipped]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"RESULT: {verdict} ({len(self.results)} checks, "
            f"{len(self.failures)} failures, {len(self.skipped)} skipped)"
        )

    def matrix(self) -> str:
        """Pass/fail table: one row per graph, one column per (n, r) cell."""
        cells = [f"n={n},r={r}" for n in self.n_list for r in self.r_list]
        headers = ["graph", "structural"] + cells
        by_subject: dict[str, list[CheckResult]] = {}
        for res in self.results:
            by_subject.setdefault(res.subject, []).append(res)

        def status(*subjects: str) -> str:
            return _cell_status([res for s in subjects for res in by_subject.get(s, [])])

        rows = [
            [name, status(name, *(f"{name} n={n}" for n in self.n_list))]
            + [status(f"{name} {cell}") for cell in cells]
            for name in self.names
        ]
        widths = [
            max(len(row[i]) for row in [headers] + rows) for i in range(len(headers))
        ]
        return "\n".join(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in [headers] + rows
        )


def _cell_status(results: list[CheckResult]) -> str:
    if not results:
        return "-"
    if any(not res.passed for res in results):
        return "FAIL"
    skips = sum(res.skipped for res in results)
    return "ok" if not skips else "skip" if skips == len(results) else "part"


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


@contextmanager
def _skip_or_fail(out: list[CheckResult], check: str, subject: str):
    """Record the package error that stops the block: the one place where a
    routine's SizeCapExceededError becomes a skip; any other is a failure."""
    try:
        yield
    except SizeCapExceededError as exc:
        out.append(CheckResult(check, subject, True, f"skipped: {exc}", skipped=True))
    except CliqueBlowupError as exc:
        out.append(CheckResult(check, subject, False, f"error: {exc}"))


@dataclass(frozen=True)
class BaseFacts:
    """Facts of one corpus graph that its checks share, under one exact cap.

    ``kf_star`` and ``tau`` hold the error that stopped them, if any, which
    ``exact`` raises. ``levels`` keeps one list per n from ``closed_form``,
    lifted once to the deepest r asked for; it travels with the facts to
    worker processes.
    """

    spectrum: SpectrumMultiset
    bipartite: bool
    kf_star: Fraction | CliqueBlowupError
    tau: int | CliqueBlowupError
    exact_cap: int = indexes.DEFAULT_EXACT_CAP
    levels: dict[int, list[tuple[Fraction, Fraction, tuple[int, int]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def exact(self) -> tuple[Fraction, int]:
        if isinstance(self.tau, CliqueBlowupError):
            raise self.tau
        return self.kf_star, self.tau

    def closed_form(self, g: Graph, n: int, r: int) -> list:
        """Levels 0..r (or more) of ``indexes._closed_form_lift`` on g, lifted once per n."""
        if len(self.levels.get(n, ())) <= r:
            self.levels[n] = indexes._closed_form_lift(
                self.exact()[0], g.vertex_count, g.edge_count, n, r
            )
        return self.levels[n]


def base_facts(
    g: Graph,
    exact_cap: int = indexes.DEFAULT_EXACT_CAP,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> BaseFacts:
    """Numeric spectrum, bipartite flag, exact Kf* and exact tau of g."""
    spectrum = laplacian_spectrum(g, max_order=max_vertices)
    bipartite = bipartition(g).is_bipartite
    try:
        kf_star = indexes.kf_star_exact(g, max_order=exact_cap)
        tau = indexes.tau_exact(g, max_order=exact_cap)
    except CliqueBlowupError as exc:
        kf_star = tau = exc
    return BaseFacts(spectrum, bipartite, kf_star, tau, exact_cap)


def _oracle_checks(add, prefix: str, g: Graph, sigma, kf_direct: float, kemeny, tau) -> int:
    """Spectral Kf*, Kemeny and tau of g against oracles and exact values; returns tau.

    ``kemeny()`` and ``tau()`` are called in turn after the float Kf* check, so
    an exact value stopped by its cap skips only the checks from it on. tau is
    compared by its logarithm, which holds a count beyond the float range; a
    difference of logs is the relative error to first order."""
    ke_s = indexes.kemeny_spectral(sigma)
    kf_s = 2 * g.edge_count * ke_s  # kf_star_spectral, without a second sum
    kf_ok = _rel_close(kf_s, kf_direct, ORACLE_KF_RTOL)
    add(prefix + "kf-oracle", kf_ok, f"{kf_s} vs {kf_direct}")
    ke = float(kemeny())
    add(prefix + "kemeny-oracle", _rel_close(ke_s, ke, ORACLE_KF_RTOL), f"{ke_s} vs {ke}")
    exact_tau = tau()
    log_tau_s, log_tau = indexes._log_tau_spectral(g, sigma), math.log(exact_tau)
    tau_ok = abs(log_tau_s - log_tau) <= ORACLE_TAU_RTOL
    add(prefix + "tau-oracle", tau_ok, f"log {log_tau_s} vs {log_tau}")
    return exact_tau


def graph_checks(
    name: str, g: Graph, base: BaseFacts, tol: float = DEFAULT_MATCH_TOL
) -> list[CheckResult]:
    """Structural and oracle-closure checks on a single corpus graph."""
    out: list[CheckResult] = []

    def add(check: str, passed: bool, detail: str = ""):
        out.append(CheckResult(check, name, passed, detail))

    add("degree-sum", sum(g.degrees) == 2 * g.edge_count)
    add("serialize-roundtrip", parse_edge_list(serialize_edge_list(g)) == g)

    with _skip_or_fail(out, "incidence-rank", name):
        rank = incidence_rank(g, max_order=base.exact_cap)
        expected_rank = g.vertex_count - (1 if base.bipartite else 0)
        add("incidence-rank", rank == expected_rank, f"rank {rank} vs {expected_rank}")

    sigma = base.spectrum
    flat = sigma.flatten()
    trace = sum(float(v) * m for v, m in sigma.entries)
    add(
        "trace-identity",
        _rel_close(trace, g.vertex_count, TRACE_RTOL),
        f"trace {trace} vs {g.vertex_count}",
    )
    add(
        "eigenvalue-range",
        all(0.0 <= v <= 2.0 + RANGE_SLACK for v in flat),
        f"min {min(flat)} max {max(flat)}",
    )
    if base.bipartite:
        mirrored = sorted(2.0 - v for v in flat)
        symmetric = all(_rel_close(a, b, tol) for a, b in zip(flat, mirrored))
        add("bipartite-symmetry", symmetric)
        add("lambda-max-two", abs(max(flat) - 2.0) <= tol, f"max {max(flat)}")
    else:
        # the odd cycle from bipartition certifies lambda_max < 2; the
        # eigensolver's error is about N * eps * ||L||, and ||L|| <= 2
        slack = g.vertex_count * sys.float_info.epsilon * 2.0
        add("lambda-max-below-two", max(flat) < 2.0 - slack, f"max {max(flat)}")

    with _skip_or_fail(out, "oracle-closure", name):
        _oracle_checks(
            add, "", g, sigma, indexes.kf_star_direct(g),
            lambda: base.exact()[0] / (2 * g.edge_count), lambda: base.exact()[1],
        )
    with _skip_or_fail(out, "resistance-metric", name):
        # shortest detour through one middle vertex k at a time: O(N^2) memory
        res = indexes.resistance_matrix(g, max_order=base.exact_cap)
        detours = np.full_like(res, np.inf)
        for k in range(len(res)):
            np.minimum(detours, res[:, k, None] + res[None, k, :], out=detours)
        add("resistance-metric", bool(np.all(detours >= res - 1e-9)))
    return out


def monotonicity_checks(
    name: str, g: Graph, base: BaseFacts, n_list, r_max: int
) -> list[CheckResult]:
    """Kf*, Kemeny, tau strictly increase with the iteration depth."""
    out: list[CheckResult] = []
    if r_max < 1:
        return out
    for n in n_list:
        levels = base.closed_form(g, n, r_max)
        # both tau exponent increments are asserted >= 0, so the pairs order like the counts
        increasing = all(
            a < b for low, high in zip(levels, levels[1:]) for a, b in zip(low, high)
        )
        out.append(CheckResult("index-monotonicity", f"{name} n={n}", increasing))
    return out


def cell_checks(
    name: str,
    g: Graph,
    base: BaseFacts | None,
    n: int,
    r: int,
    tol: float = DEFAULT_MATCH_TOL,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> list[CheckResult]:
    """All cross-route checks for one (graph, n, r) grid cell, r >= 1. The exact
    tau, under the facts' cap, runs last; a float Kf* solve over physical memory
    still skips every check after it. Either way the matrix shows the cell as ``part``."""
    subject = f"{name} n={n},r={r}"
    out: list[CheckResult] = []

    def add(check: str, passed: bool, detail: str = ""):
        out.append(CheckResult(check, subject, passed, detail))

    with _skip_or_fail(out, "cell", subject):
        params = BlowupParams(n, r)
        blown = blowup_iterate(g, params, max_vertices=max_vertices)
        if base is None:  # after the vertex cap, which skips the cell first
            raise CliqueBlowupError("the graph's own facts failed")
        n0, e0 = g.vertex_count, g.edge_count
        counts = count_sequence(n0, e0, n, r)
        # each step multiplies every degree by n - 1 and gives its new vertices n - 1
        degrees = [d * (n - 1) ** r for d in g.degrees]
        for k in range(1, r + 1):
            degrees += [(n - 1) ** (r - k + 1)] * (counts[k][0] - counts[k - 1][0])
        built = (blown.vertex_count, blown.edge_count)
        add("blowup-degrees", list(blown.degrees) == degrees, f"N, E {built} vs {counts[r]}")
        add("blowup-nonbipartite", not bipartition(blown).is_bipartite)

        themed = spectrum_iterated(base.spectrum, n0, e0, params, base.bipartite)
        numeric = laplacian_spectrum(blown, max_order=max_vertices)
        report = multiset_match(themed, numeric, tol)
        add("spectrum-equivalence", report.matched, report.detail)

        if r == 1:
            # off the two new clusters, (n - 1) * v is an eigenvalue of the base
            low, high = 2.0 / (n - 1), float(n) / (n - 1)
            base_flat = base.spectrum.flatten()
            scaling_ok = all(
                abs(v - low) <= numeric.cluster_tol
                or abs(v - high) <= numeric.cluster_tol
                or any(_rel_close((n - 1) * v, lam, tol) for lam in base_flat)
                for v in (float(v) for v, _ in numeric.entries)
            )
            add("one-step-scaling", scaling_ok)

        kf_closed, ke_closed, tau_exps = base.closed_form(g, n, r)[r]
        kf_of_ke = 2 * blown.edge_count * ke_closed
        add("closed-kf-kemeny-identity", kf_closed == kf_of_ke, f"{kf_closed} vs {kf_of_ke}")
        kf_direct = indexes.kf_star_direct(blown)
        add(
            "closed-vs-oracle-kf",
            _rel_close(float(kf_closed), kf_direct, ORACLE_KF_RTOL),
            f"{float(kf_closed)} vs {kf_direct}",
        )
        tau_direct = _oracle_checks(
            add, "blowup-", blown, numeric, kf_direct, lambda: ke_closed,
            lambda: indexes.tau_exact(blown, max_order=base.exact_cap),
        )
        tau_closed = indexes._tau_count(base.tau, n, tau_exps)
        # logs in the detail: an int beyond 4300 digits has no decimal str
        logs = f"log {math.log(tau_closed)} vs {math.log(tau_direct)}"
        add("closed-vs-oracle-tau", tau_closed == tau_direct, logs)
    return out


def _run_cell(task) -> list[CheckResult]:
    return cell_checks(*task)


def run_verification(
    corpus: list[tuple[str, Graph]],
    n_list,
    r_list,
    tol: float = DEFAULT_MATCH_TOL,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    exact_cap: int = indexes.DEFAULT_EXACT_CAP,
    jobs: int = 1,
) -> VerifyReport:
    """Run the full suite over corpus x n_list x r_list (every n >= 3, r >= 1).

    A grid outside that range, an n, r or corpus name given twice, or a corpus
    graph that is disconnected or has an isolated vertex, raises
    InvalidParameterError before any check runs.
    """
    if min(n_list, default=3) < 3 or min(r_list, default=1) < 1:
        raise InvalidParameterError("verify needs every n >= 3 and every r >= 1")
    for label, values in (("n", n_list), ("r", r_list), ("corpus spec", [s for s, _ in corpus])):
        for i, value in enumerate(values):  # a repeat would run, and print, its checks twice
            if value in values[:i]:
                raise InvalidParameterError(f"verify takes each {label} once, got {value} twice")
    for name, g in corpus:  # no route can check a graph without a normalized Laplacian
        try:
            _require_laplacian(g)
        except CliqueBlowupError as exc:
            raise InvalidParameterError(f"corpus graph {name}: {exc}") from None
    results: list[CheckResult] = []
    r_max = max(r_list, default=0)
    tasks = []
    for name, g in corpus:
        base = None
        with _skip_or_fail(results, "structural", name):
            base = base_facts(g, exact_cap, max_vertices)
            results.extend(graph_checks(name, g, base, tol))
            results.extend(monotonicity_checks(name, g, base, n_list, r_max))
        tasks += [(name, g, base, n, r, tol, max_vertices) for n in n_list for r in r_list]
    # every worker forks at once, so never ask for more than can run
    workers = min(jobs, len(tasks), cores())
    if workers > 1:
        # imported here: most runs are serial and need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cell_results in pool.map(_run_cell, tasks):
                results.extend(cell_results)
    else:
        for task in tasks:
            results.extend(_run_cell(task))
    return VerifyReport(tuple(name for name, _ in corpus), tuple(n_list), tuple(r_list), results)
