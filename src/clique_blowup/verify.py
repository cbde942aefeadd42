"""Cross-route verification harness over a corpus grid.

Every claim the package makes is checked twice: theorem-mapped spectra
against direct eigendecompositions, closed-form index recurrences against
resistance-distance and matrix-tree oracles, plus the structural spectrum
properties (trace, range, bipartite symmetry, incidence rank dichotomy).
Cells whose blowups exceed the size caps are skipped, not failed.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import indexes
from .blowup import DEFAULT_MAX_VERTICES, BlowupParams, blowup_counts, blowup_iterate
from .errors import CliqueBlowupError
from .graphs import (
    Graph,
    bipartition,
    incidence_rank,
    parse_edge_list,
    serialize_edge_list,
)
from .spectral import (
    DEFAULT_MATCH_TOL,
    laplacian_spectrum,
    multiset_match,
    spectrum_iterated,
)

RANGE_SLACK = 1e-9
TRACE_RTOL = 1e-6
NONBIP_GAP = 1e-6
ORACLE_KF_RTOL = 1e-7
ORACLE_TAU_RTOL = 1e-6
IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    check: str
    subject: str
    passed: bool
    detail: str = ""
    skipped: bool = False


@dataclass
class VerifyReport:
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

    def matrix(self, corpus_names: list[str]) -> str:
        """Pass/fail table: one row per graph, one column per (n, r) cell."""
        cells = [f"n={n},r={r}" for n in self.n_list for r in self.r_list]
        headers = ["graph", "structural"] + cells
        rows = []
        for name in corpus_names:
            structural = [
                res
                for res in self.results
                if res.subject == name
                or (res.subject.startswith(f"{name} n=") and "r=" not in res.subject)
            ]
            row = [name, _cell_status(structural)]
            for cell in cells:
                hits = [res for res in self.results if res.subject == f"{name} {cell}"]
                row.append(_cell_status(hits))
            rows.append(row)
        widths = [
            max(len(row[i]) for row in [headers] + rows) for i in range(len(headers))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def _cell_status(results: list[CheckResult]) -> str:
    if not results:
        return "-"
    if any(not res.passed for res in results):
        return "FAIL"
    if all(res.skipped for res in results):
        return "skip"
    return "ok"


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def graph_checks(
    name: str,
    g: Graph,
    tol: float = DEFAULT_MATCH_TOL,
    exact_cap: int = indexes.DEFAULT_EXACT_CAP,
) -> list[CheckResult]:
    """Structural and oracle-closure checks on a single corpus graph."""
    out: list[CheckResult] = []

    def add(check: str, passed: bool, detail: str = ""):
        out.append(CheckResult(check, name, passed, detail))

    add("degree-sum", sum(g.degrees) == 2 * g.edge_count)
    add("serialize-roundtrip", parse_edge_list(serialize_edge_list(g)) == g)

    bip = bipartition(g).is_bipartite
    rank = incidence_rank(g)
    expected_rank = g.vertex_count - (1 if bip else 0)
    add("incidence-rank", rank == expected_rank, f"rank {rank} vs {expected_rank}")

    sigma = laplacian_spectrum(g)
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
    if bip:
        mirrored = sorted(2.0 - v for v in flat)
        add(
            "bipartite-symmetry",
            all(abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(flat, mirrored)),
        )
        add("lambda-max-two", abs(max(flat) - 2.0) <= tol, f"max {max(flat)}")
    else:
        add("lambda-max-below-two", max(flat) < 2.0 - NONBIP_GAP, f"max {max(flat)}")

    if g.vertex_count <= exact_cap:
        m = g.edge_count
        kf_s = indexes.kf_star_spectral(sigma, m)
        ke_s = indexes.kemeny_spectral(sigma)
        kf_d = indexes.kf_star_direct(g)
        tau_s = indexes.tau_spectral(g, sigma)
        tau_e = indexes.tau_exact(g, max_order=exact_cap)
        add("kf-oracle", _rel_close(kf_s, kf_d, ORACLE_KF_RTOL), f"{kf_s} vs {kf_d}")
        add(
            "tau-oracle",
            abs(tau_s - tau_e) <= ORACLE_TAU_RTOL * tau_e,
            f"{tau_s} vs {tau_e}",
        )
        add(
            "kf-kemeny-identity",
            abs(kf_s - 2 * m * ke_s) <= IDENTITY_RTOL * abs(kf_s),
            f"{kf_s} vs {2 * m * ke_s}",
        )
        res = indexes.resistance_matrix(g)
        detours = np.min(res[:, :, None] + res[None, :, :], axis=1)
        add("resistance-metric", bool(np.all(detours >= res - 1e-9)))
    return out


def monotonicity_checks(
    name: str,
    g: Graph,
    n_list,
    r_max: int,
    exact_cap: int = indexes.DEFAULT_EXACT_CAP,
) -> list[CheckResult]:
    """Kf*, Kemeny, tau strictly increase with the iteration depth."""
    out: list[CheckResult] = []
    if g.vertex_count > exact_cap or r_max < 1:
        return out
    kf0 = indexes.kf_star_exact(g, max_order=exact_cap)
    tau0 = indexes.tau_exact(g, max_order=exact_cap)
    n0, e0 = g.vertex_count, g.edge_count
    for n in n_list:
        levels = [
            indexes._closed_form_lift(kf0, tau0, n0, e0, BlowupParams(n, r))
            for r in range(r_max + 1)
        ]
        increasing = all(
            a < b for low, high in zip(levels, levels[1:]) for a, b in zip(low, high)
        )
        out.append(CheckResult("index-monotonicity", f"{name} n={n}", increasing))
    return out


def cell_checks(
    name: str,
    g: Graph,
    n: int,
    r: int,
    tol: float = DEFAULT_MATCH_TOL,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    exact_cap: int = indexes.DEFAULT_EXACT_CAP,
) -> list[CheckResult]:
    """All cross-route checks for one (graph, n, r) grid cell."""
    subject = f"{name} n={n},r={r}"
    out: list[CheckResult] = []

    def add(check: str, passed: bool, detail: str = "", skipped: bool = False):
        out.append(CheckResult(check, subject, passed, detail, skipped))

    params = BlowupParams(n, r)
    counts = blowup_counts(g.vertex_count, g.edge_count, params)
    if counts.vertices > max_vertices:
        add("cell", True, f"skipped: {counts.vertices} vertices over cap", skipped=True)
        return out

    blown = blowup_iterate(g, params, max_vertices=max_vertices)
    add(
        "blowup-counts",
        (blown.vertex_count, blown.edge_count) == (counts.vertices, counts.edges),
        f"{blown.vertex_count},{blown.edge_count} vs {counts.vertices},{counts.edges}",
    )
    add("blowup-nonbipartite", not bipartition(blown).is_bipartite)
    # one-step degree contract, checked between the last two levels
    prev = blowup_iterate(g, BlowupParams(n, r - 1), max_vertices=max_vertices)
    degree_ok = all(
        blown.degrees[i] == (n - 1) * prev.degrees[i] for i in range(prev.vertex_count)
    ) and all(d == n - 1 for d in blown.degrees[prev.vertex_count :])
    add("blowup-degrees", degree_ok)

    sigma_base = laplacian_spectrum(g)
    bip = bipartition(g).is_bipartite
    themed = spectrum_iterated(sigma_base, g.vertex_count, g.edge_count, params, bip)
    numeric = laplacian_spectrum(blown)
    report = multiset_match(themed, numeric, tol)
    add("spectrum-equivalence", report.matched, report.detail)

    if r == 1:
        low, high = 2.0 / (n - 1), float(n) / (n - 1)
        base_flat = sigma_base.flatten()
        scaling_ok = True
        for v, _ in numeric.entries:
            v = float(v)
            if (
                abs(v - low) <= numeric.cluster_tol
                or abs(v - high) <= numeric.cluster_tol
            ):
                continue
            if not any(
                abs((n - 1) * v - lam) <= tol * max(1.0, abs(lam)) for lam in base_flat
            ):
                scaling_ok = False
                break
        add("one-step-scaling", scaling_ok)

    if g.vertex_count <= exact_cap:
        kf0 = indexes.kf_star_exact(g, max_order=exact_cap)
        tau0 = indexes.tau_exact(g, max_order=exact_cap)
        kf_closed, ke_closed, tau_closed = indexes._closed_form_lift(
            kf0, tau0, g.vertex_count, g.edge_count, params
        )
        add(
            "closed-kf-kemeny-identity",
            kf_closed == 2 * counts.edges * ke_closed,
            f"{kf_closed} vs {2 * counts.edges * ke_closed}",
        )
        kf_direct = indexes.kf_star_direct(blown)
        add(
            "closed-vs-oracle-kf",
            _rel_close(float(kf_closed), kf_direct, ORACLE_KF_RTOL),
            f"{float(kf_closed)} vs {kf_direct}",
        )
        if blown.vertex_count <= exact_cap:
            tau_direct = indexes.tau_exact(blown, max_order=exact_cap)
            add(
                "closed-vs-oracle-tau",
                tau_closed == tau_direct,
                f"{tau_closed} vs {tau_direct}",
            )
            kf_blown = indexes.kf_star_spectral(numeric, blown.edge_count)
            ke_blown = indexes.kemeny_spectral(numeric)
            tau_blown = indexes.tau_spectral(blown, numeric)
            add(
                "blowup-kf-oracle",
                _rel_close(kf_blown, kf_direct, ORACLE_KF_RTOL),
                f"{kf_blown} vs {kf_direct}",
            )
            add(
                "blowup-tau-oracle",
                abs(tau_blown - tau_direct) <= ORACLE_TAU_RTOL * tau_direct,
                f"{tau_blown} vs {tau_direct}",
            )
            add(
                "blowup-kf-kemeny-identity",
                abs(kf_blown - 2 * blown.edge_count * ke_blown)
                <= IDENTITY_RTOL * abs(kf_blown),
            )
        else:
            add("closed-vs-oracle-tau", True, "skipped: over exact cap", skipped=True)
    return out


def _run_cell(task) -> list[CheckResult]:
    name, g, n, r, tol, max_vertices, exact_cap = task
    try:
        return cell_checks(name, g, n, r, tol, max_vertices, exact_cap)
    except CliqueBlowupError as exc:
        return [CheckResult("cell", f"{name} n={n},r={r}", False, f"error: {exc}")]


def run_verification(
    corpus: list[tuple[str, Graph]],
    n_list,
    r_list,
    tol: float = DEFAULT_MATCH_TOL,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    exact_cap: int = indexes.DEFAULT_EXACT_CAP,
    jobs: int = 1,
) -> VerifyReport:
    """Run the full suite over corpus x n_list x r_list."""
    report = VerifyReport(tuple(n_list), tuple(r_list))
    for name, g in corpus:
        try:
            report.results.extend(graph_checks(name, g, tol, exact_cap))
            report.results.extend(
                monotonicity_checks(name, g, n_list, max(r_list, default=0), exact_cap)
            )
        except CliqueBlowupError as exc:
            report.results.append(
                CheckResult("structural", name, False, f"error: {exc}")
            )
    tasks = [
        (name, g, n, r, tol, max_vertices, exact_cap)
        for name, g in corpus
        for n in n_list
        for r in r_list
    ]
    # every worker forks at once, so never ask for more than can run
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for results in pool.map(_run_cell, tasks):
                report.results.extend(results)
    else:
        for task in tasks:
            report.results.extend(_run_cell(task))
    return report
