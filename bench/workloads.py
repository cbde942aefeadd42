"""The benchmark workloads and the reference values their outputs must match.

A CLI workload runs ``python -m clique_blowup.cli ...`` as a child process, so
each operation pays interpreter start-up as a user does. A library workload
calls public functions of the package from a worker process that built its
inputs once during set-up.

The seed changes only what leaves the work unchanged: the order of the verify
corpus, a relabelling of the Petersen graph fed on stdin, and the order of the
calls and cells in the library operations. Relabelling the exact-oracle inputs
was tried and rejected: Bareiss elimination on a relabelled 196-vertex
Laplacian ran from 0.98 s to 1.72 s depending on the labels alone.

``BENCHMARK.json`` lists verify_grid and spectra_large. exact_oracles and
closed_form_deep run the same way by name; they are left out of it because
their run-to-run spread on a 2-vCPU VM with 20-second runs reached 15-28%,
and the driver's time budget does not allow longer runs of four workloads.

Every reference below was pinned only after two independent routes agreed on
it; the comment beside it names the routes. This module imports nothing from the
package at load time, so the benchmark's parent process stays free of numpy
and BLAS threads.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# The default verify corpus; verify_grid passes it as --corpus in a seeded order.
VERIFY_CORPUS = (
    "complete:2",
    "path:3",
    "path:4",
    "cycle:4",
    "cycle:5",
    "complete:3",
    "complete:4",
    "star:5",
    "petersen",
)

# Moduli for checking the multi-megabit closed-form tau without printing it.
TAU_MODULI = (1_000_000_007, 998_244_353)

CLOSED_FORM_CELLS = ((3, 10), (4, 6), (6, 4), (6, 5), (8, 4))

# Each comment names the two routes that agreed on the value when it was pinned.
REFERENCES: dict[str, dict[str, Any]] = {
    # verify's own cross-route checks: theorem spectra against eigensolves,
    # closed forms against the resistance and matrix-tree oracles.
    "verify_grid": {"failures": 0},
    "spectra_large": {
        # blowup_counts (closed form) and the graph blowup_iterate builds.
        "order": 2620,
        # spectrum_iterated and eig_sym on the built graph: n/(n-1) = 8/7
        # with multiplicity (n-3)E_1 + N_1 = 2200.
        "high_value": Fraction(8, 7),
        "high_mult": 2200,
    },
    "exact_oracles": {
        # kf_star_exact on the 60-vertex blowup, and kf_star_blowup_closed
        # from kf_star_exact(cycle:4).
        "kf_star_cycle4": Fraction(24624),
        # tau_exact (Bareiss on the 196-vertex blowup), and tau_blowup_closed
        # from tau(path:4) = 1.
        "tau_path4": int(
            "12342479997640576672249945353646791023741505305571225096992780743964"
            "10578033313730859264418417637681665262303980683140711626246784548864"
        ),
        # incidence_rank (integer_rank), and the rank dichotomy: a connected
        # non-bipartite graph has rank N.
        "rank_path4": 196,
        # kf_star_direct (float resistances), and kf_star_blowup_closed from
        # kf_star_exact(path:4), which is exactly 430875.
        "kf_star_float_path4": 430875.0,
    },
    "closed_form_deep": {
        # (n, r): (bit length of tau, tau mod TAU_MODULI[0], tau mod TAU_MODULI[1]).
        # tau_blowup_closed (iterated product, asserted against its single-shot
        # form), and 2^a n^b tau_0 mod p with the one-step exponents summed
        # separately.
        "tau": {
            (3, 10): (572408, 974007368, 215626789),
            (4, 6): (475910, 238166699, 789558586),
            (6, 4): (499469, 241737522, 649631489),
            (6, 5): (7491599, 345242298, 56284580),
            (8, 4): (5615423, 76345532, 18935715),
        },
    },
}

# Petersen base values: Kf* = 297 from kf_star_exact and from kf_star_spectral
# on this exact spectrum; tau = 2000 from tau_exact and the known count.
PETERSEN_BASE = {"kf_star": Fraction(297), "kemeny": Fraction(99, 10), "tau": 2000}
PETERSEN_SPECTRUM = ((Fraction(0), 1), (Fraction(2, 3), 5), (Fraction(5, 3), 4))
PETERSEN_COUNTS = (10, 15)


def keep_going(elapsed: float, seconds: float, walls: list[float]) -> bool:
    """True while another operation should start in a run of ``seconds``.

    A run starts another operation only while half of the median operation
    still fits, so a run lasts about ``seconds`` instead of overrunning by up
    to one operation. It always times at least one.
    """
    if not walls:
        return True
    walls = sorted(walls)
    return elapsed + walls[len(walls) // 2] / 2 < seconds


def safe_check(check, *args) -> tuple[bool, str]:
    """Run an output check; output it cannot parse fails the operation."""
    try:
        return check(*args)
    except Exception as exc:  # the program's output is arbitrary; never crash the run
        return False, f"check raised {type(exc).__name__}: {exc}"[:300]


def perturbed(refs: dict[str, Any]) -> dict[str, Any]:
    """Copy of one workload's references with every pinned value moved.

    Used by the self-check: with these, every operation must count as failed.
    """
    out: dict[str, Any] = {}
    for key, value in refs.items():
        if isinstance(value, dict):
            out[key] = {k: tuple(x + 1 for x in v) for k, v in value.items()}
        elif isinstance(value, float):
            out[key] = value * (1 + 1e-3)
        else:
            out[key] = value + 1
    return out


@dataclass(frozen=True)
class CliWorkload:
    name: str
    timeout_s: float
    args: Callable[[int], list[str]]
    stdin: Callable[[int], str]
    check: Callable[[int, str, dict], tuple[bool, str]]
    kind: str = "cli"


@dataclass(frozen=True)
class LibraryWorkload:
    name: str
    timeout_s: float
    setup: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, dict], tuple[bool, str]]
    kind: str = "library"


# --- verify_grid -------------------------------------------------------------

_SUMMARY = re.compile(r"RESULT: (PASS|FAIL) \((\d+) checks, (\d+) failures, (\d+) skipped\)")


def _verify_args(seed: int) -> list[str]:
    corpus = list(VERIFY_CORPUS)
    random.Random(seed).shuffle(corpus)
    return ["verify", "--corpus", ",".join(corpus), "--n-list", "3,4,5",
            "--r-list", "1,2", "--jobs", "1"]


def _verify_check(code: int, stdout: str, refs: dict) -> tuple[bool, str]:
    found = _SUMMARY.search(stdout)
    if code != 0 or found is None:
        return False, f"exit {code}, summary {found.group(0) if found else None}"
    verdict, checks, failures = found.group(1), int(found.group(2)), int(found.group(3))
    ok = verdict == "PASS" and failures == refs["failures"]
    return ok, f"{verdict} {checks} checks {failures} failures"


# --- spectra_large -----------------------------------------------------------

def _petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def _spectra_stdin(seed: int) -> str:
    """Petersen graph with seeded vertex labels, as an edge list."""
    perm = list(range(10))
    random.Random(seed).shuffle(perm)
    return "".join(f"{perm[u]} {perm[v]}\n" for u, v in _petersen_edges())


def _spectra_check(code: int, stdout: str, refs: dict) -> tuple[bool, str]:
    if code != 0:
        return False, f"exit {code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return False, f"bad JSON: {exc}"
    high = float(refs["high_value"])
    for route in ("theorem", "numeric"):
        spectrum = doc[route]
        if spectrum["order"] != refs["order"]:
            return False, f"{route} order {spectrum['order']}"
        mults = [m for v, m in spectrum["entries"] if abs(v - high) <= 1e-9]
        if mults != [refs["high_mult"]]:
            return False, f"{route} multiplicity at {high}: {mults}"
    return doc["matched"] is True, doc["detail"]


# --- exact_oracles -----------------------------------------------------------

def _exact_setup(seed: int) -> dict:
    from clique_blowup import blowup, corpus

    params = blowup.BlowupParams
    calls = ["kf_star_exact", "tau_exact", "incidence_rank", "kf_star_direct"]
    random.Random(seed).shuffle(calls)
    return {
        "cycle4": blowup.blowup_iterate(corpus.graph_from_spec("cycle:4"), params(4, 2)),
        "path4": blowup.blowup_iterate(corpus.graph_from_spec("path:4"), params(6, 2)),
        "calls": calls,
    }


def _exact_run(state: dict) -> dict:
    from clique_blowup import graphs, indexes

    routines = {
        "kf_star_exact": lambda: indexes.kf_star_exact(state["cycle4"]),
        "tau_exact": lambda: indexes.tau_exact(state["path4"]),
        "incidence_rank": lambda: graphs.incidence_rank(state["path4"]),
        "kf_star_direct": lambda: indexes.kf_star_direct(state["path4"]),
    }
    return {name: routines[name]() for name in state["calls"]}


def _exact_check(out: dict, refs: dict) -> tuple[bool, str]:
    bad = []
    if out["kf_star_exact"] != refs["kf_star_cycle4"]:
        bad.append("kf_star_exact")
    if out["tau_exact"] != refs["tau_path4"]:
        bad.append("tau_exact")
    if out["incidence_rank"] != refs["rank_path4"]:
        bad.append("incidence_rank")
    ref_kf = refs["kf_star_float_path4"]
    if not abs(out["kf_star_direct"] - ref_kf) <= 1e-7 * ref_kf:
        bad.append("kf_star_direct")
    return not bad, "mismatch: " + ",".join(bad) if bad else "all four match"


# --- closed_form_deep --------------------------------------------------------

def _closed_setup(seed: int) -> dict:
    import warnings

    from clique_blowup import errors, spectral

    # At the seed the single-shot Kemeny expression disagrees with the
    # recurrence for r >= 2 and warns; the recurrence is what is returned.
    mismatch = getattr(errors, "ClosedFormMismatchWarning", None)
    if mismatch is not None:
        warnings.simplefilter("ignore", mismatch)
    cells = list(CLOSED_FORM_CELLS)
    random.Random(seed).shuffle(cells)
    return {"cells": cells, "spectrum": spectral.SpectrumMultiset(PETERSEN_SPECTRUM)}


def _closed_run(state: dict) -> dict:
    from clique_blowup import blowup, indexes, spectral

    n0, e0 = PETERSEN_COUNTS
    out = {}
    for n, r in state["cells"]:
        params = blowup.BlowupParams(n, r)
        mapped = spectral.spectrum_iterated(state["spectrum"], n0, e0, params, False)
        out[(n, r)] = {
            "kf": indexes.kf_star_blowup_closed(PETERSEN_BASE["kf_star"], n0, e0, params),
            "kemeny": indexes.kemeny_blowup_closed(PETERSEN_BASE["kemeny"], n0, e0, params),
            "tau": indexes.tau_blowup_closed(PETERSEN_BASE["tau"], n0, e0, params),
            "kemeny_spectral": indexes.kemeny_spectral(mapped),
        }
    return out


def _closed_check(out: dict, refs: dict) -> tuple[bool, str]:
    _, e0 = PETERSEN_COUNTS
    bad = []
    for (n, r), cell in out.items():
        edges = e0 * (n * (n - 1) // 2) ** r
        tau = cell["tau"]
        tau_key = (tau.bit_length(),) + tuple(tau % p for p in TAU_MODULI)
        if cell["kemeny_spectral"] != cell["kemeny"]:
            bad.append(f"({n},{r}) kemeny")
        if cell["kf"] != 2 * edges * cell["kemeny"]:
            bad.append(f"({n},{r}) kf")
        if tau_key != refs["tau"][(n, r)]:
            bad.append(f"({n},{r}) tau")
    if len(out) != len(CLOSED_FORM_CELLS):
        bad.append(f"{len(out)} cells")
    return not bad, "mismatch: " + ",".join(bad) if bad else "all cells match"


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("verify_grid", 60.0, _verify_args, lambda seed: "", _verify_check),
        CliWorkload(
            "spectra_large",
            60.0,
            lambda seed: ["spectra", "--input", "-", "--n", "8", "--r", "2",
                          "--method", "both", "--format", "json"],
            _spectra_stdin,
            _spectra_check,
        ),
        LibraryWorkload("exact_oracles", 90.0, _exact_setup, _exact_run, _exact_check),
        LibraryWorkload("closed_form_deep", 60.0, _closed_setup, _closed_run, _closed_check),
    )
}
