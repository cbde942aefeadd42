"""Clique blowups of graphs: spectra, resistance indexes, spanning trees.

The blowup replaces every edge of a simple connected graph by a complete
graph K_n. The normalized Laplacian spectrum of the result is obtained
either by direct eigendecomposition or by an exact mapping from the base
spectrum, and the multiplicative degree-Kirchhoff index, Kemeny constant,
and spanning-tree count follow by spectral formulas, closed-form
recurrences, and independent oracles that cross-check each other.

Importing the package loads no submodule, hence no numpy, so the command
line can set its BLAS thread count first. The first use of a public name or
submodule attribute (PEP 562) imports every submodule, as an eager
``__init__`` would, and binds all public names.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names the package exports from it
_EXPORTS = {
    "blowup": (
        "DEFAULT_MAX_VERTICES", "BlowupCounts", "BlowupParams",
        "blowup_counts", "blowup_iterate", "clique_blowup",
    ),
    "corpus": ("default_corpus", "graph_from_spec", "petersen"),
    "errors": (
        "CliqueBlowupError", "ClosedFormMismatchWarning", "DegreeZeroError",
        "DuplicateEdgeError", "InconsistentSpectrumError", "InternalAssertionError",
        "InvalidParameterError", "NotConnectedError", "NotSymmetricError",
        "NumericalFailureError", "ParseError", "SelfLoopError", "SizeCapExceededError",
    ),
    "graphs": (
        "Bipartition", "Graph", "bipartition", "gen_family", "incidence_rank",
        "is_connected", "parse_edge_list", "serialize_edge_list",
    ),
    "indexes": (
        "DEFAULT_EXACT_CAP", "IndexReport", "kemeny_blowup_closed", "kemeny_direct",
        "kemeny_exact", "kemeny_spectral", "kf_star_blowup_closed", "kf_star_direct",
        "kf_star_exact", "kf_star_spectral", "resistance_matrix", "tau_blowup_closed",
        "tau_exact", "tau_spectral",
    ),
    "spectral": (
        "DEFAULT_CLUSTER_TOL", "DEFAULT_MATCH_TOL", "MatchReport", "SpectrumMultiset",
        "eig_sym", "laplacian_spectrum", "multiset_match", "normalized_laplacian",
        "spectrum_by_theorem", "spectrum_iterated",
    ),
    "verify": ("CheckResult", "VerifyReport", "run_verification"),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it here; the public names are bound below
    modules = {module: import_module(f".{module}", __name__) for module in _EXPORTS}
    globals().update(
        (public, getattr(modules[module], public))
        for module, names in _EXPORTS.items()
        for public in names
    )
    return globals()[name]  # later lookups skip this hook


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
