"""Command-line front end: gen, blowup, spectra, indexes, verify.

stdout carries data, stderr carries diagnostics. Exit codes are a stable
contract: 0 success or match, 1 verification mismatch, 2 invalid input,
3 size cap exceeded, a result too large for a float, or out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import indexes
from .blowup import DEFAULT_MAX_VERTICES, BlowupParams, blowup_counts, blowup_iterate
from .corpus import DEFAULT_CORPUS_SPECS, graph_from_spec
from .errors import CliqueBlowupError, InvalidParameterError, SizeCapExceededError
from .graphs import GRAPH_FAMILIES, Graph, bipartition, gen_family, parse_edge_list, serialize_edge_list
from .indexes import IndexReport
from .spectral import (
    DEFAULT_MATCH_TOL,
    SpectrumMultiset,
    laplacian_spectrum,
    multiset_match,
    spectrum_iterated,
)
from .verify import run_verification

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_SIZE_CAP = 3

ENV_MAX_VERTICES = "CLIQUE_BLOWUP_MAX_VERTICES"


def _default_max_vertices() -> int:
    raw = os.environ.get(ENV_MAX_VERTICES)
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"{ENV_MAX_VERTICES} must be an integer, got {raw!r}"
        ) from None


def _load_graph(source: str) -> Graph:
    """Graph from '-' (stdin), a file path, or an inline generator spec."""
    if source == "-":
        return parse_edge_list(sys.stdin.read())
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    return graph_from_spec(source)


def _write_output(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _spectrum_table(sigma: SpectrumMultiset) -> str:
    return "".join(f"{float(v):<24.17g} x{m}\n" for v, m in sigma.entries)


def cmd_gen(args) -> int:
    family = args.family_flag or args.family
    k = args.k_flag if args.k_flag is not None else args.k
    if family is None or k is None:
        raise InvalidParameterError("gen needs a family and a size (positional or flags)")
    g = gen_family(family, k)
    _write_output(serialize_edge_list(g), args.output)
    return EXIT_OK


def cmd_blowup(args) -> int:
    g = _load_graph(args.input)
    params = BlowupParams(args.n, args.r)
    blown = blowup_iterate(g, params, max_vertices=args.max_vertices)
    _write_output(serialize_edge_list(blown), args.output)
    print(f"N={blown.vertex_count} E={blown.edge_count}", file=sys.stderr)
    return EXIT_OK


def cmd_spectra(args) -> int:
    g = _load_graph(args.input)
    params = BlowupParams(args.n, args.r)
    base = laplacian_spectrum(g, max_order=args.max_vertices)

    themed = numeric = None
    if args.method in ("theorem", "both"):
        if params.r == 0:
            themed = base
        else:
            counts = blowup_counts(g.vertex_count, g.edge_count, params)
            if counts.vertices > args.max_vertices:
                raise SizeCapExceededError(
                    f"{counts.vertices} vertices exceeds cap {args.max_vertices}"
                )
            themed = spectrum_iterated(
                base, g.vertex_count, g.edge_count, params, bipartition(g).is_bipartite
            )
    if args.method in ("numeric", "both"):
        blown = blowup_iterate(g, params, max_vertices=args.max_vertices)
        numeric = laplacian_spectrum(blown, max_order=args.max_vertices)

    if args.method == "both":
        report = multiset_match(themed, numeric, args.tol)
        if args.format == "json":
            text = (
                f'{{"theorem":{themed.to_json()},"numeric":{numeric.to_json()},'
                f'"matched":{str(report.matched).lower()},'
                f'"detail":"{report.detail}"}}\n'
            )
        else:
            text = (
                "theorem spectrum:\n"
                + _spectrum_table(themed)
                + "numeric spectrum:\n"
                + _spectrum_table(numeric)
                + f"verdict: {report.detail}\n"
            )
        _write_output(text, args.output)
        return EXIT_OK if report.matched else EXIT_MISMATCH

    sigma = themed if args.method == "theorem" else numeric
    text = sigma.to_json() + "\n" if args.format == "json" else _spectrum_table(sigma)
    _write_output(text, args.output)
    return EXIT_OK


def _report_table_row(report: IndexReport) -> str:
    kf = (
        str(report.kf_star_exact)
        if report.kf_star_exact is not None
        else f"{report.kf_star:.12g}"
    )
    ke = (
        str(report.kemeny_exact)
        if report.kemeny_exact is not None
        else f"{report.kemeny:.12g}"
    )
    tau = (
        str(report.tau_exact)
        if report.tau_exact is not None
        else f"{report.tau_float:.12g}"
    )
    return f"{report.route:<12} {kf:<24} {ke:<24} {tau}\n"


def cmd_indexes(args) -> int:
    g = _load_graph(args.input)
    r = args.r if args.r is not None else 0
    if r >= 1 and args.n is None:
        raise InvalidParameterError("--n is required when r >= 1")
    params = BlowupParams(args.n if args.n is not None else 3, r)

    routes = indexes.ROUTES if args.route == "all" else (args.route,)
    reports = {
        route: indexes.compute(g, params, route, args.max_vertices, args.exact_cap)
        for route in routes
    }
    deltas = _route_deltas(reports.values())

    if args.format == "json":
        if len(reports) == 1:
            text = next(iter(reports.values())).to_json() + "\n"
        else:
            body = ",".join(f'"{route}":{rep.to_json()}' for route, rep in reports.items())
            text = "{" + body + f',"deltas":{_deltas_json(deltas)}' + "}\n"
    else:
        text = f"{'route':<12} {'kf_star':<24} {'kemeny':<24} tau\n"
        for rep in reports.values():
            text += _report_table_row(rep)
        if len(reports) > 1:
            text += f"deltas: {_deltas_json(deltas)}\n"
    _write_output(text, args.output)
    if len(reports) > 1 and max(deltas.values()) > args.tol:
        print(f"error: routes disagree beyond tol {args.tol}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _route_deltas(reports) -> dict[str, float]:
    """Largest relative spread of each index across the computed routes."""
    reports = list(reports)

    def spread(values):
        lo, hi = min(values), max(values)
        return (hi - lo) / max(1.0, abs(hi))

    return {
        "kf_star": spread([rep.kf_star for rep in reports]),
        "kemeny": spread([rep.kemeny for rep in reports]),
        "tau": spread([rep.tau_float for rep in reports]),
    }


def _deltas_json(deltas: dict[str, float]) -> str:
    return (
        f'{{"kf_star":{deltas["kf_star"]:.3g},"kemeny":{deltas["kemeny"]:.3g},'
        f'"tau":{deltas["tau"]:.3g}}}'
    )


def cmd_verify(args) -> int:
    raw = ",".join(DEFAULT_CORPUS_SPECS) if args.corpus is None else args.corpus
    specs = [s for s in raw.split(",") if s.strip()]
    if not specs:
        raise InvalidParameterError("empty corpus")
    corpus = [(spec.strip(), graph_from_spec(spec)) for spec in specs]
    n_list = _parse_int_list(args.n_list, "n-list")
    r_list = _parse_int_list(args.r_list, "r-list")
    report = run_verification(
        corpus,
        n_list,
        r_list,
        tol=args.tol,
        max_vertices=args.max_vertices,
        exact_cap=args.exact_cap,
        jobs=args.jobs,
    )
    print(report.matrix([name for name, _ in corpus]))
    print(report.summary())
    if not report.passed:
        first = report.failures[0]
        print(
            f"first failure: {first.check} on {first.subject}: {first.detail}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def _parse_int_list(raw: str, label: str) -> list[int]:
    try:
        values = [int(item) for item in raw.split(",") if item.strip()]
    except ValueError:
        raise InvalidParameterError(f"--{label} must be comma-separated integers") from None
    if not values:
        raise InvalidParameterError(f"--{label} must not be empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clique-blowup",
        description="Clique blowups of graphs: spectra, indexes, spanning trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_n=True):
        p.add_argument("--input", required=True, help="edge-list file, '-', or spec like complete:3")
        if with_n:
            p.add_argument("--n", type=int, required=True, help="clique size (>= 3)")
        p.add_argument("--output", default=None, help="output path, default stdout")
        p.add_argument(
            "--max-vertices",
            type=int,
            default=None,
            help=f"size cap (default {DEFAULT_MAX_VERTICES}, env {ENV_MAX_VERTICES})",
        )

    p_gen = sub.add_parser("gen", help="generate a family graph edge list")
    p_gen.add_argument("family", nargs="?", choices=GRAPH_FAMILIES)
    p_gen.add_argument("k", nargs="?", type=int)
    p_gen.add_argument("--family", dest="family_flag", choices=GRAPH_FAMILIES)
    p_gen.add_argument("--k", dest="k_flag", type=int)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_blow = sub.add_parser("blowup", help="emit the edge list of the blown-up graph")
    add_common(p_blow)
    p_blow.add_argument("--r", type=int, default=1, help="iteration depth (default 1)")
    p_blow.set_defaults(func=cmd_blowup)

    p_spec = sub.add_parser("spectra", help="spectrum by mapping, eigensolve, or both")
    add_common(p_spec)
    p_spec.add_argument("--r", type=int, default=1)
    p_spec.add_argument("--method", choices=("theorem", "numeric", "both"), default="both")
    p_spec.add_argument("--tol", type=float, default=DEFAULT_MATCH_TOL)
    p_spec.add_argument("--format", choices=("table", "json"), default="table")
    p_spec.set_defaults(func=cmd_spectra)

    p_idx = sub.add_parser("indexes", help="Kf*, Kemeny constant, spanning trees")
    p_idx.add_argument("--input", required=True)
    p_idx.add_argument("--n", type=int, default=None)
    p_idx.add_argument("--r", type=int, default=None, help="iteration depth (default 0)")
    p_idx.add_argument("--route", choices=(*indexes.ROUTES, "all"), default="all")
    p_idx.add_argument("--format", choices=("table", "json"), default="table")
    p_idx.add_argument("--output", default=None)
    p_idx.add_argument("--max-vertices", type=int, default=None)
    p_idx.add_argument("--exact-cap", type=int, default=indexes.DEFAULT_EXACT_CAP)
    # tau through the spectrum is documented to 1e-6 relative; the route
    # agreement verdict defaults to that accuracy
    p_idx.add_argument("--tol", type=float, default=1e-6)
    p_idx.set_defaults(func=cmd_indexes)

    p_ver = sub.add_parser("verify", help="run the cross-route suite over a corpus grid")
    p_ver.add_argument("--corpus", default=None, help="comma-separated specs (default corpus)")
    p_ver.add_argument("--n-list", default="3,4,5")
    p_ver.add_argument("--r-list", default="1,2")
    p_ver.add_argument("--tol", type=float, default=DEFAULT_MATCH_TOL)
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--max-vertices", type=int, default=None)
    p_ver.add_argument("--exact-cap", type=int, default=indexes.DEFAULT_EXACT_CAP)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "max_vertices", None) is None and hasattr(args, "max_vertices"):
            args.max_vertices = _default_max_vertices()
        return args.func(args)
    except (SizeCapExceededError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (CliqueBlowupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
