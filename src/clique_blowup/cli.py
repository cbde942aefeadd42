"""Command-line front end: gen, blowup, spectra, indexes, verify.

stdout carries data, stderr carries diagnostics. Exit codes are a stable
contract: 0 success or match, 1 verification mismatch, 2 invalid input,
3 size cap exceeded, a result a double cannot hold, or out of memory.

Importing this module calls _blas.pin() before numpy loads, which owns the
BLAS thread policy: one thread unless the user set a count (see _blas). Its
top imports load no numpy, so neither do ``gen``, ``blowup``, ``--help`` and
argparse's usage errors. ``spectra``, ``indexes`` and ``verify`` load numpy
before they check their own arguments, through ``from . import <module>``:
the package's ``__getattr__`` then loads every submodule (``bench/tracer.py``
needs them all in ``sys.modules``), where ``from .spectral import`` would not.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _blas

_blas.pin()  # BLAS reads its thread count once, when numpy loads: before any command runs

from ._exact import DEFAULT_EXACT_CAP, DEFAULT_MATCH_TOL, ROUTES, require_tolerance
from .blowup import DEFAULT_MAX_VERTICES, BlowupParams, blowup_iterate
from .corpus import DEFAULT_CORPUS_SPECS, graph_from_spec
from .errors import CliqueBlowupError, InvalidParameterError, SizeCapExceededError
from .graphs import GRAPH_FAMILIES, Graph, bipartition, gen_family, parse_edge_list, serialize_edge_list

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
        value = int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"{ENV_MAX_VERTICES} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise InvalidParameterError(f"{ENV_MAX_VERTICES} must be >= 0, got {value}")
    return value


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


def _spectrum_table(sigma) -> str:
    return "".join(f"{float(v):<24.17g} x{m}\n" for v, m in sigma.entries)


def cmd_gen(args) -> int:
    # positional values fill, in order, whichever of family and size no flag gave
    values = iter(args.values)
    family = args.family if args.family is not None else next(values, None)
    k = args.k if args.k is not None else next(values, None)
    if next(values, None) is not None:
        raise InvalidParameterError("gen takes the family and the size once each, positional or flag")
    if family is None or k is None:
        raise InvalidParameterError("gen needs a family and a size (positional or flags)")
    try:
        k = int(k)
    except ValueError:
        raise InvalidParameterError(f"gen size must be an integer, got {k!r}") from None
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
    from . import spectral
    g = _load_graph(args.input)
    params = BlowupParams(args.n, args.r)

    spectral.check_spectrum_input(g, max_order=args.max_vertices)  # the base graph's errors come first
    themed = numeric = None
    if args.method != "numeric":
        base = spectral.laplacian_spectrum(g, max_order=args.max_vertices)
        bipartite = bipartition(g).is_bipartite
        themed = spectral.spectrum_iterated(base, g.vertex_count, g.edge_count, params, bipartite)
    if args.method != "theorem":
        blown = blowup_iterate(g, params, max_vertices=args.max_vertices)
        numeric = spectral.laplacian_spectrum(blown, max_order=args.max_vertices)

    if args.method == "both":
        report = spectral.multiset_match(themed, numeric, args.tol)
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


def _report_table_row(report) -> str:
    kf, ke, tau = (
        f"{value:.12g}" if isinstance(value, float) else str(value)
        for value in (report.kf_star, report.kemeny, report.tau)
    )
    return f"{report.route:<12} {kf:<24} {ke:<24} {tau}\n"


def cmd_indexes(args) -> int:
    from . import indexes
    g = _load_graph(args.input)
    if args.r >= 1 and args.n is None:
        raise InvalidParameterError("--n is required when r >= 1")
    params = BlowupParams(args.n if args.n is not None else 3, args.r)

    routes = ROUTES if args.route == "all" else (args.route,)
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
    deltas = {}
    for name in ("kf_star", "kemeny", "tau"):
        values = [float(getattr(rep, name)) for rep in reports]
        deltas[name] = (max(values) - min(values)) / max(1.0, abs(max(values)))
    return deltas


def _deltas_json(deltas: dict[str, float]) -> str:
    return "{" + ",".join(f'"{name}":{delta:.3g}' for name, delta in deltas.items()) + "}"


def cmd_verify(args) -> int:
    from . import verify
    raw = ",".join(DEFAULT_CORPUS_SPECS) if args.corpus is None else args.corpus
    specs = [s for s in raw.split(",") if s.strip()]
    if not specs:
        raise InvalidParameterError("empty corpus")
    corpus = [(spec.strip(), graph_from_spec(spec)) for spec in specs]
    n_list = _parse_int_list(args.n_list, "n-list")
    r_list = _parse_int_list(args.r_list, "r-list")
    report = verify.run_verification(
        corpus,
        n_list,
        r_list,
        tol=args.tol,
        max_vertices=args.max_vertices,
        exact_cap=args.exact_cap,
        jobs=args.jobs,
    )
    print(report.matrix())
    print(report.summary())
    if not report.passed:
        first = report.failures[0]
        print(
            f"first failure: {first.check} on {first.subject}: {first.detail}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def _tolerance(raw: str) -> float:
    """argparse type of every --tol: a finite float >= 0, else a usage error (exit 2)."""
    try:
        return require_tolerance(float(raw))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int):
    """argparse type of an integer option: a value below low is a usage error (exit 2)."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


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

    def add_common(p):
        p.add_argument("--input", required=True, help="edge-list file, '-', or spec like complete:3")
        p.add_argument("--n", type=int, required=True, help="clique size (>= 3)")
        p.add_argument("--output", default=None, help="output path, default stdout")
        p.add_argument(
            "--max-vertices",
            type=_int_at_least(0),
            default=None,
            help=f"size cap (default {DEFAULT_MAX_VERTICES}, env {ENV_MAX_VERTICES})",
        )

    p_gen = sub.add_parser("gen", help="generate a family graph edge list")
    p_gen.add_argument("values", nargs="*", metavar="FAMILY SIZE",
                       help="the family, then the size, where no flag gives them")
    p_gen.add_argument("--family", choices=GRAPH_FAMILIES)
    p_gen.add_argument("--k", type=int)
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
    p_spec.add_argument("--tol", type=_tolerance, default=DEFAULT_MATCH_TOL)
    p_spec.add_argument("--format", choices=("table", "json"), default="table")
    p_spec.set_defaults(func=cmd_spectra)

    p_idx = sub.add_parser("indexes", help="Kf*, Kemeny constant, spanning trees")
    p_idx.add_argument("--input", required=True)
    p_idx.add_argument("--n", type=int, default=None)
    p_idx.add_argument("--r", type=int, default=0, help="iteration depth (default 0)")
    p_idx.add_argument("--route", choices=(*ROUTES, "all"), default="all")
    p_idx.add_argument("--format", choices=("table", "json"), default="table")
    p_idx.add_argument("--output", default=None)
    p_idx.add_argument("--max-vertices", type=_int_at_least(0), default=None)
    p_idx.add_argument(
        "--exact-cap",
        type=_int_at_least(0),
        default=DEFAULT_EXACT_CAP,
        help="largest order q of the true-twin quotient that exact tau and Kf* "
        f"eliminate (default {DEFAULT_EXACT_CAP})",
    )
    # tau through the spectrum is documented to 1e-6 relative; the route
    # agreement verdict defaults to that accuracy
    p_idx.add_argument("--tol", type=_tolerance, default=1e-6)
    p_idx.set_defaults(func=cmd_indexes)

    p_ver = sub.add_parser("verify", help="run the cross-route suite over a corpus grid")
    p_ver.add_argument("--corpus", default=None, help="comma-separated specs (default corpus)")
    p_ver.add_argument("--n-list", default="3,4,5")
    p_ver.add_argument("--r-list", default="1,2")
    p_ver.add_argument("--tol", type=_tolerance, default=DEFAULT_MATCH_TOL)
    p_ver.add_argument("--jobs", type=_int_at_least(1), default=1)
    p_ver.add_argument("--max-vertices", type=_int_at_least(0), default=None)
    p_ver.add_argument(
        "--exact-cap",
        type=_int_at_least(0),
        default=DEFAULT_EXACT_CAP,
        help="largest order each capped routine eliminates: q of the true-twin "
        "quotient for exact tau and Kf*, N for the incidence rank and the "
        "resistances; a check over it is skipped "
        f"(default {DEFAULT_EXACT_CAP})",
    )
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
