"""Span tracing of the package's public functions from outside the package.

``Tracer.wrap`` replaces each target function, by identity, in every
``clique_blowup`` module namespace that binds it; ``cli`` and ``verify`` bind
names with ``from ... import``, so patching only the defining module would
miss their calls. Each call records a span (name, start, end, parent span)
in memory. Self time is a span's duration minus the time its direct child
spans cover.

Peak memory comes from a separate pass (``Tracer(peak=True)``), in which only
the numpy layers are wrapped and tracemalloc runs only inside their calls:
tracemalloc slows Fraction-heavy code many times over.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "clique_blowup"


def _first_len(args, result) -> int:
    return len(args[0])


def _result_len(args, result) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped function and the layer name its metrics are filed under."""

    module: str
    attr: str  # "name" or "Class.name"
    layer: str
    size: str | None = None  # sizes[size] records size_fn(args, result)
    size_fn: Callable | None = None
    size_agg: str = "sum"  # "sum" or "max" over the calls of one operation
    peak: bool = False  # measured in the tracemalloc pass


TARGETS = (
    Target("clique_blowup.blowup", "blowup_iterate", "blowup.blowup_iterate",
           "vertices", lambda a, r: r.vertex_count),
    Target("clique_blowup.spectral", "normalized_laplacian", "spectral.normalized_laplacian",
           peak=True),
    Target("clique_blowup.spectral", "eig_sym", "spectral.eig_sym",
           "order", _first_len, "max", peak=True),
    Target("clique_blowup.spectral", "SpectrumMultiset.from_entries", "spectral.from_entries"),
    Target("clique_blowup.spectral", "multiset_match", "spectral.multiset_match"),
    Target("clique_blowup.spectral", "spectrum_iterated", "spectral.spectrum_iterated"),
    Target("clique_blowup.indexes", "kf_star_blowup_closed", "indexes.kf_star_blowup_closed"),
    Target("clique_blowup.indexes", "kemeny_blowup_closed", "indexes.kemeny_blowup_closed"),
    Target("clique_blowup.indexes", "tau_blowup_closed", "indexes.tau_blowup_closed"),
    Target("clique_blowup.indexes", "kemeny_spectral", "indexes.kemeny_spectral"),
    Target("clique_blowup.indexes", "tau_exact", "indexes.tau_exact"),
    Target("clique_blowup.indexes", "kf_star_exact", "indexes.kf_star_exact"),
    Target("clique_blowup.indexes", "kf_star_direct", "indexes.kf_star_direct"),
    Target("clique_blowup.indexes", "resistance_matrix", "indexes.resistance_matrix",
           peak=True),
    Target("clique_blowup.indexes", "tau_spectral", "indexes.tau_spectral"),
    # Metric names must start with a letter, so _exact files under "exact".
    Target("clique_blowup._exact", "bareiss_determinant", "exact.bareiss_determinant",
           "order", _first_len, "max"),
    Target("clique_blowup._exact", "fraction_inverse", "exact.fraction_inverse",
           "order", _first_len, "max"),
    Target("clique_blowup._exact", "integer_rank", "exact.integer_rank"),
    Target("clique_blowup.graphs", "incidence_rank", "graphs.incidence_rank"),
    Target("clique_blowup.graphs", "bipartition", "graphs.bipartition"),
    Target("clique_blowup.verify", "graph_checks", "verify.graph_checks", "checks", _result_len),
    Target("clique_blowup.verify", "monotonicity_checks", "verify.monotonicity_checks",
           "checks", _result_len),
    Target("clique_blowup.verify", "cell_checks", "verify.cell_checks", "checks", _result_len),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0
    error: bool = False
    sizes: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the target functions while wrapped."""

    def __init__(self, targets=TARGETS, peak: bool = False):
        self.targets = [t for t in targets if t.peak] if peak else list(targets)
        self.peak = peak
        self.spans: list[Span] = []
        self.peak_mb: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(target.layer, time.perf_counter(),
                        parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.end - span.start
            if target.size_fn is not None:
                span.sizes[target.size] = target.size_fn(args, result)
            return result

        return wrapper

    def _peak_wrapper(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested inside another measured layer
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_mb[target.layer] = max(self.peak_mb.get(target.layer, 0.0), peak)

        return wrapper

    def wrap(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in self.targets:
            owner = sys.modules[target.module]
            *cls_path, attr = target.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            is_static = isinstance(raw, staticmethod)
            original = raw.__func__ if is_static else raw
            make = self._peak_wrapper if self.peak else self._span_wrapper
            wrapped = make(original, target)
            if is_static:
                self._patch(owner, attr, raw, staticmethod(wrapped))
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapped)

    def _patch(self, owner, name, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def unwrap(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer totals over the spans recorded so far.

        ``<layer>.s`` is inclusive seconds, ``.self_s`` seconds not covered by
        wrapped children, ``.calls`` and ``.errors`` counts, plus each size
        metric; ``verify.checks`` sums the CheckResults the verify layers made.
        """
        out: dict[str, float] = {}
        for target in self.targets:
            for suffix in ("s", "self_s", "calls", "errors"):
                out[f"{target.layer}.{suffix}"] = 0.0
        for span in self.spans:
            duration = span.end - span.start
            out[f"{span.name}.s"] += duration
            out[f"{span.name}.self_s"] += duration - span.child_s
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.errors"] += span.error
        sizes: dict[str, float] = {}
        for target in self.targets:
            if target.size is None:
                continue
            key = "verify.checks" if target.size == "checks" else f"{target.layer}.{target.size}"
            values = [s.sizes[target.size] for s in self.spans
                      if s.name == target.layer and target.size in s.sizes]
            total = (max(values, default=0) if target.size_agg == "max" else sum(values))
            sizes[key] = sizes.get(key, 0) + total
        out.update(sizes)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "error": s.error, **s.sizes}
            for s in self.spans
        ]
