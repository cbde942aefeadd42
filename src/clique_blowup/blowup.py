"""Clique blowup: replace every edge by a complete graph on n vertices.

For each edge (in canonical order) the construction adds n - 2 fresh
vertices and joins them with the edge's endpoints into a K_n, keeping the
original edge. Iterating the operation grows vertex and edge counts by
    E' = n(n-1)E/2,   N' = N + (n-2)E,
which this module also evaluates in closed form with exact big integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InternalAssertionError, InvalidParameterError, SizeCapExceededError
from .graphs import Graph, require_connected

DEFAULT_MAX_VERTICES = 20000


@dataclass(frozen=True)
class BlowupParams:
    """Clique size n >= 3 and iteration depth r >= 0 (r = 0 is the identity)."""

    n: int
    r: int = 1

    def __post_init__(self):
        if self.n < 3:
            raise InvalidParameterError(f"clique size n must be >= 3, got {self.n}")
        if self.r < 0:
            raise InvalidParameterError(f"iteration depth r must be >= 0, got {self.r}")


@dataclass(frozen=True)
class BlowupCounts:
    vertices: int
    edges: int


def clique_blowup(g: Graph, n: int) -> Graph:
    """One blowup step.

    Original vertices keep their labels. The s-th edge (canonical order)
    receives the fresh label block N + s(n-2) + l for l = 0..n-3; these
    blocks make iterated blowups reproducible byte for byte.
    """
    if n < 3:
        raise InvalidParameterError(f"clique size n must be >= 3, got {n}")
    require_connected(g)
    base = g.vertex_count
    edges: list[tuple[int, int]] = list(g.edges)
    for s, (u, v) in enumerate(g.edges):
        block = [base + s * (n - 2) + l for l in range(n - 2)]
        edges.extend(pair for pair in combinations([u, v] + block, 2) if pair != (u, v))
    return Graph(base + (n - 2) * g.edge_count, edges)


def count_sequence(n0: int, e0: int, n: int, r: int) -> list[tuple[int, int]]:
    """Exact (N_k, E_k) for k = 0..r.

    Iterates the one-step recurrence and insists its last level agrees with
    the closed forms
        E_r = n^r (n-1)^r E_0 / 2^r,
        N_r = N_0 + 2 E_0 (n^r (n-1)^r / 2^r - 1) / (n+1)
    (they are algebraically equal).
    """
    if n0 < 1 or e0 < 0:
        raise InvalidParameterError("need N0 >= 1 and E0 >= 0")
    levels = [(n0, e0)]
    vertices, edges = n0, e0
    for _ in range(r):
        vertices, edges = vertices + (n - 2) * edges, n * (n - 1) * edges // 2
        levels.append((vertices, edges))
    growth = Fraction(n * (n - 1), 2) ** r
    closed_edges = growth * e0
    closed_vertices = n0 + Fraction(2 * e0, n + 1) * (growth - 1)
    if closed_edges != edges or closed_vertices != vertices:
        raise InternalAssertionError(
            f"count recurrence ({vertices}, {edges}) != closed form "
            f"({closed_vertices}, {closed_edges})"
        )
    return levels


def blowup_counts(n0: int, e0: int, params: BlowupParams) -> BlowupCounts:
    """Exact vertex/edge counts after r blowup steps (last level of count_sequence)."""
    vertices, edges = count_sequence(n0, e0, params.n, params.r)[-1]
    return BlowupCounts(vertices=vertices, edges=edges)


def blowup_iterate(
    g: Graph, params: BlowupParams, max_vertices: int = DEFAULT_MAX_VERTICES
) -> Graph:
    """r-fold clique blowup, guarded by a predicted-size cap."""
    require_connected(g)
    predicted = blowup_counts(g.vertex_count, g.edge_count, params)
    if predicted.vertices > max_vertices:
        raise SizeCapExceededError(
            f"blowup would create {predicted.vertices} vertices "
            f"(cap {max_vertices})"
        )
    result = g
    for _ in range(params.r):
        result = clique_blowup(result, params.n)
    if (result.vertex_count, result.edge_count) != (predicted.vertices, predicted.edges):
        raise InternalAssertionError(
            "constructed counts disagree with the count recurrence"
        )
    return result
