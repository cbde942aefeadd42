"""Graph data model, edge-list I/O, family generators, structural predicates.

Vertices are dense 0-based integers. Edges are stored canonically: each
pair ordered (u, v) with u < v, the list sorted lexicographically. That
ordering is a public contract; the blowup construction derives its vertex
labels from edge positions in it.

Connectivity and the 2-colouring come from one breadth-first traversal,
cached on the immutable Graph like its adjacency; every guard reads it. The
true-twin classes (vertices with equal closed neighbourhoods) and the edges
between them are found once per Graph too; every quotient matrix, dense or
as the sparse rows of exact tau, is built from them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from ._exact import DEFAULT_EXACT_CAP, modular_rank, require_within_cap
from .errors import (
    DuplicateEdgeError,
    InvalidParameterError,
    NotConnectedError,
    ParseError,
    SelfLoopError,
)

GRAPH_FAMILIES = ("complete", "path", "cycle", "star")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with canonical integer labels.

    The constructor normalizes and validates: pairs are reordered so u < v
    (a tuple already in that order is kept as it is), the edge list is
    sorted, self-loops and duplicates are rejected, and every label must lie
    in [0, vertex_count). Isolated vertices are representable (vertex_count
    may exceed the labels used by edges).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise InvalidParameterError("vertex_count must be non-negative")
        normalized = []
        for pair in edges:
            u, v = pair
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidParameterError(
                    f"edge ({u}, {v}) outside label range [0, {vertex_count})"
                )
            if u > v:
                pair = (v, u)
            elif type(pair) is not tuple:
                pair = (u, v)
            normalized.append(pair)  # a canonical tuple is kept, not copied
        normalized.sort()
        for prev, cur in zip(normalized, normalized[1:]):
            if prev == cur:
                raise DuplicateEdgeError(f"duplicate edge {cur}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples."""
        neighbors: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(ns) for ns in self.adjacency)

    @cached_property
    def _traversal(self) -> tuple[tuple[str, ...], bool, bool]:
        """BFS 2-colouring from vertex 0: each vertex's side ("" if unreached),
        whether every vertex was reached, whether an edge joins two on one side."""
        if self.vertex_count == 0:
            return (), False, False
        side = [""] * self.vertex_count
        side[0] = "X"
        queue = deque([0])
        clash = False
        while queue:
            u = queue.popleft()
            for v in self.adjacency[u]:
                if not side[v]:
                    side[v] = "Y" if side[u] == "X" else "X"
                    queue.append(v)
                elif side[v] == side[u]:
                    clash = True
        return tuple(side), "" not in side, clash

    @cached_property
    def _twins(self) -> tuple[tuple, ...]:
        """True-twin classes: each vertex's class, each class's size and degree,
        and the class edges, the sorted pairs (T, U), T < U, of adjacent classes.

        Vertices with the same closed neighbourhood N[v] share a class, and so
        a degree, and two classes are joined all-to-all or not at all. Classes
        are numbered by their smallest vertex, so a twin-free graph keeps its
        labels and its edges.
        """
        index: dict[tuple[int, ...], int] = {}
        class_of = tuple(
            index.setdefault(tuple(sorted(ns + (v,))), len(index))
            for v, ns in enumerate(self.adjacency)
        )
        size, degree = [0] * len(index), [0] * len(index)
        for c, d in zip(class_of, self.degrees):
            size[c] += 1
            degree[c] = d
        # the keys of index are the classes' closed neighbourhoods, in class order
        neighbours = ({class_of[w] for w in closed} for closed in index)
        links = tuple((t, u) for t, us in enumerate(neighbours) for u in sorted(us) if u > t)
        return class_of, tuple(size), tuple(degree), links


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring attempt: per-vertex side in {'X', 'Y'} plus the verdict.

    When is_bipartite is False the sides record the failed traversal coloring
    and carry no structural meaning.
    """

    side_of: tuple[str, ...]
    is_bipartite: bool

    def side(self, label: str) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.side_of) if s == label)


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    One edge per line as two distinct non-negative integers separated by
    whitespace. '#' starts a comment; blank lines are skipped. The vertex
    count is 1 + the largest label seen.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_label = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected two labels, got {len(tokens)}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer token in {tokens!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative label in {tokens!r}", lineno)
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
        max_label = max(max_label, u, v)
    return Graph(max_label + 1, edges)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list: one "u v" line per edge, sorted, LF endings.

    Trailing isolated vertices (labels above every edge endpoint) are not
    representable in this format and are dropped on a round trip.
    """
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def gen_family(family: str, k: int) -> Graph:
    """Canonical member of a named family: complete, path, cycle, or star.

    complete(k) needs k >= 2, cycle(k) needs k >= 3, path/star need k >= 1.
    The star's center is vertex 0.
    """
    if family not in GRAPH_FAMILIES:
        raise InvalidParameterError(
            f"unknown family {family!r}; expected one of {GRAPH_FAMILIES}"
        )
    if k < 1:
        raise InvalidParameterError(f"{family}({k}): size must be >= 1")
    if family == "complete":
        if k < 2:
            raise InvalidParameterError(f"complete({k}): size must be >= 2")
        return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    if family == "path":
        return Graph(k, [(i, i + 1) for i in range(k - 1)])
    if family == "cycle":
        if k < 3:
            raise InvalidParameterError(f"cycle({k}): size must be >= 3")
        return Graph(k, [(i, (i + 1) % k) for i in range(k)])
    # star: center 0 joined to 1..k-1
    return Graph(k, [(0, i) for i in range(1, k)])


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches every vertex.

    The empty graph is not connected; a single vertex is. Fewer than N - 1
    edges cannot connect N vertices, so such a graph is rejected before its
    adjacency or traversal is built.
    """
    if g.edge_count < g.vertex_count - 1:
        return False
    return g._traversal[1]


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise NotConnectedError("operation requires a connected graph")


def bipartition(g: Graph) -> Bipartition:
    """Two-color a connected graph by traversal from vertex 0.

    Vertex 0 lands on side X. An odd cycle makes is_bipartite False.
    """
    require_connected(g)
    side_of, _, clash = g._traversal
    return Bipartition(side_of, not clash)


def incidence_rank(g: Graph, max_order: int = DEFAULT_EXACT_CAP) -> int:
    """Rank over the rationals of the vertex-edge incidence matrix.

    Exact, never floating point: the result equals vertex_count - 1 for
    connected bipartite graphs and vertex_count otherwise, and that
    dichotomy must be bit-exact. Every square minor of an unsigned incidence
    matrix is 0 or +-2^k (Grossman, Kulkarni and Schochetman, Linear Algebra
    Appl. 1995), so a nonzero maximal minor is prime to any odd prime and
    the rank modulo the prime 2**31 - 1 is the rank over Q. The transpose is
    eliminated, one sparse row per edge with its two ones and one column
    per vertex; each row keeps at most two nonzeros, so the work grows as
    N * E at most. The vertex count is capped at max_order.
    """
    require_connected(g)
    require_within_cap(g.vertex_count, max_order)
    return modular_rank([{u: 1, v: 1} for u, v in g.edges], g.vertex_count)
