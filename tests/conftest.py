"""Shared fixtures and hypothesis strategies."""

import random

import hypothesis.strategies as st
import numpy as np
import pytest

from clique_blowup import Graph, _exact, default_corpus


@st.composite
def connected_graphs(draw, min_vertices=2, max_vertices=8):
    """Random connected graph: a random tree plus extra edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges = set()
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        edges.add((parent, i))
    candidates = sorted(
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    )
    if candidates:
        extra = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates)))
        edges.update(extra)
    return Graph(n, sorted(edges))


@st.composite
def graphs_with_twins(draw):
    """Connected graph in which some vertices are cloned with their closed neighbourhood."""
    g = draw(connected_graphs(max_vertices=6))
    edges = list(g.edges)
    order = g.vertex_count
    for v in draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=5)):
        closed = {u for e in edges if v in e for u in e} | {v}
        edges.extend((u, order) for u in sorted(closed))
        order += 1
    return Graph(order, edges)


def laplacian(g):
    """Reference integer Laplacian D - A of g, from its edge list alone."""
    us, vs = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    lap = np.zeros((g.vertex_count, g.vertex_count), dtype=np.int64)
    lap[us, vs] = lap[vs, us] = -1
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def late_fill_graph(core, tail, seed=2):
    """G(core, 0.9) with a path of tail vertices hanging from its last vertex.

    Its Laplacian minor stays sparse along the path and fills in on the core.
    """
    rng = random.Random(seed)
    edges = {(i, j) for i in range(core) for j in range(i + 1, core) if rng.random() < 0.9}
    edges |= {(core - 1 + k, core + k) for k in range(tail)}
    return Graph(core + tail, sorted(edges))


def sparse_rows(matrix):
    """The rows {column: entry} of a dense matrix, zeros left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def record_orders(monkeypatch, module, name):
    """Patch module.name to record the order of the matrix it gets first."""
    orders = []
    original = getattr(module, name)

    def wrapper(matrix, *args, **kwargs):
        orders.append(len(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return orders


def set_physical_memory(monkeypatch, nbytes):
    """Make every memory guard read nbytes of physical memory."""
    monkeypatch.setattr(_exact, "physical_memory", lambda: nbytes)


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()
