import io
from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import given

import clique_blowup.graphs as graphs_module

from clique_blowup import (
    DuplicateEdgeError,
    Graph,
    InvalidParameterError,
    NotConnectedError,
    ParseError,
    SelfLoopError,
    SizeCapExceededError,
    bipartition,
    gen_family,
    incidence_rank,
    is_connected,
    parse_edge_list,
    petersen,
    serialize_edge_list,
)
from clique_blowup.cli import main

from conftest import connected_graphs, graphs_with_twins


class TestGraphModel:
    def test_normalizes_edge_order(self):
        g = Graph(3, [(2, 1), (1, 0), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_keeps_canonical_tuples_and_rebuilds_the_rest(self):
        class Pair(tuple):
            pass

        kept, flipped, listed, subclassed = (0, 1), (2, 0), [1, 2], Pair((0, 3))
        g = Graph(4, [subclassed, listed, flipped, kept])
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2))
        assert g.edges[0] is kept
        assert all(type(e) is tuple for e in g.edges)

    def test_adjacency_and_degrees(self):
        g = gen_family("star", 4)
        assert g.adjacency == ((1, 2, 3), (0,), (0,), (0,))
        assert g.degrees == (3, 1, 1, 1)

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate_even_when_flipped(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_label(self):
        with pytest.raises(InvalidParameterError):
            Graph(2, [(0, 2)])

    def test_isolated_vertices_are_representable(self):
        g = Graph(3, [(0, 1)])
        assert g.degrees == (1, 1, 0)
        assert not is_connected(g)


class TestParse:
    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n0 2")
        assert g == gen_family("complete", 3)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            parse_edge_list("0 0")

    def test_duplicate_after_normalization(self):
        with pytest.raises(DuplicateEdgeError):
            parse_edge_list("0 1\n# comment\n\n1 0")

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list("# header\n0 1  # trailing\n\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("text", ["0", "0 1 2", "a b", "0 -1"])
    def test_malformed_line_reports_number(self, text):
        with pytest.raises(ParseError) as err:
            parse_edge_list("0 1\n" + text)
        assert err.value.line == 2

    def test_empty_text_gives_empty_graph(self):
        g = parse_edge_list("")
        assert g.vertex_count == 0 and g.edges == ()


class TestSerialize:
    def test_format(self):
        text = serialize_edge_list(gen_family("path", 3))
        assert text == "0 1\n1 2\n"
        assert not text.endswith("\n\n")

    def test_roundtrip_corpus(self, corpus):
        for _, g in corpus:
            assert parse_edge_list(serialize_edge_list(g)) == g

    @given(connected_graphs())
    def test_roundtrip_random(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g


class TestGenFamily:
    def test_complete(self):
        g = gen_family("complete", 3)
        assert (g.vertex_count, g.edge_count) == (3, 3)

    def test_cycle_is_bipartite_when_even(self):
        g = gen_family("cycle", 4)
        assert (g.vertex_count, g.edge_count) == (4, 4)
        assert bipartition(g).is_bipartite

    def test_path(self):
        assert gen_family("path", 3).edges == ((0, 1), (1, 2))

    def test_star_center(self):
        g = gen_family("star", 5)
        assert g.edge_count == 4
        assert g.degrees[0] == 4

    @pytest.mark.parametrize(
        "family,k", [("cycle", 2), ("complete", 1), ("path", 0), ("star", 0)]
    )
    def test_out_of_range(self, family, k):
        with pytest.raises(InvalidParameterError):
            gen_family(family, k)

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            gen_family("wheel", 4)

    @pytest.mark.parametrize(
        "family,k,edges",
        [("complete", 5, 10), ("path", 6, 5), ("cycle", 7, 7), ("star", 6, 5)],
    )
    def test_edge_counts(self, family, k, edges):
        g = gen_family(family, k)
        assert g.vertex_count == k and g.edge_count == edges
        assert sum(g.degrees) == 2 * g.edge_count


class TestConnectivity:
    def test_triangle_connected(self):
        assert is_connected(gen_family("complete", 3))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        assert is_connected(gen_family("path", 1))

    def test_empty_graph(self):
        assert not is_connected(Graph(0))


class TestBipartition:
    def test_even_cycle(self):
        b = bipartition(gen_family("cycle", 4))
        assert b.is_bipartite
        assert b.side("X") == (0, 2) and b.side("Y") == (1, 3)

    def test_triangle(self):
        assert not bipartition(gen_family("complete", 3)).is_bipartite

    def test_path(self):
        b = bipartition(gen_family("path", 3))
        assert b.is_bipartite
        assert b.side("X") == (0, 2) and b.side("Y") == (1,)

    def test_requires_connected(self):
        with pytest.raises(NotConnectedError):
            bipartition(Graph(4, [(0, 1), (2, 3)]))

    def test_edges_cross_sides_when_bipartite(self, corpus):
        for _, g in corpus:
            b = bipartition(g)
            if b.is_bipartite:
                assert all(b.side_of[u] != b.side_of[v] for u, v in g.edges)


def reference_is_connected(g):
    """Separate connectivity traversal, kept as an independent reference."""
    if g.vertex_count == 0:
        return False
    seen = [False] * g.vertex_count
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if not seen[v]:
                seen[v] = True
                reached += 1
                queue.append(v)
    return reached == g.vertex_count


def reference_bipartition(g):
    """Separate 2-colouring traversal of a connected graph: (side_of, is_bipartite)."""
    side = [""] * g.vertex_count
    side[0] = "X"
    queue = deque([0])
    is_bip = True
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if not side[v]:
                side[v] = "Y" if side[u] == "X" else "X"
                queue.append(v)
            elif side[v] == side[u]:
                is_bip = False
    return tuple(side), is_bip


@st.composite
def any_graphs(draw, max_vertices=9):
    """Random simple graph on 0..max_vertices vertices, often disconnected."""
    n = draw(st.integers(0, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


class TestTraversal:
    @given(st.one_of(any_graphs(), connected_graphs(min_vertices=1, max_vertices=9)))
    def test_matches_separate_reference_loops(self, g):
        connected = reference_is_connected(g)
        assert is_connected(g) == connected
        if not connected:
            with pytest.raises(NotConnectedError, match="requires a connected graph"):
                bipartition(g)
            return
        b = bipartition(g)
        assert (b.side_of, b.is_bipartite) == reference_bipartition(g)

    @pytest.fixture
    def traversals(self, monkeypatch):
        """Queues the traversal starts, recorded through graphs.deque."""
        started = []
        monkeypatch.setattr(
            graphs_module, "deque", lambda *args: started.append(args) or deque(*args)
        )
        return started

    def test_one_traversal_per_graph(self, traversals):
        g = gen_family("cycle", 6)
        first, second = bipartition(g), bipartition(g)
        for _ in range(3):
            graphs_module.require_connected(g)
        assert is_connected(g) and first == second and first.is_bipartite
        assert len(traversals) == 1

    def test_disconnected_graph_traversed_once(self, traversals):
        # N - 1 edges, so the edge count alone does not rule it out
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        for _ in range(3):
            with pytest.raises(NotConnectedError):
                bipartition(g)
        assert not is_connected(g)
        assert len(traversals) == 1

    @pytest.fixture
    def unbuildable(self, monkeypatch):
        """Make the cached adjacency and traversal raise if anything builds them."""

        def refuse(self):
            raise AssertionError("built the adjacency or the traversal")

        for name in ("adjacency", "_traversal"):
            monkeypatch.setattr(Graph, name, property(refuse))

    def test_too_few_edges_rejected_without_traversal(self, unbuildable):
        g = Graph(10_000_001, [(0, 10_000_000)])
        assert not is_connected(g)
        with pytest.raises(NotConnectedError, match="requires a connected graph"):
            bipartition(g)

    def test_sparse_stdin_blowup_exits_2_without_traversal(
        self, unbuildable, monkeypatch, capsys
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 10000000\n"))
        assert main(["blowup", "--input", "-", "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: operation requires a connected graph\n"


class TestTwins:
    @given(st.one_of(graphs_with_twins(), connected_graphs()))
    def test_class_edges_join_classes_all_to_all(self, g):
        class_of, size, degree, links = g._twins
        members = [[v for v, c in enumerate(class_of) if c == t] for t in range(len(size))]
        assert [len(m) for m in members] == list(size)
        assert all({g.degrees[v] for v in m} == {degree[t]} for t, m in enumerate(members))
        assert list(links) == sorted(set(links)) and all(t < u for t, u in links)
        edges = set(g.edges)
        for t in range(len(size)):
            for u in range(t + 1, len(size)):
                joined = [(min(v, w), max(v, w)) in edges for v in members[t] for w in members[u]]
                assert all(joined) == any(joined) == ((t, u) in links)

    def test_twin_free_graph_keeps_its_labels_and_edges(self):
        g = petersen()
        assert g._twins == (tuple(range(10)), (1,) * 10, (3,) * 10, g.edges)

    def test_clique_is_one_class_with_no_class_edge(self):
        assert gen_family("complete", 4)._twins == ((0, 0, 0, 0), (4,), (3,), ())


class TestIncidenceRank:
    @pytest.mark.parametrize(
        "spec,rank",
        [
            (("complete", 3), 3),  # non-bipartite: full rank
            (("cycle", 4), 3),  # bipartite: one short
            (("path", 3), 2),
        ],
    )
    def test_fixtures(self, spec, rank):
        assert incidence_rank(gen_family(*spec)) == rank

    def test_requires_connected(self):
        with pytest.raises(NotConnectedError):
            incidence_rank(Graph(4, [(0, 1), (2, 3)]))

    def test_cap_on_the_vertex_count(self, monkeypatch):
        assert incidence_rank(petersen(), max_order=10) == 10

        def not_called(rows, width):
            raise AssertionError("incidence matrix eliminated over the cap")

        monkeypatch.setattr(graphs_module, "modular_rank", not_called)
        with pytest.raises(SizeCapExceededError, match="^order 10 exceeds exact cap 9$"):
            incidence_rank(petersen(), max_order=9)

    @given(connected_graphs())
    def test_dichotomy(self, g):
        expected = g.vertex_count - (1 if bipartition(g).is_bipartite else 0)
        assert incidence_rank(g) == expected

    @given(connected_graphs())
    def test_degree_sum(self, g):
        assert sum(g.degrees) == 2 * g.edge_count
