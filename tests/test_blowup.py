import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clique_blowup import (
    BlowupParams,
    Graph,
    InvalidParameterError,
    NotConnectedError,
    SizeCapExceededError,
    bipartition,
    blowup_counts,
    blowup_iterate,
    clique_blowup,
    gen_family,
    graph_from_spec,
)
from clique_blowup import blowup

from conftest import connected_graphs, set_physical_memory


class TestParams:
    def test_rejects_small_clique(self):
        with pytest.raises(InvalidParameterError):
            BlowupParams(2, 1)

    def test_rejects_negative_depth(self):
        with pytest.raises(InvalidParameterError):
            BlowupParams(3, -1)


class TestOneStep:
    def test_triangle_with_n5(self):
        blown = clique_blowup(gen_family("complete", 3), 5)
        assert (blown.vertex_count, blown.edge_count) == (12, 30)

    def test_single_edge_becomes_complete_graph(self):
        # one edge plus n-2 added vertices induce exactly K_n
        for n in range(3, 7):
            assert clique_blowup(gen_family("complete", 2), n) == gen_family("complete", n)

    def test_square_with_n3(self):
        blown = clique_blowup(gen_family("cycle", 4), 3)
        counts = blowup_counts(4, 4, BlowupParams(3, 1))
        assert (blown.vertex_count, blown.edge_count) == (counts.vertices, counts.edges)
        assert (blown.vertex_count, blown.edge_count) == (8, 12)

    def test_label_blocks_follow_edge_order(self):
        g = gen_family("path", 3)  # edges (0,1), (1,2)
        blown = clique_blowup(g, 4)
        # first edge gets labels 3, 4; second edge gets 5, 6
        assert (0, 3) in blown.edges and (1, 4) in blown.edges
        assert (1, 5) in blown.edges and (2, 6) in blown.edges
        assert (0, 5) not in blown.edges

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParameterError):
            clique_blowup(gen_family("complete", 3), 2)

    def test_rejects_disconnected(self):
        with pytest.raises(NotConnectedError):
            clique_blowup(Graph(4, [(0, 1), (2, 3)]), 3)

    @given(connected_graphs(max_vertices=6), st.integers(3, 6))
    def test_degree_contract_and_odd_cycle(self, g, n):
        blown = clique_blowup(g, n)
        assert all(
            blown.degrees[i] == (n - 1) * g.degrees[i] for i in range(g.vertex_count)
        )
        assert all(d == n - 1 for d in blown.degrees[g.vertex_count :])
        assert not bipartition(blown).is_bipartite


class TestCounts:
    def test_one_step(self):
        assert blowup_counts(3, 3, BlowupParams(5, 1)) == blowup_counts(3, 3, BlowupParams(5, 1))
        counts = blowup_counts(3, 3, BlowupParams(5, 1))
        assert (counts.vertices, counts.edges) == (12, 30)

    def test_two_steps(self):
        counts = blowup_counts(3, 3, BlowupParams(5, 2))
        assert (counts.vertices, counts.edges) == (102, 300)

    def test_depth_zero_is_identity(self):
        counts = blowup_counts(7, 11, BlowupParams(4, 0))
        assert (counts.vertices, counts.edges) == (7, 11)

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidParameterError):
            blowup_counts(0, 0, BlowupParams(3, 1))

    def test_growth_is_exact_at_depth(self):
        # 64-bit overflow territory: exactness must survive
        counts = blowup_counts(3, 3, BlowupParams(6, 20))
        assert counts.edges == 3 * 15**20
        assert counts.vertices == 3 + 6 * (15**20 - 1) // 7

    @given(connected_graphs(max_vertices=6), st.integers(3, 6))
    def test_construction_matches_counts(self, g, n):
        blown = clique_blowup(g, n)
        counts = blowup_counts(g.vertex_count, g.edge_count, BlowupParams(n, 1))
        assert (blown.vertex_count, blown.edge_count) == (counts.vertices, counts.edges)


class TestIterate:
    def test_two_steps_triangle(self):
        blown = blowup_iterate(gen_family("complete", 3), BlowupParams(5, 2))
        assert (blown.vertex_count, blown.edge_count) == (102, 300)

    def test_three_steps_smallest_clique(self):
        blown = blowup_iterate(gen_family("complete", 3), BlowupParams(3, 3))
        assert (blown.vertex_count, blown.edge_count) == (42, 81)

    def test_depth_zero_returns_input(self):
        g = gen_family("cycle", 5)
        assert blowup_iterate(g, BlowupParams(4, 0)) == g

    def test_matches_manual_iteration(self):
        g = gen_family("cycle", 4)
        manual = clique_blowup(clique_blowup(g, 3), 3)
        assert blowup_iterate(g, BlowupParams(3, 2)).edges == manual.edges

    def test_size_cap(self):
        with pytest.raises(SizeCapExceededError):
            blowup_iterate(gen_family("complete", 3), BlowupParams(5, 6))

    def test_edge_bytes_are_capped_by_physical_memory(self, monkeypatch):
        # K_3 at n=5 has 30 edges; never tested by allocating
        set_physical_memory(monkeypatch, 30 * blowup.EDGE_BYTES - 1)
        with pytest.raises(SizeCapExceededError, match="30 edges"):
            blowup_iterate(gen_family("complete", 3), BlowupParams(5, 1))
        set_physical_memory(monkeypatch, 30 * blowup.EDGE_BYTES)
        assert blowup_iterate(gen_family("complete", 3), BlowupParams(5, 1)).edge_count == 30

    def test_edge_bytes_cover_the_measured_peak(self):
        # the prediction is an upper bound on what the construction allocates
        g = graph_from_spec("petersen")
        tracemalloc.start()
        try:
            blown = blowup_iterate(g, BlowupParams(8, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blown.edge_count == 11760
        assert peak <= blowup.EDGE_BYTES * blown.edge_count

    def test_size_cap_is_configurable(self):
        blown = blowup_iterate(gen_family("complete", 3), BlowupParams(5, 1), max_vertices=12)
        assert blown.vertex_count == 12
        with pytest.raises(SizeCapExceededError):
            blowup_iterate(gen_family("complete", 3), BlowupParams(5, 1), max_vertices=11)
