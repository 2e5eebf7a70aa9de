"""Unit tests for the core Graph data structure."""

import numpy as np
import pytest

from repro.errors import (
    DuplicateVertex,
    EdgeNotFound,
    InvalidWeight,
    VertexNotFound,
)
from repro.graph import Graph

from ..conftest import complete_graph, path_graph


class TestVertices:
    def test_add_vertex(self):
        g = Graph()
        g.add_vertex(3)
        assert g.has_vertex(3)
        assert g.num_vertices == 1
        assert 3 in g

    def test_add_duplicate_raises(self):
        g = Graph()
        g.add_vertex(1)
        with pytest.raises(DuplicateVertex):
            g.add_vertex(1)

    def test_add_duplicate_exist_ok(self):
        g = Graph()
        g.add_vertex(1)
        g.add_vertex(1, exist_ok=True)
        assert g.num_vertices == 1

    def test_add_vertices_bulk(self):
        g = Graph()
        g.add_vertices([5, 2, 5, 9])
        assert g.vertex_list() == [2, 5, 9]

    def test_remove_vertex_returns_edges(self):
        g = Graph.from_edges([(0, 1, 2.0), (0, 2, 3.0), (1, 2, 1.0)])
        removed = g.remove_vertex(0)
        assert sorted((u, v) for u, v, _ in removed) == [(0, 1), (0, 2)]
        assert g.num_edges == 1
        assert not g.has_vertex(0)

    def test_remove_missing_vertex(self):
        with pytest.raises(VertexNotFound):
            Graph().remove_vertex(7)

    def test_max_and_next_vertex_id(self):
        g = Graph()
        assert g.max_vertex_id() == -1
        assert g.next_vertex_id() == 0
        g.add_vertices([3, 10])
        assert g.max_vertex_id() == 10
        assert g.next_vertex_id() == 11

    def test_len(self):
        g = Graph()
        g.add_vertices(range(4))
        assert len(g) == 4


class TestEdges:
    def test_add_edge_symmetric(self):
        g = Graph()
        g.add_vertices([0, 1])
        g.add_edge(0, 1, 2.5)
        assert g.weight(0, 1) == 2.5
        assert g.weight(1, 0) == 2.5
        assert g.num_edges == 1

    def test_add_edge_missing_endpoint(self):
        g = Graph()
        g.add_vertex(0)
        with pytest.raises(VertexNotFound):
            g.add_edge(0, 1)

    def test_self_loop_rejected(self):
        g = Graph()
        g.add_vertex(0)
        with pytest.raises(InvalidWeight):
            g.add_edge(0, 0)

    @pytest.mark.parametrize("w", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_weights_rejected(self, w):
        g = Graph()
        g.add_vertices([0, 1])
        with pytest.raises(InvalidWeight):
            g.add_edge(0, 1, w)

    def test_overwrite_updates_total_weight(self):
        g = Graph()
        g.add_vertices([0, 1])
        g.add_edge(0, 1, 2.0)
        g.add_edge(0, 1, 5.0)
        assert g.num_edges == 1
        assert g.total_weight == 5.0

    def test_remove_edge(self):
        g = Graph.from_edges([(0, 1, 4.0)])
        assert g.remove_edge(0, 1) == 4.0
        assert g.num_edges == 0
        assert not g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_remove_missing_edge(self):
        g = Graph.from_edges([(0, 1)])
        g.remove_edge(0, 1)
        with pytest.raises(EdgeNotFound):
            g.remove_edge(0, 1)

    def test_weight_missing_edge(self):
        g = Graph.from_edges([(0, 1)])
        g.add_vertex(2)
        with pytest.raises(EdgeNotFound):
            g.weight(0, 2)
        with pytest.raises(VertexNotFound):
            g.weight(9, 0)

    def test_edges_listed_once(self):
        g = complete_graph(5)
        edges = list(g.edges())
        assert len(edges) == 10
        assert all(u <= v for u, v, _w in edges)

    def test_edge_list_sorted(self):
        g = Graph.from_edges([(3, 1), (0, 2), (1, 0)])
        assert [(u, v) for u, v, _ in g.edge_list()] == [(0, 1), (0, 2), (1, 3)]

    def test_add_edges_creates_vertices(self):
        g = Graph()
        g.add_edges([(0, 1), (1, 2, 3.0)])
        assert g.num_vertices == 3
        assert g.weight(1, 2) == 3.0

    def test_total_weight_tracks_removals(self):
        g = Graph.from_edges([(0, 1, 2.0), (1, 2, 3.0)])
        g.remove_edge(0, 1)
        assert g.total_weight == 3.0


class TestNeighborhoods:
    def test_neighbors(self):
        g = path_graph(4)
        assert sorted(g.neighbors(1)) == [0, 2]

    def test_neighbor_items(self):
        g = Graph.from_edges([(0, 1, 2.0), (0, 2, 3.0)])
        assert dict(g.neighbor_items(0)) == {1: 2.0, 2: 3.0}

    def test_adjacency_of_is_copy(self):
        g = Graph.from_edges([(0, 1)])
        adj = g.adjacency_of(0)
        adj[99] = 1.0
        assert not g.has_edge(0, 99)

    def test_degree(self):
        g = path_graph(5)
        assert g.degree(0) == 1
        assert g.degree(2) == 2
        with pytest.raises(VertexNotFound):
            g.degree(99)

    def test_weighted_degree(self):
        g = Graph.from_edges([(0, 1, 2.0), (0, 2, 3.5)])
        assert g.weighted_degree(0) == 5.5

    def test_degrees_map(self):
        g = path_graph(3)
        assert g.degrees() == {0: 1, 1: 2, 2: 1}


class TestCSRExport:
    def test_full_export(self):
        g = Graph.from_edges([(0, 1, 2.0), (1, 2, 3.0)])
        view = g.to_csr()
        assert view.order == [0, 1, 2]
        dense = view.matrix.toarray()
        assert dense[0, 1] == 2.0
        assert dense[1, 0] == 2.0
        assert dense[1, 2] == 3.0
        assert dense[0, 2] == 0.0

    def test_sub_view_drops_external_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        view = g.to_csr([1, 2])
        dense = view.matrix.toarray()
        assert dense[view.index[1], view.index[2]] == 1.0
        assert view.matrix.nnz == 2  # only the 1-2 edge, both directions

    def test_duplicate_order_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.to_csr([0, 0, 1])

    def test_missing_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(VertexNotFound):
            g.to_csr([0, 99])

    def test_len(self):
        g = path_graph(4)
        assert len(g.to_csr()) == 4

    def test_view_is_frozen_snapshot(self):
        g = path_graph(4)
        view = g.to_csr()
        before = view.matrix.toarray()
        g.add_vertex(9)
        g.add_edge(9, 0, 2.5)
        g.add_edge(1, 2, 7.0)
        g.remove_edge(2, 3)
        np.testing.assert_array_equal(view.matrix.toarray(), before)
        assert view.order == [0, 1, 2, 3]

    def test_export_follows_mutations(self):
        g = path_graph(4)
        g.to_csr()
        g.add_vertex(9)
        g.add_edge(9, 0, 2.5)
        g.add_edge(1, 2, 7.0)
        g.remove_vertex(3)
        order = [9, 2, 1, 0]
        view = g.to_csr(order)
        expected = np.zeros((4, 4))
        for u, v, w in g.edges():
            i, j = order.index(u), order.index(v)
            expected[i, j] = expected[j, i] = w
        np.testing.assert_array_equal(view.matrix.toarray(), expected)


class TestCopyEq:
    def test_copy_is_deep(self):
        g = path_graph(3)
        h = g.copy()
        h.add_edge(0, 2)
        assert not g.has_edge(0, 2)
        assert h.num_edges == g.num_edges + 1

    def test_eq(self):
        a = Graph.from_edges([(0, 1, 2.0)])
        b = Graph.from_edges([(1, 0, 2.0)])
        assert a == b
        b.add_vertex(5)
        assert a != b

    def test_eq_weight_sensitive(self):
        a = Graph.from_edges([(0, 1, 2.0)])
        b = Graph.from_edges([(0, 1, 3.0)])
        assert a != b

    def test_eq_non_graph(self):
        assert Graph() != 42

    def test_repr(self):
        assert repr(path_graph(3)) == "Graph(n=3, m=2)"

    def test_from_edges_with_isolated(self):
        g = Graph.from_edges([(0, 1)], vertices=[7])
        assert g.has_vertex(7)
        assert g.degree(7) == 0
