"""Unit tests for the Worker's numeric kernels."""

import numpy as np
import pytest

from repro.errors import WorkerError
from repro.graph import extract_local_subgraph
from repro.model import DEFAULT_COST
from repro.runtime import GlobalIndex, Worker

from ..conftest import path_graph


def make_worker(graph, owned, owner_map, rank=0, nprocs=2, index=None):
    index = index or GlobalIndex(graph.vertex_list())
    w = Worker(rank, nprocs, index, DEFAULT_COST)
    sub = extract_local_subgraph(graph, owned, owner_map, rank)
    w.load_subgraph(sub)
    return w


def path4_worker():
    """Path 0-1-2-3; rank 0 owns {0,1}, rank 1 owns {2,3}."""
    g = path_graph(4)
    owner = {0: 0, 1: 0, 2: 1, 3: 1}
    return g, make_worker(g, [0, 1], owner)


class TestLoadAndIA:
    def test_dv_initialized(self):
        _g, w = path4_worker()
        assert w.n_local == 2
        assert w.dv.shape == (2, 4)
        assert w.dv[w.row_of[0], 0] == 0.0
        assert np.isinf(w.dv[w.row_of[0], 3])

    def test_ia_computes_local_apsp(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        assert w.local_apsp[w.row_of[0], w.row_of[1]] == 1.0
        assert w.dv[w.row_of[0], 1] == 1.0
        assert np.isinf(w.dv[w.row_of[0], 2])  # remote: unknown after IA

    def test_ia_charges_compute(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        assert w.take_compute_seconds() > 0.0
        assert w.take_compute_seconds() == 0.0  # drained

    def test_seed_rows_reused(self):
        g = path_graph(4)
        owner = {0: 0, 1: 0, 2: 1, 3: 1}
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 2, idx, DEFAULT_COST)
        sub = extract_local_subgraph(g, [0, 1], owner, 0)
        seed = {0: np.array([0.0, 1.0, 2.0, 3.0])}
        w.load_subgraph(sub, seed_rows=seed)
        assert w.dv[w.row_of[0], 3] == 3.0

    def test_seed_row_for_foreign_vertex_rejected(self):
        g = path_graph(4)
        owner = {0: 0, 1: 0, 2: 1, 3: 1}
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 2, idx, DEFAULT_COST)
        sub = extract_local_subgraph(g, [0, 1], owner, 0)
        with pytest.raises(WorkerError):
            w.load_subgraph(sub, seed_rows={2: np.zeros(4)})


class TestMessaging:
    def test_subscribe_queues_current_row(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.build_payload(1)  # drain whatever IA queued
        w.subscribe(1, 1)
        payload = w.build_payload(1)
        assert set(payload) == {1}
        np.testing.assert_array_equal(payload[1], w.dv[w.row_of[1]])

    def test_subscribe_foreign_vertex_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.subscribe(2, 1)

    def test_changed_rows_requeued(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.subscribe(1, 1)
        w.build_payload(1)
        # a fresh external row improving vertex 1 re-queues it
        row2 = np.array([np.inf, np.inf, 0.0, 1.0])
        w.receive_rows({2: row2})
        assert w.relax_cut_edges()
        assert 1 in w.build_payload(1)

    def test_receive_wrong_width_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.receive_rows({2: np.zeros(3)})

    def test_unsubscribe_rank(self):
        _g, w = path4_worker()
        w.subscribe(1, 1)
        w.unsubscribe_rank(1)
        assert not w.build_payload(1)


class TestSubscriberLists:
    """Each owned vertex keeps its subscriber ranks sorted, without
    duplicates, through every path that edits them."""

    def _worker(self):
        g = path_graph(6)
        owner = {v: (0 if v < 4 else 1) for v in range(6)}
        return make_worker(g, [0, 1, 2, 3], owner, nprocs=6)

    def test_subscribe_and_record_keep_sorted_unique(self):
        w = self._worker()
        w.subscribe(2, 5)
        w.subscribe(2, 1)
        w.record_subscriber(2, 3)
        w.subscribe(2, 1)
        w.record_subscriber(2, 5)
        assert w.subscribers[2] == [1, 3, 5]

    def test_unsubscribe_rank_removes_from_every_list(self):
        w = self._worker()
        w.subscribe(1, 4)
        w.subscribe(2, 4)
        w.subscribe(2, 3)
        w.unsubscribe_rank(4)
        assert w.subscribers == {1: [], 2: [3]}

    def test_remove_local_vertex_drops_its_list(self):
        w = self._worker()
        w.run_initial_approximation()
        w.subscribe(1, 4)
        w.subscribe(2, 4)
        w.remove_local_vertex(2)
        assert w.subscribers == {1: [4]}

    def test_changed_row_queued_for_each_subscriber(self):
        w = self._worker()
        w.subscribe(2, 5)
        w.subscribe(2, 1)
        for dst in (1, 5):
            w.build_payload(dst)
        w._mark_rows_changed(np.array([w.row_of[2]]))
        assert w.pending_row_count() == 2
        for dst in (1, 5):
            w.build_payload(dst)
        assert w.pending_row_count() == 0

    def test_lose_state_clears_subscriptions_and_tracking(self):
        w = self._worker()
        w.run_initial_approximation()
        w.subscribe(2, 5)
        w.lose_state(w.n_cols)
        assert w.subscribers == {}
        assert np.isinf(w.dv).all()
        assert w.local_apsp.size == 0
        assert not w.has_pending()


class TestRelaxAndPropagate:
    def test_cut_relax_improves_boundary(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        row2 = np.array([np.inf, np.inf, 0.0, 1.0])
        w.receive_rows({2: row2})
        assert w.relax_cut_edges()
        assert w.dv[w.row_of[1], 2] == 1.0  # 1 -(1)- 2
        assert w.dv[w.row_of[1], 3] == 2.0

    def test_propagation_reaches_interior(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.propagate_local()  # consume IA's changed rows
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.relax_cut_edges()
        assert w.propagate_local()
        assert w.dv[w.row_of[0], 2] == 2.0  # 0-1 + cut edge 1-2
        assert w.dv[w.row_of[0], 3] == 3.0

    def test_stale_external_rows_not_rerelaxed(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.relax_cut_edges()
        assert not w.relax_cut_edges()  # nothing fresh

    def test_propagate_idempotent(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.propagate_local()
        assert not w.propagate_local()

    def test_monotone_nonincreasing(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        before = w.dv.copy()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.relax_cut_edges()
        w.propagate_local()
        assert np.all(w.dv <= before)


class TestDynamicColumnsAndVertices:
    def test_grow_columns(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.index.add(4)
        w.grow_columns(5)
        assert w.dv.shape == (2, 5)
        assert np.isinf(w.dv[:, 4]).all()

    def test_grow_columns_pads_external_rows(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.index.add(4)
        w.grow_columns(5)
        assert w.ext_dvs[2].size == 5

    def test_shrink_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.grow_columns(2)

    def test_add_local_vertex(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.index.add(4)
        w.grow_columns(5)
        r = w.add_local_vertex(4)
        assert w.dv[r, 4] == 0.0
        assert w.local_apsp.shape == (3, 3)
        assert w.local_apsp[r, r] == 0.0
        assert np.isinf(w.local_apsp[r, 0])

    def test_add_local_vertex_twice_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.add_local_vertex(0)

    def test_add_unindexed_vertex_rejected(self):
        _g, w = path4_worker()
        with pytest.raises(WorkerError):
            w.add_local_vertex(77)

    def test_add_local_edge_repairs_apsp(self):
        g = path_graph(4)
        owner = {v: 0 for v in range(4)}
        w = make_worker(g, [0, 1, 2, 3], owner, nprocs=1)
        w.run_initial_approximation()
        assert w.local_apsp[w.row_of[0], w.row_of[3]] == 3.0
        w.add_local_edge(0, 3, 1.0)
        assert w.local_apsp[w.row_of[0], w.row_of[3]] == 1.0
        assert w.local_apsp[w.row_of[1], w.row_of[3]] == 2.0
        assert w.dv[w.row_of[0], 3] == 1.0

    def test_add_cut_edge_registers(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.add_cut_edge(0, 3, 2.0)
        assert (0, 2.0) in w.cut_by_ext[3]
        assert w.cut_adj[0][3] == 2.0

    def test_add_cut_edge_replaces_duplicate(self):
        _g, w = path4_worker()
        w.add_cut_edge(0, 3, 2.0)
        w.add_cut_edge(0, 3, 1.0)
        assert w.cut_by_ext[3] == [(0, 1.0)]

    def test_remove_cut_edge_cleans_up(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.remove_cut_edge(1, 2)
        assert 2 not in w.cut_by_ext
        assert 2 not in w.ext_dvs


class TestEdgeRowRelaxation:
    def test_relax_with_edge_rows(self):
        g = path_graph(4)
        owner = {v: 0 for v in range(4)}
        w = make_worker(g, [0, 1, 2, 3], owner, nprocs=1)
        w.run_initial_approximation()
        row0 = w.dv_row(0)
        row3 = w.dv_row(3)
        assert w.relax_with_edge_rows(0, row0, 3, row3, 1.0)
        assert w.dv[w.row_of[0], 3] == 1.0
        assert w.dv[w.row_of[1], 3] == 2.0

    def test_relax_no_improvement(self):
        g = path_graph(3)
        owner = {v: 0 for v in range(3)}
        w = make_worker(g, [0, 1, 2], owner, nprocs=1)
        w.run_initial_approximation()
        row0, row1 = w.dv_row(0), w.dv_row(1)
        assert not w.relax_with_edge_rows(0, row0, 1, row1, 5.0)


class TestDeletionKernels:
    def test_invalidate_for_deleted_edge(self):
        g = path_graph(4)
        owner = {v: 0 for v in range(4)}
        w = make_worker(g, [0, 1, 2, 3], owner, nprocs=1)
        w.run_initial_approximation()
        row1, row2 = w.dv_row(1), w.dv_row(2)
        count = w.invalidate_for_deleted_edge(1, row1, 2, row2, 1.0)
        # pairs crossing the 1-2 edge: (0,2),(0,3),(1,2),(1,3),(2,3) and
        # symmetric counterparts that live in these rows
        assert count == 8
        assert np.isinf(w.dv[w.row_of[0], 2])
        assert w.dv[w.row_of[0], 1] == 1.0  # untouched: avoids the edge
        assert w.dv[w.row_of[0], 0] == 0.0  # diagonal preserved

    def test_invalidate_through_vertex(self):
        g = path_graph(3)
        owner = {v: 0 for v in range(3)}
        w = make_worker(g, [0, 1, 2], owner, nprocs=1)
        w.run_initial_approximation()
        row1 = w.dv_row(1)
        count = w.invalidate_through_vertex(1, row1)
        assert count == 2  # (0,2) and (2,0)
        assert np.isinf(w.dv[w.row_of[0], 2])
        assert w.dv[w.row_of[0], 1] == 1.0  # direct edge untouched

    def test_restore_local_baseline(self):
        g = path_graph(3)
        owner = {v: 0 for v in range(3)}
        w = make_worker(g, [0, 1, 2], owner, nprocs=1)
        w.run_initial_approximation()
        w.dv[:] = np.inf
        w.restore_local_baseline()
        assert w.dv[w.row_of[0], 2] == 2.0

    def test_remove_column(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.remove_column(3)
        assert w.dv.shape == (2, 3)
        assert w.ext_dvs[2].size == 3

    def test_remove_local_vertex(self):
        g = path_graph(4)
        owner = {v: 0 for v in range(4)}
        w = make_worker(g, [0, 1, 2, 3], owner, nprocs=1)
        w.run_initial_approximation()
        w.remove_local_vertex(1)
        assert w.owned == [0, 2, 3]
        assert w.row_of == {0: 0, 2: 1, 3: 2}
        assert w.dv.shape == (3, 4)
        assert w.local_apsp.shape == (3, 3)

    def test_drop_external_vertex(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        w.receive_rows({2: np.array([np.inf, np.inf, 0.0, 1.0])})
        w.drop_external_vertex(2)
        assert 2 not in w.ext_dvs
        assert 2 not in w.cut_by_ext
        assert not any(2 in d for d in w.cut_adj.values())


class TestQueries:
    def test_dv_row_is_copy(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        row = w.dv_row(0)
        row[0] = 99.0
        assert w.dv[w.row_of[0], 0] == 0.0

    def test_extract_rows(self):
        _g, w = path4_worker()
        w.run_initial_approximation()
        rows = w.extract_rows([0, 1])
        assert set(rows) == {0, 1}

    def test_local_boundary_vertices(self):
        _g, w = path4_worker()
        assert w.local_boundary_vertices() == [1]

    def test_repr(self):
        _g, w = path4_worker()
        assert "rank=0" in repr(w)
