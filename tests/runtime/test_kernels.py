"""The per-rank kernels in :mod:`repro.runtime.kernels.oracle`.

Covers the blocked batched min-plus fold (block clamping, infinite
source blocks, and the scatter writeback against the old full-submatrix
fold), source-chunked IA (chunks compose bitwise to the whole-rank
Dijkstra), the process backend's chunked IA against the serial backend
on static, dynamic and fault-injected runs, and the cached sorted
subscriber lists on :class:`Worker`.  Every variant must be
bitwise-equal to its reference.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

import repro.runtime.kernels.oracle as kernels
from repro import AnytimeAnywhereCloseness, AnytimeConfig, ResilienceConfig
from repro.graph import barabasi_albert, extract_local_subgraph
from repro.graph.changes import (
    ChangeBatch,
    ChangeStream,
    EdgeAddition,
    EdgeDeletion,
    VertexAddition,
)
from repro.model import DEFAULT_COST
from repro.runtime import GlobalIndex, Worker
from repro.runtime.chaos import FaultPlan
from repro.runtime.kernels import IATask

from ..conftest import path_graph


def unblocked_reference(
    apsp: np.ndarray, dv: np.ndarray, rows: List[int], cols: np.ndarray
) -> np.ndarray:
    """One source per np.minimum call — the obviously-correct fold."""
    dv = dv.copy()
    a = apsp[:, rows]
    b = dv[np.asarray(rows)][:, cols]
    cand = np.full((apsp.shape[0], len(cols)), np.inf, dtype=np.float64)
    for j in range(len(rows)):
        np.minimum(cand, a[:, j][:, None] + b[j][None, :], out=cand)
    sub = dv[:, cols]
    improved = cand < sub
    sub[improved] = cand[improved]
    dv[:, cols] = sub
    return dv


def random_case(seed: int, n: int = 12, n_cols: int = 30):
    rng = np.random.default_rng(seed)
    apsp = rng.uniform(0.5, 8.0, size=(n, n))
    np.fill_diagonal(apsp, 0.0)
    dv = rng.uniform(0.5, 20.0, size=(n, n_cols))
    dv[rng.random(dv.shape) < 0.2] = np.inf
    rows = sorted(rng.choice(n, size=max(2, n // 2), replace=False).tolist())
    cols = np.flatnonzero(rng.random(n_cols) < 0.7)
    return apsp, dv, rows, cols


class _CountingMin:
    """Wrap np.min to count per-block reductions inside the fold."""

    def __init__(self):
        self.calls = 0
        self._min = np.min

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._min(*args, **kwargs)


class TestBlockClamping:
    def test_block_clamps_to_one_when_budget_exceeded(self, monkeypatch):
        apsp, dv, rows, cols = random_case(seed=1)
        expected = unblocked_reference(apsp, dv, rows, cols)
        # budget of 1 element < n * c, so the clamp must kick in
        monkeypatch.setattr(kernels, "_MINPLUS_BLOCK_ELEMS", 1)
        counter = _CountingMin()
        monkeypatch.setattr(kernels.np, "min", counter)
        got = dv.copy()
        kernels.minplus_fold(apsp, got, rows, cols)
        # one reduction per source == block size was clamped to 1
        assert counter.calls == len(rows)
        assert got.tobytes() == expected.tobytes()

    def test_max_block_cap_respected(self, monkeypatch):
        apsp, dv, rows, cols = random_case(seed=2)
        expected = unblocked_reference(apsp, dv, rows, cols)
        # huge budget, but the per-call source cap forces 2-wide blocks
        monkeypatch.setattr(kernels, "_MINPLUS_MAX_BLOCK", 2)
        counter = _CountingMin()
        monkeypatch.setattr(kernels.np, "min", counter)
        got = dv.copy()
        kernels.minplus_fold(apsp, got, rows, cols)
        assert counter.calls == -(-len(rows) // 2)  # ceil(k / 2)
        assert got.tobytes() == expected.tobytes()


class TestInfiniteSourceBlocks:
    def test_all_infinite_source_blocks_skipped(self, monkeypatch):
        apsp, dv, rows, cols = random_case(seed=3)
        # make every selected source column of apsp infinite except two:
        # with block size 1, only those two blocks may reduce
        finite = {rows[0], rows[-1]}
        for r in rows:
            if r not in finite:
                apsp[:, r] = np.inf
        expected = unblocked_reference(apsp, dv, rows, cols)
        monkeypatch.setattr(kernels, "_MINPLUS_BLOCK_ELEMS", 1)
        counter = _CountingMin()
        monkeypatch.setattr(kernels.np, "min", counter)
        got = dv.copy()
        kernels.minplus_fold(apsp, got, rows, cols)
        assert counter.calls == len(finite)
        assert got.tobytes() == expected.tobytes()

    def test_partial_infinite_block_compacted(self, monkeypatch):
        # block of 4 with 2 infinite sources: the kernel compacts the
        # block instead of skipping it, still bitwise-equal
        apsp, dv, rows, cols = random_case(seed=4)
        apsp[:, rows[1]] = np.inf
        apsp[:, rows[2]] = np.inf
        expected = unblocked_reference(apsp, dv, rows, cols)
        monkeypatch.setattr(kernels, "_MINPLUS_MAX_BLOCK", 4)
        got = dv.copy()
        kernels.minplus_fold(apsp, got, rows, cols)
        assert got.tobytes() == expected.tobytes()

    def test_all_sources_infinite_no_write(self, monkeypatch):
        apsp, dv, rows, cols = random_case(seed=5)
        for r in rows:
            apsp[:, r] = np.inf
        before = dv.copy()
        counter = _CountingMin()
        monkeypatch.setattr(kernels.np, "min", counter)
        improved = kernels.minplus_fold(apsp, dv, rows, cols)
        assert counter.calls == 0
        assert improved == []
        assert dv.tobytes() == before.tobytes()


class TestPropagateLocalUsesBlockedFold:
    """End-to-end through the worker: blocking is invisible bitwise."""

    def _worker(self):
        g = path_graph(6)
        owner = {v: (0 if v < 4 else 1) for v in range(6)}
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 2, idx, DEFAULT_COST)
        w.load_subgraph(extract_local_subgraph(g, [0, 1, 2, 3], owner, 0))
        w.run_initial_approximation()
        return w

    def test_block_size_does_not_change_dv(self, monkeypatch):
        baseline = self._worker()
        baseline.propagate_local()
        monkeypatch.setattr(kernels, "_MINPLUS_BLOCK_ELEMS", 1)
        clamped = self._worker()
        clamped.propagate_local()
        assert clamped.dv.tobytes() == baseline.dv.tobytes()


class TestScatterFoldRegression:
    """The scatter writeback equals the old full-submatrix writeback."""

    @staticmethod
    def _old_fold(apsp, dv, rows, cols):
        """The pre-scatter ending: write the whole dv[:, cols] submatrix."""
        a = apsp[:, rows]
        b = dv[np.asarray(rows)][:, cols]
        cand = np.full((apsp.shape[0], len(cols)), np.inf, dtype=np.float64)
        for j in range(len(rows)):
            np.minimum(cand, a[:, j][:, None] + b[j][None, :], out=cand)
        sub = dv[:, cols]
        improved = cand < sub
        if not improved.any():
            return []
        sub[improved] = cand[improved]
        dv[:, cols] = sub
        return [int(r) for r in np.flatnonzero(improved.any(axis=1))]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_scatter_bitwise_equivalent(self, seed):
        apsp, dv, rows, cols = random_case(seed, n=14, n_cols=25)
        dv_old = dv.copy()
        dv_new = dv.copy()
        old_rows = self._old_fold(apsp, dv_old, rows, cols)
        new_rows = kernels.minplus_fold(apsp, dv_new, rows, cols)
        assert new_rows == old_rows
        assert dv_new.tobytes() == dv_old.tobytes()

    def test_no_improvement_leaves_dv_untouched(self):
        apsp = np.zeros((3, 3))
        dv = np.zeros((3, 4))
        before = dv.copy()
        assert kernels.minplus_fold(apsp, dv, [0, 1], np.arange(4)) == []
        assert dv.tobytes() == before.tobytes()


class TestChunkedIAEquivalence:
    """Source-chunked IA composes to the whole-rank kernel, bitwise."""

    def _task(self, n=40, seed=3):
        g = barabasi_albert(n, 2, seed=seed)
        view = g.to_csr()
        rng = np.random.default_rng(seed)
        cols = np.arange(n, dtype=np.intp)
        dv = rng.uniform(0.5, 30.0, size=(n, n))
        return (
            IATask(matrix=view.matrix, cols=cols, n=n, nnz=view.matrix.nnz),
            dv,
        )

    def test_chunks_partition_sources(self):
        task, _ = self._task(n=500)
        chunks = kernels.ia_chunks(task, parallelism=3)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == task.n
        for (_, hi), (lo2, _) in zip(chunks, chunks[1:]):
            assert hi == lo2
        assert len(chunks) > 1

    def test_small_problem_single_chunk(self):
        task, _ = self._task(n=40)
        assert kernels.ia_chunks(task, parallelism=8) == [(0, 40)]

    def test_chunked_equals_full_bitwise(self):
        task, dv0 = self._task()
        n = task.n
        dv_full = dv0.copy()
        apsp_full = np.zeros((n, n))
        kernels.ia_kernel(task, dv_full, apsp_full)
        dv_chunk = dv0.copy()
        apsp_chunk = np.zeros((n, n))
        for lo, hi in [(0, 13), (13, 29), (29, n)]:
            kernels.ia_chunk_kernel(task, lo, hi, dv_chunk, apsp_chunk)
        assert dv_chunk.tobytes() == dv_full.tobytes()
        assert apsp_chunk.tobytes() == apsp_full.tobytes()


def _bits(closeness: Dict[int, float]) -> List[Tuple[int, bytes]]:
    return [(v, struct.pack("<d", closeness[v])) for v in sorted(closeness)]


def _trace(engine: AnytimeAnywhereCloseness) -> List[Dict[str, Any]]:
    records = []
    for rec in engine.cluster.tracer.to_json()["records"]:
        rec = dict(rec)
        rec.pop("wall_seconds", None)
        records.append(rec)
    return records


def _changes() -> ChangeStream:
    return ChangeStream(
        {
            1: ChangeBatch(
                vertex_additions=[
                    VertexAddition(200, ((3, 1.0), (11, 1.0))),
                    VertexAddition(201, ((200, 1.0), (0, 1.0))),
                ],
                edge_additions=[EdgeAddition(5, 40)],
            ),
            2: ChangeBatch(edge_deletions=[EdgeDeletion(5, 40)]),
        }
    )


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=11,
        crashes=((2, 1),),
        loss_prob=0.15,
        dup_prob=0.05,
        send_failure_prob=0.05,
    )


def _run(backend: str, *, dynamic: bool = False, faulty: bool = False):
    g = barabasi_albert(70, 2, seed=7)
    engine = AnytimeAnywhereCloseness(
        g,
        AnytimeConfig(
            nprocs=4, seed=7, collect_snapshots=False, backend=backend
        ),
    )
    engine.setup()
    kwargs: Dict[str, Any] = {}
    if dynamic:
        kwargs["changes"] = _changes()
        kwargs["strategy"] = "cutedge"
    if faulty:
        kwargs["resilience"] = ResilienceConfig(fault_plan=_fault_plan())
    res = engine.run(**kwargs)
    summary = res.summary()
    summary.pop("wall_seconds", None)
    fingerprint = (
        _bits(res.closeness),
        res.rc_steps,
        res.modeled_seconds,
        summary,
        _trace(engine),
    )
    engine.cluster.close()
    return fingerprint


class TestChunkedProcessMatchesSerial:
    """The process backend's chunked IA merges to the serial bits."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        # ranks of this graph hold ~18 vertices; shrink the minimum chunk
        # so every rank's IA really fans out into several pool futures
        monkeypatch.setattr(kernels, "_MIN_CHUNK", 4)
        task = IATask(matrix=None, cols=np.arange(18), n=18, nnz=0)
        assert len(kernels.ia_chunks(task, parallelism=4)) > 1

    def test_static(self):
        assert _run("process") == _run("serial")

    def test_dynamic(self):
        assert _run("process", dynamic=True) == _run("serial", dynamic=True)

    def test_dynamic_faulty(self):
        assert _run("process", dynamic=True, faulty=True) == _run(
            "serial", dynamic=True, faulty=True
        )


class TestSubscriberMemo:
    """Sorted subscriber lists are cached, not re-sorted per row."""

    def _worker(self):
        g = path_graph(6)
        owner = {v: (0 if v < 4 else 1) for v in range(6)}
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 6, idx, DEFAULT_COST)
        w.load_subgraph(extract_local_subgraph(g, [0, 1, 2, 3], owner, 0))
        return w

    def test_sorted_and_cached(self):
        w = self._worker()
        w.subscribe(2, 5)
        w.subscribe(2, 1)
        w.subscribe(2, 3)
        first = w._sorted_subscribers(2)
        assert first == [1, 3, 5]
        assert w._sorted_subscribers(2) is first  # memo hit

    def test_subscribe_invalidates_memo(self):
        w = self._worker()
        w.subscribe(2, 5)
        assert w._sorted_subscribers(2) == [5]
        w.subscribe(2, 1)
        assert w._sorted_subscribers(2) == [1, 5]

    def test_record_subscriber_invalidates_memo(self):
        w = self._worker()
        w.subscribe(2, 5)
        assert w._sorted_subscribers(2) == [5]
        w.record_subscriber(2, 3)
        assert w._sorted_subscribers(2) == [3, 5]
        assert w.subscribers[2] == {3, 5}

    def test_unsubscribe_rank_invalidates_memo(self):
        w = self._worker()
        w.subscribe(2, 5)
        w.subscribe(2, 3)
        assert w._sorted_subscribers(2) == [3, 5]
        w.unsubscribe_rank(5)
        assert w._sorted_subscribers(2) == [3]

    def test_assignment_resets_memo(self):
        w = self._worker()
        w.subscribe(2, 5)
        assert w._sorted_subscribers(2) == [5]
        w.subscribers = {}
        assert w._sorted_subscribers(2) == []
