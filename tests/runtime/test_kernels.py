"""The per-rank kernels in :mod:`repro.runtime.kernels.oracle`.

Covers the blocked batched min-plus fold (block clamping, infinite
source blocks, and the scatter writeback against the old full-submatrix
fold), the in-place edge-addition relaxation against the ``np.ix_``
gather/scatter it replaced (kernel-level and through whole dynamic
runs), source-chunked IA (chunks compose bitwise to the whole-rank
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.runtime.kernels.oracle as kernels
import repro.runtime.worker as worker_module
from repro import AnytimeAnywhereCloseness, AnytimeConfig, ResilienceConfig
from repro.bench.workloads import incremental_stream
from repro.graph import barabasi_albert, extract_local_subgraph
from repro.graph.changes import (
    ChangeBatch,
    ChangeStream,
    EdgeAddition,
    EdgeDeletion,
    VertexAddition,
)
from repro.model import DEFAULT_COST
from repro.partition import MultilevelPartitioner
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


# ----------------------------------------------------------------------
# edge-addition relaxation (Fig. 3 lines 26-34)
# ----------------------------------------------------------------------
def ix_edge_relax_reference(
    dv: np.ndarray, dirty_cols: np.ndarray, src_col: np.ndarray,
    w_row: np.ndarray,
) -> np.ndarray:
    """The former ``np.ix_`` relaxation, kept as the bitwise oracle.

    Gathers the finite-source-row x finite-target-column block, applies
    a masked update to the copy and scatters it back.
    """
    rows_f = np.flatnonzero(np.isfinite(src_col))
    cols_f = np.flatnonzero(np.isfinite(w_row))
    if rows_f.size == 0 or cols_f.size == 0:
        return rows_f[:0]
    sub = dv[np.ix_(rows_f, cols_f)]
    through = src_col[rows_f][:, None] + w_row[cols_f][None, :]
    mask = through < sub
    if not mask.any():
        return rows_f[:0]
    sub[mask] = through[mask]
    dv[np.ix_(rows_f, cols_f)] = sub
    dirty_cols[cols_f[mask.any(axis=0)]] = True
    return rows_f[mask.any(axis=1)]


#: dyadic fractions add exactly, so candidates often tie stored entries
_WEIGHTS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.5, 2.75, 4.0]),
    st.floats(0.01, 50.0, allow_nan=False, allow_infinity=False),
)
#: about one DV cell in four is +inf
_CELLS = st.one_of(_WEIGHTS, _WEIGHTS, _WEIGHTS, st.just(np.inf))


@st.composite
def edge_relax_cases(draw):
    """A DV block, two endpoint columns and their broadcast rows.

    Whole rows and columns may be +inf, and the first source column is
    drawn all-finite, partly finite or all-infinite.
    """
    n = draw(st.integers(1, 7))
    c = draw(st.integers(2, 10))
    dv = np.array(
        draw(st.lists(_CELLS, min_size=n * c, max_size=n * c))
    ).reshape(n, c)
    dv[draw(st.lists(st.integers(0, n - 1), max_size=2)), :] = np.inf
    dv[:, draw(st.lists(st.integers(0, c - 1), max_size=2))] = np.inf
    col_a, col_b = draw(
        st.lists(st.integers(0, c - 1), min_size=2, max_size=2, unique=True)
    )
    mode = draw(st.sampled_from(["finite", "mixed", "inf"]))
    if mode == "finite":
        dv[:, col_a] = draw(
            st.lists(_WEIGHTS, min_size=n, max_size=n)
        )
    elif mode == "inf":
        dv[:, col_a] = np.inf
    rows = []
    for col in (col_a, col_b):
        row = np.array(draw(st.lists(_CELLS, min_size=c, max_size=c)))
        row[col] = 0.0
        rows.append(row)
    return dv, col_a, col_b, rows[0], rows[1], draw(_WEIGHTS)


class TestEdgeRelaxKernel:
    """``edge_relax_kernel`` is bitwise the ``np.ix_`` relaxation."""

    @given(case=edge_relax_cases())
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_ix_reference(self, case):
        dv, col_a, col_b, row_a, row_b, w = case
        got, want = dv.copy(), dv.copy()
        dirty_got = np.zeros(dv.shape[1], dtype=bool)
        dirty_want = dirty_got.copy()
        # both orientations in sequence, as the worker runs them: the
        # second pass reads the first pass's writes
        for col_src, row in ((col_a, row_b), (col_b, row_a)):
            rows_got = kernels.edge_relax_kernel(
                got, dirty_got, got[:, col_src], w + row
            )
            rows_want = ix_edge_relax_reference(
                want, dirty_want, want[:, col_src], w + row
            )
            assert rows_got.tolist() == rows_want.tolist()
            assert dirty_got.tolist() == dirty_want.tolist()
            assert got.tobytes() == want.tobytes()

    def test_all_infinite_source_leaves_dv(self):
        dv = np.array([[0.0, np.inf], [1.0, np.inf]])
        before = dv.copy()
        dirty = np.zeros(2, dtype=bool)
        rows = kernels.edge_relax_kernel(
            dv, dirty, dv[:, 1], np.array([0.5, 0.5])
        )
        assert rows.size == 0
        assert not dirty.any()
        assert dv.tobytes() == before.tobytes()

    def test_partly_finite_source_relaxes_finite_rows_only(self):
        dv = np.array([[0.0, 5.0, 9.0], [np.inf, np.inf, 9.0]])
        dirty = np.zeros(3, dtype=bool)
        rows = kernels.edge_relax_kernel(
            dv, dirty, dv[:, 0], np.array([2.0, 1.0, 1.0])
        )
        assert rows.tolist() == [0]
        assert dirty.tolist() == [False, True, True]
        assert dv.tolist() == [[0.0, 1.0, 1.0], [np.inf, np.inf, 9.0]]


class TestWorkerEdgeRelax:
    """The worker runs both orientations in sequence and marks rows."""

    def test_second_pass_reads_first_pass_writes(self):
        g = barabasi_albert(40, 2, seed=3)
        part = MultilevelPartitioner(seed=3).partition(g, 4)
        idx = GlobalIndex(g.vertex_list())
        w = Worker(0, 4, idx, DEFAULT_COST)
        w.load_subgraph(
            extract_local_subgraph(g, part.block(0), part.assignment, 0)
        )
        w.run_initial_approximation()
        a = w.owned[0]
        b = next(v for v in g.vertex_list() if v not in w.row_of)
        col_a, col_b = idx.column(a), idx.column(b)
        rng = np.random.default_rng(0)
        # d(x, b) starts +inf on this rank: only the first pass's writes
        # into column b let the second pass improve anything
        assert np.isinf(w.dv[:, col_b]).all()
        row_a = rng.uniform(0.5, 6.0, size=w.n_cols)
        row_b = rng.uniform(0.5, 6.0, size=w.n_cols)
        row_a[col_a] = row_b[col_b] = 0.0
        want = w.dv.copy()
        dirty_want = w._dirty_cols.copy()
        improved = set()
        for col_src, row in ((col_a, row_b), (col_b, row_a)):
            improved.update(
                ix_edge_relax_reference(
                    want, dirty_want, want[:, col_src], 0.75 + row
                ).tolist()
            )
        w._changed_rows.clear()
        assert w.relax_with_edge_rows(a, row_a, b, row_b, 0.75)
        assert w.dv.tobytes() == want.tobytes()
        assert w._dirty_cols.tolist() == dirty_want.tolist()
        assert w._changed_rows == improved


def _edge_pin_run(strategy: str, backend: str):
    wl = incremental_stream(60, 6, 3, seed=5)
    engine = AnytimeAnywhereCloseness(
        wl.base,
        AnytimeConfig(
            nprocs=4, seed=5, collect_snapshots=False, backend=backend
        ),
    )
    engine.setup()
    res = engine.run(changes=wl.stream, strategy=strategy)
    engine.close()
    return (
        _bits(res.closeness),
        res.modeled_seconds.hex(),
        res.rc_steps,
        res.wire_words,
    )


class TestEdgeRelaxEnginePin:
    """Whole dynamic runs are unchanged with the reference swapped in."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("strategy", ["cutedge", "roundrobin"])
    def test_reference_run_matches(self, monkeypatch, strategy, backend):
        got = _edge_pin_run(strategy, backend)
        calls = []

        def reference(*args):
            calls.append(1)
            return ix_edge_relax_reference(*args)

        monkeypatch.setattr(worker_module, "edge_relax_kernel", reference)
        want = _edge_pin_run(strategy, backend)
        assert calls, "the reference relaxation never ran"
        assert got == want
