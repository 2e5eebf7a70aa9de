"""The per-rank compute kernels, as plain NumPy/SciPy module functions.

The serial backend runs these statements in the coordinating process;
the process backend runs the very same functions in pool children
against shared-memory views of ``dv`` / ``local_apsp``.  The only
scheduling difference is that the process backend splits one rank's IA
into source chunks (:func:`ia_chunks`), which compose bitwise to the
whole-rank :func:`ia_kernel` (see :func:`ia_chunk_kernel`), so both
backends produce identical results.  :func:`edge_relax_kernel` runs in
the coordinating process on both backends: each edge's relaxation reads
rows the previous edges wrote.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np
import scipy.sparse.csgraph as csgraph

from ...types import BoolArray, FloatArray
from .tasks import (
    ChunkList,
    IATask,
    IndexArray,
    RelaxItems,
    SuperstepResult,
    SuperstepTask,
)

__all__ = [
    "ia_kernel",
    "ia_chunk_kernel",
    "ia_chunks",
    "relax_cut_kernel",
    "edge_relax_kernel",
    "minplus_fold",
    "run_superstep",
]

#: Cap on the float64 element count of the batched min-plus broadcast
#: temporary (``n_rows x block x n_cols``); 2**18 elements = 2 MB, which
#: stays near the cache where a larger block only adds memory traffic.
_MINPLUS_BLOCK_ELEMS = 1 << 18

#: Max sources folded per ``np.minimum`` call in the batched kernel.
_MINPLUS_MAX_BLOCK = 64

#: Target IA chunks per pool slot: enough to load-balance uneven ranks
#: without drowning the pool in per-task overhead.
_CHUNKS_PER_SLOT = 4

#: Minimum sources per IA chunk; below this the submit/pickle overhead
#: dominates the Dijkstra work.
_MIN_CHUNK = 64


def ia_kernel(task: IATask, dv: FloatArray, apsp: FloatArray) -> None:
    """Local APSP (the paper's multithreaded Dijkstra) + DV column fold.

    Writes into the caller-allocated ``apsp`` (shape ``(n, n)``) and
    folds it into the owned columns of ``dv`` in place.
    """
    apsp[:, :] = csgraph.dijkstra(task.matrix, directed=False)
    cols = task.cols
    # fancy indexing yields a copy, so an out= write would be lost;
    # assign the minimum back explicitly
    dv[:, cols] = np.minimum(dv[:, cols], apsp)


def ia_chunk_kernel(
    task: IATask, lo: int, hi: int, dv: FloatArray, apsp: FloatArray
) -> None:
    """IA restricted to sources ``[lo, hi)``; bitwise-equal to the full run.

    Dijkstra computes each source independently, so the ``indices=``
    rows equal the same rows of the full all-sources call, and the fold
    touches only DV rows ``[lo, hi)`` (source ``s`` folds
    ``apsp[s, j]`` into ``dv[s, cols[j]]``) — chunks write disjoint row
    ranges of both matrices and compose, in any order or concurrently,
    to exactly the full :func:`ia_kernel` outcome.
    """
    apsp[lo:hi, :] = csgraph.dijkstra(
        task.matrix, directed=False, indices=np.arange(lo, hi)
    )
    cols = task.cols
    dv[lo:hi, cols] = np.minimum(dv[lo:hi, cols], apsp[lo:hi, :])


def ia_chunks(task: IATask, parallelism: int) -> ChunkList:
    """Split ``task``'s sources into ``[lo, hi)`` chunks for the pool.

    ``parallelism`` is the number of pool slots.  Small tasks stay one
    chunk ``[(0, n)]``; larger ones split into about
    ``_CHUNKS_PER_SLOT`` chunks per slot of at least ``_MIN_CHUNK``
    sources each, so one rank's Dijkstra can fan out across the pool.
    """
    n = task.n
    size = max(_MIN_CHUNK, -(-n // max(1, parallelism * _CHUNKS_PER_SLOT)))
    if size >= n:
        return [(0, n)]
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def relax_cut_kernel(
    dv: FloatArray,
    dirty_cols: BoolArray,
    items: RelaxItems,
) -> List[int]:
    """Cut-edge relaxation: ``d(u,t) <- min(d(u,t), w(u,x) + d(x,t))``.

    Mutates ``dv`` and ``dirty_cols`` in place; returns the sorted local
    rows that improved.  Item order is fixed by the caller (sorted
    external vertex, then cut-edge registration order), so repeated runs
    relax in the same sequence.
    """
    improved: Set[int] = set()
    for row_x, pairs in items:
        for r, w in pairs:
            cand = row_x + w
            mask = cand < dv[r]
            if mask.any():
                dv[r][mask] = cand[mask]
                dirty_cols |= mask
                improved.add(r)
    return sorted(improved)


def edge_relax_kernel(
    dv: FloatArray,
    dirty_cols: BoolArray,
    src_col: FloatArray,
    w_row: FloatArray,
) -> IndexArray:
    """Edge-addition relaxation: ``d(x,t) <- min(d(x,t), d(x,s) + w_row(t))``.

    One orientation of the Fig. 3 lines 26-34 update: ``src_col`` holds
    ``d(x,s)`` for every local row ``x`` (it may be a view of a ``dv``
    column; the candidate is built before any write) and ``w_row`` holds
    ``w + d(s',t)`` from the far endpoint's broadcast row.  Mutates
    ``dv`` and ``dirty_cols`` in place; returns the sorted local rows
    that improved.  Rows with an infinite source entry are skipped, since
    ``inf + w`` improves nothing; all other rows are relaxed against
    every column, so the result is bitwise the masked update's.
    """
    finite = np.isfinite(src_col)
    if finite.all():
        return _relax_rank1(dv, dirty_cols, src_col, w_row)
    rows = np.flatnonzero(finite)
    if rows.size == 0:
        return rows
    sub = dv[rows]
    improved = _relax_rank1(sub, dirty_cols, src_col[rows], w_row)
    if improved.size:
        dv[rows] = sub
    return rows[improved]


def _relax_rank1(
    dv: FloatArray,
    dirty_cols: BoolArray,
    src_col: FloatArray,
    w_row: FloatArray,
) -> IndexArray:
    """``dv <- min(dv, src_col + w_row)`` in place; returns improved rows."""
    # bitwise src_col[:, None] + w_row[None, :]; filling the rows first
    # and adding w_row in place runs about a third faster
    cand = np.empty(dv.shape)
    cand[...] = src_col[:, None]
    cand += w_row
    mask = cand < dv
    rows_hit = mask.any(axis=1)
    if rows_hit.any():
        # equal entries keep their bits and NaNs never occur, so the
        # minimum rewrites exactly the entries the mask selects
        np.minimum(dv, cand, out=dv)
        dirty_cols |= mask.any(axis=0)
    return np.flatnonzero(rows_hit)


def minplus_fold(
    apsp: FloatArray, dv: FloatArray, rows: List[int], cols: IndexArray
) -> List[int]:
    """Blocked batched min-plus fold; returns the sorted rows improved.

    ``d(x,t) <- min_k apsp(x,k) + d(k,t)`` over changed sources ``k``
    (``rows``) and dirty targets ``t`` (``cols``), written back into
    ``dv`` in place.  Folds up to 64 sources per ``np.minimum`` call,
    with the ``(n x block x c)`` broadcast temporary capped at
    ``_MINPLUS_BLOCK_ELEMS`` (2 MB), so large ranks fold fewer sources
    per call rather than build a temporary that overflows the cache.
    Bitwise-identical to a per-source fold: float64 min is exact and
    order-independent, and distances never produce NaNs.

    The write-back scatters only the entries that improved instead of
    assigning the whole ``dv[:, cols]`` submatrix — bitwise-equivalent
    (unimproved entries are rewritten with their own value either way)
    but proportional to the improvement count, which is small in late
    supersteps.
    """
    n = apsp.shape[0]
    a = apsp[:, rows]                  # (n, k)
    b = dv[np.asarray(rows)][:, cols]  # (k, c)
    c = len(cols)
    cand = np.full((n, c), np.inf, dtype=np.float64)
    block = max(
        1, min(_MINPLUS_MAX_BLOCK, _MINPLUS_BLOCK_ELEMS // max(1, n * c))
    )
    k = len(rows)
    for j0 in range(0, k, block):
        ab = a[:, j0:j0 + block]                    # (n, bk)
        keep = np.isfinite(ab).any(axis=0)
        if not keep.any():
            continue
        if not keep.all():
            ab = ab[:, keep]
        bb = b[j0:j0 + block][keep]                 # (bk, c)
        np.minimum(
            cand,
            np.min(ab[:, :, None] + bb[None, :, :], axis=1),
            out=cand,
        )
    improved = cand < dv[:, cols]
    if not improved.any():
        return []
    # np.nonzero walks row-major, matching cand[improved]'s element order
    r_idx, c_idx = np.nonzero(improved)
    dv[r_idx, cols[c_idx]] = cand[improved]
    return [int(r) for r in np.flatnonzero(improved.any(axis=1))]


def run_superstep(
    task: SuperstepTask, dv: FloatArray, apsp: FloatArray
) -> SuperstepResult:
    """One rank's full RC superstep: relaxation then propagation.

    Mirrors the serial ``relax_cut_edges`` + ``propagate_local`` pair
    decision-for-decision; the only difference is that change-tracking
    state arrives snapshotted inside ``task`` and the outcomes travel
    back in a :class:`SuperstepResult` instead of mutating the worker.
    """
    dirty = task.dirty_cols
    relax_improved = relax_cut_kernel(dv, dirty, task.relax_items)
    n = task.n
    if n == 0:
        return SuperstepResult(relax_improved=relax_improved)
    if task.full_repropagate:
        rows = list(range(n))
        col_mask = np.ones(task.n_cols, dtype=bool)
    else:
        rows = sorted(set(task.changed_rows) | set(relax_improved))
        col_mask = dirty
    if not rows or not col_mask.any():
        return SuperstepResult(relax_improved=relax_improved)
    cols = np.flatnonzero(col_mask)
    prop_improved = minplus_fold(apsp, dv, rows, cols)
    return SuperstepResult(
        relax_improved=relax_improved,
        prop_charged=True,
        prop_improved=prop_improved,
    )
