"""Compute kernels shared by the serial and process backends.

The heavy per-rank work of the two parallelizable phases — the IA-phase
local Dijkstra and the RC-step superstep (cut-edge relaxation + local
min-plus propagation) — lives in :mod:`.oracle` as plain module
functions, next to the per-edge relaxation of vertex additions.
Kernels touch only a picklable *task* (:mod:`.tasks`, built by the
worker in the coordinating process) and the worker's two large
matrices ``dv`` / ``local_apsp``, passed in explicitly so a subprocess
can supply shared-memory views.  Everything stateful (change tracking,
subscriber queues, modeled LogP charges, counters) stays in
:class:`~repro.runtime.worker.Worker`, which splits each phase into
*prepare* (build the task), *kernel* (this package, runnable anywhere),
and *apply* (charges + bookkeeping).  Charges are computed from task
shape only, which is what keeps the modeled clock, traces and fault
accounting invariant across backends.
"""

from __future__ import annotations

from .oracle import (
    edge_relax_kernel,
    ia_chunk_kernel,
    ia_chunks,
    ia_kernel,
    minplus_fold,
    relax_cut_kernel,
    run_superstep,
)
from .tasks import (
    ChunkList,
    IATask,
    IndexArray,
    RelaxItems,
    SuperstepResult,
    SuperstepTask,
)

__all__ = [
    "ChunkList",
    "IATask",
    "IndexArray",
    "RelaxItems",
    "SuperstepResult",
    "SuperstepTask",
    "edge_relax_kernel",
    "ia_chunk_kernel",
    "ia_chunks",
    "ia_kernel",
    "minplus_fold",
    "relax_cut_kernel",
    "run_superstep",
]
