"""Anytime snapshots: interruptible intermediate results.

The *anytime* property means the algorithm can be stopped after any RC step
and yield a non-trivial solution whose quality improves monotonically.  A
snapshot captures the solution (closeness upper-bound estimates derived
from the current DVs) together with the modeled clock, so quality-vs-time
curves can be plotted and the monotonicity invariant property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict

import numpy as np

from ..centrality.closeness import closeness_from_row
from ..types import FloatArray, VertexId

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.cluster import Cluster

__all__ = ["AnytimeSnapshot", "measure_rows", "take_snapshot"]


@dataclass
class AnytimeSnapshot:
    """The interruptible state after one RC step."""

    step: int
    modeled_seconds: float
    wall_seconds: float
    closeness: Dict[VertexId, float]
    #: number of (source, target) pairs still at +inf
    unresolved_pairs: int
    #: number of vertices in the computation at snapshot time
    n_vertices: int

    @property
    def resolved_fraction(self) -> float:
        total = self.n_vertices * self.n_vertices
        if total == 0:
            return 1.0
        return 1.0 - self.unresolved_pairs / total


def measure_rows(
    cluster: "Cluster", fn: Callable[[FloatArray, int], float]
) -> Dict[VertexId, float]:
    """``fn(row, own column)`` of every owned DV row, rank by rank (pure
    observation — not charged to the modeled clock)."""
    return {
        v: fn(w.dv[w.row_of[v]], cluster.index.column(v))
        for w in cluster.workers
        for v in w.owned
    }


def take_snapshot(
    cluster: "Cluster", step: int, *, wf_improved: bool = False
) -> AnytimeSnapshot:
    """Capture the current solution (pure observation — not charged to the
    modeled clock)."""
    closeness = measure_rows(
        cluster,
        lambda row, c: closeness_from_row(
            row, self_col=c, wf_improved=wf_improved
        ),
    )
    unresolved = sum(
        int(w.dv.size - np.isfinite(w.dv).sum()) for w in cluster.workers
    )
    return AnytimeSnapshot(
        step=step,
        modeled_seconds=cluster.tracer.modeled_seconds,
        wall_seconds=cluster.tracer.wall_seconds,
        closeness=closeness,
        unresolved_pairs=unresolved,
        n_vertices=cluster.n_columns,
    )
