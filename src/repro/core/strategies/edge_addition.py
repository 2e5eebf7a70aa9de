"""Anywhere edge addition (Santos et al. 2016 [9]) — shared machinery.

Adding edge ``(a, b, w)``:

1. the owners of ``a`` and ``b`` broadcast their current DV rows
   (binomial tree, Fig. 3 line 22),
2. every processor relaxes all of its rows through the new edge:
   ``d(x,t) <- min(d(x,t), d(x,a)+w+d(b,t), d(x,b)+w+d(a,t))``
   (Fig. 3 lines 26-34),
3. the edge joins the owning sub-graph(s): an intra-partition edge repairs
   the owner's local APSP incrementally; a cut edge registers on both
   sides and opens DV-row subscriptions (Fig. 3 lines 35-42).

The vertex-addition strategy runs this for every edge of a new vertex
and for every standalone edge addition of a batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...types import VertexId

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.cluster import Cluster

__all__ = ["apply_edge_addition"]


def apply_edge_addition(
    cluster: "Cluster", a: VertexId, b: VertexId, w: float, *,
    update_graph: bool = True,
) -> None:
    """Incorporate one new edge into the running computation.

    ``update_graph=False`` lets callers that already applied the batch to
    the global graph (repartition, batch appliers) skip the double insert.
    """
    if update_graph:
        if cluster.graph.has_edge(a, b):
            # parallel edges collapse to the lighter one; a heavier
            # duplicate changes nothing (weight *increases* must go through
            # the deletion path, which re-validates affected distances)
            if w >= cluster.graph.weight(a, b):
                return
        cluster.graph.add_edge(a, b, w)
    rank_a = cluster.owner_of(a)
    rank_b = cluster.owner_of(b)
    row_a = cluster.broadcast_row(a)
    row_b = cluster.broadcast_row(b)
    # Fig. 3 line 26 guard: if the current distance d(a, b) is already no
    # worse than the new edge, no path through it can improve anything
    # *now*; the edge still joins the structure below, so any future
    # improvements route through it during normal RC propagation.
    if row_a[cluster.index.column(b)] > w:
        for worker in cluster.workers:
            worker.relax_with_edge_rows(a, row_a, b, row_b, w)
    # structural bookkeeping (Fig. 3 lines 35-42)
    if rank_a == rank_b:
        cluster.workers[rank_a].add_local_edge(a, b, w)
    else:
        wa, wb = cluster.workers[rank_a], cluster.workers[rank_b]
        wa.add_cut_edge(a, b, w)
        wb.add_cut_edge(b, a, w)
        # each side now needs the other's row stream
        wa.subscribe(a, rank_b)
        wb.subscribe(b, rank_a)

