"""Mixed-batch routing: :class:`CompositeStrategy`.

Routes a *mixed* batch to the specialized strategies (additions, edge
deletions/reweights, vertex deletions) in a safe order, so an
additions-only strategy such as Repartition-S can absorb add/delete
churn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...graph.changes import ChangeBatch
from .base import DynamicStrategy
from .edge_deletion import EdgeDeletionStrategy
from .vertex_deletion import VertexDeletionStrategy

if TYPE_CHECKING:  # pragma: no cover
    from ...runtime.cluster import Cluster

__all__ = ["CompositeStrategy"]


class CompositeStrategy(DynamicStrategy):
    """Route mixed change batches to the specialized strategies.

    Application order: additions first (they can only tighten bounds),
    then edge deletions/reweights, then vertex deletions (both of which
    run invalidation passes that see the post-addition state).
    """

    name = "composite"

    def __init__(self, addition: DynamicStrategy) -> None:
        self.addition = addition
        self.edge_deletion = EdgeDeletionStrategy()
        self.vertex_deletion = VertexDeletionStrategy()

    def apply(self, cluster: "Cluster", batch: ChangeBatch, step: int) -> None:
        if batch.vertex_additions or batch.edge_additions:
            self.addition.apply(
                cluster,
                ChangeBatch(
                    vertex_additions=batch.vertex_additions,
                    edge_additions=batch.edge_additions,
                ),
                step,
            )
        if batch.edge_deletions or batch.edge_reweights:
            self.edge_deletion.apply(
                cluster,
                ChangeBatch(
                    edge_deletions=batch.edge_deletions,
                    edge_reweights=batch.edge_reweights,
                ),
                step,
            )
        if batch.vertex_deletions:
            self.vertex_deletion.apply(
                cluster,
                ChangeBatch(vertex_deletions=batch.vertex_deletions),
                step,
            )
