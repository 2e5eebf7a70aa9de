"""Recombination strategies: placement, additions, deletions, repartition."""

from .assignment import (
    CutEdgePS,
    LDGPS,
    LeastLoadedPS,
    NeighborMajorityPS,
    RoundRobinPS,
)
from .base import DynamicStrategy, ProcessorAssignmentStrategy
from .composite import CompositeStrategy
from .edge_addition import apply_edge_addition
from .edge_deletion import EdgeDeletionStrategy, apply_edge_deletion
from .policy import (
    PolicyDecision,
    PolicyDrivenStrategy,
    SignalDrivenPolicy,
    StrategyPolicy,
    ThresholdPolicy,
)
from .rebalance import RebalancedStrategy, apply_migration, plan_rebalance
from .registry import (
    STRATEGIES,
    StrategyFactory,
    make_strategy,
    register,
    route_deletions,
)
from .repartition import RepartitionStrategy
from .vertex_addition import VertexAdditionStrategy
from .vertex_deletion import VertexDeletionStrategy, apply_vertex_deletion

__all__ = [
    "STRATEGIES",
    "StrategyFactory",
    "register",
    "make_strategy",
    "route_deletions",
    "StrategyPolicy",
    "PolicyDecision",
    "ThresholdPolicy",
    "SignalDrivenPolicy",
    "PolicyDrivenStrategy",
    "ProcessorAssignmentStrategy",
    "DynamicStrategy",
    "RoundRobinPS",
    "CutEdgePS",
    "LDGPS",
    "LeastLoadedPS",
    "NeighborMajorityPS",
    "VertexAdditionStrategy",
    "apply_edge_addition",
    "EdgeDeletionStrategy",
    "apply_edge_deletion",
    "VertexDeletionStrategy",
    "apply_vertex_deletion",
    "RepartitionStrategy",
    "RebalancedStrategy",
    "plan_rebalance",
    "apply_migration",
    "CompositeStrategy",
]
