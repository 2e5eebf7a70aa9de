"""Core anytime-anywhere algorithm: DD, IA, RC, strategies, engine."""

from .config import AnytimeConfig
from .engine import AnytimeAnywhereCloseness, RunResult
from .recombination import run_recombination
from .snapshots import AnytimeSnapshot, take_snapshot
from .strategies import (
    CompositeStrategy,
    CutEdgePS,
    DynamicStrategy,
    EdgeDeletionStrategy,
    LeastLoadedPS,
    NeighborMajorityPS,
    ProcessorAssignmentStrategy,
    RepartitionStrategy,
    RoundRobinPS,
    VertexAdditionStrategy,
    VertexDeletionStrategy,
)

__all__ = [
    "AnytimeConfig",
    "AnytimeAnywhereCloseness",
    "RunResult",
    "run_recombination",
    "AnytimeSnapshot",
    "take_snapshot",
    "ProcessorAssignmentStrategy",
    "DynamicStrategy",
    "RoundRobinPS",
    "CutEdgePS",
    "LeastLoadedPS",
    "NeighborMajorityPS",
    "VertexAdditionStrategy",
    "EdgeDeletionStrategy",
    "VertexDeletionStrategy",
    "RepartitionStrategy",
    "CompositeStrategy",
]
