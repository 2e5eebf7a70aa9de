"""Table-driven registry of named dynamic strategies.

The engine resolves strategy *names* through this table instead of a
hard-coded if/elif chain, so downstream code can plug in new strategies
without editing the engine::

    from repro.core.strategies import STRATEGIES, register

    @register("mystrategy")
    def _make(config: AnytimeConfig) -> DynamicStrategy:
        return MyStrategy(...)

    engine.run(changes=stream, strategy="mystrategy")

A factory receives the engine's :class:`~repro.core.config.AnytimeConfig`
(partitioners, thresholds) and returns a fresh
:class:`~repro.core.strategies.base.DynamicStrategy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, TypeVar, overload

from ...errors import ConfigurationError
from .adaptive import AdaptiveStrategy, CompositeStrategy
from .assignment import (
    CutEdgePS,
    LDGPS,
    LeastLoadedPS,
    NeighborMajorityPS,
    RoundRobinPS,
)
from .base import DynamicStrategy
from .policy import (
    PolicyDrivenStrategy,
    SignalDrivenPolicy,
    StrategyPolicy,
    ThresholdPolicy,
)
from .repartition import RepartitionStrategy
from .vertex_addition import VertexAdditionStrategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import AnytimeConfig

__all__ = [
    "Registry",
    "STRATEGIES",
    "StrategyFactory",
    "register",
    "make_strategy",
    "POLICIES",
    "PolicyFactory",
    "register_policy",
    "make_policy",
]

T = TypeVar("T")

#: A factory building a fresh ``T`` from the engine configuration.
Factory = Callable[["AnytimeConfig"], T]


class Registry(Dict[str, Factory[T]]):
    """Name -> factory table with a duplicate-name guard.

    ``kind`` / ``plural`` name the entries in error messages
    (``"strategy"`` / ``"strategies"``).
    """

    def __init__(self, kind: str, plural: str) -> None:
        super().__init__()
        self.kind = kind
        self.plural = plural

    @overload
    def register(
        self, name: str, factory: None = None, *, overwrite: bool = False
    ) -> Callable[[Factory[T]], Factory[T]]:
        ...

    @overload
    def register(
        self, name: str, factory: Factory[T], *, overwrite: bool = False
    ) -> Factory[T]:
        ...

    def register(
        self,
        name: str,
        factory: Optional[Factory[T]] = None,
        *,
        overwrite: bool = False,
    ) -> Callable[..., object]:
        """Register ``factory`` under ``name``; usable as a decorator.

        Called with a factory it returns that factory, exactly like the
        decorator form.  Re-registering an existing name raises
        :class:`~repro.errors.ConfigurationError` unless
        ``overwrite=True`` — silently shadowing a built-in is almost
        always a bug.
        """

        def _add(fn: Factory[T]) -> Factory[T]:
            if not overwrite and name in self:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered"
                    " (pass overwrite=True to replace it)"
                )
            self[name] = fn
            return fn

        if factory is not None:
            return _add(factory)
        return _add

    def make(self, name: str, config: "AnytimeConfig") -> T:
        """Build the registered entry ``name`` for ``config``."""
        factory = self.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered {self.plural}:"
                f" {sorted(self)}"
            )
        return factory(config)


#: A factory building a fresh strategy from the engine configuration.
StrategyFactory = Factory[DynamicStrategy]

#: Name -> factory table the engine resolves strategy strings against.
STRATEGIES: Registry[DynamicStrategy] = Registry("strategy", "strategies")
register = STRATEGIES.register
make_strategy = STRATEGIES.make

#: A factory building a fresh strategy policy from the configuration.
PolicyFactory = Factory[StrategyPolicy]

#: Name -> factory table ``strategy="auto"`` resolves policies against;
#: its own namespace next to :data:`STRATEGIES`.
POLICIES: Registry[StrategyPolicy] = Registry("strategy policy", "policies")
register_policy = POLICIES.register
make_policy = POLICIES.make


# ----------------------------------------------------------------------
# built-in strategies (the paper's A_rs variants)
# ----------------------------------------------------------------------
@register("roundrobin")
def _roundrobin(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(VertexAdditionStrategy(RoundRobinPS()))


@register("leastloaded")
def _leastloaded(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(VertexAdditionStrategy(LeastLoadedPS()))


@register("neighbormajority")
def _neighbormajority(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(VertexAdditionStrategy(NeighborMajorityPS()))


@register("ldg")
def _ldg(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(VertexAdditionStrategy(LDGPS()))


@register("cutedge")
def _cutedge(config: "AnytimeConfig") -> DynamicStrategy:
    return CompositeStrategy(
        VertexAdditionStrategy(CutEdgePS(config.cutedge_partitioner))
    )


@register("repartition")
def _repartition(config: "AnytimeConfig") -> DynamicStrategy:
    return RepartitionStrategy(config.partitioner)


@register("adaptive")
def _adaptive(config: "AnytimeConfig") -> DynamicStrategy:
    # composite wrapper so deletion events route to the deletion
    # strategies while the adaptive chooser handles additions
    return CompositeStrategy(
        AdaptiveStrategy(
            CutEdgePS(config.cutedge_partitioner),
            RepartitionStrategy(config.partitioner),
            threshold=config.repartition_threshold,
        )
    )


@register("auto")
def _auto(config: "AnytimeConfig") -> DynamicStrategy:
    # policy-driven selection: config.strategy_policy names the policy,
    # and the adapter re-resolves through this registry per batch
    return PolicyDrivenStrategy(
        make_policy(config.strategy_policy, config), config
    )


# ----------------------------------------------------------------------
# built-in strategy policies
# ----------------------------------------------------------------------
@register_policy("signals")
def _signals(config: "AnytimeConfig") -> StrategyPolicy:
    return SignalDrivenPolicy()


@register_policy("threshold")
def _threshold(config: "AnytimeConfig") -> StrategyPolicy:
    return ThresholdPolicy(config.repartition_threshold)
