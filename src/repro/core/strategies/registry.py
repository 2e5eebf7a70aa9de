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
:func:`make_strategy` hands it back through :func:`route_deletions`, so
every named strategy absorbs mixed add/delete batches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, overload

from ...errors import ConfigurationError
from .assignment import (
    CutEdgePS,
    LDGPS,
    LeastLoadedPS,
    NeighborMajorityPS,
    RoundRobinPS,
)
from .base import DynamicStrategy
from .composite import CompositeStrategy
from .policy import PolicyDrivenStrategy, SignalDrivenPolicy, ThresholdPolicy
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
    "route_deletions",
]

#: A factory building a fresh strategy from the engine configuration.
StrategyFactory = Callable[["AnytimeConfig"], DynamicStrategy]


class Registry(Dict[str, StrategyFactory]):
    """Name -> strategy factory table with a duplicate-name guard."""

    @overload
    def register(
        self, name: str, factory: None = None, *, overwrite: bool = False
    ) -> Callable[[StrategyFactory], StrategyFactory]:
        ...

    @overload
    def register(
        self, name: str, factory: StrategyFactory, *, overwrite: bool = False
    ) -> StrategyFactory:
        ...

    def register(
        self,
        name: str,
        factory: Optional[StrategyFactory] = None,
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

        def _add(fn: StrategyFactory) -> StrategyFactory:
            if not overwrite and name in self:
                raise ConfigurationError(
                    f"strategy {name!r} is already registered"
                    " (pass overwrite=True to replace it)"
                )
            self[name] = fn
            return fn

        if factory is not None:
            return _add(factory)
        return _add

    def make(self, name: str, config: "AnytimeConfig") -> DynamicStrategy:
        """Build the registered strategy ``name`` for ``config``."""
        factory = self.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown strategy {name!r}; registered strategies:"
                f" {sorted(self)}"
            )
        return factory(config)


#: Name -> factory table the engine resolves strategy strings against.
STRATEGIES = Registry()
register = STRATEGIES.register


def route_deletions(strategy: DynamicStrategy) -> DynamicStrategy:
    """Wrap an additions-only strategy so deletions still route.

    Mixed add/delete batches must reach the deletion strategies whatever
    handles the additions; composites and policy adapters already route
    them and pass through unchanged.
    """
    if isinstance(strategy, (CompositeStrategy, PolicyDrivenStrategy)):
        return strategy
    return CompositeStrategy(strategy)


def make_strategy(name: str, config: "AnytimeConfig") -> DynamicStrategy:
    """Build the registered strategy ``name``, routed for deletions."""
    return route_deletions(STRATEGIES.make(name, config))


# ----------------------------------------------------------------------
# built-in strategies (the paper's A_rs variants)
# ----------------------------------------------------------------------
@register("roundrobin")
def _roundrobin(config: "AnytimeConfig") -> DynamicStrategy:
    return VertexAdditionStrategy(RoundRobinPS())


@register("leastloaded")
def _leastloaded(config: "AnytimeConfig") -> DynamicStrategy:
    return VertexAdditionStrategy(LeastLoadedPS())


@register("neighbormajority")
def _neighbormajority(config: "AnytimeConfig") -> DynamicStrategy:
    return VertexAdditionStrategy(NeighborMajorityPS())


@register("ldg")
def _ldg(config: "AnytimeConfig") -> DynamicStrategy:
    return VertexAdditionStrategy(LDGPS())


@register("cutedge")
def _cutedge(config: "AnytimeConfig") -> DynamicStrategy:
    return VertexAdditionStrategy(CutEdgePS(config.cutedge_partitioner))


@register("repartition")
def _repartition(config: "AnytimeConfig") -> DynamicStrategy:
    return RepartitionStrategy(config.partitioner)


@register("adaptive")
def _adaptive(config: "AnytimeConfig") -> DynamicStrategy:
    # batch-size switch: CutEdge-PS below the threshold, Repartition-S
    # above it, chosen per batch by the policy adapter
    return PolicyDrivenStrategy(
        ThresholdPolicy(config.repartition_threshold), config
    )


@register("auto")
def _auto(config: "AnytimeConfig") -> DynamicStrategy:
    return PolicyDrivenStrategy(SignalDrivenPolicy(), config)
