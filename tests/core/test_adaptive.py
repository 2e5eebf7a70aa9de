"""Adaptive (batch-size switched) and composite strategy routing."""

import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream
from repro.bench import community_workload
from repro.core.strategies import (
    CompositeStrategy,
    PolicyDrivenStrategy,
    RoundRobinPS,
    ThresholdPolicy,
    VertexAdditionStrategy,
    make_strategy,
)
from repro.graph import ChangeBatch, barabasi_albert
from repro.graph.changes import (
    EdgeAddition,
    EdgeDeletion,
    VertexAddition,
    VertexDeletion,
)

from ..conftest import run_and_verify


def make_adaptive(threshold=0.1):
    return make_strategy(
        "adaptive", AnytimeConfig(nprocs=4, repartition_threshold=threshold)
    )


def test_small_batch_uses_addition():
    wl = community_workload(100, 5, seed=1, inject_step=1)
    strategy = make_adaptive(threshold=0.10)
    run_and_verify(
        wl.base, changes=wl.stream, strategy=strategy, final=wl.final, nprocs=4
    )
    assert strategy.decisions[-1].strategy == "cutedge"


def test_large_batch_uses_repartition():
    wl = community_workload(100, 40, seed=2, inject_step=1)
    strategy = make_adaptive(threshold=0.10)
    run_and_verify(
        wl.base, changes=wl.stream, strategy=strategy, final=wl.final, nprocs=4
    )
    assert strategy.decisions[-1].strategy == "repartition"


def test_threshold_validation():
    with pytest.raises(ValueError):
        ThresholdPolicy(threshold=1.5)


def test_composite_routes_mixed_batch():
    g = barabasi_albert(50, 2, seed=3)
    e0 = next(iter(g.edges()))
    batch = ChangeBatch(
        vertex_additions=[VertexAddition(100, edges=((0, 1.0),))],
        edge_additions=[EdgeAddition(5, 40, 1.0)],
        edge_deletions=[EdgeDeletion(e0[0], e0[1])],
        vertex_deletions=[VertexDeletion(20)],
    )
    final = g.copy()
    final.add_vertex(100)
    final.add_edge(100, 0, 1.0)
    if not final.has_edge(5, 40):
        final.add_edge(5, 40, 1.0)
    final.remove_edge(e0[0], e0[1])
    final.remove_vertex(20)

    strategy = CompositeStrategy(VertexAdditionStrategy(RoundRobinPS()))
    run_and_verify(
        g,
        changes=ChangeStream({1: batch}),
        strategy=strategy,
        final=final,
        nprocs=4,
    )


def test_engine_adaptive_name():
    g = barabasi_albert(30, 2, seed=4)
    engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=2))
    strategy = engine.resolve_strategy("adaptive")
    assert isinstance(strategy, PolicyDrivenStrategy)
    assert isinstance(strategy.policy, ThresholdPolicy)
    assert strategy.policy.threshold == engine.config.repartition_threshold


def test_engine_adaptive_handles_mixed_batches():
    """Deletions must still route under 'adaptive'."""
    from repro.graph.changes import EdgeDeletion

    g = barabasi_albert(40, 2, seed=5)
    e = next(iter(g.edges()))
    final = g.copy()
    final.remove_edge(e[0], e[1])
    final.add_vertex(100)
    final.add_edge(100, 3, 1.0)
    batch = ChangeBatch(
        vertex_additions=[VertexAddition(100, edges=((3, 1.0),))],
        edge_deletions=[EdgeDeletion(e[0], e[1])],
    )
    run_and_verify(
        g,
        changes=ChangeStream({1: batch}),
        strategy="adaptive",
        final=final,
        nprocs=4,
    )


def test_engine_repartition_name_handles_mixed_batches():
    """A named additions-only strategy routes deletions like any other."""
    g = barabasi_albert(40, 2, seed=6)
    e = next(iter(g.edges()))
    final = g.copy()
    final.remove_edge(e[0], e[1])
    final.add_vertex(100)
    final.add_edge(100, 3, 1.0)
    batch = ChangeBatch(
        vertex_additions=[VertexAddition(100, edges=((3, 1.0),))],
        edge_deletions=[EdgeDeletion(e[0], e[1])],
    )
    run_and_verify(
        g,
        changes=ChangeStream({1: batch}),
        strategy="repartition",
        final=final,
        nprocs=4,
    )
