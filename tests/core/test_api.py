"""Public API surface: repro.closeness(), strategy registry, summaries."""

import json

import pytest

import repro
from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.centrality import exact_closeness
from repro.core.strategies import (
    STRATEGIES,
    CompositeStrategy,
    RepartitionStrategy,
    make_strategy,
    register,
)
from repro.core.strategies.base import DynamicStrategy
from repro.errors import ConfigurationError
from repro.graph import barabasi_albert
from repro.graph.changes import ChangeBatch, ChangeStream, VertexAddition


def _stream():
    return ChangeStream(
        {1: ChangeBatch(vertex_additions=[VertexAddition(300, ((0, 1.0),))])}
    )


class TestOneShotCloseness:
    def test_matches_engine_run(self):
        g = barabasi_albert(50, 2, seed=3)
        one_shot = repro.closeness(g, nprocs=3)
        engine = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=3))
        engine.setup()
        staged = engine.run()
        assert one_shot.closeness == staged.closeness
        assert one_shot.converged

    def test_exact_against_oracle(self):
        g = barabasi_albert(40, 2, seed=5)
        result = repro.closeness(g, nprocs=4)
        for v, c in exact_closeness(g).items():
            assert result.closeness[v] == pytest.approx(c, abs=1e-9)

    def test_dynamic_changes(self):
        g = barabasi_albert(40, 2, seed=5)
        result = repro.closeness(
            g, nprocs=3, changes=_stream(), strategy="cutedge"
        )
        assert 300 in result.closeness
        assert result.converged

    def test_config_supplies_nprocs(self):
        g = barabasi_albert(30, 2, seed=1)
        result = repro.closeness(g, config=AnytimeConfig(nprocs=2))
        assert result.converged

    def test_conflicting_nprocs_rejected(self):
        g = barabasi_albert(30, 2, seed=1)
        with pytest.raises(ConfigurationError):
            repro.closeness(g, nprocs=3, config=AnytimeConfig(nprocs=2))

    def test_exported_in_all(self):
        assert "closeness" in repro.__all__


class TestStrategyRegistry:
    def test_builtins_registered(self):
        for name in (
            "roundrobin",
            "leastloaded",
            "neighbormajority",
            "ldg",
            "cutedge",
            "repartition",
            "adaptive",
        ):
            assert name in STRATEGIES

    def test_make_strategy_builds_fresh_instances(self):
        cfg = AnytimeConfig(nprocs=2)
        a = make_strategy("cutedge", cfg)
        b = make_strategy("cutedge", cfg)
        assert isinstance(a, CompositeStrategy)
        assert a is not b

    def test_make_strategy_repartition(self):
        cfg = AnytimeConfig(nprocs=2)
        s = make_strategy("repartition", cfg)
        assert isinstance(s, CompositeStrategy)
        assert isinstance(s.addition, RepartitionStrategy)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError, match="roundrobin"):
            make_strategy("nope", AnytimeConfig(nprocs=2))

    def test_register_decorator_and_duplicate_guard(self):
        @register("_test_strategy")
        def _factory(config):
            return RepartitionStrategy(config.partitioner)

        try:
            built = make_strategy("_test_strategy", AnytimeConfig(nprocs=2))
            assert isinstance(built, DynamicStrategy)
            with pytest.raises(ConfigurationError):
                register("_test_strategy", _factory)
            register("_test_strategy", _factory, overwrite=True)
        finally:
            STRATEGIES.pop("_test_strategy", None)

    def test_register_direct_call_returns_factory(self):
        """The call form returns the factory, like the decorator form."""

        def _factory(config):
            return RepartitionStrategy(config.partitioner)

        try:
            assert register("_test_direct_strategy", _factory) is _factory
            assert STRATEGIES["_test_direct_strategy"] is _factory
        finally:
            STRATEGIES.pop("_test_direct_strategy", None)

    def test_engine_resolves_custom_registration(self):
        @register("_test_engine_strategy")
        def _factory(config):
            return RepartitionStrategy(config.partitioner)

        try:
            g = barabasi_albert(40, 2, seed=2)
            result = repro.closeness(
                g,
                nprocs=2,
                changes=_stream(),
                strategy="_test_engine_strategy",
            )
            assert 300 in result.closeness
        finally:
            STRATEGIES.pop("_test_engine_strategy", None)


class TestRunResultSummary:
    def _result(self, **cfg):
        g = barabasi_albert(40, 2, seed=4)
        return repro.closeness(g, nprocs=3, config=AnytimeConfig(nprocs=3, **cfg))

    def test_summary_fields(self):
        res = self._result()
        s = res.summary()
        assert s["num_vertices"] == len(res.closeness)
        assert s["rc_steps"] == res.rc_steps
        assert s["modeled_seconds"] == res.modeled_seconds
        assert s["converged"] is True
        assert s["wire_format"] == "delta"
        assert s["wire_words"] > 0
        assert s["boundary_words"] > 0
        assert s["wire_words"] >= s["boundary_words"]
        assert (
            s["closeness_min"]
            <= s["closeness_mean"]
            <= s["closeness_max"]
        )

    def test_to_json_round_trips(self):
        res = self._result()
        assert json.loads(res.to_json()) == json.loads(
            json.dumps(res.summary())
        )

    def test_dense_mode_reports_no_sparse_rows(self):
        res = self._result(wire_format="dense")
        s = res.summary()
        assert s["wire_format"] == "dense"
        assert s["boundary_rows_sparse"] == 0
        assert s["boundary_rows_dense"] > 0

    def test_invalid_wire_format_rejected(self):
        with pytest.raises(ConfigurationError):
            AnytimeConfig(wire_format="zip")
