"""ResilienceConfig: the one way to set the fault-tolerance knobs."""

from __future__ import annotations

import warnings

import pytest

from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    FaultPlan,
    ResilienceConfig,
)
from repro.errors import ConfigurationError
from repro.graph import barabasi_albert


def _graph():
    return barabasi_albert(30, 2, seed=1)


class TestResilienceConfig:
    def test_defaults(self):
        res = ResilienceConfig()
        assert res.recovery == "warm"
        assert res.checkpoint_interval == 8
        assert res.fault_plan is None

    def test_validates_recovery_name_and_interval(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(recovery="cold")
        with pytest.raises(ConfigurationError):
            ResilienceConfig(checkpoint_interval=0)

    def test_config_always_populates_the_group(self):
        cfg = AnytimeConfig(nprocs=4)
        assert cfg.resilience == ResilienceConfig()

    def test_group_flows_through(self):
        res = ResilienceConfig(recovery="escalate", checkpoint_interval=3)
        cfg = AnytimeConfig(nprocs=4, resilience=res)
        assert cfg.resilience is res


class TestRunResilienceOverride:
    def _engine(self):
        eng = AnytimeAnywhereCloseness(
            _graph(), AnytimeConfig(nprocs=3, collect_snapshots=False)
        )
        eng.setup()
        return eng

    def test_run_resilience_group_does_not_warn(self):
        eng = self._engine()
        plan = FaultPlan(seed=0, loss_prob=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = eng.run(resilience=ResilienceConfig(fault_plan=plan))
        assert result.converged
