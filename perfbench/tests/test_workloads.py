"""Seeded inputs, and small cycles of every workload end to end."""

import pytest

from workloads import input_digest, make_inputs, run_cycle

SMALL = {
    "cold-start": dict(n=120, m=3, nprocs=2, backend="serial",
                       setup_repeats=1, check_sources=4),
    "grow": dict(n_base=60, per_step=6, steps=3, nprocs=4,
                 backend="serial", strategy="cutedge", setup_repeats=2),
    "churn": dict(shape="bursty-communities", n_base=40, ticks=16,
                  nprocs=4, backend="serial", strategy="auto",
                  setup_repeats=2),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    spec = SMALL[workload]
    a = input_digest(make_inputs(workload, 3, 0, spec))
    assert a == input_digest(make_inputs(workload, 3, 0, spec))
    assert a != input_digest(make_inputs(workload, 4, 0, spec))
    assert a != input_digest(make_inputs(workload, 3, 1, spec))


def test_full_size_inputs_are_seeded_too():
    assert input_digest(make_inputs("churn", 5, 2)) == input_digest(
        make_inputs("churn", 5, 2)
    )


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_cycle_passes_checks_and_tracing_changes_nothing(workload):
    spec = SMALL[workload]
    plain = run_cycle(workload, 1, 0, spec=spec)
    traced = run_cycle(workload, 1, 0, traced=True, setup_repeats=1, spec=spec)
    for out in (plain, traced):
        assert out["checks"]["failures"] == []
        assert out["checks"]["attempted"] >= 2
    assert len(plain["setup_s"]) == spec["setup_repeats"]
    assert traced["digest"] == plain["digest"]
    assert traced["modeled_s"] == plain["modeled_s"]
    layers = traced["layers"]
    assert layers["dd.self_s"] > 0 and layers["ia.self_s"] > 0
    assert layers["partition.calls"] >= 1
    if workload == "cold-start":
        assert layers["superstep.calls"] == 0
    else:
        assert layers["superstep.calls"] > 0 and layers["rc.steps"] > 0
    if workload == "churn":
        assert layers["serve.ticks"] >= spec["ticks"]
        ticks = {s[4] for s in traced["spans"]}
        assert set(range(spec["ticks"])) <= ticks

