"""Ablation — fault recovery cost vs. full restart (paper §VI).

The anytime warm recovery (crash a worker, re-ship its sub-graph, rerun
its local IA, let RC re-converge) is compared with the only alternative a
static system has: restarting the whole computation.  Recovery should cost
a small fraction of the restart.

The second sweep compares the supervised recovery *policies* (warm /
checkpoint / redistribute) across checkpoint intervals and fault steps,
reporting the modeled time spent inside the ``fault_recovery`` phase — the
simulation's MTTR analogue — plus the steady-state checkpoint overhead the
policy pays even when nothing fails.  Single-threaded IA cost is used so
the recompute-vs-restore trade-off is visible: with many cost-model
threads the warm Dijkstra rerun is nearly free and checkpointing can only
lose.
"""

from repro import (
    AnytimeAnywhereCloseness,
    AnytimeConfig,
    FaultPlan,
    HealthPolicy,
    ResilienceConfig,
)
from repro.graph import barabasi_albert
from repro.model.cost import DEFAULT_COST
from repro.runtime.chaos import RECOVERY_POLICIES
from repro.runtime.faults import crash_and_recover

COLUMNS = ["variant", "modeled_minutes", "rc_steps"]

SWEEP_COLUMNS = [
    "policy",
    "ckpt_interval",
    "fault_step",
    "mttr_modeled_ms",
    "ckpt_overhead_ms",
    "total_modeled_minutes",
    "converged",
]

STRAGGLER_COLUMNS = [
    "variant",
    "modeled_seconds",
    "speculations",
    "missed_deadlines",
    "closeness_identical",
]

LADDER_COLUMNS = [
    "scenario",
    "rung",
    "recoveries",
    "mttr_modeled_ms",
    "degraded",
    "degraded_reason",
    "finite_fraction",
    "alive_fraction",
]


def run_all(scale):
    graph = barabasi_albert(scale.n_base, scale.m, seed=scale.seed)

    # cost of the initial full analysis (the restart price)
    engine = AnytimeAnywhereCloseness(
        graph,
        AnytimeConfig(nprocs=scale.nprocs, seed=scale.seed,
                      collect_snapshots=False),
    )
    engine.setup()
    full = engine.run()
    full_cost = engine.modeled_seconds

    # crash one worker and recover in place
    before = engine.modeled_seconds
    crash_and_recover(engine.cluster, scale.nprocs // 2)
    recovery = engine.run()
    recovery_cost = engine.modeled_seconds - before

    return [
        {
            "variant": "full_restart",
            "modeled_minutes": full_cost / 60.0,
            "rc_steps": full.rc_steps,
        },
        {
            "variant": "anytime_recovery",
            "modeled_minutes": recovery_cost / 60.0,
            "rc_steps": recovery.rc_steps,
        },
    ]


def test_fault_recovery_ablation(benchmark, scale, emit):
    rows = benchmark.pedantic(lambda: run_all(scale), rounds=1, iterations=1)
    emit("ablation_fault_recovery", rows, COLUMNS)
    restart, recovery = rows
    # recovering one of P workers costs well under a full restart
    assert recovery["modeled_minutes"] < 0.8 * restart["modeled_minutes"]


def run_policy_sweep(scale):
    graph = barabasi_albert(scale.n_base, scale.m, seed=scale.seed)
    victim = scale.nprocs // 2
    cost = DEFAULT_COST.with_threads(1)
    rows = []
    for policy in RECOVERY_POLICIES:
        intervals = (1, 4, 8) if policy == "checkpoint" else (8,)
        for interval in intervals:
            for fault_step in (0, 2, 4):
                engine = AnytimeAnywhereCloseness(
                    graph.copy(),
                    AnytimeConfig(
                        nprocs=scale.nprocs, seed=scale.seed,
                        collect_snapshots=False, cost=cost,
                    ),
                )
                engine.setup()
                res = engine.run(
                    resilience=ResilienceConfig(
                        fault_plan=FaultPlan.single_crash(fault_step, victim),
                        recovery=policy,
                        checkpoint_interval=interval,
                    )
                )
                ckpt = sum(
                    p.modeled_total
                    for p in engine.cluster.tracer.phases("checkpoint")
                )
                rows.append(
                    {
                        "policy": policy,
                        "ckpt_interval": (
                            interval if policy == "checkpoint" else "-"
                        ),
                        "fault_step": fault_step,
                        "mttr_modeled_ms": res.recovery_modeled_seconds * 1e3,
                        "ckpt_overhead_ms": ckpt * 1e3,
                        "total_modeled_minutes": engine.modeled_seconds / 60.0,
                        "converged": res.converged,
                    }
                )
    return rows


def test_recovery_policy_sweep(benchmark, scale, emit):
    rows = benchmark.pedantic(
        lambda: run_policy_sweep(scale), rounds=1, iterations=1
    )
    emit("ablation_fault_recovery_policies", rows, SWEEP_COLUMNS)
    assert all(r["converged"] for r in rows)

    def mean_mttr(policy, interval=None):
        sel = [
            r["mttr_modeled_ms"]
            for r in rows
            if r["policy"] == policy
            and (interval is None or r["ckpt_interval"] == interval)
        ]
        return sum(sel) / len(sel)

    # a fresh checkpoint (interval 1) makes restore cheaper than the warm
    # Dijkstra rerun in the single-threaded IA cost regime
    assert mean_mttr("checkpoint", 1) < mean_mttr("warm")
    # checkpointing every step costs more steady-state overhead than every
    # 8 steps (the MTTR-vs-overhead dial the interval controls)
    over = {
        i: sum(
            r["ckpt_overhead_ms"]
            for r in rows
            if r["policy"] == "checkpoint" and r["ckpt_interval"] == i
        )
        for i in (1, 8)
    }
    assert over[1] > over[8]


def _run_once(graph, scale, *, health=None, **resilience):
    engine = AnytimeAnywhereCloseness(
        graph.copy(),
        AnytimeConfig(
            nprocs=scale.nprocs, seed=scale.seed, collect_snapshots=False,
            health=health,
        ),
    )
    engine.setup()
    return engine.run(resilience=ResilienceConfig(**resilience))


def run_straggler_mitigation(scale):
    """Fault-free vs an 8x straggler, with and without speculation.

    The acceptance bar for the health layer: speculation must recover
    most of the straggler's modeled-time damage while leaving the
    closeness values bitwise untouched.
    """
    graph = barabasi_albert(scale.n_base, scale.m, seed=scale.seed)
    plan = FaultPlan(stragglers=((scale.nprocs // 2, 8.0),))

    free = _run_once(graph, scale)
    unmit = _run_once(graph, scale, fault_plan=plan)
    mit = _run_once(graph, scale, fault_plan=plan, health=HealthPolicy())

    def row(variant, res):
        return {
            "variant": variant,
            "modeled_seconds": res.modeled_seconds,
            "speculations": res.speculations,
            "missed_deadlines": res.missed_deadlines,
            "closeness_identical": res.closeness == free.closeness,
        }

    return [
        row("fault_free", free),
        row("straggler_unmitigated", unmit),
        row("straggler_mitigated", mit),
    ]


def test_straggler_mitigation(benchmark, scale, emit):
    rows = benchmark.pedantic(
        lambda: run_straggler_mitigation(scale), rounds=1, iterations=1
    )
    emit("ablation_straggler_mitigation", rows, STRAGGLER_COLUMNS)
    free, unmit, mit = rows
    # speculation never changes the answer, only the modeled clock
    assert all(r["closeness_identical"] for r in rows)
    assert mit["speculations"] > 0
    # mitigation claws back modeled time the straggler cost, and the
    # fault-free run stays the floor (speculation is not free)
    assert free["modeled_seconds"] <= mit["modeled_seconds"]
    assert mit["modeled_seconds"] < unmit["modeled_seconds"]


def run_escalation_ladder(scale):
    """MTTR by escalation rung, plus degraded-quality accounting.

    One scenario climbs the full warm -> checkpoint -> redistribute
    ladder and converges; the other exhausts a crash budget of 2 and
    returns a degraded partial result with its quality statement.
    """
    graph = barabasi_albert(scale.n_base, scale.m, seed=scale.seed)
    victim = scale.nprocs // 2
    crashes = tuple((1 + 2 * i, victim) for i in range(3))

    def rows_for(scenario, res):
        out = []
        for rung, n in sorted(res.recoveries_by_rung.items()):
            out.append(
                {
                    "scenario": scenario,
                    "rung": rung,
                    "recoveries": n,
                    "mttr_modeled_ms": res.mttr_by_rung[rung] * 1e3,
                    "degraded": res.degraded,
                    "degraded_reason": res.degraded_reason or "-",
                    "finite_fraction": res.quality.get("finite_fraction", 1.0),
                    "alive_fraction": res.quality.get("alive_fraction", 1.0),
                }
            )
        return out

    ladder = _run_once(
        graph, scale, fault_plan=FaultPlan(crashes=crashes),
        recovery="escalate", checkpoint_interval=2,
    )
    degraded = _run_once(
        graph, scale, fault_plan=FaultPlan(crashes=crashes),
        recovery="escalate", checkpoint_interval=2,
        health=HealthPolicy(crash_budget=2),
    )
    return rows_for("full_ladder", ladder) + rows_for(
        "crash_budget_2", degraded
    )


def test_escalation_ladder(benchmark, scale, emit):
    rows = benchmark.pedantic(
        lambda: run_escalation_ladder(scale), rounds=1, iterations=1
    )
    emit("ablation_escalation_ladder", rows, LADDER_COLUMNS)
    ladder = [r for r in rows if r["scenario"] == "full_ladder"]
    assert {r["rung"] for r in ladder} == {
        "warm", "checkpoint", "redistribute"
    }
    assert all(not r["degraded"] for r in ladder)
    assert all(r["mttr_modeled_ms"] > 0 for r in ladder)
    budget = [r for r in rows if r["scenario"] == "crash_budget_2"]
    assert budget and all(r["degraded"] for r in budget)
    assert all(r["degraded_reason"] == "crash-budget" for r in budget)
    # the partial result still resolved a usable fraction of the DV
    assert all(0.0 < r["finite_fraction"] < 1.0 for r in budget)
    assert all(r["alive_fraction"] < 1.0 for r in budget)
