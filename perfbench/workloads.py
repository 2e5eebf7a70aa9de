"""The benchmark's workloads: seeded inputs, one timed cycle, output checks.

A *cycle* builds an engine on a workload's input, takes it to the
workload's final answer, and checks that answer outside the timed
region.  Each run of the benchmark cycles through several input
variants derived from its ``--seed``, so a run's figures average over
several graphs instead of resting on one.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeStream, Graph
from repro.bench.workloads import incremental_stream
from repro.centrality.exact import exact_closeness, sssp_dijkstra
from repro.graph import barabasi_albert
from repro.serve import UpdateService, events_to_batch, synthesize_churn

import tracing

#: workload name -> sizes and engine settings, scaled down from the
#: reference scenarios (BA 8000 / incremental 600+20x6 / churn 400 base)
#: so that a run covers eight input variants; see DESIGN.md
SPECS: Dict[str, Dict[str, Any]] = {
    "cold-start": dict(n=4000, m=3, nprocs=2, backend="process",
                       setup_repeats=1, check_sources=8),
    "grow": dict(n_base=400, per_step=20, steps=6, nprocs=8,
                 backend="serial", strategy="cutedge", setup_repeats=5),
    "churn": dict(shape="bursty-communities", n_base=160, ticks=120,
                  nprocs=4, backend="serial", strategy="auto",
                  setup_repeats=5),
}


def input_seed(seed: int, variant: int) -> int:
    """The generator seed of one input variant of a run."""
    return int(np.random.SeedSequence([seed, variant]).generate_state(1)[0])


@dataclass
class Inputs:
    base: Graph
    final: Graph
    #: grow: the change stream handed to ``run``
    stream: Optional[ChangeStream] = None
    #: churn: the events fed at each tick
    ticks: List[List[Any]] = field(default_factory=list)
    #: cold-start: the sampled check sources
    sources: List[int] = field(default_factory=list)


def make_inputs(
    workload: str, seed: int, variant: int, spec: Optional[Dict[str, Any]] = None
) -> Inputs:
    """Build one variant's inputs; the same arguments give the same inputs."""
    spec = spec or SPECS[workload]
    s = input_seed(seed, variant)
    if workload == "cold-start":
        g = barabasi_albert(spec["n"], spec["m"], seed=s)
        verts = sorted(g.vertices())
        sources = random.Random(s).sample(verts, spec["check_sources"])
        return Inputs(base=g, final=g, sources=sources)
    if workload == "grow":
        wl = incremental_stream(
            spec["n_base"], spec["per_step"], spec["steps"], seed=s
        )
        return Inputs(base=wl.base, final=wl.final, stream=wl.stream)
    if workload == "churn":
        tr = synthesize_churn(
            spec["shape"], n_base=spec["n_base"], ticks=spec["ticks"], seed=s
        )
        ticks: List[List[Any]] = [[] for _ in range(tr.ticks)]
        for t, ev in tr.events:
            ticks[t].append(ev)
        final = tr.base.copy()
        for evs in ticks:
            if evs:
                events_to_batch(evs).apply_to(final)
        return Inputs(base=tr.base, final=final, ticks=ticks)
    raise ValueError(f"unknown workload {workload!r}")


def input_digest(inputs: Inputs) -> str:
    """Fingerprint of a variant's inputs (graphs and change events)."""
    h = hashlib.sha256()
    for g in (inputs.base, inputs.final):
        h.update(repr(sorted(g.edges())).encode())
    if inputs.stream is not None:
        for step in range(inputs.stream.last_step + 1):
            h.update(repr(inputs.stream.at_step(step)).encode())
    h.update(repr(inputs.ticks).encode())
    h.update(repr(inputs.sources).encode())
    return h.hexdigest()


def closeness_digest(closeness: Dict[int, float], modeled_s: float) -> str:
    """Bitwise fingerprint of an answer and the modeled clock."""
    h = hashlib.sha256()
    for v in sorted(closeness):
        h.update(struct.pack("<qd", v, closeness[v]))
    h.update(struct.pack("<d", modeled_s))
    return h.hexdigest()


class Checks:
    """Output checks of one cycle; failures feed ``error_rate``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _config(spec: Dict[str, Any]) -> AnytimeConfig:
    # backend is always explicit; kernel tier and observers stay defaults
    return AnytimeConfig(
        nprocs=spec["nprocs"], backend=spec["backend"], collect_snapshots=False
    )


def run_cycle(
    workload: str,
    seed: int,
    variant: int,
    *,
    traced: bool = False,
    setup_repeats: Optional[int] = None,
    spec: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One timed cycle; returns its measurements, checks and trace.

    ``spec`` replaces the workload's sizes (the self-tests run small ones).
    """
    spec = spec or SPECS[workload]
    inputs = make_inputs(workload, seed, variant, spec)
    cfg = _config(spec)
    clock = time.perf_counter
    out: Dict[str, Any] = {"variant": variant}
    repeats = setup_repeats or spec["setup_repeats"]

    # extra set-ups first: set-up time is a median over several, the
    # last engine goes on to the workload proper
    setups: List[float] = []
    firsts: List[float] = []
    for _ in range(repeats - 1):
        t0 = clock()
        eng = AnytimeAnywhereCloseness(inputs.base, cfg)
        eng.setup()
        t1 = clock()
        eng.current_closeness()
        t2 = clock()
        eng.close()
        setups.append(t1 - t0)
        firsts.append(t2 - t0)

    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = clock()
        eng = AnytimeAnywhereCloseness(inputs.base, cfg)
        eng.setup()
        t1 = clock()
        answer = eng.current_closeness()
        t2 = clock()
        setups.append(t1 - t0)
        firsts.append(t2 - t0)
        wire: int
        if workload == "cold-start":
            wire = eng.cluster.tracer.total_words
            t_end = t2
        elif workload == "grow":
            res = eng.run(changes=inputs.stream, strategy=spec["strategy"])
            t_end = clock()
            out["converge_s"] = t_end - t2
            answer, wire, converged = res.closeness, res.wire_words, res.converged
        else:
            svc = UpdateService(eng, strategy=spec["strategy"])
            lat: List[float] = []
            for t, events in enumerate(inputs.ticks):
                if tracer is not None:
                    tracer.tick = t
                a = clock()
                svc.feed(events)
                svc.step()
                eng.current_closeness()
                lat.append(clock() - a)
            if tracer is not None:
                tracer.tick = -1
            res = svc.drain()
            t_end = clock()
            out["loop_s"] = t_end - t2
            out["tick_s"] = lat
            out["events"] = svc.events_admitted
            answer, wire, converged = res.closeness, res.wire_words, res.converged
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = tracing.peak_rss_mb()
    modeled = eng.modeled_seconds
    out.update(
        setup_s=setups,
        first_answer_s=firsts,
        answer_s=t_end - t0,
        modeled_s=modeled,
        wire_words=wire,
        digest=closeness_digest(answer, modeled),
    )
    if tracer is not None:
        out["layers"] = tracing.fold(
            tracer.spans, tracer.counters, (t0, t_end), spec["nprocs"]
        )
        # times relative to the cycle start, for the written trace
        out["spans"] = [
            [n, a - t0, b - t0, parent, tick]
            for n, a, b, parent, tick in tracer.spans
        ]

    # ---- checks, outside the timed region --------------------------------
    checks = Checks()
    if workload == "cold-start":
        _check_upper_bounds(eng, inputs, checks)
        checks.expect(len(answer) == inputs.base.num_vertices,
                      "first answer covers every vertex")
    else:
        checks.expect(converged, "run converged")
        checks.expect(eng.cluster.graph == inputs.final,
                      "engine graph equals the expected final graph")
        exact = exact_closeness(inputs.final, wf_improved=cfg.wf_improved)
        checks.expect(answer == exact, "closeness equals exact_closeness")
        if workload == "churn":
            checks.expect(
                out["events"] == sum(len(e) for e in inputs.ticks),
                "every event admitted",
            )
    eng.close()
    out["checks"] = {"attempted": checks.attempted, "failures": checks.failures}
    return out


def _check_upper_bounds(
    eng: AnytimeAnywhereCloseness, inputs: Inputs, checks: Checks
) -> None:
    """Anytime contract on sampled sources: every DV entry is at least the
    exact distance, and the diagonal entry is 0."""
    cluster = eng.cluster
    order = sorted(inputs.base.vertices())
    cols = np.array([cluster.index.column(v) for v in order])
    for src in inputs.sources:
        exact = sssp_dijkstra(inputs.base, src)
        truth = np.array([exact.get(v, np.inf) for v in order])
        row = cluster.worker_owning(src).dv_row(src)[cols]
        checks.expect(
            bool(np.all(row >= truth)) and row[order.index(src)] == 0.0,
            f"DV row of source {src} bounds the exact distances",
        )
