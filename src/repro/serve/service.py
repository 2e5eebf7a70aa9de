"""The long-lived streaming update service.

``UpdateService`` wraps an :class:`AnytimeAnywhereCloseness` engine in
an ingest loop that never "finishes": change events are fed
continuously, an :class:`~repro.serve.admission.AdmissionPolicy` forms
batches from the queue, and each batch runs through the engine for one
paced RC step (``step_budget=1``) under the configured strategy — by
default ``"auto"``, the policy-driven adapter that picks RoundRobin-PS
/ CutEdge-PS / Repartition-S per batch from live signals.

Pacing is entirely on the modeled clock: a service *tick* is one
admission decision plus one RC step, and every figure the service
reports (tick records, summaries) derives from modeled quantities, so
serve runs pin byte-for-byte across repeats and backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..core.engine import AnytimeAnywhereCloseness, RunResult
from ..core.strategies import (
    DynamicStrategy,
    PolicyDecision,
    PolicyDrivenStrategy,
    route_deletions,
)
from ..errors import ConfigurationError
from ..graph.changes import (
    ChangeBatch,
    ChangeEvent,
    ChangeStream,
    EdgeAddition,
    EdgeDeletion,
    EdgeReweight,
    VertexAddition,
    VertexDeletion,
)
from ..obs.registry import DELTA_HIT_RATE, HEALTH_STATE, SLO_VIOLATIONS, SignalView
from ..obs.slo import SLOAlert, SLOEvaluator, SLOSample, SLOSpec
from .admission import AdmissionPolicy, HybridAdmission, PendingChange

__all__ = ["ServeTick", "ServeSummary", "UpdateService", "batch_to_events"]


def batch_to_events(batch: ChangeBatch) -> List[ChangeEvent]:
    """Flatten a batch into its events, in safe application order."""
    out: List[ChangeEvent] = []
    out.extend(batch.vertex_additions)
    out.extend(batch.edge_additions)
    out.extend(batch.edge_reweights)
    out.extend(batch.edge_deletions)
    out.extend(batch.vertex_deletions)
    return out


def events_to_batch(events: Iterable[ChangeEvent]) -> ChangeBatch:
    """Bucket a sequence of events into one :class:`ChangeBatch`.

    Arrival order is preserved within each bucket; cross-bucket order is
    the batch's safe application order (additions before deletions).
    """
    batch = ChangeBatch()
    for ev in events:
        if isinstance(ev, VertexAddition):
            batch.vertex_additions.append(ev)
        elif isinstance(ev, EdgeAddition):
            batch.edge_additions.append(ev)
        elif isinstance(ev, EdgeReweight):
            batch.edge_reweights.append(ev)
        elif isinstance(ev, EdgeDeletion):
            batch.edge_deletions.append(ev)
        elif isinstance(ev, VertexDeletion):
            batch.vertex_deletions.append(ev)
        else:
            raise ConfigurationError(
                f"not a change event: {type(ev).__name__}"
            )
    return batch


@dataclass(frozen=True)
class ServeTick:
    """One service tick: admission decision + one paced RC step."""

    tick: int
    #: events admitted into this tick's batch (0 = refinement only)
    admitted: int
    #: strategy the batch ran under ("" when no batch was admitted)
    strategy: str
    #: policy reason token ("" for fixed strategies / no batch)
    reason: str
    rc_steps: int
    modeled_seconds: float
    #: events still queued after this tick
    pending: int
    converged: bool

    def line(self) -> str:
        """Canonical one-line form (pinned byte-for-byte in CI)."""
        return (
            f"tick={self.tick} admitted={self.admitted}"
            f" strategy={self.strategy or '-'} reason={self.reason or '-'}"
            f" rc_steps={self.rc_steps} pending={self.pending}"
            f" modeled={self.modeled_seconds:.6f}"
            f" converged={str(self.converged).lower()}"
        )


@dataclass(frozen=True)
class ServeSummary:
    """Periodic ``repro report``-style digest of the serve loop."""

    tick: int
    modeled_seconds: float
    num_vertices: int
    closeness_mean: float
    events_admitted: int
    batches: int
    rc_steps: int
    pending: int
    #: batches per chosen strategy so far (policy-driven runs)
    strategy_counts: Dict[str, int]

    def lines(self) -> List[str]:
        chosen = " ".join(
            f"{name}={count}"
            for name, count in sorted(self.strategy_counts.items())
        )
        return [
            f"serve summary @ tick {self.tick}",
            f"  modeled {self.modeled_seconds:.4f}s"
            f"  rc_steps {self.rc_steps}  batches {self.batches}",
            f"  events admitted {self.events_admitted}"
            f"  pending {self.pending}",
            f"  vertices {self.num_vertices}"
            f"  closeness_mean {self.closeness_mean:.6f}",
            f"  strategies {chosen or '-'}",
        ]


class UpdateService:
    """Streaming ingest loop over a set-up engine.

    Parameters
    ----------
    engine:
        The engine to serve; :meth:`~AnytimeAnywhereCloseness.setup` is
        called if it has not run yet.
    admission:
        Batching policy for the change feed (default
        :class:`HybridAdmission`).
    strategy:
        Strategy name or instance applied to admitted batches.  The
        name is resolved **once** so per-strategy state (round-robin
        offsets, policy decision traces) persists across batches.
        Default ``"auto"`` (signal-driven policy selection).
    summary_interval:
        Emit a :class:`ServeSummary` every this many ticks (0 = never).
    slo:
        Serving objectives: a sequence of
        :class:`~repro.obs.slo.SLOSpec` (or a prebuilt
        :class:`~repro.obs.slo.SLOEvaluator`) judged deterministically
        at every tick.  State transitions accumulate in
        :attr:`slo_alerts` and flow through the engine's observability
        hub as ``alert`` trace events.  Evaluation is read-only — serve
        results stay bitwise-identical with SLOs on or off.
    """

    def __init__(
        self,
        engine: AnytimeAnywhereCloseness,
        *,
        admission: Optional[AdmissionPolicy] = None,
        strategy: Union[str, DynamicStrategy] = "auto",
        summary_interval: int = 0,
        slo: Union[Sequence[SLOSpec], SLOEvaluator, None] = None,
    ) -> None:
        if summary_interval < 0:
            raise ConfigurationError("summary_interval must be >= 0")
        self.engine = engine
        if engine.cluster is None:
            engine.setup()
        self.admission: AdmissionPolicy = admission or HybridAdmission()
        resolved = engine.resolve_strategy(strategy)
        if resolved is None:
            raise ConfigurationError("the serve loop needs a strategy")
        # report fixed strategies under their requested registry name
        # (resolution may wrap them, e.g. in a CompositeStrategy)
        self._strategy_label = (
            strategy if isinstance(strategy, str) else resolved.name
        )
        # mixed add/delete batches are the serve norm: a hand-passed
        # additions-only instance must still route its deletions
        self.strategy: DynamicStrategy = route_deletions(resolved)
        self.summary_interval = summary_interval
        self._pending: List[PendingChange] = []
        self.tick = 0
        #: per-tick records, in order (the canonical serve trace)
        self.ticks: List[ServeTick] = []
        self.summaries: List[ServeSummary] = []
        self.events_admitted = 0
        self.batches_formed = 0
        self.rc_steps_total = 0
        self._strategy_counts: Dict[str, int] = {}
        if slo is None or isinstance(slo, SLOEvaluator):
            self.slo: Optional[SLOEvaluator] = slo
        else:
            self.slo = SLOEvaluator(slo) if slo else None
        #: every SLO state transition so far, in emission order
        self.slo_alerts: List[SLOAlert] = []

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def feed(
        self, changes: Union[ChangeBatch, Iterable[ChangeEvent]]
    ) -> None:
        """Queue change events, stamped with the current tick and clock."""
        events = (
            batch_to_events(changes)
            if isinstance(changes, ChangeBatch)
            else list(changes)
        )
        now = self.engine.modeled_seconds
        for ev in events:
            self._pending.append(PendingChange(ev, self.tick, now))

    @property
    def pending_events(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # the serve loop
    # ------------------------------------------------------------------
    def step(self) -> ServeTick:
        """One service tick: admit, run one paced RC step, record."""
        admitted = self.admission.admit(
            tuple(self._pending), self.tick, self.engine.modeled_seconds
        )
        admitted = max(0, min(int(admitted), len(self._pending)))
        return self._advance(admitted, reason_override=None)

    def flush(self) -> ServeTick:
        """Force-admit the whole queue, bypassing the admission policy."""
        return self._advance(len(self._pending), reason_override="flush")

    def drain(self) -> RunResult:
        """Flush everything queued, then run the engine to convergence."""
        while self._pending:
            self.flush()
        final = self.engine.run(strategy=self.strategy)
        self.rc_steps_total += final.rc_steps
        return final

    def result(self) -> RunResult:
        """Alias of :meth:`drain` (the session facade's ``.result()``)."""
        return self.drain()

    # ------------------------------------------------------------------
    def _advance(
        self, admitted: int, reason_override: Optional[str]
    ) -> ServeTick:
        batch = (
            events_to_batch(pc.event for pc in self._pending[:admitted])
            if admitted
            else None
        )
        clock_before = self.engine.modeled_seconds
        decisions_before = len(self.policy_decisions)
        if batch is not None:
            stream = ChangeStream({self.engine.next_step: batch})
            result = self.engine.run(
                changes=stream, strategy=self.strategy, step_budget=1
            )
        else:
            # no batch: one refinement step keeps queued rows draining
            result = self.engine.run(strategy=self.strategy, step_budget=1)
        strategy_name = ""
        reason = ""
        if batch is not None:
            strategy_name = self._strategy_label
            decisions = self.policy_decisions
            if len(decisions) > decisions_before:
                last = decisions[-1]
                strategy_name = last.strategy
                reason = last.reason
            if reason_override is not None:
                reason = reason_override
            del self._pending[:admitted]
            self.events_admitted += admitted
            self.batches_formed += 1
            self._strategy_counts[strategy_name] = (
                self._strategy_counts.get(strategy_name, 0) + 1
            )
        record = ServeTick(
            tick=self.tick,
            admitted=admitted,
            strategy=strategy_name,
            reason=reason,
            rc_steps=result.rc_steps,
            modeled_seconds=result.modeled_seconds,
            pending=len(self._pending),
            converged=result.converged,
        )
        self.ticks.append(record)
        self.rc_steps_total += result.rc_steps
        if self.slo is not None:
            self._evaluate_slo(record, result, clock_before)
        self.tick += 1
        if self.summary_interval and self.tick % self.summary_interval == 0:
            self.summaries.append(self.summarize(result))
        return record

    def _evaluate_slo(
        self, record: ServeTick, result: RunResult, clock_before: float
    ) -> None:
        """Judge one tick against the loaded SLOs (read-only).

        Degraded ticks are first-class inputs — they burn the
        degraded-tick budget instead of crashing the evaluator — and
        every extracted signal is a modeled quantity, so the alert
        stream pins byte-for-byte across repeats and backends.
        """
        evaluator = self.slo
        assert evaluator is not None
        signals = self.engine.signals()
        probe = signals.sample()
        health = signals.per_rank(HEALTH_STATE)
        hit_rate = signals.get(DELTA_HIT_RATE, default=-1.0)
        sample = SLOSample(
            tick=record.tick,
            t=result.modeled_seconds,
            tick_seconds=result.modeled_seconds - clock_before,
            residual_max=probe.get("residual_max"),
            delta_hit_rate=None if hit_rate < 0.0 else hit_rate,
            degraded=result.degraded,
            rank_health_max=max(health.values()) if health else None,
        )
        alerts = evaluator.observe(sample)
        if not alerts:
            return
        self.slo_alerts.extend(alerts)
        hub = self.engine.obs
        if hub.enabled:
            for alert in alerts:
                hub.emit(
                    "alert",
                    "slo",
                    alert.slo,
                    alert.t,
                    step=alert.tick,
                    attrs=alert.attrs(),
                )
                if alert.state == "firing":
                    hub.registry.inc(SLO_VIOLATIONS, slo=alert.slo)

    def summarize(self, result: RunResult) -> ServeSummary:
        """Digest ``result`` + loop counters into a :class:`ServeSummary`."""
        closeness = result.closeness
        mean = (
            sum(closeness.values()) / len(closeness) if closeness else 0.0
        )
        return ServeSummary(
            tick=self.tick,
            modeled_seconds=result.modeled_seconds,
            num_vertices=len(closeness),
            closeness_mean=mean,
            events_admitted=self.events_admitted,
            batches=self.batches_formed,
            rc_steps=self.rc_steps_total,
            pending=len(self._pending),
            strategy_counts=dict(sorted(self._strategy_counts.items())),
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def signals(self) -> SignalView:
        """Live run signals (read-only), as the strategy policy sees them."""
        return self.engine.signals()

    @property
    def policy_decisions(self) -> List[PolicyDecision]:
        """Decision trace of a policy-driven strategy (else empty)."""
        if isinstance(self.strategy, PolicyDrivenStrategy):
            return list(self.strategy.decisions)
        return []
