"""Layer spans for the traced benchmark run.

The benchmark wraps the public calls at each layer boundary of the
``repro`` package from here, records a span per call (name, start, end,
parent, tick) in memory, and folds the spans into per-layer metrics.
Nothing under ``src/`` is edited: :meth:`Tracer.install` swaps wrappers
onto the classes and modules, :meth:`Tracer.uninstall` puts the
originals back.

Self time of a span is its duration minus the part of it that its
direct children cover (their union, so overlapping children count once).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: span record: [name, start, end, parent index (-1 = root), tick id]
Span = List[Any]

#: every span name the wrappers emit, in layer order
SPAN_NAMES = (
    "dd", "partition", "ia", "csr",
    "apply_batch", "placement", "grow_columns", "edge_add", "edge_relax",
    "delete", "exchange", "superstep", "relax_cut", "propagate",
    "readout", "rc", "serve",
)

#: spans that stand for one logical call even when the wrapped methods
#: nest (a policy strategy delegating to a composite delegating to the
#: addition strategy is one batch application)
_COLLAPSE_NESTED = {"apply_batch", "partition", "delete", "serve"}

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _proc_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _proc_status_mb(pid: int, key: str) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _child_pids() -> List[int]:
    import multiprocessing

    return [p.pid for p in multiprocessing.active_children() if p.pid]


def rss_mb() -> float:
    """Current RSS of this process plus its live children (pool workers)."""
    total = _proc_rss_mb(os.getpid())
    for pid in _child_pids():
        try:
            total += _proc_rss_mb(pid)
        except FileNotFoundError:
            pass
    return total


def peak_rss_mb() -> float:
    """Peak RSS (VmHWM) of this process plus that of each live child."""
    total = _proc_status_mb(os.getpid(), "VmHWM")
    for pid in _child_pids():
        try:
            total += _proc_status_mb(pid, "VmHWM")
        except FileNotFoundError:
            pass
    return total


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        #: churn tick the current spans belong to (-1 = outside a tick)
        self.tick = -1
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._last_csr: Dict[int, Tuple[Any, Any]] = {}

    # -- recording ------------------------------------------------------
    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Optional[Callable[[Any, tuple, Any], None]] = None,
        before: Optional[Callable[[tuple], Any]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a ``name`` span; ``after(result, args, state)``
        records counters once the call returns, ``state`` being what
        ``before(args)`` returned."""
        collapse = name in _COLLAPSE_NESTED
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if collapse and opened.get(name):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, None)
                return result
            state = before(args) if before is not None else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.tick])
            stack.append(idx)
            opened[name] = opened.get(name, 0) + 1
            spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                opened[name] -= 1
            if after is not None:
                after(result, args, state)
            return result

        return wrapper

    # -- installing -----------------------------------------------------
    def _patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def _patch_subclasses(self, base: type, attr: str, name: str) -> None:
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            for sub in cls.__subclasses__():
                if sub not in seen:
                    seen.add(sub)
                    todo.append(sub)
            if attr in cls.__dict__ and not getattr(
                cls.__dict__[attr], "__isabstractmethod__", False
            ):
                self._patch(cls, attr, name)

    def _patch_function(self, fn: Callable[..., Any], name: str) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name."""
        wrapped = self.wrap(fn, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary; pair with :meth:`uninstall`."""
        import repro.partition  # noqa: F401  (registers every partitioner)
        from repro import AnytimeAnywhereCloseness
        from repro.core import strategies as strat
        from repro.graph import Graph
        from repro.partition.base import Partitioner
        from repro.runtime.cluster import Cluster
        from repro.runtime.worker import Worker
        from repro.serve import UpdateService

        def ia_before(_args: tuple) -> float:
            return rss_mb()

        def ia_after(_res: Any, _args: tuple, before: float) -> None:
            self.count("ia.rss_delta_mb", rss_mb() - before)

        def csr_after(view: Any, args: tuple, _state: Any) -> None:
            graph = args[0]
            last = self._last_csr.get(id(graph))
            if last is not None and last[1] is view:
                self.count("csr.hits")
            self._last_csr[id(graph)] = (graph, view)

        def exchange_after(rows: Any, _args: tuple, _state: Any) -> None:
            self.count("exchange.rows", float(rows))

        def propagate_after(useful: Any, _args: tuple, _state: Any) -> None:
            if useful:
                self.count("propagate.useful")

        def rc_after(result: Any, _args: tuple, _state: Any) -> None:
            self.count("rc.steps", float(result.rc_steps))

        def serve_after(tick: Any, _args: tuple, _state: Any) -> None:
            self.count("serve.ticks")
            if tick.admitted:
                self.count("serve.batches")

        self._patch(Cluster, "decompose", "dd")
        self._patch_subclasses(Partitioner, "partition", "partition")
        self._patch(Cluster, "run_initial_approximation", "ia",
                    before=ia_before, after=ia_after)
        self._patch(Graph, "to_csr", "csr", after=csr_after)
        self._patch_subclasses(strat.DynamicStrategy, "apply", "apply_batch")
        self._patch_subclasses(
            strat.ProcessorAssignmentStrategy, "assign", "placement"
        )
        self._patch(Cluster, "add_vertex_columns", "grow_columns")
        self._patch_function(strat.apply_edge_addition, "edge_add")
        self._patch(Worker, "relax_with_edge_rows", "edge_relax")
        self._patch_function(strat.apply_edge_deletion, "delete")
        self._patch_function(strat.apply_vertex_deletion, "delete")
        self._patch(Cluster, "exchange_boundary", "exchange",
                    after=exchange_after)
        self._patch(Cluster, "relax_and_propagate", "superstep")
        self._patch(Worker, "relax_cut_edges", "relax_cut")
        self._patch(Worker, "propagate_local", "propagate",
                    after=propagate_after)
        self._patch(AnytimeAnywhereCloseness, "current_closeness", "readout")
        self._patch(AnytimeAnywhereCloseness, "run", "rc", after=rc_after)
        self._patch(UpdateService, "step", "serve", after=serve_after)
        self._patch(UpdateService, "flush", "serve", after=serve_after)
        self._patch(UpdateService, "drain", "serve")

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._last_csr.clear()


# ----------------------------------------------------------------------
# folding spans into per-layer metrics
# ----------------------------------------------------------------------
def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the union of direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    return [
        (s[2] - s[1]) - covered(children.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def fold(
    spans: Sequence[Span],
    counters: Dict[str, float],
    window: Tuple[float, float],
    nprocs: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced cycle (see ``per_layer`` in
    BENCHMARK.json for each name's meaning)."""
    lo, hi = window
    selfs = self_times(spans)
    calls = {n: 0 for n in SPAN_NAMES}
    self_s = {n: 0.0 for n in SPAN_NAMES}
    for s, t in zip(spans, selfs):
        calls[s[0]] += 1
        self_s[s[0]] += t
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    wall = hi - lo
    c = counters.get

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "dd.self_s": self_s["dd"],
        "partition.calls": calls["partition"],
        "partition.self_s": self_s["partition"],
        "ia.self_s": self_s["ia"],
        "ia.rss_delta_mb": c("ia.rss_delta_mb", 0.0),
        "csr.calls": calls["csr"],
        "csr.hit_ratio": ratio(c("csr.hits", 0.0), calls["csr"]),
        "apply_batch.calls": calls["apply_batch"],
        "apply_batch.self_s": self_s["apply_batch"],
        "placement.self_s": self_s["placement"],
        "grow_columns.self_s": self_s["grow_columns"],
        "edge_add.calls": calls["edge_add"],
        "edge_add.self_s": self_s["edge_add"],
        "edge_relax.calls": calls["edge_relax"],
        "edge_relax.self_s": self_s["edge_relax"],
        "edge_relax.pass_ratio": ratio(
            calls["edge_relax"], calls["edge_add"] * nprocs
        ),
        "delete.calls": calls["delete"],
        "delete.self_s": self_s["delete"],
        "exchange.calls": calls["exchange"],
        "exchange.self_s": self_s["exchange"],
        "exchange.rows": c("exchange.rows", 0.0),
        "superstep.calls": calls["superstep"],
        "superstep.self_s": self_s["superstep"],
        "relax_cut.self_s": self_s["relax_cut"],
        "propagate.calls": calls["propagate"],
        "propagate.self_s": self_s["propagate"],
        "propagate.useful_ratio": ratio(
            c("propagate.useful", 0.0), calls["propagate"]
        ),
        "readout.calls": calls["readout"],
        "readout.self_s": self_s["readout"],
        "rc.steps": c("rc.steps", 0.0),
        "rc.self_s": self_s["rc"],
        "serve.ticks": c("serve.ticks", 0.0),
        "serve.batches": c("serve.batches", 0.0),
        "serve.self_s": self_s["serve"],
        "trace.unattributed_frac": ratio(wall - covered(roots, lo, hi), wall),
    }
    return {k: float(v) for k, v in m.items()}
