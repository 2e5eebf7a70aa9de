"""The repository benchmark: one named workload from one seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grow --seed 1 --seconds 30 --trace 0

Runs timed cycles of the workload, each in a fresh process
(``cycle.py``), for ``--seconds`` seconds, at least one cycle per input
variant.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced cycles of the same input
and reports the per-layer metrics, the tracing overhead, and checks that
tracing left closeness and the modeled clock bitwise unchanged.  Every
cycle's output is checked outside its timed region.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
restate the figures for people, with the environment they were taken
in.  Spans of traced runs and full results are written to
``perfbench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from stats import group, percentile, supported, tail_percentile, variant_mean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("cold-start", "grow", "churn")
#: input variants per run, each seeded from (seed, variant); every
#: untraced run covers all of them
VARIANTS = 8
#: traced runs cover at least this many variants (one pair each)
TRACED_VARIANTS = 4
#: hard cap on one run, cycles included
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "answer_s": "s",
    "peak_rss_mb": "MB",
    "modeled_s": "s",
    "wire_words": "words",
}

PER_LAYER_UNITS = {"calls": "count", "rows": "count", "steps": "count",
                   "ticks": "count", "batches": "count", "self_s": "s",
                   "rss_delta_mb": "MB"}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.split(".", 1)[1], "ratio")


class CycleFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    """The pinned environment of every cycle process."""
    env = dict(os.environ)
    for key in ("REPRO_BACKEND", "REPRO_KERNEL_TIER"):
        env.pop(key, None)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_cycle(workload: str, seed: int, variant: int, traced: bool,
              repeats: int, deadline: float) -> Dict[str, Any]:
    """One cycle in a fresh process group; killed whole at the deadline."""
    cmd = [sys.executable, str(HERE / "cycle.py"), workload, str(seed),
           str(variant), "1" if traced else "0", str(repeats)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CycleFailed(f"cycle {workload}/{variant} overran the run limit")
    finally:
        # pool workers of a crashed cycle must not outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise CycleFailed(f"cycle {workload}/{variant} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from files."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def ram_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def by_variant(cycles: List[Dict[str, Any]], key: str) -> float:
    pairs = []
    for c in cycles:
        vals = c[key] if isinstance(c[key], list) else [c[key]]
        pairs.extend((c["variant"], float(v)) for v in vals)
    return variant_mean(group(pairs))


def end_to_end(workload: str, cycles: List[Dict[str, Any]],
               lines: List[str]) -> Dict[str, float]:
    metrics = {name: by_variant(cycles, name) for name in END_TO_END}
    for name, unit in END_TO_END.items():
        lines.append(f"  {name} = {metrics[name]!r} {unit}")
    # the workload's own figures, reported beside the gated ones (on
    # cold-start the first answer is the answer)
    if workload != "cold-start":
        lines.append(
            f"  first_answer_s = {by_variant(cycles, 'first_answer_s')!r} s")
    if workload == "grow":
        lines.append(f"  converge_s = {by_variant(cycles, 'converge_s')!r} s")
    if workload == "churn":
        ticks = [t * 1e3 for c in cycles for t in c["tick_s"]]
        n = len(ticks)
        parts = [f"tick_p50_ms = {percentile(ticks, 50)!r} ms"]
        if supported(n, 90):
            parts.append(f"tick_p90_ms = {percentile(ticks, 90)!r} ms")
        tail = tail_percentile(ticks)
        if tail is not None:
            parts.append(f"tick tail p{tail[0]:g} = {tail[1]!r} ms")
        lines.append("  " + ", ".join(parts) + f" ({n} ticks)")
        eps = variant_mean(group(
            (c["variant"], c["events"] / c["loop_s"]) for c in cycles))
        lines.append(f"  loop_s = {by_variant(cycles, 'loop_s')!r} s,"
                     f" events_per_s = {eps!r} 1/s")
    return metrics


def per_layer(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              lines: List[str]) -> Dict[str, float]:
    """Per-layer metrics of the traced cycles; ``plain[k]`` is the untraced
    twin of ``traced[k]`` (same input)."""
    layers = {
        name: variant_mean(group((c["variant"], c["layers"][name])
                                 for c in traced))
        for name in traced[0]["layers"]
    }
    layers["trace.overhead"] = variant_mean(group(
        (t["variant"], t["answer_s"] / p["answer_s"])
        for p, t in zip(plain, traced)))
    wall = by_variant(traced, "answer_s")
    for name, value in layers.items():
        share = (f"  ({100 * value / wall:.1f}% of {wall:.3f} s)"
                 if name.endswith(".self_s") else "")
        lines.append(f"  {name} = {value!r} {per_layer_unit(name)}{share}")
    return layers


def determinism_checks(cycles: List[Dict[str, Any]], expect: Any) -> None:
    """Cycles of one input must agree bitwise on the answer, the modeled
    clock and the wire total."""
    first: Dict[int, Any] = {}
    for c in cycles:
        key = (c["digest"], c["modeled_s"], c["wire_words"])
        seen = first.setdefault(c["variant"], key)
        expect(seen == key, f"variant {c['variant']} repeats bitwise")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    attempted = failed = 0
    failures: List[str] = []

    def expect(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)

    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    i = 0
    try:
        least = TRACED_VARIANTS if args.trace else VARIANTS
        while i < least or time.monotonic() - start < args.seconds:
            v = i % VARIANTS
            if args.trace:
                # alternate which side runs first so drift cancels
                order = (False, True) if i % 2 == 0 else (True, False)
                pair = {t: run_cycle(args.workload, args.seed, v, t, 1,
                                     deadline) for t in order}
                plain.append(pair[False])
                traced.append(pair[True])
                expect(pair[False]["digest"] == pair[True]["digest"],
                       f"variant {v}: tracing left closeness and modeled_s"
                       " bitwise unchanged")
            else:
                plain.append(run_cycle(args.workload, args.seed, v, False, 0,
                                       deadline))
            i += 1
    except CycleFailed as exc:
        expect(False, str(exc))
    elapsed = time.monotonic() - start
    cycles = plain + traced
    for c in cycles:
        attempted += c["checks"]["attempted"]
        failed += len(c["checks"]["failures"])
        failures.extend(c["checks"]["failures"])
    if not plain:
        expect(False, "no cycle completed")
    determinism_checks(cycles, expect)

    env = {
        "cpu_count": os.cpu_count(),
        "ram_mb": round(ram_mb()),
        "python": platform.python_version(),
        "numpy": cycles[0]["versions"]["numpy"] if cycles else "?",
        "scipy": cycles[0]["versions"]["scipy"] if cycles else "?",
        "commit": git_commit(),
        "seed": args.seed,
        "blas_threads": 1,
        "pool_start_in_setup_s": args.workload == "cold-start",
    }
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}:"
        f" {len(cycles)} cycles over {min(i, VARIANTS)} input variants"
        f" in {elapsed:.1f} s",
        "  env: " + json.dumps(env, sort_keys=True),
    ]
    metrics: Dict[str, Dict[str, Any]] = {}
    if not failed and args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in per_layer(plain, traced, lines).items()}
    elif not failed:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(args.workload, plain, lines).items()}
    lines.append(f"  error_rate = {failed / attempted!r}"
                 f" ({failed} failed of {attempted} checks)")
    lines.extend(f"  FAILED: {f}" for f in failures)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for k, c in enumerate(traced):
                for name, a, b, parent, tick in c["spans"]:
                    fh.write(json.dumps({
                        "cycle": k, "variant": c["variant"], "name": name,
                        "start": a, "end": b, "parent": parent, "tick": tick,
                    }) + "\n")
    for c in cycles:
        c.pop("spans", None)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"env": env, "result": result, "cycles": cycles,
                   "failures": failures}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
