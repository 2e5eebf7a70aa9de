"""Tests for the repro-lint invariant linter (tools/repro_lint).

Every rule gets a flag / no-flag / suppression triple over synthetic
fixture files, plus CLI-level tests (text/json output, exit codes) and
a self-check that the real ``src/repro`` tree lints clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path
from typing import List, Optional

from repro_lint import LintConfig, Registry, lint_file, lint_paths
from repro_lint.cli import main as lint_main
from repro_lint.config import load_config
from repro_lint.core import Finding, collect_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(
    tmp_path: Path,
    rel: str,
    source: str,
    *,
    select: Optional[List[str]] = None,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Write ``source`` at ``tmp_path/rel`` and lint it."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, config or LintConfig(), select=select)


def codes(findings: List[Finding]) -> List[str]:
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# framework
# ----------------------------------------------------------------------
class TestFramework:
    def test_all_rules_registered(self) -> None:
        assert Registry.codes() == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL006",
            "RPL007",
            "RPL008",
            "RPL009",
            "RPL010",
        ]

    def test_rules_have_docs(self) -> None:
        for rule_cls in Registry.rules():
            assert rule_cls.name
            assert rule_cls.description

    def test_out_of_scope_file_is_ignored(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path,
            "scripts/helper.py",
            "import random\nrandom.random()\n",
        )
        assert findings == []

    def test_syntax_error_reports_rpl000(self, tmp_path: Path) -> None:
        findings = lint_source(
            tmp_path, "src/repro/runtime/bad.py", "def broken(:\n"
        )
        assert codes(findings) == ["RPL000"]

    def test_select_filters_rules(self, tmp_path: Path) -> None:
        source = """
            import random
            random.random()
            try:
                pass
            except:
                pass
        """
        findings = lint_source(
            tmp_path, "src/repro/runtime/x.py", source, select=["RPL005"]
        )
        assert codes(findings) == ["RPL005"]

    def test_findings_sorted_by_location(self, tmp_path: Path) -> None:
        source = """
            import random
            random.random()
            random.randint(0, 3)
        """
        findings = lint_source(tmp_path, "src/repro/model/x.py", source)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_per_file_ignores(self, tmp_path: Path) -> None:
        config = LintConfig(
            per_file_ignores={"repro/runtime/legacy.py": ("RPL001",)}
        )
        findings = lint_source(
            tmp_path,
            "src/repro/runtime/legacy.py",
            "import random\nrandom.random()\n",
            config=config,
        )
        assert findings == []


class TestSuppressions:
    def test_same_line_pragma(self) -> None:
        sup = collect_suppressions(
            "x = 1  # repro-lint: disable=RPL001\n"
        )
        assert sup[1] == {"RPL001"}

    def test_multiple_codes(self) -> None:
        sup = collect_suppressions(
            "x = 1  # repro-lint: disable=RPL001,RPL003\n"
        )
        assert sup[1] == {"RPL001", "RPL003"}

    def test_standalone_pragma_rolls_forward(self) -> None:
        sup = collect_suppressions(
            "# repro-lint: disable=RPL002\nfor x in s:\n    pass\n"
        )
        assert "RPL002" in sup[2]

    def test_pragma_inside_string_is_not_a_pragma(self) -> None:
        sup = collect_suppressions(
            's = "# repro-lint: disable=RPL001"\n'
        )
        assert 1 not in sup


# ----------------------------------------------------------------------
# RPL001 — unseeded randomness
# ----------------------------------------------------------------------
class TestRPL001:
    def test_flags_module_level_random(self, tmp_path: Path) -> None:
        source = """
            import random
            x = random.random()
        """
        findings = lint_source(tmp_path, "src/repro/model/r.py", source)
        assert codes(findings) == ["RPL001"]

    def test_flags_unseeded_default_rng(self, tmp_path: Path) -> None:
        source = """
            import numpy as np
            rng = np.random.default_rng()
        """
        findings = lint_source(tmp_path, "src/repro/model/r.py", source)
        assert codes(findings) == ["RPL001"]

    def test_flags_none_seed(self, tmp_path: Path) -> None:
        source = """
            import numpy as np
            rng = np.random.default_rng(None)
        """
        findings = lint_source(tmp_path, "src/repro/model/r.py", source)
        assert codes(findings) == ["RPL001"]

    def test_seeded_rng_is_clean(self, tmp_path: Path) -> None:
        source = """
            import random
            import numpy as np
            rng = np.random.default_rng(42)
            rng2 = np.random.default_rng(seed=7)
            r = random.Random(0)
            x = rng.integers(0, 10)
        """
        findings = lint_source(tmp_path, "src/repro/model/r.py", source)
        assert findings == []

    def test_seed_via_from_import(self, tmp_path: Path) -> None:
        source = """
            from numpy.random import default_rng
            bad = default_rng()
            good = default_rng(3)
        """
        findings = lint_source(tmp_path, "src/repro/model/r.py", source)
        assert codes(findings) == ["RPL001"]
        assert findings[0].line == 3  # the dedented source leads with \n

    def test_suppression(self, tmp_path: Path) -> None:
        source = """
            import random
            x = random.random()  # repro-lint: disable=RPL001
        """
        findings = lint_source(tmp_path, "src/repro/model/r.py", source)
        assert findings == []


# ----------------------------------------------------------------------
# RPL002 — nondeterministic iteration
# ----------------------------------------------------------------------
class TestRPL002:
    def test_flags_for_over_set_literal_var(self, tmp_path: Path) -> None:
        source = """
            def f():
                ranks = {1, 2, 3}
                for r in ranks:
                    handle(r)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert codes(findings) == ["RPL002"]

    def test_flags_annotated_set_argument(self, tmp_path: Path) -> None:
        source = """
            from typing import Set

            def f(ranks: Set[int]) -> None:
                for r in ranks:
                    handle(r)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert codes(findings) == ["RPL002"]

    def test_flags_set_valued_dict_lookup(self, tmp_path: Path) -> None:
        source = """
            from typing import Dict, Set

            class W:
                def __init__(self) -> None:
                    self.subscribers: Dict[int, Set[int]] = {}

                def f(self, v: int) -> None:
                    for dst in self.subscribers.get(v, ()):
                        handle(dst)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert codes(findings) == ["RPL002"]

    def test_flags_list_materialization(self, tmp_path: Path) -> None:
        source = """
            def f():
                s = set([3, 1, 2])
                return list(s)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert codes(findings) == ["RPL002"]

    def test_sorted_iteration_is_clean(self, tmp_path: Path) -> None:
        source = """
            def f():
                ranks = {1, 2, 3}
                for r in sorted(ranks):
                    handle(r)
                return sorted(v for v in ranks if v > 1)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []

    def test_dict_iteration_is_clean(self, tmp_path: Path) -> None:
        # plain dicts preserve insertion order — deterministic
        source = """
            def f(d):
                for k in d:
                    handle(k)
                for k, v in d.items():
                    handle(k, v)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []

    def test_outside_order_sensitive_package_is_clean(
        self, tmp_path: Path
    ) -> None:
        source = """
            def f():
                for r in {1, 2, 3}:
                    handle(r)
        """
        findings = lint_source(tmp_path, "src/repro/graph/g.py", source)
        assert findings == []

    def test_set_union_taint(self, tmp_path: Path) -> None:
        source = """
            def f(a, b):
                merged = set(a) | set(b)
                for x in merged:
                    handle(x)
        """
        findings = lint_source(tmp_path, "src/repro/partition/p.py", source)
        assert codes(findings) == ["RPL002"]

    def test_flags_set_map_alias(self, tmp_path: Path) -> None:
        # a local alias of a set-valued map must not hide the lookup
        source = """
            from typing import Dict, List, Set

            class W:
                def __init__(self) -> None:
                    self._subscribers: Dict[int, Set[int]] = {}
                    self._pending: List[Set[int]] = []

                def f(self, v: int) -> None:
                    subscribers = self._subscribers
                    for dst in subscribers.get(v, ()):
                        handle(dst)

                def g(self, dst: int) -> None:
                    pending = self._pending
                    for v in pending[dst]:
                        handle(v)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert codes(findings) == ["RPL002", "RPL002"]
        assert [f.line for f in findings] == [11, 16]

    def test_list_valued_map_alias_is_clean(self, tmp_path: Path) -> None:
        source = """
            from typing import Dict, List

            class W:
                def __init__(self) -> None:
                    self.subscribers: Dict[int, List[int]] = {}

                def f(self, v: int) -> None:
                    subscribers = self.subscribers
                    for dst in subscribers.get(v, ()):
                        handle(dst)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []

    def test_reassignment_clears_taint(self, tmp_path: Path) -> None:
        source = """
            def f():
                xs = {1, 2}
                xs = sorted(xs)
                for x in xs:
                    handle(x)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []

    def test_suppression(self, tmp_path: Path) -> None:
        source = """
            def f():
                ranks = {1, 2, 3}
                for r in ranks:  # repro-lint: disable=RPL002
                    handle(r)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []


# ----------------------------------------------------------------------
# RPL003 — wall-clock leakage
# ----------------------------------------------------------------------
class TestRPL003:
    def test_flags_time_time(self, tmp_path: Path) -> None:
        source = """
            import time
            t = time.time()
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert codes(findings) == ["RPL003"]

    def test_flags_perf_counter_from_import(self, tmp_path: Path) -> None:
        source = """
            from time import perf_counter
            t = perf_counter()
        """
        findings = lint_source(tmp_path, "src/repro/core/e.py", source)
        assert codes(findings) == ["RPL003"]

    def test_flags_datetime_now(self, tmp_path: Path) -> None:
        source = """
            from datetime import datetime
            stamp = datetime.now()
        """
        findings = lint_source(tmp_path, "src/repro/model/m.py", source)
        assert codes(findings) == ["RPL003"]

    def test_allowlisted_tracing_module_is_clean(
        self, tmp_path: Path
    ) -> None:
        source = """
            import time
            t = time.perf_counter()
        """
        findings = lint_source(
            tmp_path, "src/repro/runtime/tracing.py", source
        )
        assert findings == []

    def test_allowlisted_bench_package_is_clean(
        self, tmp_path: Path
    ) -> None:
        source = """
            import time
            t = time.perf_counter()
        """
        findings = lint_source(
            tmp_path, "src/repro/bench/scenarios.py", source
        )
        assert findings == []

    def test_modeled_clock_is_clean(self, tmp_path: Path) -> None:
        source = """
            def advance(clock: float, elapsed: float) -> float:
                return clock + elapsed
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []

    def test_suppression(self, tmp_path: Path) -> None:
        source = """
            import time
            t = time.time()  # repro-lint: disable=RPL003
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []


# ----------------------------------------------------------------------
# RPL004 — uncharged wire copies
# ----------------------------------------------------------------------
class TestRPL004:
    def test_flags_uncharged_send(self, tmp_path: Path) -> None:
        source = """
            def forward(src, dst, payload):
                dst.receive_rows(src.rank, payload)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/c.py", source)
        assert codes(findings) == ["RPL004"]

    def test_charged_send_is_clean(self, tmp_path: Path) -> None:
        source = """
            def forward(self, src, dst, payload, words):
                self.charge_comm_words(src.rank, dst.rank, words)
                dst.receive_rows(src.rank, payload)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/c.py", source)
        assert findings == []

    def test_self_receive_is_clean(self, tmp_path: Path) -> None:
        # a worker's own intake path: priced by the remote caller
        source = """
            class Worker:
                def ingest(self, sender, payload):
                    self.receive_rows(sender, payload)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []

    def test_outside_wire_package_is_clean(self, tmp_path: Path) -> None:
        source = """
            def forward(dst, payload):
                dst.receive_rows(0, payload)
        """
        findings = lint_source(tmp_path, "src/repro/core/e.py", source)
        assert findings == []

    def test_nested_function_does_not_leak_charge(
        self, tmp_path: Path
    ) -> None:
        # the charge lives in a *nested* function that may never run
        source = """
            def forward(self, dst, payload):
                def maybe_charge():
                    self.charge_comm_words(0, 1, 10)
                dst.receive_rows(0, payload)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/c.py", source)
        assert codes(findings) == ["RPL004"]

    def test_suppression(self, tmp_path: Path) -> None:
        source = """
            def forward(dst, payload):
                dst.receive_rows(0, payload)  # repro-lint: disable=RPL004
        """
        findings = lint_source(tmp_path, "src/repro/runtime/c.py", source)
        assert findings == []


# ----------------------------------------------------------------------
# RPL005 — overbroad except on fault paths
# ----------------------------------------------------------------------
class TestRPL005:
    def test_flags_bare_except(self, tmp_path: Path) -> None:
        source = """
            def step():
                try:
                    run()
                except:
                    pass
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert codes(findings) == ["RPL005"]

    def test_flags_except_exception_on_fault_path(
        self, tmp_path: Path
    ) -> None:
        source = """
            def recover():
                try:
                    restore()
                except Exception:
                    return None
        """
        findings = lint_source(tmp_path, "src/repro/runtime/f.py", source)
        assert codes(findings) == ["RPL005"]

    def test_reraising_handler_is_clean(self, tmp_path: Path) -> None:
        source = """
            def recover():
                try:
                    restore()
                except Exception as exc:
                    raise RuntimeError("restore failed") from exc
        """
        findings = lint_source(tmp_path, "src/repro/core/c.py", source)
        assert findings == []

    def test_specific_exception_is_clean(self, tmp_path: Path) -> None:
        source = """
            def recover():
                try:
                    restore()
                except (KeyError, ValueError):
                    return None
        """
        findings = lint_source(tmp_path, "src/repro/runtime/f.py", source)
        assert findings == []

    def test_except_exception_outside_fault_path_is_clean(
        self, tmp_path: Path
    ) -> None:
        source = """
            def parse():
                try:
                    load()
                except Exception:
                    return None
        """
        findings = lint_source(tmp_path, "src/repro/model/m.py", source)
        assert findings == []

    def test_suppression(self, tmp_path: Path) -> None:
        source = """
            def step():
                try:
                    run()
                except Exception:  # repro-lint: disable=RPL005
                    pass
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []


# ----------------------------------------------------------------------
# RPL006 — bare print() in library code
# ----------------------------------------------------------------------
class TestRPL006:
    def test_flags_bare_print(self, tmp_path: Path) -> None:
        source = """
            def debug(x):
                print("value", x)
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert codes(findings) == ["RPL006"]

    def test_allowlisted_cli_is_clean(self, tmp_path: Path) -> None:
        source = """
            def main():
                print("table")
        """
        findings = lint_source(tmp_path, "src/repro/cli.py", source)
        assert findings == []

    def test_allowlisted_bench_is_clean(self, tmp_path: Path) -> None:
        source = """
            def progress():
                print("running...")
        """
        findings = lint_source(tmp_path, "src/repro/bench/b.py", source)
        assert findings == []

    def test_method_named_print_is_clean(self, tmp_path: Path) -> None:
        source = """
            def render(doc):
                doc.print()
        """
        findings = lint_source(tmp_path, "src/repro/obs/x.py", source)
        assert findings == []

    def test_custom_allowlist(self, tmp_path: Path) -> None:
        config = LintConfig(print_allowlist=("repro/tools_io/",))
        flagged = lint_source(
            tmp_path,
            "src/repro/cli.py",
            "print('hi')\n",
            config=config,
        )
        assert codes(flagged) == ["RPL006"]
        clean = lint_source(
            tmp_path,
            "src/repro/tools_io/p.py",
            "print('hi')\n",
            config=config,
        )
        assert clean == []

    def test_suppression(self, tmp_path: Path) -> None:
        source = """
            def debug(x):
                print(x)  # repro-lint: disable=RPL006
        """
        findings = lint_source(tmp_path, "src/repro/runtime/w.py", source)
        assert findings == []


# ----------------------------------------------------------------------
# RPL007 — wall-clock retry backoff
# ----------------------------------------------------------------------
class TestRPL007:
    def test_flags_sleep_in_retry_loop(self, tmp_path: Path) -> None:
        source = """
            import time

            def deliver(packet, max_retries):
                for attempt in range(max_retries):
                    if send(packet):
                        return
                    time.sleep(0.1 * attempt)
        """
        findings = lint_source(
            tmp_path, "src/repro/runtime/net.py", source, select=["RPL007"]
        )
        assert codes(findings) == ["RPL007"]

    def test_flags_unseeded_jitter_in_backoff_loop(
        self, tmp_path: Path
    ) -> None:
        source = """
            import random

            def resend(ch):
                backoff = 1.0
                while ch.pending():
                    backoff *= 2 * (1 + random.random())
                    ch.charge(backoff)
        """
        findings = lint_source(
            tmp_path, "src/repro/runtime/net.py", source, select=["RPL007"]
        )
        assert codes(findings) == ["RPL007"]

    def test_flags_seedless_default_rng_in_retry_loop(
        self, tmp_path: Path
    ) -> None:
        source = """
            import numpy as np

            def jittered_retries(n):
                for attempt in range(n):
                    rng = np.random.default_rng()
                    yield rng.random()
        """
        findings = lint_source(
            tmp_path, "src/repro/runtime/net.py", source, select=["RPL007"]
        )
        assert codes(findings) == ["RPL007"]

    def test_modeled_clock_backoff_is_clean(self, tmp_path: Path) -> None:
        # the blessed pattern: seeded generator + modeled-clock charge
        source = """
            import numpy as np

            def resend(ch, tracer, seed):
                rng = np.random.default_rng(seed)
                for attempt in range(ch.max_retries):
                    delay = 1e-3 * 2 ** attempt * (1 + 0.1 * rng.random())
                    tracer.add_comm(delay)
        """
        findings = lint_source(
            tmp_path, "src/repro/runtime/net.py", source, select=["RPL007"]
        )
        assert findings == []

    def test_sleep_outside_retry_loop_not_flagged(
        self, tmp_path: Path
    ) -> None:
        # plain sleeps are RPL003's wall-clock problem, not RPL007's
        source = """
            import time

            def warmup(items):
                for item in items:
                    time.sleep(0.5)
        """
        findings = lint_source(
            tmp_path, "src/repro/runtime/net.py", source, select=["RPL007"]
        )
        assert findings == []

    def test_bench_allowlist_may_sleep(self, tmp_path: Path) -> None:
        source = """
            import time

            def poll(job):
                for attempt in range(10):
                    if job.done():
                        return
                    time.sleep(1.0)
        """
        findings = lint_source(
            tmp_path, "src/repro/bench/poll.py", source, select=["RPL007"]
        )
        assert findings == []

    def test_suppression(self, tmp_path: Path) -> None:
        source = """
            import time

            def deliver(packet, retries):
                for attempt in range(retries):
                    time.sleep(1)  # repro-lint: disable=RPL007
        """
        findings = lint_source(
            tmp_path, "src/repro/runtime/net.py", source, select=["RPL007"]
        )
        assert findings == []


# ----------------------------------------------------------------------
# config loading
# ----------------------------------------------------------------------
class TestConfig:
    def test_defaults_when_pyproject_missing(self, tmp_path: Path) -> None:
        cfg = load_config(tmp_path / "nope.toml")
        assert cfg == LintConfig()

    def test_pyproject_table_overrides(self, tmp_path: Path) -> None:
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            textwrap.dedent(
                """
                [tool.repro-lint]
                wall-clock-allowlist = ["mypkg/timing.py"]
                send-primitives = ["push_rows"]
                """
            ),
            encoding="utf-8",
        )
        cfg = load_config(pyproject)
        assert cfg.wall_clock_allowlist == ("mypkg/timing.py",)
        assert cfg.send_primitives == ("push_rows",)
        # untouched fields keep their defaults
        assert cfg.charge_primitives == LintConfig().charge_primitives

    def test_repo_pyproject_parses(self) -> None:
        cfg = load_config(REPO_ROOT / "pyproject.toml")
        assert "repro/" in cfg.target_packages


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_exit_zero_on_clean_tree(self, tmp_path: Path) -> None:
        clean = tmp_path / "src/repro/model/clean.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("x = 1\n", encoding="utf-8")
        assert lint_main(["--no-config", str(clean)]) == 0

    def test_exit_one_on_findings(self, tmp_path: Path, capsys) -> None:
        bad = tmp_path / "src/repro/model/bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.random()\n", encoding="utf-8")
        assert lint_main(["--no-config", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out

    def test_exit_two_on_missing_path(self, tmp_path: Path) -> None:
        assert lint_main([str(tmp_path / "ghost.py")]) == 2

    def test_exit_two_on_no_paths(self) -> None:
        assert lint_main([]) == 2

    def test_exit_two_on_unknown_select(self, tmp_path: Path) -> None:
        f = tmp_path / "x.py"
        f.write_text("x = 1\n", encoding="utf-8")
        assert lint_main(["--select", "RPL999", str(f)]) == 2

    def test_json_output(self, tmp_path: Path, capsys) -> None:
        bad = tmp_path / "src/repro/model/bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.random()\n", encoding="utf-8")
        assert (
            lint_main(["--no-config", "--format", "json", str(bad)]) == 1
        )
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 1
        assert report["findings"][0]["code"] == "RPL001"
        assert report["findings"][0]["line"] == 2

    def test_list_rules(self, capsys) -> None:
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in Registry.codes():
            assert code in out

    def test_directory_walk(self, tmp_path: Path) -> None:
        pkg = tmp_path / "src/repro/runtime"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("import time\ntime.time()\n")
        (pkg / "b.py").write_text("x = 1\n")
        findings = lint_paths([tmp_path / "src"], LintConfig())
        assert codes(findings) == ["RPL003"]


# ----------------------------------------------------------------------
# self-check: the shipped tree must satisfy its own invariants
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_src_repro_is_lint_clean(self) -> None:
        cfg = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "src" / "repro"], cfg)
        assert findings == [], "\n".join(f.render() for f in findings)
