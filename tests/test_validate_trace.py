"""tools/validate_trace.py: one validator for every checked-in schema.

Each schema accepts its committed (or freshly exported) example and
rejects a known-bad line; ``slo_spec`` is validated as one document and
then through the library loader's semantic pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import validate_trace  # tools/ is on sys.path via tests/conftest.py

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.graph import barabasi_albert
from repro.serve.traces import save_change_trace, synthesize_churn

ROOT = Path(__file__).resolve().parent.parent


def _trace_event_example(tmp_path: Path) -> Path:
    path = tmp_path / "trace.jsonl"
    engine = AnytimeAnywhereCloseness(
        barabasi_albert(30, 2, seed=1),
        AnytimeConfig(
            nprocs=2, collect_snapshots=False, observers=(f"jsonl:{path}",)
        ),
    )
    engine.setup()
    engine.run()
    engine.close()
    return path


def _change_trace_example(tmp_path: Path) -> Path:
    path = tmp_path / "changes.jsonl"
    trace = synthesize_churn("steady-small", n_base=30, ticks=4, seed=1)
    save_change_trace(path, trace.events)
    return path


def _example(schema: str, tmp_path: Path) -> Path:
    if schema == "trace_event":
        return _trace_event_example(tmp_path)
    if schema == "change_trace":
        return _change_trace_example(tmp_path)
    if schema == "bench_record":
        return ROOT / "benchmarks" / "history" / "delta_exchange.jsonl"
    return ROOT / "examples" / "serving_slos.json"


#: one line each schema must reject
BAD = {
    "trace_event": '{"seq": 0, "kind": "begin"}',
    "change_trace": '{"at": -1, "op": "nope"}',
    "bench_record": '{"schema_version": 1, "bench": "x"}',
    "slo_spec": '{"slos": []}',
}


@pytest.mark.parametrize("schema", sorted(BAD))
def test_accepts_example(schema, tmp_path):
    path = _example(schema, tmp_path)
    assert validate_trace.validate_file(path, schema) == []
    assert validate_trace.main([schema, str(path)]) == 0


@pytest.mark.parametrize("schema", sorted(BAD))
def test_rejects_bad_line(schema, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(BAD[schema] + "\n", encoding="utf-8")
    assert validate_trace.validate_file(bad, schema) != []
    assert validate_trace.main([schema, str(bad)]) == 1


def test_schema_by_path(tmp_path):
    path = _change_trace_example(tmp_path)
    schema = ROOT / "tools" / "schemas" / "change_trace.schema.json"
    assert validate_trace.validate_file(path, str(schema)) == []


def test_slo_semantic_pass_runs_after_schema(tmp_path):
    spec = json.loads(
        (ROOT / "examples" / "serving_slos.json").read_text(encoding="utf-8")
    )
    # the schema subset has no "maximum"; the loader rejects 1.0
    spec["slos"][1]["budget_fraction"] = 1.0
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    errors = validate_trace.validate_file(path, "slo_spec")
    assert errors and all(e.startswith("semantic:") for e in errors)


def test_usage_error():
    assert validate_trace.main(["trace_event"]) == 2
