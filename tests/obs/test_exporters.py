"""Exporter formats: JSONL (schema-valid), Perfetto (structural),
Prometheus text, and the FORMAT:PATH spec parser."""

import json

import pytest

import validate_trace  # tools/ is on sys.path via tests/conftest.py
from repro.obs import (
    JSONLExporter,
    PerfettoExporter,
    PrometheusExporter,
    make_exporter,
    parse_spec,
)

from .conftest import run_scenario


class TestParseSpec:
    def test_formats(self, tmp_path):
        assert parse_spec("jsonl:a.jsonl") == ("jsonl", "a.jsonl")
        assert parse_spec("perfetto:t.json") == ("perfetto", "t.json")
        assert parse_spec("prom:m.prom") == ("prom", "m.prom")

    def test_prometheus_alias(self):
        assert parse_spec("prometheus:m.prom") == ("prom", "m.prom")

    def test_case_insensitive_format(self):
        assert parse_spec("JSONL:a.jsonl") == ("jsonl", "a.jsonl")

    @pytest.mark.parametrize(
        "bad", ["jsonl", "jsonl:", "csv:x.csv", ":path", "x"]
    )
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_make_exporter_types(self, tmp_path):
        assert isinstance(make_exporter("jsonl:x"), JSONLExporter)
        assert isinstance(make_exporter("perfetto:x"), PerfettoExporter)
        assert isinstance(make_exporter("prometheus:x"), PrometheusExporter)


class TestJSONL:
    def test_export_validates_against_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_scenario("dynamic", observers=(f"jsonl:{path}",))
        errors = validate_trace.validate_file(path, "trace_event")
        assert errors == []

    def test_chaos_export_validates_against_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_scenario(
            "chaos", observers=(f"jsonl:{path}", "convergence")
        )
        errors = validate_trace.validate_file(path, "trace_event")
        assert errors == []

    def test_validator_flags_bad_events(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"seq": -1, "kind": "begin", "level": "nope", "name": 3,'
            ' "t": 0.0, "step": null, "rank": null, "attrs": {},'
            ' "wall": null, "extra": 1}\n'
            "not json\n",
            encoding="utf-8",
        )
        errors = validate_trace.validate_file(bad, "trace_event")
        assert any("below minimum" in e for e in errors)
        assert any("not in enum" in e for e in errors)
        assert any("expected type string" in e for e in errors)
        assert any("unexpected property 'extra'" in e for e in errors)
        assert any("invalid JSON" in e for e in errors)

    def test_eventless_close_leaves_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        exp = JSONLExporter(str(path))
        exp.close(registry=None)
        assert path.read_text(encoding="utf-8") == ""


class TestPerfetto:
    def test_four_rank_dynamic_trace_is_structurally_valid(self, tmp_path):
        path = tmp_path / "trace.perfetto.json"
        run_scenario(
            "dynamic", nprocs=4, observers=(f"perfetto:{path}",)
        )
        doc = json.loads(path.read_text(encoding="utf-8"))
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        assert doc["displayTimeUnit"] == "ms"
        phs = {e["ph"] for e in events}
        assert phs <= {"B", "E", "i", "X", "C", "M"}
        # every begin is balanced by an end, in order, per (pid, tid)
        stacks = {}
        for e in events:
            key = (e["pid"], e["tid"])
            if e["ph"] == "B":
                stacks.setdefault(key, []).append(e["name"])
            elif e["ph"] == "E":
                assert stacks[key].pop() == e["name"]
        assert all(not s for s in stacks.values())
        # rank kernels are complete slices on one track per rank
        kernel_tids = {
            e["tid"] for e in events if e["ph"] == "X"
        }
        assert kernel_tids == {1, 2, 3, 4}
        assert all(
            e["dur"] >= 0 for e in events if e["ph"] == "X"
        )
        assert all(
            e.get("ts", 0) >= 0 for e in events if e["ph"] != "M"
        )
        # thread-name metadata covers the coordinator and all 4 ranks
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"coordinator", "rank 0", "rank 1", "rank 2",
                         "rank 3"}


class TestPrometheus:
    def test_dump_has_typed_well_known_series(self, tmp_path):
        path = tmp_path / "metrics.prom"
        run_scenario("chaos", observers=(f"prom:{path}",))
        text = path.read_text(encoding="utf-8")
        assert "# TYPE repro_wire_words_total counter" in text
        assert "# TYPE repro_delta_hit_rate gauge" in text
        assert "# TYPE repro_faults_total counter" in text
        assert (
            "# TYPE repro_rank_compute_modeled_seconds histogram" in text
        )
        assert 'repro_boundary_rows_total{encoding="dense"}' in text
        assert 'repro_pending_rows{rank="0"}' in text
        assert 'le="+Inf"' in text
