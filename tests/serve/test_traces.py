"""Churn-trace generation and JSONL trace-file round-trips."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.graph.changes import (
    EdgeDeletion,
    EdgeReweight,
    VertexAddition,
)
from repro.serve import (
    TRACE_SHAPES,
    load_change_trace,
    save_change_trace,
    synthesize_churn,
)


@pytest.mark.parametrize("shape", sorted(TRACE_SHAPES))
def test_shapes_generate_valid_prefix_safe_feeds(shape):
    trace = synthesize_churn(shape, n_base=60, ticks=16, seed=4)
    assert trace.name == shape
    assert trace.num_events > 0
    base_vertices = set(trace.base.vertices())
    base_edges = {
        frozenset((u, v)) for u, v, _w in trace.base.edges()
    }
    known = set(base_vertices)
    deleted = set()
    last_tick = 0
    for tick, ev in trace.events:
        assert tick >= last_tick, "events must be tick-ordered"
        last_tick = tick
        assert 0 <= tick < trace.ticks
        if isinstance(ev, VertexAddition):
            assert ev.vertex not in known, "duplicate vertex id"
            for t, w in ev.edges:
                # prefix invariant: targets are base vertices or
                # vertices introduced earlier in the feed
                assert t in known
                assert w > 0
            known.add(ev.vertex)
        elif isinstance(ev, (EdgeDeletion, EdgeReweight)):
            key = frozenset((ev.u, ev.v))
            assert key in base_edges, "must target a base edge"
            if isinstance(ev, EdgeDeletion):
                assert key not in deleted, "edge deleted twice"
                deleted.add(key)


@pytest.mark.parametrize("shape", sorted(TRACE_SHAPES))
def test_synthesis_is_deterministic(shape):
    a = synthesize_churn(shape, n_base=40, ticks=10, seed=9)
    b = synthesize_churn(shape, n_base=40, ticks=10, seed=9)
    assert a.events == b.events
    assert sorted(a.base.edges()) == sorted(b.base.edges())
    c = synthesize_churn(shape, n_base=40, ticks=10, seed=10)
    assert c.events != a.events


def test_unknown_shape_and_bad_args_raise():
    with pytest.raises(ConfigurationError):
        synthesize_churn("no-such-shape")
    with pytest.raises(ConfigurationError):
        synthesize_churn("steady-small", n_base=2)
    with pytest.raises(ConfigurationError):
        synthesize_churn("steady-small", ticks=0)


def test_jsonl_roundtrip_identity(tmp_path):
    trace = synthesize_churn("bursty-communities", n_base=40, ticks=8, seed=2)
    path = tmp_path / "trace.jsonl"
    save_change_trace(path, trace.events)
    assert load_change_trace(path) == list(trace.events)
    # canonical encoding: re-saving the loaded feed is byte-identical
    text = path.read_text(encoding="utf-8")
    save_change_trace(path, load_change_trace(path))
    assert path.read_text(encoding="utf-8") == text


def test_jsonl_file_validates_against_schema(tmp_path):
    import validate_trace

    trace = synthesize_churn("steady-small", n_base=40, ticks=8, seed=2)
    path = tmp_path / "trace.jsonl"
    save_change_trace(path, trace.events)
    assert validate_trace.validate_file(path, "change_trace") == []
