"""Tests for the tracer's time accounting."""

import pytest

from repro.runtime import Tracer


def test_phase_lifecycle():
    t = Tracer()
    t.begin("ia")
    t.add_compute(1.0)
    t.add_comm(0.5, messages=3, words=100)
    rec = t.end()
    assert rec.modeled_total == pytest.approx(1.5)
    assert rec.messages == 3
    assert t.modeled_seconds == pytest.approx(1.5)
    assert t.total_words == 100
    assert rec.wall_seconds >= 0.0


def test_nested_phase_rejected():
    t = Tracer()
    t.begin("a")
    with pytest.raises(RuntimeError):
        t.begin("b")


def test_end_without_begin():
    with pytest.raises(RuntimeError):
        Tracer().end()


def test_ambient_charges_land_on_totals():
    t = Tracer()
    t.add_compute(2.0)
    t.add_comm(1.0, messages=1, words=5)
    assert t.modeled_seconds == pytest.approx(3.0)
    assert t.total_messages == 1
    assert t.records == []


def test_note_inside_phase():
    t = Tracer()
    t.begin("x")
    t.note("k", 7.0)
    rec = t.end()
    assert rec.info == {"k": 7.0}


def test_note_outside_phase_is_noop():
    Tracer().note("k", 1.0)  # must not raise


def test_tally_accumulates_inside_phase_only():
    t = Tracer()
    t.tally("retries", 2)
    assert t.open_phase is None
    t.begin("rc_step", 1)
    t.note("speculations", 1.0)
    t.tally("retries", 2)
    t.tally("retries", 3)
    assert t.open_phase is not None and t.open_phase.name == "rc_step"
    rec = t.end()
    assert rec.info == {"speculations": 1.0, "retries": 5.0}
    assert list(rec.info) == ["speculations", "retries"]
    assert t.open_phase is None


def test_by_phase_aggregation():
    t = Tracer()
    for name, secs in (("rc_step", 1.0), ("rc_step", 2.0), ("ia", 4.0)):
        t.begin(name)
        t.add_compute(secs)
        t.end()
    agg = t.by_phase()
    assert agg["rc_step"] == pytest.approx(3.0)
    assert agg["ia"] == pytest.approx(4.0)


def test_nested_phase_error_names_the_open_phase():
    # regression pin: the tracer must keep *raising* on nested begins
    # (never auto-close — that would misattribute the open record's
    # wall time); the message names the offender for debuggability
    t = Tracer()
    t.begin("domain_decomposition")
    with pytest.raises(RuntimeError, match="domain_decomposition"):
        t.begin("rc_step")
    # the original phase is still open and can be ended normally
    rec = t.end()
    assert rec.name == "domain_decomposition"


def test_reopen_after_end_is_fine():
    t = Tracer()
    t.begin("rc_step", step=0)
    t.end()
    rec = t.begin("rc_step", step=1)
    assert rec.step == 1
    t.end()
    assert len(t.records) == 2


def test_abort_closes_open_phase_with_marker():
    t = Tracer()
    t.begin("rc_step", step=3)
    t.add_compute(2.0)
    rec = t.abort()
    assert rec is not None
    assert rec.info["aborted"] == 1.0
    # the partial charge is kept: the modeled work did happen
    assert t.modeled_seconds == pytest.approx(2.0)
    assert t._open is None
    t.begin("rc_step", step=4)  # tracer is reusable afterwards
    t.end()


def test_abort_without_open_phase_is_noop():
    t = Tracer()
    assert t.abort() is None
    assert t.records == []


def test_now_includes_open_phase_charge():
    t = Tracer()
    t.add_compute(1.0)
    assert t.now() == pytest.approx(1.0)
    t.begin("rc_step")
    t.add_compute(0.25)
    t.add_comm(0.5)
    assert t.now() == pytest.approx(1.75)
    assert t.modeled_seconds == pytest.approx(1.0)  # not folded in yet
    t.end()
    assert t.now() == pytest.approx(1.75)


def test_span_events_emitted_to_hub():
    from repro.obs import ObserverHub
    from repro.obs.observer import Observer

    class Collector(Observer):
        def __init__(self):
            self.events = []

        def on_event(self, event):
            self.events.append(event)

    col = Collector()
    t = Tracer(hub=ObserverHub([col]))
    t.begin("domain_decomposition")
    t.add_compute(1.0)
    t.end()
    t.begin("rc_step", step=0)
    t.add_comm(0.5, messages=2, words=10)
    t.end()
    kinds = [(e.kind, e.level, e.name) for e in col.events]
    assert kinds == [
        ("begin", "phase", "domain_decomposition"),
        ("end", "phase", "domain_decomposition"),
        ("begin", "superstep", "rc_step"),
        ("end", "superstep", "rc_step"),
    ]
    end = col.events[-1]
    assert end.step == 0
    assert end.t == pytest.approx(1.5)
    assert end.attrs["words"] == 10
    assert end.wall is not None


def test_summary_keys():
    t = Tracer()
    t.begin("p")
    t.end()
    s = t.summary()
    assert set(s) == {
        "modeled_seconds",
        "wall_seconds",
        "messages",
        "words",
        "phases",
    }
    assert s["phases"] == 1.0
