"""Span recording, self-time arithmetic and wrapper hygiene."""

import pytest

import tracing
from tracing import Tracer, covered, fold, self_times


def span(name, start, end, parent=-1, tick=-1):
    return [name, start, end, parent, tick]


def test_self_time_nested_and_back_to_back_children():
    spans = [
        span("rc", 0.0, 10.0),
        span("exchange", 1.0, 3.0, parent=0),   # back-to-back with the next
        span("superstep", 3.0, 5.0, parent=0),
        span("propagate", 3.5, 4.5, parent=2),  # nested one level deeper
        span("readout", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.0])


def test_overlapping_children_count_once():
    spans = [
        span("rc", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),
        span("c", 9.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_covered_clips_and_merges():
    assert covered([(1, 2), (2, 3), (5, 7)], 0, 6) == pytest.approx(3.0)
    assert covered([], 0, 1) == 0.0


def test_fold_unattributed_share_and_ratios():
    spans = [
        span("rc", 0.0, 8.0),
        span("edge_add", 1.0, 2.0, parent=0),
        span("edge_relax", 1.2, 1.8, parent=1),
        span("edge_add", 2.0, 3.0, parent=0),
        span("propagate", 3.0, 4.0, parent=0),
        span("propagate", 4.0, 5.0, parent=0),
    ]
    counters = {"propagate.useful": 1.0, "rc.steps": 3.0}
    m = fold(spans, counters, (0.0, 10.0), nprocs=4)
    assert m["trace.unattributed_frac"] == pytest.approx(0.2)
    assert m["edge_add.calls"] == 2
    assert m["edge_add.self_s"] == pytest.approx(1.4)
    assert m["edge_relax.pass_ratio"] == pytest.approx(1 / (2 * 4))
    assert m["propagate.useful_ratio"] == pytest.approx(0.5)
    assert m["rc.self_s"] == pytest.approx(8.0 - 4.0)
    assert m["rc.steps"] == 3.0
    # layers that never ran report zero calls and zero ratios
    assert m["delete.calls"] == 0 and m["csr.hit_ratio"] == 0.0


def test_wrapper_links_parents_and_collapses_nested_same_name():
    t = Tracer()

    def inner():
        return 1

    w_inner = t.wrap(inner, "apply_batch")  # collapses into the outer one

    def outer():
        return w_inner() + 1

    w_outer = t.wrap(outer, "apply_batch")
    w_top = t.wrap(lambda: w_outer(), "rc")
    t.tick = 7
    assert w_top() == 2
    names = [(s[0], s[3], s[4]) for s in t.spans]
    assert names == [("rc", -1, 7), ("apply_batch", 0, 7)]


def test_install_wraps_layers_and_uninstall_restores_them():
    from repro import AnytimeAnywhereCloseness
    from repro.core import strategies
    from repro.runtime.cluster import Cluster
    from repro.runtime.worker import Worker

    before = {
        "run": AnytimeAnywhereCloseness.__dict__["run"],
        "decompose": Cluster.__dict__["decompose"],
        "relax": Worker.__dict__["relax_with_edge_rows"],
        "edge_add": strategies.vertex_addition.apply_edge_addition,
    }
    t = Tracer()
    t.install()
    try:
        assert AnytimeAnywhereCloseness.__dict__["run"] is not before["run"]
        assert (
            strategies.vertex_addition.apply_edge_addition
            is not before["edge_add"]
        )
    finally:
        t.uninstall()
    assert AnytimeAnywhereCloseness.__dict__["run"] is before["run"]
    assert Cluster.__dict__["decompose"] is before["decompose"]
    assert Worker.__dict__["relax_with_edge_rows"] is before["relax"]
    assert strategies.vertex_addition.apply_edge_addition is before["edge_add"]


def test_rss_readers_return_positive_megabytes():
    now = tracing.rss_mb()
    assert now > 0
    assert tracing.peak_rss_mb() >= now
