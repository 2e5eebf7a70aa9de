"""Micro-benchmarks of the hot worker kernels (real wall time).

These are classic pytest-benchmark timing loops over the three kernels
that dominate the pipeline's Python runtime: the IA-phase local APSP, the
per-edge broadcast relaxation, and the boundary-DV cut relaxation.
"""

import numpy as np

from repro.graph import barabasi_albert, extract_local_subgraph
from repro.model import DEFAULT_COST
from repro.partition import MultilevelPartitioner
from repro.runtime import GlobalIndex, Worker


def build(scale):
    graph = barabasi_albert(scale.n_base, scale.m, seed=scale.seed)
    part = MultilevelPartitioner(seed=scale.seed).partition(
        graph, scale.nprocs
    )
    index = GlobalIndex(graph.vertex_list())
    w = Worker(0, scale.nprocs, index, DEFAULT_COST)
    sub = extract_local_subgraph(graph, part.block(0), part.assignment, 0)
    w.load_subgraph(sub)
    return graph, w


def test_initial_approximation_kernel(benchmark, scale):
    graph, w = build(scale)
    benchmark(w.run_initial_approximation)


def test_edge_row_relaxation_kernel(benchmark, scale):
    _graph, w = build(scale)
    w.run_initial_approximation()
    w.propagate_local()
    a, b = w.owned[0], w.owned[-1]
    row_a, row_b = w.dv_row(a), w.dv_row(b)
    dv0 = w.dv.copy()

    def restore():
        # the first round would otherwise leave nothing to improve, and
        # every later round would time only the no-improvement path
        w.dv[...] = dv0

    def relax():
        assert w.relax_with_edge_rows(a, row_a, b, row_b, 0.5)

    benchmark.pedantic(relax, setup=restore, rounds=200)


def test_cut_relaxation_kernel(benchmark, scale):
    _graph, w = build(scale)
    w.run_initial_approximation()
    w.propagate_local()
    rng = np.random.default_rng(1)
    ext_rows = {
        x: rng.uniform(1.0, 10.0, size=w.n_cols) for x in w.cut_by_ext
    }

    def relax():
        w.receive_rows(ext_rows)
        w.relax_cut_edges()

    benchmark(relax)


def test_dv_gather_kernel(benchmark, scale):
    """Row extraction for Repartition-S migration."""
    _graph, w = build(scale)
    w.run_initial_approximation()
    benchmark(lambda: w.extract_rows(w.owned))
