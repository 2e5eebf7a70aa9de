"""Additional SNA measures (harmonic, eccentricity, degree) and the
engine's anytime measure reads."""

import numpy as np
import pytest

from repro import AnytimeAnywhereCloseness, AnytimeConfig
from repro.centrality import (
    degree_centrality,
    eccentricity_from_row,
    exact_eccentricity,
    exact_harmonic,
    harmonic_from_matrix,
    harmonic_from_row,
    radius_diameter,
)
from repro.core import take_snapshot
from repro.errors import ConfigurationError
from repro.graph import Graph, barabasi_albert

from ..conftest import cycle_graph, path_graph, star_graph


class TestHarmonic:
    def test_star_hub(self):
        h = exact_harmonic(star_graph(5))
        assert h[0] == pytest.approx(5.0)
        assert h[1] == pytest.approx(1.0 + 4 * 0.5)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = barabasi_albert(50, 2, seed=1)
        ng = nx.Graph()
        ng.add_weighted_edges_from(g.edges())
        ref = nx.harmonic_centrality(ng, distance="weight")
        ours = exact_harmonic(g)
        for v in ref:
            assert ours[v] == pytest.approx(ref[v], rel=1e-9)

    def test_unreachable_ignored(self):
        row = np.array([0.0, 2.0, np.inf])
        assert harmonic_from_row(row, self_col=0) == pytest.approx(0.5)

    def test_isolated(self):
        assert harmonic_from_row(np.array([0.0]), self_col=0) == 0.0

    def test_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            harmonic_from_matrix(np.zeros((2, 3)), [0, 1])


class TestEccentricity:
    def test_path_ends_vs_middle(self):
        e = exact_eccentricity(path_graph(5))
        assert e[0] == 4.0
        assert e[2] == 2.0

    def test_cycle_uniform(self):
        e = exact_eccentricity(cycle_graph(8))
        assert set(e.values()) == {4.0}

    def test_radius_diameter(self):
        e = exact_eccentricity(path_graph(5))
        r, d = radius_diameter(e)
        assert (r, d) == (2.0, 4.0)

    def test_radius_diameter_empty(self):
        assert radius_diameter({}) == (0.0, 0.0)

    def test_isolated_vertex_zero(self):
        g = path_graph(3)
        g.add_vertex(9)
        e = exact_eccentricity(g)
        assert e[9] == 0.0

    def test_eccentricity_from_row_unreachable(self):
        row = np.array([0.0, 3.0, np.inf])
        assert eccentricity_from_row(row, self_col=0) == 3.0


class TestDegree:
    def test_star(self):
        d = degree_centrality(star_graph(4))
        assert d[0] == pytest.approx(1.0)
        assert d[1] == pytest.approx(0.25)

    def test_single_vertex(self):
        g = Graph()
        g.add_vertex(0)
        assert degree_centrality(g) == {0: 0.0}


class TestEngineMeasures:
    @pytest.fixture(scope="class")
    def engine(self):
        g = barabasi_albert(60, 2, seed=2)
        e = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=4))
        e.setup()
        e.run()
        return e, g

    def test_harmonic_exact_after_convergence(self, engine):
        e, g = engine
        exact = exact_harmonic(g)
        got = e.current_measure("harmonic")
        for v, c in exact.items():
            assert got[v] == pytest.approx(c, abs=1e-9)

    def test_eccentricity_exact_after_convergence(self, engine):
        e, g = engine
        exact = exact_eccentricity(g)
        got = e.current_measure("eccentricity")
        for v, c in exact.items():
            assert got[v] == pytest.approx(c, abs=1e-9)

    def test_degree_measure(self, engine):
        e, g = engine
        assert e.current_measure("degree") == degree_centrality(g)

    def test_closeness_measure_matches_run(self, engine):
        e, _g = engine
        assert e.current_measure("closeness") == e.current_closeness()

    def test_readouts_agree_mid_run(self):
        g = barabasi_albert(60, 2, seed=3)
        e = AnytimeAnywhereCloseness(
            g, AnytimeConfig(nprocs=4, wf_improved=True)
        )
        e.setup()
        snap = take_snapshot(e.cluster, 0, wf_improved=True)
        assert list(e.current_closeness().items()) == list(
            snap.closeness.items()
        )
        assert snap.unresolved_pairs == sum(
            int(np.isinf(w.dv).sum()) for w in e.cluster.workers
        )
        assert snap.unresolved_pairs > 0

    def test_unknown_measure(self, engine):
        e, _g = engine
        with pytest.raises(ConfigurationError):
            e.current_measure("pagerank")

    def test_anytime_harmonic_is_lower_bound_mid_run(self):
        """Distance upper bounds make harmonic (sum of reciprocals) a
        *lower* bound before convergence — the anytime direction flips
        with the reciprocal."""
        g = barabasi_albert(60, 2, seed=3)
        exact = exact_harmonic(g)
        e = AnytimeAnywhereCloseness(g, AnytimeConfig(nprocs=4))
        e.setup()
        mid = e.current_measure("harmonic")  # before any RC step
        assert all(mid[v] <= exact[v] + 1e-9 for v in exact)
