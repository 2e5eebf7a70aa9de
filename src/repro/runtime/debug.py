"""Cluster invariant checker (test/debug support).

After any sequence of dynamic operations the cluster must satisfy the
structural invariants the algorithm relies on; :func:`check_cluster_invariants`
asserts them all and is called by integration tests after complex
mutation sequences (additions + deletions + migrations + faults).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["check_cluster_invariants"]


def check_cluster_invariants(cluster: "Cluster") -> List[str]:
    """Assert all structural invariants; returns the list of checks run.

    Raises ``AssertionError`` with a descriptive message on violation.
    """
    checks: List[str] = []
    part = cluster.partition
    assert part is not None, "cluster not decomposed"

    # 1. partition covers the graph exactly
    part.validate_against(cluster.graph)
    checks.append("partition-covers-graph")

    # 2. each worker owns exactly its block, rows aligned
    for w in cluster.workers:
        assert w.owned == part.block(w.rank), f"rank {w.rank} owned mismatch"
        assert w.dv.shape == (len(w.owned), cluster.n_columns)
        for v, r in w.row_of.items():
            assert w.owned[r] == v
    checks.append("ownership-and-shapes")

    # 3. DV diagonal zeros, everything non-negative
    for w in cluster.workers:
        for v in w.owned:
            row = w.dv[w.row_of[v]]
            assert row[cluster.index.column(v)] == 0.0, f"diag({v}) != 0"
            assert (row >= 0).all(), f"negative distance in row of {v}"
    checks.append("dv-diagonal-and-sign")

    # 4. local graphs are the induced sub-graphs of the global graph
    for w in cluster.workers:
        owned = set(w.owned)
        for u, v, weight in w.local_graph.edges():
            assert cluster.graph.has_edge(u, v), f"ghost local edge ({u},{v})"
            assert cluster.graph.weight(u, v) == weight
        for u, v, weight in cluster.graph.edges():
            if u in owned and v in owned:
                assert w.local_graph.has_edge(u, v), f"missing local ({u},{v})"
    checks.append("local-graphs-induced")

    # 5. cut edges match the global graph and ownership
    for w in cluster.workers:
        for u, nbrs in w.cut_adj.items():
            assert u in w.row_of
            for x, weight in nbrs.items():
                assert cluster.owner_of(x) != w.rank, f"cut edge to own {x}"
                assert cluster.graph.has_edge(u, x), f"ghost cut ({u},{x})"
                assert cluster.graph.weight(u, x) == weight
    checks.append("cut-edges-consistent")

    # 6. every cut edge in the global graph is registered on both sides
    for u, v, weight in cluster.graph.edges():
        ru, rv = cluster.owner_of(u), cluster.owner_of(v)
        if ru == rv:
            continue
        assert cluster.workers[ru].cut_adj.get(u, {}).get(v) == weight
        assert cluster.workers[rv].cut_adj.get(v, {}).get(u) == weight
    checks.append("cut-edges-bidirectional")

    # 7. subscriptions: whoever lists x as external boundary is subscribed
    #    at x's owner
    for w in cluster.workers:
        for x in w.cut_by_ext:
            owner = cluster.workers[cluster.owner_of(x)]
            assert w.rank in owner.subscribers.get(x, ()), (
                f"rank {w.rank} not subscribed to {x}"
            )
    checks.append("subscriptions-wired")

    # 8. local APSP matrices square and zero-diagonal
    for w in cluster.workers:
        n = w.n_local
        if w.local_apsp.size:
            assert w.local_apsp.shape == (n, n)
            assert (np.diag(w.local_apsp) == 0).all()
    checks.append("local-apsp-shape")

    return checks
