"""Dynamic weighted undirected graph.

This is the in-memory graph substrate the rest of the library builds on.
It is designed for the access patterns of the anytime-anywhere pipeline:

* cheap incremental mutation (vertex/edge additions and deletions are the
  whole point of the paper),
* fast neighborhood iteration for partitioners and relaxations,
* zero-copy-ish export to SciPy CSR for bulk shortest-path computations.

Vertices are integer ids.  The structure is undirected: ``add_edge(u, v, w)``
makes ``v`` a neighbor of ``u`` and vice versa, and the edge is reported once
by :meth:`Graph.edges` with ``u <= v``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import (
    DuplicateVertex,
    EdgeNotFound,
    InvalidWeight,
    VertexNotFound,
)
from ..types import VertexId, WeightedEdge

__all__ = ["Graph", "CSRView"]


class CSRView:
    """A CSR snapshot of a :class:`Graph` restricted to an ordered vertex set.

    Attributes
    ----------
    matrix:
        ``scipy.sparse.csr_matrix`` of edge weights, shape ``(k, k)``.
    order:
        The vertex ids in row/column order.
    index:
        Mapping from vertex id to row index (inverse of ``order``).
    """

    __slots__ = ("matrix", "order", "index")

    def __init__(self, matrix: sp.csr_matrix, order: List[VertexId]) -> None:
        self.matrix = matrix
        self.order = order
        self.index = {v: i for i, v in enumerate(order)}

    def __len__(self) -> int:
        return len(self.order)


class Graph:
    """A mutable weighted undirected graph keyed by integer vertex ids."""

    __slots__ = ("_adj", "_num_edges", "_total_weight")

    def __init__(self) -> None:
        self._adj: Dict[VertexId, Dict[VertexId, float]] = {}
        self._num_edges = 0
        self._total_weight = 0.0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int] | Tuple[int, int, float]],
        vertices: Optional[Iterable[VertexId]] = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)``.

        ``vertices`` may list additional isolated vertices to include.
        """
        g = cls()
        if vertices is not None:
            for v in vertices:
                g.add_vertex(int(v), exist_ok=True)
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                w = 1.0
            else:
                u, v, w = e  # type: ignore[misc]
            g.add_vertex(int(u), exist_ok=True)
            g.add_vertex(int(v), exist_ok=True)
            g.add_edge(int(u), int(v), float(w))
        return g

    def copy(self) -> "Graph":
        """Return a deep copy (adjacency dictionaries are duplicated)."""
        g = Graph()
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        g._total_weight = self._total_weight
        return g

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(self, v: VertexId, *, exist_ok: bool = False) -> None:
        """Add an isolated vertex.

        Raises :class:`DuplicateVertex` if present, unless ``exist_ok``.
        """
        if v in self._adj:
            if exist_ok:
                return
            raise DuplicateVertex(f"vertex {v} already exists")
        self._adj[v] = {}

    def add_vertices(self, vertices: Iterable[VertexId]) -> None:
        """Add multiple isolated vertices (existing ids are tolerated)."""
        for v in vertices:
            self.add_vertex(v, exist_ok=True)

    def remove_vertex(self, v: VertexId) -> List[WeightedEdge]:
        """Remove ``v`` and all incident edges; return the removed edges."""
        try:
            nbrs = self._adj.pop(v)
        except KeyError:
            raise VertexNotFound(v) from None
        removed: List[WeightedEdge] = []
        for u, w in nbrs.items():
            if u == v:
                continue  # self-loops are disallowed at insertion time
            del self._adj[u][v]
            removed.append((v, u, w))
            self._num_edges -= 1
            self._total_weight -= w
        return removed

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._adj

    def __contains__(self, v: VertexId) -> bool:
        return v in self._adj

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over vertex ids (insertion order)."""
        return iter(self._adj)

    def vertex_list(self) -> List[VertexId]:
        """Sorted list of vertex ids."""
        return sorted(self._adj)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def max_vertex_id(self) -> int:
        """Largest vertex id, or ``-1`` for an empty graph."""
        return max(self._adj) if self._adj else -1

    def next_vertex_id(self) -> int:
        """The smallest id guaranteed to be unused (``max + 1``)."""
        return self.max_vertex_id() + 1

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(self, u: VertexId, v: VertexId, weight: float = 1.0) -> None:
        """Add or overwrite the undirected edge ``(u, v)``.

        Both endpoints must already exist (use :meth:`add_vertex` /
        :meth:`from_edges` to create them).  Self-loops are rejected because
        they never affect shortest paths.  Weights must be positive finite.
        """
        if u == v:
            raise InvalidWeight(f"self-loop on vertex {u} is not allowed")
        if not (weight > 0.0 and np.isfinite(weight)):
            raise InvalidWeight(f"edge weight must be positive finite, got {weight}")
        if u not in self._adj:
            raise VertexNotFound(u)
        if v not in self._adj:
            raise VertexNotFound(v)
        existing = self._adj[u].get(v)
        if existing is None:
            self._num_edges += 1
            self._total_weight += weight
        else:
            self._total_weight += weight - existing
        self._adj[u][v] = weight
        self._adj[v][u] = weight

    def add_edges(
        self, edges: Iterable[Tuple[int, int] | Tuple[int, int, float]]
    ) -> None:
        """Add many edges; missing endpoints are created automatically."""
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                w = 1.0
            else:
                u, v, w = e  # type: ignore[misc]
            self.add_vertex(int(u), exist_ok=True)
            self.add_vertex(int(v), exist_ok=True)
            self.add_edge(int(u), int(v), float(w))

    def remove_edge(self, u: VertexId, v: VertexId) -> float:
        """Remove the edge ``(u, v)``; return its weight."""
        if u not in self._adj:
            raise VertexNotFound(u)
        if v not in self._adj:
            raise VertexNotFound(v)
        try:
            w = self._adj[u].pop(v)
        except KeyError:
            raise EdgeNotFound(u, v) from None
        del self._adj[v][u]
        self._num_edges -= 1
        self._total_weight -= w
        return w

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def weight(self, u: VertexId, v: VertexId) -> float:
        """Weight of edge ``(u, v)``; raises :class:`EdgeNotFound`."""
        try:
            return self._adj[u][v]
        except KeyError:
            if u not in self._adj:
                raise VertexNotFound(u) from None
            raise EdgeNotFound(u, v) from None

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate over each undirected edge once, as ``(u, v, w)``, u <= v."""
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u <= v:
                    yield (u, v, w)

    def edge_list(self) -> List[WeightedEdge]:
        """Sorted list of edges as ``(u, v, w)`` with ``u <= v``."""
        return sorted(self.edges())

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (each undirected edge counted once)."""
        return self._total_weight

    # ------------------------------------------------------------------
    # neighborhoods
    # ------------------------------------------------------------------
    def neighbors(self, v: VertexId) -> Iterator[VertexId]:
        try:
            return iter(self._adj[v])
        except KeyError:
            raise VertexNotFound(v) from None

    def neighbor_items(self, v: VertexId) -> Iterator[Tuple[VertexId, float]]:
        """Iterate ``(neighbor, weight)`` pairs of ``v``."""
        try:
            return iter(self._adj[v].items())
        except KeyError:
            raise VertexNotFound(v) from None

    def adjacency_of(self, v: VertexId) -> Dict[VertexId, float]:
        """A *copy* of the neighbor->weight map of ``v``."""
        try:
            return dict(self._adj[v])
        except KeyError:
            raise VertexNotFound(v) from None

    def degree(self, v: VertexId) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            raise VertexNotFound(v) from None

    def weighted_degree(self, v: VertexId) -> float:
        try:
            return float(sum(self._adj[v].values()))
        except KeyError:
            raise VertexNotFound(v) from None

    def degrees(self) -> Dict[VertexId, int]:
        return {v: len(nbrs) for v, nbrs in self._adj.items()}

    # ------------------------------------------------------------------
    # bulk export
    # ------------------------------------------------------------------
    def to_csr(self, order: Optional[Sequence[VertexId]] = None) -> CSRView:
        """Export (a sub-view of) the graph as a SciPy CSR matrix.

        Every call builds the matrix afresh from the adjacency, so a
        returned :class:`CSRView` is a frozen snapshot that later
        mutations never reach.

        Parameters
        ----------
        order:
            The vertices to include, in row/column order.  Defaults to
            :meth:`vertex_list`.  Edges with an endpoint outside ``order``
            are dropped (this is exactly what a local sub-graph export
            needs).
        """
        if order is None:
            ordered = self.vertex_list()
        else:
            ordered = list(order)
        index = {v: i for i, v in enumerate(ordered)}
        if len(index) != len(ordered):
            raise ValueError("duplicate vertices in requested order")
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for i, v in enumerate(ordered):
            nbrs = self._adj.get(v)
            if nbrs is None:
                raise VertexNotFound(v)
            for u, w in nbrs.items():
                j = index.get(u)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(w)
        n = len(ordered)
        mat = sp.csr_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
        return CSRView(mat, ordered)

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return all(self._adj[v] == other._adj[v] for v in self._adj)

    def __hash__(self) -> int:  # mutable container: identity hash
        return id(self)
