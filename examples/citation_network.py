"""Citation network: growth, retractions, and the adaptive strategy.

A citation network grows by *vertex additions* (new papers citing existing
ones — the paper's "adding new publications to a citation network"
example).  Occasionally a paper is retracted (*vertex deletion*) or a
citation is corrected (*edge deletion*).  This example exercises:

* the adaptive strategy (Fig. 1 line 16): small batches are absorbed with
  the anywhere vertex-addition strategy, a large conference-proceedings
  dump triggers Repartition-S,
* vertex/edge deletions — the paper's stated future work, implemented here,
* the anytime property: interrupted results remain valid upper bounds.

Run:  python examples/citation_network.py
"""

from repro import AnytimeAnywhereCloseness, AnytimeConfig, ChangeBatch, ChangeStream
from repro.centrality import exact_closeness
from repro.graph import barabasi_albert, batch_from_subgraph, induced_subgraph
from repro.graph.changes import EdgeDeletion, VertexDeletion


def main() -> None:
    # a 400-paper citation graph (preferential attachment = citing the
    # already-well-cited, which is how citation networks actually grow)
    archive = barabasi_albert(520, 2, seed=23)
    base = induced_subgraph(archive, range(400))
    print(f"archive: {base.num_vertices} papers, {base.num_edges} citations")

    # --- build the event stream ----------------------------------------
    stream = ChangeStream()

    def growth_batch(lo: int, hi: int) -> ChangeBatch:
        newg = induced_subgraph(archive, range(lo, hi))
        attach = [
            (u, v, w)
            for u in range(lo, hi)
            for v, w in archive.adjacency_of(u).items()
            if v < lo
        ]
        return batch_from_subgraph(newg, attach)

    stream.schedule(1, growth_batch(400, 420))    # small weekly batch
    stream.schedule(3, growth_batch(420, 520))    # proceedings dump (25%!)
    stream.schedule(
        5,
        ChangeBatch(
            vertex_deletions=[VertexDeletion(137)],          # retraction
            edge_deletions=[EdgeDeletion(*_an_edge(archive, exclude=137))],
        ),
    )

    # --- run with the adaptive strategy ---------------------------------
    # batches above 10% of |V| repartition; smaller ones (and the
    # deletions) go through anywhere vertex addition with CutEdge-PS
    engine = AnytimeAnywhereCloseness(
        base, AnytimeConfig(nprocs=8, seed=23, repartition_threshold=0.10)
    )
    engine.setup()
    # resolve the name once to keep the instance and its decision trace
    adaptive = engine.resolve_strategy("adaptive")
    result = engine.run(changes=stream, strategy=adaptive)
    print(f"absorbed {stream.total_events()} events in {result.rc_steps}"
          f" RC steps; adaptive chose, per batch:")
    for decision in adaptive.decisions:
        print(f"  {decision.line()}")

    # --- validate --------------------------------------------------------
    final = base.copy()
    for _step, batch in stream:
        batch.apply_to(final)
    exact = exact_closeness(final)
    max_err = max(abs(result.closeness[v] - exact[v]) for v in exact)
    print(f"papers now: {final.num_vertices};"
          f" max |closeness - exact| = {max_err:.2e}")

    # --- anytime reads ----------------------------------------------------
    print("\nanytime snapshots (solution quality while events streamed in):")
    for snap in result.snapshots:
        label = "IA" if snap.step < 0 else f"RC{snap.step}"
        print(f"  {label:4s} n={snap.n_vertices:3d}"
              f" resolved={snap.resolved_fraction:6.1%}")


def _an_edge(graph, exclude: int):
    """Pick a deterministic low-degree citation to delete, avoiding the
    retracted paper (its edges disappear with the vertex)."""
    for u, v, _w in sorted(graph.edges()):
        if exclude not in (u, v) and u < 400 and v < 400:
            if graph.degree(u) > 2 and graph.degree(v) > 2:
                return u, v
    raise RuntimeError("no deletable citation found")


if __name__ == "__main__":
    main()
