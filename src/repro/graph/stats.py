"""Structural statistics matching the columns of Table 1.

The paper characterises each dataset by: |V|, |E|, number of biconnected
components, size of the largest BCC as a fraction of |E|, and the fraction
of vertices removed by ear reduction (the degree-2 vertices inside BCCs).
:func:`table1_row` computes all of them for any graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = ["GraphStats", "table1_row", "degree_histogram"]


@dataclass(frozen=True)
class GraphStats:
    """One row of Table 1 (structure columns)."""

    name: str
    n: int
    m: int
    n_bcc: int
    largest_bcc_edge_pct: float
    nodes_removed_pct: float
    degree2_pct: float

    def as_row(self) -> tuple:
        return (
            self.name,
            self.n,
            self.m,
            self.n_bcc,
            round(self.largest_bcc_edge_pct, 2),
            round(self.nodes_removed_pct, 2),
        )


def degree_histogram(g: CSRGraph) -> np.ndarray:
    """``hist[d]`` = number of vertices of degree ``d``."""
    if g.n == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(g.degree)


def table1_row(g: CSRGraph, name: str = "") -> GraphStats:
    """Compute the structure columns of Table 1 for ``g``.

    "Nodes removed" counts vertices that ear reduction prunes: degree-2
    vertices interior to a biconnected component chain (computed exactly by
    running the reduction).
    """
    # Imported here to avoid a package import cycle (decomposition uses graph).
    from ..decomposition.biconnected import biconnected_components
    from ..decomposition.reduce import reduce_graph

    bcc = biconnected_components(g)
    sizes = [len(edges) for edges in bcc.component_edges]
    largest = 100.0 * max(sizes, default=0) / g.m if g.m else 0.0
    removed = 0
    for comp_id in range(bcc.count):
        sub, _ = bcc.component_subgraph(g, comp_id)
        red = reduce_graph(sub, keep=bcc.component_keep_mask(sub, comp_id))
        removed += int((~red.kept_mask).sum())
    removed_pct = 100.0 * removed / g.n if g.n else 0.0
    deg2 = 100.0 * float((g.degree == 2).sum()) / g.n if g.n else 0.0
    return GraphStats(
        name=name or f"graph_{g.n}_{g.m}",
        n=g.n,
        m=g.m,
        n_bcc=bcc.count,
        largest_bcc_edge_pct=largest,
        nodes_removed_pct=removed_pct,
        degree2_pct=deg2,
    )
