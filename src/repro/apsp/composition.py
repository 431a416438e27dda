"""Per-biconnected-component APSP composition (Section 2.2).

The general-graph pipeline: decompose into BCCs, solve each component with
a pluggable solver (ear-reduced Algorithm 1 for "Our Approach", plain
repeated Dijkstra for the Banerjee baseline), then stitch distances across
components through the articulation-point table ``A``.

Key facts the composition relies on (both hold for any graph):

* the distance between two vertices of one biconnected component is
  realised inside the component, so the per-component table is globally
  exact for intra-component pairs;
* every path between different components passes through all articulation
  points on the block-cut tree path, so
  ``d(u, v) = min_{a ∈ AP(comp(u))} d_comp(u, a) + A[a, ·→v]`` with
  equality attained at the forced exit AP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..decomposition.biconnected import BCCDecomposition, biconnected_components
from ..graph.csr import CSRGraph
from ..sssp.engine import strip_nudge, symmetric_adjacency, symmetric_dijkstra
from .ear_apsp import ear_apsp_full

Solver = Callable[[CSRGraph], np.ndarray]

__all__ = ["ComponentTables", "build_component_tables", "assemble_full_matrix"]


@dataclass
class ComponentTables:
    """Per-component distance tables plus the articulation-point closure.

    Attributes
    ----------
    bcc:
        The underlying decomposition.
    tables:
        ``tables[c]`` is the exact distance matrix over
        ``bcc.component_vertices[c]`` (in that vertex order).
    ap_ids / ap_index:
        Articulation point vertex ids (sorted) and their positions.
    ap_matrix:
        ``a × a`` exact distance table ``A`` between articulation points,
        computed by APSP over the *AP graph* (APs joined by intra-component
        distances) — the Stage 2 table of Section 2.2.
    """

    bcc: BCCDecomposition
    tables: list[np.ndarray]
    ap_ids: np.ndarray
    ap_index: dict[int, int]
    ap_matrix: np.ndarray
    solve_seconds: float = 0.0
    compose_seconds: float = 0.0

    def table_bytes(self, dtype_bytes: int = 4) -> int:
        """Memory model of Section 2.3: ``a² + Σ nᵢ²`` entries.

        The paper reports storage assuming 4-byte entries (its "Max Memory"
        for 10K nodes is ~400 MB); ``dtype_bytes`` makes that explicit.
        """
        total = self.ap_matrix.size
        total += sum(t.size for t in self.tables)
        return int(total) * dtype_bytes


def build_component_tables(
    g: CSRGraph,
    solver: Solver | None = None,
    bcc: BCCDecomposition | None = None,
) -> ComponentTables:
    """Solve every biconnected component and close distances over the APs.

    ``solver`` maps a component subgraph to its exact distance matrix; it
    defaults to the ear-reduced Algorithm 1 (:func:`ear_apsp_full`).
    """
    if solver is None:
        solver = ear_apsp_full
    if bcc is None:
        bcc = biconnected_components(g)
    t0 = time.perf_counter()
    tables = [solver(bcc.component_subgraph(g, cid)[0]) for cid in range(bcc.count)]
    t1 = time.perf_counter()

    ap_ids = bcc.articulation_points
    ap_index = {int(v): i for i, v in enumerate(ap_ids)}
    if ap_index:
        mat = _ap_graph(bcc, tables, ap_index)
        ap_matrix = strip_nudge(
            np.asarray(symmetric_dijkstra(mat), dtype=np.float64), mat.data
        )
        np.fill_diagonal(ap_matrix, 0.0)
    else:
        ap_matrix = np.zeros((0, 0), dtype=np.float64)
    t2 = time.perf_counter()

    return ComponentTables(
        bcc=bcc,
        tables=tables,
        ap_ids=ap_ids,
        ap_index=ap_index,
        ap_matrix=ap_matrix,
        solve_seconds=t1 - t0,
        compose_seconds=t2 - t1,
    )


def _ap_graph(
    bcc: BCCDecomposition, tables: list[np.ndarray], ap_index: dict[int, int]
) -> sp.csr_matrix:
    """The AP graph: a clique per component over its APs.

    Edges are weighted by the already-exact intra-component distances.
    Two APs can share more than one component, so each pair is kept once
    at its minimum, and both of its arcs are stored.
    """
    best: dict[tuple[int, int], float] = {}
    for cid in range(bcc.count):
        verts = bcc.component_vertices[cid]
        local_aps = [
            (ap_index[int(v)], i) for i, v in enumerate(verts) if int(v) in ap_index
        ]
        for x, (gi, li) in enumerate(local_aps):
            for gj, lj in local_aps[x + 1 :]:
                w = float(tables[cid][li, lj])
                if not np.isfinite(w):
                    continue
                key = (min(gi, gj), max(gi, gj))
                if key not in best or w < best[key]:
                    best[key] = w
    rows = np.fromiter((k[0] for k in best), dtype=np.int64, count=len(best))
    cols = np.fromiter((k[1] for k in best), dtype=np.int64, count=len(best))
    vals = np.fromiter(best.values(), dtype=np.float64, count=len(best))
    return symmetric_adjacency(len(ap_index), rows, cols, vals)


def assemble_full_matrix(g: CSRGraph, ct: ComponentTables) -> np.ndarray:
    """Materialise the full ``n × n`` matrix from component tables.

    Used by tests and the full-matrix benchmarks; production queries
    should go through :class:`repro.apsp.DistanceOracle`, which keeps the
    ``O(a² + Σ nᵢ²)`` footprint.
    """
    n = g.n
    out = np.full((n, n), np.inf, dtype=np.float64)
    bcc = ct.bcc
    a = len(ct.ap_ids)

    # ap_to_all[k, v]: exact distance from AP k to every vertex v, built
    # per component as min over that component's APs.
    ap_to_all = np.full((a, n), np.inf, dtype=np.float64)
    for cid in range(bcc.count):
        verts = bcc.component_vertices[cid]
        local_aps = [
            (ct.ap_index[int(v)], i) for i, v in enumerate(verts) if int(v) in ct.ap_index
        ]
        for gk, lk in local_aps:
            cand = ct.ap_matrix[:, gk : gk + 1] + ct.tables[cid][lk : lk + 1, :]
            block = ap_to_all[:, verts]
            np.minimum(block, cand, out=block)
            ap_to_all[:, verts] = block

    for cid in range(bcc.count):
        verts = bcc.component_vertices[cid]
        # Intra-component pairs straight from the table.
        blk = out[np.ix_(verts, verts)]
        np.minimum(blk, ct.tables[cid], out=blk)
        out[np.ix_(verts, verts)] = blk
        # Cross-component: exit through one of this component's APs.
        local_aps = [
            (ct.ap_index[int(v)], i) for i, v in enumerate(verts) if int(v) in ct.ap_index
        ]
        if not local_aps:
            continue
        # One in-place pass per AP keeps peak memory at O(n_i · n) instead
        # of materialising an (n_i × k_i × n) broadcast cube.
        blk = out[verts, :]
        for gk, lk in local_aps:
            np.minimum(
                blk, ct.tables[cid][:, lk : lk + 1] + ap_to_all[gk : gk + 1, :], out=blk
            )
        out[verts, :] = blk
    np.fill_diagonal(out, 0.0)
    return out
