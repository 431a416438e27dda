"""Djidjev et al. [12] baseline: partition-based APSP for planar graphs.

The Figure 2/3 planar-graph comparator.  Pipeline (Section 2.4.3 of the
paper, and [12]):

1. partition ``G`` into ``k`` parts (METIS there, ``metis_lite`` here);
2. APSP *within* each part (distances restricted to the part);
3. build the **boundary graph**: vertices incident to cut edges; edges =
   original cut edges plus, for each part, a clique over its boundary
   vertices weighted by the intra-part distances;
4. exact APSP on the boundary graph ([12] recurses here for GPU memory;
   one level suffices for correctness and is what we run);
5. combine: a path leaves its part through some boundary vertex whose
   prefix stays inside the part, so
   ``d(u, v) = min(D_part(u, v), min_{b1, b2} D_i(u, b1) + B[b1, b2] + D_j(b2, v))``.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..partition.metis_lite import Partition, partition_graph
from ..sssp.engine import all_pairs

__all__ = ["partition_apsp"]


def partition_apsp(
    g: CSRGraph,
    k: int | None = None,
    seed: int = 0,
    partition: Partition | None = None,
    recursive_threshold: int | None = None,
) -> np.ndarray:
    """Full exact APSP matrix via the [12] partition scheme.

    ``k`` defaults to ``max(2, n // 256)`` — roughly [12]'s part sizing.
    With ``recursive_threshold`` set, a boundary graph larger than the
    threshold is itself solved by a recursive :func:`partition_apsp` call
    — the "computed in a recursive fashion" step [12] uses to fit GPU
    memory.  Results are identical either way.
    """
    n = g.n
    if n == 0:
        return np.zeros((0, 0))
    if k is None:
        k = max(2, n // 256)
    if partition is None:
        partition = partition_graph(g, k, seed=seed)
    asg = partition.assignment
    parts = partition.parts()

    # Step 2: intra-part APSP (restricted to each part's induced subgraph).
    intra: list[np.ndarray] = []
    part_vmaps: list[np.ndarray] = []
    for verts in parts:
        sub, vmap = g.subgraph(verts)
        intra.append(all_pairs(sub))
        part_vmaps.append(vmap)

    # Step 3: boundary graph.
    cross = asg[g.edge_u] != asg[g.edge_v]
    if not cross.any():
        # No cut edges: parts are disconnected from each other.
        out = np.full((n, n), np.inf)
        for verts, mat in zip(part_vmaps, intra):
            out[np.ix_(verts, verts)] = mat
        np.fill_diagonal(out, 0.0)
        return out

    boundary = np.unique(np.concatenate([g.edge_u[cross], g.edge_v[cross]]))
    b_index = np.full(n, -1, dtype=np.int64)
    b_index[boundary] = np.arange(boundary.size)

    bus: list[int] = []
    bvs: list[int] = []
    bws: list[float] = []
    # Original cut edges.
    for e in np.nonzero(cross)[0]:
        bus.append(int(b_index[g.edge_u[e]]))
        bvs.append(int(b_index[g.edge_v[e]]))
        bws.append(float(g.edge_w[e]))
    # Intra-part cliques over boundary vertices.
    for p, verts in enumerate(part_vmaps):
        local_b = np.nonzero(b_index[verts] >= 0)[0]
        for x in range(local_b.size):
            for y in range(x + 1, local_b.size):
                li, lj = int(local_b[x]), int(local_b[y])
                w = float(intra[p][li, lj])
                if np.isfinite(w):
                    bus.append(int(b_index[verts[li]]))
                    bvs.append(int(b_index[verts[lj]]))
                    bws.append(w)
    bgraph = CSRGraph(boundary.size, bus, bvs, bws)

    # Step 4: exact boundary APSP ([12] recurses here when the boundary
    # graph is itself too large).
    if (
        recursive_threshold is not None
        and bgraph.n > recursive_threshold
        and bgraph.n < n  # guard: recursion must shrink the instance
    ):
        bmat = partition_apsp(
            bgraph,
            k=max(2, bgraph.n // max(recursive_threshold // 2, 16)),
            seed=seed + 1,
            recursive_threshold=recursive_threshold,
        )
    else:
        bmat = all_pairs(bgraph)

    # Step 5: combine.  d_to_boundary[j, v] = exact d(boundary_j, v).
    out = np.full((n, n), np.inf)
    for p, verts in enumerate(part_vmaps):
        out[np.ix_(verts, verts)] = intra[p]
    # Exact distance from every boundary vertex to every vertex:
    # min over the target's part boundary of bmat + intra tail.
    nb = boundary.size
    d_b_all = np.full((nb, n), np.inf)
    for p, verts in enumerate(part_vmaps):
        local_b = np.nonzero(b_index[verts] >= 0)[0]
        blk = d_b_all[:, verts]
        for lb in local_b:
            bj = int(b_index[verts[lb]])
            np.minimum(blk, bmat[:, bj : bj + 1] + intra[p][lb : lb + 1, :], out=blk)
        d_b_all[:, verts] = blk
    # Rows: each vertex exits its own part through its part's boundary.
    for p, verts in enumerate(part_vmaps):
        local_b = np.nonzero(b_index[verts] >= 0)[0]
        if local_b.size == 0:
            continue
        blk = out[verts, :]
        for lb in local_b:
            bj = int(b_index[verts[lb]])
            np.minimum(blk, intra[p][:, lb : lb + 1] + d_b_all[bj : bj + 1, :], out=blk)
        out[verts, :] = blk
    np.fill_diagonal(out, 0.0)
    return out
