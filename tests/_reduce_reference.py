"""Test-only reference for ``reduce_graph``: the per-chain walk.

Walks every chain one vertex at a time from each kept vertex's CSR slots
(kept vertices ascending, then slots ascending) and builds each chain's
prefix with its own ``np.cumsum``.  This is the straightforward definition
of the reduction; the differential tests assert that the array-pass
implementation in :mod:`repro.decomposition.reduce` reproduces its every
field bit for bit.  It is deliberately slow and lives only under
``tests/``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def reference_reduce(g: CSRGraph, keep: np.ndarray | None = None) -> dict:
    """Every ``ReducedGraph`` field, computed by walking chains one by one.

    Returns a dict with the per-vertex and per-chain arrays, the chain
    list as ``(vertices, edges, prefix)`` tuples, and the reduced graph.
    """
    n = g.n
    keep = np.zeros(n, dtype=bool) if keep is None else np.asarray(keep, dtype=bool).copy()
    keep |= g.degree != 2
    if g.m and g.has_self_loops:
        keep[g.edge_u[g.edge_u == g.edge_v]] = True
    keep = _promote_cycle_anchors(g, keep)

    kept_ids = np.nonzero(keep)[0]
    reduced_id = np.full(n, -1, dtype=np.int64)
    reduced_id[kept_ids] = np.arange(kept_ids.size)

    indptr, indices, eids = g.indptr, g.indices, g.csr_eid
    edge_done = np.zeros(g.m, dtype=bool)
    chains = []
    chain_of = np.full(n, -1, dtype=np.int64)
    pos_in_chain = np.full(n, -1, dtype=np.int64)
    dist_left = np.zeros(n, dtype=np.float64)
    dist_right = np.zeros(n, dtype=np.float64)
    r_us, r_vs, r_ws = [], [], []

    for u in kept_ids:
        for slot in range(indptr[u], indptr[u + 1]):
            eid = int(eids[slot])
            if edge_done[eid]:
                continue
            chain_v = [int(u), int(indices[slot])]
            chain_e = [eid]
            edge_done[eid] = True
            prev_eid = eid
            cur = chain_v[-1]
            while not keep[cur]:
                s = indptr[cur]
                e0, e1 = int(eids[s]), int(eids[s + 1])
                nxt_eid = e1 if e0 == prev_eid else e0
                cur = int(indices[s + (1 if e0 == prev_eid else 0)])
                chain_e.append(nxt_eid)
                chain_v.append(cur)
                edge_done[nxt_eid] = True
                prev_eid = nxt_eid
            verts = np.asarray(chain_v, dtype=np.int64)
            edges = np.asarray(chain_e, dtype=np.int64)
            prefix = np.concatenate([[0.0], np.cumsum(g.edge_w[edges])])
            cid = len(chains)
            chains.append((verts, edges, prefix))
            interior = verts[1:-1]
            if interior.size:
                chain_of[interior] = cid
                pos_in_chain[interior] = np.arange(1, verts.size - 1)
                dist_left[interior] = prefix[1:-1]
                dist_right[interior] = prefix[-1] - prefix[1:-1]
            r_us.append(int(reduced_id[verts[0]]))
            r_vs.append(int(reduced_id[verts[-1]]))
            r_ws.append(float(prefix[-1]))

    return {
        "kept_mask": keep,
        "kept_ids": kept_ids,
        "reduced_id": reduced_id,
        "chain_of": chain_of,
        "pos_in_chain": pos_in_chain,
        "dist_left": dist_left,
        "dist_right": dist_right,
        "chain_left_rid": np.asarray(r_us, dtype=np.int64),
        "chain_right_rid": np.asarray(r_vs, dtype=np.int64),
        "chain_weight": np.asarray(r_ws, dtype=np.float64),
        "chains": chains,
        "graph": CSRGraph(kept_ids.size, r_us, r_vs, r_ws),
    }


def _promote_cycle_anchors(g: CSRGraph, keep: np.ndarray) -> np.ndarray:
    """Pin the smallest vertex of every cycle made purely of degree-2 vertices."""
    indptr, indices, eids = g.indptr, g.indices, g.csr_eid
    visited = keep.copy()
    for start in range(g.n):
        if visited[start] or g.degree[start] != 2:
            continue
        run = [start]
        visited[start] = True
        prev_eid = -1
        cur = start
        closed = True
        while True:
            s = indptr[cur]
            e0, e1 = int(eids[s]), int(eids[s + 1])
            nxt_eid = e1 if e0 == prev_eid else e0
            nxt = int(indices[s + (1 if e0 == prev_eid else 0)])
            if nxt == start and nxt_eid != prev_eid:
                break
            if keep[nxt]:
                closed = False
                break
            run.append(nxt)
            visited[nxt] = True
            prev_eid = nxt_eid
            cur = nxt
        if closed:
            keep[min(run)] = True
    return keep
