"""Test-only reference for the Mehlhorn–Michail setup: the scalar loops.

Builds the tree tables and the candidate family the straightforward way:
a dict from vertex pair to its lightest edge, a per-tree walk that sets
each vertex's depth from its parent's in distance order, and a Python
double loop over (tree, edge) pairs with an explicit LCA walk per pair.
The differential tests assert that the whole-array setup of
:class:`repro.mcb.mehlhorn_michail.MMContext` reproduces its every field
bit for bit.  It is deliberately slow and lives only under ``tests/``.

One known defect is kept as it was: when a child ties its parent's
distance and has the lower id, the distance-order walk reads the parent's
depth before it is set (``-1``), and the LCA walk may then index the
parent table with the ``-9999`` sentinel.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.mcb.fvs import greedy_fvs
from repro.mcb.horton import perturbed_weights
from repro.mcb.spanning import spanning_structure
from repro.sssp.engine import spt_forest

_NO_PRED = -9999


def reference_setup(g: CSRGraph, lca_filter: bool = True, perturb: bool = True) -> dict:
    """Every setup field of ``MMContext``, computed by scalar loops.

    Returns a dict keyed by attribute name (``depth``, ``parent_eid``,
    ``parent_ep``, ``_flat_levels``, ``_flat_parent_ep``, ``cand_*``,
    ``order``) plus ``levels``: per tree, the list of vertex arrays at
    depth 1, 2, ... that the per-tree label pass visits.  Returns ``None``
    when the cycle space is trivial (no setup is built).
    """
    ss = spanning_structure(g)
    if ss.f == 0:
        return None
    fvs = greedy_fvs(g)
    n = g.n
    pw = perturbed_weights(g) if perturb else g.edge_w
    dist, parent = spt_forest(g.with_weights(pw), fvs)

    pair_edge: dict[tuple[int, int], int] = {}
    for e in np.argsort(pw)[::-1]:  # heavier first so lightest wins last
        u, v = g.edge_endpoints(int(e))
        if u != v:
            pair_edge[(min(u, v), max(u, v))] = int(e)

    out = _tree_tables(dist, parent, fvs, pair_edge, ss.eprime_index, n)
    out.update(_candidates(g, pw, dist, parent, fvs, out, lca_filter))
    out["cand_ep"] = ss.eprime_index[out["cand_e"]]
    out["order"] = np.argsort(out["cand_w"], kind="stable")
    return out


def _tree_tables(dist, parent, fvs, pair_edge, ep_of_edge, n) -> dict:
    k = parent.shape[0]
    depth_all = np.full((k, n), -1, dtype=np.int64)
    parent_ep = np.full((k, n), -1, dtype=np.int64)
    parent_eid = np.full((k, n), -1, dtype=np.int64)
    levels: list[list[np.ndarray]] = []
    for zi in range(k):
        par = parent[zi]
        root = int(fvs[zi])
        reachable = np.isfinite(dist[zi])
        depth = depth_all[zi]
        depth[root] = 0
        for v in np.argsort(dist[zi], kind="stable"):
            v = int(v)
            if v == root or not reachable[v]:
                continue
            p = int(par[v])
            if p == _NO_PRED:
                continue
            depth[v] = depth[p] + 1
            eid = pair_edge[(min(v, p), max(v, p))]
            parent_eid[zi, v] = eid
            parent_ep[zi, v] = ep_of_edge[eid]
        max_d = int(depth.max())
        levels.append([np.nonzero(depth == d)[0] for d in range(1, max_d + 1)])

    flat_levels: list[tuple[np.ndarray, np.ndarray]] = []
    flat_parent = np.where(parent == _NO_PRED, 0, parent) + (np.arange(k)[:, None] * n)
    for d in range(1, int(depth_all.max()) + 1):
        sel = np.nonzero(depth_all.reshape(-1) == d)[0]
        if sel.size:
            flat_levels.append((sel, flat_parent.reshape(-1)[sel]))
    return {
        "depth": depth_all,
        "parent_eid": parent_eid,
        "parent_ep": parent_ep,
        "_flat_parent_ep": parent_ep.reshape(-1),
        "_flat_levels": flat_levels,
        "levels": levels,
    }


def _candidates(g, pw, dist, parent, fvs, tables, lca_filter) -> dict:
    cz, ce, cu, cv, cw = [], [], [], [], []
    for e in np.nonzero(g.edge_u == g.edge_v)[0]:
        cz.append(-1)
        ce.append(int(e))
        cu.append(int(g.edge_u[e]))
        cv.append(int(g.edge_u[e]))
        cw.append(float(pw[e]))
    parent_eid = tables["parent_eid"]
    for zi in range(len(fvs)):
        d = dist[zi]
        depth = tables["depth"][zi]
        par = parent[zi]
        for e in range(g.m):
            u, v = int(g.edge_u[e]), int(g.edge_v[e])
            if u == v:
                continue
            if not (np.isfinite(d[u]) and np.isfinite(d[v])):
                continue
            if parent_eid[zi, u] == e or parent_eid[zi, v] == e:
                continue
            if lca_filter and _lca(par, depth, u, v) != int(fvs[zi]):
                continue
            cz.append(zi)
            ce.append(e)
            cu.append(u)
            cv.append(v)
            cw.append(float(d[u] + pw[e] + d[v]))
    return {
        "cand_z": np.asarray(cz, dtype=np.int64),
        "cand_e": np.asarray(ce, dtype=np.int64),
        "cand_u": np.asarray(cu, dtype=np.int64),
        "cand_v": np.asarray(cv, dtype=np.int64),
        "cand_w": np.asarray(cw, dtype=np.float64),
    }


def _lca(par: np.ndarray, depth: np.ndarray, u: int, v: int) -> int:
    a, b = u, v
    da, db = int(depth[a]), int(depth[b])
    while da > db:
        a = int(par[a])
        da -= 1
    while db > da:
        b = int(par[b])
        db -= 1
    while a != b:
        a = int(par[a])
        b = int(par[b])
    return a


def reference_labels_for_tree(ref: dict, parent: np.ndarray, zi: int, s_pad: np.ndarray) -> np.ndarray:
    """The per-tree label pass over the reference's stored ``levels``."""
    c = s_pad[ref["parent_ep"][zi]]
    labels = np.zeros(parent.shape[1], dtype=np.uint8)
    par = parent[zi]
    for level in ref["levels"][zi]:
        labels[level] = labels[par[level]] ^ c[level]
    return labels
