"""Minimum-weight odd cycle via the signed (auxiliary) graph.

Section 3.2.1: to find the lightest cycle ``C`` with ``⟨C, S⟩ = 1``, build
a two-layer graph — edges with ``S(e) = 0`` connect like-signed copies,
edges with ``S(e) = 1`` cross layers — and take the shortest ``x+ → x−``
path.  Every such path is a closed walk in ``G`` crossing an odd number of
``S``-edges, and the minimum over roots ``x`` realises the minimum odd
cycle [24, 26].

Because every cycle contains a feedback vertex, restricting the roots to
an FVS preserves the minimum; callers pass the FVS they already have.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graph.csr import CSRGraph
from ..sssp.dijkstra import dijkstra_tree
from ..sssp.engine import symmetric_adjacency, symmetric_dijkstra
from .cycle import Cycle
from .spanning import SpanningStructure

__all__ = ["build_signed_graph", "min_odd_cycle"]


def build_signed_graph(
    g: CSRGraph, s_edge: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Two-layer signed graph.

    ``s_edge`` is the 0/1 witness value per *edge* of ``g`` (tree edges are
    0 by construction).  Returns ``(aux, orig_eid)`` where ``aux`` has
    ``2n`` vertices (``x+`` = ``x``, ``x−`` = ``x + n``) and ``orig_eid``
    maps each aux edge back to its original edge id.
    """
    n = g.n
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    orig: list[int] = []
    for e in range(g.m):
        u, v, w = int(g.edge_u[e]), int(g.edge_v[e]), float(g.edge_w[e])
        s = int(s_edge[e])
        if u == v:
            if s:  # an odd self-loop connects the two copies of u
                us.append(u)
                vs.append(u + n)
                ws.append(w)
                orig.append(e)
            continue  # even self-loops can never shorten an odd walk
        if s == 0:
            us += [u, u + n]
            vs += [v, v + n]
        else:
            us += [u, u + n]
            vs += [v + n, v]
        ws += [w, w]
        orig += [e, e]
    aux = CSRGraph(2 * n, us, vs, ws)
    return aux, np.asarray(orig, dtype=np.int64)


def min_odd_cycle(
    g: CSRGraph,
    ss: SpanningStructure,
    s_bits: np.ndarray,
    roots: np.ndarray,
) -> Cycle | None:
    """Lightest cycle with odd intersection with the witness ``s_bits``.

    ``s_bits`` is boolean over E' (length ``ss.f``); ``roots`` the vertex
    ids to try (an FVS suffices).  Returns the cycle (support reduced mod
    2, walk weight recorded in ``meta['walk_weight']``) or ``None`` when no
    odd cycle exists.
    """
    n = g.n
    s_edge = np.zeros(g.m, dtype=np.int8)
    idx = ss.eprime_index
    nontree = idx >= 0
    s_edge[nontree] = np.asarray(s_bits, dtype=np.int8)[idx[nontree]]
    aux, orig_eid = build_signed_graph(g, s_edge)
    if aux.m == 0:
        return None

    roots = np.asarray(roots, dtype=np.int64)
    if roots.size == 0:
        return None
    # Bulk distances from every root's plus copy (compiled path), then an
    # exact predecessor run from the best root only.
    mat = _aux_matrix(aux)
    dist = symmetric_dijkstra(mat, indices=roots)
    closing = dist[np.arange(roots.size), roots + n]
    best = int(np.argmin(closing))
    if not np.isfinite(closing[best]):
        return None
    x = int(roots[best])
    _, parent, parent_edge = dijkstra_tree(aux, x)
    walk: list[int] = []
    cur = x + n
    while cur != x:
        ae = int(parent_edge[cur])
        walk.append(int(orig_eid[ae]))
        cur = int(parent[cur])
    walk_weight = float(closing[best])
    return Cycle.from_multiset(g, np.asarray(walk), weight=None, walk_weight=walk_weight)


def _aux_matrix(aux: CSRGraph) -> sp.csr_matrix:
    """Symmetric storage of ``aux``, parallel edges at their minimum.

    This is :func:`~repro.sssp.engine.adjacency_matrix` without its
    weight-contract check, which the cycle-basis code does not apply.
    """
    s = aux.simplify()
    return symmetric_adjacency(aux.n, s.edge_u, s.edge_v, s.edge_w)
