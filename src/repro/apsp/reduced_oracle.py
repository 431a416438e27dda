"""Exact distance oracle over per-component stores (Sections 2.2–2.3).

The oracle answers ``d(u, v) = d_i(u, a1) + A[a1, a2] + d_j(a2, v)``
through the block-cut tree: same-component pairs are answered by the
component's store, cross-component pairs through the articulation points
``a1``/``a2`` bracketing every ``u–v`` path and the AP closure ``A``.

Every component is ear-reduced (its articulation points kept) and solved
on ``G^r`` once, giving ``S^r``.  What the component then *stores* is the
only thing that differs between the two oracle classes:

* :class:`ReducedDistanceOracle` keeps ``S^r`` plus three scalars per
  removed vertex (left/right anchors and chain offsets) and evaluates the
  Section 2.1.3 closed forms at query time — ``O(a² + Σ (nᵢʳ)² + n)``
  storage, the accounting that reproduces the paper's Table-1 savings even
  for single-BCC, chain-heavy graphs (c-50: 52% of vertices removed →
  tables shrink ~4×);
* :class:`repro.apsp.DistanceOracle` keeps the full table lifted from
  ``S^r`` — ``O(a² + Σ nᵢ²)``, the paper's stated §2.3 footprint.

Both run one query path.  :class:`~repro.apsp.bulk_query.BulkOracleIndex`
holds the classification arrays; ``query_many`` and ``explain_many``
resolve whole pair batches over them, and the scalar ``query`` walks the
same arrays for one pair in plain Python (a one-pair ``query_many`` costs
over twenty scalar walks in NumPy call overhead).  The three are
bit-identical, which the qa suite asserts on every pair of the corpus.
"""

from __future__ import annotations

import numpy as np

from ..decomposition.biconnected import biconnected_components
from ..decomposition.block_cut_tree import BlockCutTree
from ..decomposition.reduce import ReducedGraph, reduce_graph
from ..graph.csr import CSRGraph
from ..obs.provenance import R_CHAIN_CHAIN, R_CHAIN_ENDPOINT, R_SAME_CHAIN, R_TABLE
from ..sssp.engine import all_pairs, strip_nudge, symmetric_adjacency, symmetric_dijkstra
from .bulk_query import BulkOracleIndex, vertex_error

__all__ = ["ReducedDistanceOracle"]


class _ReducedStore:
    """Reduced table ``S^r`` + anchor data for one biconnected component."""

    __slots__ = ("red", "table")

    def __init__(self, red: ReducedGraph, s_r: np.ndarray):
        self.red = red
        self.table = s_r            # distances over red.graph vertices

    def dist(self, lu: int, lv: int) -> float:
        """Exact distance between two component-local vertices."""
        red = self.red
        if lu == lv:
            return 0.0
        ku, kv = red.kept_mask[lu], red.kept_mask[lv]
        s = self.table
        rid = red.reduced_id
        if ku and kv:
            return float(s[rid[lu], rid[lv]])
        if ku or kv:
            x, v = (lv, lu) if ku else (lu, lv)
            cx = red.chain_of[x]
            return float(
                min(
                    red.dist_left[x] + s[red.chain_left_rid[cx], rid[v]],
                    red.dist_right[x] + s[red.chain_right_rid[cx], rid[v]],
                )
            )
        # both removed
        cx, cy = red.chain_of[lu], red.chain_of[lv]
        lx, rx = red.chain_left_rid[cx], red.chain_right_rid[cx]
        ly, ry = red.chain_left_rid[cy], red.chain_right_rid[cy]
        dlu, dru = red.dist_left[lu], red.dist_right[lu]
        dlv, drv = red.dist_left[lv], red.dist_right[lv]
        best = min(
            dlu + s[lx, ly] + dlv,
            dlu + s[lx, ry] + drv,
            dru + s[rx, ly] + dlv,
            dru + s[rx, ry] + drv,
        )
        if cx == cy:
            # Same chain: ``dist_left`` is the chain prefix.
            best = min(best, abs(dlu - dlv))
        return float(best)

    def dist_many(
        self,
        lu: np.ndarray,
        lv: np.ndarray,
        formula_out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`dist` over arrays of component-local vertices.

        Evaluates the Section 2.1.3 closed forms as batched gathers over
        the chain prefix arrays — bit-identical to the scalar path (same
        table lookups, same minimum sets, same association order).
        ``formula_out`` (provenance capture) receives per-pair resolver
        codes; it only ever adds attribution writes, never changes the
        arithmetic.
        """
        red = self.red
        s = self.table
        rid = red.reduced_id
        lu = np.asarray(lu, dtype=np.int64)
        lv = np.asarray(lv, dtype=np.int64)
        out = np.empty(lu.size, dtype=np.float64)
        ku = red.kept_mask[lu]
        kv = red.kept_mask[lv]
        both = ku & kv
        if both.any():
            out[both] = s[rid[lu[both]], rid[lv[both]]]
            if formula_out is not None:
                formula_out[both] = R_TABLE
        one = ku ^ kv
        if one.any():
            x = np.where(ku[one], lv[one], lu[one])  # the removed vertex
            w = np.where(ku[one], lu[one], lv[one])  # the kept vertex
            ch = red.chain_of[x]
            lx = red.chain_left_rid[ch]
            rx = red.chain_right_rid[ch]
            rw = rid[w]
            out[one] = np.minimum(
                red.dist_left[x] + s[lx, rw], red.dist_right[x] + s[rx, rw]
            )
            if formula_out is not None:
                formula_out[one] = R_CHAIN_ENDPOINT
        rr = ~ku & ~kv
        if rr.any():
            x, y = lu[rr], lv[rr]
            cx, cy = red.chain_of[x], red.chain_of[y]
            lx, rx = red.chain_left_rid[cx], red.chain_right_rid[cx]
            ly, ry = red.chain_left_rid[cy], red.chain_right_rid[cy]
            dlu, dru = red.dist_left[x], red.dist_right[x]
            dlv, drv = red.dist_left[y], red.dist_right[y]
            best = (dlu + s[lx, ly]) + dlv
            np.minimum(best, (dlu + s[lx, ry]) + drv, out=best)
            np.minimum(best, (dru + s[rx, ly]) + dlv, out=best)
            np.minimum(best, (dru + s[rx, ry]) + drv, out=best)
            if formula_out is not None:
                # Attribute the winner *before* the in-place same-chain
                # min below mutates ``best`` (float min is exact, so the
                # <= test reproduces exactly which term wins).
                direct = np.abs(dlu - dlv)
                same = (cx == cy) & (direct <= best)
                f = np.full(same.size, R_CHAIN_CHAIN, dtype=np.int8)
                f[same] = R_SAME_CHAIN
                formula_out[rr] = f
            # Same-chain closed form over the cumsum prefixes.
            np.minimum(best, np.abs(dlu - dlv), out=best, where=cx == cy)
            out[rr] = best
        out[lu == lv] = 0.0
        return out

    def entries(self) -> int:
        """Stored distance entries plus anchor scalars."""
        return int(self.table.size) + 3 * self.red.n_removed


def _ap_graph(ap_shared: np.ndarray):
    """The AP graph: one edge per co-located AP pair, both arcs stored.

    ``ap_shared[i, j]`` is the minimum intra-component distance of APs
    ``i < j`` (``inf`` when they share no component); the upper triangle
    gives each pair once.
    """
    rows, cols = np.nonzero(np.triu(np.isfinite(ap_shared), k=1))
    return symmetric_adjacency(len(ap_shared), rows, cols, ap_shared[rows, cols])


class ReducedDistanceOracle:
    """Exact APSP oracle over reduced per-component tables.

    Subclasses change only :attr:`store`, the class that turns one
    component's ``(red, S^r)`` into what the oracle keeps for it; it must
    provide ``dist(lu, lv)``, ``dist_many(lu, lv, formula_out=None)``
    (bit-identical to each other) and ``entries()``.
    """

    store = _ReducedStore

    def __init__(self, g: CSRGraph) -> None:
        self.graph = g
        bcc = biconnected_components(g)
        self.bcc = bcc
        self.tree = BlockCutTree(g, bcc)
        self.stores = []
        for cid in range(bcc.count):
            sub, _ = bcc.component_subgraph(g, cid)
            red = reduce_graph(sub, keep=bcc.component_keep_mask(sub, cid))
            self.stores.append(self.store(red, all_pairs(red.simple_graph())))
        # The index's ``ap_shared`` matrix is the min intra-component
        # distance per co-located AP pair — exactly the edge list the
        # articulation closure is built from, so the closure is one
        # sparse Dijkstra over its finite entries.
        self._bulk = BulkOracleIndex(g.n, self.tree, bcc.component_vertices, self.stores)
        if len(self._bulk.ap_ids):
            mat = _ap_graph(self._bulk.ap_shared)
            self.ap_matrix = strip_nudge(np.asarray(symmetric_dijkstra(mat)), mat.data)
            np.fill_diagonal(self.ap_matrix, 0.0)
        else:
            self.ap_matrix = np.zeros((0, 0))
        self._bulk.ap_matrix = self.ap_matrix

    # ------------------------------------------------------------------ #

    def query(self, u: int, v: int) -> float:
        """Exact shortest-path distance (``inf`` when disconnected).

        Walks the bulk index's classification arrays for one pair, in the
        order and with the arithmetic of :meth:`query_many`, so the two
        agree bit for bit.  Raises :class:`~repro.graph.csr.GraphError`
        for a vertex id outside ``[0, n)``.
        """
        b = self._bulk
        if not 0 <= u < b.n:
            raise vertex_error(u, b.n)
        if not 0 <= v < b.n:
            raise vertex_error(v, b.n)
        if u == v:
            return 0.0
        if not (b.member[u] and b.member[v]):
            return float("inf")
        apu, apv = b.is_ap[u], b.is_ap[v]
        if apu and apv:
            d = b.ap_shared[b.ap_idx_of[u], b.ap_idx_of[v]]
            if d < np.inf:
                return float(d)
        elif apu:
            c = b.comp_of[v]
            la = b.ap_local[c, b.ap_idx_of[u]]
            if la >= 0:
                return self.stores[c].dist(la, b.local_of[v])
        elif apv:
            c = b.comp_of[u]
            la = b.ap_local[c, b.ap_idx_of[v]]
            if la >= 0:
                return self.stores[c].dist(b.local_of[u], la)
        elif b.comp_of[u] == b.comp_of[v]:
            return self.stores[b.comp_of[u]].dist(b.local_of[u], b.local_of[v])
        try:
            bracket = self.tree.boundary_aps(u, v)
        except ValueError:
            return float("inf")
        if bracket is None:  # pragma: no cover - shared-block handled above
            return float("inf")
        a1, a2 = b.ap_idx_of[bracket[0]], b.ap_idx_of[bracket[1]]
        d_u = d_v = 0.0
        if not apu:
            c = b.comp_of[u]
            d_u = self.stores[c].dist(b.local_of[u], b.ap_local[c, a1])
        if not apv:
            c = b.comp_of[v]
            d_v = self.stores[c].dist(b.local_of[v], b.ap_local[c, a2])
        return float((d_u + b.ap_matrix[a1, a2]) + d_v)

    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        """Bulk ``(k, 2)`` pair queries as array passes.

        Classifies every pair at once and resolves each class with batched
        gathers (see :mod:`repro.apsp.bulk_query`) — bit-identical to
        :meth:`query` on each pair, integer factors faster.
        """
        return self._bulk.query_many(pairs)

    def explain_many(self, pairs: np.ndarray):
        """Bulk queries with full per-pair provenance attached.

        Returns a :class:`repro.obs.provenance.BatchProvenance` whose
        ``.distances`` are bit-identical to :meth:`query_many` (chain
        closed forms attributed as ``chain-endpoint`` / ``chain-chain`` /
        ``same-chain``, full-table lookups as ``table``).
        """
        return self._bulk.explain_many(pairs)

    def explain(self, u: int, v: int):
        """Explain one query: a :class:`~repro.obs.provenance.QueryProvenance`."""
        pairs = np.array([[u, v]], dtype=np.int64)
        return self.explain_many(pairs).record(0)

    def memory_bytes(self, dtype_bytes: int = 4) -> int:
        """Stored entries × entry size (compare with the dense table)."""
        entries = int(self.ap_matrix.size) + sum(s.entries() for s in self.stores)
        return entries * dtype_bytes

    def full_matrix_bytes(self, dtype_bytes: int = 4) -> int:
        """Bytes a dense ``n × n`` table would need ("Max Memory")."""
        return self.graph.n * self.graph.n * dtype_bytes
