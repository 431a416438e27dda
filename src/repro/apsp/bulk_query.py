"""Vectorized bulk point-to-point queries over block-cut decompositions.

The distance oracle (:class:`repro.apsp.ReducedDistanceOracle`, and
:class:`repro.apsp.DistanceOracle`, which differs only in its component
store) answers ``d(u, v)`` through a three-way classification: *same
component* (table lookup or Section 2.1.3 chain formulas), *cross
component* (boundary articulation points bracketing every path,
Section 2.2), *unreachable*.

:class:`BulkOracleIndex` holds that decision tree as arrays over the
vertices — membership, AP flags, home component and local index, per-block
AP positions, the shared-block AP minima and the AP closure — and runs it
as array passes:

1. classify **all** pairs at once (boolean masks over the pair array);
2. resolve each class with batched gathers — same-component pairs are
   grouped per component and handed to that component store's vectorized
   ``dist_many``, cross-component pairs get their bracketing APs from the
   vectorized binary-lifting LCA of
   :meth:`repro.decomposition.block_cut_tree.BlockCutTree.boundary_aps_many`
   and finish with one fused ``d(u,a1) + A[a1,a2] + d(a2,v)`` pass.

The oracle's scalar ``query`` walks the same arrays for one pair with the
stores' scalar ``dist``; both paths take the same lookups, the same
minimum sets and the same association order, so they are bit-identical,
which the qa suite asserts across the adversarial corpus.  Vertex ids
outside ``[0, n)`` raise :class:`~repro.graph.csr.GraphError` on every
path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..decomposition.block_cut_tree import BlockCutTree
from ..graph.csr import GraphError
from ..obs import metrics as _metrics
from ..obs import provenance as _prov
from ..obs.provenance import BatchProvenance
from ..obs.trace import span as _span

__all__ = ["BulkOracleIndex"]

_C_BATCHES = _metrics.counter("bulk_query.batches")
_C_PAIRS = _metrics.counter("bulk_query.pairs")
_C_SAME = _metrics.counter("bulk_query.same_component_pairs")
_C_CROSS = _metrics.counter("bulk_query.cross_component_pairs")
_C_UNREACH = _metrics.counter("bulk_query.unreachable_pairs")
_C_GROUPS = _metrics.counter("bulk_query.component_groups")


def vertex_error(v, n: int) -> GraphError:
    """The error for a vertex id outside ``[0, n)``."""
    return GraphError(f"vertex id {v} is outside [0, {n})")


class BulkOracleIndex:
    """Vectorized pair classification + resolution for a distance oracle.

    Parameters
    ----------
    n:
        Vertex count of the original graph.
    tree:
        Its :class:`~repro.decomposition.block_cut_tree.BlockCutTree`.
    component_vertices:
        ``component_vertices[c]`` lists the global vertex ids of component
        ``c`` — local index *is* position, matching the stores.
    stores:
        ``stores[c].dist_many(lu, lv, formula_out=None)`` answers
        component-local distances for index arrays, bit-identical to the
        store's scalar ``dist``.  The optional int8 ``formula_out`` array
        receives per-pair resolver codes from :mod:`repro.obs.provenance`;
        it never changes the arithmetic.
    ap_matrix:
        The ``a × a`` articulation closure.  May be attached after
        construction (the oracle derives it *from* this index's
        :attr:`ap_shared`).
    """

    def __init__(
        self,
        n: int,
        tree: BlockCutTree,
        component_vertices: Sequence[np.ndarray],
        stores: Sequence,
        ap_matrix: np.ndarray | None = None,
    ) -> None:
        self.n = int(n)
        self.tree = tree
        self._stores = stores
        self.ap_matrix = ap_matrix
        a = len(tree.ap_ids)
        n_blocks = len(component_vertices)

        self.is_ap = np.zeros(self.n, dtype=bool)
        self.ap_idx_of = np.full(self.n, -1, dtype=np.int64)
        # AP index → vertex id, for mapping boundary-AP indices back to
        # graph vertices in provenance records.
        self.ap_ids = np.asarray(tree.ap_ids, dtype=np.int64)
        if a:
            self.is_ap[self.ap_ids] = True
            self.ap_idx_of[self.ap_ids] = np.arange(a, dtype=np.int64)

        # Home component + local index for every non-AP vertex; per-block
        # local positions of every AP (``-1`` where the AP is not a member).
        # Single-vertex blocks (self-loops) are filled first so that a
        # vertex's multi-vertex block — the only one that can reach other
        # vertices — wins, mirroring ``BlockCutTree._vertex_block``.
        self.comp_of = np.full(self.n, -1, dtype=np.int64)
        self.local_of = np.full(self.n, -1, dtype=np.int64)
        self.ap_local = np.full((n_blocks, a), -1, dtype=np.int64)
        for multi in (False, True):
            for cid, verts in enumerate(component_vertices):
                verts = np.asarray(verts, dtype=np.int64)
                if (verts.size > 1) != multi:
                    continue
                loc = np.arange(verts.size, dtype=np.int64)
                ap_here = self.is_ap[verts]
                plain = verts[~ap_here]
                self.comp_of[plain] = cid
                self.local_of[plain] = loc[~ap_here]
                if ap_here.any():
                    self.ap_local[cid, self.ap_idx_of[verts[ap_here]]] = loc[ap_here]
        self.member = self.is_ap | (self.comp_of >= 0)

        # Minimum intra-component distance for every AP pair sharing a
        # block (``inf`` elsewhere): answers both-AP pairs that share a
        # block, and is the edge list the articulation closure is built
        # from.
        self.ap_shared = np.full((a, a), np.inf, dtype=np.float64)
        for cid in range(n_blocks):
            here = np.nonzero(self.ap_local[cid] >= 0)[0]
            if here.size < 2:
                continue
            iu, iv = np.triu_indices(here.size, k=1)
            gi, gj = here[iu], here[iv]
            li, lj = self.ap_local[cid, gi], self.ap_local[cid, gj]
            # Both orientations are gathered: per-source Dijkstra tables
            # can differ in the last ulp between d(i,j) and d(j,i), and
            # the scalar query always reads the (u, v) orientation.
            store = self._stores[cid]
            np.minimum.at(self.ap_shared, (gi, gj), store.dist_many(li, lj))
            np.minimum.at(self.ap_shared, (gj, gi), store.dist_many(lj, li))
        np.fill_diagonal(self.ap_shared, 0.0)

    # ------------------------------------------------------------------ #

    def _grouped_dist(
        self,
        comp: np.ndarray,
        lu: np.ndarray,
        lv: np.ndarray,
        formula_out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Store ``dist_many`` over mixed-component pairs, one batch per component."""
        out = np.empty(comp.size, dtype=np.float64)
        order = np.argsort(comp, kind="stable")
        sorted_comp = comp[order]
        cut = np.nonzero(np.diff(sorted_comp))[0] + 1
        starts = np.concatenate([[0], cut])
        ends = np.concatenate([cut, [comp.size]])
        _C_GROUPS.inc(int(starts.size))
        for s, e in zip(starts, ends):
            idx = order[s:e]
            store = self._stores[int(comp[idx[0]])]
            if formula_out is None:
                out[idx] = store.dist_many(lu[idx], lv[idx])
            else:
                f = np.zeros(idx.size, dtype=np.int8)
                out[idx] = store.dist_many(lu[idx], lv[idx], formula_out=f)
                formula_out[idx] = f
        return out

    def _to_ap_many(self, verts: np.ndarray, ap_idx: np.ndarray) -> np.ndarray:
        """Distance from each vertex to its bracketing AP (0 for AP verts)."""
        out = np.zeros(verts.size, dtype=np.float64)
        plain = ~self.is_ap[verts]
        if plain.any():
            comp = self.comp_of[verts[plain]]
            lu = self.local_of[verts[plain]]
            la = self.ap_local[comp, ap_idx[plain]]
            out[plain] = self._grouped_dist(comp, lu, la)
        return out

    def _resolve(self, pairs: np.ndarray, prov: BatchProvenance | None) -> np.ndarray:
        """Classify + resolve a validated ``(k, 2)`` pair array.

        The single code path behind :meth:`query_many` (``prov=None``) and
        :meth:`explain_many`: provenance capture only *adds* attribution
        writes next to the existing masks, so explained distances are
        bit-identical to unexplained ones.
        """
        k = pairs.shape[0]
        out = np.full(k, np.inf, dtype=np.float64)
        _C_BATCHES.inc()
        _C_PAIRS.inc(k)
        with _span("apsp.bulk_query", cat="apsp", pairs=k):
            u, v = pairs[:, 0], pairs[:, 1]
            eq = u == v
            out[eq] = 0.0
            live = ~eq & self.member[u] & self.member[v]

            apu, apv = self.is_ap[u], self.is_ap[v]
            if prov is not None:
                prov.cls[eq] = _prov.C_SELF
                prov.resolver[eq] = _prov.R_IDENTITY
                prov.comp_u[:] = self.comp_of[u]
                prov.comp_v[:] = self.comp_of[v]
            # Same component, no APs involved: unique components must match.
            same_nn = live & ~apu & ~apv & (self.comp_of[u] == self.comp_of[v])
            # Exactly one AP: shared iff the AP sits in the other's block.
            one_ap = live & (apu ^ apv)
            comp1 = np.where(apu, self.comp_of[v], self.comp_of[u])
            ap_side = np.where(apu, u, v)
            l_ap = np.full(k, -1, dtype=np.int64)
            if one_ap.any():
                l_ap[one_ap] = self.ap_local[
                    comp1[one_ap], self.ap_idx_of[ap_side[one_ap]]
                ]
            one_ap_shared = one_ap & (l_ap >= 0)
            # Both APs: the precomputed min over shared blocks answers
            # directly (``inf`` marks "no shared block" → cross class).
            both_ap = live & apu & apv
            both_ap_shared = np.zeros(k, dtype=bool)
            if both_ap.any():
                d = self.ap_shared[self.ap_idx_of[u[both_ap]], self.ap_idx_of[v[both_ap]]]
                hit = np.isfinite(d)
                sel = np.nonzero(both_ap)[0]
                out[sel[hit]] = d[hit]
                both_ap_shared[sel[hit]] = True
                if prov is not None:
                    prov.cls[sel[hit]] = _prov.C_SAME
                    prov.resolver[sel[hit]] = _prov.R_AP_SHARED

            same_comp = same_nn | one_ap_shared
            if same_comp.any():
                idx = np.nonzero(same_comp)[0]
                comp = np.where(
                    apu[idx] | apv[idx], comp1[idx], self.comp_of[u[idx]]
                )
                lu = np.where(apu[idx], l_ap[idx], self.local_of[u[idx]])
                lv = np.where(apv[idx], l_ap[idx], self.local_of[v[idx]])
                if prov is None:
                    out[idx] = self._grouped_dist(comp, lu, lv)
                else:
                    f = np.zeros(idx.size, dtype=np.int8)
                    out[idx] = self._grouped_dist(comp, lu, lv, formula_out=f)
                    prov.cls[idx] = _prov.C_SAME
                    prov.resolver[idx] = f
                    prov.component[idx] = comp
            _C_SAME.inc(int(same_comp.sum() + both_ap_shared.sum()))

            cross = live & ~(same_comp | both_ap_shared)
            n_cross = 0
            if cross.any():
                ci = np.nonzero(cross)[0]
                a1, a2, same_block, disc = self.tree.boundary_aps_many(u[ci], v[ci])
                # Leftover same-block / disconnected pairs answer ``inf``.
                ok = ~(same_block | disc)
                sel = ci[ok]
                if sel.size:
                    a1, a2 = a1[ok], a2[ok]
                    d_u = self._to_ap_many(u[sel], a1)
                    d_v = self._to_ap_many(v[sel], a2)
                    out[sel] = (d_u + self.ap_matrix[a1, a2]) + d_v
                    if prov is not None:
                        prov.cls[sel] = _prov.C_CROSS
                        prov.resolver[sel] = _prov.R_AP_BRIDGE
                        prov.ap1[sel] = self.ap_ids[a1]
                        prov.ap2[sel] = self.ap_ids[a2]
                n_cross = int(sel.size)
            _C_CROSS.inc(n_cross)
            _C_UNREACH.inc(int(np.isinf(out).sum()))
            if prov is not None:
                # Resolved-but-unreachable can't happen; unreachable pairs
                # keep the C_UNREACHABLE/R_NONE defaults.  inf out of a
                # resolver (e.g. a disconnected reduced component) still
                # reports as unreachable.
                unreach = np.isinf(out)
                prov.cls[unreach] = _prov.C_UNREACHABLE
                prov.resolver[unreach] = _prov.R_NONE
                prov.distances[:] = out
        return out

    def _check_pairs(self, pairs: np.ndarray) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"expected a (k, 2) pair array, got {pairs.shape}")
        if pairs.shape[0] and self.ap_matrix is None:
            raise ValueError("BulkOracleIndex.ap_matrix is not attached yet")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.n):
            bad = pairs[(pairs < 0) | (pairs >= self.n)]
            raise vertex_error(bad[0], self.n)
        return pairs

    def query_many(self, pairs: np.ndarray) -> np.ndarray:
        """Distances for a ``(k, 2)`` pair array, classified in bulk."""
        pairs = self._check_pairs(pairs)
        if pairs.shape[0] == 0:
            return np.full(0, np.inf, dtype=np.float64)
        return self._resolve(pairs, None)

    def explain_many(self, pairs: np.ndarray) -> BatchProvenance:
        """Like :meth:`query_many`, but returns full per-pair provenance.

        Distances (``.distances``) are bit-identical to
        :meth:`query_many` on the same pairs — both run the same
        :meth:`_resolve` body; provenance only adds attribution writes.
        """
        pairs = self._check_pairs(pairs)
        prov = BatchProvenance(pairs)
        if pairs.shape[0]:
            self._resolve(pairs, prov)
        _prov.count_explain(pairs.shape[0])
        return prov
