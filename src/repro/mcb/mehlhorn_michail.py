"""Mehlhorn–Michail MCB: FVS-rooted candidates + label-propagated scans.

This is the paper's *processing phase* (Section 3.3.2) in full:

* shortest-path trees ``T_z`` from every vertex of a feedback vertex set;
* the candidate family ``A = {C_ze}`` (optionally restricted to pairs with
  ``lca_{T_z}(u, v) = z`` — the Mehlhorn–Michail reduction — in which case
  every candidate is a simple cycle), sorted by weight into the hybrid
  array/linked-list :class:`CandidateStore`;
* per phase, **Algorithm 3**: labels ``l_z(u) = ⟨path_z(u), S⟩`` computed
  by two tree passes (a gather of witness bits onto parent edges, then a
  level-order prefix-xor), making each candidate's orthogonality test O(1):
  ``⟨C_ze, S⟩ = l_z(u) ⊕ l_z(v) ⊕ S(e)``;
* batched scanning of the store for the first (lightest) odd candidate;
* the vectorized witness update (independence test).

The work is factored into :class:`MMContext` methods — one shortest-path
tree's labels, one batch scan, one witness-block update — precisely the
work units the heterogeneous executor schedules across CPU and (simulated)
GPU for Table 2 / Figures 5–6.

Weight ordering uses a deterministic tie-breaking perturbation (see
:func:`repro.mcb.horton.perturbed_weights`); reported cycle weights are
exact, and the suite checks totals against de Pina.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..decomposition.reduce import _rank_slots
from ..graph.csr import CSRGraph
from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from ..sssp.engine import spt_forest
from . import gf2
from .candidate_store import CandidateStore
from .cycle import Cycle
from .fvs import greedy_fvs
from .horton import perturbed_weights
from .spanning import SpanningStructure, spanning_structure

__all__ = ["MMReport", "MMContext", "mm_mcb"]

_C_XORS = _metrics.counter("mcb.witness_xors")
_C_ORTHO = _metrics.counter("mcb.orthogonality_checks")
_C_PHASES = _metrics.counter("mcb.mm.phases")

_NO_PRED = -9999  # scipy's predecessor sentinel


@dataclass
class MMReport:
    """Instrumentation matching the paper's Section 3.5 phase breakdown."""

    f: int = 0
    n_fvs: int = 0
    n_candidates: int = 0
    t_setup: float = 0.0
    t_labels: float = 0.0
    t_scan: float = 0.0
    t_update: float = 0.0
    t_reconstruct: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return (
            self.t_setup + self.t_labels + self.t_scan + self.t_update + self.t_reconstruct
        )

    def fractions(self) -> dict[str, float]:
        """Per-phase share of the processing time (cf. 76% / 14% / 8%)."""
        proc = self.t_labels + self.t_scan + self.t_update
        if proc == 0:
            return {"labels": 0.0, "scan": 0.0, "update": 0.0}
        return {
            "labels": self.t_labels / proc,
            "scan": self.t_scan / proc,
            "update": self.t_update / proc,
        }


class MMContext:
    """Precomputed state for one Mehlhorn–Michail run.

    All heavy per-phase operations are exposed as methods over explicit
    work-unit granularity (one tree, one witness block) so that execution
    policy — sequential, thread pool, simulated GPU, heterogeneous queue —
    is chosen by the caller.
    """

    def __init__(
        self,
        g: CSRGraph,
        lca_filter: bool = True,
        perturb: bool = True,
        block_size: int = 512,
    ) -> None:
        self.graph = g
        self.ss: SpanningStructure = spanning_structure(g)
        self.f = self.ss.f
        if self.f == 0:
            self.fvs = np.empty(0, dtype=np.int64)
            self.n = g.n
            return
        self.fvs = greedy_fvs(g)
        self.n = g.n
        pw = perturbed_weights(g) if perturb else g.edge_w
        self._pg = g.with_weights(pw)

        # Shortest-path trees from every FVS root (compiled bulk call).
        # Perturbed weights make each tree the unique SPT, which the
        # lca-filtered candidate theorem of [29] requires.
        self.dist, self.parent = spt_forest(self._pg, self.fvs)

        self._build_tree_tables()
        self._build_candidates(lca_filter)
        self.block_size = block_size

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def _build_tree_tables(self) -> None:
        """Depths, level ordering, and parent-edge E' indices per tree.

        All ``|Z|`` trees are handled at once on the flattened ``(|Z|·n)``
        index space ``zi·n + v``.
        """
        g = self.graph
        pw = self._pg.edge_w
        k, n = self.parent.shape
        has_par = self.parent != _NO_PRED
        flat_parent = (
            np.where(has_par, self.parent, 0) + np.arange(k)[:, None] * n
        ).reshape(-1)

        # Depth = hop count to the root, by the pointer doubling that ranks
        # chain slots: roots and unreachable vertices are fixed points of
        # rank 0.
        has = has_par.reshape(-1)
        jump = np.where(has, flat_parent, np.arange(k * n))
        rank = has.astype(np.int64)
        _rank_slots(jump, rank, ~has, np.nonzero(has)[0])
        self.depth = np.where(np.isfinite(self.dist), rank.reshape(k, n), -1)

        # Tree arc -> edge id: the lightest edge per vertex pair, i.e. the
        # first of its pair in argsort(pw) order, looked up by sorted key.
        eu, ev = g.edge_u, g.edge_v
        by_w = np.argsort(pw)
        by_w = by_w[eu[by_w] != ev[by_w]]
        pair = np.minimum(eu, ev)[by_w] * n + np.maximum(eu, ev)[by_w]
        grouped = np.argsort(pair, kind="stable")
        keys = pair[grouped]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys, winner = keys[first], by_w[grouped[first]]

        zc, v = np.nonzero(has_par)
        p = self.parent[zc, v]
        eid = winner[np.searchsorted(keys, np.minimum(v, p) * n + np.maximum(v, p))]
        self.parent_eid = np.full((k, n), -1, dtype=np.int64)
        self.parent_eid[zc, v] = eid
        self.parent_ep = np.full((k, n), -1, dtype=np.int64)
        self.parent_ep[zc, v] = self.ss.eprime_index[eid]

        # Flattened cross-tree level schedule: one numpy gather/xor per
        # depth covers that depth in *every* tree at once.  This is still
        # Algorithm 3's level-order second pass, executed for all |Z|
        # trees simultaneously (what the CUDA grid does spatially).  Each
        # level is sorted by flat index, so one tree's part of it is a
        # contiguous run (see labels_for_tree).
        self._flat_parent_ep = self.parent_ep.reshape(-1)
        flat_depth = self.depth.reshape(-1)
        sched = np.argsort(flat_depth, kind="stable")
        cuts = np.cumsum(np.bincount(flat_depth + 1))  # ends of depth -1, 0, 1, ...
        self._flat_levels: list[tuple[np.ndarray, np.ndarray]] = [
            (sel, flat_parent[sel])
            for sel in (sched[a:b] for a, b in zip(cuts[1:-1], cuts[2:]))
        ]

    def _build_candidates(self, lca_filter: bool) -> None:
        """Candidate family A, weight-sorted into the hybrid store.

        One boolean mask over ``(|Z|, non-loop edges)``: both endpoints
        reachable, not a tree arc of ``T_z``, and — with ``lca_filter`` —
        ``lca_{T_z}(u, v) = z``.  The LCA test reads a top-child table:
        ``top[z, v]`` is the depth-1 ancestor of ``v`` in ``T_z``, and
        ``lca(u, v) = z`` iff one endpoint is ``z`` or the two hang under
        different children of ``z``.  The root's entry is ``-1``, unlike
        any child's, so both cases are ``top[z, u] != top[z, v]``.
        Self-loops come first, then the ``(z, e)`` pairs in row-major
        order.
        """
        g = self.graph
        k, n = self.parent.shape
        pw = self._pg.edge_w
        loops = np.nonzero(g.edge_u == g.edge_v)[0]
        edges = np.nonzero(g.edge_u != g.edge_v)[0]
        u, v = g.edge_u[edges], g.edge_v[edges]

        keep = np.isfinite(self.dist[:, u]) & np.isfinite(self.dist[:, v])
        keep &= self.parent_eid[:, u] != edges
        keep &= self.parent_eid[:, v] != edges
        if lca_filter:
            top = np.full(k * n, -1, dtype=np.int64)
            for d, (sel, par) in enumerate(self._flat_levels):
                top[sel] = sel if d == 0 else top[par]
            top = top.reshape(k, n)
            keep &= top[:, u] != top[:, v]
        zi, j = np.nonzero(keep)

        self.cand_z = np.concatenate([np.full(loops.size, -1, dtype=np.int64), zi])
        self.cand_e = np.concatenate([loops, edges[j]])
        self.cand_u = np.concatenate([g.edge_u[loops], u[j]])
        self.cand_v = np.concatenate([g.edge_u[loops], v[j]])
        self.cand_w = np.concatenate(
            [pw[loops], (self.dist[zi, u[j]] + pw[edges[j]]) + self.dist[zi, v[j]]]
        )
        self.cand_ep = self.ss.eprime_index[self.cand_e]
        self.order = np.argsort(self.cand_w, kind="stable")

    # ------------------------------------------------------------------ #
    # Per-phase work units
    # ------------------------------------------------------------------ #

    def witness_edge_bits(self, s_packed: np.ndarray) -> np.ndarray:
        """Expand a packed witness into per-E'-index bits, padded so that
        index ``-1`` (tree edges of G, always orthogonal) reads as 0."""
        bits = gf2.unpack(s_packed, self.f).astype(np.uint8)
        return np.concatenate([bits, np.zeros(1, dtype=np.uint8)])

    def labels_for_tree(self, zi: int, s_pad: np.ndarray) -> np.ndarray:
        """Algorithm 3 for one tree ``T_z``: the two passes over ``T_z``.

        Pass 1 gathers the witness bit of each parent edge (``c_z``);
        pass 2 is a level-order prefix-xor producing ``l_z``, over this
        tree's run of each level of the flat cross-tree schedule.
        One call = one work unit of the heterogeneous label stage.
        """
        c = s_pad[self.parent_ep[zi]]
        labels = np.zeros(self.n, dtype=np.uint8)
        base = zi * self.n
        for sel, par in self._flat_levels:
            lo, hi = np.searchsorted(sel, (base, base + self.n))
            level = sel[lo:hi] - base
            labels[level] = labels[par[lo:hi] - base] ^ c[level]
        return labels

    def compute_labels(self, s_pad: np.ndarray, parallel_map=None) -> np.ndarray:
        """Labels for all trees: ``(|Z|, n)`` uint8 matrix.

        The default path runs the flattened cross-tree level schedule (one
        vectorized gather/xor per depth).  ``parallel_map`` switches to
        per-tree work units instead (used when an executor wants to own
        the tree-level parallelism).
        """
        k = len(self.fvs)
        if k == 0:
            return np.zeros((0, self.n), dtype=np.uint8)
        if parallel_map is not None:
            rows = parallel_map(
                lambda zi: self.labels_for_tree(zi, s_pad), list(range(k))
            )
            return np.stack(rows)
        c = s_pad[self._flat_parent_ep]
        labels = np.zeros(k * self.n, dtype=np.uint8)
        for sel, par in self._flat_levels:
            labels[sel] = labels[par] ^ c[sel]
        return labels.reshape(k, self.n)

    def scan_predicate(self, labels: np.ndarray, s_pad: np.ndarray):
        """Vectorized O(1)-per-candidate orthogonality test over a batch."""

        def predicate(ids: np.ndarray) -> np.ndarray:
            z = self.cand_z[ids]
            se = s_pad[self.cand_ep[ids]]
            tree = z >= 0
            parity = se.copy()
            if tree.any():
                zt = z[tree]
                parity[tree] ^= (
                    labels[zt, self.cand_u[ids][tree]]
                    ^ labels[zt, self.cand_v[ids][tree]]
                )
            return parity == 1

        return predicate

    def reconstruct(self, cand_id: int) -> tuple[Cycle, np.ndarray]:
        """Selected candidate → (cycle with true weight, packed E' vector)."""
        e = int(self.cand_e[cand_id])
        zi = int(self.cand_z[cand_id])
        if zi < 0:
            support = np.asarray([e], dtype=np.int64)
        else:
            par = self.parent[zi]
            root = int(self.fvs[zi])
            walk = [e]
            for x in (int(self.cand_u[cand_id]), int(self.cand_v[cand_id])):
                cur = x
                while cur != root:
                    p = int(par[cur])
                    walk.append(self.parent_eid[zi, cur])
                    cur = p
            support = np.asarray(walk, dtype=np.int64)
        cyc = Cycle.from_multiset(
            self.graph, support, weight=None, z=int(self.fvs[zi]) if zi >= 0 else -1, e=e
        )
        return cyc, self.ss.restricted_vector(support)

    def update_witnesses(
        self, witnesses: np.ndarray, i: int, c_vec: np.ndarray, parallel_map=None
    ) -> int:
        """Steps 4–6 of Algorithm 2 on rows ``i+1 .. f-1``.

        Returns the number of witnesses flipped.  ``parallel_map``, when
        given, receives per-row-block closures (the per-thread /
        per-GPU-block split described in Section 3.3.2).
        """
        rest = witnesses[i + 1 :]
        if rest.size == 0:
            return 0
        _C_ORTHO.inc(len(rest))
        if parallel_map is None:
            odd = gf2.pivot_update(rest, c_vec, witnesses[i])
        else:
            nblocks = max(1, min(len(rest), 8))
            bounds = np.linspace(0, len(rest), nblocks + 1, dtype=int)
            parts = parallel_map(
                lambda se: gf2.dot_many(rest[se[0] : se[1]], c_vec),
                [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])],
            )
            odd = np.concatenate(parts).astype(bool)
            gf2.xor_many(rest, odd, witnesses[i])
        flipped = int(odd.sum())
        _C_XORS.inc(flipped)
        return flipped

    def new_store(self) -> CandidateStore:
        """Fresh weight-ordered candidate store for one run."""
        return CandidateStore(self.order, block_size=self.block_size)


def mm_mcb(
    g: CSRGraph,
    lca_filter: bool = True,
    perturb: bool = True,
    block_size: int = 512,
    report: MMReport | None = None,
) -> list[Cycle]:
    """Sequential driver for the Mehlhorn–Michail pipeline."""
    t0 = time.perf_counter()
    ctx = MMContext(g, lca_filter=lca_filter, perturb=perturb, block_size=block_size)
    if ctx.f == 0:
        return []
    store = ctx.new_store()
    witnesses = gf2.identity(ctx.f)
    t1 = time.perf_counter()
    if report is not None:
        report.f = ctx.f
        report.n_fvs = len(ctx.fvs)
        report.n_candidates = len(ctx.cand_e)
        report.t_setup += t1 - t0

    cycles: list[Cycle] = []
    for i in range(ctx.f):
        _C_PHASES.inc()
        ta = time.perf_counter()
        with _span("mm.labels", cat="mcb", phase=i):
            s_pad = ctx.witness_edge_bits(witnesses[i])
            labels = ctx.compute_labels(s_pad)
        tb = time.perf_counter()
        with _span("mm.scan", cat="mcb", phase=i):
            cand = store.scan_and_remove(ctx.scan_predicate(labels, s_pad))
        tc = time.perf_counter()
        if cand is None:
            raise RuntimeError(
                "candidate family does not span the cycle space "
                "(disable lca_filter or report a bug)"
            )
        with _span("mm.reconstruct", cat="mcb", phase=i):
            cyc, c_vec = ctx.reconstruct(cand)
        td = time.perf_counter()
        assert gf2.dot(c_vec, witnesses[i]) == 1
        cycles.append(cyc)
        with _span("mm.update", cat="mcb", phase=i):
            ctx.update_witnesses(witnesses, i, c_vec)
        te = time.perf_counter()
        if report is not None:
            report.t_labels += tb - ta
            report.t_scan += tc - tb
            report.t_reconstruct += td - tc
            report.t_update += te - td
    return cycles
