"""Degree-2 chain contraction: the reduced graph ``G^r`` (Section 2.1.1).

Given a graph (in practice one biconnected component) the reduction keeps
every vertex of degree ≠ 2 (plus any vertices the caller pins, e.g.
articulation points) and contracts each maximal chain of degree-2 vertices
into a single weighted edge.  The result is in general a **multigraph**:
two kept vertices joined by several chains yield parallel edges, and a
chain that starts and ends at the same kept vertex yields a self-loop —
both are required verbatim by the MCB reduction (Lemma 3.1: "the graph G^r
may contain multiple edges and self-loops").

Alongside the reduced graph we retain, for every removed vertex ``x``, the
anchors ``left(x)``/``right(x)`` and its distances to them along the chain —
exactly the tables consumed by the APSP post-processing formulas of
Section 2.1.3.

The contraction is a handful of whole-array passes over the CSR slots (no
Python loop per chain or per vertex):

1. every slot owned by a removed vertex points back to the slot it is
   entered from, so the chains are linked lists of slots hanging off the
   kept vertices' slots; pointer doubling ranks every slot in
   ``⌈log₂ L⌉`` rounds (``L`` the longest chain);
2. slots no kept vertex reaches lie on pure degree-2 cycles; each cycle is
   anchored at its smallest vertex id (a min-doubling over the cycle) and
   ranked from that anchor;
3. each chain is walked in both directions from its two end slots; the
   walk starting at the lower CSR slot is kept, which numbers chains in
   discovery order (kept vertices ascending, then slots ascending);
4. the chain prefixes are sequential per-chain sums: chains are bucketed
   by length class and each bucket is one ``np.cumsum(axis=1)``.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import CSRGraph, GraphError
from ..obs import metrics as _metrics
from ..obs.trace import span as _span

__all__ = ["Chain", "ReducedGraph", "reduce_graph"]

_C_REDUCTIONS = _metrics.counter("reduce.calls")
_C_CHAINS = _metrics.counter("reduce.chains")
_C_REMOVED = _metrics.counter("reduce.vertices_removed")


@dataclass(frozen=True)
class Chain:
    """One contracted degree-2 chain.

    ``vertices`` runs from the left kept endpoint to the right kept endpoint
    (inclusive) in original vertex ids; ``edges`` are the original edge ids
    along it; ``prefix[i]`` is the distance from the left endpoint to
    ``vertices[i]`` (so ``prefix[-1]`` is the chain weight).
    """

    vertices: np.ndarray
    edges: np.ndarray
    prefix: np.ndarray

    @property
    def left(self) -> int:
        return int(self.vertices[0])

    @property
    def right(self) -> int:
        return int(self.vertices[-1])

    @property
    def weight(self) -> float:
        return float(self.prefix[-1])

    @property
    def interior(self) -> np.ndarray:
        """Removed (interior) vertices of this chain."""
        return self.vertices[1:-1]

    def __len__(self) -> int:
        return int(self.edges.size)


class _ChainView(Sequence):
    """Read-only ``Sequence[Chain]`` over a :class:`ReducedGraph` chain table."""

    __slots__ = ("_red",)

    def __init__(self, red: "ReducedGraph") -> None:
        self._red = red

    def __len__(self) -> int:
        return self._red.n_chains

    def __getitem__(self, c):
        if isinstance(c, slice):
            return [self[i] for i in range(*c.indices(len(self)))]
        c = int(c)
        if c < 0:
            c += len(self)
        if not 0 <= c < len(self):
            raise IndexError("chain index out of range")
        red = self._red
        span = red.chain_span(c)
        return Chain(
            vertices=red.chain_vertices[span],
            edges=red.expand_edge(c),
            prefix=red.chain_prefix[span],
        )


@dataclass
class ReducedGraph:
    """Output of :func:`reduce_graph`.

    Attributes
    ----------
    original:
        The input graph ``G``.
    graph:
        The reduced multigraph ``G^r``; its vertex ``i`` is original vertex
        ``kept_ids[i]``, and its edge ``c`` contracts chain ``c``.
    kept_mask / kept_ids / reduced_id:
        Vertex bookkeeping.  ``reduced_id[old] == -1`` for removed vertices.
    chain_indptr / chain_edges / chain_vertices / chain_prefix:
        The chain table, one ragged row per reduced edge (same indexing),
        and the only stored chain representation.  Chain ``c`` has
        ``L = chain_indptr[c + 1] − chain_indptr[c]`` edges, stored at
        ``chain_edges[chain_indptr[c]:chain_indptr[c + 1]]`` in walk order;
        its ``L + 1`` vertices (left anchor first, right anchor last) and
        the prefix distances from the left anchor are stored at
        :meth:`chain_span` of ``chain_vertices`` / ``chain_prefix``.  The
        table arrays are read-only.
    chains:
        A derived, read-only ``Sequence`` of :class:`Chain` records that
        slices the table on access (for callers that want objects; the
        pipeline reads the flat arrays).
    chain_of / pos_in_chain / dist_left / dist_right:
        Per *original* vertex: for removed vertices, the chain id, position
        of the vertex inside the chain's vertices, and distances to the
        chain's two anchors.  Entries for kept vertices are ``-1`` / 0.
    chain_left_rid / chain_right_rid / chain_weight:
        Per chain: reduced ids of the two anchors and the total chain
        weight.  These are the prefix summaries the vectorized postprocess
        kernels gather from (``dist_left[x]`` is the per-vertex chain
        prefix, so ``|dist_left[x] − dist_left[y]|`` is the same-chain
        closed form).
    """

    original: CSRGraph
    graph: CSRGraph
    kept_mask: np.ndarray
    kept_ids: np.ndarray
    reduced_id: np.ndarray
    chain_indptr: np.ndarray
    chain_edges: np.ndarray
    chain_vertices: np.ndarray
    chain_prefix: np.ndarray
    chain_of: np.ndarray
    pos_in_chain: np.ndarray
    dist_left: np.ndarray
    dist_right: np.ndarray
    chain_left_rid: np.ndarray
    chain_right_rid: np.ndarray
    chain_weight: np.ndarray
    _simple_cache: CSRGraph | None = field(default=None, repr=False)

    @property
    def n_chains(self) -> int:
        """Number of chains (= reduced edges)."""
        return int(self.chain_indptr.size - 1)

    @property
    def chains(self) -> Sequence[Chain]:
        """Per-chain :class:`Chain` records, built from the table on access."""
        return _ChainView(self)

    @property
    def n_removed(self) -> int:
        """Number of vertices contracted away."""
        return int((~self.kept_mask).sum())

    @property
    def removal_fraction(self) -> float:
        """Fraction of vertices removed (the Table 1 "Nodes Removed" knob)."""
        return self.n_removed / self.original.n if self.original.n else 0.0

    def chain_span(self, c: int) -> slice:
        """Slice of chain ``c`` in ``chain_vertices`` / ``chain_prefix``."""
        return slice(int(self.chain_indptr[c]) + c, int(self.chain_indptr[c + 1]) + c + 1)

    def left_anchor(self, x: int) -> int:
        """``left(x)`` in original vertex ids (Section 2.1.1)."""
        c = int(self.chain_of[x])
        return int(self.chain_vertices[self.chain_indptr[c] + c])

    def right_anchor(self, x: int) -> int:
        """``right(x)`` in original vertex ids."""
        c = int(self.chain_of[x])
        return int(self.chain_vertices[self.chain_indptr[c + 1] + c])

    def simple_graph(self) -> CSRGraph:
        """Simple view of ``G^r`` (min-weight parallel edge, loops dropped).

        This is the graph the APSP processing phase runs Dijkstra on
        ("we retain the edge with the shortest weight").  Cached.
        """
        if self._simple_cache is None:
            self._simple_cache = self.graph.simplify()
        return self._simple_cache

    def expand_edge(self, reduced_eid: int) -> np.ndarray:
        """Original edge ids contracted into reduced edge ``reduced_eid``."""
        e = int(reduced_eid)
        return self.chain_edges[self.chain_indptr[e] : self.chain_indptr[e + 1]]

    def expand_cycle(self, reduced_eids: np.ndarray | list[int]) -> np.ndarray:
        """Map a cycle in ``G^r`` (reduced edge ids) to original edge ids.

        Per Lemma 3.1 this substitution turns any cycle of ``MCB(G^r)``
        into the corresponding cycle of ``MCB(G)`` with identical weight.
        One gather over the chain table.
        """
        eids = np.asarray(reduced_eids, dtype=np.int64)
        if eids.size == 0:
            return np.empty(0, dtype=np.int64)
        return self.chain_edges[_ragged_index(self.chain_indptr, eids)]

    def validate(self) -> None:
        """Internal consistency checks (used by tests and examples)."""
        g, r = self.original, self.graph
        if int(self.kept_mask.sum()) != r.n:
            raise GraphError("kept count mismatch")
        if self.n_chains != r.m or self.chain_edges.size != g.m:
            raise GraphError("chain table size mismatch with the graphs")
        uses = np.bincount(self.chain_edges, minlength=g.m)
        if np.any(uses > 1):
            raise GraphError("chains overlap on an original edge")
        if np.any(uses == 0):
            raise GraphError("some original edge belongs to no chain")
        c = np.arange(self.n_chains)
        first = self.chain_indptr[:-1] + c
        last = self.chain_indptr[1:] + c
        if not np.allclose(self.chain_prefix[last], r.edge_w):
            raise GraphError("chain weight mismatch with reduced edge")
        a = self.reduced_id[self.chain_vertices[first]]
        b = self.reduced_id[self.chain_vertices[last]]
        ru, rv = r.edge_u, r.edge_v
        if not np.all(((a == ru) & (b == rv)) | ((a == rv) & (b == ru))):
            raise GraphError("chain endpoints mismatch with reduced edge")
        # Edge k of a chain joins its vertices k and k + 1.
        pos = np.arange(g.m) + np.repeat(c, np.diff(self.chain_indptr))
        x, y = self.chain_vertices[pos], self.chain_vertices[pos + 1]
        eu, ev = g.edge_u[self.chain_edges], g.edge_v[self.chain_edges]
        if not np.all(((x == eu) & (y == ev)) | ((x == ev) & (y == eu))):
            raise GraphError("chain edge does not join consecutive chain vertices")


def _ragged_index(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Flat positions of ragged ``rows`` (``indptr`` offsets), concatenated."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.arange(int(ends[-1])) + np.repeat(starts - (ends - lens), lens)


def reduce_graph(g: CSRGraph, keep: np.ndarray | None = None) -> ReducedGraph:
    """Contract maximal degree-2 chains of ``g``.

    Parameters
    ----------
    g:
        Input graph.  Typically one biconnected component, but the routine
        is defined for any graph.
    keep:
        Optional boolean mask of vertices that must survive.  It is always
        *extended* with: vertices of degree ≠ 2, vertices carrying
        self-loops, and — for any cycle consisting purely of degree-2
        vertices — the smallest vertex id on the cycle (an anchor, so the
        cycle becomes a self-loop in ``G^r``).

    Raises
    ------
    GraphError
        On a malformed ``keep`` mask, or when a chain's total weight
        overflows float64.
    """
    with _span("decomposition.reduce", cat="decomposition", n=g.n, m=g.m):
        out = _reduce_graph(g, keep)
    _C_REDUCTIONS.inc()
    _C_CHAINS.inc(out.n_chains)
    _C_REMOVED.inc(out.n_removed)
    return out


def _rank_slots(
    jump: np.ndarray, rank: np.ndarray, is_root: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Pointer doubling: follow ``jump`` until it reaches a root slot.

    On return ``jump[s]`` is the root of every slot ``s`` that reaches one
    and ``rank[s]`` its distance from it.  The slots that reach no root
    (pure cycles) are returned.  Round ``k`` resolves every slot at distance
    in ``(2**(k-1), 2**k]``, and every walk still active holds one such
    slot, so a round that resolves nothing leaves only cycles behind.
    """
    while active.size:
        nxt = jump[active]
        rank[active] += rank[nxt]
        jump[active] = jump[nxt]
        pending = active[~is_root[jump[active]]]
        if pending.size == active.size:
            break
        active = pending
    return active


def _anchor_cycles(pred: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root and rank of the slots of pure cycles, anchored at their least vertex.

    ``pred`` maps each cycle slot to its predecessor as a position in the
    same list; each directed cycle of slots visits every vertex of its
    cycle once.  Doubling keeps, per slot, the least owner over a window
    reaching back ``span`` slots and the distance back to it; once the
    window covers the cycle that owner is the anchor and the distance is
    the slot's rank in the walk rooted at the anchor's slot.
    """
    k = pred.size
    low = owner.copy()
    at = np.arange(k)
    dist = np.zeros(k, dtype=np.int64)
    span = 1
    # A directed cycle holds half the slots of its vertices: at most k / 2.
    while 2 * span < k:
        take = low[pred] < low
        low = np.where(take, low[pred], low)
        at = np.where(take, at[pred], at)
        dist = np.where(take, dist[pred] + span, dist)
        pred = pred[pred]
        span *= 2
    return at, dist


def _reduce_graph(g: CSRGraph, keep: np.ndarray | None = None) -> ReducedGraph:
    n = g.n
    caller_keep = keep is not None
    if keep is None:
        keep = np.zeros(n, dtype=bool)
    else:
        keep = np.asarray(keep, dtype=bool).copy()
        if keep.shape != (n,):
            raise GraphError("keep mask must have one entry per vertex")
    keep |= g.degree != 2
    if g.m and g.has_self_loops:
        keep[g.edge_u[g.edge_u == g.edge_v]] = True

    # CSR slots: slot s is the half-edge owner[s] -> indices[s] of edge
    # eids[s]; twin[s] is the other half of the same edge (itself for a
    # self-loop, which has one slot).
    indptr, indices, eids = g.indptr, g.indices, g.csr_eid
    n_slots = indices.size
    slots = np.arange(n_slots)
    owner = np.repeat(np.arange(n), np.diff(indptr))
    u_side = owner == g.edge_u[eids]
    half_u = np.empty(g.m, dtype=np.int64)
    half_v = np.empty(g.m, dtype=np.int64)
    half_u[eids[u_side]] = slots[u_side]
    half_v[eids[~u_side]] = slots[~u_side]
    loops = g.edge_u == g.edge_v
    half_v[loops] = half_u[loops]
    twin = np.where(u_side, half_v[eids], half_u[eids])

    # A removed vertex has exactly two slots (no loops), so a walk that
    # leaves it through slot s entered it through the twin of its other
    # slot: that twin is s's predecessor.  Kept vertices' slots are roots.
    is_root = keep[owner]
    inner = np.flatnonzero(~is_root)
    pred = slots.copy()
    pred[inner] = twin[2 * indptr[owner[inner]] + 1 - inner]
    jump = pred.copy()
    rank = (~is_root).astype(np.int64)
    cyclic = _rank_slots(jump, rank, is_root, inner[~is_root[pred[inner]]])

    if cyclic.size:
        # Slots no kept vertex reaches lie on pure degree-2 cycles: anchor
        # each cycle at its smallest vertex and rank its slots from there.
        local = np.empty(n_slots, dtype=np.int64)
        local[cyclic] = np.arange(cyclic.size)
        at, dist = _anchor_cycles(local[pred[cyclic]], owner[cyclic])
        anchors = cyclic[at == np.arange(cyclic.size)]
        keep[owner[anchors]] = True
        is_root[anchors] = True
        jump[cyclic] = cyclic[at]
        rank[cyclic] = dist

    kept_ids = np.flatnonzero(keep)
    reduced_id = np.full(n, -1, dtype=np.int64)
    reduced_id[kept_ids] = np.arange(kept_ids.size)

    # Every chain is walked twice, once from each end slot; keep the walk
    # whose root slot is lower.  A walk from root r that ends in slot e is
    # the reverse of the walk rooted at twin[e].
    ends = np.flatnonzero(keep[indices])
    roots = jump[ends]
    forward = roots <= twin[ends]
    chain_root, chain_end = roots[forward], ends[forward]
    order = np.argsort(chain_root)
    chain_root, chain_end = chain_root[order], chain_end[order]
    n_chains = chain_root.size
    lengths = rank[chain_end] + 1
    chain_indptr = np.zeros(n_chains + 1, dtype=np.int64)
    np.cumsum(lengths, out=chain_indptr[1:])

    chain_of_root = np.full(n_slots, -1, dtype=np.int64)
    chain_of_root[chain_root] = np.arange(n_chains)
    walked = np.flatnonzero(chain_of_root[jump] >= 0)
    cid = chain_of_root[jump[walked]]
    epos = chain_indptr[cid] + rank[walked]
    chain_edges = np.empty(g.m, dtype=np.int64)
    chain_edges[epos] = eids[walked]
    chain_vertices = np.empty(g.m + n_chains, dtype=np.int64)
    vstart = chain_indptr[:-1] + np.arange(n_chains)
    chain_vertices[vstart] = owner[chain_root]
    chain_vertices[epos + cid + 1] = indices[walked]

    with np.errstate(over="ignore"):  # checked just below
        chain_prefix = _chain_prefix(g.edge_w[chain_edges], chain_indptr, lengths)
    vend = chain_indptr[1:] + np.arange(n_chains)
    chain_weight = chain_prefix[vend]
    if not np.all(np.isfinite(chain_weight)):
        c = int(np.flatnonzero(~np.isfinite(chain_weight))[0])
        raise GraphError(
            f"chain weight overflows float64: the chain between vertices "
            f"{int(chain_vertices[vstart[c]])} and {int(chain_vertices[vend[c]])} "
            "sums to inf"
        )
    left_rid = reduced_id[chain_vertices[vstart]]
    right_rid = reduced_id[chain_vertices[vend]]

    chain_of = np.full(n, -1, dtype=np.int64)
    pos_in_chain = np.full(n, -1, dtype=np.int64)
    dist_left = np.zeros(n, dtype=np.float64)
    dist_right = np.zeros(n, dtype=np.float64)
    interior = ~keep[indices[walked]]
    x = indices[walked[interior]]
    xc = cid[interior]
    xpos = rank[walked[interior]] + 1
    chain_of[x] = xc
    pos_in_chain[x] = xpos
    dist_left[x] = chain_prefix[vstart[xc] + xpos]
    dist_right[x] = chain_weight[xc] - dist_left[x]

    for table in (chain_indptr, chain_edges, chain_vertices, chain_prefix):
        table.flags.writeable = False
    reduced = CSRGraph(kept_ids.size, left_rid, right_rid, chain_weight)
    out = ReducedGraph(
        original=g,
        graph=reduced,
        kept_mask=keep,
        kept_ids=kept_ids,
        reduced_id=reduced_id,
        chain_indptr=chain_indptr,
        chain_edges=chain_edges,
        chain_vertices=chain_vertices,
        chain_prefix=chain_prefix,
        chain_of=chain_of,
        pos_in_chain=pos_in_chain,
        dist_left=dist_left,
        dist_right=dist_right,
        chain_left_rid=left_rid,
        chain_right_rid=right_rid,
        chain_weight=chain_weight,
    )
    if os.environ.get("REPRO_CHECK_INVARIANTS"):
        # Opt-in contract check (see repro.qa.invariants); a forced keep
        # mask legitimately leaves contractible vertices, so maximality is
        # only asserted for the default reduction.
        from ..qa.invariants import maybe_check_reduction

        maybe_check_reduction(out, strict_degree=not caller_keep)
    return out


def _chain_prefix(w: np.ndarray, chain_indptr: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-chain ``[0, cumsum(w of the chain)]`` rows, concatenated.

    Each row is a sequential sum, bit-identical to ``np.cumsum`` of that
    chain alone (a global cumsum minus chain offsets is not).  Chains are
    bucketed by length class (``L`` in ``[2**(k-1), 2**k)``) and each
    bucket is one zero-padded ``np.cumsum(axis=1)``; padding trails the
    row, so it never enters a kept entry.
    """
    n_chains = lengths.size
    prefix = np.zeros(w.size + n_chains, dtype=np.float64)
    if not n_chains:
        return prefix
    # Chains sorted by class, and their edges in that order: each class is
    # a contiguous run of rows and of edges.
    cls = np.frexp(lengths.astype(np.float64))[1]
    order = np.argsort(cls, kind="stable")
    lens = lengths[order]
    edge_pos = _ragged_index(chain_indptr, order)
    row = np.repeat(np.arange(n_chains), lens)
    row_start = np.cumsum(lens) - lens
    col = np.arange(w.size) - row_start[row]
    w_sorted = w[edge_pos]
    vals = np.empty(w.size, dtype=np.float64)
    cuts = [0, *(np.flatnonzero(np.diff(cls[order])) + 1).tolist(), n_chains]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        e0, e1 = int(row_start[lo]), int(row_start[hi - 1] + lens[hi - 1])
        width = int(lens[lo:hi].max())
        flat = (row[e0:e1] - lo) * width + col[e0:e1]
        block = np.zeros((hi - lo) * width, dtype=np.float64)
        block[flat] = w_sorted[e0:e1]
        vals[e0:e1] = np.cumsum(block.reshape(hi - lo, width), axis=1).ravel()[flat]
    prefix[edge_pos + order[row] + 1] = vals
    return prefix
