"""Algorithm 1: ear-decomposition based APSP (the paper's core APSP).

Three phases (Section 2.1):

1. **Preprocess** — contract degree-2 chains: ``G → G^r``.
2. **Process** — Dijkstra from every vertex of ``G^r`` (heterogeneous in
   the paper; here either the compiled bulk engine or, under the
   heterogeneous executor, per-source work units).
3. **Post-process** — extend ``S^r`` to all of ``G`` with the closed-form
   minima over chain anchors ``left(x)/right(x)`` (Section 2.1.3), as two
   anchor passes: removed → reduced (``|R| × n_r``), then removed → every
   vertex (``|R| × n``), plus the along-the-chain correction on the
   ``Σ L_c²`` same-chain pairs taken from the chain table.

:func:`ear_apsp_full` applies the pipeline to the *whole* graph, which is
valid for any connected or disconnected input (the anchor-exit argument
only needs chain interiors to have degree 2).  The per-biconnected-
component organisation of Section 2.2 — which is what gives the
``O(a² + Σ nᵢ²)`` memory — lives in :mod:`repro.apsp.composition`, which
solves each component with :func:`ear_apsp_full`, and in the oracles
(:mod:`repro.apsp.reduced_oracle`), which keep each component's ``S^r``
or lift it with :func:`extend_reduced_distances`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..decomposition.reduce import ReducedGraph, reduce_graph
from ..graph.csr import CSRGraph
from ..sssp.engine import all_pairs
from .dijkstra_apsp import dijkstra_apsp

__all__ = ["EarAPSPReport", "extend_reduced_distances", "ear_apsp_full"]


@dataclass
class EarAPSPReport:
    """Phase instrumentation for one Algorithm-1 run."""

    n: int = 0
    n_reduced: int = 0
    n_removed: int = 0
    t_preprocess: float = 0.0
    t_process: float = 0.0
    t_postprocess: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.t_preprocess + self.t_process + self.t_postprocess


#: Target size of one block of output rows in the postprocess (256 KiB:
#: the block and its pass-2 partner fit a typical L2 cache).
_ROW_BLOCK_BYTES = 1 << 18


def extend_reduced_distances(red: ReducedGraph, s_r: np.ndarray) -> np.ndarray:
    """Phase III: lift the reduced distance matrix ``S^r`` to all of ``G``.

    Implements the Section 2.1.3 formulas with two anchor passes.  Every
    vertex ``y`` has two anchors ``a1(y), a2(y)`` (reduced ids) at offsets
    ``o1(y), o2(y)``: a removed vertex's are ``ℓy, ry`` at ``dl(y), dr(y)``,
    a kept vertex's are both its own reduced id at offset 0.  Then

    1. ``t[x, w] = min(dl(x) + S^r[ℓx, w], dr(x) + S^r[rx, w])`` for every
       removed ``x`` and reduced ``w`` (removed → kept);
    2. ``d(x, y) = min(t[x, a1(y)] + o1(y), t[x, a2(y)] + o2(y))`` for every
       removed ``x`` and every ``y``, which expands to the four
       ``{ℓ,r} × {ℓ,r}`` crossing terms when ``y`` is removed;
    3. kept rows are ``S^r`` plus the transpose of ``t``;
    4. pairs on the *same* chain take the direct along-chain distance
       ``|prefix(x) − prefix(y)|`` if shorter; the pairs are enumerated
       from the chain table, ``Σ L_c²`` of them.

    Rounding is monotone (``fl(min(a, b) + c) = min(fl(a + c), fl(b + c))``),
    so folding the first anchor minimum into ``t`` gives the same bits as
    evaluating the four crossing terms separately.  Rows are produced in
    blocks of about :data:`_ROW_BLOCK_BYTES` so that the pass-2 temporaries
    stay in cache and each block is copied into its output rows once.
    """
    n = red.original.n
    kept = red.kept_ids
    removed = np.flatnonzero(~red.kept_mask)
    a1 = red.reduced_id.copy()
    a2 = red.reduced_id.copy()
    ch = red.chain_of[removed]
    a1[removed] = red.chain_left_rid[ch]
    a2[removed] = red.chain_right_rid[ch]
    o1, o2 = red.dist_left, red.dist_right

    t = np.minimum(
        o1[removed, None] + s_r[a1[removed]], o2[removed, None] + s_r[a2[removed]]
    )
    out = np.empty((n, n), dtype=np.float64)
    rows = max(1, min(n, _ROW_BLOCK_BYTES // (8 * max(n, 1))))
    buf = np.empty((rows, n), dtype=np.float64)
    tmp = np.empty((rows, n), dtype=np.float64)
    for lo in range(0, removed.size, rows):
        hi = min(lo + rows, removed.size)
        b, c = buf[: hi - lo], tmp[: hi - lo]
        np.take(t[lo:hi], a1, axis=1, out=b)
        b += o1
        np.take(t[lo:hi], a2, axis=1, out=c)
        c += o2
        np.minimum(b, c, out=b)
        out[removed[lo:hi]] = b
    for lo in range(0, kept.size, rows):
        hi = min(lo + rows, kept.size)
        b = buf[: hi - lo]
        b[:, kept] = s_r[lo:hi]
        b[:, removed] = t[:, lo:hi].T
        out[kept[lo:hi]] = b

    x, y = _same_chain_pairs(red)
    flat = out.reshape(-1)
    at = x * n + y
    flat[at] = np.minimum(flat[at], np.abs(o1[x] - o1[y]))
    np.fill_diagonal(out, 0.0)
    return out


def _same_chain_pairs(red: ReducedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs ``(x, y)``, ``x ≠ y``, of interior vertices of one chain.

    Chain ``c`` has ``k = L_c − 1`` interior vertices at
    ``chain_vertices[chain_indptr[c] + c + 1 :][:k]``; its ``k²`` index
    pairs come from one ``divmod`` over a flat pair counter.
    """
    ind = red.chain_indptr
    k = np.diff(ind) - 1
    c = np.flatnonzero(k >= 2)
    k = k[c]
    sq = k * k
    first = np.repeat(ind[c] + c + 1, sq)
    kk = np.repeat(k, sq)
    i, j = np.divmod(np.arange(kk.size) - np.repeat(np.cumsum(sq) - sq, sq), kk)
    off = i != j
    return red.chain_vertices[first[off] + i[off]], red.chain_vertices[first[off] + j[off]]


def ear_apsp_full(
    g: CSRGraph,
    engine: str = "scipy",
    report: EarAPSPReport | None = None,
    chunk_size: int | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """Algorithm 1 on the whole graph: full exact ``n × n`` matrix.

    ``engine`` selects the Phase-II SSSP implementation: ``"scipy"``
    (cached + chunked bulk dispatch, the default), ``"python"`` (per-source
    heaps), or ``"parallel"`` (the process-parallel backend of
    :mod:`repro.hetero.parallel` — ``workers`` processes fan out
    ``chunk_size``-source chunks over shared-memory CSR buffers).  Pass a
    :class:`EarAPSPReport` to collect phase timings and reduction
    statistics.
    """
    t0 = time.perf_counter()
    red = reduce_graph(g)
    t1 = time.perf_counter()
    simple = red.simple_graph()
    if engine == "scipy":
        s_r = all_pairs(simple, chunk_size=chunk_size)
    else:
        s_r = dijkstra_apsp(
            simple, engine=engine, chunk_size=chunk_size, workers=workers
        )
    t2 = time.perf_counter()
    out = extend_reduced_distances(red, s_r)
    t3 = time.perf_counter()
    if report is not None:
        report.n = g.n
        report.n_reduced = red.graph.n
        report.n_removed = red.n_removed
        report.t_preprocess += t1 - t0
        report.t_process += t2 - t1
        report.t_postprocess += t3 - t2
    return out

