"""Bulk shortest-path engine: cached adjacency + chunked multi-source dispatch.

Per the HPC-Python guides, the hot loop belongs in compiled code: this
engine dispatches multi-source Dijkstra to ``scipy.sparse.csgraph`` (a
C implementation operating directly on our CSR buffers) while exposing the
same array contract as the pure-Python kernels.  All APSP pipelines and
benchmarks go through here; tests cross-check it against
:mod:`repro.sssp.dijkstra`.

Two bulk-execution mechanisms remove the repeated Python-side tax that
dominated per-BCC APSP workloads:

* **Adjacency caching** — the CSR→scipy conversion (simplify + COO build +
  sort) runs once per distinct graph.  :class:`CSRGraph` objects are frozen
  after construction, so the cache key is the graph's content
  :attr:`~repro.graph.csr.CSRGraph.fingerprint` and entries never need
  invalidation; an LRU bound (``REPRO_ADJ_CACHE`` entries, default 128)
  caps memory.
* **Chunked dispatch** — ``multi_source``/``spt_forest`` split their source
  sets into chunks of ``REPRO_SSSP_CHUNK`` (default 32) sources per
  compiled call.  Each scipy call amortises dispatch overhead over the
  whole chunk, chunk boundaries bound the size of transient predecessor
  buffers, and — because every source's Dijkstra is independent — the
  result is bit-identical for every chunk size.  Chunks are also the work
  units the process-parallel backend (:mod:`repro.hetero.parallel`) fans
  out over workers.

Every compiled Dijkstra in the package goes through
:func:`symmetric_dijkstra`, which calls scipy with ``directed=True``.  The
matrices it is given store *both* arcs of every undirected edge (no
diagonal, no duplicates — :func:`symmetric_adjacency` builds them that
way), so the directed search already sees each edge from both ends.
scipy's undirected mode would build ``mat.T.tocsr()`` on every call and
relax every arc twice — once from the matrix, once from its transpose —
for nothing: on a symmetric matrix with sorted indices the transpose holds
the same arcs in the same order, the second relaxation never strictly
improves a label, and the distances and predecessors are bit-identical.
``tests/test_symmetric_storage.py`` pins that precondition.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..graph.csr import CSRGraph, GraphError
from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs.trace import span as _span

# Preresolved instruments: the cache and chunk loops increment these
# unconditionally (see repro.obs.metrics for why counters stay on).
_C_HITS = _metrics.counter("engine.adj_cache.hits")
_C_MISSES = _metrics.counter("engine.adj_cache.misses")
_C_CHUNKS = _metrics.counter("engine.chunks_dispatched")
_C_SOURCES = _metrics.counter("engine.sources_dispatched")
# Resident bytes of the process-wide adjacency cache (Table-1 style
# memory accounting for the engine layer; see repro.obs.memory).
_G_CACHE_BYTES = _metrics.gauge("memory.engine.adj_cache_bytes")

__all__ = [
    "ZERO_WEIGHT_NUDGE",
    "MIN_POSITIVE_WEIGHT",
    "DEFAULT_CHUNK_SIZE",
    "AdjacencyCache",
    "CacheInfo",
    "adjacency_cache",
    "adjacency_matrix",
    "symmetric_adjacency",
    "symmetric_dijkstra",
    "strip_nudge",
    "resolve_chunk_size",
    "sssp",
    "multi_source",
    "all_pairs",
    "spt_forest",
]

#: Value substituted for explicit zero-weight edges.  scipy's sparse format
#: cannot distinguish an explicit zero from "no edge", so zeros are nudged
#: to a tiny positive value that can never dominate a genuine weight.
ZERO_WEIGHT_NUDGE = 1e-300

#: The engine's weight contract: every *non-zero* edge weight must be at
#: least this large.  Below it, the :data:`ZERO_WEIGHT_NUDGE` applied to
#: zero-weight edges could compete with genuine weights and silently
#: mis-rank paths, so :func:`adjacency_matrix` raises instead.
MIN_POSITIVE_WEIGHT = 1e-12

#: Default number of sources per compiled dijkstra call
#: (``REPRO_SSSP_CHUNK`` overrides).
DEFAULT_CHUNK_SIZE = 32


def resolve_chunk_size(chunk_size: int | None = None) -> int:
    """Effective chunk size: explicit argument > env knob > default."""
    if chunk_size is None:
        chunk_size = int(os.environ.get("REPRO_SSSP_CHUNK", DEFAULT_CHUNK_SIZE))
    if chunk_size < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")
    return chunk_size


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of adjacency-cache effectiveness counters."""

    hits: int
    misses: int
    size: int
    maxsize: int
    bytes: int = 0  # resident scipy-CSR storage (data + indices + indptr)


def _csr_nbytes(mat: sp.csr_matrix) -> int:
    return int(mat.data.nbytes) + int(mat.indices.nbytes) + int(mat.indptr.nbytes)


class AdjacencyCache:
    """LRU cache of scipy CSR adjacency matrices keyed by graph fingerprint.

    Graphs are immutable, so entries are never invalidated — only evicted
    when the LRU bound is hit.  A process-wide instance backs the module
    functions; independent instances can be created for isolation (tests,
    worker processes).
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[str, sp.csr_matrix] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._bytes = 0

    def get(self, g: CSRGraph) -> sp.csr_matrix:
        """Cached adjacency of ``g`` (building + inserting on miss)."""
        key = g.fingerprint
        mat = self._entries.get(key)
        if mat is not None:
            self.hits += 1
            _C_HITS.inc()
            self._entries.move_to_end(key)
            return mat
        self.misses += 1
        _C_MISSES.inc()
        with _span("engine.adjacency_build", cat="sssp", n=g.n, m=g.m):
            mat = adjacency_matrix(g)
        self._entries[key] = mat
        self._bytes += _csr_nbytes(mat)
        if len(self._entries) > self.maxsize:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= _csr_nbytes(evicted)
        _G_CACHE_BYTES.set(self._bytes)
        return mat

    def memory_bytes(self) -> int:
        """Resident bytes of every cached scipy adjacency."""
        return self._bytes

    def info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            size=len(self._entries),
            maxsize=self.maxsize,
            bytes=self._bytes,
        )

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self._bytes = 0
        _G_CACHE_BYTES.set(0.0)


_GLOBAL_CACHE = AdjacencyCache(maxsize=int(os.environ.get("REPRO_ADJ_CACHE", 128)))


def adjacency_cache() -> AdjacencyCache:
    """The process-wide adjacency cache (counters, ``clear()``)."""
    return _GLOBAL_CACHE


def adjacency_matrix(g: CSRGraph) -> sp.csr_matrix:
    """Symmetric scipy CSR adjacency (parallel edges collapse to min).

    Zero-weight edges are nudged to :data:`ZERO_WEIGHT_NUDGE` because
    scipy's sparse format cannot distinguish an explicit zero from "no
    edge".  The nudge never changes which path is shortest **provided every
    non-zero weight is at least** :data:`MIN_POSITIVE_WEIGHT` (= 1e-12):
    then even ``n`` chained nudges stay astronomically below any genuine
    weight difference.  Graphs violating that contract raise
    :class:`~repro.graph.csr.GraphError` here rather than silently
    mis-ranking paths.

    This always rebuilds; hot paths go through the fingerprint-keyed cache
    (see :func:`adjacency_cache`) via :func:`multi_source` and friends.
    """
    s = g.simplify()
    tiny = (s.edge_w != 0.0) & (s.edge_w < MIN_POSITIVE_WEIGHT)
    if tiny.any():
        bad = int(np.nonzero(tiny)[0][0])
        raise GraphError(
            f"edge weight {s.edge_w[bad]!r} violates the engine contract: "
            f"non-zero weights must be >= {MIN_POSITIVE_WEIGHT} "
            "(the zero-weight nudge could otherwise mis-rank paths)"
        )
    return symmetric_adjacency(g.n, s.edge_u, s.edge_v, s.edge_w)


def symmetric_adjacency(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> sp.csr_matrix:
    """``n × n`` scipy CSR holding both arcs of every edge ``(u[i], v[i])``.

    Callers pass each unordered pair once and no self-loops, so the matrix
    is symmetric with an empty diagonal and no duplicate entries (COO
    duplicates would *sum* on conversion).  Zero weights are stored as
    :data:`ZERO_WEIGHT_NUDGE`; :func:`strip_nudge` removes it from the
    distances.  This is the storage :func:`symmetric_dijkstra` requires.
    """
    w = np.where(np.asarray(w) == 0.0, ZERO_WEIGHT_NUDGE, w)
    row = np.concatenate([u, v])
    col = np.concatenate([v, u])
    dat = np.concatenate([w, w])
    return sp.coo_matrix((dat, (row, col)), shape=(n, n)).tocsr()


def symmetric_dijkstra(
    mat: sp.csr_matrix,
    indices: np.ndarray | None = None,
    return_predecessors: bool = False,
):
    """Compiled Dijkstra on a matrix that stores both arcs of every edge.

    The one call convention for ``scipy.sparse.csgraph.dijkstra`` in the
    package: ``directed=True`` on symmetric storage (see the module
    docstring for why this equals the undirected search bit for bit).
    Same arguments and return values as scipy's.
    """
    return csgraph.dijkstra(
        mat, directed=True, indices=indices, return_predecessors=return_predecessors
    )


def strip_nudge(dist: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Zero, in place, every distance that is a sum of zero-weight nudges.

    Under the :data:`MIN_POSITIVE_WEIGHT` contract any path holding a real
    edge weighs at least 1e-12, so a distance below it crossed only
    zero-weight edges and is exactly 0.  ``weights`` are the edge weights
    the search ran on, raw (a graph's ``edge_w``) or as stored (a matrix's
    ``data``); under the contract the only ones below 1e-12 are zeros or
    the nudge that stands for them.  Without such a weight there is no
    nudge to strip, and the pass over ``dist`` is skipped.
    """
    if np.any(np.asarray(weights) < MIN_POSITIVE_WEIGHT):
        dist[dist < MIN_POSITIVE_WEIGHT] = 0.0
    return dist


def sssp(g: CSRGraph, source: int, cache: bool = True) -> np.ndarray:
    """Single-source distances (compiled path)."""
    return multi_source(g, np.asarray([source]), cache=cache)[0]


def multi_source(
    g: CSRGraph,
    sources: np.ndarray,
    chunk_size: int | None = None,
    cache: bool = True,
) -> np.ndarray:
    """Distance matrix of shape ``(len(sources), n)``.

    Sources are dispatched to compiled Dijkstra in chunks of ``chunk_size``
    (default: ``REPRO_SSSP_CHUNK`` / :data:`DEFAULT_CHUNK_SIZE`).  Every
    source's search is independent, so the output is bit-identical for any
    chunking.  ``cache=False`` bypasses the adjacency cache (used by the
    before/after benchmarks).  Paths over zero-weight edges only read
    exactly 0 (:func:`strip_nudge`).
    """
    sources = np.asarray(sources, dtype=np.int64)
    if g.n == 0:
        return np.zeros((len(sources), 0))
    if len(sources) == 0:
        return np.zeros((0, g.n))
    mat = _GLOBAL_CACHE.get(g) if cache else adjacency_matrix(g)
    chunk = resolve_chunk_size(chunk_size)
    k = len(sources)
    _C_SOURCES.inc(k)
    # Captured once per call: disabled runs must not even build the
    # events' keyword dicts inside the chunk loop.
    ev = _events.enabled()
    if k <= chunk:
        _C_CHUNKS.inc()
        if ev:
            _events.emit("chunk.start", sources=k)
        with _span("sssp.chunk", cat="sssp", sources=k):
            out = np.asarray(symmetric_dijkstra(mat, indices=sources), dtype=np.float64)
        if ev:
            _events.emit("chunk.finish", sources=k)
        return strip_nudge(out, g.edge_w)
    out = np.empty((k, g.n), dtype=np.float64)
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        _C_CHUNKS.inc()
        if ev:
            _events.emit("chunk.start", sources=hi - lo)
        with _span("sssp.chunk", cat="sssp", sources=hi - lo):
            out[lo:hi] = symmetric_dijkstra(mat, indices=sources[lo:hi])
        if ev:
            _events.emit("chunk.finish", sources=hi - lo)
    return strip_nudge(out, g.edge_w)


def all_pairs(
    g: CSRGraph, chunk_size: int | None = None, cache: bool = True
) -> np.ndarray:
    """Full ``n × n`` distance matrix (the baseline Phase II on ``G``)."""
    if g.n == 0:
        return np.zeros((0, 0))
    return multi_source(
        g, np.arange(g.n, dtype=np.int64), chunk_size=chunk_size, cache=cache
    )


def spt_forest(
    g: CSRGraph,
    sources: np.ndarray,
    chunk_size: int | None = None,
    cache: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Shortest-path trees from each source.

    Returns ``(dist, parent)`` arrays of shape ``(len(sources), n)``;
    ``parent[i, v]`` is the predecessor of ``v`` in the tree rooted at
    ``sources[i]`` (``-9999`` for roots/unreachable, scipy's sentinel).
    Chunked exactly like :func:`multi_source`.  Unlike there, ``dist``
    keeps the zero-weight nudge: the Mehlhorn–Michail setup orders its
    candidates by these raw distances.
    """
    sources = np.asarray(sources, dtype=np.int64)
    mat = _GLOBAL_CACHE.get(g) if cache else adjacency_matrix(g)
    chunk = resolve_chunk_size(chunk_size)
    k = len(sources)
    _C_SOURCES.inc(k)
    ev = _events.enabled()
    if k <= chunk:
        _C_CHUNKS.inc()
        if ev:
            _events.emit("chunk.start", sources=k)
        with _span("sssp.chunk", cat="sssp", sources=k, predecessors=True):
            dist, pred = symmetric_dijkstra(
                mat, indices=sources, return_predecessors=True
            )
        if ev:
            _events.emit("chunk.finish", sources=k)
        return np.asarray(dist, dtype=np.float64), np.asarray(pred, dtype=np.int64)
    dist = np.empty((k, g.n), dtype=np.float64)
    pred = np.empty((k, g.n), dtype=np.int64)
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        _C_CHUNKS.inc()
        if ev:
            _events.emit("chunk.start", sources=hi - lo)
        with _span("sssp.chunk", cat="sssp", sources=hi - lo, predecessors=True):
            d, p = symmetric_dijkstra(
                mat, indices=sources[lo:hi], return_predecessors=True
            )
        if ev:
            _events.emit("chunk.finish", sources=hi - lo)
        dist[lo:hi] = d
        pred[lo:hi] = p
    return dist, pred
