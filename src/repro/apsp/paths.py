"""Shortest-path reconstruction through the ear reduction.

``ear_apsp_full`` returns distances; this module returns the actual
vertex paths while still doing all heavy work on the reduced graph:
predecessor matrices are built for ``G^r`` only, and a query stitches

``u —(chain walk)— anchor —(reduced path, chains re-expanded)— anchor —(chain walk)— v``

choosing the best of the Section 2.1.3 anchor combinations (plus the
along-the-chain direct route when both endpoints share a chain).
"""

from __future__ import annotations

import numpy as np

from ..decomposition.reduce import ReducedGraph, reduce_graph
from ..graph.csr import CSRGraph
from ..sssp.engine import adjacency_matrix, symmetric_dijkstra

__all__ = ["EarPathReconstructor"]

_NO_PRED = -9999


class EarPathReconstructor:
    """Exact point-to-point shortest paths with reduced-graph storage."""

    def __init__(self, g: CSRGraph) -> None:
        self.graph = g
        self.red: ReducedGraph = reduce_graph(g)
        simple = self.red.simple_graph()
        if simple.n:
            mat = adjacency_matrix(simple)
            self.dist_r, self.pred_r = symmetric_dijkstra(
                mat, return_predecessors=True
            )
        else:
            self.dist_r = np.zeros((0, 0))
            self.pred_r = np.zeros((0, 0), dtype=np.int64)
        # Cheapest chain per reduced vertex pair, for re-expanding steps
        # of the reduced path (parallel chains keep only the lightest; the
        # lowest chain id breaks weight ties).
        red = self.red
        key = self._pair_keys(red.chain_left_rid, red.chain_right_rid)
        ids = np.arange(red.n_chains)
        order = np.lexsort((ids, red.chain_weight, key))
        first = np.ones(order.size, dtype=bool)
        first[1:] = key[order[1:]] != key[order[:-1]]
        self._pair_key = key[order[first]]
        self._pair_chain = order[first]

    # ------------------------------------------------------------------ #

    def _pair_keys(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One int key per unordered reduced vertex pair ``{a, b}``."""
        return np.minimum(a, b) * max(self.red.graph.n, 1) + np.maximum(a, b)

    def _chain_walk(self, c: int, start: int, stop: int) -> list[int]:
        """Vertices ``start .. stop`` (inclusive, either direction) of chain ``c``."""
        s = self.red.chain_span(c).start
        if start <= stop:
            return self.red.chain_vertices[s + start : s + stop + 1].tolist()
        return self.red.chain_vertices[s + stop : s + start + 1][::-1].tolist()

    def _anchors(self, x: int) -> list[tuple[int, float, list[int]]]:
        """``(reduced anchor id, distance, walk x→anchor)`` options."""
        red = self.red
        if red.kept_mask[x]:
            return [(int(red.reduced_id[x]), 0.0, [int(x)])]
        c = int(red.chain_of[x])
        pos = int(red.pos_in_chain[x])
        last = int(red.chain_indptr[c + 1] - red.chain_indptr[c])
        return [
            (int(red.chain_left_rid[c]), float(red.dist_left[x]), self._chain_walk(c, pos, 0)),
            (int(red.chain_right_rid[c]), float(red.dist_right[x]), self._chain_walk(c, pos, last)),
        ]

    def _reduced_vertex_path(self, a: int, b: int) -> list[int] | None:
        """Reduced-graph vertex path ``a → b`` from the predecessor matrix."""
        if a == b:
            return [a]
        if not np.isfinite(self.dist_r[a, b]):
            return None
        path = [b]
        cur = b
        while cur != a:
            cur = int(self.pred_r[a, cur])
            if cur == _NO_PRED:
                return None
            path.append(cur)
        path.reverse()
        return path

    def _expand_reduced_path(self, rpath: list[int]) -> list[int]:
        """Reduced vertex path → original vertex walk via chain expansion."""
        red = self.red
        out = [int(red.kept_ids[rpath[0]])]
        a = np.asarray(rpath[:-1], dtype=np.int64)
        b = np.asarray(rpath[1:], dtype=np.int64)
        chains = self._pair_chain[np.searchsorted(self._pair_key, self._pair_keys(a, b))]
        for c, ra in zip(chains.tolist(), a.tolist()):
            last = int(red.chain_indptr[c + 1] - red.chain_indptr[c])
            if red.chain_left_rid[c] == ra:
                out.extend(self._chain_walk(c, 1, last))
            else:
                out.extend(self._chain_walk(c, last - 1, 0))
        return out

    def path(self, u: int, v: int) -> tuple[float, list[int]]:
        """``(distance, vertex path)``; ``(inf, [])`` when disconnected."""
        if u == v:
            return 0.0, [int(u)]
        red = self.red
        best: tuple[float, list[int]] | None = None

        # Direct along-the-chain route when both live on one chain.
        if (
            not red.kept_mask[u]
            and not red.kept_mask[v]
            and red.chain_of[u] == red.chain_of[v]
        ):
            c = int(red.chain_of[u])
            d = float(abs(red.dist_left[u] - red.dist_left[v]))
            walk = self._chain_walk(c, int(red.pos_in_chain[u]), int(red.pos_in_chain[v]))
            best = (d, walk)

        for au, du, walk_u in self._anchors(u):
            for av, dv, walk_v in self._anchors(v):
                mid = float(self.dist_r[au, av]) if self.dist_r.size else np.inf
                total = du + mid + dv
                if not np.isfinite(total):
                    continue
                if best is not None and total >= best[0] - 1e-12:
                    continue
                rpath = self._reduced_vertex_path(au, av)
                if rpath is None:
                    continue
                mid_walk = self._expand_reduced_path(rpath)
                # walk_u runs u→au (au == mid_walk[0]); mid_walk runs au→av;
                # walk_v runs v→av, so its reverse continues av→v.
                walk = walk_u + mid_walk[1:] + walk_v[::-1][1:]
                best = (total, walk)
        if best is None:
            return float("inf"), []
        return best

    def distance(self, u: int, v: int) -> float:
        """Distance only (same minimisation, no walk assembly)."""
        if u == v:
            return 0.0
        red = self.red
        best = np.inf
        if (
            not red.kept_mask[u]
            and not red.kept_mask[v]
            and red.chain_of[u] == red.chain_of[v]
        ):
            best = float(abs(red.dist_left[u] - red.dist_left[v]))
        for au, du, _ in self._anchors(u):
            for av, dv, _ in self._anchors(v):
                mid = float(self.dist_r[au, av]) if self.dist_r.size else np.inf
                best = min(best, du + mid + dv)
        return float(best)
