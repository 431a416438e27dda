"""Graph-strategy library: the structures where the equivalence breaks.

Every generator here is deterministic in its arguments (a seed selects the
randomness), so a failing graph can be regenerated from its corpus name
alone.  The families target the fragile cases of the ear-decomposition
pipeline: long degree-2 chains (heavy reduction), cactus/bridge-heavy
graphs (block-cut-tree composition, single-edge BCCs), multigraphs with
parallel edges and self-loops (Lemma 3.1's non-tree edges), disconnected
graphs, and tie-heavy / near-minimum weights (tie-breaking between
equal-length paths and equal-weight cycles).

:func:`adversarial_corpus` enumerates the named deterministic cases;
:func:`random_corpus` pads with randomized family draws;
:func:`graph_strategy` exposes the same space as a hypothesis strategy
(imported lazily so the core library never depends on hypothesis).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.generators import (
    complete_graph,
    cycle_graph,
    gnm_random_graph,
    grid_graph,
    path_graph,
)

__all__ = [
    "theta_graph",
    "cactus_graph",
    "bridge_heavy_graph",
    "parallel_hairball",
    "disconnected_graph",
    "star_of_cycles",
    "long_chain_graph",
    "reweighted",
    "adversarial_corpus",
    "random_corpus",
    "corpus",
    "graph_strategy",
]


# ------------------------------------------------------------------ #
# Deterministic adversarial families
# ------------------------------------------------------------------ #


def theta_graph(n_chains: int = 3, chain_len: int = 6, seed: int = 0) -> CSRGraph:
    """Two hubs joined by ``n_chains`` internally-disjoint chains.

    Every interior vertex has degree 2, so reduction contracts the graph
    to two vertices with ``n_chains`` parallel edges — the canonical
    stress case for chain re-expansion and parallel-edge handling.
    """
    rng = np.random.default_rng(seed)
    n = 2 + n_chains * max(0, chain_len - 1)
    us, vs = [], []
    nxt = 2
    for _ in range(n_chains):
        prev = 0
        for _ in range(chain_len - 1):
            us.append(prev)
            vs.append(nxt)
            prev = nxt
            nxt += 1
        us.append(prev)
        vs.append(1)
    w = rng.uniform(0.5, 2.0, len(us))
    return CSRGraph(n, us, vs, w)


def cactus_graph(n_cycles: int = 4, cycle_len: int = 5, seed: int = 0) -> CSRGraph:
    """Cycles glued in a tree pattern at shared articulation vertices.

    Every edge lies on exactly one cycle and every shared vertex is a cut
    vertex, so each cycle is its own biconnected component — the
    block-cut-tree composition path gets one component per cycle.
    """
    rng = np.random.default_rng(seed)
    us, vs = [], []
    anchors = [0]
    n = 1
    for _ in range(n_cycles):
        a = int(rng.choice(anchors))
        ring = [a] + list(range(n, n + cycle_len - 1))
        n += cycle_len - 1
        for i in range(len(ring)):
            us.append(ring[i])
            vs.append(ring[(i + 1) % len(ring)])
        anchors.extend(ring[1:])
    w = rng.uniform(0.5, 2.0, len(us))
    return CSRGraph(n, us, vs, w)


def bridge_heavy_graph(
    n_blocks: int = 4, block_size: int = 4, seed: int = 0
) -> CSRGraph:
    """Small dense blocks connected by bridges, plus pendant paths.

    Bridges are single-edge biconnected components; the pendant paths add
    iteratively-peelable degree-1 vertices (the Banerjee baseline's one
    structural optimisation).
    """
    rng = np.random.default_rng(seed)
    us, vs = [], []
    block_entry = []
    n = 0
    for _ in range(n_blocks):
        verts = list(range(n, n + block_size))
        n += block_size
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                if rng.random() < 0.8:
                    us.append(a)
                    vs.append(b)
        # Ensure the block is at least a path so it stays connected.
        for a, b in zip(verts, verts[1:]):
            us.append(a)
            vs.append(b)
        block_entry.append(verts[0])
    for a, b in zip(block_entry, block_entry[1:]):  # bridge chain of blocks
        us.append(a)
        vs.append(b)
    anchor = block_entry[-1]  # pendant path off the last block
    for _ in range(int(rng.integers(1, 4))):
        us.append(anchor)
        vs.append(n)
        anchor = n
        n += 1
    w = rng.uniform(0.5, 2.0, len(us))
    return CSRGraph(n, us, vs, w)


def parallel_hairball(n: int = 6, m: int = 14, seed: int = 0) -> CSRGraph:
    """Random multigraph: parallel edges and self-loops are likely."""
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, m)
    vs = rng.integers(0, n, m)
    w = rng.uniform(0.5, 2.0, m)
    return CSRGraph(n, us, vs, w)


def disconnected_graph(
    n_parts: int = 3, part_size: int = 5, isolated: int = 2, seed: int = 0
) -> CSRGraph:
    """Disjoint random connected parts plus isolated vertices."""
    rng = np.random.default_rng(seed)
    us, vs, ws = [], [], []
    n = 0
    for _ in range(n_parts):
        extra = int(rng.integers(0, part_size))
        m_part = min(part_size - 1 + extra, part_size * (part_size - 1) // 2)
        part = gnm_random_graph(part_size, m_part, seed=int(rng.integers(0, 2**31)))
        us.extend(part.edge_u + n)
        vs.extend(part.edge_v + n)
        ws.extend(rng.uniform(0.5, 2.0, part.m))
        n += part_size
    n += isolated
    return CSRGraph(n, us, vs, ws)


def star_of_cycles(arms: int = 3, cycle_len: int = 4, seed: int = 0) -> CSRGraph:
    """Cycles sharing one central cut vertex (single-vertex overlap BCCs)."""
    rng = np.random.default_rng(seed)
    us, vs = [], []
    n = 1
    for _ in range(arms):
        ring = [0] + list(range(n, n + cycle_len - 1))
        n += cycle_len - 1
        for i in range(len(ring)):
            us.append(ring[i])
            vs.append(ring[(i + 1) % len(ring)])
    w = rng.uniform(0.5, 2.0, len(us))
    return CSRGraph(n, us, vs, w)


def long_chain_graph(
    n_chains: int = 3, chain_len: int = 250, cycle_len: int = 250, seed: int = 0
) -> CSRGraph:
    """A small core with long grafted chains, plus one long pure cycle.

    The core is ``K_4``.  About ``chain_len`` degree-2 vertices are split
    over ``n_chains`` chains: the first returns to its own core vertex (a
    self-loop in ``G^r``), the last is a pendant tail ending in a degree-1
    vertex, the others join two distinct core vertices.  A separate
    ``cycle_len``-vertex cycle of degree-2 vertices has no kept vertex, so
    the reduction must anchor it itself.  Reducing it takes several rounds
    of list ranking, while the cycle space stays small (dimension
    ``3 + n_chains``), so every differential implementation stays fast.
    """
    rng = np.random.default_rng(seed)
    core = complete_graph(4)
    us, vs = list(core.edge_u), list(core.edge_v)
    n = 4
    cuts = np.sort(rng.choice(np.arange(1, chain_len), size=n_chains - 1, replace=False))
    for i, size in enumerate(np.diff(np.r_[0, cuts, chain_len])):
        a, b = (int(x) for x in rng.choice(4, size=2, replace=False))
        if i == 0:
            b = a
        walk = [a, *range(n, n + int(size))]
        n += int(size)
        if i == n_chains - 1:
            walk.append(n)  # pendant end vertex
            n += 1
        else:
            walk.append(b)
        us.extend(walk[:-1])
        vs.extend(walk[1:])
    ring = (n + rng.permutation(cycle_len)).tolist()
    n += cycle_len
    us.extend(ring)
    vs.extend(ring[1:] + ring[:1])
    w = rng.uniform(0.5, 2.0, len(us))
    return CSRGraph(n, us, vs, w)


def reweighted(g: CSRGraph, mode: str = "ties", seed: int = 0) -> CSRGraph:
    """Replace the weights of ``g`` to stress a tie-breaking regime.

    ``"ties"`` makes every weight 1.0 (every path length is a tie class);
    ``"few"`` draws from {1.0, 2.0} (many partial ties); ``"near-zero"``
    draws tiny weights just above the engine's ``MIN_POSITIVE_WEIGHT``
    contract, where the zero-weight nudge could interfere if mishandled.
    """
    rng = np.random.default_rng(seed)
    if mode == "ties":
        w = np.ones(g.m)
    elif mode == "few":
        w = rng.choice([1.0, 2.0], size=g.m)
    elif mode == "near-zero":
        w = rng.uniform(1e-11, 1e-9, size=g.m)
    else:
        raise ValueError(f"unknown reweight mode {mode!r}")
    return g.with_weights(w)


# ------------------------------------------------------------------ #
# Corpora
# ------------------------------------------------------------------ #


def adversarial_corpus(seed: int = 0) -> list[tuple[str, CSRGraph]]:
    """Named deterministic adversarial cases (same list for a given seed)."""
    rng = np.random.default_rng(seed)

    def s() -> int:
        return int(rng.integers(0, 2**31))

    cases: list[tuple[str, CSRGraph]] = [
        ("empty", CSRGraph(0, [], [], [])),
        ("single-vertex", CSRGraph(1, [], [], [])),
        ("lonely-loop", CSRGraph(1, [0], [0], [0.5])),
        ("isolated-pair", CSRGraph(2, [], [], [])),
        ("one-edge", CSRGraph(2, [0], [1], [1.5])),
        ("parallel-pair", CSRGraph(2, [0, 0], [1, 1], [1.0, 2.0])),
        ("parallel-tied", CSRGraph(2, [0, 0, 0], [1, 1, 1], [1.0, 1.0, 1.0])),
        ("loop-on-path", CSRGraph(3, [0, 1, 1], [1, 2, 1], [1.0, 1.0, 0.25])),
        ("triangle", cycle_graph(3)),
        ("long-cycle", cycle_graph(12)),
        ("pure-path", path_graph(9)),
        ("theta", theta_graph(3, 6, seed=s())),
        ("theta-wide", theta_graph(5, 3, seed=s())),
        ("theta-long", theta_graph(2, 12, seed=s())),
        ("theta-ties", reweighted(theta_graph(3, 6, seed=s()), "ties")),
        ("cactus", cactus_graph(4, 5, seed=s())),
        ("cactus-triangles", cactus_graph(5, 3, seed=s())),
        ("bridge-heavy", bridge_heavy_graph(4, 4, seed=s())),
        ("bridge-heavy-ties", reweighted(bridge_heavy_graph(3, 4, seed=s()), "ties")),
        ("hairball", parallel_hairball(6, 14, seed=s())),
        ("hairball-dense", parallel_hairball(4, 16, seed=s())),
        ("hairball-ties", reweighted(parallel_hairball(5, 12, seed=s()), "ties")),
        ("disconnected", disconnected_graph(3, 5, 2, seed=s())),
        ("disconnected-rings", disconnected_graph(2, 4, 3, seed=s())),
        ("star-of-cycles", star_of_cycles(3, 4, seed=s())),
        ("star-of-cycles-big", star_of_cycles(4, 5, seed=s())),
        ("grid", grid_graph(4, 5)),
        ("grid-ties", reweighted(grid_graph(3, 6), "ties")),
        ("complete", complete_graph(6)),
        ("complete-few", reweighted(complete_graph(5), "few", seed=s())),
        ("near-zero-theta", reweighted(theta_graph(3, 5, seed=s()), "near-zero", seed=s())),
        ("near-zero-grid", reweighted(grid_graph(3, 4), "near-zero", seed=s())),
        ("gnm-sparse", gnm_random_graph(14, 16, seed=s())),
        ("gnm-dense", gnm_random_graph(10, 28, seed=s())),
        ("long-chains", long_chain_graph(seed=s())),
    ]
    return cases


_FAMILIES = ("theta", "cactus", "bridge", "hairball", "disconnected", "star", "gnm")


def random_corpus(
    count: int, seed: int = 0, max_n: int = 18
) -> list[tuple[str, CSRGraph]]:
    """``count`` randomized family draws, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    out: list[tuple[str, CSRGraph]] = []
    for i in range(count):
        fam = _FAMILIES[int(rng.integers(0, len(_FAMILIES)))]
        fs = int(rng.integers(0, 2**31))
        if fam == "theta":
            g = theta_graph(int(rng.integers(2, 5)), int(rng.integers(2, 8)), seed=fs)
        elif fam == "cactus":
            g = cactus_graph(int(rng.integers(2, 5)), int(rng.integers(3, 6)), seed=fs)
        elif fam == "bridge":
            g = bridge_heavy_graph(int(rng.integers(2, 4)), int(rng.integers(3, 5)), seed=fs)
        elif fam == "hairball":
            g = parallel_hairball(int(rng.integers(2, 8)), int(rng.integers(0, 16)), seed=fs)
        elif fam == "disconnected":
            g = disconnected_graph(int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(0, 3)), seed=fs)
        elif fam == "star":
            g = star_of_cycles(int(rng.integers(2, 4)), int(rng.integers(3, 6)), seed=fs)
        else:
            n = int(rng.integers(2, max_n))
            m = min(int(rng.integers(n - 1, 2 * n + 1)), n * (n - 1) // 2)
            g = gnm_random_graph(n, m, seed=fs)
        mode = rng.random()
        if mode < 0.15:
            g = reweighted(g, "ties")
        elif mode < 0.3:
            g = reweighted(g, "few", seed=fs)
        elif mode < 0.38:
            g = reweighted(g, "near-zero", seed=fs)
        out.append((f"random-{fam}-{i}", g))
    return out


def corpus(count: int = 200, seed: int = 0) -> list[tuple[str, CSRGraph]]:
    """The adversarial corpus padded with random draws to ``count`` graphs."""
    base = adversarial_corpus(seed)
    if count > len(base):
        base = base + random_corpus(count - len(base), seed=seed + 1)
    return base[:count]


# ------------------------------------------------------------------ #
# Hypothesis strategies (lazy import: hypothesis is a test-only dep)
# ------------------------------------------------------------------ #


def graph_strategy(
    max_n: int = 16,
    multigraph: bool = True,
    connected: bool = False,
    tie_prone: bool = True,
):
    """A hypothesis strategy drawing :class:`CSRGraph` instances.

    Draws a family, a size, and a seed, then delegates to the
    deterministic generators above — so every shrunk counterexample is
    reproducible from the drawn parameters alone.
    """
    from hypothesis import strategies as st

    @st.composite
    def _graphs(draw):
        fam = draw(
            st.sampled_from(
                _FAMILIES if multigraph else tuple(f for f in _FAMILIES if f != "hairball")
            )
        )
        fs = draw(st.integers(0, 2**31 - 1))
        if connected and fam == "disconnected":
            fam = "gnm"
        if fam == "theta":
            g = theta_graph(draw(st.integers(2, 4)), draw(st.integers(2, 6)), seed=fs)
        elif fam == "cactus":
            g = cactus_graph(draw(st.integers(2, 4)), draw(st.integers(3, 5)), seed=fs)
        elif fam == "bridge":
            g = bridge_heavy_graph(draw(st.integers(2, 3)), draw(st.integers(3, 4)), seed=fs)
        elif fam == "hairball":
            g = parallel_hairball(draw(st.integers(1, 7)), draw(st.integers(0, 14)), seed=fs)
        elif fam == "disconnected":
            g = disconnected_graph(draw(st.integers(1, 3)), draw(st.integers(2, 5)), draw(st.integers(0, 2)), seed=fs)
        elif fam == "star":
            g = star_of_cycles(draw(st.integers(2, 3)), draw(st.integers(3, 5)), seed=fs)
        else:
            n = draw(st.integers(2, max_n))
            m = min(draw(st.integers(n - 1, 2 * n)), n * (n - 1) // 2)
            g = gnm_random_graph(n, m, seed=fs)
        if tie_prone:
            mode = draw(st.sampled_from(["random", "random", "ties", "few"]))
            if mode != "random":
                g = reweighted(g, mode, seed=fs)
        return g

    return _graphs()
