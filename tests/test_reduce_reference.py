"""``reduce_graph`` against the per-chain reference walk, bit for bit.

The array-pass reduction must reproduce every ``ReducedGraph`` field of
the straightforward walk in ``_reduce_reference`` exactly: same chain ids
(discovery order), same walk direction, same float64 bits in every prefix
and anchor distance, and the same reduced-graph edge order.
"""

import numpy as np
import pytest

from repro.decomposition import reduce_graph
from repro.graph import CSRGraph, cycle_graph, path_graph
from repro.qa.strategies import corpus, long_chain_graph

from _reduce_reference import reference_reduce

FIELDS = (
    "kept_mask",
    "kept_ids",
    "reduced_id",
    "chain_of",
    "pos_in_chain",
    "dist_left",
    "dist_right",
    "chain_left_rid",
    "chain_right_rid",
    "chain_weight",
)


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(g: CSRGraph, keep: np.ndarray | None = None) -> None:
    red = reduce_graph(g, keep)
    ref = reference_reduce(g, keep)
    for name in FIELDS:
        assert _identical(getattr(red, name), ref[name]), name
    assert len(red.chains) == len(ref["chains"])
    for c, (chain, (verts, edges, prefix)) in enumerate(zip(red.chains, ref["chains"])):
        assert _identical(chain.vertices, verts), ("vertices", c)
        assert _identical(chain.edges, edges), ("edges", c)
        assert _identical(chain.prefix, prefix), ("prefix", c)
    for name in ("edge_u", "edge_v", "edge_w"):
        assert _identical(getattr(red.graph, name), getattr(ref["graph"], name)), name
    assert red.graph.n == ref["graph"].n
    red.validate()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("pinned", [False, True], ids=["default", "random-keep"])
def test_corpus_bit_identical(seed, pinned):
    rng = np.random.default_rng(1000 + seed)
    for name, g in corpus(200, seed):
        keep = rng.random(g.n) < 0.25 if pinned else None
        try:
            assert_matches_reference(g, keep)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc


@pytest.mark.parametrize(
    "g",
    [
        CSRGraph(2, [0, 0], [1, 1], [0.5, 0.25]),
        CSRGraph(2, [1, 0], [0, 1], [0.5, 0.25]),
        CSRGraph(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [1, 2, 3, 4, 5, 6]),
        CSRGraph(7, [3, 4, 5, 6, 0], [4, 5, 6, 3, 1], [1.0, 1.0, 1.0, 1.0, 2.0]),
        CSRGraph(5, [4, 2, 0, 3, 1], [2, 0, 3, 1, 4], [0.1, 0.2, 0.3, 0.4, 0.5]),
        CSRGraph(4, [0, 1, 2, 3, 2, 3], [1, 0, 3, 2, 2, 3], [1, 2, 3, 4, 5, 6]),
    ],
    ids=["two-cycle", "two-cycle-reversed", "two-triangles", "cycle-plus-edge",
         "shuffled-pentagon", "loops-on-kept"],
)
def test_pure_cycles_and_loops(g):
    assert_matches_reference(g)
    assert_matches_reference(g, np.arange(g.n) % 3 == 1)


def test_pure_cycle_anchored_at_least_vertex():
    g = CSRGraph(5, [4, 2, 0, 3, 1], [2, 0, 3, 1, 4])
    red = reduce_graph(g)
    assert red.kept_ids.tolist() == [0]
    assert red.chains[0].left == red.chains[0].right == 0
    assert red.graph.has_self_loops


def test_kept_vertex_with_loop_and_chain():
    # vertex 0 carries a loop and a chain 0-1-2-0 back to itself
    g = CSRGraph(3, [0, 0, 1, 2], [0, 1, 2, 0], [0.5, 1.0, 2.0, 4.0])
    assert_matches_reference(g)
    red = reduce_graph(g)
    assert red.graph.m == 2 and red.kept_ids.tolist() == [0]


@pytest.mark.parametrize("n", [0, 1, 5])
def test_edgeless(n):
    g = CSRGraph(n, [], [], [])
    assert_matches_reference(g)
    red = reduce_graph(g)
    assert red.n_chains == 0 and red.chain_edges.size == 0
    assert red.expand_cycle([]).size == 0


@pytest.mark.parametrize("make", [path_graph, cycle_graph], ids=["path", "cycle"])
def test_hundred_thousand_vertices(make):
    g = make(100_000)
    assert_matches_reference(g)
    red = reduce_graph(g)
    assert red.n_chains == 1 and red.chain_edges.size == g.m


@pytest.mark.parametrize("seed", range(3))
def test_long_chain_family(seed):
    g = long_chain_graph(seed=seed)
    assert_matches_reference(g)
    assert_matches_reference(g, np.random.default_rng(seed).random(g.n) < 0.05)
