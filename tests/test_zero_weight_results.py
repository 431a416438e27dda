"""Zero-weight paths read exactly 0.0 from every APSP entry point.

The compiled engine stores a zero weight as ``ZERO_WEIGHT_NUDGE`` (scipy
cannot hold an explicit zero); no result may carry that sentinel.
"""

import numpy as np
import pytest

from repro.apsp import (
    DistanceOracle,
    ReducedDistanceOracle,
    assemble_full_matrix,
    bcc_apsp,
    build_component_tables,
    dijkstra_apsp,
    ear_apsp_full,
    partition_apsp,
)
from repro.graph import CSRGraph, grid_graph
from repro.hetero.apsp_runner import apsp_with_trace
from repro.sssp.engine import MIN_POSITIVE_WEIGHT, multi_source, spt_forest, sssp

# K4 with one zero-weight edge (0, 1).
K4 = CSRGraph(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3], [0.0, 1, 1, 1, 1, 1])


def _zero_grid() -> CSRGraph:
    """Grid with every third edge at weight 0: chains, APs and zero paths."""
    g = grid_graph(5, 6)
    w = g.edge_w.copy()
    w[::3] = 0.0
    # A pendant path 0 -0- n -0- n+1 -1- n+2 adds APs 0, n, n+1; the AP
    # closure joins 0 and n+1 at distance 0 across two components.
    n = g.n
    return CSRGraph(
        n + 3,
        np.concatenate([g.edge_u, [0, n, n + 1]]),
        np.concatenate([g.edge_v, [n, n + 1, n + 2]]),
        np.concatenate([w, [0.0, 0.0, 1.0]]),
    )


MATRICES = {
    "dijkstra_apsp": lambda g: dijkstra_apsp(g),
    "dijkstra_apsp[parallel]": lambda g: dijkstra_apsp(g, engine="parallel", workers=2),
    "ear_apsp_full": lambda g: ear_apsp_full(g),
    "ear_apsp_full[parallel]": lambda g: ear_apsp_full(g, engine="parallel", workers=2),
    "bcc_apsp": lambda g: bcc_apsp(g),
    "bcc_apsp[no peel]": lambda g: bcc_apsp(g, peel=False),
    "composition": lambda g: assemble_full_matrix(g, build_component_tables(g)),
    "partition_apsp": lambda g: partition_apsp(g, k=2),
    "apsp_with_trace": lambda g: apsp_with_trace(g)[0],
    "multi_source": lambda g: multi_source(g, np.arange(g.n)),
}


@pytest.mark.parametrize("graph", ["k4", "zero-grid"])
@pytest.mark.parametrize("entry", sorted(MATRICES))
def test_matrix_entry_points_strip_the_nudge(entry, graph):
    g = K4 if graph == "k4" else _zero_grid()
    want = dijkstra_apsp(g, engine="python")
    got = MATRICES[entry](g)
    assert not ((got > 0) & (got < MIN_POSITIVE_WEIGHT)).any()
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_k4_pair_reads_zero_everywhere():
    assert dijkstra_apsp(K4)[0, 1] == 0.0
    assert ear_apsp_full(K4)[0, 1] == 0.0
    assert sssp(K4, 0)[1] == 0.0
    for oracle in (ReducedDistanceOracle(K4), DistanceOracle(K4)):
        assert oracle.query(0, 1) == 0.0
        assert oracle.query_many(np.array([[0, 1], [1, 0]])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("cls", [ReducedDistanceOracle, DistanceOracle])
def test_oracles_across_articulation_points(cls):
    g = _zero_grid()
    want = dijkstra_apsp(g, engine="python")
    oracle = cls(g)
    pairs = np.array([(u, v) for u in range(g.n) for v in range(g.n)])
    got = oracle.query_many(pairs).reshape(g.n, g.n)
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    for u, v in pairs[want.ravel() == 0.0]:
        assert oracle.query(int(u), int(v)) == 0.0


def test_spt_forest_keeps_the_raw_distances():
    """``spt_forest`` orders Mehlhorn–Michail candidates; its ``dist`` is raw."""
    dist, _ = spt_forest(K4, np.array([0]))
    assert 0.0 < dist[0, 1] < MIN_POSITIVE_WEIGHT
