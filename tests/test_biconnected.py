"""Biconnected components vs networkx, plus multigraph semantics."""

import networkx as nx
import numpy as np
import pytest

from repro.decomposition import biconnected_components
from repro.graph import (
    CSRGraph,
    cycle_graph,
    grid_graph,
    path_graph,
    to_networkx,
)

from _support import composite_graph


@pytest.mark.parametrize("seed", range(8))
def test_matches_networkx_on_composites(seed):
    g = composite_graph(seed)
    bcc = biconnected_components(g)
    G = to_networkx(g)
    if G.is_multigraph():
        G = nx.Graph(G)
    assert bcc.count == len(list(nx.biconnected_components(G)))
    assert set(bcc.articulation_points.tolist()) == set(nx.articulation_points(G))


def test_every_edge_in_exactly_one_component():
    g = composite_graph(2)
    bcc = biconnected_components(g)
    assert (bcc.edge_component >= 0).all()
    counted = np.concatenate(bcc.component_edges)
    assert sorted(counted.tolist()) == list(range(g.m))


def test_single_edge_is_one_component():
    bcc = biconnected_components(path_graph(2))
    assert bcc.count == 1
    assert len(bcc.articulation_points) == 0


def test_path_components_and_aps():
    bcc = biconnected_components(path_graph(5))
    assert bcc.count == 4  # each edge a bridge component
    assert set(bcc.articulation_points.tolist()) == {1, 2, 3}


def test_cycle_is_single_component():
    bcc = biconnected_components(cycle_graph(9))
    assert bcc.count == 1 and len(bcc.articulation_points) == 0


def test_grid_is_biconnected(grid):
    bcc = biconnected_components(grid)
    assert bcc.count == 1


def test_two_triangles_sharing_vertex():
    g = CSRGraph(5, [0, 1, 2, 2, 3, 4], [1, 2, 0, 3, 4, 2])
    bcc = biconnected_components(g)
    assert bcc.count == 2
    assert list(bcc.articulation_points) == [2]


def test_parallel_edges_form_biconnected_pair():
    g = CSRGraph(3, [0, 0, 1], [1, 1, 2])
    bcc = biconnected_components(g)
    # parallel 0-1 pair is one component; bridge 1-2 another
    assert bcc.count == 2
    assert list(bcc.articulation_points) == [1]


def test_self_loop_own_component_not_articulation():
    g = CSRGraph(3, [0, 1, 1], [1, 2, 1])
    bcc = biconnected_components(g)
    assert bcc.count == 3  # edge, edge, loop
    loop_comps = [c for c in range(3) if len(bcc.component_edges[c]) == 1
                  and g.edge_u[bcc.component_edges[c][0]] == g.edge_v[bcc.component_edges[c][0]]]
    assert len(loop_comps) == 1
    # vertex 1 is an AP due to the two bridges, not the loop
    assert list(bcc.articulation_points) == [1]


def test_isolated_vertices_in_no_component():
    g = CSRGraph(4, [0], [1])
    bcc = biconnected_components(g)
    assert bcc.count == 1
    assert all(2 not in v and 3 not in v for v in bcc.component_vertices)


def test_long_chain_no_recursion_error():
    g = path_graph(50_000)
    bcc = biconnected_components(g)
    assert bcc.count == g.m


def test_component_subgraph_roundtrip():
    g = composite_graph(4)
    bcc = biconnected_components(g)
    for cid in range(bcc.count):
        sub, vmap = bcc.component_subgraph(g, cid)
        assert sub.n == len(vmap)
        assert sub.m == len(bcc.component_edges[cid])
        # relabelling maps every edge back onto its original endpoints
        eids = bcc.component_edges[cid]
        assert np.array_equal(vmap[sub.edge_u], g.edge_u[eids])
        assert np.array_equal(vmap[sub.edge_v], g.edge_v[eids])
        # weights preserved
        total = g.edge_w[bcc.component_edges[cid]].sum()
        assert np.isclose(sub.total_weight, total)


def test_component_keep_mask_includes_aps():
    g = composite_graph(0)
    bcc = biconnected_components(g)
    for cid in range(bcc.count):
        sub, vmap = bcc.component_subgraph(g, cid)
        keep = bcc.component_keep_mask(sub, cid)
        for i, v in enumerate(vmap):
            if bcc.is_articulation[v]:
                assert keep[i]
