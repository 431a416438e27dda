"""The storage precondition of the directed compiled-Dijkstra call.

``repro.sssp.engine.symmetric_dijkstra`` runs scipy with ``directed=True``
and is only the undirected search when the matrix stores both arcs of
every edge.  Every matrix the package hands it is checked here on the
conformance corpus: it equals its transpose, its diagonal is empty, and
the directed call gives the same distance and predecessor bits as scipy's
``directed=False``.  Storing one arc per edge fails this test.
"""

import numpy as np
import scipy.sparse.csgraph as csgraph

from repro.apsp import ReducedDistanceOracle, dijkstra_apsp
from repro.apsp import composition, reduced_oracle
from repro.decomposition import biconnected_components
from repro.graph import GraphError
from repro.mcb import signed_graph
from repro.qa.strategies import corpus
from repro.sssp.engine import adjacency_matrix, symmetric_dijkstra


def _matrices(g, rng):
    """``(label, matrix)`` for every matrix the package runs Dijkstra on."""
    yield "adjacency", adjacency_matrix(g)
    aux, _ = signed_graph.build_signed_graph(g, rng.integers(0, 2, g.m))
    yield "signed", signed_graph._aux_matrix(aux)
    bcc = biconnected_components(g)
    if len(bcc.articulation_points):
        tables = [dijkstra_apsp(bcc.component_subgraph(g, c)[0]) for c in range(bcc.count)]
        ap_index = {int(v): i for i, v in enumerate(bcc.articulation_points)}
        yield "composition-ap", composition._ap_graph(bcc, tables, ap_index)
        oracle = ReducedDistanceOracle(g)
        yield "oracle-ap", reduced_oracle._ap_graph(oracle._bulk.ap_shared)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stored_symmetric_and_directed_call_matches_undirected():
    rng = np.random.default_rng(0)
    seen = set()
    for name, g in corpus(200):
        if g.n == 0:
            continue
        try:
            mats = list(_matrices(g, rng))
        except GraphError:
            continue  # outside the engine's weight contract
        for label, mat in mats:
            where = f"{name} / {label}"
            assert (mat != mat.T).nnz == 0, f"{where}: not symmetric"
            assert not mat.diagonal().any(), f"{where}: diagonal entries"
            got = symmetric_dijkstra(mat, return_predecessors=True)
            want = csgraph.dijkstra(mat, directed=False, return_predecessors=True)
            assert _same_bits(got[0], want[0]), f"{where}: dist"
            assert _same_bits(got[1], want[1]), f"{where}: predecessors"
            seen.add(label)
    assert seen == {"adjacency", "signed", "composition-ap", "oracle-ap"}

