"""One oracle, two component stores: the contracts both classes share.

* Vertex ids outside ``[0, n)`` raise :class:`GraphError` naming the id
  from every query entry point.  Negative ids used to wrap around in
  ``query_many`` (``[-1, 0]`` answered ``d(n-1, 0)``), ids ``>= n`` raised
  a bare ``IndexError`` there, and the scalar ``query`` returned ``inf``
  for both.
* ``memory_bytes()`` is exactly the Table-1 model of :func:`memory_model`:
  ``a² + Σ nᵢ²`` entries for :class:`DistanceOracle`, the reduced
  accounting for :class:`ReducedDistanceOracle`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apsp import DistanceOracle, ReducedDistanceOracle, memory_model
from repro.graph import CSRGraph, GraphError, path_graph
from repro.qa import strategies

ORACLES = [
    pytest.param(DistanceOracle, id="oracle"),
    pytest.param(ReducedDistanceOracle, id="reduced-oracle"),
]

ENTRY_POINTS = {
    "query": lambda o, u, v: o.query(u, v),
    "explain": lambda o, u, v: o.explain(u, v),
    "query_many": lambda o, u, v: o.query_many(np.array([[0, 1], [u, v]])),
    "explain_many": lambda o, u, v: o.explain_many(np.array([[0, 1], [u, v]])),
}


@pytest.mark.parametrize("oracle_cls", ORACLES)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (7, 0), (0, 5), (5, 5), (-3, -3)])
def test_out_of_range_ids_raise(oracle_cls, entry, pair):
    o = oracle_cls(path_graph(5))
    bad = pair[0] if not 0 <= pair[0] < 5 else pair[1]
    with pytest.raises(GraphError, match=rf"vertex id {bad}\b"):
        ENTRY_POINTS[entry](o, *pair)


@pytest.mark.parametrize("oracle_cls", ORACLES)
def test_in_range_ids_still_answer(oracle_cls):
    # Isolated and disconnected vertices are valid ids: they answer inf.
    o = oracle_cls(CSRGraph(5, [0, 2], [1, 3]))
    assert o.query(4, 4) == 0.0
    assert np.isinf(o.query(0, 4))
    assert np.isinf(o.query_many(np.array([[0, 2], [4, 0]]))).all()
    assert o.query(0, 1) == o.query_many(np.array([[0, 1]]))[0] == 1.0


def test_memory_bytes_match_memory_model():
    mismatched = []
    for name, g in strategies.corpus(count=200, seed=0):
        full = memory_model(g).ours_mb * 2**20
        reduced = memory_model(g, reduced=True).ours_mb * 2**20
        if DistanceOracle(g).memory_bytes() != full:
            mismatched.append((name, "full"))
        if ReducedDistanceOracle(g).memory_bytes() != reduced:
            mismatched.append((name, "reduced"))
    assert not mismatched, mismatched
