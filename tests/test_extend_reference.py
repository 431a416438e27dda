"""``extend_reduced_distances`` against the block-form reference, bit for bit.

The two-pass anchor postprocess must reproduce the ``np.ix_`` block form in
``_extend_reference`` exactly: same float64 bits in every entry, including
the kept → removed block (a transpose, not a recomputation) and the
same-chain pairs (taken from the chain table instead of a ``|R|²`` mask).
"""

import numpy as np
import pytest

from repro.apsp import extend_reduced_distances
from repro.datasets import DatasetSpec
from repro.decomposition import reduce_graph
from repro.graph import CSRGraph, GraphError, cycle_graph, randomize_weights
from repro.qa.strategies import corpus, long_chain_graph
from repro.sssp.engine import all_pairs

from _extend_reference import reference_extend


def assert_matches_reference(g: CSRGraph, keep: np.ndarray | None = None) -> None:
    red = reduce_graph(g, keep)
    s_r = all_pairs(red.simple_graph())
    got = extend_reduced_distances(red, s_r)
    want = reference_extend(red, s_r)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_corpus_bit_identical(seed):
    checked = 0
    for name, g in corpus(200, seed):
        try:
            assert_matches_reference(g)
        except GraphError:
            continue  # outside the engine's weight contract
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc
        checked += 1
    assert checked > 150


@pytest.mark.parametrize("removal", [0, 20, 40, 60, 80])
@pytest.mark.parametrize("bcc", [1, 20])
def test_degree2_sweep_bit_identical(removal, bcc):
    spec = DatasetSpec(f"r{removal}-b{bcc}", 400, 1200, bcc, 100.0, removal, seed=3)
    assert_matches_reference(randomize_weights(spec.generate(1.0), seed=removal + bcc))


def test_pinned_vertices_and_long_chains():
    rng = np.random.default_rng(5)
    for g in (long_chain_graph(3, 40, seed=1), cycle_graph(30)):
        assert_matches_reference(g)
        assert_matches_reference(g, rng.random(g.n) < 0.2)


def test_no_removed_and_empty_graphs():
    assert_matches_reference(CSRGraph(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3], [1.0] * 6))
    assert extend_reduced_distances(reduce_graph(CSRGraph(0, [], [], [])), np.zeros((0, 0))).shape == (0, 0)
