"""Query provenance: explain records bit-identical to ``query_many``.

``explain_many`` must return the *same distances, bit for bit* as
``query_many`` — provenance is attribution layered over the one shared
resolution path, never a second arithmetic path — while labelling every
pair with the class and resolving formula the paper's oracle actually
used (identity, component table, chain closed forms, AP bridge).

The corpus seed is the session ``--repro-seed``, so failures replay
exactly.  The differential registry's ``oracle-bulk`` /
``reduced-oracle-bulk`` registrations assert the same bit-identity on
every pair of every corpus graph, and additionally check the distances
against the scipy Dijkstra reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apsp.oracle import DistanceOracle
from repro.apsp.reduced_oracle import ReducedDistanceOracle
from repro.graph import cycle_graph
from repro.obs import metrics
from repro.obs.provenance import (
    PAIR_CLASSES,
    RESOLVER_NAMES,
    C_CROSS,
    C_SAME,
    C_SELF,
    C_UNREACHABLE,
    R_AP_BRIDGE,
    R_IDENTITY,
    R_NONE,
    R_SAME_CHAIN,
)
from repro.qa import strategies
from repro.qa.differential import APSP_REGISTRY, run_apsp_differential

pytestmark = pytest.mark.qa

CORPUS_COUNT = 60

ORACLES = [
    pytest.param(DistanceOracle, id="oracle"),
    pytest.param(ReducedDistanceOracle, id="reduced-oracle"),
]


def _pairs_for(n: int, seed: int) -> np.ndarray:
    if n <= 25:
        uu, vv = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return np.column_stack([uu.ravel(), vv.ravel()]).astype(np.int64)
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(600, 2), dtype=np.int64)


def assert_explain_matches_query(oracle_cls, g, name: str, seed: int) -> None:
    o = oracle_cls(g)
    pairs = _pairs_for(g.n, seed)
    want = o.query_many(pairs)
    prov = o.explain_many(pairs)
    assert np.array_equal(prov.distances, want), (
        f"{oracle_cls.__name__} on {name}: "
        f"{int(np.sum(prov.distances != want))} of {len(pairs)} "
        "explained distances differ from query_many"
    )


@pytest.mark.parametrize("oracle_cls", ORACLES)
class TestBitIdentity:
    def test_corpus(self, oracle_cls, repro_seed):
        for name, g in strategies.corpus(count=CORPUS_COUNT, seed=repro_seed):
            if g.n == 0:
                continue
            assert_explain_matches_query(oracle_cls, g, name, repro_seed)

    def test_single_chain_cycle(self, oracle_cls, repro_seed):
        for n in (3, 4, 7, 12):
            assert_explain_matches_query(
                oracle_cls, cycle_graph(n), f"cycle-{n}", repro_seed
            )

    def test_disconnected(self, oracle_cls, repro_seed):
        g = strategies.disconnected_graph(3, 5, isolated=2, seed=repro_seed)
        assert_explain_matches_query(oracle_cls, g, "disconnected", repro_seed)

    def test_star_of_cycles(self, oracle_cls, repro_seed):
        g = strategies.star_of_cycles(arms=4, cycle_len=5, seed=repro_seed)
        assert_explain_matches_query(oracle_cls, g, "star-of-cycles", repro_seed)

    def test_empty_pairs(self, oracle_cls):
        o = oracle_cls(strategies.theta_graph(3, 4, seed=0))
        prov = o.explain_many(np.empty((0, 2), dtype=np.int64))
        assert prov.distances.shape == (0,)
        assert prov.records() == []


@pytest.mark.parametrize("oracle_cls", ORACLES)
class TestAttribution:
    def test_self_pairs(self, oracle_cls):
        g = strategies.theta_graph(3, 5, seed=3)
        o = oracle_cls(g)
        pairs = np.column_stack([np.arange(g.n), np.arange(g.n)]).astype(np.int64)
        prov = o.explain_many(pairs)
        assert np.all(prov.cls == C_SELF)
        assert np.all(prov.resolver == R_IDENTITY)
        assert np.all(prov.distances == 0.0)

    def test_unreachable_pairs(self, oracle_cls):
        g = strategies.disconnected_graph(4, 6, isolated=1, seed=2)
        o = oracle_cls(g)
        pairs = _pairs_for(g.n, seed=2)
        prov = o.explain_many(pairs)
        unreach = np.isinf(prov.distances)
        assert unreach.any(), "disconnected corpus graph had no inf pairs"
        assert np.all(prov.cls[unreach] == C_UNREACHABLE)
        assert np.all(prov.resolver[unreach] == R_NONE)
        # and the reverse: every unreachable-classed pair really is inf
        assert np.all(np.isinf(prov.distances[prov.cls == C_UNREACHABLE]))

    def test_cross_bcc_carries_boundary_aps(self, oracle_cls):
        # Star of cycles: every cross-arm pair routes through the hub.
        g = strategies.star_of_cycles(arms=4, cycle_len=5, seed=1)
        o = oracle_cls(g)
        pairs = _pairs_for(g.n, seed=1)
        prov = o.explain_many(pairs)
        cross = prov.cls == C_CROSS
        assert cross.any(), "star of cycles produced no cross-BCC pairs"
        assert np.all(prov.resolver[cross] == R_AP_BRIDGE)
        assert np.all(prov.ap1[cross] >= 0)
        assert np.all(prov.ap2[cross] >= 0)
        i = int(np.flatnonzero(cross)[0])
        rec = prov.record(i)
        assert rec.pair_class == "cross-bcc"
        assert rec.boundary_aps is not None and len(rec.boundary_aps) == 2

    def test_same_bcc_component_ids(self, oracle_cls):
        g = strategies.theta_graph(3, 6, seed=4)
        o = oracle_cls(g)
        pairs = _pairs_for(g.n, seed=4)
        prov = o.explain_many(pairs)
        same = prov.cls == C_SAME
        assert same.any()
        assert np.all(prov.component[same] >= 0)
        # off-class pairs never carry a component id
        assert np.all(prov.component[~same] == -1)

    def test_class_sizes_partition_batch(self, oracle_cls, repro_seed):
        g = strategies.star_of_cycles(arms=3, cycle_len=4, seed=repro_seed)
        o = oracle_cls(g)
        pairs = _pairs_for(g.n, seed=repro_seed)
        prov = o.explain_many(pairs)
        sizes = prov.class_sizes()
        base = sum(sizes.get(c, 0) for c in PAIR_CLASSES)
        assert base == len(pairs)
        # the same-chain refinement counts a subset of same-bcc, not a
        # fifth partition cell
        assert sizes.get("same-chain", 0) <= sizes.get("same-bcc", 0)


class TestChainResolvers:
    def test_reduced_oracle_same_chain(self):
        # A bare cycle is one chain: interior pairs resolve via the
        # same-chain closed form at least somewhere.
        g = cycle_graph(9)
        o = ReducedDistanceOracle(g)
        pairs = _pairs_for(g.n, seed=0)
        prov = o.explain_many(pairs)
        names = {RESOLVER_NAMES[int(r)] for r in prov.resolver}
        assert "same-chain" in names, names
        same_chain = prov.resolver == R_SAME_CHAIN
        assert np.all(prov.cls[same_chain] == C_SAME)

    def test_full_oracle_never_uses_chain_forms(self):
        g = cycle_graph(9)
        o = DistanceOracle(g)
        prov = o.explain_many(_pairs_for(g.n, seed=0))
        names = {RESOLVER_NAMES[int(r)] for r in prov.resolver}
        assert names <= {"identity", "table", "none", "ap-shared", "ap-bridge"}, names


class TestSingleExplain:
    def test_explain_matches_query(self):
        g = strategies.star_of_cycles(arms=3, cycle_len=5, seed=6)
        o = ReducedDistanceOracle(g)
        for u, v in ((0, 1), (1, g.n - 1), (5, 5)):
            rec = o.explain(u, v)
            assert rec.u == u and rec.v == v
            assert rec.distance == o.query(u, v)
            assert rec.pair_class in PAIR_CLASSES or rec.pair_class == "same-chain"

    def test_digest_deterministic(self):
        g = strategies.theta_graph(3, 5, seed=8)
        o = ReducedDistanceOracle(g)
        a, b = o.explain(1, 7), o.explain(1, 7)
        assert a.digest() == b.digest()
        assert len(a.digest()) == 12
        assert a.digest() != o.explain(2, 7).digest()

    def test_as_dict_roundtrips_digest(self):
        g = strategies.theta_graph(3, 5, seed=8)
        rec = ReducedDistanceOracle(g).explain(0, 3)
        d = rec.as_dict()
        assert d["digest"] == rec.digest()
        assert d["pair_class"] == rec.pair_class

    def test_record_out_of_range(self):
        g = strategies.theta_graph(3, 4, seed=0)
        prov = ReducedDistanceOracle(g).explain_many(
            np.array([[0, 1]], dtype=np.int64)
        )
        with pytest.raises(IndexError):
            prov.record(1)


class TestRegistryAndCounters:
    def test_explain_paths_enrolled(self):
        # The explain check rides the oracle registrations (it used to be
        # two registrations of its own).
        assert "oracle-bulk" in APSP_REGISTRY
        assert "reduced-oracle-bulk" in APSP_REGISTRY
        assert "oracle-explain" not in APSP_REGISTRY

    def test_explain_paths_agree_with_reference(self, repro_seed):
        graphs = strategies.corpus(count=12, seed=repro_seed)
        report = run_apsp_differential(
            graphs,
            impls=["dijkstra-scipy", "oracle-bulk", "reduced-oracle-bulk"],
        )
        assert report.ok, report.summary()

    def test_explain_counters(self):
        g = strategies.theta_graph(3, 4, seed=0)
        o = ReducedDistanceOracle(g)
        pairs = _pairs_for(g.n, seed=0)
        before_e = metrics.counter("provenance.explains").value
        before_p = metrics.counter("provenance.pairs").value
        o.explain_many(pairs)
        assert metrics.counter("provenance.explains").value - before_e == 1
        assert metrics.counter("provenance.pairs").value - before_p == len(pairs)
