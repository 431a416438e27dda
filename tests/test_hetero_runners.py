"""Heterogeneous MCB/APSP runners: correct answers + sensible timings."""

import hashlib

import numpy as np
import pytest

from repro.apsp import dijkstra_apsp
from repro.graph import (
    gnm_random_graph,
    randomize_weights,
    random_biconnected_graph,
    subdivide_edges,
)
from repro.hetero import (
    Platform,
    apsp_with_trace,
    mcb_with_trace,
    run_apsp_on_platforms,
    run_mcb_on_platforms,
    simulate_trace,
)
from repro.mcb import minimum_cycle_basis, verify_cycle_basis

from _support import close, composite_graph


@pytest.fixture(scope="module")
def medium():
    g = random_biconnected_graph(100, 70, seed=2)
    return subdivide_edges(randomize_weights(g, seed=2), 0.6, seed=2, chain_length=(2, 4))


class TestMCBRunner:
    def test_cycles_match_reference(self, medium):
        cycles, trace = mcb_with_trace(medium, use_ear=True)
        rep = verify_cycle_basis(medium, cycles)
        assert rep.ok
        ref = verify_cycle_basis(medium, minimum_cycle_basis(medium, algorithm="depina"))
        assert rep.total_weight == pytest.approx(ref.total_weight, rel=1e-6)

    def test_trace_has_expected_stages(self, medium):
        _, trace = mcb_with_trace(medium, use_ear=True)
        kinds = {s.kind for s in trace.stages}
        assert {"decompose", "reduce", "spt", "labels", "scan", "update"} <= kinds

    def test_trace_units_and_makespans_pinned(self):
        """Per-phase unit recording leaves the trace and its replays as they were.

        The digest and makespans were recorded with one ``Stage.add`` call
        per tree per phase; batching the phase's identical label units into
        one call must not move a unit or a virtual second.
        """
        g = randomize_weights(gnm_random_graph(40, 90, seed=5), seed=5)
        _, trace = mcb_with_trace(g)
        units = [(s.kind, s.divisible, s.units) for s in trace.stages]
        assert sum(len(u) for _, _, u in units) == 675
        digest = hashlib.sha256(repr(units).encode()).hexdigest()
        assert digest == "37ee9d437ee75a8545f097fef0661553752f9ab76af3430763e12030cf20efe5"
        makespans = {
            "sequential": 6.003314285714248e-05,
            "multicore": 0.0005370150226244987,
            "gpu": 0.0006103408333333353,
            "cpu+gpu": 0.0005522278575477808,
        }
        for platform in (
            Platform.sequential(),
            Platform.multicore(),
            Platform.gpu(),
            Platform.heterogeneous(),
        ):
            assert simulate_trace(trace, platform).total_time == makespans[platform.name]

    def test_no_ear_trace_has_no_reduce(self, medium):
        _, trace = mcb_with_trace(medium, use_ear=False)
        assert "reduce" not in {s.kind for s in trace.stages}

    def test_ear_reduces_total_work(self, medium):
        _, with_ear = mcb_with_trace(medium, use_ear=True)
        _, without = mcb_with_trace(medium, use_ear=False)
        assert with_ear.total_work < without.total_work

    def test_platform_results(self, medium):
        res = run_mcb_on_platforms(medium, use_ear=True)
        assert set(res.timings) == {"sequential", "multicore", "gpu", "cpu+gpu"}
        sp = res.speedups_vs_sequential()
        assert sp["sequential"] == pytest.approx(1.0)
        # heterogeneous must beat single devices at this scale
        assert sp["cpu+gpu"] >= max(sp["multicore"], sp["gpu"]) * 0.7
        assert res.total_weight > 0

    def test_works_on_composite_graphs(self):
        g = composite_graph(0)
        cycles, _ = mcb_with_trace(g, use_ear=True)
        assert verify_cycle_basis(g, cycles).ok


class TestAPSPRunner:
    def test_matrix_exact(self, medium):
        mat, _ = apsp_with_trace(medium, use_ear=True)
        assert close(mat, dijkstra_apsp(medium))

    def test_matrix_exact_general(self):
        g = composite_graph(2)
        mat, _ = apsp_with_trace(g, use_ear=True)
        assert close(mat, dijkstra_apsp(g))

    def test_ear_reduces_dijkstra_work(self, medium):
        _, with_ear = apsp_with_trace(medium, use_ear=True)
        _, without = apsp_with_trace(medium, use_ear=False)
        dij_w = with_ear.merged()["dijkstra"]
        dij_wo = without.merged()["dijkstra"]
        assert dij_w < dij_wo

    def test_platforms(self, medium):
        res = run_apsp_on_platforms(medium, use_ear=True)
        sp = res.speedups_vs_sequential()
        assert sp["cpu+gpu"] > 1.0
        assert close(res.matrix, dijkstra_apsp(medium))

    def test_trace_replay_consistency(self, medium):
        _, trace = apsp_with_trace(medium, use_ear=True)
        a = simulate_trace(trace, Platform.sequential()).total_time
        b = simulate_trace(trace, Platform.sequential()).total_time
        assert a == pytest.approx(b)


class TestLiveRunner:
    def test_live_matches_offline(self, medium):
        from repro.hetero import live_hetero_mcb
        from repro.mcb import minimum_cycle_basis

        res = live_hetero_mcb(medium)
        ref = sum(c.weight for c in minimum_cycle_basis(medium, algorithm="depina"))
        assert verify_cycle_basis(medium, res.cycles).ok
        assert res.total_weight == pytest.approx(ref, rel=1e-6)
        assert res.virtual_seconds > 0
        assert set(res.device_busy) == {"cpu", "gpu"}
        assert all(v >= 0 for v in res.device_busy.values())

    def test_live_sequential_platform(self):
        from repro.hetero import Platform, live_hetero_mcb
        from repro.graph import randomize_weights, random_biconnected_graph

        g = randomize_weights(random_biconnected_graph(40, 25, seed=4), seed=4)
        res = live_hetero_mcb(g, platform=Platform.sequential())
        assert verify_cycle_basis(g, res.cycles).ok

    def test_live_no_ear(self):
        from repro.hetero import live_hetero_mcb
        from repro.graph import randomize_weights, random_biconnected_graph, subdivide_edges

        g = subdivide_edges(
            randomize_weights(random_biconnected_graph(30, 20, seed=5), seed=5), 0.5, seed=5
        )
        w_ear = live_hetero_mcb(g, use_ear=True)
        w_raw = live_hetero_mcb(g, use_ear=False)
        assert w_ear.total_weight == pytest.approx(w_raw.total_weight, rel=1e-6)
