"""Heterogeneous MCB driver: Table 2 and Figures 5/6.

Runs the ear-reduced Mehlhorn–Michail pipeline once, recording every work
unit into a :class:`WorkTrace` with memory-traffic estimates, then replays
the trace on the four platforms (sequential / multicore / GPU / CPU+GPU).
Work-byte constants reflect the per-element traffic of each kernel:

* SPT construction touches each adjacency entry plus heap traffic
  (~40 B/edge);
* one Algorithm-3 label pass reads a parent edge index, a witness bit and
  writes a label (~24 B/vertex);
* a candidate test reads ids + two labels + a witness bit (~16 B);
* a witness xor sweep streams three packed rows (~24 B/word).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..decomposition.biconnected import biconnected_components
from ..decomposition.reduce import reduce_graph
from ..graph.csr import CSRGraph
from ..mcb import gf2
from ..mcb.cycle import Cycle
from ..mcb.mehlhorn_michail import MMContext
from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs.memory import memory_span as _memory_span
from ..obs.trace import span as _span
from .executor import Platform
from .trace import SimulationResult, WorkTrace, simulate_trace

__all__ = [
    "BYTES_SPT_PER_EDGE",
    "BYTES_LABEL_PER_VERTEX",
    "BYTES_SCAN_PER_CANDIDATE",
    "BYTES_UPDATE_PER_WORD",
    "mcb_with_trace",
    "HeteroMCBResult",
    "run_mcb_on_platforms",
]

BYTES_SPT_PER_EDGE = 40.0
BYTES_LABEL_PER_VERTEX = 24.0
BYTES_SCAN_PER_CANDIDATE = 16.0
BYTES_UPDATE_PER_WORD = 24.0
BYTES_REDUCE_PER_EDGE = 24.0

# Per-run peaks of the GF(2) witness matrix and the Horton candidate
# store, in actual bytes; zeroed at the top of every mcb_with_trace run
# and raised per component (the biggest BCC dominates).
_G_WITNESS_BYTES = _metrics.gauge("memory.mcb.witness_bytes")
_G_STORE_BYTES = _metrics.gauge("memory.mcb.candidate_store_bytes")


def mcb_with_trace(
    g: CSRGraph,
    use_ear: bool = True,
    lca_filter: bool = True,
    block_size: int = 512,
) -> tuple[list[Cycle], WorkTrace]:
    """One real ear-MCB execution plus its recorded work trace."""
    trace = WorkTrace(meta={"n": g.n, "m": g.m, "use_ear": use_ear})
    # Same Section 2.4 phase names as the APSP driver: preprocess
    # (decompose + reduce), process (the MM phases), postprocess (Lemma 3.1
    # cycle expansion back onto G).
    _G_WITNESS_BYTES.set(0.0)
    _G_STORE_BYTES.set(0.0)
    with _span("preprocess", cat="mcb", stage="decompose", n=g.n, m=g.m), \
            _memory_span("mcb.preprocess"), \
            _events.emitting("phase", phase="preprocess", cat="mcb", stage="decompose"):
        bcc = biconnected_components(g)
    trace.new_stage("decompose").add(g.m * BYTES_REDUCE_PER_EDGE, g.m)

    basis: list[Cycle] = []
    # Biggest components first: the [19] queue serves them to the GPU end.
    order = sorted(
        range(bcc.count), key=lambda c: -bcc.component_edges[c].size
    )
    for cid in order:
        comp_eids = bcc.component_edges[cid]
        sub, _ = bcc.component_subgraph(g, cid)
        if sub.cycle_space_dimension() == 0:
            continue
        if use_ear:
            with _span("preprocess", cat="mcb", stage="reduce", n=sub.n), \
                    _memory_span("mcb.preprocess"), \
                    _events.emitting("phase", phase="preprocess", cat="mcb", stage="reduce"):
                red = reduce_graph(sub)
            solve_on = red.graph
            trace.new_stage("reduce").add(sub.m * BYTES_REDUCE_PER_EDGE, sub.m)
        else:
            red = None
            solve_on = sub
        with _span("process", cat="mcb", stage="mehlhorn_michail", n=solve_on.n), \
                _memory_span("mcb.process"), \
                _events.emitting("phase", phase="process", cat="mcb", stage="mehlhorn_michail"):
            cycles = _mm_traced(solve_on, trace, lca_filter, block_size)
        with _span("postprocess", cat="mcb", stage="expand", cycles=len(cycles)), \
                _memory_span("mcb.postprocess"), \
                _events.emitting("phase", phase="postprocess", cat="mcb", stage="expand"):
            for cyc in cycles:
                sub_eids = (
                    red.expand_cycle(cyc.edge_ids) if red is not None else cyc.edge_ids
                )
                basis.append(
                    Cycle(
                        edge_ids=np.sort(comp_eids[sub_eids]),
                        weight=cyc.weight,
                        meta={"component": cid, **cyc.meta},
                    )
                )
    return basis, trace


def _mm_traced(
    g: CSRGraph, trace: WorkTrace, lca_filter: bool, block_size: int
) -> list[Cycle]:
    """Mehlhorn–Michail with per-stage work recording."""
    ctx = MMContext(g, lca_filter=lca_filter, block_size=block_size)
    if ctx.f == 0:
        return []
    n, f = ctx.n, ctx.f
    words = gf2.n_words(f)

    k = len(ctx.fvs)
    trace.new_stage("spt").add(max(g.m, 1) * BYTES_SPT_PER_EDGE, n, count=k)

    store = ctx.new_store()
    witnesses = gf2.identity(f)
    _G_WITNESS_BYTES.set(max(_G_WITNESS_BYTES.value, int(witnesses.nbytes)))
    _G_STORE_BYTES.set(max(_G_STORE_BYTES.value, store.memory_bytes()))

    cycles: list[Cycle] = []
    for i in range(f):
        s_pad = ctx.witness_edge_bits(witnesses[i])
        labels = ctx.compute_labels(s_pad)
        # One label pass per tree: the phase's |Z| identical units.
        trace.new_stage("labels").add(n * BYTES_LABEL_PER_VERTEX, n, count=k)

        tested_before = store.stats.candidates_tested
        cand = store.scan_and_remove(ctx.scan_predicate(labels, s_pad))
        tested = store.stats.candidates_tested - tested_before
        trace.new_stage("scan", divisible=True).add(
            max(tested, 1) * BYTES_SCAN_PER_CANDIDATE, max(tested, 1)
        )
        if cand is None:
            raise RuntimeError("candidate family does not span the cycle space")
        cyc, c_vec = ctx.reconstruct(cand)
        cycles.append(cyc)
        rows = f - i - 1
        ctx.update_witnesses(witnesses, i, c_vec)
        if rows:
            # Parallel width is word-ops (each packed word is a lane on the
            # GPU's per-block reduce), not witness rows.
            trace.new_stage("update", divisible=True).add(
                rows * words * BYTES_UPDATE_PER_WORD, rows * words
            )
    return cycles


@dataclass
class HeteroMCBResult:
    """MCB output plus the virtual timings of all four implementations."""

    cycles: list[Cycle]
    trace: WorkTrace
    timings: dict[str, SimulationResult]

    @property
    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.cycles))

    def speedups_vs_sequential(self) -> dict[str, float]:
        seq = self.timings["sequential"].total_time
        return {
            name: seq / r.total_time if r.total_time else float("inf")
            for name, r in self.timings.items()
        }


def run_mcb_on_platforms(
    g: CSRGraph,
    use_ear: bool = True,
    platforms: list[Platform] | None = None,
    **kwargs,
) -> HeteroMCBResult:
    """Execute once, replay on every platform (the Table 2 row builder)."""
    if platforms is None:
        platforms = [
            Platform.sequential(),
            Platform.multicore(),
            Platform.gpu(),
            Platform.heterogeneous(),
        ]
    cycles, trace = mcb_with_trace(g, use_ear=use_ear, **kwargs)
    timings = {p.name: simulate_trace(trace, p) for p in platforms}
    return HeteroMCBResult(cycles=cycles, trace=trace, timings=timings)
