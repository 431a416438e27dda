"""The three benchmark workloads and the metrics computed from their runs.

Every workload runs in one process with the default in-process SSSP
engine.  Inputs come from the public ``repro.datasets.DatasetSpec`` recipe
(removal fraction and BCC count are its parameters); the program receives
only the generated edge arrays.  Before every timed operation the SSSP
adjacency cache is cleared, so no run measures a warm cache that a user
solving a new graph would not have.

Timed operations run in *passes*: one pass times every operation of the
workload once, and a run makes passes until ``seconds`` have elapsed.  A
traced run alternates untraced and traced passes; the untraced ones give
the end-to-end numbers and the trace overhead, the traced ones the
per-layer numbers.

Every timed operation repeats identical work (same graph, same query
pairs), so its end-to-end time is the *fastest* of its untraced repeats.
Co-tenant load on a shared host only ever adds time; it moves the median
of a run by up to 1.8x from one run to the next, while the fastest repeat
stays within about 10% unless the host is slow for the whole run.  A
program change that adds work to an operation slows every repeat, the
fastest included.  Set-up time follows the same rule: the fastest of
several set-ups spread over the run (its median moved by up to 1.6x
between quiet and busy stretches of the host).

Per-layer times are self times: a span's duration minus that of the spans
it encloses, so every nanosecond of an operation is charged to one layer.
A layer the workload never calls reads 0.  Scalar ``query(u, v)`` calls get
no span (a span per ~10 us call would cost about a million records per
run); their latency is timed by the client loop instead.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.apsp import ReducedDistanceOracle, bcc_apsp, ear_apsp_full
from repro.apsp import ear_apsp as _ear_apsp_mod
from repro.apsp import reduced_oracle as _oracle_mod
from repro.datasets import DatasetSpec
from repro.decomposition import BCCDecomposition, ReducedGraph
from repro.graph import randomize_weights
from repro.graph.csr import CSRGraph
from repro.mcb import CandidateStore, MMContext, minimum_cycle_basis, verify_cycle_basis
from repro.mcb import ear_mcb as _ear_mcb_mod
from repro.mcb import mehlhorn_michail as _mm_mod
from repro.obs import metrics as obs_metrics
from repro.sssp import adjacency_cache, dijkstra

from tracer import Tracer

ORACLE_SEGMENTS = 3    # oracle-serve: graph + oracle builds, one per segment
REF_ROWS = 2           # dijkstra reference rows per APSP graph
ORACLE_REF_ROWS = 16   # dijkstra reference rows per oracle graph
BATCH = 1024           # query_many batch size = query(u, v) pairs per graph
RTOL = 1e-9            # distance agreement with the pure-Python reference


@dataclass(frozen=True)
class CellSpec:
    """One generated input: size, BCC count and degree-2 removal target."""

    name: str
    n: int
    m: int
    bcc: int
    removal: float


# Graph sizes keep every timed operation short (15-50 ms): the fastest of
# a run's repeats only reads the program's own cost when some repeat fits
# in a quiet moment of the host, and on a shared host those are short.

# apsp-d2-sweep: removal {0..80}% x BCC {1, many} at n=400.
APSP_CELLS = [
    CellSpec(f"r{r:02d}-b{b}", 400, 1200, b, r / 100)
    for r in (0, 20, 40, 60, 80) for b in (1, 20)
]
# Traced runs only: an n=4000 row whose 128 MB result matrix does not fit
# in a typical L3 cache, at the removal level where the memory-bound
# postprocess leads.  A solve takes ~1 s and its time follows co-tenant
# memory traffic (up to 1.5x between runs), so it feeds the per-layer
# numbers and the paper-shape table, not the end-to-end ones.
APSP_BIG_CELLS = [CellSpec("r80-b1-4k", 4000, 12000, 1, 0.8)]

# mcb-d2-sweep: removal {0, 40, 80}% x BCC {1, many} at n=100; m/n = 2.5, so
# the 0% rows have almost no natural degree-2 vertices.
MCB_CELLS = [
    CellSpec(f"r{r:02d}-b{b}", 100, 250, b, r / 100)
    for r in (0, 40, 80) for b in (1, 8)
]

# oracle-serve: three many-BCC chain-heavy graphs and one single-BCC one.
ORACLE_CELLS = [CellSpec(f"many{i}", 3000, 9000, 60, 0.6) for i in range(3)] + [
    CellSpec("single", 3000, 9000, 1, 0.6)
]


def generate(cells: list[CellSpec], seed: int) -> list[tuple]:
    """Edge arrays ``(n, u, v, w)`` per cell; the same seed, the same arrays.

    Each cell's shape is one fixed ``DatasetSpec`` instance and ``seed``
    draws its edge weights, so every seed times the same block-cut-tree and
    chain layouts: ``query_many`` and solve costs depend on the layout, and
    with a handful of graphs per workload a per-seed draw of layouts would
    add its own seed-to-seed spread on top of the host's.
    """
    out = []
    for i, c in enumerate(cells):
        spec = DatasetSpec(c.name, c.n, c.m, c.bcc, 100.0, 100 * c.removal,
                           seed=10 * i + 1)
        g = randomize_weights(spec.generate(1.0), seed=seed * 100 + i)
        out.append((g.n, g.edge_u, g.edge_v, g.edge_w))
    return out


def build_graphs(arrays, tracer: Tracer | None = None):
    """CSRGraph construction of every input: ``(graphs, seconds)``."""
    t0 = time.perf_counter()
    if tracer is None:
        graphs = [CSRGraph(*a) for a in arrays]
    else:
        graphs = []
        for a in arrays:
            with tracer.span("CSRGraph", "graph"):
                graphs.append(CSRGraph(*a))
    return graphs, time.perf_counter() - t0


def rebuild(arrays, tracer: Tracer, traced: bool, setup: list, graph_s: list) -> None:
    """One more timed CSRGraph build per pass, so set-up samples span the run.

    Untraced builds add to ``setup``; traced ones add the ``graph`` layer's
    self time to ``graph_s``.
    """
    if not traced:
        setup.append(build_graphs(arrays)[1])
        return
    first = len(tracer.spans)
    build_graphs(arrays, tracer)
    graph_s.append(tracer.layer_self_ns(first).get("graph", 0) / 1e9)


def passes(seconds: float, trace: bool):
    """Yield ``traced`` per pass until ``seconds`` elapse (at least one each)."""
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        yield trace and i % 2 == 1
        i += 1
        if time.perf_counter() >= t_end and i >= (2 if trace else 1):
            return


def engine_units(args, result) -> dict:
    """Cost-model units of one SSSP engine call: ``k·(m + n·ln n)``."""
    g = args[0]
    k = len(args[1]) if len(args) > 1 else g.n
    return {"units": k * (g.m + g.n * math.log(max(g.n, 2)))}


def reduce_sizes(args, result) -> dict:
    return {"n": args[0].n, "m": args[0].m}


def postprocess_units(args, result) -> dict:
    return {"units": args[0].original.n ** 2}


def candidates(args, result) -> dict:
    return {"candidates": len(getattr(args[0], "cand_e", ()))}


@dataclass
class Ops:
    """Timings of every operation key, plus the trace of traced passes."""

    tracer: Tracer = field(default_factory=Tracer)
    plain: dict = field(default_factory=lambda: defaultdict(list))
    traced: dict = field(default_factory=lambda: defaultdict(list))
    layers: dict = field(default_factory=lambda: defaultdict(list))
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def run(self, key: str, fn, traced: bool, layer: str = "op"):
        """Time ``fn()`` as operation ``key`` on a cold adjacency cache."""
        adjacency_cache().clear()
        if not traced:
            t0 = time.perf_counter()
            out = fn()
            self.plain[key].append(time.perf_counter() - t0)
            return out
        first = len(self.tracer.spans)
        before = obs_metrics.snapshot() if key not in self.counts else None
        t0 = time.perf_counter()
        with self.tracer.span(key, layer):
            out = fn()
        self.traced[key].append(time.perf_counter() - t0)
        self.layers[key].append(self.tracer.layer_self_ns(first))
        if before is not None:
            diff = obs_metrics.metrics_diff(before, obs_metrics.snapshot())
            for name, layer_, k in (("reduce_n", "decomposition.reduce", "n"),
                                    ("reduce_m", "decomposition.reduce", "m"),
                                    ("engine_units", "sssp.engine", "units"),
                                    ("post_units", "apsp.postprocess", "units"),
                                    ("candidates", "mcb.setup", "candidates")):
                diff[name] = self.tracer.info_sum(first, layer_, k)
            self.counts[key] = diff
        return out

    def check(self, failed: int, what: str, n: int = 1) -> None:
        """Count ``n`` checked operations of which ``failed`` failed."""
        self.attempted += n
        if failed:
            self.failed += failed
            print(f"check failed: {what} ({failed} of {n})", file=sys.stderr)

    def guarded(self, key: str, fn, traced: bool, layer: str = "op"):
        """:meth:`run`, counting an exception as a failed operation."""
        try:
            return self.run(key, fn, traced, layer)
        except Exception:
            traceback.print_exc()
            self.check(1, f"{key} raised")
            return None

    # -- per-pass aggregates ------------------------------------------------

    def plain_s(self, keys=None) -> float:
        """Median untraced time, comparable with the traced passes' medians."""
        keys = self.plain if keys is None else keys
        return sum(statistics.median(self.plain[k]) for k in keys)

    def fastest_s(self, keys) -> list[float]:
        """Fastest untraced time of every key: the end-to-end timings."""
        return [min(self.plain[k]) for k in keys]

    def layer_s(self, *names: str) -> float:
        return sum(
            statistics.median(d.get(n, 0) for d in ds) / 1e9
            for ds in self.layers.values() for n in names
        )

    def count(self, name: str) -> float:
        return sum(c.get(name, 0) for c in self.counts.values())

    def overhead(self) -> float:
        keys = [k for k in self.traced if k in self.plain]
        traced = sum(statistics.median(self.traced[k]) for k in keys)
        return traced / self.plain_s(keys) - 1.0


def latency_pcts(samples_us) -> tuple[float, float]:
    """p50 and p99 (nearest rank) of latency samples in microseconds."""
    xs = sorted(samples_us)
    rank = lambda p: xs[min(len(xs) - 1, math.ceil(p * len(xs)) - 1)]  # noqa: E731
    return rank(0.50), rank(0.99)


def sweep_latency(cell_s: list[float]) -> tuple[float, float]:
    """Typical and tail solve latency (us) of a sweep's graphs.

    The graphs differ in size and removal on purpose, so a percentile over
    them would jump between neighbouring graphs: the typical latency is the
    geometric mean of the per-graph solve times, which weighs every graph
    equally, and the tail is the time until the last graph of a sweep is
    solved (their sum).
    """
    us = [t * 1e6 for t in cell_s]
    return math.exp(statistics.fmean(math.log(t) for t in us)), sum(us)


def rows_match(got: np.ndarray, ref: np.ndarray) -> bool:
    fin = np.isfinite(ref)
    return bool(np.array_equal(fin, np.isfinite(got))
                and np.allclose(got[fin], ref[fin], rtol=RTOL, atol=0.0))


def layer_metrics(ops: Ops, graph_s: list[float], cycles: int = 0) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    reduce_s = ops.layer_s("decomposition.reduce")
    engine_s = ops.layer_s("sssp.engine")
    post_s = ops.layer_s("apsp.postprocess")
    # Every layer an operation's spans can be charged to, except the
    # operation's own unattributed self time ("op").
    named = ("decomposition.bcc", "decomposition.reduce", "sssp.engine",
             "apsp.postprocess", "apsp.oracle_index", "apsp.bulk_query",
             "mcb.setup", "mcb.labels", "mcb.scan", "mcb.reconstruct",
             "mcb.update", "mcb.expand")
    hits = ops.count("engine.adj_cache.hits")
    lookups = hits + ops.count("engine.adj_cache.misses")
    scanned = ops.count("mcb.candidates_scanned")
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    return {
        "graph.build_s": statistics.median(graph_s),
        "decomposition.reduce_s": reduce_s,
        "decomposition.reduce_ns_per_edge": ratio(reduce_s * 1e9, ops.count("reduce_m")),
        "decomposition.bcc_s": ops.layer_s("decomposition.bcc"),
        "decomposition.removed_frac": ratio(ops.count("reduce.vertices_removed"),
                                            ops.count("reduce_n")),
        "decomposition.chains": ops.count("reduce.chains"),
        "sssp.engine_s": engine_s,
        "sssp.sources": ops.count("engine.sources_dispatched"),
        "sssp.adj_cache_hit_ratio": ratio(hits, lookups),
        "apsp.postprocess_s": post_s,
        "apsp.postprocess_ns_per_unit": ratio(post_s * 1e9, ops.count("post_units")),
        "apsp.process_ns_per_unit": ratio(engine_s * 1e9, ops.count("engine_units")),
        "apsp.oracle_index_s": ops.layer_s("apsp.oracle_index"),
        "mcb.setup_s": ops.layer_s("mcb.setup"),
        "mcb.labels_s": ops.layer_s("mcb.labels"),
        "mcb.scan_s": ops.layer_s("mcb.scan"),
        "mcb.reconstruct_s": ops.layer_s("mcb.reconstruct"),
        "mcb.update_s": ops.layer_s("mcb.update"),
        "mcb.reduce_expand_s": ops.layer_s("mcb.expand"),
        "mcb.candidates": ops.count("candidates"),
        "apsp.table_bytes": 0,
        "apsp.same_component_frac": 0.0,
        "mcb.candidates_scanned": scanned,
        "mcb.scan_yield": ratio(cycles, scanned),
        "mcb.witness_xors": ops.count("mcb.witness_xors"),
        "bench.trace_overhead_frac": ops.overhead(),
        "bench.layer_sum_frac": ops.layer_s(*named) / ops.plain_s(ops.layers),
    }


# --------------------------------------------------------------------------
# apsp-d2-sweep
# --------------------------------------------------------------------------

APSP_TARGETS = [
    (_ear_apsp_mod, "reduce_graph", "decomposition.reduce", reduce_sizes),
    (ReducedGraph, "simple_graph", "decomposition.reduce", None),
    (_ear_apsp_mod, "all_pairs", "sssp.engine", engine_units),
    (_ear_apsp_mod, "extend_reduced_distances", "apsp.postprocess", postprocess_units),
]


def apsp_d2_sweep(seed: int, seconds: float, trace: bool) -> dict:
    cells = APSP_CELLS + (APSP_BIG_CELLS if trace else [])
    arrays = generate(cells, seed)
    graphs, t_graphs = build_graphs(arrays)
    setup = [t_graphs]
    rng = np.random.default_rng(seed)
    refs = []
    for g in graphs:
        srcs = rng.choice(g.n, REF_ROWS, replace=False)
        refs.append([(int(s), dijkstra(g, int(s))) for s in srcs])

    ops = Ops()
    graph_s = []
    for traced in passes(seconds, trace):
        rebuild(arrays, ops.tracer, traced, setup, graph_s)
        with ops.tracer.install(APSP_TARGETS if traced else []):
            for cell, g, ref in zip(cells, graphs, refs):
                d = ops.guarded(cell.name, lambda g=g: ear_apsp_full(g), traced)
                if d is not None:
                    ok = all(rows_match(d[s], row) and rows_match(d[:, s], row)
                             for s, row in ref)
                    ops.check(not ok, f"apsp {cell.name} rows")
                del d

    cell_s = ops.fastest_s(c.name for c in APSP_CELLS)
    typical, tail = sweep_latency(cell_s)
    pairs = sum(g.n * g.n for g in graphs[:len(APSP_CELLS)])
    res = {
        "setup_s": min(setup),
        "ok_frac": 1.0 - ops.failed / ops.attempted,
        "work_per_s": pairs / sum(cell_s),
        "latency_us.typical": typical,
        "latency_us.tail": tail,
    }
    aliases = {"apsp.pairs_per_s": res["work_per_s"]}
    shape = None
    if trace:
        shape = apsp_paper_shape(ops, cells, graphs)
    layers = None
    if trace:
        layers = layer_metrics(ops, graph_s)
    return dict(ops=ops, e2e=res, aliases=aliases, layers=layers, shape=shape,
                cells=describe(cells, graphs), setup=setup)


def apsp_paper_shape(ops: Ops, cells: list[CellSpec], graphs) -> list[dict]:
    """Per removal level: ear speed-up over ``bcc_apsp`` and the cost model."""
    t_bcc = {}
    for cell, g in zip(cells, graphs):
        adjacency_cache().clear()
        t0 = time.perf_counter()
        bcc_apsp(g)
        t_bcc[cell.name] = time.perf_counter() - t0
    rows = []
    for r in sorted({c.removal for c in cells}):
        keys = [c.name for c in cells if c.removal == r]
        sub = Ops(layers={k: ops.layers[k] for k in keys},
                  counts={k: ops.counts[k] for k in keys})
        engine_ns = sub.layer_s("sssp.engine") * 1e9
        post_ns = sub.layer_s("apsp.postprocess") * 1e9
        rows.append({
            "removal": r,
            "removed_frac": sub.count("reduce.vertices_removed") / sub.count("reduce_n"),
            "ear_speedup_vs_bcc_apsp": sum(t_bcc[k] for k in keys) / ops.plain_s(keys),
            "process_ns_per_unit": engine_ns / sub.count("engine_units"),
            "postprocess_ns_per_unit": post_ns / sub.count("post_units"),
        })
    return rows


# --------------------------------------------------------------------------
# mcb-d2-sweep
# --------------------------------------------------------------------------

MCB_TARGETS = [
    (_ear_mcb_mod, "biconnected_components", "decomposition.bcc", None),
    (BCCDecomposition, "component_subgraph", "decomposition.bcc", None),
    (_ear_mcb_mod, "reduce_graph", "decomposition.reduce", reduce_sizes),
    (ReducedGraph, "expand_cycle", "mcb.expand", None),
    (MMContext, "__init__", "mcb.setup", candidates),
    (_mm_mod, "spt_forest", "sssp.engine", engine_units),
    (MMContext, "witness_edge_bits", "mcb.labels", None),
    (MMContext, "compute_labels", "mcb.labels", None),
    (CandidateStore, "scan_and_remove", "mcb.scan", None),
    (MMContext, "reconstruct", "mcb.reconstruct", None),
    (MMContext, "update_witnesses", "mcb.update", None),
]


def mcb_d2_sweep(seed: int, seconds: float, trace: bool) -> dict:
    arrays = generate(MCB_CELLS, seed)
    graphs, t_graphs = build_graphs(arrays)
    setup = [t_graphs]
    ref_weight, noear_s = [], []
    for g in graphs:
        adjacency_cache().clear()
        t0 = time.perf_counter()
        basis = minimum_cycle_basis(g, use_ear=False)
        noear_s.append(time.perf_counter() - t0)
        ref_weight.append(sum(c.weight for c in basis))

    ops = Ops()
    graph_s = []
    for traced in passes(seconds, trace):
        rebuild(arrays, ops.tracer, traced, setup, graph_s)
        with ops.tracer.install(MCB_TARGETS if traced else []):
            for cell, g, w in zip(MCB_CELLS, graphs, ref_weight):
                basis = ops.guarded(cell.name, lambda g=g: minimum_cycle_basis(g), traced)
                if basis is not None:
                    total = sum(c.weight for c in basis)
                    ok = (verify_cycle_basis(g, basis).ok
                          and abs(total - w) <= RTOL * max(1.0, w))
                    ops.check(not ok, f"mcb {cell.name} basis")

    cell_s = ops.fastest_s(c.name for c in MCB_CELLS)
    typical, tail = sweep_latency(cell_s)
    cycles = sum(g.cycle_space_dimension() for g in graphs)
    res = {
        "setup_s": min(setup),
        "ok_frac": 1.0 - ops.failed / ops.attempted,
        "work_per_s": cycles / sum(cell_s),
        "latency_us.typical": typical,
        "latency_us.tail": tail,
    }
    aliases = {"mcb.cycles_per_s": res["work_per_s"]}
    shape = None
    if trace:
        shape = []
        for r in sorted({c.removal for c in MCB_CELLS}):
            idx = [i for i, c in enumerate(MCB_CELLS) if c.removal == r]
            shape.append({
                "removal": r,
                "ear_speedup_vs_no_ear": sum(noear_s[i] for i in idx)
                / sum(cell_s[i] for i in idx),
            })
    layers = None
    if trace:
        layers = layer_metrics(ops, graph_s, cycles)
        layers["mcb.reduce_expand_s"] += layers["decomposition.reduce_s"]
    return dict(ops=ops, e2e=res, aliases=aliases, layers=layers, shape=shape,
                cells=describe(MCB_CELLS, graphs), setup=setup)


# --------------------------------------------------------------------------
# oracle-serve
# --------------------------------------------------------------------------

ORACLE_BUILD_TARGETS = [
    (_oracle_mod, "biconnected_components", "decomposition.bcc", None),
    (BCCDecomposition, "component_subgraph", "decomposition.bcc", None),
    (BCCDecomposition, "component_keep_mask", "decomposition.bcc", None),
    (_oracle_mod, "reduce_graph", "decomposition.reduce", reduce_sizes),
    (ReducedGraph, "simple_graph", "decomposition.reduce", None),
    (_oracle_mod, "all_pairs", "sssp.engine", engine_units),
]
ORACLE_QUERY_TARGETS = [
    (ReducedDistanceOracle, "query_many", "apsp.bulk_query", None),
]


def oracle_reference(g, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs with an endpoint among the first pairs' sources, and their distances.

    The sources are the first ``ORACLE_REF_ROWS`` pairs' ``u``, so at least
    that many of the uniform random pairs are checked against the
    pure-Python ``dijkstra``, plus every other pair that shares a source.
    """
    rows = {s: dijkstra(g, s) for s in pairs[:ORACLE_REF_ROWS, 0].tolist()}
    idx, want = [], []
    for k, (u, v) in enumerate(pairs.tolist()):
        for a, b in ((u, v), (v, u)):
            if a in rows:
                idx.append(k)
                want.append(rows[a][b])
                break
    return np.array(idx), np.array(want)


def build_oracles(arrays, ops: Ops, traced: bool, setup: list, graph_s: list):
    """One set-up: every CSRGraph and its ``ReducedDistanceOracle``.

    Returns ``(graphs, oracles)``, ``oracles`` None when a build raised.
    """
    first = len(ops.tracer.spans)
    graphs, t_graphs = build_graphs(arrays, ops.tracer if traced else None)
    with ops.tracer.install(ORACLE_BUILD_TARGETS if traced else []):
        oracles = [
            ops.guarded(f"build:{c.name}", lambda g=g: ReducedDistanceOracle(g),
                        traced, layer="apsp.oracle_index")
            for c, g in zip(ORACLE_CELLS, graphs)
        ]
    if any(o is None for o in oracles):
        return graphs, None
    if traced:
        graph_s.append(ops.tracer.layer_self_ns(first).get("graph", 0) / 1e9)
    else:
        setup.append(t_graphs + sum(ops.plain[f"build:{c.name}"][-1]
                                    for c in ORACLE_CELLS))
    return graphs, oracles


def oracle_serve(seed: int, seconds: float, trace: bool) -> dict:
    """Closed-loop client: per graph, one ``query_many`` batch, then ``query``.

    Every pass asks each graph's oracle the same ``BATCH`` uniform random
    pairs, first as one ``query_many`` batch and then one ``query(u, v)``
    call at a time, each call waiting for the previous one.  The run is cut
    into ``ORACLE_SEGMENTS`` segments that each start with a fresh set-up
    (graphs and oracles), so set-up samples span the run; in a traced run
    each set-up is paired with a traced one.

    A pair's latency is its fastest ``query(u, v)`` call over the run, and
    the typical and tail latencies are the p50 and p99 over all pairs: how
    the closed forms' cost spreads over pair classes, without the host's
    preemptions, which hit a ~10 us call at random.  Throughput is
    ``BATCH`` pairs over each graph's fastest batch.
    """
    arrays = generate(ORACLE_CELLS, seed)
    rng = np.random.default_rng(seed)
    pairs = [rng.integers(0, a[0], size=(BATCH, 2)) for a in arrays]
    pair_lists = [p.tolist() for p in pairs]
    ops = Ops()
    setup, graph_s = [], []
    refs = None
    best_us = [np.full(BATCH, np.inf) for _ in ORACLE_CELLS]
    call_ns = np.empty(BATCH, dtype=np.float64)
    out = np.empty(BATCH, dtype=np.float64)
    before = obs_metrics.snapshot("bulk_query.")
    for seg in range(ORACLE_SEGMENTS):
        # The second build of a pair runs warm; alternate which one that is.
        for traced in ((seg % 2 == 1, seg % 2 == 0) if trace else (False,)):
            graphs, oracles = build_oracles(arrays, ops, traced, setup, graph_s)
            if oracles is None:
                return dict(ops=ops, e2e=None)
        if refs is None:
            refs = [oracle_reference(g, p) for g, p in zip(graphs, pairs)]
        for traced in passes(seconds / ORACLE_SEGMENTS, trace):
            with ops.tracer.install(ORACLE_QUERY_TARGETS if traced else []):
                for i, (c, o, p, (idx, want)) in enumerate(
                        zip(ORACLE_CELLS, oracles, pairs, refs)):
                    bulk = ops.guarded(f"batch:{c.name}", lambda o=o, p=p: o.query_many(p),
                                       traced, layer="apsp.bulk_query")
                    if bulk is None:
                        continue
                    for j, (u, v) in enumerate(pair_lists[i]):
                        t0 = time.perf_counter_ns()
                        out[j] = o.query(u, v)
                        call_ns[j] = time.perf_counter_ns() - t0
                    if not traced:
                        np.minimum(best_us[i], call_ns / 1e3, out=best_us[i])
                    ops.check(int((out != bulk).sum()),
                              f"oracle {c.name} single vs bulk", n=BATCH)
                    ops.check(not rows_match(bulk[idx], want),
                              f"oracle {c.name} vs dijkstra")
    bq = obs_metrics.metrics_diff(before, obs_metrics.snapshot("bulk_query."))

    best_batch_s = ops.fastest_s(f"batch:{c.name}" for c in ORACLE_CELLS)
    single_us = np.concatenate(best_us)
    p50, p99 = latency_pcts(single_us)
    res = {
        "setup_s": min(setup),
        "ok_frac": 1.0 - ops.failed / ops.attempted,
        "work_per_s": BATCH * len(ORACLE_CELLS) / sum(best_batch_s),
        "latency_us.typical": p50,
        "latency_us.tail": p99,
    }
    aliases = {
        "query.bulk_pairs_per_s": res["work_per_s"],
        "query.single_us.p50": p50,
        "query.single_us.p99": p99,
        "query.single_pairs": single_us.size,
        "query.single_repeats": len(ops.plain[f"batch:{ORACLE_CELLS[0].name}"]),
    }
    layers = None
    if trace:
        layers = layer_metrics(ops, graph_s)
        layers["apsp.table_bytes"] = sum(o.memory_bytes() for o in oracles)
        layers["apsp.same_component_frac"] = (
            bq["bulk_query.same_component_pairs"] / bq["bulk_query.pairs"])
    return dict(ops=ops, e2e=res, aliases=aliases, layers=layers, shape=None,
                cells=describe(ORACLE_CELLS, graphs), setup=setup)


def describe(cells: list[CellSpec], graphs) -> list[dict]:
    return [{"name": c.name, "n": g.n, "m": g.m, "bcc_target": c.bcc,
             "removal_target": c.removal} for c, g in zip(cells, graphs)]


WORKLOADS = {
    "apsp-d2-sweep": apsp_d2_sweep,
    "mcb-d2-sweep": mcb_d2_sweep,
    "oracle-serve": oracle_serve,
}
