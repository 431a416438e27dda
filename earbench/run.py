"""Benchmark entry point: one workload, one seed, one process.

    python3 earbench/run.py --workload apsp-d2-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
metric names and units come from ``BENCHMARK.json``.  A human-readable
report goes to standard output, followed by one JSON line (the last line)
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record (host fingerprint, per-cell inputs, the paper-shape table) and,
for traced runs, a Chrome trace of every recorded span are written under
``.earbench/``.

End-to-end metrics are the same on every workload; what they count
depends on the workload:

================== ====================== ====================== ===================
metric             apsp-d2-sweep          mcb-d2-sweep           oracle-serve
================== ====================== ====================== ===================
work_per_s         distance pairs (n²)    basis cycles           ``query_many`` pairs
                   over fastest solves    over fastest solves    over fastest batches
latency_us.typical geomean over graphs of geomean over graphs of p50 over pairs of
                   fastest solve time     fastest solve time     fastest ``query``
latency_us.tail    whole sweep: sum over  whole sweep: sum over  p99 over pairs of
                   graphs of fastest      graphs of fastest      fastest ``query``
                   solve                  solve
setup_s            fastest CSRGraph build fastest CSRGraph build fastest CSRGraph +
                                                                 oracle build
================== ====================== ====================== ===================

"Fastest" is the fastest of an operation's repeats of identical work in
the run (see ``workloads.py``); set-up builds are spread over the run.

``ok_frac`` is the share of checked operations that passed (1 − fail_frac);
``peak_rss_mb`` is the process's peak resident set.  The report also prints
the workload's figures under their layer names (``apsp.pairs_per_s``,
``mcb.cycles_per_s``, ``query.single_us.p50`` ...).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".earbench"


def pin_environment() -> dict:
    """Cap BLAS/OpenMP threads at ``nproc`` and drop the program's env knobs."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, "1"))
        except ValueError:
            want = 1
        os.environ[var] = str(min(max(want, 1), nproc))
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for k in dropped:
        del os.environ[k]
    return {"nproc": nproc, "dropped_env": dropped}


def host_fingerprint(pinned: dict, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "nproc": pinned["nproc"],
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "dropped_env": pinned["dropped_env"],
        "seed": seed,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pinned = pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from repro.obs import validate_chrome_trace
    from workloads import WORKLOADS

    host = host_fingerprint(pinned, args.seed)
    # numpy seeds must be non-negative; any integer --seed maps onto one.
    r = WORKLOADS[args.workload](args.seed % 2**32, args.seconds, bool(args.trace))
    ops = r["ops"]
    problems = []
    if r["e2e"] is None:
        problems.append("setup failed")
    else:
        r["e2e"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        doc = ops.tracer.chrome_trace()
        problems += validate_chrome_trace(doc)
        (OUT / f"{stem}.trace.json").write_text(json.dumps(doc))

    kind = "per_layer" if args.trace else "end_to_end"
    values = {} if problems else (r["layers"] if args.trace else r["e2e"])
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec[kind] if m["name"] in values
    }
    if len(metrics) != len(spec[kind]):
        problems.append("missing metrics: " + ", ".join(
            m["name"] for m in spec[kind] if m["name"] not in metrics))

    print(f"earbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + json.dumps(host))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace and r["e2e"] is not None:
        print(f"  {'fail_frac':36s} {ops.failed / max(ops.attempted, 1):>16.6g} ratio")
        for name, v in r["aliases"].items():
            print(f"  {name:36s} {v:>16.6g}")
    for row in r.get("shape") or []:
        print("  shape " + " ".join(f"{k}={v:.4g}" for k, v in row.items()))
    for p in problems:
        print(f"  problem: {p}", file=sys.stderr)

    result = {
        "correct": ops.failed == 0 and not problems,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed if ops.attempted else 1,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "host": host, "result": result, "aliases": r.get("aliases"),
              "shape": r.get("shape"), "cells": r.get("cells"), "problems": problems,
              "setup": r.get("setup"), "timings": dict(ops.plain)}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
