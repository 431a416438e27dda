"""Per-phase memory accounting: tracemalloc spans + exact table-byte models.

The paper's headline Table 1 claim is about *memory*, not only speed: the
ear-reduced APSP oracle stores ``O(a² + Σᵢ nᵢ²)`` distance entries instead
of the dense ``O(n²)`` matrix.  This module makes that claim measurable:

* :func:`memory_profiling` / :func:`memory_span` — per-phase memory spans
  mirroring :mod:`repro.obs.trace`: each span records the tracemalloc
  current-allocation delta, the allocation *peak* inside the span
  (segmented so nested spans attribute peaks correctly), and the process
  peak RSS where the platform exposes it.  Disabled mode is the same
  null-singleton contract as tracing — one global read, no allocation.
* :func:`table1_bytes` — the exact byte model of the oracle's distance
  tables (``a²`` articulation table, ``Σ nᵢ²`` per-component tables, the
  ear-*reduced* variant, and the dense ``n²`` matrix) computed from the
  decompositions alone, so it scales to full-size Table 1 stand-ins.
* :func:`measured_component_bytes` — the same split measured off an
  actually-built :class:`~repro.apsp.composition.ComponentTables` (real
  ``ndarray.nbytes``), which the pipeline drivers publish as
  ``memory.apsp.*`` gauges.

``peak_rss_bytes`` returns ``None`` rather than guessing on platforms
without ``resource`` (Windows); everything else is pure stdlib.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..apsp.composition import ComponentTables
    from ..graph.csr import CSRGraph

try:  # pragma: no cover - import guard exercised only on Windows
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = [
    "MemSpan",
    "MemoryProfile",
    "memory_profiling",
    "memory_span",
    "memory_profiling_enabled",
    "current_memory_profile",
    "peak_rss_bytes",
    "Table1Bytes",
    "table1_bytes",
    "measured_component_bytes",
    "format_bytes",
]


def peak_rss_bytes() -> int | None:
    """Process peak RSS in bytes, or ``None`` where unavailable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalised to bytes.  The value is a high-water mark for the whole
    process lifetime — useful as an upper envelope per phase, not a delta.
    """
    if _resource is None:
        return None
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(rss)
    return int(rss) * 1024


@dataclass(frozen=True)
class MemSpan:
    """One finished memory span (allocation accounting over an interval)."""

    name: str
    alloc_before: int  # tracemalloc current bytes at entry
    alloc_after: int   # tracemalloc current bytes at exit
    peak: int          # peak traced bytes observed inside the span
    rss_peak: int | None  # process peak RSS at exit (whole-process high-water)

    @property
    def delta(self) -> int:
        """Net traced bytes retained across the span (can be negative)."""
        return self.alloc_after - self.alloc_before


class MemoryProfile:
    """Accumulates finished :class:`MemSpan` records; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[MemSpan] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- peak segmentation --------------------------------------------- #
    # tracemalloc exposes one process-global peak, reset with reset_peak().
    # To attribute peaks per span, every reset point first folds the
    # prior segment's peak into the enclosing frame, so an outer span's
    # recorded peak is max(own segments, every child's peak).

    def _stack(self) -> list[int]:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _enter(self) -> int:
        cur, prior_peak = tracemalloc.get_traced_memory()
        st = self._stack()
        if st:
            st[-1] = max(st[-1], prior_peak)
        tracemalloc.reset_peak()
        st.append(0)
        return cur

    def _exit(self, name: str, alloc_before: int) -> MemSpan:
        cur, own_peak = tracemalloc.get_traced_memory()
        st = self._stack()
        child_peak = st.pop() if st else 0
        peak = max(own_peak, child_peak)
        tracemalloc.reset_peak()
        if st:
            st[-1] = max(st[-1], peak)
        sp = MemSpan(
            name=name,
            alloc_before=alloc_before,
            alloc_after=cur,
            peak=peak,
            rss_peak=peak_rss_bytes(),
        )
        with self._lock:
            self.spans.append(sp)
        return sp

    # -- views --------------------------------------------------------- #

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def by_name(self) -> dict[str, list[MemSpan]]:
        out: dict[str, list[MemSpan]] = {}
        with self._lock:
            for sp in self.spans:
                out.setdefault(sp.name, []).append(sp)
        return out

    def as_dict(self) -> dict:
        """JSON-ready per-name aggregate: count, summed delta, max peak."""
        out: dict = {}
        for name, spans in sorted(self.by_name().items()):
            rss = [sp.rss_peak for sp in spans if sp.rss_peak is not None]
            out[name] = {
                "count": len(spans),
                "delta_bytes": sum(sp.delta for sp in spans),
                "peak_bytes": max(sp.peak for sp in spans),
                "rss_peak_bytes": max(rss) if rss else None,
            }
        return out


class _NullMemSpan:
    """Shared no-op returned while memory profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullMemSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_MEM_SPAN = _NullMemSpan()


class _LiveMemSpan:
    __slots__ = ("_prof", "_name", "_before")

    def __init__(self, prof: MemoryProfile, name: str) -> None:
        self._prof = prof
        self._name = name
        self._before = 0

    def __enter__(self) -> "_LiveMemSpan":
        self._before = self._prof._enter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._prof._exit(self._name, self._before)
        return False


_profile: MemoryProfile | None = None
_profile_lock = threading.Lock()


def current_memory_profile() -> MemoryProfile | None:
    """The active profile, or ``None`` while memory profiling is disabled."""
    return _profile


def memory_profiling_enabled() -> bool:
    return _profile is not None


def memory_span(name: str):
    """Start a memory span; the same hot-path contract as ``obs.span``.

    Disabled (no active :func:`memory_profiling` block): one global read,
    one comparison, the shared null singleton.  Enabled: tracemalloc
    current/peak accounting plus peak RSS at exit.
    """
    prof = _profile
    if prof is None:
        return _NULL_MEM_SPAN
    return _LiveMemSpan(prof, name)


class memory_profiling:
    """Install a fresh :class:`MemoryProfile` for a ``with`` block.

    Starts ``tracemalloc`` if it is not already tracing and stops it again
    on exit only if this block started it, so nesting inside an external
    tracemalloc session is safe.  Nestable like ``obs.tracing``; yields
    the profile, which stays readable after the block closes.
    """

    def __init__(self, profile: MemoryProfile | None = None) -> None:
        self.profile = profile if profile is not None else MemoryProfile()
        self._prev: MemoryProfile | None = None
        self._started_tracing = False

    def __enter__(self) -> MemoryProfile:
        global _profile
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        with _profile_lock:
            self._prev = _profile
            _profile = self.profile
        return self.profile

    def __exit__(self, *exc) -> bool:
        global _profile
        with _profile_lock:
            _profile = self._prev
        if self._started_tracing:
            tracemalloc.stop()
        return False


# --------------------------------------------------------------------- #
# Exact byte accounting of the paper's distance tables (Table 1)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Table1Bytes:
    """Exact byte model of every distance-table layout in Table 1.

    All figures count *distance entries × dtype_bytes*; ``reduced_bytes``
    additionally counts the three per-removed-vertex anchor scalars
    (``left/right/offset``) the reduced oracle needs to answer queries for
    ear-removed vertices on the fly (Section 2.1.3).
    """

    name: str
    n: int
    m: int
    n_bcc: int
    n_articulation: int
    ap_bytes: int         # a² — the articulation-point table
    component_bytes: int  # Σ nᵢ² — per-BCC full tables
    reduced_bytes: int    # Σ (nᵢʳ² + 3·removedᵢ) — ear-reduced tables
    dense_bytes: int      # n² — the baseline full matrix
    dtype_bytes: int = 8

    @property
    def oracle_bytes(self) -> int:
        """The ``a² + Σ nᵢ²`` storage of the per-BCC oracle."""
        return self.ap_bytes + self.component_bytes

    @property
    def reduced_oracle_bytes(self) -> int:
        """Oracle storage when each component keeps only reduced tables."""
        return self.ap_bytes + self.reduced_bytes

    @property
    def saving_factor(self) -> float:
        return self.dense_bytes / self.oracle_bytes if self.oracle_bytes else float("inf")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "n_bcc": self.n_bcc,
            "n_articulation": self.n_articulation,
            "ap_bytes": self.ap_bytes,
            "component_bytes": self.component_bytes,
            "reduced_bytes": self.reduced_bytes,
            "dense_bytes": self.dense_bytes,
            "oracle_bytes": self.oracle_bytes,
            "reduced_oracle_bytes": self.reduced_oracle_bytes,
            "dtype_bytes": self.dtype_bytes,
        }


def table1_bytes(g: "CSRGraph", name: str = "", dtype_bytes: int = 8) -> Table1Bytes:
    """Compute every Table 1 byte column from the decompositions alone.

    Only biconnected components + degree-2 reduction run (near-linear);
    no distance tables are built, so this is safe at full dataset scale.
    ``dtype_bytes`` defaults to 8 to match the float64 tables the solvers
    actually produce (the paper's Table 1 uses 4-byte entries).
    """
    from ..decomposition.biconnected import biconnected_components
    from ..decomposition.reduce import reduce_graph

    bcc = biconnected_components(g)
    comp_entries = 0
    red_entries = 0
    for cid, verts in enumerate(bcc.component_vertices):
        comp_entries += int(verts.size) ** 2
        sub, _ = bcc.component_subgraph(g, cid)
        red = reduce_graph(sub, keep=bcc.component_keep_mask(sub, cid))
        red_entries += int(red.graph.n) ** 2 + 3 * red.n_removed
    a = int(bcc.is_articulation.sum())
    return Table1Bytes(
        name=name,
        n=g.n,
        m=g.m,
        n_bcc=bcc.count,
        n_articulation=a,
        ap_bytes=a * a * dtype_bytes,
        component_bytes=comp_entries * dtype_bytes,
        reduced_bytes=red_entries * dtype_bytes,
        dense_bytes=g.n * g.n * dtype_bytes,
        dtype_bytes=dtype_bytes,
    )


def measured_component_bytes(ct: "ComponentTables") -> dict:
    """Actual ``ndarray.nbytes`` held by a built component-table set.

    This is the *measured* counterpart of :func:`table1_bytes`: real
    storage of the per-component tables plus the articulation-point
    matrix, as built by :func:`repro.apsp.composition.build_component_tables`.
    """
    comp = sum(int(t.nbytes) for t in ct.tables)
    ap = int(ct.ap_matrix.nbytes)
    return {
        "component_table_bytes": comp,
        "ap_table_bytes": ap,
        "total_bytes": comp + ap,
    }


def publish_apsp_table_gauges(ct: "ComponentTables", n: int) -> dict:
    """Set the ``memory.apsp.*`` gauges from a built table set.

    Returns the measured dict for callers that also want the numbers.
    The dense figure uses the same 8-byte entries the tables hold, so the
    reduced-vs-dense comparison is entry-for-entry fair.
    """
    meas = measured_component_bytes(ct)
    _metrics.gauge("memory.apsp.component_table_bytes").set(meas["component_table_bytes"])
    _metrics.gauge("memory.apsp.ap_table_bytes").set(meas["ap_table_bytes"])
    _metrics.gauge("memory.apsp.oracle_bytes").set(meas["total_bytes"])
    _metrics.gauge("memory.apsp.dense_bytes").set(n * n * 8)
    return meas


def format_bytes(b: float) -> str:
    """Human-readable byte count (``1.5 KiB``, ``3.2 MiB``, …)."""
    b = float(b)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(b) < 1024.0 or unit == "GiB":
            return f"{b:.0f} {unit}" if unit == "B" else f"{b:.2f} {unit}"
        b /= 1024.0
    return f"{b:.2f} GiB"  # pragma: no cover - unreachable
