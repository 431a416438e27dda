"""Per-query provenance: *why* the oracle answered what it answered.

The bulk query path (:class:`repro.apsp.bulk_query.BulkOracleIndex`)
classifies every pair into the paper's three-way decision tree — same
component (table lookup or Section 2.1.3 chain closed forms), cross
component (boundary articulation points, Section 2.2), unreachable — and
resolves each class with a different formula.  This module is the
opt-in *explain* record for that classification: which class a pair
landed in, which component(s) it touched, which boundary APs bracketed
it, and which concrete formula produced the number.

Capture is structured so the distance arithmetic is untouched: the
resolver only *writes attribution arrays* next to the existing masks, so
``explain_many`` distances are bit-identical to ``query_many`` — asserted
across the qa adversarial corpus by the ``qa.differential`` oracle
registrations (``oracle-bulk`` / ``reduced-oracle-bulk``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import metrics as _metrics

__all__ = [
    "PAIR_CLASSES",
    "RESOLVER_NAMES",
    "BatchProvenance",
    "QueryProvenance",
]

# Pair-class codes (int8).  C_UNREACHABLE is the zero default so a pair
# no mask ever claims reports honestly.
C_UNREACHABLE = 0
C_SELF = 1
C_SAME = 2
C_CROSS = 3

#: Class code → public name.  ``same`` refines to ``same-chain`` when the
#: resolver is the pure chain closed form (see :data:`RESOLVER_NAMES`).
PAIR_CLASSES = ("unreachable", "self", "same-bcc", "cross-bcc")

# Resolver codes (int8): the concrete formula that produced the distance.
R_NONE = 0            # unreachable — nothing resolved it
R_IDENTITY = 1        # u == v
R_TABLE = 2           # dense per-component Dijkstra table gather
R_CHAIN_ENDPOINT = 3  # §2.1.3: one endpoint reduced onto a chain
R_CHAIN_CHAIN = 4     # §2.1.3: both reduced, min over 4 anchor routes
R_SAME_CHAIN = 5      # §2.1.3: both on one chain, |d_left(u) - d_left(v)| won
R_AP_SHARED = 6       # both-AP pair answered by the shared-block min
R_AP_BRIDGE = 7       # §2.2: d(u,a1) + A[a1,a2] + d(a2,v)

#: Resolver code → public name (indexable by the int8 code).
RESOLVER_NAMES = (
    "none",
    "identity",
    "table",
    "chain-endpoint",
    "chain-chain",
    "same-chain",
    "ap-shared",
    "ap-bridge",
)

_C_EXPLAINS = _metrics.counter("provenance.explains")
_C_PAIRS = _metrics.counter("provenance.pairs")


@dataclass(frozen=True)
class QueryProvenance:
    """One explained query: the answer plus its full attribution."""

    u: int
    v: int
    distance: float
    pair_class: str
    resolver: str
    component: int          # resolving component id (-1 when not one component)
    comp_u: int             # home component of u (-1 for APs / non-members)
    comp_v: int
    boundary_aps: tuple[int, int] | None  # (a1, a2) vertex ids for cross pairs
    batch_sizes: dict       # per-class pair counts of the batch this rode in

    def digest(self) -> str:
        """Stable 12-hex fingerprint of the attribution (exemplar linkage)."""
        dist_key = (
            "inf" if np.isinf(self.distance) else float(self.distance).hex()
        )
        key = "|".join(
            (
                str(self.u),
                str(self.v),
                dist_key,
                self.pair_class,
                self.resolver,
                str(self.component),
                str(self.boundary_aps or ""),
            )
        )
        return hashlib.sha1(key.encode()).hexdigest()[:12]

    def as_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "distance": self.distance,
            "pair_class": self.pair_class,
            "resolver": self.resolver,
            "component": self.component,
            "comp_u": self.comp_u,
            "comp_v": self.comp_v,
            "boundary_aps": (
                list(self.boundary_aps) if self.boundary_aps is not None else None
            ),
            "batch_sizes": dict(self.batch_sizes),
            "digest": self.digest(),
        }


class BatchProvenance:
    """Attribution arrays for one ``explain_many`` batch.

    Filled in place by :meth:`BulkOracleIndex._resolve` alongside the
    distance computation; every array is per-pair and indexable by the
    original pair position.
    """

    __slots__ = (
        "pairs", "distances", "cls", "resolver",
        "component", "comp_u", "comp_v", "ap1", "ap2",
    )

    def __init__(self, pairs: np.ndarray) -> None:
        k = pairs.shape[0]
        self.pairs = pairs
        self.distances = np.full(k, np.inf, dtype=np.float64)
        self.cls = np.zeros(k, dtype=np.int8)          # C_UNREACHABLE default
        self.resolver = np.zeros(k, dtype=np.int8)     # R_NONE default
        self.component = np.full(k, -1, dtype=np.int64)
        self.comp_u = np.full(k, -1, dtype=np.int64)
        self.comp_v = np.full(k, -1, dtype=np.int64)
        self.ap1 = np.full(k, -1, dtype=np.int64)      # boundary AP vertex ids
        self.ap2 = np.full(k, -1, dtype=np.int64)

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def class_sizes(self) -> dict:
        """Per-class pair counts for this batch (public class names)."""
        counts = np.bincount(self.cls, minlength=len(PAIR_CLASSES))
        sizes = {
            PAIR_CLASSES[code]: int(counts[code])
            for code in range(len(PAIR_CLASSES))
            if counts[code]
        }
        n_chain = int(np.count_nonzero(self.resolver == R_SAME_CHAIN))
        if n_chain:
            sizes["same-chain"] = n_chain
        return sizes

    def pair_class_name(self, i: int) -> str:
        """Public class name for pair ``i`` (``same-chain`` refined)."""
        code = int(self.cls[i])
        if code == C_SAME and int(self.resolver[i]) == R_SAME_CHAIN:
            return "same-chain"
        return PAIR_CLASSES[code]

    def record(self, i: int) -> QueryProvenance:
        """Materialise pair ``i`` as a :class:`QueryProvenance`."""
        i = int(i)
        if not 0 <= i < len(self):
            raise IndexError(f"pair index {i} outside batch of {len(self)}")
        aps = None
        if self.ap1[i] >= 0:
            aps = (int(self.ap1[i]), int(self.ap2[i]))
        return QueryProvenance(
            u=int(self.pairs[i, 0]),
            v=int(self.pairs[i, 1]),
            distance=float(self.distances[i]),
            pair_class=self.pair_class_name(i),
            resolver=RESOLVER_NAMES[int(self.resolver[i])],
            component=int(self.component[i]),
            comp_u=int(self.comp_u[i]),
            comp_v=int(self.comp_v[i]),
            boundary_aps=aps,
            batch_sizes=self.class_sizes(),
        )

    def records(self) -> list[QueryProvenance]:
        return [self.record(i) for i in range(len(self))]


def count_explain(pairs: int) -> None:
    """Bump the provenance counters for one explain batch."""
    _C_EXPLAINS.inc()
    _C_PAIRS.inc(int(pairs))
