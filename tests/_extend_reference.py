"""Test-only reference for ``extend_reduced_distances``: the block form.

Writes ``inf`` over the whole ``n × n`` output, then fills the kept,
removed→kept and removed→removed blocks by ``np.ix_`` gathers and
scatters: the four ``{ℓ,r} × {ℓ,r}`` anchor crossings as broadcast
min-plus terms, and the along-chain distance ``|prefix(x) − prefix(y)|``
min-ed in under a ``|R|²`` same-chain mask.  This is the direct reading
of the Section 2.1.3 formulas; the differential tests assert that the
two-pass anchor postprocess in :mod:`repro.apsp.ear_apsp` reproduces it
bit for bit.  It lives only under ``tests/``.
"""

from __future__ import annotations

import numpy as np

from repro.decomposition.reduce import ReducedGraph


def reference_extend(red: ReducedGraph, s_r: np.ndarray) -> np.ndarray:
    """The full ``n × n`` matrix lifted from ``S^r`` block by block."""
    g = red.original
    n = g.n
    kept = red.kept_ids
    out = np.full((n, n), np.inf, dtype=np.float64)
    if kept.size:
        out[np.ix_(kept, kept)] = s_r
    removed = np.nonzero(~red.kept_mask)[0]
    if removed.size:
        ch = red.chain_of[removed]
        left = red.chain_left_rid[ch]
        right = red.chain_right_rid[ch]
        dl = red.dist_left[removed]
        dr = red.dist_right[removed]

        # Removed -> kept (and the symmetric kept -> removed block).
        d_rk = np.minimum(dl[:, None] + s_r[left, :], dr[:, None] + s_r[right, :])
        out[np.ix_(removed, kept)] = d_rk
        out[np.ix_(kept, removed)] = d_rk.T

        # Removed -> removed: four anchor crossings.
        d_rr = dl[:, None] + s_r[np.ix_(left, left)] + dl[None, :]
        np.minimum(d_rr, dl[:, None] + s_r[np.ix_(left, right)] + dr[None, :], out=d_rr)
        np.minimum(d_rr, dr[:, None] + s_r[np.ix_(right, left)] + dl[None, :], out=d_rr)
        np.minimum(d_rr, dr[:, None] + s_r[np.ix_(right, right)] + dr[None, :], out=d_rr)

        # Same-chain pairs may be closer along the chain itself:
        # ``dist_left`` is the per-vertex chain prefix, so the along-chain
        # distance is ``|prefix(x) − prefix(y)|`` — one masked minimum over
        # the whole removed × removed block instead of a per-chain loop.
        same_chain = ch[:, None] == ch[None, :]
        direct = np.abs(dl[:, None] - dl[None, :])
        np.minimum(d_rr, direct, out=d_rr, where=same_chain)
        out[np.ix_(removed, removed)] = d_rr
    np.fill_diagonal(out, 0.0)
    return out
