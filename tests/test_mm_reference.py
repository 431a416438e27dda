"""Mehlhorn–Michail setup against the scalar reference loops, bit for bit.

The whole-array setup of ``MMContext`` must reproduce every field the
runners read — tree tables, the flat level schedule, the candidate family
and its weight order — exactly as the pair dict, the per-tree walk and the
per-(tree, edge) LCA loop in ``_mm_reference`` build them, and the
per-tree label pass must visit the same levels.
"""

import numpy as np
import pytest

from repro.decomposition import reduce_graph
from repro.graph import CSRGraph
from repro.mcb import depina_mcb, gf2, verify_cycle_basis
from repro.mcb.mehlhorn_michail import MMContext, mm_mcb
from repro.qa.strategies import corpus

from _mm_reference import reference_labels_for_tree, reference_setup

FIELDS = (
    "depth",
    "parent_eid",
    "parent_ep",
    "_flat_parent_ep",
    "cand_z",
    "cand_e",
    "cand_u",
    "cand_v",
    "cand_w",
    "cand_ep",
    "order",
)

# A zero-weight arc whose child has the lower id ties its parent's
# distance once the perturbation is off, so the reference's distance-order
# walk reads the parent's depth before setting it.
TIE = CSRGraph(5, [0, 0, 0, 2, 2, 3, 1, 1], [2, 3, 4, 3, 4, 4, 4, 2], [1, 1, 1, 1, 1, 1, 0, 1])

# Graphs on which the reference is known to be wrong, by name, with the
# reason; the differential skips them and regression tests cover them.
REFERENCE_DEFECTS = {
    "zero-weight-tie": "reference assigns depth in distance order, which "
    "misreads a parent that ties its child's distance (IndexError in its LCA walk)",
}


def _identical(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(g: CSRGraph, lca_filter: bool, perturb: bool) -> None:
    ctx = MMContext(g, lca_filter=lca_filter, perturb=perturb)
    ref = reference_setup(g, lca_filter=lca_filter, perturb=perturb)
    if ref is None:
        assert ctx.f == 0
        return
    for name in FIELDS:
        assert _identical(getattr(ctx, name), ref[name]), name
    assert len(ctx._flat_levels) == len(ref["_flat_levels"])
    for d, ((sel, par), (rsel, rpar)) in enumerate(zip(ctx._flat_levels, ref["_flat_levels"])):
        assert _identical(sel, rsel) and _identical(par, rpar), ("level", d)
    bits = np.random.default_rng(g.m).integers(0, 2, ctx.f).astype(bool)
    s_pad = ctx.witness_edge_bits(gf2.pack(bits))
    for zi in range(len(ctx.fvs)):
        expect = reference_labels_for_tree(ref, ctx.parent, zi, s_pad)
        assert _identical(ctx.labels_for_tree(zi, s_pad), expect), ("labels", zi)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("perturb", [True, False], ids=["perturb", "raw"])
@pytest.mark.parametrize("lca_filter", [True, False], ids=["lca", "all"])
def test_corpus_bit_identical(seed, lca_filter, perturb):
    for name, g in corpus(200, seed):
        for label, h in ((name, g), (f"{name}/reduced", reduce_graph(g).graph)):
            try:
                assert_matches_reference(h, lca_filter, perturb)
            except AssertionError as exc:
                raise AssertionError(f"{label}: {exc}") from exc


@pytest.mark.skip(reason=REFERENCE_DEFECTS["zero-weight-tie"])
def test_zero_weight_tie_bit_identical():
    assert_matches_reference(TIE, lca_filter=True, perturb=False)


def test_reference_defect_still_present():
    """The skip above stays honest: the reference really does crash there."""
    with pytest.raises(IndexError):
        reference_setup(TIE, lca_filter=True, perturb=False)


@pytest.mark.parametrize("lca_filter", [True, False], ids=["lca", "all"])
def test_zero_weight_tie_unperturbed(lca_filter):
    """Regression: a child tying its parent's distance once crashed setup."""
    cycles = mm_mcb(TIE, lca_filter=lca_filter, perturb=False)
    rep = verify_cycle_basis(TIE, cycles)
    assert rep.ok, rep.message
    assert rep.total_weight == sum(c.weight for c in depina_mcb(TIE)) == 11.0
    ctx = MMContext(TIE, lca_filter=lca_filter, perturb=False)
    assert ctx.depth.min() >= 0  # every vertex reachable, hop-count depths
