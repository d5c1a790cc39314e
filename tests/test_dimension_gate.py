"""The dimension gate of the depth-type verdicts against the full path.

A nonzero module M with dim M < dim R is refused (S_n), torsion-freeness and
maximal Cohen-Macaulayness from its Hilbert series, and a module of
dimension 0 gets depth 0, with no ambient resolution, Ext module or dual
built.  The references here take every verdict from the ambient resolution
(``projective_dimension_ambient``) and the Ext_S dimensions
(``ext_ambient_dimensions``) alone.  No check rests on an ``assert`` inside
``src``, so the file runs the same under ``python -O``:

    PYTHONPATH=src python -O -m pytest -q tests/test_dimension_gate.py
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cihom import homology
from cihom.constructions import TorsionInputError, pushforward
from cihom.fmodules import ModulePresentation
from cihom.rings import INF
from cihom.search import random_homogeneous_module


def _reference_depth(M):
    """dim S - pd_S M from the ambient resolution; inf for zero."""
    M = M.minimalize()
    if M.n_gens == 0:
        return INF
    return M.ring.poly_ring.nvars - M.projective_dimension_ambient()


def _reference_serre_condition(M, n):
    """serre_condition(n) read from every Ext_S dimension, the loop that
    ran before any gate."""
    M = M.minimalize()
    if M.n_gens == 0:
        return {"holds": True, "level": n, "witness": None}
    dS = M.ring.poly_ring.nvars
    for j, dj in homology.ext_ambient_dimensions(M).items():
        if j > M.ring.codim and dj > dS - j - n:
            return {"holds": False, "level": n,
                    "witness": {"j": j, "support_dim": dj, "bound": dS - j - n}}
    return {"holds": True, "level": n, "witness": None}


def _assert_gate_matches_the_full_path(M):
    want = {n: _reference_serre_condition(M, n) for n in (1, 2, 3)}
    for n, condition in want.items():
        assert M.serre_condition(n) == condition, (M, n)
        assert M.satisfies_serre(n) == condition["holds"], (M, n)
    depth = _reference_depth(M)
    assert M.depth() == depth, M
    # over a certified complete intersection, torsion-free is (S_1)
    assert M.is_torsion_free() == want[1]["holds"], M
    assert M.is_maximal_cohen_macaulay() == (depth == M.ring.dimension()), M


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["quadric", "two_nodes", "node"]),
       st.sampled_from(["f32003", "f3", "rational"]), st.booleans())
def test_gated_verdicts_match_the_full_path(rings_over, seed, which, tag, syzygy):
    # random modules are mostly of dimension below dim R, so the gate
    # decides them; their first syzygies are torsion-free, so of full
    # dimension, and take the full path.
    node, two_nodes, quadric = rings_over(tag)
    ring = {"quadric": quadric, "two_nodes": two_nodes, "node": node}[which]
    rng = random.Random(seed)
    M = random_homogeneous_module(ring, rng, 2, rng.randint(1, 2), label="A")
    _assert_gate_matches_the_full_path(M.first_syzygy() if syzygy else M)


def _lower_dimensional_modules(ring):
    """k and R/(l), l the sum of the variables (a nonzerodivisor on each
    ring): nonzero, of dimension 0 and dim R - 1."""
    pr = ring.poly_ring
    gens = [pr.variable(v) for v in pr.variables]
    return [ModulePresentation.quotient_by_ideal(ring, gens, label="k"),
            ModulePresentation.quotient_by_ideal(ring, [sum(gens[1:], gens[0])], label="R/(l)")]


@pytest.mark.parametrize("which", ["quadric", "two_nodes", "node"])
def test_a_lower_dimensional_module_builds_no_resolution_ext_or_dual(
        monkeypatch, rings_over, which):
    node, two_nodes, quadric = rings_over("f32003")
    ring = {"quadric": quadric, "two_nodes": two_nodes, "node": node}[which]
    calls = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ModulePresentation, "projective_dimension_ambient",
                        counting("pd", ModulePresentation.projective_dimension_ambient))
    monkeypatch.setattr(ModulePresentation, "_dual_cycles",
                        counting("dual", ModulePresentation._dual_cycles))
    monkeypatch.setattr(homology, "ext_ambient_dimensions",
                        counting("ext", homology.ext_ambient_dimensions))
    for M in _lower_dimensional_modules(ring):
        dim = M.dimension()
        assert dim in (0, ring.dimension() - 1), M
        for n in (1, 2, 3):
            assert not M.satisfies_serre(n)
            assert M.serre_condition(n) == {
                "holds": False, "level": n,
                "witness": {"j": ring.poly_ring.nvars - dim, "support_dim": dim,
                            "bound": dim - n}}
        assert not M.is_torsion_free()
        with pytest.raises(TorsionInputError) as err:
            pushforward(M)
        assert err.value.kernel is M.minimalize()
        assert not M.is_maximal_cohen_macaulay()
        if dim == 0:
            assert M.depth() == 0
    assert calls == []
