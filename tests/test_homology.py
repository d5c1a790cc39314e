import pytest

from cihom.fields import PrimeField
from cihom.fmodules import ModulePresentation, PolyMatrix, equal_hilbert_functions
from cihom.homology import (
    depth_formula_check,
    ext_modules,
    ext_profile,
    kernel_of_map,
    ring_depth,
    tor_profile,
)
from cihom.polynomials import PolyRing
from cihom.rings import RingPresentation

F = PrimeField(32003)


# -- Tor ------------------------------------------------------------------------

def test_tor_gap_pattern(mod_M_two_nodes, mod_N_two_nodes):
    prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 5)
    assert [prof.vanishes(i) for i in range(1, 6)] == [True, True, False, True, False]


def test_tor_periodic_values(periodic_pair):
    M, N = periodic_pair
    prof = tor_profile(M, N, 4)
    e1 = prof.entry(1)
    assert not e1.vanishes
    assert e1.normalized_hilbert()[:4] == (1, 1, 1, 1)
    assert e1.depth == 1
    assert prof.vanishes(2)
    assert not prof.vanishes(3)


def test_tor_of_free_module(ring_two_nodes, mod_N_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,))
    prof = tor_profile(free, mod_N_two_nodes, 3)
    assert prof.all_vanish_in_window()
    assert prof.vanishing["tier"] == "pd-finite"


def test_tor_symmetry_on_catalog(mod_M_two_nodes, mod_N_two_nodes, periodic_pair):
    pairs = [(mod_M_two_nodes, mod_N_two_nodes), periodic_pair]
    for M, N in pairs:
        left = tor_profile(M, N, 4)
        right = tor_profile(M, N, 4, side="right")
        for i in range(1, 5):
            a, b = left.entry(i), right.entry(i)
            assert a.vanishes == b.vanishes
            assert a.normalized_hilbert() == b.normalized_hilbert()
            assert a.depth == b.depth and a.dim == b.dim


def test_tor_rejects_an_unknown_side(mod_M_two_nodes):
    with pytest.raises(ValueError, match="side must be left or right"):
        tor_profile(mod_M_two_nodes, mod_M_two_nodes, 2, side="bogus")


def test_tor0_matches_tensor(mod_M_two_nodes, mod_N_two_nodes):
    prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 2)
    tensor = mod_M_two_nodes.tensor(mod_N_two_nodes)
    assert prof.tor0.hilbert == tensor.minimalize().hilbert_function(
        prof.degree_bound, dmin=min(0, prof.tor0.initial_degree or 0))


def test_rigidity_replay_on_catalog(mod_quadric, ring_two_nodes,
                                    mod_M_two_nodes, mod_N_two_nodes):
    # wherever codim+1 consecutive Tor vanish, all later ones in the window do
    for M, N, bound in ((mod_quadric, mod_quadric, 8),
                        (mod_M_two_nodes, mod_N_two_nodes, 5)):
        c = M.ring.codim
        prof = tor_profile(M, N, bound)
        flags = [prof.vanishes(i) for i in range(1, bound + 1)]
        for start in range(len(flags) - c):
            if all(flags[start:start + c + 1]):
                assert all(flags[start:]), (M.label, start)


def test_even_odd_replay_3_11(mod_M_two_nodes, mod_N_two_nodes):
    prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 6)
    assert prof.vanishes(1) and prof.vanishes(2)
    for i in range(2, 7, 2):
        assert prof.vanishes(i)


def test_period_two_evidence_3_14(periodic_pair):
    M, N = periodic_pair
    prof = tor_profile(M, N, 8)
    for rec in prof.periodicity:
        assert rec["equal"], rec


# -- Ext ------------------------------------------------------------------------

def test_ext_of_free_module(ring_two_nodes, mod_N_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,))
    entries = ext_profile(free, mod_N_two_nodes, 3)
    assert all(e.vanishes for e in entries)


def test_ext_residue_field_over_ambient():
    pr = PolyRing(F, ["x", "y", "z"])
    S = RingPresentation(pr, [], label="S")
    gens = [pr.variable(v) for v in pr.variables]
    k = ModulePresentation.quotient_by_ideal(S, gens, label="k")
    free = ModulePresentation.free(S, (0,))
    mods = ext_modules(k, free, 1, 3)
    assert mods[1].minimalize().n_gens == 0
    assert mods[2].minimalize().n_gens == 0
    assert mods[3].minimalize().n_gens == 1  # top static spot = dim S


def test_ext1_against_first_syzygy_two_nodes(mod_M_two_nodes, ring_two_nodes):
    ext1 = ext_modules(mod_M_two_nodes, mod_M_two_nodes.first_syzygy(), 1, 1)[1]
    m = ext1.minimalize()
    assert m.n_gens > 0
    assert ring_two_nodes.dimension() - m.dimension() == 1


# -- depth formula -----------------------------------------------------------------

def test_depth_formula_quadric(mod_quadric):
    rep = depth_formula_check(mod_quadric, mod_quadric, 10)
    assert rep.holds and rep.asserted and rep.tier == "pd-finite"
    assert (rep.depth_M, rep.depth_N, rep.depth_ring, rep.depth_tensor) == (2, 2, 3, 1)


def test_depth_formula_trivial_ring(ring_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,))
    rep = depth_formula_check(free, free, 3)
    assert rep.holds and rep.asserted


def test_depth_formula_declined_without_vanishing(periodic_pair):
    M, N = periodic_pair
    rep = depth_formula_check(M, N, 4)
    assert not rep.hypothesis_met
    assert not rep.asserted


def test_ring_depth(ring_two_nodes, ring_quadric):
    assert ring_depth(ring_two_nodes) == 2
    assert ring_depth(ring_quadric) == 3


# -- kernel of a map ------------------------------------------------------------------

def test_kernel_of_zero_map(mod_N_two_nodes, ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    N = mod_N_two_nodes.minimalize()
    psi = PolyMatrix.zero(pr, N.gen_degs, N.gen_degs)
    ker = kernel_of_map(psi, N, N)
    assert equal_hilbert_functions(ker, N, 8)


def test_kernel_of_identity(mod_N_two_nodes, ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    N = mod_N_two_nodes.minimalize()
    psi = PolyMatrix.identity(pr, N.gen_degs)
    assert kernel_of_map(psi, N, N).minimalize().n_gens == 0


def test_kernel_of_injective_multiplication(ring_node):
    # multiplication by x on R/(y) over k[x,y]/(xy) is injective
    pr = ring_node.poly_ring
    x, y = pr.variable("x"), pr.variable("y")
    My = ModulePresentation.quotient_by_ideal(ring_node, [y], label="My")
    shifted = My.twist(1)
    psi = PolyMatrix(pr, (0,), (1,), [[x]])
    ker = kernel_of_map(psi, shifted, My).minimalize()
    assert ker.n_gens == 0
    # cross-check through the dense linear-algebra path
    from cihom.oracle import map_kernel_cokernel_oracle
    kdims, _ = map_kernel_cokernel_oracle(psi, shifted, My, 6)
    assert all(v == 0 for v in kdims.values())


def test_shifted_depth_formula_at_top_index(ring_node3):
    # finite projective dimension with a nonzero top Tor: the shifted form
    # depth M + depth N = depth R + depth(Tor_q) - q at q = sup
    pr = ring_node3.poly_ring
    z = pr.variable("z")
    M = ModulePresentation.quotient_by_ideal(ring_node3, [z], label="M")
    rep = depth_formula_check(M, M, 6)
    sf = rep.shifted_form
    assert sf is not None and sf["q"] == 1
    if sf["applicable"]:
        assert sf["holds"] is True


def test_shifted_depth_formula_total_vanishing(mod_quadric):
    rep = depth_formula_check(mod_quadric, mod_quadric, 10, 6)
    sf = rep.shifted_form
    assert sf == {"q": 0, "depth_tor_q": 1, "applicable": True, "holds": True}


def test_tensor_symmetry_hilbert(mod_M_two_nodes, mod_N_two_nodes):
    left = mod_M_two_nodes.tensor(mod_N_two_nodes)
    right = mod_N_two_nodes.tensor(mod_M_two_nodes)
    assert equal_hilbert_functions(left, right, 8)
