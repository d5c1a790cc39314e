import pytest

from cihom import homology
from cihom.constructions import (
    InvalidSplitError,
    TorsionInputError,
    pushforward,
    quasi_lifting,
)
from cihom.fields import PrimeField
from cihom.fmodules import ModulePresentation, equal_hilbert_functions
from cihom.homology import tor_profile
from cihom.oracle import map_kernel_cokernel_oracle, module_hilbert_oracle
F = PrimeField(32003)


def test_pushforward_of_free(ring_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,), label="free")
    pf = pushforward(free)
    assert pf.m == 1
    assert pf.M1.is_zero_module()
    assert all(pf.certificate.values())


def test_pushforward_node(ring_node, node_pair):
    Mx, My = node_pair
    pf = pushforward(Mx)
    assert pf.m == 1
    assert all(pf.certificate.values())
    # M1 is R/(y) up to twist: same normalized Hilbert data
    m1 = pf.M1.minimalize()
    twist = m1.gen_degs[0]
    assert equal_hilbert_functions(m1, My.twist(twist), 8)
    # independent oracle check of injectivity and the cokernel values
    kdims, cdims = map_kernel_cokernel_oracle(pf.u, pf.M,
                                              ModulePresentation.free(ring_node, pf.free_degs),
                                              6)
    assert all(v == 0 for v in kdims.values())
    m1_dims = module_hilbert_oracle(m1, 6)
    assert cdims == m1_dims


def test_pushforward_preserves_mcm(mod_M_two_nodes):
    pf = pushforward(mod_M_two_nodes)
    assert all(pf.certificate.values())
    m1 = pf.M1.minimalize()
    assert m1.n_gens == 0 or m1.is_maximal_cohen_macaulay()


def test_pushforward_m_counts_dual_generators(mod_M_two_nodes):
    pf = pushforward(mod_M_two_nodes)
    dual = mod_M_two_nodes.dual().minimalize()
    assert pf.m == dual.n_gens


def test_dual_generators_are_computed_once(mod_quadric, monkeypatch):
    # pushforward reads the dual generators of the minimal presentation twice,
    # through the torsion-free test and for the embedding u, and computes
    # them once; its kernel_zero certificate is the torsion-free test's
    # kernel of the same u, so the kernel of u is taken once.  The other
    # minimal-cycle pass is the middle homology of M -> R^(m) -> M1.
    from cihom import fmodules
    Mq = ModulePresentation(mod_quadric.ring, mod_quadric.gen_degs, mod_quadric.relations,
                            label="Mq").minimalize()
    calls = {"dual": 0, "ker": 0, "middle": 0}
    real_syz, real_cycles = fmodules.syzygy_generators, homology.minimal_cycles

    def counting_syz(*args, **kwargs):
        calls["dual"] += 1
        return real_syz(*args, **kwargs)

    def counting_cycles(*args, **kwargs):
        calls[kwargs["label"]] += 1
        return real_cycles(*args, **kwargs)

    monkeypatch.setattr(fmodules, "syzygy_generators", counting_syz)
    monkeypatch.setattr(homology, "minimal_cycles", counting_cycles)
    pf = pushforward(Mq)
    assert all(pf.certificate.values()) and pf.m == Mq.dual_generators().ncols
    assert calls == {"dual": 1, "ker": 1, "middle": 1}


def test_pushforward_serre_drop(mod_M_two_nodes):
    # level-n depth condition drops by one along a pushforward
    pf = pushforward(mod_M_two_nodes)
    m1 = pf.M1.minimalize()
    if m1.n_gens:
        for n in (2,):
            if mod_M_two_nodes.satisfies_serre(n):
                assert m1.satisfies_serre(n - 1)


def test_pushforward_rejects_torsion(ring_node):
    pr = ring_node.poly_ring
    x, y = pr.variable("x"), pr.variable("y")
    k = ModulePresentation.quotient_by_ideal(ring_node, [x, y], label="k")
    with pytest.raises(TorsionInputError):
        pushforward(k)


def test_pushforward_chain_free(ring_two_nodes):
    # M = R, then M1 = 0, whose pushforward is 0 again
    free = ModulePresentation.free(ring_two_nodes, (0,), label="free")
    pf = pushforward(free)
    pf1 = pushforward(pf.M1.minimalize())
    assert [free.minimalize().n_gens, pf.M1.minimalize().n_gens,
            pf1.M1.minimalize().n_gens] == [1, 0, 0]


def test_pushforward_chain_two_nodes(mod_M_two_nodes):
    # M, then its pushforward M1: each step is exact and keeps M1 MCM
    pf = pushforward(mod_M_two_nodes)
    for step in (pf, pushforward(pf.M1.minimalize())):
        assert all(step.certificate.values())
        m1 = step.M1.minimalize()
        assert m1.n_gens == 0 or m1.is_maximal_cohen_macaulay()


def test_quasi_lifting_node(ring_node):
    pr = ring_node.poly_ring
    x, y = pr.variable("x"), pr.variable("y")
    Mx = ModulePresentation.quotient_by_ideal(ring_node, [x], label="Mx")
    ql = quasi_lifting(Mx, 0)
    assert all(ql.certificate.values())
    assert ql.E_min.is_free()
    assert ql.depth_check == {"depth_lift": 2, "depth_pushforward": 1, "holds": True}
    assert ql.free_off_split["ok"]
    assert ql.intermediate.codim == 0


def test_quasi_lifting_two_nodes(mod_M_two_nodes, ring_two_nodes):
    ql = quasi_lifting(mod_M_two_nodes, 0)
    assert all(ql.certificate.values())
    assert ql.depth_check["holds"]
    assert ql.intermediate.codim == 1
    assert ql.free_off_split["ok"]


def test_quasi_lifting_builds_the_nonfree_locus_once(mod_N_two_nodes, monkeypatch):
    # one Ext^1(E, syz^1 E) entry gives both the free-locus test and its
    # Fitting ideal
    calls = []
    real = homology.HomologyEntry.__init__

    def counting(self, index, cx, degree_bound):
        calls.append(cx.label(index)[:3])
        real(self, index, cx, degree_bound)

    monkeypatch.setattr(homology.HomologyEntry, "__init__", counting)
    N = mod_N_two_nodes
    ql = quasi_lifting(ModulePresentation(N.ring, N.gen_degs, N.relations, label="N"), 0)
    assert not ql.E_min.is_free()
    assert ql.free_off_split["ok"]
    assert calls == ["Ext"]


def test_quasi_lifting_change_of_rings(mod_M_two_nodes):
    # Tor over R of (E/fE, N) has the graded data of Tor over S' of (E, F)
    M = mod_M_two_nodes
    N = mod_M_two_nodes
    ql_M = quasi_lifting(M, 0)
    ql_N = ql_M if N is M else quasi_lifting(N, 0)
    ring = M.ring
    E_over_R = ModulePresentation(ring, ql_M.E.gen_degs, ql_M.E.relations,
                                  label="E/fE")
    lhs = tor_profile(E_over_R, N, 3, 6)
    rhs = tor_profile(ql_M.E, ql_N.E, 3, 6)
    for i in range(1, 4):
        assert lhs.entry(i).normalized_hilbert() == rhs.entry(i).normalized_hilbert(), i
        assert lhs.entry(i).vanishes == rhs.entry(i).vanishes


def test_quasi_lifting_invalid_split(mod_M_two_nodes):
    with pytest.raises(InvalidSplitError):
        quasi_lifting(mod_M_two_nodes, 5)


def test_quasi_lifting_of_free_degenerates(ring_node):
    free = ModulePresentation.free(ring_node, (0,), label="free")
    ql = quasi_lifting(free, 0)
    assert all(ql.certificate.values())
    assert ql.M1.is_zero_module()
    assert ql.E_min.is_free()
