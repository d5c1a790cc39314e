import functools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cihom import catalog
from cihom.fields import PrimeField, RationalField, field_by_tag
from cihom.fmodules import ModulePresentation, PolyMatrix, equal_hilbert_functions
from cihom.groebner import FreeModule, TrackedSubmodule
from cihom.constructions import TorsionInputError, pushforward
from cihom.homology import (ext_ambient_dimensions, minimal_cycles, ring_depth,
                            subquotient_presentation)
from cihom.polynomials import (
    GradedViolationError,
    IncompatibleOperandsError,
    PolyRing,
    monomials_of_degree,
)
from cihom.resolutions import resolve
from cihom.rings import INF, HypothesisMissingError, RingPresentation
from cihom.search import random_homogeneous_module
import reference
from reference import lift

F = PrimeField(32003)


# -- minimalize --------------------------------------------------------------

def test_minimalize_unit_relation_kills_generator(ring_two_nodes):
    M = ModulePresentation.from_relations(ring_two_nodes, (0,),
                                          [[ring_two_nodes.poly_ring.one()]])
    assert M.is_zero_module()


def test_minimalize_keeps_nonunit_presentation(mod_M_two_nodes):
    m = mod_M_two_nodes.minimalize()
    assert m.n_gens == 1 and m.n_rels == 2


def test_minimalize_unit_row_elimination(ring_two_nodes):
    # R (+) coker[y u], padded with a redundant generator h = y * (free gen):
    # the unit entry in h's defining relation must get pruned away.
    pr = ring_two_nodes.poly_ring
    y, u = pr.variable("y"), pr.variable("u")
    zero, one = pr.zero(), pr.one()
    M = ModulePresentation.from_relations(
        ring_two_nodes, (0, 0, 1),
        [[y, zero, -one], [zero, y, zero], [zero, u, zero]])
    m = M.minimalize()
    assert m.n_gens == 2 and m.n_rels == 2
    plain = ModulePresentation.from_relations(ring_two_nodes, (0, 0),
                                              [[zero, y], [zero, u]])
    assert equal_hilbert_functions(m, plain)


def test_minimalize_over_the_rationals_stays_exact():
    # The unit 3 is eliminated through its inverse, which must be the exact
    # Fraction 1/3 even though pq.constant(3) holds the int 3, not a float.
    pq = PolyRing(RationalField(), ["x", "y"])
    x, y = pq.variable("x"), pq.variable("y")
    ring = RingPresentation(pq, [], label="k[x,y]")
    m = ModulePresentation.from_relations(
        ring, (0, 0), [[pq.constant(3), pq.constant(5)], [x, y]]).minimalize()
    assert m.n_gens == 1 and m.relations.entries[0][0].text() == "-5/3*x + y"
    assert [type(c) for c in m.relations.entries[0][0].terms.values()] == [Fraction, Fraction]


def test_minimalize_preserves_hilbert(mod_N_two_nodes):
    raw = mod_N_two_nodes
    m = raw.minimalize()
    assert equal_hilbert_functions(raw, m)


def test_hilbert_functions_that_differ_past_degree_eight(ring_node):
    # over the node, R/(x) and R/(x, y^9) agree through degree 8 and
    # differ from degree 9 on
    x, y = ring_node.poly_ring.variable("x"), ring_node.poly_ring.variable("y")
    y9 = ring_node.poly_ring.one()
    for _ in range(9):
        y9 = y9 * y
    a = ModulePresentation.quotient_by_ideal(ring_node, [x])
    b = ModulePresentation.quotient_by_ideal(ring_node, [x, y9])
    assert a.hilbert_function(8) == b.hilbert_function(8)
    assert a.hilbert_function(9)[9] == 1 and b.hilbert_function(9)[9] == 0
    assert not equal_hilbert_functions(a, b)
    assert equal_hilbert_functions(b, ModulePresentation.quotient_by_ideal(ring_node, [y9, x]))


@pytest.mark.parametrize("seed", range(6))
def test_equal_hilbert_functions_is_equal_numerators(seed, ring_two_nodes):
    # the window read decides equality in every degree: the verdict is
    # that of the two Hilbert series numerators, also for twists and zero
    rng = random.Random(seed)
    mods = [random_homogeneous_module(ring_two_nodes, rng, 2, 1) for _ in range(2)]
    mods += [mods[0].minimalize(), mods[0].twist(1), ModulePresentation.zero(ring_two_nodes)]
    for a in mods:
        for b in mods:
            assert equal_hilbert_functions(a, b) == (
                a.hilbert_numerator() == b.hilbert_numerator())


# -- grading is checked where a presentation is built -------------------------

def test_presentation_rejects_entry_of_wrong_degree(ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    y = pr.variable("y")
    mat = PolyMatrix(pr, (0,), (2,), [[y]])
    with pytest.raises(GradedViolationError, match=r"entry \(0,0\) = y has degree 1, not 2"):
        ModulePresentation(ring_two_nodes, (0,), mat)


def test_from_columns_refuses_a_column_of_another_length():
    # A column longer than the row count had its extra entries dropped, and a
    # shorter one raised IndexError.
    pr = PolyRing(F, ["x", "y"])
    x, y = pr.variable("x"), pr.variable("y")
    for row_degs, column in (((0,), (x, y)), ((0, 0), (x,)), ((0,), ())):
        with pytest.raises(IncompatibleOperandsError, match="column with"):
            PolyMatrix.from_columns(pr, row_degs, [(y,) * len(row_degs), column], (1, 1))
    assert PolyMatrix.from_columns(pr, (0, 0), [(x, y)], (1,)).entries == [[x], [y]]


def test_presentation_rejects_inhomogeneous_entry(ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    y = pr.variable("y")
    mat = PolyMatrix(pr, (0,), (1,), [[y + y * y]])
    with pytest.raises(GradedViolationError, match=r"degrees \[1, 2\]"):
        ModulePresentation(ring_two_nodes, (0,), mat)


@pytest.mark.parametrize("first_is_x, where", [(True, "1,0"), (False, "0,0")])
def test_inhomogeneous_entry_is_named(ring_two_nodes, first_is_x, where):
    # The column's degree is read from its first nonzero entry and the others
    # are checked against it; either way the error names the entry.
    pr = ring_two_nodes.poly_ring
    x, y = pr.variable("x"), pr.variable("y")
    column = [x, y + y * y] if first_is_x else [y + y * y, x]
    with pytest.raises(GradedViolationError,
                       match=rf"^entry \({where}\) = y\^2 \+ y is inhomogeneous: degrees \[1, 2\]$"):
        ModulePresentation.from_relations(ring_two_nodes, (0, 0), [column])


def test_from_relations_rejects_mixed_degree_column(ring_two_nodes):
    # each entry is homogeneous, but y sits in degree 1 and z*u in degree 2
    pr = ring_two_nodes.poly_ring
    y, z, u = (pr.variable(v) for v in "yzu")
    with pytest.raises(GradedViolationError, match=r"entry \(1,0\) = z\*u has degree 2, not 1"):
        ModulePresentation.from_relations(ring_two_nodes, (0, 0), [[y, z * u]])


# -- dual, torsion-free and reflexive ------------------------------------------

def test_dual_of_twisted_free(ring_two_nodes):
    M = ModulePresentation.free(ring_two_nodes, (3,))
    assert M.dual().gen_degs == (-3,)


def test_dual_of_zero(ring_two_nodes):
    assert ModulePresentation.zero(ring_two_nodes).dual().is_zero_module()


def test_dual_of_quadric_module_nonzero(mod_quadric):
    assert not mod_quadric.dual().is_zero_module()


def test_free_module_reflexive(ring_two_nodes):
    M = ModulePresentation.free(ring_two_nodes, (0, 2))
    assert M.satisfies_serre(2) and M.is_torsion_free()


def test_mcm_over_gorenstein_reflexive(mod_M_two_nodes):
    assert mod_M_two_nodes.satisfies_serre(2)


def test_tensor_with_dual_not_reflexive(mod_quadric):
    tensor = mod_quadric.tensor(mod_quadric.dual())
    assert not tensor.satisfies_serre(2)


def test_biduality_needs_certified_ring():
    pr = PolyRing(F, ["x", "y"])
    x = pr.variable("x")
    bad = RingPresentation(pr, [x * x, x * x], label="bad")
    M = ModulePresentation.free(bad, (0,))
    with pytest.raises(HypothesisMissingError):
        M.is_torsion_free()


# -- tensor --------------------------------------------------------------------

def test_tensor_with_ring_is_identity(mod_N_two_nodes, ring_two_nodes):
    R1 = ModulePresentation.free(ring_two_nodes, (0,))
    assert equal_hilbert_functions(R1.tensor(mod_N_two_nodes), mod_N_two_nodes)


def test_tensor_of_cyclics(periodic_pair):
    M, N = periodic_pair
    assert equal_hilbert_functions(M.tensor(N), M)


def test_tensor_depth_quadric(mod_quadric):
    assert mod_quadric.tensor(mod_quadric).depth() == 1


# -- profiles --------------------------------------------------------------------

def test_profile_mcm(mod_M_two_nodes, ring_two_nodes):
    prof = mod_M_two_nodes.module_profile()
    assert prof["depth"] == ring_two_nodes.dimension() == 2
    assert mod_M_two_nodes.is_maximal_cohen_macaulay()


def test_profile_quadric(mod_quadric):
    prof = mod_quadric.module_profile()
    assert prof == {"dim": 3, "depth": 2, "length": "inf", "betti0": 4}


def test_profile_residue_field(ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    gens = [pr.variable(v) for v in pr.variables]
    k = ModulePresentation.quotient_by_ideal(ring_two_nodes, gens, label="k")
    prof = k.module_profile()
    assert prof == {"dim": 0, "depth": 0, "length": 1, "betti0": 1}


def test_zero_module_conventions(ring_two_nodes):
    z = ModulePresentation.zero(ring_two_nodes)
    prof = z.module_profile()
    assert prof == {"dim": "-inf", "depth": "inf", "length": 0, "betti0": 0}
    assert z.satisfies_serre(3)
    assert z.is_free()


# -- Serre conditions ---------------------------------------------------------------

def test_serre_free_module(ring_two_nodes):
    M = ModulePresentation.free(ring_two_nodes, (0,))
    for n in (1, 2, 3):
        assert M.satisfies_serre(n)


def test_serre_quadric_module(mod_quadric):
    assert mod_quadric.satisfies_serre(1)
    # depth 2 at the irrelevant point, free elsewhere: level two holds
    assert mod_quadric.satisfies_serre(2)
    assert not mod_quadric.satisfies_serre(3)


def test_serre_matches_biduality_on_catalog(mod_M_two_nodes, mod_N_two_nodes, mod_quadric,
                                            ring_quadric, ring_two_nodes):
    # the catalog modules, and a module of each class for the double-dual
    # cross-check below: torsion (with M* nonzero and with M* = 0),
    # torsion-free but not reflexive, reflexive
    mods = (mod_M_two_nodes, mod_N_two_nodes, mod_quadric,
            _biduality_test_module("torsion", ring_quadric, ring_two_nodes),
            _biduality_test_module("finite_length", ring_quadric, ring_two_nodes),
            mod_quadric.tensor(mod_quadric.dual()), ModulePresentation.zero(ring_two_nodes))
    assert [_assert_verdicts_match_the_double_dual(mod) for mod in mods] == [
        "reflexive", "reflexive", "reflexive", "torsion", "torsion", "torsion-free", "reflexive"]


def _quadric_column_module(ring):
    pr = ring.poly_ring
    x, y, w, z = (pr.variable(v) for v in "xywz")
    return ModulePresentation.from_relations(ring, (0, 0, 0, 0), [[w, y, x, z]], label="Mq")


def _record_ext_calls(monkeypatch):
    """Presentations passed to ``ext_ambient_dimensions`` from now on."""
    import cihom.homology as homology
    calls = []
    real = homology.ext_ambient_dimensions

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(homology, "ext_ambient_dimensions", counting)
    return calls


def test_serre_levels_share_one_ext_computation(monkeypatch, ring_quadric):
    calls = _record_ext_calls(monkeypatch)
    M = _quadric_column_module(ring_quadric)
    verdicts = {n: M.serre_condition(n) for n in (2, 1, 3)}
    assert M.satisfies_serre(2) and not M.satisfies_serre(3)
    assert calls == [M.minimalize()]
    # A fresh presentation of the same module computes its own dimensions
    # and reaches the same verdicts and witnesses.
    for n, verdict in verdicts.items():
        assert _quadric_column_module(ring_quadric).serre_condition(n) == verdict
    assert len(calls) == 1 + len(verdicts)


def _residue_field(ring):
    pr = ring.poly_ring
    return ModulePresentation.quotient_by_ideal(
        ring, [pr.variable(v) for v in pr.variables], label="k")


def _assert_serre_test_matches_condition(M):
    for n in (1, 2, 3, 4):
        assert M.satisfies_serre(n) == M.serre_condition(n)["holds"], (M, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["quadric", "two_nodes", "node"]))
def test_depth_precheck_agrees_with_the_ext_test(ring_quadric, ring_two_nodes, ring_node,
                                                 seed, which):
    # satisfies_serre rejects on depth before any Ext dimension; it must
    # reach serre_condition's verdict on modules and on their tensors.
    ring = {"quadric": ring_quadric, "two_nodes": ring_two_nodes, "node": ring_node}[which]
    rng = random.Random(seed)
    M = random_homogeneous_module(ring, rng, 2, rng.randint(1, 2), label="A")
    N = random_homogeneous_module(ring, rng, 2, 1, label="B")
    for mod in (M, N, M.tensor(N)):
        _assert_serre_test_matches_condition(mod)


@pytest.mark.parametrize("which", ["quadric", "two_nodes", "node"])
def test_depth_precheck_on_zero_free_and_residue_field(which, ring_quadric, ring_two_nodes,
                                                       ring_node):
    ring = {"quadric": ring_quadric, "two_nodes": ring_two_nodes, "node": ring_node}[which]
    k = _residue_field(ring)
    for mod in (ModulePresentation.zero(ring), ModulePresentation.free(ring, (0, 1)), k):
        _assert_serre_test_matches_condition(mod)
    # k has depth 0 over a ring of positive dimension: no level holds
    assert not any(k.satisfies_serre(n) for n in (1, 2, 3, 4))


def test_depth_precheck_skips_the_ext_dimensions(monkeypatch, ring_quadric):
    # R (+) k has dimension dim R = 3 and depth 0: the dimension gate lets it
    # through, the depth precheck rejects every level without Ext dimensions
    calls = _record_ext_calls(monkeypatch)
    pr = ring_quadric.poly_ring
    zero = pr.zero()
    M = ModulePresentation.from_relations(
        ring_quadric, (0, 0), [[zero, pr.variable(v)] for v in pr.variables])
    assert M.dimension() == 3 and M.depth() == 0
    assert not any(M.satisfies_serre(n) for n in (1, 2, 3, 4))
    assert calls == []
    assert not M.serre_condition(1)["holds"] and len(calls) == 1


def test_serre_level_must_be_positive(mod_quadric):
    for check in (mod_quadric.satisfies_serre, mod_quadric.serre_condition):
        with pytest.raises(ValueError, match="serre level"):
            check(0)


def test_serre_needs_certified_ring():
    pr = PolyRing(F, ["x", "y"])
    x = pr.variable("x")
    bad = RingPresentation(pr, [x * x, x * x], label="bad")
    k = ModulePresentation.quotient_by_ideal(bad, [x, pr.variable("y")])
    for check in (k.satisfies_serre, k.serre_condition):
        with pytest.raises(HypothesisMissingError):
            check(1)


# -- free locus ---------------------------------------------------------------------

def test_nonfree_locus_free_module(ring_two_nodes):
    assert ModulePresentation.free(ring_two_nodes, (0, 1)).nonfree_locus_codim() == INF


def test_nonfree_locus_two_nodes(mod_M_two_nodes):
    assert mod_M_two_nodes.nonfree_locus_codim() == 1
    assert not mod_M_two_nodes.free_on_height(1)
    assert mod_M_two_nodes.free_on_height(0)


def test_nonfree_locus_quadric(mod_quadric):
    assert mod_quadric.nonfree_locus_codim() == 3
    assert mod_quadric.free_on_height(2)


@pytest.mark.parametrize("which, codim", [("two_nodes", 1), ("quadric", 3)])
def test_nonfree_locus_codim_builds_no_module(monkeypatch, mod_M_two_nodes, mod_quadric,
                                              which, codim):
    # The codimension is read off the Hilbert numerator of the Ext^1 entry:
    # no minimal cycles, so no relations and no minimalize of them.  Only
    # the module's Fitting ideal, through nonfree_locus_module, builds them.
    from cihom import homology
    calls = []
    real = homology.minimal_cycles

    def counting(*args, **kwargs):
        calls.append(kwargs.get("label"))
        return real(*args, **kwargs)

    monkeypatch.setattr(homology, "minimal_cycles", counting)
    M = {"two_nodes": mod_M_two_nodes, "quadric": mod_quadric}[which]
    M = ModulePresentation(M.ring, M.gen_degs, M.relations, label="M")
    assert M.nonfree_locus_codim() == codim and calls == []
    ext1 = M.nonfree_locus_module()
    assert ext1.n_gens > 0 and M.ring.dimension() - ext1.dimension() == codim
    assert calls == ["Ext1(M,syz^1(M))"]


def test_nonfree_locus_entry_is_built_once(monkeypatch, mod_M_two_nodes, mod_quadric):
    # The Ext^1 entry is kept on the minimal presentation: every read of the
    # codimension, of free_on_height and of the module shares one entry.
    from cihom import homology
    built = []
    real = homology.HomologyEntry.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(homology.HomologyEntry, "__init__", counting)
    for M in (mod_M_two_nodes, mod_quadric):
        M = ModulePresentation(M.ring, M.gen_degs, M.relations, label="M")
        built.clear()
        codim, = {M.nonfree_locus_codim() for _ in range(3)}
        assert [M.free_on_height(n) for n in range(4)] == [n + 1 <= codim for n in range(4)]
        assert M.nonfree_locus_module() is M.minimalize().nonfree_locus_module()
        assert len(built) == 1


def test_torsion_free_builds_no_basis_of_the_free_module(monkeypatch, ring_two_nodes, ring_node,
                                                         mod_M_two_nodes, mod_quadric,
                                                         periodic_pair):
    # HS(R^m) is read as m shifted copies of HS(R), so once M's own
    # numerator and dual generators exist, the verdict builds one relation
    # basis, of coker u, and none of the quotient columns alone; the
    # pushforward's certificate, or its torsion witness, agrees with every
    # verdict.
    from cihom import fmodules
    calls = []
    real = fmodules.relation_basis

    def recording(free, quotient_polys=(), relations=()):
        relations = list(relations)
        calls.append((free.rank, len(relations)))
        return real(free, quotient_polys, relations)

    monkeypatch.setattr(fmodules, "relation_basis", recording)
    x = ring_node.poly_ring.variable("x")
    verdicts = []
    for M in (ModulePresentation.free(ring_two_nodes, (0, 2)), mod_M_two_nodes, mod_quadric,
              *periodic_pair, mod_quadric.tensor(mod_quadric.dual()),
              # x is killed by the nonzerodivisor x + y of k[x, y]/(xy)
              ModulePresentation.quotient_by_ideal(ring_node, [x * x])):
        Mp = ModulePresentation(M.ring, M.gen_degs, M.relations, label="M").minimalize()
        Mp.hilbert_numerator()
        m = Mp.dual_generators().ncols
        calls.clear()
        verdicts.append(Mp.is_torsion_free())
        assert calls in ([], [(m, Mp.n_gens)]), calls
        assert verdicts[-1] == (_torsion_witness(Mp) is None)
    assert True in verdicts and False in verdicts


def test_free_detection_consistency(ring_two_nodes, mod_M_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,))
    assert free.nonfree_locus_codim() == INF and free.minimalize().n_rels == 0
    assert mod_M_two_nodes.nonfree_locus_codim() != INF
    assert mod_M_two_nodes.minimalize().n_rels > 0


# -- rank profiles ---------------------------------------------------------------------

def test_rank_profile_free(ring_two_nodes):
    M = ModulePresentation.free(ring_two_nodes, (0, 0))
    prof = M.rank_profile()
    assert prof["constant_rank"]
    assert all(e["rank"] == 2 for e in prof["ranks"])


def test_rank_profile_node(node_pair, ring_node):
    Mx, _ = node_pair
    prof = Mx.rank_profile()
    ranks = {e["prime"]: e["rank"] for e in prof["ranks"]}
    assert ranks == {"(x)": 1, "(y)": 0}
    assert not prof["constant_rank"]


def test_rank_profile_quadric(mod_quadric):
    prof = mod_quadric.rank_profile()
    assert prof["constant_rank"]
    assert prof["ranks"][0]["rank"] == 3


def test_rank_profile_needs_primes():
    pr = PolyRing(F, ["x", "y", "w", "z"])
    x, y, w, z = (pr.variable(v) for v in "xywz")
    ring = RingPresentation(pr, [x * w - y * z], label="noprimes")
    M = ModulePresentation.free(ring, (0,))
    with pytest.raises(HypothesisMissingError):
        M.rank_profile()


# -- Auslander-Buchsbaum across random modules ------------------------------------------

def test_auslander_buchsbaum_on_random_modules(ring_two_nodes):
    rng = random.Random(41)
    pr = ring_two_nodes.poly_ring
    monos = {d: list(monomials_of_degree(4, d)) for d in (1, 2)}
    for _ in range(10):
        p = rng.randint(1, 2)
        cols = []
        for _c in range(rng.randint(1, 3)):
            deg = rng.randint(1, 2)
            col = []
            for _i in range(p):
                poly = pr.zero()
                for _t in range(rng.randint(0, 2)):
                    poly = poly + pr.monomial(rng.choice(monos[deg]),
                                              F.from_int(rng.randint(1, 50)))
                col.append(poly)
            cols.append(col)
        M = ModulePresentation.from_relations(ring_two_nodes, (0,) * p, cols)
        m = M.minimalize()
        if m.n_gens == 0:
            continue
        assert m.depth() + m.projective_dimension_ambient() == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["node", "two_nodes", "quadric"]),
       st.sampled_from(["f32003", "f3", "rational"]))
def test_nonfree_locus_cyclic_cross_check(rings_over, seed, which, tag):
    # independent route for a cyclic module R/J, J one or two random forms
    # of degree 1-2: the non-free locus is V(J + ann J), since R/J
    # localizes free exactly where J dies or explodes.  It builds no Ext.
    from cihom.groebner import FreeModule, syzygy_generators
    from cihom.rings import ideal_dimension
    node, two_nodes, quadric = rings_over(tag)
    ring = {"node": node, "two_nodes": two_nodes, "quadric": quadric}[which]
    pr = ring.poly_ring
    rng = random.Random(seed)
    J = []
    for _ in range(rng.randint(1, 2)):
        monos = list(monomials_of_degree(pr.nvars, rng.randint(1, 2)))
        form = ring.reduce(sum((pr.monomial(rng.choice(monos), rng.choice((1, 2, -1)))
                                for _ in range(rng.randint(1, 3))), pr.zero()))
        if form:
            J.append(form)
    codim = ModulePresentation.quotient_by_ideal(ring, J).nonfree_locus_codim()
    if not J:   # J = 0 in R: R/J is R, free
        assert codim == INF
        return
    free = FreeModule(pr, (0,))

    def colon_into_quotient(g):
        """Generators of ann_R(g) = (I : g)/I, reduced modulo I."""
        cols = [(g,)] + [(f,) for f in ring.quotient_gens]
        degs = [g.degree()] + [f.degree() for f in ring.quotient_gens]
        syz, _ = syzygy_generators(cols, degs, free)
        out = []
        for s in syz:
            a = ring.reduce(s[0])
            if a:
                out.append(a)
        return out

    def intersect(gens_a, gens_b):
        """Generators of (gens_a) intersect (gens_b) in R: the a-part times
        its generator, over syzygies of the combined row."""
        cols = [(a,) for a in list(gens_a) + list(gens_b) + list(ring.quotient_gens)]
        degs = ([a.degree() for a in gens_a] + [b.degree() for b in gens_b]
                + [f.degree() for f in ring.quotient_gens])
        syz, _ = syzygy_generators(cols, degs, free)
        out = []
        for s in syz:
            elem = pr.zero()
            for j, a in enumerate(gens_a):
                coeff = s[j]
                if coeff:
                    elem = elem + coeff * a
            elem = ring.reduce(elem)
            if elem:
                out.append(elem)
        return out

    ann = colon_into_quotient(J[0])
    for g in J[1:]:
        ann = intersect(ann, colon_into_quotient(g))
    locus_dim = ideal_dimension(pr, list(ring.quotient_gens) + J + ann)
    assert codim == ring.dimension() - locus_dim


# -- the torsion-free verdict's work, and the torsion witness ------------------------

def _torsion_witness(M):
    """ker(M -> M**) as ``pushforward`` finds it: None when its embedding's
    certificate holds, else the witness its ``TorsionInputError`` carries."""
    try:
        certificate = pushforward(M).certificate
    except TorsionInputError as err:
        assert err.kernel.n_gens, M
        return err.kernel
    assert certificate["kernel_zero"], M
    return None


def _biduality_test_module(which, ring_quadric, ring_two_nodes):
    if which == "quadric":
        x, y, w, z = (ring_quadric.poly_ring.variable(v) for v in "xywz")
        return ModulePresentation.from_relations(ring_quadric, (0, 0, 0, 0), [[w, y, x, z]])
    pr = ring_two_nodes.poly_ring
    zero = pr.zero()
    x, y, z, u = (pr.variable(v) for v in "xyzu")
    if which == "two_nodes_N":
        return ModulePresentation.from_relations(ring_two_nodes, (0, 0, 0),
                                                 [[zero, -z, y], [u, x, zero]])
    if which == "torsion":
        return ModulePresentation.from_relations(ring_two_nodes, (0, 1),
                                                 [[x, zero], [y * z, u], [zero, x]])
    return ModulePresentation.quotient_by_ideal(ring_two_nodes, [x, y, z, u])


@pytest.mark.parametrize("which, cycle_passes, kernel_builds", [
    ("quadric", 1, 0), ("two_nodes_N", 1, 0), ("torsion", 1, 1), ("finite_length", 0, 0)])
def test_biduality_report_call_counts(monkeypatch, ring_quadric, ring_two_nodes, which,
                                      cycle_passes, kernel_builds):
    # is_torsion_free makes one dual-generator matrix, unless M has
    # dimension below dim R (finite_length), where M* = 0, read off its
    # Hilbert series; it reads the evaluation kernel's Hilbert numerator and
    # makes no cycle pass.  Its verdict is kept on the minimal presentation,
    # so a second read computes nothing.  The pushforward then makes one
    # pass for the evaluation map's minimal cycles (label "ker"), its
    # certificate or its torsion witness, unless M* = 0 and M is its own
    # witness, and builds relations among them only on a module with
    # torsion.  The dual generators are minimal cycles too (label "M*"),
    # counted apart; the pushforward's other cycles are not counted.
    from cihom import constructions, homology
    calls = {"dual": 0, "cycles": 0, "kernel": 0}
    real_cycles = homology.minimal_cycles
    real_pres = homology.MinimalCycles.presentation

    def counting_cycles(*args, **kwargs):
        label = kwargs["label"]
        calls["dual"] += label == "M*"
        calls["cycles"] += label == "ker"
        return real_cycles(*args, **kwargs)

    def counting_pres(self):
        calls["kernel"] += self.label == "ker" and bool(self.gen_degs)
        return real_pres(self)

    for module in (homology, constructions):
        monkeypatch.setattr(module, "minimal_cycles", counting_cycles)
    monkeypatch.setattr(homology.MinimalCycles, "presentation", counting_pres)
    M = _biduality_test_module(which, ring_quadric, ring_two_nodes)
    dual_builds = int(M.dimension() == M.ring.dimension())
    assert M.satisfies_serre(2) == (which in ("quadric", "two_nodes_N"))
    assert calls == {"dual": 0, "cycles": 0, "kernel": 0}
    torsion_free = M.is_torsion_free()
    assert torsion_free == (which in ("quadric", "two_nodes_N"))
    assert calls == {"dual": dual_builds, "cycles": 0, "kernel": 0}

    def computed_again(self):
        raise AssertionError("the torsion-free verdict was computed again")

    with monkeypatch.context() as again:
        again.setattr(ModulePresentation, "_dual_is_zero", computed_again)
        assert M.is_torsion_free() is torsion_free
        assert M.minimalize().is_torsion_free() is torsion_free
    assert (_torsion_witness(M) is None) == torsion_free
    assert calls == {"dual": dual_builds, "cycles": cycle_passes, "kernel": kernel_builds}


@pytest.mark.parametrize("which", ["quadric", "torsion"])
def test_torsion_free_keeps_no_verdict_when_interrupted(monkeypatch, ring_quadric,
                                                        ring_two_nodes, which):
    # A read that raises before the verdict is decided leaves nothing kept,
    # so the next read computes the verdict.
    real = ModulePresentation._dual_is_zero

    def fail_once(self):
        monkeypatch.setattr(ModulePresentation, "_dual_is_zero", real)
        raise RuntimeError("interrupted")

    M = _biduality_test_module(which, ring_quadric, ring_two_nodes)
    monkeypatch.setattr(ModulePresentation, "_dual_is_zero", fail_once)
    with pytest.raises(RuntimeError, match="interrupted"):
        M.is_torsion_free()
    assert M.is_torsion_free() is (which == "quadric")


def _biduality_map_reference(M):
    """The natural map M -> M** on M's minimal generators, and M**: row i of
    the dual-generator matrix evaluates the i-th generator of M on Hom(M, R),
    and its lift through the generators of the double dual is the i-th
    column of the map.  ``is_torsion_free`` and ``satisfies_serre(2)``
    decide without it."""
    M = M.minimalize()
    ring, pr = M.ring, M.ring.poly_ring
    D = M.dual_generators()
    D2 = M.dual().dual_generators() if D.ncols else D
    if not D2.ncols:
        return PolyMatrix.zero(pr, (), M.gen_degs), ModulePresentation.zero(ring)
    tracked = TrackedSubmodule(D2.columns(), D2.col_degs, FreeModule(pr, D2.row_degs), ring)
    syz, syz_degs = tracked.syzygy_elements()
    bidual = ModulePresentation(ring, D2.col_degs,
                                PolyMatrix.from_columns(pr, D2.col_degs, syz, tuple(syz_degs)))
    psi_cols = [lift(tracked, tuple(row)) for row in D.entries]
    assert all(col is not None for col in psi_cols)
    return PolyMatrix.from_columns(pr, D2.col_degs, psi_cols, M.gen_degs), bidual


def _assert_verdicts_match_the_double_dual(M):
    psi, bidual = _biduality_map_reference(M)
    Mmin = M.minimalize()
    ker = subquotient_presentation(M.ring, Mmin.gen_degs, psi, bidual.relations, None,
                                   Mmin.relations).minimalize()
    # the cokernel of psi: the identity columns of M** modulo psi and its relations
    coker = minimal_cycles(M.ring, bidual.gen_degs, None, None, psi, bidual.relations)
    torsion_free, reflexive = M.is_torsion_free(), M.satisfies_serre(2)
    assert torsion_free == (ker.n_gens == 0), M
    assert reflexive == (ker.n_gens == 0 and not coker.gen_degs), M
    assert torsion_free == M.satisfies_serre(1), M
    witness = _torsion_witness(M)
    assert (witness.gen_degs if witness else ()) == ker.gen_degs, M
    return "torsion" if ker.n_gens else "reflexive" if reflexive else "torsion-free"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["quadric", "two_nodes", "node"]),
       st.sampled_from(["f32003", "f3", "rational"]), st.booleans())
def test_biduality_verdicts_match_the_double_dual(rings_over, seed, which, tag, syzygy):
    # torsion-free is "no minimal cycles of the evaluation map" and reflexive
    # is the level-two depth condition; both must give the double dual's
    # verdicts, on random modules and on first syzygies (torsion-free, and
    # often not reflexive).
    node, two_nodes, quadric = rings_over(tag)
    ring = {"quadric": quadric, "two_nodes": two_nodes, "node": node}[which]
    rng = random.Random(seed)
    M = random_homogeneous_module(ring, rng, 2, rng.randint(1, 2), label="A")
    _assert_verdicts_match_the_double_dual(M.first_syzygy() if syzygy else M)


# -- the Kronecker builders against the block loops they replaced ------------------------
#
# The references are the hand-written loops that built these matrices before
# PolyMatrix.kron_identity and PolyMatrix.identity_kron did.

def _tensor_reference(Mp, Np):
    """Relations of M (x) N as ModulePresentation.tensor built them."""
    pr = Mp.ring.poly_ring
    z = pr.zero()
    pa, pb = Mp.n_gens, Np.n_gens
    gen_degs = tuple(Mp.gen_degs[i] + Np.gen_degs[k] for i in range(pa) for k in range(pb))
    cols = []
    col_degs = []
    A, B = Mp.relations, Np.relations
    for j in range(A.ncols):
        for k in range(pb):
            col = [z] * (pa * pb)
            for i in range(pa):
                if A.entries[i][j]:
                    col[i * pb + k] = A.entries[i][j]
            cols.append(col)
            col_degs.append(A.col_degs[j] + Np.gen_degs[k])
    for i in range(pa):
        for j in range(B.ncols):
            col = [z] * (pa * pb)
            for k in range(pb):
                if B.entries[k][j]:
                    col[i * pb + k] = B.entries[k][j]
            cols.append(col)
            col_degs.append(B.col_degs[j] + Mp.gen_degs[i])
    ents = [[cols[j][t] for j in range(len(cols))] for t in range(pa * pb)]
    return PolyMatrix(pr, gen_degs, tuple(col_degs), ents)


def _ambient_reference(Mp):
    """Relations of ModulePresentation.ambient_presentation over a quotient ring."""
    pr = Mp.ring.poly_ring
    extra_cols = []
    extra_degs = []
    z = pr.zero()
    for f in Mp.ring.quotient_gens:
        fd = f.degree()
        for i in range(Mp.n_gens):
            extra_cols.append([f if r == i else z for r in range(Mp.n_gens)])
            extra_degs.append(fd + Mp.gen_degs[i])
    ents = [[Mp.relations.entries[i][j] for j in range(Mp.n_rels)]
            + [extra_cols[t][i] for t in range(len(extra_cols))]
            for i in range(Mp.n_gens)]
    return PolyMatrix(pr, Mp.gen_degs, Mp.relations.col_degs + tuple(extra_degs), ents)


# -- the ambient presentation of a minimal one, against minimalize of the full one ----

@functools.cache
def _four_rings(tag):
    return tuple(catalog.ring(name, field_by_tag(tag))
                 for name in ("R_node", "R_node3", "R_xyzu", "R_quadric"))


def _assert_ambient_is_the_minimalized_full_one(M):
    # The full presentation (relations, then every f_k e_j) over a fresh
    # ambient ring, minimalized by the greedy pass over all its columns.
    Mmin = M.minimalize()
    amb = Mmin.ambient_presentation()
    S = RingPresentation(Mmin.ring.poly_ring, [], label="S")
    full = ModulePresentation(S, Mmin.gen_degs, _ambient_reference(Mmin)).minimalize()
    assert amb.ring.is_ambient and amb.minimalize() is amb and amb._basis is None
    assert amb.gen_degs == full.gen_degs
    _assert_same_matrix(amb.relations, full.relations)
    assert amb.hilbert_numerator() == full.hilbert_numerator() == Mmin.hilbert_numerator()
    assert amb.depth() == full.depth() == Mmin.depth()
    assert ext_ambient_dimensions(Mmin) == ext_ambient_dimensions(full)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(0, 3),
       st.sampled_from(["f32003", "f3", "rational"]), st.booleans())
def test_the_ambient_presentation_of_a_minimal_one_is_the_minimalized_full_one(
        seed, which, tag, syzygy):
    ring = _four_rings(tag)[which]
    rng = random.Random(seed)
    M = random_homogeneous_module(ring, rng, 2, rng.randint(1, 2), label="A")
    _assert_ambient_is_the_minimalized_full_one(M.first_syzygy() if syzygy else M)


@pytest.mark.parametrize("which", range(4))
def test_the_ambient_presentation_of_edge_modules(which):
    ring = _four_rings("f32003")[which]
    x = ring.poly_ring.variable(ring.poly_ring.variables[0])
    for M in (ModulePresentation.zero(ring), ModulePresentation.free(ring, (-1, 2)),
              ModulePresentation.quotient_by_ideal(ring, [x, x * x]).twist(-2)):
        _assert_ambient_is_the_minimalized_full_one(M)


# -- depth read from a terminated R-resolution, against the ambient resolution ---------

def _ambient_spy():
    """A patch of ``projective_dimension_ambient`` that counts its calls and
    runs the real method."""
    return mock.patch.object(ModulePresentation, "projective_dimension_ambient",
                             autospec=True,
                             side_effect=ModulePresentation.projective_dimension_ambient)


def _assert_depth_is_the_ambient_value(M):
    M = M.minimalize()
    if not M.n_gens:
        return False
    resolved = resolve(M, 6).terminated
    want = M.ring.poly_ring.nvars - M.projective_dimension_ambient()
    with _ambient_spy() as spy:
        assert M.depth() == want
    # the ambient resolution runs exactly when neither the Hilbert series
    # (dimension 0) nor a terminated R-resolution gives the depth
    assert spy.call_count == (0 if resolved or M.dimension() == 0 else 1)
    return resolved and M.dimension() > 0


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(0, 3),
       st.sampled_from(["f32003", "f3", "rational"]), st.booleans())
def test_depth_from_a_terminated_resolution_is_the_ambient_value(seed, which, tag, syzygy):
    ring = _four_rings(tag)[which]
    rng = random.Random(seed)
    M = random_homogeneous_module(ring, rng, 2, rng.randint(1, 2), label="A")
    _assert_depth_is_the_ambient_value(M.first_syzygy() if syzygy else M)


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_depth_is_read_from_terminated_resolutions_on_every_fixture_ring(tag):
    # the seeds whose module or first syzygy resolves within 6 steps take
    # the Auslander-Buchsbaum value over R on each of the four rings; and
    # ring_depth is the ambient value with no ambient resolution
    for ring in _four_rings(tag):
        read = 0
        for seed in range(12):
            rng = random.Random(seed)
            M = random_homogeneous_module(ring, rng, 2, rng.randint(1, 2), label="A")
            read += _assert_depth_is_the_ambient_value(M)
            read += _assert_depth_is_the_ambient_value(M.first_syzygy())
        assert read > 0, ring.label
        free = ModulePresentation.free(ring, (0,))
        want = ring.poly_ring.nvars - free.projective_dimension_ambient()
        with _ambient_spy() as spy:
            assert ring_depth(ring) == want == ring.dimension()
        assert spy.call_count == 0


def test_an_uncertified_ring_takes_the_ambient_path():
    # R = k[x,y]/(x^2, xy) is not a complete intersection and has depth 0
    # (x is killed by the maximal ideal), while dim R = 1: reading depth as
    # dim R - pd_R would give 1 for R itself, whose R-resolution terminates
    pr = PolyRing(F, ["x", "y"])
    x, y = pr.variable("x"), pr.variable("y")
    ring = RingPresentation(pr, [x * x, x * y], label="R")
    assert not ring.certified and ring.dimension() == 1
    R = ModulePresentation.free(ring, (0,))
    assert resolve(R, 3).terminated
    with _ambient_spy() as spy:
        assert R.depth() == 0
        assert ring_depth(ring) == 0
    assert spy.call_count == 2


def _kron_map_reference(d, coeff_degs, pr):
    """d tensor identity, as homology._kron_map built it."""
    nc = len(coeff_degs)
    rows = tuple(rd + cd for rd in d.row_degs for cd in coeff_degs)
    cols = tuple(cd0 + cd for cd0 in d.col_degs for cd in coeff_degs)
    z = pr.zero()
    ents = [[z] * len(cols) for _ in rows]
    for i in range(d.nrows):
        for j in range(d.ncols):
            p = d.entries[i][j]
            if p:
                for k in range(nc):
                    ents[i * nc + k][j * nc + k] = p
    return PolyMatrix(pr, rows, cols, ents)


def _block_relations_reference(position_degs, B, pr):
    """Relations of a sum of twisted copies of coker(B), as
    homology._block_relations built them."""
    nk = B.nrows
    rows = tuple(a + rd for a in position_degs for rd in B.row_degs)
    cols = tuple(a + cd for a in position_degs for cd in B.col_degs)
    z = pr.zero()
    ents = [[z] * len(cols) for _ in rows]
    for t in range(len(position_degs)):
        for k in range(nk):
            for c in range(B.ncols):
                p = B.entries[k][c]
                if p:
                    ents[t * nk + k][t * B.ncols + c] = p
    return PolyMatrix(pr, rows, cols, ents)


def _assert_same_matrix(got, want):
    """Equal degrees and, entry by entry, equal term dicts in the same order."""
    assert got.row_degs == want.row_degs
    assert got.col_degs == want.col_degs
    assert [[list(p.terms.items()) for p in row] for row in got.entries] == \
        [[list(p.terms.items()) for p in row] for row in want.entries]


def _random_presentation(ring, rng):
    """Zero to three generators in degrees -2..1; relation columns, some
    with zero entries, or (without generators) columns with no rows."""
    pr = ring.poly_ring
    gen_degs = tuple(rng.randint(-2, 1) for _ in range(rng.randint(0, 3)))
    n_cols = rng.randint(0, 3)
    if not gen_degs:
        col_degs = tuple(rng.randint(-1, 3) for _ in range(n_cols))
        return ModulePresentation(ring, (), PolyMatrix(pr, (), col_degs, []))
    columns = []
    for _ in range(n_cols):
        top = max(gen_degs) + rng.randint(0, 2)
        col = []
        for g in gen_degs:
            poly = pr.zero()
            if top > g and rng.random() < 0.7:
                monos = list(monomials_of_degree(pr.nvars, top - g))
                for _t in range(rng.randint(1, 2)):
                    poly = poly + pr.monomial(rng.choice(monos), F.from_int(rng.randint(1, 50)))
            col.append(poly)
        columns.append(col)
    return ModulePresentation.from_relations(ring, gen_degs, columns)


def _assert_same_columns(got, want):
    """The columns of the matrix want, in order, with equal term dicts in
    the same order, entry by entry."""
    assert [[list(p.terms.items()) for p in col] for col in got] == \
        [[list(p.terms.items()) for p in col] for col in want.columns()]
    assert all(len(col) == want.nrows for col in got)


def _check_builders(M, N, degs):
    pr = M.ring.poly_ring
    _assert_same_matrix(M.tensor(N).relations, _tensor_reference(M, N))
    _assert_same_matrix(M.ambient_presentation().relations, _ambient_reference(M))
    for A in (M.relations, M.relations.transpose()):
        kron = _kron_map_reference(A, degs, pr)
        blocks = _block_relations_reference(degs, A, pr)
        _assert_same_matrix(A.kron_identity(degs), kron)
        _assert_same_matrix(A.identity_kron(degs), blocks)
        _assert_same_columns(A.kron_identity_columns(len(degs)), kron)
        _assert_same_columns(A.identity_kron_columns(len(degs)), blocks)


RINGS = st.sampled_from(["quadric", "two_nodes", "node"])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), RINGS)
def test_kronecker_builders_match_the_block_loops(ring_quadric, ring_two_nodes, ring_node,
                                                  seed, which):
    ring = {"quadric": ring_quadric, "two_nodes": ring_two_nodes, "node": ring_node}[which]
    rng = random.Random(seed)
    M, N = _random_presentation(ring, rng), _random_presentation(ring, rng)
    degs = tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))
    _check_builders(M, N, degs)


@pytest.mark.parametrize("which", ["quadric", "two_nodes", "node"])
def test_kronecker_builders_on_edge_presentations(which, ring_quadric, ring_two_nodes,
                                                  ring_node):
    ring = {"quadric": ring_quadric, "two_nodes": ring_two_nodes, "node": ring_node}[which]
    pr = ring.poly_ring
    x = pr.variable(pr.variables[0])
    edges = [ModulePresentation.zero(ring),
             ModulePresentation.free(ring, (-1, 2)),
             ModulePresentation(ring, (), PolyMatrix(pr, (), (1, 3), [])),
             ModulePresentation.quotient_by_ideal(ring, [x, x * x]).twist(-2)]
    for M in edges:
        for N in edges:
            for degs in ((), (0,), (-2, 1)):
                _check_builders(M, N, degs)


# -- check_graded: zero entries skipped, each entry's degree computed once --------------

def _graded_error(check, mat):
    with pytest.raises(GradedViolationError) as err:
        check(mat)
    return str(err.value)


def test_check_graded_names_the_first_bad_cell_of_a_kronecker_matrix(ring_quadric):
    pr = ring_quadric.poly_ring
    x, y, w = (pr.variable(v) for v in "xyw")
    yw = y * w
    # yw's degree is read, and kept, in a matrix where it is right; entry
    # (0, 1) of A has degree 2 where 1 is wanted, and both shapes repeat it
    PolyMatrix(pr, (0,), (2,), [[yw]]).check_graded()
    A = PolyMatrix(pr, (0, 1), (1, 1), [[x, yw], [pr.zero(), pr.one()]])
    for mat in (A.kron_identity((0, 2, -1)), A.identity_kron((1, 0)),
                A.transpose().kron_identity((0, 1))):
        want = _graded_error(reference.check_graded, mat)
        assert _graded_error(PolyMatrix.check_graded, mat) == want
    assert _graded_error(PolyMatrix.check_graded, A.kron_identity((0, 2, -1))) == \
        "entry (0,3) = y*w has degree 2, not 1"


def test_check_graded_names_the_first_inhomogeneous_cell(ring_quadric):
    pr = ring_quadric.poly_ring
    x, y = pr.variable("x"), pr.variable("y")
    A = PolyMatrix(pr, (0, 0), (1, 1), [[pr.zero(), x], [x + y * y, y]])
    for mat in (A.kron_identity((0, 1)), A.identity_kron((2, 0, 1))):
        want = _graded_error(reference.check_graded, mat)
        assert _graded_error(PolyMatrix.check_graded, mat) == want
    assert _graded_error(PolyMatrix.check_graded, A.kron_identity((0, 1))) == \
        "entry (2,0) = y^2 + x is inhomogeneous: degrees [1, 2]"


def test_check_graded_compares_a_repeated_entry_in_every_cell(ring_quadric):
    # one object in two rows of different degrees: right in the first cell
    # it fills, wrong in the second, so its cached degree must be compared
    # again there
    pr = ring_quadric.poly_ring
    x = pr.variable("x")
    mat = PolyMatrix(pr, (0, 1), (1, 2), [[x, pr.zero()], [x, pr.zero()]])
    assert _graded_error(PolyMatrix.check_graded, mat) == \
        _graded_error(reference.check_graded, mat) == "entry (1,0) = x has degree 1, not 0"
    PolyMatrix(pr, (0, 1), (1, 2), [[x, pr.zero()], [pr.zero(), x]]).check_graded()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), RINGS)
def test_check_graded_agrees_with_the_cell_scan(ring_quadric, ring_two_nodes, ring_node,
                                                seed, which):
    # random Kronecker matrices of random presentations, with the degrees
    # of some rows or columns moved so that some entries are wrong
    ring = {"quadric": ring_quadric, "two_nodes": ring_two_nodes, "node": ring_node}[which]
    rng = random.Random(seed)
    A = _random_presentation(ring, rng).relations
    degs = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
    for mat in (A.kron_identity(degs), A.identity_kron(degs)):
        rows = tuple(d + (rng.random() < 0.2) for d in mat.row_degs)
        cols = tuple(d - (rng.random() < 0.2) for d in mat.col_degs)
        moved = PolyMatrix(mat.poly_ring, rows, cols, mat.entries)
        try:
            reference.check_graded(moved)
        except GradedViolationError as err:
            assert _graded_error(PolyMatrix.check_graded, moved) == str(err)
        else:
            moved.check_graded()
