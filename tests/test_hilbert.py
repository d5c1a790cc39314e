"""The Hilbert-series numerator against the enumerators it replaced.

The references below are the standard-monomial enumerators that computed
the Hilbert function, dimension and length before the numerator did, kept
here as independent checks, plus the Ext-module route to the support
dimensions of Ext^j_S(M, S).
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cihom.fields import PrimeField, field_by_tag
from cihom import fmodules, rings
from cihom.fmodules import ModulePresentation
from cihom.groebner import groebner_basis, relation_basis
from cihom.homology import _ResolutionComplex, ext_ambient_dimensions, tor_profile
from cihom.polynomials import PolyRing, mono_divides, monomials_of_degree
from cihom.rings import (
    INF,
    NEG_INF,
    RingPresentation,
    add_numerator,
    dimension_and_multiplicity,
    hilbert_numerator,
    ideal_dimension,
    ideal_groebner,
    module_numerator,
)
from cihom.search import random_homogeneous_module

F = PrimeField(32003)


# -- references -------------------------------------------------------------------

def _dimension_from_leads_reference(nvars, lead_monos):
    """Krull dimension of S/L: the largest variable subset supporting no lead."""
    supports = []
    for m in lead_monos:
        supp = frozenset(i for i, e in enumerate(m) if e > 0)
        if not supp:
            return NEG_INF
        supports.append(supp)
    for size in range(nvars, -1, -1):
        for T in itertools.combinations(range(nvars), size):
            if all(not s <= frozenset(T) for s in supports):
                return size
    return NEG_INF


def _leads_by_position(M):
    gb = groebner_basis(M.relations.columns(), M.free_module(), M.ring.quotient_gens)
    leads = {i: [] for i in range(M.n_gens)}
    for p, m in gb.lead_terms:
        leads[p].append(m)
    return leads


def _hilbert_function_reference(M, dmax, dmin=None):
    """Count the standard monomials of each degree, position by position."""
    if dmin is None:
        dmin = min(M.gen_degs) if M.gen_degs else 0
    leads = _leads_by_position(M)
    n = M.ring.poly_ring.nvars
    out = {}
    for d in range(dmin, dmax + 1):
        total = 0
        for i, gdeg in enumerate(M.gen_degs):
            for m in monomials_of_degree(n, d - gdeg):
                if not any(mono_divides(L, m) for L in leads[i]):
                    total += 1
        out[d] = total
    return out


def _dimension_reference(M):
    M = M.minimalize()
    if M.n_gens == 0:
        return NEG_INF
    leads = _leads_by_position(M)
    n = M.ring.poly_ring.nvars
    return max(_dimension_from_leads_reference(n, leads[i]) for i in range(M.n_gens))


def _length_reference(M):
    """Depth-first count of the standard monomials when dim = 0."""
    M = M.minimalize()
    if M.n_gens == 0:
        return 0
    if _dimension_reference(M) != 0:
        return INF
    leads = _leads_by_position(M)
    n = M.ring.poly_ring.nvars
    total = 0
    for i in range(M.n_gens):
        seen = set()
        stack = [(0,) * n]
        while stack:
            mono = stack.pop()
            if mono in seen or any(mono_divides(L, mono) for L in leads[i]):
                continue
            seen.add(mono)
            for v in range(n):
                stack.append(tuple(e + (t == v) for t, e in enumerate(mono)))
        total += len(seen)
    return total


def _ideal_dimension_reference(poly_ring, polys):
    gb = ideal_groebner(poly_ring, polys)
    return _dimension_from_leads_reference(
        poly_ring.nvars, [m for _, m in gb.lead_terms])


def _ext_modules(M, N, lo, hi):
    """Ext^i(M, N) for lo <= i <= hi, each built from its minimal cycles,
    vanishing ones included: no Hilbert numerator decides them."""
    cx = _ResolutionComplex(M, N, -1, 8).reach(hi + 1)
    return {i: cx.cycles(i).presentation() for i in range(lo, hi + 1)}


def _ext_ambient_dimensions_reference(M):
    """Support dimensions of the Ext^j_S(M, S) modules themselves."""
    amb = M.ambient_presentation()
    nv = M.ring.poly_ring.nvars
    mods = _ext_modules(amb, ModulePresentation.free(amb.ring, (0,)), 1, nv)
    return {j: _dimension_reference(pres) for j, pres in mods.items()}


# -- random inputs ------------------------------------------------------------------

def _ambient_ring(field=F):
    return RingPresentation(PolyRing(field, ["x", "y", "z"]), [], label="S")


def _ring(which, fixtures):
    return fixtures[which] if which != "ambient" else _ambient_ring()


def _random_poly(pr, rng, degree, n_terms):
    out = pr.zero()
    if degree < 0:
        return out
    monos = list(monomials_of_degree(pr.nvars, degree))
    for _ in range(n_terms):
        out = out + pr.monomial(rng.choice(monos), F.from_int(rng.randint(1, 50)))
    return out


def _random_module(ring, rng):
    """Zero to three generators in degrees -2..1 (negative ones as in duals),
    homogeneous relation columns, unit entries now and then."""
    pr = ring.poly_ring
    gen_degs = tuple(rng.randint(-2, 1) for _ in range(rng.randint(0, 3)))
    columns = []
    for _ in range(rng.randint(0, 4) if gen_degs else 0):
        top = max(gen_degs) + rng.randint(0, 2)
        columns.append([_random_poly(pr, rng, top - g, rng.randint(0, 2)) for g in gen_degs])
    return ModulePresentation.from_relations(ring, gen_degs, columns)


RINGS = st.sampled_from(["quadric", "two_nodes", "node", "ambient"])


# -- properties -------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), RINGS)
def test_series_matches_the_enumerators(ring_quadric, ring_two_nodes, ring_node, seed, which):
    ring = _ring(which, {"quadric": ring_quadric, "two_nodes": ring_two_nodes,
                         "node": ring_node})
    rng = random.Random(seed)
    for _ in range(3):
        M = _random_module(ring, rng)
        for pres in (M, M.minimalize()):
            assert pres.hilbert_function(5, dmin=-3) == \
                _hilbert_function_reference(pres, 5, dmin=-3)
            assert pres.hilbert_function(4) == _hilbert_function_reference(pres, 4)
        dim, length = M.dimension(), M.length()
        assert dim == _dimension_reference(M)
        assert type(dim) is (float if dim == NEG_INF else int)
        assert length == _length_reference(M)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), RINGS)
def test_lead_only_numerator_matches_the_interreduced_basis(ring_quadric, ring_two_nodes,
                                                            ring_node, seed, which):
    # hilbert_numerator reads the leads of the pair engine's basis before
    # interreduction; the reduced basis's leads are the minimal generators
    # of the same initial module, so both give one numerator.
    ring = _ring(which, {"quadric": ring_quadric, "two_nodes": ring_two_nodes,
                         "node": ring_node})
    rng = random.Random(seed)
    for _ in range(3):
        M = _random_module(ring, rng)
        for pres in (M, M.minimalize()):
            reduced = _leads_by_position(pres)
            raw = {i: [] for i in range(pres.n_gens)}
            for p, m in relation_basis(pres.free_module(), ring.quotient_gens,
                                       pres.relations.columns()).initial_terms():
                raw[p].append(m)
            num: dict = {}
            for i, gdeg in enumerate(pres.gen_degs):
                assert all(any(mono_divides(r, m) for r in reduced[i]) for m in raw[i])
                assert set(reduced[i]) <= set(raw[i])
                add_numerator(num, hilbert_numerator(reduced[i]), gdeg)
            assert pres.hilbert_numerator() == num


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), RINGS, st.booleans())
def test_ideal_dimension_matches_the_subset_search(ring_quadric, ring_two_nodes, ring_node,
                                                    seed, which, with_unit):
    pr = _ring(which, {"quadric": ring_quadric, "two_nodes": ring_two_nodes,
                       "node": ring_node}).poly_ring
    rng = random.Random(seed)
    polys = [_random_poly(pr, rng, rng.randint(1, 3), rng.randint(1, 3))
             for _ in range(rng.randint(0, 3))]
    if with_unit:
        polys.append(pr.one().scale(F.from_int(rng.randint(1, 50))))
    assert ideal_dimension(pr, polys) == _ideal_dimension_reference(pr, polys)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), RINGS,
       st.sampled_from(["f32003", "f3", "rational"]))
def test_ext_ambient_dimensions_match_the_ext_modules(rings_over, seed, which, tag):
    # ext_ambient_dimensions reads each dimension off a Hilbert-series
    # identity; the reference builds each Ext module from its cycles.
    node, two_nodes, quadric = rings_over(tag)
    ring = (_ambient_ring(field_by_tag(tag)) if which == "ambient" else
            {"quadric": quadric, "two_nodes": two_nodes, "node": node}[which])
    rng = random.Random(seed)
    M = random_homogeneous_module(ring, rng, 2, 2).twist(rng.randint(-2, 1))
    assert ext_ambient_dimensions(M) == _ext_ambient_dimensions_reference(M)


# -- fixed cases ----------------------------------------------------------------------------

def test_a_minimal_presentation_drains_the_basis_of_its_greedy_pass(
        monkeypatch, ring_quadric, ring_two_nodes, ring_node, periodic_pair):
    # minimalize keeps the basis its greedy pass grew, which spans the kept
    # relations and the quotient columns; hilbert_numerator drains it, drops
    # it and builds no second basis.  A presentation handed its numerator
    # (a Tor entry's) keeps none.
    built = []
    real = fmodules.relation_basis
    monkeypatch.setattr(fmodules, "relation_basis",
                        lambda *args, **kwargs: built.append(args) or real(*args, **kwargs))
    rng = random.Random(30)
    checked = 0
    for ring in (ring_quadric, ring_two_nodes, ring_node):
        for _ in range(6):
            m = _random_module(ring, rng).minimalize()
            if not m.n_rels:
                continue
            assert m._basis is not None
            built.clear()
            num = m.hilbert_numerator()
            assert built == [] and m._basis is None
            assert ModulePresentation(ring, m.gen_degs, m.relations).hilbert_numerator() == num
            assert len(built) == 1
            checked += 1
    assert checked >= 6
    profile = tor_profile(*periodic_pair, 3)
    entries = [profile.tor0] + profile.entries
    assert [e.presentation.n_rels for e in entries] == [1, 3, 0, 3]
    for e in entries:
        assert e.presentation._basis is None
        assert e.presentation.hilbert_numerator() is e.numerator


def test_zero_module_and_unit_ideal(ring_two_nodes):
    zero = ModulePresentation.zero(ring_two_nodes)
    assert zero.hilbert_numerator() == {}
    assert zero.hilbert_function(3, dmin=-1) == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 0}
    assert zero.dimension() == NEG_INF and zero.length() == 0
    pr = ring_two_nodes.poly_ring
    unit = ModulePresentation.quotient_by_ideal(ring_two_nodes, [pr.one()])
    assert unit.dimension() == NEG_INF and unit.length() == 0
    assert hilbert_numerator([(0, 0, 0, 0), (1, 0, 0, 0)]) == {}
    assert ideal_dimension(pr, [pr.one()]) == NEG_INF
    assert dimension_and_multiplicity({}, 4) == (NEG_INF, 0)


def test_numerator_of_known_ideals():
    # (x^2, xy, y^2) in k[x, y]: series 1 + 2t, numerator (1 + 2t)(1 - t)^2.
    num = hilbert_numerator([(2, 0), (1, 1), (0, 2)])
    assert num == {0: 1, 2: -3, 3: 2}
    assert dimension_and_multiplicity(num, 2) == (0, 3)
    # (xy) in k[x, y]: the node, dimension one and multiplicity two.
    assert dimension_and_multiplicity(hilbert_numerator([(1, 1)]), 2) == (1, 2)
    # The zero ideal: numerator 1, so S itself, of multiplicity one.
    assert dimension_and_multiplicity(hilbert_numerator([]), 3) == (3, 1)
    # Redundant and repeated generators change nothing.
    assert hilbert_numerator([(1, 1), (2, 1), (1, 1)]) == hilbert_numerator([(1, 1)])


def test_dual_hilbert_function_has_negative_degrees(ring_quadric, mod_quadric):
    dual = mod_quadric.twist(2).dual()
    assert min(dual.gen_degs) < 0
    assert dual.hilbert_function(3, dmin=-3) == _hilbert_function_reference(dual, 3, dmin=-3)
    assert dual.dimension() == _dimension_reference(dual) == ring_quadric.dimension()


def _module_numerator_reference(gen_degs, leads):
    """module_numerator with no table: sum_i t^(gen_degs[i]) K(L_i)."""
    num: dict = {}
    for p, gdeg in enumerate(gen_degs):
        add_numerator(num, hilbert_numerator([m for q, m in leads if q == p]), gdeg)
    return num


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=1, max_value=4))
def test_module_numerator_table_matches_the_table_free_sum(seed, bound):
    # Position ideals come from a pool, shuffled and with repeated
    # monomials, so lookups hit the table.  The pool holds more distinct
    # ideals than the bound, and the first module uses each of them once, so
    # the table starts over before the later lookups.
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    pool = [[(k + 3,) + (0,) * (nvars - 1)]
            + [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(rng.randint(0, 3))]
            for k in range(bound + 2)]
    modules = [(tuple(rng.randint(-1, 2) for _ in pool), list(range(len(pool))))]
    for _ in range(10):
        gen_degs = tuple(rng.randint(-1, 2) for _ in range(rng.randint(1, 3)))
        modules.append((gen_degs, [rng.randrange(len(pool)) for _ in gen_degs]))
    saved = rings._NUMERATORS_MAX, dict(rings._numerators)
    rings._NUMERATORS_MAX = bound
    try:
        for gen_degs, ideals in modules:
            leads = [(p, m) for p, k in enumerate(ideals) for m in pool[k] * rng.randint(1, 2)]
            rng.shuffle(leads)
            assert module_numerator(gen_degs, leads) == _module_numerator_reference(gen_degs,
                                                                                     leads)
            assert len(rings._numerators) <= bound
    finally:
        rings._NUMERATORS_MAX = saved[0]
        rings._numerators.clear()
        rings._numerators.update(saved[1])
