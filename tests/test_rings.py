import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cihom import catalog
from cihom.fields import PrimeField, field_by_tag
from cihom.groebner import FreeModule, groebner_basis
from cihom.polynomials import (
    GradedViolationError,
    IncompatibleOperandsError,
    PolyRing,
    monomials_of_degree,
)
from cihom import rings
import reference
from cihom.rings import (
    NEG_INF,
    HypothesisMissingError,
    MinimalPrimesMismatchError,
    RingPresentation,
    UnitIdealError,
    ideal_contains,
    ideal_dimension,
    ideal_groebner,
    monomial_minimal_primes,
)

F = PrimeField(32003)


def test_make_quotient_ring_two_nodes(ring_two_nodes):
    assert ring_two_nodes.codim == 2
    assert ring_two_nodes.dimension() == 2
    assert ring_two_nodes.certified


def test_make_quotient_ring_quadric(ring_quadric):
    assert ring_quadric.codim == 1
    assert ring_quadric.dimension() == 3
    assert ring_quadric.certified


def test_empty_quotient_is_regular():
    ring = RingPresentation(PolyRing(F, ["x", "y"]), [])
    assert ring.codim == 0 and ring.dimension() == 2 and ring.certified


def test_regular_sequence_certificates(ring_two_nodes, ring_quadric):
    assert ring_two_nodes.verify_regular_sequence() == {"ok": True, "dims": [4, 3, 2],
                                                        "failed_at": None}
    assert ring_quadric.verify_regular_sequence()["dims"] == [4, 3]


def test_repeated_element_fails():
    pr = PolyRing(F, ["x", "y"])
    x = pr.variable("x")
    ring = RingPresentation(pr, [x, x], label="bad")
    cert = ring.verify_regular_sequence()
    assert cert == {"ok": False, "dims": [2, 1, 1], "failed_at": 2}
    with pytest.raises(HypothesisMissingError):
        ring.require_certified()


def test_degree_one_generator_warns_not_fatal():
    pr = PolyRing(F, ["x", "y"])
    x = pr.variable("x")
    ring = RingPresentation(pr, [x], label="warned")
    assert ring.warnings and "degree 1" in ring.warnings[0]
    assert ring.certified


def test_unit_ideal_rejected():
    # S/(1) is the zero ring: its dimension is -inf, so it is refused at
    # construction rather than in a later dimension read
    pr = PolyRing(F, ["x", "y"])
    x = pr.variable("x")
    for gens in ([pr.one()], [x * x, pr.one() + pr.one()]):
        with pytest.raises(UnitIdealError, match="nonzero constant"):
            RingPresentation(pr, gens)
    assert RingPresentation(pr, [pr.zero(), x * x]).codim == 1


def test_inhomogeneous_generator_rejected():
    pr = PolyRing(F, ["x", "y"])
    x, y = pr.variable("x"), pr.variable("y")
    with pytest.raises(GradedViolationError):
        RingPresentation(pr, [x + x * y])


def test_ring_dimension_examples(ring_two_nodes, ring_node):
    assert ring_two_nodes.dimension() == 2
    assert ring_node.dimension() == 1
    S = RingPresentation(PolyRing(F, ["x", "y", "w", "z"]), [])
    assert S.dimension() == 4


def test_dimension_plus_codim(ring_two_nodes, ring_quadric, ring_node, ring_node3):
    for ring in (ring_two_nodes, ring_quadric, ring_node, ring_node3):
        assert ring.dimension() + ring.codim == ring.poly_ring.nvars


def test_regular_sequence_order_insensitive(ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    gens = list(ring_two_nodes.quotient_gens)
    for perm in itertools.permutations(gens):
        ring = RingPresentation(pr, list(perm), label="perm")
        assert ring.verify_regular_sequence()["ok"]


def test_is_domain_with_one_declared_prime(ring_quadric):
    # One declared minimal prime: a domain exactly when the prime equals the
    # quotient ideal, which is decided by membership both ways.  x is the
    # one minimal prime of (x^2) but does not lie in it.
    assert ring_quadric.is_domain() is True
    pr = ring_quadric.poly_ring
    x = pr.variable("x")
    fat = RingPresentation(pr, [x * x], label="fat", minimal_primes=[[x]])
    assert fat.is_domain() is False


def test_monomial_minimal_primes(ring_two_nodes, ring_node):
    labels = sorted(p.label() for p in ring_two_nodes.minimal_primes())
    assert labels == ["(x, z)", "(x, u)", "(y, z)", "(y, u)"] or len(labels) == 4
    node_labels = sorted(p.label() for p in ring_node.minimal_primes())
    assert node_labels == ["(x)", "(y)"]


def test_minimal_primes_of_a_monomial_ideal_are_built_on_first_read(monkeypatch):
    # A monomial ring, and an ambient ring (whose empty ideal is monomial),
    # build no prime with the ring; the first read computes them, and
    # has_minimal_primes and is_domain() answer as when they were built
    # eagerly.  Declared primes are still checked with the ring.
    built = []

    class CountingPrime(rings.PrimeIdeal):
        def __init__(self, *args, **kwargs):
            built.append(args[1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(rings, "PrimeIdeal", CountingPrime)
    pr = PolyRing(F, ["x", "y", "z", "u"])
    x, y, z, u = (pr.variable(v) for v in "xyzu")
    two_nodes = RingPresentation(pr, [x * y, z * u], label="two_nodes")
    ambient = RingPresentation(pr, [], label="S")
    line = RingPresentation(pr, [x], label="line")
    cone = RingPresentation(pr, [x * y - z * u], label="cone")
    assert two_nodes.ambient() is two_nodes.ambient() and ambient.ambient() is ambient
    assert built == []
    assert all(r.has_minimal_primes for r in (two_nodes, ambient, line))
    assert not cone.has_minimal_primes
    assert built == []
    assert ([p.label() for p in two_nodes.minimal_primes()]
            == [p.label() for p in monomial_minimal_primes(pr, two_nodes.quotient_gens)]
            == ["(x, z)", "(x, u)", "(y, z)", "(y, u)"])
    assert [p.check_status for p in two_nodes.minimal_primes()] == ["computed"] * 4
    assert two_nodes.minimal_primes() is two_nodes.minimal_primes()
    assert len(built) == 8   # four kept, four from the reference call
    assert [p.label() for p in ambient.minimal_primes()] == ["(0)"]
    assert (two_nodes.is_domain(), ambient.is_domain(), line.is_domain(),
            cone.is_domain()) == (False, True, True, False)
    with pytest.raises(HypothesisMissingError):
        cone.minimal_primes()
    with pytest.raises(MinimalPrimesMismatchError, match="are not the minimal primes"):
        RingPresentation(pr, [x * y], label="node", minimal_primes=[[x]])


def test_declared_primes_of_a_monomial_ideal_must_be_the_computed_ones():
    # (x w) has minimal primes (x) and (w): declaring (x) alone, a repeat or
    # a prime that is not minimal is refused; the true list, in any order
    # and with other generators of the same ideals, is kept as declared.
    pr = PolyRing(F, ["x", "y", "w", "z"])
    x, y, w, z = (pr.variable(v) for v in "xywz")
    for primes in ([[x]], [[x], [w], [x]], [[x], [w], [x, y]], [[x, y], [w]]):
        with pytest.raises(MinimalPrimesMismatchError, match=r"minimal primes \[\(x\), \(w\)\]"):
            RingPresentation(pr, [x * w], label="xw", minimal_primes=primes)
    ring = RingPresentation(pr, [x * w], label="xw", minimal_primes=[[w], [x + x]])
    assert [p.label() for p in ring.minimal_primes()] == ["(w)", "(2*x)"]
    assert [p.check_status for p in ring.minimal_primes()] == ["spot-checked"] * 2


def test_a_declared_prime_the_spot_check_disproves_is_refused(ring_quadric):
    # each failure of the spot check certifies that the declared ideal is
    # not a minimal prime, so the constructor refuses it and names the check
    pr = ring_quadric.poly_ring
    x, y, w, z = (pr.variable(v) for v in "xywz")
    f = x * w - y * z
    for primes, failure in (([[x]], "the quotient generator x*w - y*z is not in it"),
                            ([[f, pr.one()]], "it is the unit ideal"),
                            ([[f, x * y]], "are not in it, but their product is")):
        with pytest.raises(MinimalPrimesMismatchError, match=r"fails its spot check: .*"
                           + re.escape(failure)):
            RingPresentation(pr, [f], label="Q", minimal_primes=primes)


def test_declared_primes_spot_checked(ring_quadric):
    primes = ring_quadric.minimal_primes()
    assert len(primes) == 1 and primes[0].check_status == "spot-checked"


def test_missing_primes_raise():
    pr = PolyRing(F, ["x", "y", "w", "z"])
    x, y, w, z = (pr.variable(v) for v in "xywz")
    ring = RingPresentation(pr, [x * w - y * z], label="noprimes")
    with pytest.raises(HypothesisMissingError):
        ring.minimal_primes()


def test_ideal_dimension_unit_ideal():
    pr = PolyRing(F, ["x", "y"])
    assert ideal_dimension(pr, [pr.one()]) == NEG_INF


def test_reduce_canonical(ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    x, y, z = pr.variable("x"), pr.variable("y"), pr.variable("z")
    assert ring_two_nodes.reduce(x * y * z).is_zero()
    assert ring_two_nodes.reduce(x * x) == x * x


# -- the rank-one reducer against the wrap / normal form / unwrap path ------------

def wrapped_reduce(ring, poly):
    """Reduction as a rank-one module element: wrap, normal form, unwrap."""
    return ring.ideal_gb.normal_form((poly,))[0]


def _random_homogeneous(pr, rng, degree, n_terms):
    monos = list(monomials_of_degree(pr.nvars, degree))
    out = pr.zero()
    for _ in range(n_terms):
        out = out + pr.monomial(rng.choice(monos), F.from_int(rng.randint(1, F.p - 1)))
    return out


def _ambient_ring():
    return RingPresentation(PolyRing(F, ["x", "y", "z"]), [], label="S")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["quadric", "two_nodes", "node", "ambient"]))
def test_reduce_matches_wrapped_normal_form(ring_quadric, ring_two_nodes, ring_node,
                                            seed, which):
    ring = {"quadric": ring_quadric, "two_nodes": ring_two_nodes, "node": ring_node,
            "ambient": _ambient_ring()}[which]
    rng = random.Random(seed)
    for _ in range(6):
        poly = _random_homogeneous(ring.poly_ring, rng, rng.randint(0, 4), rng.randint(0, 6))
        got = ring.reduce(poly)
        assert got.terms == wrapped_reduce(ring, poly).terms
        # A normal form has nothing left to reduce: the fast path returns it.
        assert ring.reduce(got) is got


@functools.cache
def _fixture_ideals(name, tag):
    """The Groebner bases of a fixture ring's ideal and of its minimal primes."""
    ring = catalog.ring(name, field_by_tag(tag))
    return ring.poly_ring, [ring.ideal_gb] + [q.gb for q in ring.minimal_primes()]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["R_node", "R_node3", "R_xyzu", "R_quadric"]),
       st.sampled_from(["f32003", "f3", "rational"]))
def test_ideal_contains_matches_the_module_membership_test(seed, name, tag):
    # ideal_contains reduces through the rank-one reducer; gb.contains
    # encodes a one-row column for the module engine.  Each ideal gets a
    # random polynomial and a combination of its generators, alone and plus
    # the random one.
    pr, ideals = _fixture_ideals(name, tag)
    rng = random.Random(seed)
    for gb in ideals:
        degree = rng.randint(0, 4)
        other = _random_homogeneous(pr, rng, degree, rng.randint(0, 4))
        member = pr.zero()
        for g in gb.generators:
            if g[0].degree() <= degree:
                member = member + g[0] * _random_homogeneous(pr, rng, degree - g[0].degree(), 2)
        assert ideal_contains(gb, member)
        for poly in (other, member, member + other):
            assert ideal_contains(gb, poly) == gb.contains((poly,)), poly


def test_reduce_returns_its_input_when_nothing_reduces(ring_two_nodes, ring_quadric):
    pr = ring_two_nodes.poly_ring
    x, y, z, u = (pr.variable(v) for v in "xyzu")
    for poly in (pr.zero(), x * x + z * z, x * z - y * u, pr.one()):
        assert ring_two_nodes.reduce(poly) is poly
    assert ring_two_nodes.reduce(x * y * z).is_zero()
    reduced = ring_two_nodes.reduce(x * x + x * y)
    assert reduced == x * x
    qr = ring_quadric.poly_ring
    xq, yq, wq, zq = (qr.variable(v) for v in "xywz")
    lead_reduces = ring_quadric.reduce(xq * wq)
    assert lead_reduces == wrapped_reduce(ring_quadric, xq * wq)
    assert lead_reduces != xq * wq
    S = _ambient_ring()
    sx, sy = S.poly_ring.variable("x"), S.poly_ring.variable("y")
    poly = sx * sy + sx * sx
    assert S.reduce(poly) is poly


def test_reduce_poly_needs_a_rank_one_basis(ring_node):
    pr = ring_node.poly_ring
    free = FreeModule(pr, (0, 0))
    gb = groebner_basis([(pr.variable("x"), pr.zero())], free)
    with pytest.raises(IncompatibleOperandsError):
        gb.reduce_poly(pr.variable("y"))


def test_ideal_contains_refuses_a_polynomial_of_another_ring():
    # x*z of k[x,y,z] had its exponents zipped down to x of k[x,y], so it
    # was found in the ideal (x).
    small, big = PolyRing(F, ["x", "y"]), PolyRing(F, ["x", "y", "z"])
    gb = ideal_groebner(small, [small.variable("x")])
    with pytest.raises(IncompatibleOperandsError):
        ideal_contains(gb, big.variable("x") * big.variable("z"))
    assert ideal_contains(gb, small.variable("x") * small.variable("y"))


def test_reduce_refuses_a_polynomial_of_another_ring():
    # Over k[x,y]/(xy), z of k[x,y,z] came back unchanged, since no lead
    # divided it, while x*y*z raised; both are refused now, before any
    # monomial of another ring is looked up.
    small, big = PolyRing(F, ["x", "y"]), PolyRing(F, ["x", "y", "z"])
    x, y = small.variable("x"), small.variable("y")
    ring = RingPresentation(small, [x * y], label="xy")
    bx, by, bz = (big.variable(v) for v in "xyz")
    for poly in (bz, bx * by * bz, big.zero()):
        with pytest.raises(IncompatibleOperandsError):
            ring.reduce(poly)
    assert ring.reduce(x * x) == x * x
    assert ring.reduce(x * x * y).is_zero()


# -- spot-check samples: term dicts filled from the draws ---------------------------------

@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_random_poly_matches_the_sum_of_its_terms(rings_over, tag):
    # the same draws, in the same order, as a sum of one-term polynomials:
    # equal values and equal term order, with zero coefficients (from_int
    # of a multiple of 3 over f3) skipped and cancelled monomials deleted
    short = 0
    for ring in rings_over(tag):
        pr = ring.poly_ring
        monos = [list(monomials_of_degree(pr.nvars, d)) for d in range(3)]
        for seed in range(40):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(50):
                got = rings._random_poly(pr, rng, monos)
                want = reference.random_poly_by_sums(pr, ref_rng, monos)
                assert list(got.terms.items()) == list(want.terms.items())
                short += not got.terms
            assert rng.getstate() == ref_rng.getstate()
    assert (short > 0) == (tag == "f3")


def test_draw_below_gives_the_standard_library_streams():
    # randint(a, b) is a + draw_below(getrandbits, b - a + 1) and choice(seq)
    # is seq[draw_below(getrandbits, len(seq))]: the same values, and the
    # same state after every draw, for every range of 1..101 values
    for seed in range(1, 201):
        std, ours = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for n in range(1, 102):
            assert std.randint(-3, n - 4) == -3 + rings.draw_below(bits, n)
            seq = list(range(100, 100 + n))
            assert std.choice(seq) == seq[rings.draw_below(bits, n)]
        assert std.getstate() == ours.getstate()
    for n in (0, -1):
        with pytest.raises(ValueError):
            rings.draw_below(bits, n)
