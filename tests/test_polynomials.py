import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cihom.fields import PrimeField, field_by_tag
from cihom.polynomials import (
    GradedViolationError,
    IncompatibleOperandsError,
    PolyRing,
    Polynomial,
    grevlex_key,
    mono_mul,
    monomials_of_degree,
)

F = PrimeField(32003)


def ring4():
    return PolyRing(F, ["x", "y", "z", "u"])


def test_poly_combine_ring_identity():
    pr = PolyRing(F, ["x", "y"])
    x, y = pr.variable("x"), pr.variable("y")
    assert (x + y) * (x - y) == x * x - y * y


def test_poly_combine_identity_case():
    pr = PolyRing(F, ["x", "y"])
    x, y = pr.variable("x"), pr.variable("y")
    p = x * x + y
    assert p + pr.zero() == p
    assert p - pr.zero() == p


def test_plain_ambient_product():
    pr = ring4()
    x, y = pr.variable("x"), pr.variable("y")
    assert y * x == x * y


def test_poly_combine_mismatch():
    a = PolyRing(F, ["x", "y"]).variable("x")
    b = PolyRing(F, ["x", "z"]).variable("x")
    with pytest.raises(IncompatibleOperandsError):
        a + b


def _cmp(a, b):
    ka, kb = grevlex_key(a), grevlex_key(b)
    return (ka > kb) - (ka < kb)


def test_monomial_cmp_grevlex_examples():
    # x^2 vs x*y in (x, y, z)
    assert _cmp((2, 0, 0), (1, 1, 0)) == 1
    assert _cmp((1, 1, 0), (1, 1, 0)) == 0
    # y*z vs x*z with x > y > z
    assert _cmp((0, 1, 1), (1, 0, 1)) == -1
    # grevlex, not lex: x*z^2 < y^3 in degree 3
    assert _cmp((1, 0, 2), (0, 3, 0)) == -1


def test_homogeneous_degree_quadric():
    pr = PolyRing(F, ["x", "y", "w", "z"])
    x, y, w, z = (pr.variable(v) for v in "xywz")
    assert (x * w - y * z).degree() == 2


def test_homogeneous_degree_zero_sentinel():
    pr = ring4()
    assert pr.zero().degree() is None


def test_homogeneous_degree_inhomogeneous():
    pr = ring4()
    x = pr.variable("x")
    with pytest.raises(GradedViolationError, match=r"degrees \[1, 2\]"):
        (x + x * x).degree()


def test_the_degree_is_kept_and_an_inhomogeneous_one_raises_on_every_read():
    pr = ring4()
    x, y = pr.variable("x"), pr.variable("y")
    mixed = x + x * y
    errors = []
    for _ in range(3):
        with pytest.raises(GradedViolationError) as err:
            mixed.degree()
        errors.append(str(err.value))
    assert errors == ["inhomogeneous polynomial x*y + x: degrees [1, 2]"] * 3
    rng = random.Random(3)
    for _ in range(100):
        p = _random_homogeneous(pr, rng, rng.randint(0, 3))
        fresh = Polynomial(pr, p.terms)   # the same terms, no degree read yet
        assert p.degree() == p.degree() == fresh.degree() == \
            next(iter({sum(m) for m in p.terms}), None)
    zero = Polynomial(pr, {})
    assert zero.degree() is None and zero.degree() is None


def _random_homogeneous(pr, rng, deg):
    monos = list(monomials_of_degree(pr.nvars, deg))
    out = pr.zero()
    for _ in range(rng.randint(1, 4)):
        out = out + pr.monomial(rng.choice(monos), F.from_int(rng.randint(1, 100)))
    return out


def test_degree_additivity_random():
    pr = ring4()
    rng = random.Random(7)
    for _ in range(200):
        p = _random_homogeneous(pr, rng, rng.randint(1, 3))
        q = _random_homogeneous(pr, rng, rng.randint(1, 3))
        if (p * q).is_zero():
            continue
        assert (p * q).degree() == p.degree() + q.degree()


@st.composite
def monomials(draw, nvars=4, max_exp=4):
    return tuple(draw(st.integers(min_value=0, max_value=max_exp))
                 for _ in range(nvars))


@settings(max_examples=200, deadline=None)
@given(monomials(), monomials(), monomials())
def test_order_axioms(a, b, c):
    # total and antisymmetric
    ab = _cmp(a, b)
    ba = _cmp(b, a)
    assert (ab == 0) == (a == b)
    if ab == -1:
        assert ba == 1
    # multiplicative
    if ab != 0:
        assert _cmp(mono_mul(a, c), mono_mul(b, c)) == ab


@settings(max_examples=100, deadline=None)
@given(monomials(), monomials())
def test_degree_refinement(a, b):
    if sum(a) < sum(b):
        assert _cmp(a, b) == -1


def test_strict_total_order_on_sample():
    rng = random.Random(11)
    sample = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(60)]
    ranked = sorted(set(sample), key=grevlex_key)
    for i in range(len(ranked) - 1):
        assert _cmp(ranked[i], ranked[i + 1]) == -1


def test_polynomial_text_round_trip_display():
    pr = ring4()
    x, y, z, u = (pr.variable(v) for v in "xyzu")
    p = pr.from_int(3) * x * x * y - z * u
    assert p.text() == "3*x^2*y - z*u"


# -- every coefficient a polynomial is made with is canonical -------------------------

def test_constants_from_any_int_are_field_elements():
    pr = PolyRing(F, ["x", "y"])
    x = pr.variable("x")
    assert pr.constant(-1) == -pr.one() == pr.from_int(-1)
    assert pr.constant(-1).terms == {(0, 0): 32002}
    assert pr.constant(32003) == pr.zero() == pr.monomial((1, 0), -32003)
    assert pr.monomial((1, 0), 32004) == x == x.scale(32004)
    assert x.scale(-32003) == pr.zero()


_FIELD_TAGS = ["f3", "f32003", "f4294967311", "rational"]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.sampled_from(_FIELD_TAGS))
def test_every_made_coefficient_is_canonical(seed, field_tag):
    # Raw ints below 0 and at or above p go in; every coefficient that comes
    # out of a constructor or an operator is nonzero and its own canonical
    # value, and equals the one made from the canonical input.
    rng = random.Random(seed)
    field = field_by_tag(field_tag)
    pr = PolyRing(field, ["x", "y", "z"])
    p = getattr(field, "p", 7)

    def raw():
        if rng.random() < 0.2 and not isinstance(field, PrimeField):
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.choice([rng.randint(-3 * p, 3 * p), -1, -p, p, p + 1, 2 * p - 1, 0])

    def mono():
        return rng.choice(list(monomials_of_degree(3, rng.randint(0, 2))))

    def poly():
        out = pr.zero()
        for _ in range(rng.randint(0, 5)):
            out = out + pr.monomial(mono(), raw())
        return out

    made = []
    for _ in range(4):
        n, m, f, g = raw(), mono(), poly(), poly()
        made += [pr.constant(n), pr.monomial(m, n), pr.from_int(n), f + g, f - g, -f,
                 f * g, f.scale(n)]
        k = field.canonical(n)
        assert pr.constant(n) == pr.constant(k) == pr.from_int(n)
        assert pr.monomial(m, n) == pr.monomial(m, k)
        assert f.scale(n) == f.scale(k) == f * pr.constant(n)
        assert f - g == f + -g and (f - f).is_zero() and -(-f) == f
    for q in made:
        for c in q.terms.values():
            assert c and field.canonical(c) == c, c
            assert type(c) is int if isinstance(field, PrimeField) else type(c) in (int, Fraction)
