"""Cross-validation of the Groebner engine against an independent system.

sympy's implementation computes the unique reduced basis over the rationals
with the same grevlex order, so reduced bases must match term for term.
"""

import random
from fractions import Fraction

import sympy

from cihom.fields import RationalField
from cihom.groebner import FreeModule, groebner_basis
from cihom.polynomials import PolyRing, grevlex_key, monomials_of_degree

FQ = RationalField()


def _to_sympy(poly, syms):
    expr = sympy.Integer(0)
    for mono, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(syms, mono):
            term *= s ** e
        expr += term
    return expr


def _from_sympy_dict(expr, syms):
    """Term dict of a sympy expression, normalized monic under grevlex
    (sympy emits primitive integer polynomials, ours are monic)."""
    poly = sympy.Poly(expr, *syms)
    terms = {tuple(m): Fraction(int(c.p), int(c.q))
             for m, c in zip(poly.monoms(), poly.coeffs())}
    lead = max(terms, key=grevlex_key)
    lc = terms[lead]
    return {m: c / lc for m, c in terms.items()}


def _random_ideal(pr, rng, n_gens, max_deg):
    out = []
    for _ in range(n_gens):
        deg = rng.randint(1, max_deg)
        monos = list(monomials_of_degree(pr.nvars, deg))
        p = pr.zero()
        for _t in range(rng.randint(1, 3)):
            c = FQ.from_int(rng.randint(-9, 9))
            if c:
                p = p + pr.monomial(rng.choice(monos), c)
        if p:
            out.append(p)
    return out


def test_reduced_bases_match_sympy():
    rng = random.Random(1313)
    names = ["x", "y", "z"]
    pr = PolyRing(FQ, names)
    syms = sympy.symbols(names)
    free = FreeModule(pr, (0,))
    compared = 0
    for _ in range(12):
        gens = _random_ideal(pr, rng, rng.randint(2, 3), 2)
        if not gens:
            continue
        ours = groebner_basis([(g,) for g in gens], free)
        theirs = sympy.groebner([_to_sympy(g, syms) for g in gens],
                                *syms, order="grevlex")
        ours_terms = sorted(
            (sorted(g[0].terms.items()) for g in ours.generators))
        theirs_terms = sorted(
            (sorted(_from_sympy_dict(e, syms).items()) for e in theirs.exprs))
        assert ours_terms == theirs_terms, (gens, list(theirs.exprs))
        compared += 1
    assert compared >= 10


def test_homogeneous_fixture_matches_sympy():
    names = ["x", "y", "z", "u"]
    pr = PolyRing(FQ, names)
    syms = sympy.symbols(names)
    x, y, z, u = (pr.variable(v) for v in names)
    free = FreeModule(pr, (0,))
    gens = [x * y - z * u, x * x - y * z, y * y - x * u]
    ours = groebner_basis([(g,) for g in gens], free)
    theirs = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                            order="grevlex")
    ours_terms = sorted(
        (sorted(g[0].terms.items()) for g in ours.generators))
    theirs_terms = sorted(
        (sorted(_from_sympy_dict(e, syms).items()) for e in theirs.exprs))
    assert ours_terms == theirs_terms
