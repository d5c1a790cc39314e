"""Reference implementations that the tests check cihom against.

No command of cihom calls any of these; each is the plain, unoptimized form
of something the engine does another way, kept beside the tests that read it:

- ``mono_div`` and ``mono_lcm`` on exponent tuples: ``reference_normal_form``
  in tests/test_groebner.py shifts its reducers with ``mono_div``, and the
  term-code tests check ``ModuleOrder.lcms`` against ``mono_lcm``;
- ``element_add``, ``element_mul_term``, ``element_mul_poly`` and
  ``element_component`` read an ``Element`` whose keys are (position,
  monomial) pairs instead of term codes: ``reference_normal_form`` is
  written in the first two, and tests/test_groebner.py's ``_column`` reads
  the last;
- ``lift`` solves column = sum x_j c_j over a ``TrackedSubmodule``: the
  double-dual map of tests/test_fmodules.py is built with it;
- ``compose`` and ``composition_is_zero`` check that consecutive
  differentials of a resolution compose to zero;
- ``unparse_declarations`` writes a session's declarations back as script
  text, for the parser's round-trip test.
"""

from __future__ import annotations

import operator

from cihom.fmodules import PolyMatrix
from cihom.groebner import Element, normal_form
from cihom.polynomials import IncompatibleOperandsError, Polynomial, mono_mul


def mono_div(a: tuple, b: tuple) -> tuple:
    """a / b for b dividing a."""
    return tuple(map(operator.sub, a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    """lcm(a, b)."""
    return tuple(map(max, a, b))


def element_component(e: Element, i: int) -> Polynomial:
    """Row i of a (position, monomial)-keyed element."""
    ring = e.module.ring
    return Polynomial(ring, {m: c for (p, m), c in e.terms.items() if p == i})


def element_add(e: Element, other: Element) -> Element:
    canonical = e.module.ring.field.canonical
    res = dict(e.terms)
    for t, c in other.terms.items():
        old = res.get(t)
        if old is None:
            res[t] = c
        else:
            s = canonical(old + c)
            if s:
                res[t] = s
            else:
                del res[t]
    return Element(e.module, res)


def element_mul_term(e: Element, mono: tuple, coeff) -> Element:
    canonical = e.module.ring.field.canonical
    if not canonical(coeff):
        return Element(e.module, {})
    return Element(e.module, {(p, mono_mul(m, mono)): canonical(c * coeff)
                              for (p, m), c in e.terms.items()})


def element_mul_poly(e: Element, poly: Polynomial) -> Element:
    canonical = e.module.ring.field.canonical
    res: dict = {}
    for mono, coeff in poly.terms.items():
        for (p, m), c in e.terms.items():
            t = (p, mono_mul(m, mono))
            old = res.get(t)
            if old is None:
                res[t] = canonical(c * coeff)
            else:
                s = canonical(old + c * coeff)
                if s:
                    res[t] = s
                else:
                    del res[t]
    return Element(e.module, res)


def lift(tracked, column):
    """Coefficients x with column = sum x_j * c_j modulo the relations of the
    ``TrackedSubmodule`` tracked, or None."""
    order = tracked.order
    nf = normal_form(order.encode_column(column, tracked.free), tracked.active, order)
    if any(t & order.block_flag for t in nf.terms):
        return None
    return [-p for p in tracked._tracking_vector(nf)]


def compose(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """A @ B, valid when B's rows match A's columns."""
    if A.col_degs != B.row_degs:
        raise IncompatibleOperandsError("matrix composition degree mismatch")
    z = A.poly_ring.zero()
    ents = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = z
            for k in range(A.ncols):
                a = A.entries[i][k]
                b = B.entries[k][j]
                if a and b:
                    acc = acc + a * b
            row.append(acc)
        ents.append(row)
    return PolyMatrix(A.poly_ring, A.row_degs, B.col_degs, ents)


def composition_is_zero(res) -> bool:
    """d_i . d_{i+1} reduces to zero over the ring for every computed i of
    the ``FreeResolution`` res."""
    for i in range(len(res.differentials) - 1):
        prod = compose(res.differentials[i], res.differentials[i + 1])
        for row in prod.entries:
            for p in row:
                if not res.ring.reduce(p).is_zero():
                    return False
    return True


def unparse_declarations(session) -> str:
    """Canonical script text for the declared rings and modules.

    Parsing the result reproduces the declarations up to canonical form
    (same rings and presentations), which is the round-trip contract.
    """
    lines = []
    for name, ring in session.rings.items():
        pr = ring.poly_ring
        parts = [f"field={pr.field.tag}",
                 "vars=[" + ",".join(pr.variables) + "]",
                 "ideal=[" + ", ".join(f.text() for f in ring.quotient_gens) + "]"]
        if ring.has_minimal_primes:
            primes = ring.minimal_primes()
            if any(p.check_status != "computed" for p in primes):
                body = ",".join("[" + ", ".join(g.text() for g in p.gens) + "]"
                                for p in primes)
                parts.append(f"minimal_primes=[{body}]")
        lines.append(f"ring {name} = quotient(" + ", ".join(parts) + ")")
    for name, mod in session.modules.items():
        ring_name = next(rn for rn, r in session.rings.items()
                         if r.same_ring(mod.ring))
        shifts = "[" + ",".join(str(d) for d in mod.gen_degs) + "]"
        rows = ",".join("[" + ", ".join(p.text() for p in row) + "]"
                        for row in mod.relations.entries)
        lines.append(f"module {name} = coker({ring_name}, shifts={shifts}, "
                     f"matrix=[{rows}])")
    return "\n".join(lines) + "\n"
