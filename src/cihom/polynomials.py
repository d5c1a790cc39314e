"""Monomials, the term order and multivariate polynomials over an exact field.

Monomials are exponent tuples; the grading is standard (every variable has
weight one), and the one monomial order is grevlex (``grevlex_key``).
Polynomials are immutable term dictionaries bound to a PolyRing that fixes
the field and the variable names, so all operations are pure and results are
always in canonical form (no zero coefficients, no duplicate monomials).

Coefficients follow the one rule of ``cihom.fields``: ``+ - *`` combine
them and ``field.canonical`` makes each stored value a field element, so
``constant``, ``monomial`` and ``scale`` accept any int (-1 or p + 2 over
GF(p)) and every coefficient they and the operators make is canonical.
"""

from __future__ import annotations

import itertools
import operator


class IncompatibleOperandsError(ValueError):
    """Operands live over different fields or variable sets."""


class GradedViolationError(ValueError):
    """A homogeneous input was required but not supplied."""


class InvariantError(RuntimeError):
    """An internal invariant of a computation failed: an engine fault, not bad input."""


# ---------------------------------------------------------------------------
# monomials (exponent tuples)

def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))

def mono_divides(a: tuple, b: tuple) -> bool:
    return all(map(operator.le, a, b))

def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples in nvars variables of the given total degree."""
    if degree < 0:
        return
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    for bars in itertools.combinations(range(degree + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(degree + nvars - 2 - prev)
        yield tuple(exps)


def add_term(terms: dict, mono: tuple, coeff, canonical) -> None:
    """Add the field element coeff times mono into the term dict ``terms``
    in place, as ``Polynomial.__add__`` adds a one-term polynomial: a zero
    coeff changes nothing, a sum is made canonical, and a monomial whose
    coefficients cancel is deleted, so a later term of it goes to the end."""
    if coeff:
        s = canonical(terms[mono] + coeff) if mono in terms else coeff
        if s:
            terms[mono] = s
        else:
            del terms[mono]


def grevlex_key(mono: tuple) -> tuple:
    """The graded reverse lexicographic order: larger keys mean larger
    monomials.  Total degree first; on a tie, the monomial with the smaller
    exponent in the last variable where the two differ is the larger."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


# ---------------------------------------------------------------------------
# polynomials

class PolyRing:
    """A standard-graded polynomial ring over an exact field, ordered by grevlex.

    Holds the field and the variable names (each of degree one).  Acts as
    the factory for Polynomial values; rings compare by content (field and
    variables) so equal rings interoperate.
    """

    __slots__ = ("field", "variables", "_zero", "_one")

    def __init__(self, field, variables):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        self._zero = None
        self._one = None

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def compatible(self, other: "PolyRing") -> bool:
        return self.field == other.field and self.variables == other.variables

    def check_compatible(self, other: "PolyRing"):
        if not self.compatible(other):
            raise IncompatibleOperandsError(
                f"polynomial rings differ: {self!r} vs {other!r}")

    def zero(self) -> "Polynomial":
        if self._zero is None:
            self._zero = Polynomial(self, {})
        return self._zero

    def one(self) -> "Polynomial":
        if self._one is None:
            self._one = self.constant(self.field.one())
        return self._one

    def constant(self, c) -> "Polynomial":
        return self.monomial((0,) * self.nvars, c)

    def from_int(self, n: int) -> "Polynomial":
        return self.constant(self.field.from_int(n))

    def variable(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {mono: self.field.one()})

    def monomial(self, exps, coeff=None) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exps}")
        c = self.field.one() if coeff is None else self.field.canonical(coeff)
        return Polynomial(self, {exps: c}) if c else self.zero()

    def mono_str(self, mono: tuple) -> str:
        parts = []
        for name, e in zip(self.variables, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.compatible(other)

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"PolyRing({self.field.tag}, vars={list(self.variables)})"


# A Polynomial's degree slot before the degree is first read.
_UNKNOWN = object()


class Polynomial:
    """An element of a PolyRing: a dict of exponent tuple -> nonzero coeff.

    ``terms`` never changes once the polynomial is built: every operation
    returns a new polynomial, and no code in the package writes to the
    dict of a built one.  So the degree is computed once, on its first
    read, and kept in the ``_degree`` slot.
    """

    __slots__ = ("ring", "terms", "_degree")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._degree = _UNKNOWN

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self):
        """Degree of a homogeneous polynomial, None for zero.  This is the one
        homogeneity rule: an inhomogeneous polynomial raises
        GradedViolationError naming its term degrees, on every call.  A
        degree, None included, is kept after the first read."""
        deg = self._degree
        if deg is _UNKNOWN:
            degs = {sum(m) for m in self.terms}
            if len(degs) > 1:
                raise GradedViolationError(
                    f"inhomogeneous polynomial {self}: degrees {sorted(degs)}")
            deg = self._degree = next(iter(degs), None)
        return deg

    def is_constant(self) -> bool:
        unit = (0,) * self.ring.nvars
        return not self.terms or (len(self.terms) == 1 and unit in self.terms)

    def constant_value(self):
        unit = (0,) * self.ring.nvars
        return self.terms.get(unit, self.ring.field.from_int(0))

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise IncompatibleOperandsError(f"cannot combine Polynomial with {type(other).__name__}")
        self.ring.check_compatible(other.ring)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        canonical = self.ring.field.canonical
        res = dict(self.terms)
        for m, c in other.terms.items():
            old = res.get(m)
            if old is None:
                res[m] = c
            else:
                s = canonical(old + c)
                if s:
                    res[m] = s
                else:
                    del res[m]
        return Polynomial(self.ring, res)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self + -other

    def __neg__(self) -> "Polynomial":
        canonical = self.ring.field.canonical
        return Polynomial(self.ring, {m: canonical(-c) for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        canonical = self.ring.field.canonical
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                old = res.get(m)
                if old is None:
                    res[m] = canonical(c1 * c2)
                else:
                    s = canonical(old + c1 * c2)
                    if s:
                        res[m] = s
                    else:
                        del res[m]
        return Polynomial(self.ring, res)

    def scale(self, c) -> "Polynomial":
        canonical = self.ring.field.canonical
        if not canonical(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: canonical(v * c) for m, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.compatible(other.ring) and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.variables, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return self.text()

    def text(self) -> str:
        if not self.terms:
            return "0"
        field = self.ring.field
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            cs = field.to_str(c)
            ms = self.ring.mono_str(m)
            if ms == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(ms)
            elif cs == "-1":
                parts.append(f"-{ms}")
            else:
                parts.append(f"{cs}*{ms}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out
