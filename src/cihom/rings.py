"""Presentations of the ambient graded ring S and quotients R = S/(f1..fc).

Dimension is read off the Hilbert series numerator of the initial ideal
(``hilbert_numerator``, which serves modules too), and a regular-sequence
certificate records the per-step dimension drop, which for homogeneous
sequences in the Cohen-Macaulay ambient ring is equivalent to regularity.
Ring presentations are immutable after construction and cache the Groebner
basis of the quotient ideal eagerly.  The minimal primes of a monomial
quotient ideal (the empty ideal of an ambient ring included) are computed on
first read, and the ambient ring S is built once per ring, on first use.
"""

from __future__ import annotations

import itertools
import random

from .polynomials import PolyRing, Polynomial, add_term, mono_divides, monomials_of_degree
from .groebner import FreeModule, groebner_basis

NEG_INF = float("-inf")
INF = float("inf")
# Monomial-ideal numerators kept by module_numerator before its table starts over.
_NUMERATORS_MAX = 1 << 12
_numerators: dict = {}


def encode_infinite(v):
    """A value for JSON output: the strings "inf" and "-inf" for INF and NEG_INF."""
    return "inf" if v == INF else ("-inf" if v == NEG_INF else v)


class HypothesisMissingError(ValueError):
    """An operation's hypothesis (certificate, primes, ...) is unavailable."""


class UnitIdealError(ValueError):
    """A quotient generator is a nonzero constant: S/(f) is the zero ring."""


class MinimalPrimesMismatchError(ValueError):
    """Declared minimal primes of a monomial quotient ideal are not the
    computed ones, or a declared prime fails its spot check."""


def ideal_groebner(poly_ring: PolyRing, polys):
    """Reduced Groebner basis of an ideal, as a rank-one module basis."""
    return groebner_basis([(p,) for p in polys if p], FreeModule(poly_ring, (0,)))


def ideal_contains(gb, poly: Polynomial) -> bool:
    """Whether ``poly`` lies in the ideal of the rank-one basis ``gb``: its
    normal form (``GroebnerBasis.reduce_poly``) is zero."""
    return not gb.reduce_poly(poly)


def hilbert_numerator(lead_monos) -> dict:
    """Numerator K of HS(S/L) = K(t) / (1 - t)^n, L the ideal of the given
    monomials, as {exponent: nonzero coefficient}.

    Pivot rule K(L) = K(L + (x)) + t K(L : x) on the variable x in the most
    minimal generators (Bigatti 1997; Bayer and Stillman 1992); x then is not
    a generator, so both branches lower the generators' total degree.
    Pairwise coprime generators m_i give prod (1 - t^deg m_i), which is zero
    when one of them is constant.
    """
    num: dict = {}
    work = [(lead_monos, 0)]
    while work:
        monos, shift = work.pop()
        gens: list = []
        for m in sorted(set(monos), key=sum):
            if not any(mono_divides(g, m) for g in gens):
                gens.append(m)
        n = len(gens[0]) if gens else 0
        counts = [sum(1 for m in gens if m[v]) for v in range(n)] + [0]
        v = counts.index(max(counts))
        if counts[v] <= 1:
            part = {shift: 1}
            for m in gens:
                part = add_numerator(dict(part), part, sum(m), -1)
            add_numerator(num, part)
        else:
            x = tuple(int(i == v) for i in range(n))
            work += [([m for m in gens if not m[v]] + [x], shift),
                     ([m[:v] + (m[v] - 1,) + m[v + 1:] if m[v] else m for m in gens], shift + 1)]
    return num


def module_numerator(gen_degs, leads) -> dict:
    """Numerator K of HS(F / U) = K(t) / (1 - t)^n, F free on ``gen_degs`` and
    U a submodule whose initial module the (position, monomial) ``leads``
    generate: that module splits by position into monomial ideals L_i, so
    K = sum_i t^(gen_degs[i]) K(L_i).  Redundant leads are harmless.

    Each K(L_i) is looked up by the set of L_i's monomials in a
    process-level table that starts over at ``_NUMERATORS_MAX`` entries:
    one run meets the same position ideals again and again."""
    by_position = [[] for _ in gen_degs]
    for p, m in leads:
        by_position[p].append(m)
    num: dict = {}
    for gdeg, monos in zip(gen_degs, by_position):
        key = frozenset(monos)
        part = _numerators.get(key)
        if part is None:
            if len(_numerators) >= _NUMERATORS_MAX:
                _numerators.clear()
            part = _numerators[key] = hilbert_numerator(monos)
        add_numerator(num, part, gdeg)
    return num


def hilbert_values(num: dict, nvars: int, dmin: int, dmax: int) -> dict:
    """The coefficients of num(t) / (1 - t)^nvars in degrees dmin..dmax."""
    lo = min([dmin, *num])
    values = [num.get(d, 0) for d in range(lo, dmax + 1)]
    for _ in range(nvars):
        values = list(itertools.accumulate(values))  # divide by (1 - t)
    return {d: values[d - lo] for d in range(dmin, dmax + 1)}


def add_numerator(num: dict, other: dict, shift: int = 0, sign: int = 1) -> dict:
    """num += sign * t^shift * other in place, dropping zero coefficients."""
    for e, c in other.items():
        num[e + shift] = num.get(e + shift, 0) + sign * c
        if not num[e + shift]:
            del num[e + shift]
    return num


def dimension_and_multiplicity(num: dict, nvars: int):
    """(Krull dimension, multiplicity) for the Hilbert series num(t) / (1 - t)^nvars:
    nvars minus the order k of t = 1 as a root of num, and num / (1 - t)^k at
    t = 1.  The zero series gives (-inf, 0)."""
    coeffs = [num.get(e, 0) for e in range(min(num), max(num) + 1)] if num else []
    order = 0
    while coeffs and sum(coeffs) == 0:
        coeffs = list(itertools.accumulate(coeffs))[:-1]  # divide by (1 - t)
        order += 1
    return (nvars - order, sum(coeffs)) if coeffs else (NEG_INF, 0)


def ideal_dimension(poly_ring: PolyRing, polys) -> float:
    """Krull dimension of S/(polys), from its initial ideal; -inf for the unit ideal."""
    gb = ideal_groebner(poly_ring, polys)
    leads = [m for _, m in gb.lead_terms]
    return dimension_and_multiplicity(hilbert_numerator(leads), poly_ring.nvars)[0]


class PrimeIdeal:
    """A declared prime ideal of S (containing the quotient ideal).

    Monomial quotient ideals get their minimal primes computed exactly;
    user-supplied primes are only spot-checked (``spot_check_prime``): one
    the check disproves is refused, and one it passes is recorded as
    'spot-checked', never upgraded to a proof.
    """

    __slots__ = ("poly_ring", "gens", "gb", "check_status")

    def __init__(self, poly_ring: PolyRing, gens, check_status="declared"):
        self.poly_ring = poly_ring
        self.gens = tuple(gens)
        self.gb = ideal_groebner(poly_ring, self.gens)
        self.check_status = check_status

    def contains(self, poly: Polynomial) -> bool:
        return ideal_contains(self.gb, poly)

    def same_ideal(self, other: "PrimeIdeal") -> bool:
        """Equality as ideals: each contains the other's generators."""
        return (all(self.contains(g) for g in other.gens)
                and all(other.contains(g) for g in self.gens))

    def label(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(g.text() for g in self.gens) + ")"

    def __repr__(self):
        return f"PrimeIdeal{self.label()}"


def monomial_minimal_primes(poly_ring: PolyRing, mono_gens):
    """Minimal primes of a monomial ideal: minimal transversals of supports."""
    supports = []
    for p in mono_gens:
        (mono,) = p.terms
        supports.append(frozenset(i for i, e in enumerate(mono) if e > 0))
    n = poly_ring.nvars
    hitting = []
    for size in range(0, n + 1):
        for T in itertools.combinations(range(n), size):
            Tset = frozenset(T)
            if all(s & Tset for s in supports):
                if not any(h <= Tset for h in hitting):
                    hitting.append(Tset)
    primes = []
    for h in sorted(hitting, key=sorted):
        gens = [poly_ring.variable(poly_ring.variables[i]) for i in sorted(h)]
        primes.append(PrimeIdeal(poly_ring, gens, check_status="computed"))
    return primes


def draw_below(getrandbits, n: int) -> int:
    """A random int in [0, n), n >= 1, drawn as ``random.Random`` draws it
    from ``getrandbits`` (a bound ``Random.getrandbits``): ``n.bit_length()``
    bits, drawn again while the value is n or more.  So
    ``a + draw_below(rng.getrandbits, b - a + 1)`` is ``rng.randint(a, b)``
    and ``seq[draw_below(rng.getrandbits, len(seq))]`` is
    ``rng.choice(seq)``: the same value and the same state after, without
    their three Python frames per draw.  ValueError for n < 1, where they
    raise too."""
    if n < 1:
        raise ValueError(f"no int to draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_poly(poly_ring: PolyRing, rng: random.Random, monos_by_degree) -> Polynomial:
    """One to three terms of one degree 0..2, drawn from ``monos_by_degree``
    (a monomial, then its coefficient) and summed into one term dict, every
    draw through ``draw_below``."""
    field, bits = poly_ring.field, rng.getrandbits
    monos = monos_by_degree[draw_below(bits, 3)]
    terms: dict = {}
    for _ in range(1 + draw_below(bits, 3)):
        m = monos[draw_below(bits, len(monos))]
        add_term(terms, m, field.from_int(1 + draw_below(bits, 100)), field.canonical)
    return Polynomial(poly_ring, terms)


def spot_check_prime(poly_ring: PolyRing, prime: PrimeIdeal, quotient_gens) -> str | None:
    """Why a declared minimal prime is certainly wrong, or None.

    Each failure is a certificate: a quotient generator outside the prime,
    the prime being the unit ideal, or a pair of non-members a, b with ab
    in it, among 25 sampled pairs (seed 7).  None is recorded as
    'spot-checked', never as proven.
    """
    outside = next((f for f in quotient_gens if not prime.contains(f)), None)
    if outside is not None:
        return f"the quotient generator {outside.text()} is not in it"
    if prime.contains(poly_ring.one()):
        return "it is the unit ideal"
    rng = random.Random(7)
    monos_by_degree = [list(monomials_of_degree(poly_ring.nvars, d)) for d in range(3)]
    for _ in range(25):
        a = _random_poly(poly_ring, rng, monos_by_degree)
        b = _random_poly(poly_ring, rng, monos_by_degree)
        if not (prime.contains(a) or prime.contains(b)) and prime.contains(a * b):
            return f"{a.text()} and {b.text()} are not in it, but their product is"
    return None


class RingPresentation:
    """Ambient graded polynomial ring S plus homogeneous quotient generators.

    Fields: the coefficient field tag, the ambient PolyRing, the quotient
    generators f1..fc, the cached Groebner basis of (f), declared minimal
    primes (checked here; for a monomial ideal without declared ones they are
    computed on first read), warnings, the regular-sequence certificate and
    the ambient ring S.  codim = c and dim R = dim S - c once certified.
    """

    __slots__ = ("label", "poly_ring", "quotient_gens", "ideal_gb", "warnings",
                 "_minimal_primes", "_certificate", "_ambient")

    def __init__(self, poly_ring: PolyRing, quotient_gens, label="R",
                 minimal_primes=None):
        self.label = label
        self.poly_ring = poly_ring
        gens = []
        self.warnings = []
        for f in quotient_gens:
            if f.is_zero():
                continue
            if f.is_constant():
                raise UnitIdealError(f"quotient generator {f} is a nonzero constant: "
                                     "the ideal is the unit ideal")
            d = f.degree()   # raises GradedViolationError if inhomogeneous
            if d < 2:
                self.warnings.append(
                    f"quotient generator {f} has degree {d} < 2; "
                    "shorten the presentation to keep codimension = number of generators")
            gens.append(f)
        self.quotient_gens = tuple(gens)
        self.ideal_gb = ideal_groebner(poly_ring, self.quotient_gens)
        self._minimal_primes = None
        self._certificate = None
        self._ambient = None
        if minimal_primes is not None:
            checked = [PrimeIdeal(poly_ring, gens_q, check_status="declared")
                       for gens_q in minimal_primes]
            if self._is_monomial_ideal():
                self._require_monomial_primes(checked)
            for prime in checked:
                failure = spot_check_prime(poly_ring, prime, self.quotient_gens)
                if failure is not None:
                    raise MinimalPrimesMismatchError(
                        f"ring {label}: declared minimal prime {prime.label()} "
                        f"fails its spot check: {failure}")
                prime.check_status = "spot-checked"
            self._minimal_primes = checked

    # -- structure ------------------------------------------------------------

    @property
    def field(self):
        return self.poly_ring.field

    @property
    def codim(self) -> int:
        return len(self.quotient_gens)

    @property
    def is_ambient(self) -> bool:
        return not self.quotient_gens

    def ambient(self) -> "RingPresentation":
        """The ambient ring S with no quotient, built once per ring; an
        ambient ring is its own."""
        if self._ambient is None:
            self._ambient = self if self.is_ambient else RingPresentation(
                self.poly_ring, [], label=f"ambient({self.label})")
        return self._ambient

    def _is_monomial_ideal(self) -> bool:
        return all(len(f.terms) == 1 for f in self.quotient_gens)

    def _require_monomial_primes(self, declared):
        """Refuse declared minimal primes of a monomial quotient ideal unless
        they are, in some order and without repeats, the computed ones."""
        computed = monomial_minimal_primes(self.poly_ring, self.quotient_gens)
        matched = sorted(next((i for i, q in enumerate(computed) if p.same_ideal(q)), -1)
                         for p in declared)
        if matched != list(range(len(computed))):
            raise MinimalPrimesMismatchError(
                f"ring {self.label}: declared minimal primes "
                f"[{', '.join(p.label() for p in declared)}] are not the minimal primes "
                f"[{', '.join(q.label() for q in computed)}] of its monomial ideal")

    def dimension(self) -> float:
        """Krull dimension of R: the last entry of the certificate's record."""
        return self.verify_regular_sequence()["dims"][-1]

    def reduce(self, poly: Polynomial) -> Polynomial:
        """Normal form of a polynomial modulo the quotient ideal.

        Returns ``poly`` itself, with no normal form run, when none of its
        terms is divisible by a lead monomial of the quotient ideal's basis:
        always over the ambient ring, and for the zero polynomial.
        """
        return self.ideal_gb.reduce_poly(poly)

    def verify_regular_sequence(self) -> dict:
        """Per-step dimension record ``{"ok", "dims", "failed_at"}`` of f1..fc:
        ok iff dim S/(f1..fk) = dim S - k for every k <= c."""
        if self._certificate is None:
            n = self.poly_ring.nvars
            dims = [n]
            failed_at = None
            for k in range(1, self.codim + 1):
                d = ideal_dimension(self.poly_ring, self.quotient_gens[:k])
                dims.append(d)
                if failed_at is None and d != n - k:
                    failed_at = k
            self._certificate = {"ok": failed_at is None, "dims": dims, "failed_at": failed_at}
        return self._certificate

    @property
    def certified(self) -> bool:
        return self.verify_regular_sequence()["ok"]

    def require_certified(self):
        if not self.certified:
            raise HypothesisMissingError(
                f"ring {self.label} is not a certified complete intersection: "
                f"{self.verify_regular_sequence()}")

    def minimal_primes(self):
        """The declared minimal primes, or those of a monomial quotient
        ideal, computed on first read (``monomial_minimal_primes``)."""
        if self._minimal_primes is None:
            if not self._is_monomial_ideal():
                raise HypothesisMissingError(
                    f"ring {self.label} has no minimal primes: the quotient ideal is not "
                    "monomial, so declare them in the ring constructor")
            self._minimal_primes = monomial_minimal_primes(self.poly_ring, self.quotient_gens)
        return self._minimal_primes

    @property
    def has_minimal_primes(self) -> bool:
        return self._minimal_primes is not None or self._is_monomial_ideal()

    def is_domain(self) -> bool:
        """Whether the quotient ideal is prime, as far as the prime data goes.

        True requires a single minimal prime coinciding with the quotient
        ideal; False without prime data.
        """
        if self.is_ambient:
            return True
        if not self.has_minimal_primes or len(self.minimal_primes()) != 1:
            return False
        q = self.minimal_primes()[0]   # it contains the quotient ideal
        return all(ideal_contains(self.ideal_gb, g) for g in q.gens)

    # -- identity ---------------------------------------------------------------

    def same_ring(self, other: "RingPresentation") -> bool:
        return (self.poly_ring == other.poly_ring
                and self.quotient_gens == other.quotient_gens)

    def describe(self) -> dict:
        return {
            "label": self.label,
            "field": self.field.tag,
            "variables": list(self.poly_ring.variables),
            "quotient": [f.text() for f in self.quotient_gens],
            "codim": self.codim,
            "dim": self.dimension(),
            "certified_complete_intersection": self.certified,
            "warnings": list(self.warnings),
        }

    def __repr__(self):
        quot = ", ".join(f.text() for f in self.quotient_gens)
        return (f"RingPresentation({self.field.tag}[{', '.join(self.poly_ring.variables)}]"
                + (f"/({quot})" if quot else "") + ")")
