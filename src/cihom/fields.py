"""Exact coefficient fields: odd prime fields GF(p) and the rationals.

Field elements are plain Python values: ints in [0, p) for GF(p), Fractions
(or ints, which are exact rationals too) for the rationals.  Everything
outside the oracle combines them with one rule: Python's ``+``, ``-`` and
``*``, then ``canonical`` once per finished value, and division only
through ``inv``.  So a field object supplies just ``zero``, ``one``,
``from_int``, ``canonical``, ``inv`` and ``to_str``; the oracle's
elimination loops (``linalg``, ``oracle``) reduce modulo p inline.
Everything is immutable, so fields and elements can be shared freely between
tasks.
"""

from fractions import Fraction


class FieldError(ValueError):
    pass


# Miller-Rabin with the first thirteen primes as bases is exact below the
# least composite that passes all of them (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; FieldError from MR_EXACT_BELOW upwards,
    where these bases no longer decide primality."""
    if n >= MR_EXACT_BELOW:
        raise FieldError(f"modulus {n} is too large: primality is decided only "
                         f"below {MR_EXACT_BELOW}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for an odd prime p.  Elements are canonical ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 3 or not is_prime(p):
            raise FieldError(f"modulus {p} is not an odd prime")
        self.p = p

    @property
    def tag(self) -> str:
        return f"f{self.p}"

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def canonical(self, a):
        """The element of an unreduced int: its residue in [0, p).  Loops
        that add and multiply with Python's operators call it once per
        finished value."""
        return a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    def to_str(self, a) -> str:
        # Balanced representative keeps small negatives readable.
        return str(a - self.p) if a > self.p // 2 else str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """The rationals with arbitrary-precision Fraction elements; an int is
    an exact rational too."""

    __slots__ = ()

    tag = "rational"

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def canonical(self, a):
        """A rational is its own canonical value: Fractions and ints are
        exact, and ``inv`` makes every quotient a Fraction."""
        return a

    def inv(self, a):
        """1/a as a Fraction, also for an int a; ZeroDivisionError for 0."""
        return 1 / Fraction(a)

    def to_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


DEFAULT_PRIME = 32003


def field_by_tag(tag: str):
    """Resolve a field tag such as 'f32003' or 'rational' to a field object."""
    tag = tag.strip().lower()
    if tag in ("rational", "qq", "q"):
        return RationalField()
    if tag.startswith("f") and tag[1:].isdigit():
        return PrimeField(int(tag[1:]))
    if tag.isdigit():
        return PrimeField(int(tag))
    raise FieldError(f"unknown field tag {tag!r}")
