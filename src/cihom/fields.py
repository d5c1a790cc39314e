"""Exact coefficient fields: odd prime fields GF(p) and the rationals.

Field elements are plain Python values (ints in [0, p) for GF(p), Fraction
for the rationals); the field object supplies the operations.  ``*``, ``+``
and unary ``-`` act on both kinds of value, so a hot loop may run on them
directly and make each finished value an element with ``canonical``.
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

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def canonical(self, a):
        """The element of an unreduced int: its residue in [0, p).  Loops
        that add and multiply with Python's operators call it once per
        finished value."""
        return a % self.p

    def add(self, a, b):
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a, b):
        d = a - b
        return d + self.p if d < 0 else d

    def neg(self, a):
        return self.p - a if a else 0

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

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
    """The rationals with arbitrary-precision Fraction elements."""

    __slots__ = ()

    tag = "rational"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def canonical(self, a):
        """A Fraction is already canonical: the value itself."""
        return a

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

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
