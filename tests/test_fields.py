import ast
import pathlib
import random
import time
from fractions import Fraction

import pytest

from cihom.fields import MR_EXACT_BELOW, FieldError, PrimeField, RationalField, field_by_tag, is_prime


@pytest.mark.parametrize("field,sampler", [
    (PrimeField(32003), lambda rng: rng.randrange(32003)),
    (RationalField(), lambda rng: Fraction(rng.randint(-50, 50), rng.randint(1, 50))),
    (PrimeField(3), lambda rng: rng.randrange(3)),
    (PrimeField(4294967311), lambda rng: rng.randrange(4294967311)),
])
def test_field_axioms_on_random_triples(field, sampler):
    # The one coefficient rule: Python's + - * on elements, canonical on
    # each result, division through inv.
    k = field.canonical
    rng = random.Random(20090928)
    for _ in range(1000):
        a, b, c = sampler(rng), sampler(rng), sampler(rng)
        assert k(k(a + b) + c) == k(a + k(b + c))
        assert k(k(a * b) * c) == k(a * k(b * c))
        assert k(a * k(b + c)) == k(k(a * b) + k(a * c))
        assert k(a + k(-a)) == field.from_int(0)
        assert k(a - b) == k(a + k(-b))
        for v in (a + b, a - b, a * b, -a):
            assert k(k(v)) == k(v)
            assert isinstance(field, RationalField) or 0 <= k(v) < field.p
        if a:
            assert k(a * field.inv(a)) == field.one()


def test_prime_field_canonical_range():
    F = PrimeField(32003)
    assert F.from_int(-1) == 32002
    assert F.from_int(32003) == 0
    assert F.canonical(0 - 1) == 32002
    assert F.canonical(32002 * 32002) == F.from_int((-1) * (-1))
    assert [F.canonical(v) for v in (-32004, -1, 32003, 2 * 32003 + 5)] == [32002, 32002, 0, 5]


def test_rational_canonical_form():
    F = RationalField()
    v = F.from_int(4) * F.inv(F.from_int(6))
    assert v == Fraction(2, 3)
    assert v.denominator == 3
    # an int is an exact rational, and its inverse a Fraction, not a float
    assert type(F.inv(3)) is Fraction and F.inv(3) == Fraction(1, 3)
    assert F.canonical(3) == 3 and 5 * F.inv(3) == Fraction(5, 3)


def test_field_by_tag():
    assert isinstance(field_by_tag("f32003"), PrimeField)
    assert isinstance(field_by_tag("rational"), RationalField)
    assert field_by_tag("101").p == 101
    with pytest.raises(FieldError):
        field_by_tag("f4")  # not prime
    with pytest.raises(FieldError):
        field_by_tag("bogus")


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(32003).inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(3).inv(3)   # zero as an unreduced int
    assert PrimeField(3).inv(-1) == 2
    with pytest.raises(ZeroDivisionError):
        RationalField().inv(Fraction(0))


def _trial_division_prime(n):
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(5000) if is_prime(n)] == \
        [n for n in range(5000) if _trial_division_prime(n)]


def test_prime_field_rejects_carmichael_numbers():
    for n in (561, 41041):
        with pytest.raises(FieldError):
            PrimeField(n)


def test_large_prime_moduli_accepted_quickly():
    start = time.perf_counter()
    for p in (4294967311, 2305843009213693951):
        assert field_by_tag(f"f{p}").p == p
    assert time.perf_counter() - start < 0.5


def test_benchmark_field_primes_accepted():
    # The benchmark's fields are the primes from 16411 to 32003; every
    # modulus in that range is classified as trial division does.
    for n in range(16411, 32004):
        if _trial_division_prime(n):
            assert PrimeField(n).p == n
        else:
            with pytest.raises(FieldError):
                PrimeField(n)


def test_modulus_beyond_certified_range_rejected():
    for n in (MR_EXACT_BELOW, 2 ** 89 - 1):
        with pytest.raises(FieldError, match="too large"):
            PrimeField(n)


# -- the coefficient boundary -----------------------------------------------------

_SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cihom"
# The oracle's elimination loops reduce modulo p inline: they are the
# independent cross-check, and a call per entry would slow them.
_ORACLE_MODULES = ("linalg.py", "oracle.py")
_FIELD_API = {"one", "from_int", "canonical", "inv", "to_str", "tag"}


def _boundary_violations(source: str, filename: str) -> list:
    """Each read of a field attribute outside the field API, and each
    ``% p``: a field is a name ``field``, an attribute ``.field`` or a name
    assigned from either."""
    tree = ast.parse(source, filename)

    def is_field(node, aliases=()):
        return (isinstance(node, ast.Name) and (node.id == "field" or node.id in aliases)
                or isinstance(node, ast.Attribute) and node.attr == "field")

    aliases = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and is_field(node.value) for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr not in _FIELD_API
                and is_field(node.value, aliases)):
            found.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
              and getattr(node.right, "id", getattr(node.right, "attr", None)) in ("p", "prime")):
            found.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_scan_sees_field_methods_and_inline_reduction():
    source = ("def f(ring, field, x, p):\n"
              "    k = ring.field\n"
              "    add = k.add\n"
              "    return field.mul(x, x) + ring.field.neg(x) + x % p + x % field.p\n")
    assert sorted(v.split(": ", 1)[1] for v in _boundary_violations(source, "m.py")) == \
        sorted(["k.add", "field.mul", "ring.field.neg", "x % p", "x % field.p", "field.p"])
    assert _boundary_violations("def g(ring, x):\n    return ring.field.canonical(-x)\n",
                                "m.py") == []


def test_only_the_field_api_combines_coefficients_outside_the_oracle():
    # One coefficient rule: Python's + - *, field.canonical on each finished
    # value and field.inv; only linalg.py and oracle.py reduce modulo p inline.
    paths = sorted(_SOURCE.glob("*.py"))
    assert {p.name for p in paths} >= {"fields.py", "polynomials.py", "groebner.py",
                                       *_ORACLE_MODULES}
    found = [v for path in paths if path.name not in ("fields.py", *_ORACLE_MODULES)
             for v in _boundary_violations(path.read_text(), path.name)]
    assert found == []
    for field in (PrimeField(3), RationalField()):
        assert [name for name in ("add", "sub", "neg", "mul", "div", "is_zero")
                if hasattr(field, name)] == []
