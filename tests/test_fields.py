import random
from fractions import Fraction

import pytest

import time

from cihom.fields import MR_EXACT_BELOW, FieldError, PrimeField, RationalField, field_by_tag, is_prime


@pytest.mark.parametrize("field,sampler", [
    (PrimeField(32003), lambda rng: rng.randrange(32003)),
    (RationalField(), lambda rng: Fraction(rng.randint(-50, 50), rng.randint(1, 50))),
])
def test_field_axioms_on_random_triples(field, sampler):
    rng = random.Random(20090928)
    for _ in range(1000):
        a, b, c = sampler(rng), sampler(rng), sampler(rng)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero()
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one()


def test_prime_field_canonical_range():
    F = PrimeField(32003)
    assert F.from_int(-1) == 32002
    assert F.from_int(32003) == 0
    assert F.sub(0, 1) == 32002
    assert F.mul(32002, 32002) == F.from_int((-1) * (-1))


def test_rational_canonical_form():
    F = RationalField()
    v = F.div(F.from_int(4), F.from_int(6))
    assert v == Fraction(2, 3)
    assert v.denominator == 3


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
