import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cihom.fields import PrimeField, RationalField
from cihom.linalg import MAX_SLICE, EchelonAccumulator, residue_dtype
from cihom.oracle import _kernel_basis, _rref, _zeros

P = 32003


def _prime_array(rows, p=P):
    A = _zeros((len(rows), len(rows[0]) if rows else 0), p)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            A[i, j] = v % p
    return A


def _rank(A, p):
    return len(_rref(A, p)[1])


def _nullity(K):
    return 0 if K is None else K.shape[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=2, max_value=5))
def test_prime_kernel_annihilates(seed, m, n):
    rng = random.Random(seed)
    A = _prime_array([[rng.randrange(P) for _ in range(n)] for _ in range(m)])
    K = _kernel_basis(A, P)
    if K is not None:
        assert not np.any((A @ K) % P)
    # rank-nullity
    assert _rank(A, P) + _nullity(K) == n


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_rational_kernel_annihilates(seed):
    rng = random.Random(seed)
    m, n = rng.randint(2, 4), rng.randint(2, 4)
    A = _zeros((m, n), None)
    for i in range(m):
        for j in range(n):
            A[i, j] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    K = _kernel_basis(A, None)
    if K is not None:
        for t in range(K.shape[1]):
            for row in A:
                assert sum(a * x for a, x in zip(row, K[:, t])) == 0
    assert _rank(A, None) + _nullity(K) == n


def test_rref_idempotent_prime():
    rng = random.Random(3)
    A = _prime_array([[rng.randrange(P) for _ in range(5)] for _ in range(4)])
    R1, p1 = _rref(A, P)
    R2, p2 = _rref(R1, P)
    assert p1 == p2
    assert np.array_equal(R1, R2)


def test_accumulator_matches_rank_prime():
    rng = random.Random(8)
    field = PrimeField(P)
    cols = [np.array([rng.randrange(P) for _ in range(6)], dtype=np.int64)
            for _ in range(10)]
    A = np.stack(cols, axis=1)
    acc = EchelonAccumulator(field, 6)
    added = sum(1 for c in cols if acc.add(c))
    assert added == _rank(A, P) == acc.rank


def test_accumulator_contains():
    field = PrimeField(P)
    acc = EchelonAccumulator(field, 3)
    acc.add(np.array([1, 2, 3], dtype=np.int64))
    acc.add(np.array([0, 1, 1], dtype=np.int64))
    assert acc.contains(np.array([1, 3, 4], dtype=np.int64))
    assert not acc.contains(np.array([0, 0, 1], dtype=np.int64))


def test_accumulator_rational():
    field = RationalField()
    acc = EchelonAccumulator(field, 2)
    assert acc.add([Fraction(1, 2), Fraction(1)])
    assert not acc.add([Fraction(1), Fraction(2)])
    assert acc.rank == 1


def test_empty_shapes():
    assert _rank(_zeros((0, 0), P), P) == 0
    assert _kernel_basis(_zeros((0, 3), P), P).shape == (3, 3)
    assert _kernel_basis(_zeros((3, 0), P), P) is None


def test_residue_dtype_bound():
    # int64 exactly while MAX_SLICE products of residues fit below 2**63
    assert residue_dtype(P) is np.int64
    assert residue_dtype(16411) is np.int64
    assert residue_dtype(None) is object
    for p in (2147483647, 4294967311):
        assert residue_dtype(p) is object
    largest = math.isqrt((2 ** 63 - 1) // MAX_SLICE)  # largest p - 1 on int64
    assert residue_dtype(largest + 1) is np.int64
    assert residue_dtype(largest + 2) is object


def test_large_prime_arithmetic_is_exact():
    p = 4294967311
    v = [p - 1, p - 2, 3]
    acc = EchelonAccumulator(PrimeField(p), 3)
    assert acc.add(v)
    assert not acc.add([(2 * x) % p for x in v])
    assert acc.contains([(5 * x) % p for x in v])
    A = _prime_array([v, [(2 * x) % p for x in v], [1, 1, 1]], p)
    assert _rank(A, p) == 2
    K = _kernel_basis(A, p)
    assert K.shape == (3, 1) and not np.any((A @ K) % p)
