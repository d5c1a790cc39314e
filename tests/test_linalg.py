import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cihom.fields import PrimeField, RationalField
from cihom.linalg import MAX_SLICE, EchelonAccumulator, residue_dtype
from cihom.oracle import QuotientSpace, _kernel_basis, _rref, _zeros

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


def _rref_reference(A, p):
    """The full-matrix row reduction the oracle used before its sparse pivot
    updates: every pivot rewrites the whole array."""
    A = A.copy()
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r >= m:
            break
        if p is not None:
            nz = np.nonzero(A[r:, c])[0]
        else:
            nz = np.array([i for i in range(m - r) if A[r + i, c] != 0])
        if nz.size == 0:
            continue
        t = r + int(nz[0])
        if t != r:
            A[[r, t]] = A[[t, r]]
        if p is not None:
            inv = pow(int(A[r, c]), p - 2, p)
            A[r] = (A[r] * inv) % p
            col = A[:, c].copy()
            col[r] = 0
            A = (A - np.outer(col, A[r])) % p
        else:
            inv = Fraction(1) / A[r, c]
            A[r] = A[r] * inv
            col = A[:, c].copy()
            col[r] = Fraction(0)
            A = A - np.outer(col, A[r])
        pivots.append(c)
        r += 1
    return A, pivots


@st.composite
def _field_matrices(draw):
    """(matrix, p) over f3, f32003, f4294967311 (object dtype) or the
    rationals (p None); sparse or dense, with some rows and columns zeroed."""
    p = draw(st.sampled_from([3, 32003, 4294967311, None]))
    m = draw(st.integers(min_value=0, max_value=12))
    n = draw(st.integers(min_value=0, max_value=16))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 31)))
    A = _zeros((m, n), p)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                A[i, j] = (rng.randrange(p) if p is not None
                           else Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    for i in range(m):
        if rng.random() < 0.15:
            A[i, :] = 0 if p is not None else Fraction(0)
    for j in range(n):
        if rng.random() < 0.15:
            A[:, j] = 0 if p is not None else Fraction(0)
    return A, p


@settings(max_examples=300, deadline=None)
@given(_field_matrices())
def test_rref_matches_full_matrix_reference(case):
    A, p = case
    R, pivots = _rref(A, p)
    R_ref, pivots_ref = _rref_reference(A, p)
    assert pivots == pivots_ref
    assert R.dtype == R_ref.dtype == residue_dtype(p)
    assert R.shape == R_ref.shape
    assert R.tolist() == R_ref.tolist()
    if p is None:
        assert all(type(x) is Fraction for x in R.flat)


def test_quotient_space_owns_its_rank_rows():
    rng = random.Random(5)
    # 9 columns spanning a rank-4 subspace of a 7-dimensional space
    basis = _prime_array([[rng.randrange(P) for _ in range(7)] for _ in range(4)])
    mix = _prime_array([[rng.randrange(P) for _ in range(9)] for _ in range(4)])
    cols = (basis.T @ mix) % P
    qs = QuotientSpace(7, cols, P)
    assert qs.rank == 4 == len(qs.pivots)
    assert qs.echelon.shape == (4, 7)
    assert qs.echelon.base is None
    assert not np.any(qs.reduce_columns(cols))


# -- block adds -------------------------------------------------------------------

class _OneVectorAccumulator:
    """The accumulator as it was before block adds: each vector is reduced
    against the stored pivot rows one row at a time and stored, scaled to a
    leading one, when something is left."""

    def __init__(self, p, width):
        self.p = p
        self.width = width
        self.rows, self.pivot_cols = [], []

    def add(self, vec) -> bool:
        p = self.p
        if p is not None:
            v = [int(x) % p for x in vec]
            for row, c in zip(self.rows, self.pivot_cols):
                f = v[c]
                if f:
                    v = [(a - f * b) % p for a, b in zip(v, row)]
        else:
            v = [Fraction(x) for x in vec]
            for row, c in zip(self.rows, self.pivot_cols):
                f = v[c]
                if f != 0:
                    v = [a - f * b for a, b in zip(v, row)]
        c = next((i for i, x in enumerate(v) if x != 0), None)
        if c is None:
            return False
        inv = pow(v[c], p - 2, p) if p is not None else 1 / v[c]
        self.rows.append([(x * inv) % p if p is not None else x * inv for x in v])
        self.pivot_cols.append(c)
        return True


def _field(p):
    return PrimeField(p) if p is not None else RationalField()


def _greedy_reference(A, p):
    ref = _OneVectorAccumulator(p, A.shape[0])
    return [j for j in range(A.shape[1]) if ref.add(A[:, j])]


@settings(max_examples=300, deadline=None)
@given(_field_matrices(), st.lists(st.integers(min_value=0, max_value=16), max_size=4))
def test_block_add_picks_the_greedy_columns(case, cuts):
    A, p = case
    m, n = A.shape
    expected = _greedy_reference(A, p)
    acc = EchelonAccumulator(_field(p), m)
    assert acc.add(A) == expected
    assert acc.rank == len(expected) == _rank(A, p)
    # the same columns split into consecutive blocks, some of them empty
    bounds = [0] + sorted(c % (n + 1) for c in cuts) + [n]
    acc = EchelonAccumulator(_field(p), m)
    picked = []
    for lo, hi in zip(bounds, bounds[1:]):
        picked += [lo + j for j in acc.add(A[:, lo:hi])]
    assert picked == expected
    assert acc.rank == len(expected) == _rank(A, p)


def test_block_add_empty_and_zero_blocks():
    for p in (P, 4294967311, None):
        acc = EchelonAccumulator(_field(p), 4)
        assert acc.add(_zeros((4, 0), p)) == []
        assert acc.add(_zeros((4, 3), p)) == []
        assert acc.rank == 0
        assert EchelonAccumulator(_field(p), 0).add(_zeros((0, 5), p)) == []


def test_block_add_full_rank_block():
    rng = random.Random(17)
    for p in (P, 4294967311, None):
        n = 6
        # upper triangular with a nonzero diagonal, then two dependent columns
        A = _zeros((n, n + 2), p)
        for i in range(n):
            for j in range(i, n):
                if p is not None:
                    A[i, j] = rng.randrange(1, p)
                else:
                    A[i, j] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        A[:, n] = A[:, 0]
        A[:, n + 1] = (A[:, 1] + A[:, 2]) % p if p is not None else A[:, 1] + A[:, 2]
        acc = EchelonAccumulator(_field(p), n)
        assert acc.add(A) == list(range(n)) == _greedy_reference(A, p)
        assert acc.rank == n
        assert acc.add(A) == []
        assert acc.contains(A[:, n + 1])
