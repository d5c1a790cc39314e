import os
import random
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cihom.fields import PrimeField, RationalField
from cihom.linalg import EchelonAccumulator, SparseMatrix
from cihom.oracle import QuotientSpace, _kernel_basis, _rref

P = 32003

# The references below work on dense matrices as lists of rows; the
# converters turn them into the sparse vectors of ``cihom.linalg``.


def _zero(p):
    return 0 if p is not None else Fraction(0)


def _sparse(A, ncols=None):
    """A list-of-rows matrix as a SparseMatrix."""
    if ncols is None:
        ncols = len(A[0]) if A else 0
    return SparseMatrix([{j: x for j, x in enumerate(row) if x} for row in A], ncols)


def _columns(A):
    """The columns of a list-of-rows matrix as sparse vectors."""
    ncols = len(A[0]) if A else 0
    return [{i: row[j] for i, row in enumerate(A) if row[j]} for j in range(ncols)]


def _dense(vec, n, p):
    out = [_zero(p)] * n
    for i, x in vec.items():
        out[i] = x
    return out


def _prime_matrix(rows, p=P):
    return [[v % p for v in row] for row in rows]


def _rank(A, p):
    return len(_rref(_sparse(A), p)[1])


def _nullity(K):
    return 0 if K is None else len(K)


def _annihilates(A, K, p):
    """Every row of the list-of-rows A vanishes on every vector of K."""
    for vec in K:
        for row in A:
            s = sum(row[j] * x for j, x in vec.items())
            if (s % p if p is not None else s) != 0:
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=2, max_value=5))
def test_prime_kernel_annihilates(seed, m, n):
    rng = random.Random(seed)
    A = _prime_matrix([[rng.randrange(P) for _ in range(n)] for _ in range(m)])
    K = _kernel_basis(_sparse(A), P)
    if K is not None:
        assert _annihilates(A, K, P)
    # rank-nullity
    assert _rank(A, P) + _nullity(K) == n


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_rational_kernel_annihilates(seed):
    rng = random.Random(seed)
    m, n = rng.randint(2, 4), rng.randint(2, 4)
    A = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
         for _ in range(m)]
    K = _kernel_basis(_sparse(A), None)
    if K is not None:
        assert _annihilates(A, K, None)
    assert _rank(A, None) + _nullity(K) == n


def test_rref_idempotent_prime():
    rng = random.Random(3)
    A = _sparse(_prime_matrix([[rng.randrange(P) for _ in range(5)] for _ in range(4)]))
    R1, p1 = _rref(A, P)
    R2, p2 = _rref(SparseMatrix(R1, 5), P)
    assert p1 == p2
    assert R1 == R2


def test_accumulator_matches_rank_prime():
    rng = random.Random(8)
    field = PrimeField(P)
    A = [[rng.randrange(P) for _ in range(10)] for _ in range(6)]
    acc = EchelonAccumulator(field, 6)
    added = sum(1 for c in _columns(A) if acc.add(c))
    assert added == _rank(A, P) == acc.rank


def test_accumulator_contains():
    field = PrimeField(P)
    acc = EchelonAccumulator(field, 3)
    acc.add({0: 1, 1: 2, 2: 3})
    acc.add({1: 1, 2: 1})
    assert acc.contains({0: 1, 1: 3, 2: 4})
    assert not acc.contains({2: 1})


def test_accumulator_rational():
    field = RationalField()
    acc = EchelonAccumulator(field, 2)
    assert acc.add({0: Fraction(1, 2), 1: Fraction(1)})
    assert not acc.add({0: Fraction(1), 1: Fraction(2)})
    assert acc.rank == 1


def test_empty_shapes():
    assert _rank([], P) == 0
    K = _kernel_basis(SparseMatrix([], 3), P)
    assert [_dense(v, 3, P) for v in K] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _kernel_basis(SparseMatrix([{}, {}, {}], 0), P) is None


def test_large_prime_arithmetic_is_exact():
    p = 4294967311
    v = [p - 1, p - 2, 3]
    acc = EchelonAccumulator(PrimeField(p), 3)
    assert acc.add(_columns([[x] for x in v])[0])
    assert not acc.add(_columns([[(2 * x) % p] for x in v])[0])
    assert acc.contains(_columns([[(5 * x) % p] for x in v])[0])
    A = [v, [(2 * x) % p for x in v], [1, 1, 1]]
    assert _rank(A, p) == 2
    K = _kernel_basis(_sparse(A), p)
    assert len(K) == 1 and _annihilates(A, K, p)


def _rref_reference(A, p):
    """The full-matrix row reduction the oracle used before its sparse pivot
    updates, on a list-of-rows matrix: every pivot rewrites the whole
    matrix.  Returns the m x n reduced matrix and the pivot columns."""
    A = [list(row) for row in A]
    m = len(A)
    n = len(A[0]) if A else 0
    r = 0
    pivots = []
    for c in range(n):
        if r >= m:
            break
        t = next((i for i in range(r, m) if A[i][c] != 0), None)
        if t is None:
            continue
        A[r], A[t] = A[t], A[r]
        if p is not None:
            inv = pow(A[r][c], p - 2, p)
            A[r] = [(x * inv) % p for x in A[r]]
        else:
            inv = Fraction(1) / A[r][c]
            A[r] = [x * inv for x in A[r]]
        col = [A[i][c] if i != r else _zero(p) for i in range(m)]
        for i in range(m):
            A[i] = [a - col[i] * b for a, b in zip(A[i], A[r])]
            if p is not None:
                A[i] = [x % p for x in A[i]]
        pivots.append(c)
        r += 1
    return A, pivots


def _kernel_reference(A, p):
    """The kernel basis from the reference RREF: for each non-pivot column
    j, a one at j minus column j's entries at the pivots."""
    n = len(A[0]) if A else 0
    R, pivots = _rref_reference(A, p)
    out = []
    for j in range(n):
        if j in pivots:
            continue
        vec = _dense({j: 1 if p is not None else Fraction(1)}, n, p)
        for i, c in enumerate(pivots):
            vec[c] = -R[i][j] % p if p is not None else -R[i][j]
        out.append(vec)
    return out


@st.composite
def _field_matrices(draw):
    """(list-of-rows matrix, p) over f3, f32003, f4294967311 or the
    rationals (p None); sparse or dense, with some rows and columns zeroed."""
    p = draw(st.sampled_from([3, 32003, 4294967311, None]))
    m = draw(st.integers(min_value=0, max_value=12))
    n = draw(st.integers(min_value=0, max_value=16))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 31)))
    A = [[_zero(p)] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                A[i][j] = (rng.randrange(p) if p is not None
                           else Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    for i in range(m):
        if rng.random() < 0.15:
            A[i] = [_zero(p)] * n
    for j in range(n):
        if rng.random() < 0.15:
            for row in A:
                row[j] = _zero(p)
    return A, p


@settings(max_examples=300, deadline=None)
@given(_field_matrices())
def test_rref_matches_full_matrix_reference(case):
    A, p = case
    n = len(A[0]) if A else 0
    S = _sparse(A, n)
    R, pivots = _rref(S, p)
    R_ref, pivots_ref = _rref_reference(A, p)
    assert pivots == pivots_ref
    assert [_dense(row, n, p) for row in R] == R_ref[:len(pivots)]
    assert all(x == 0 for row in R_ref[len(pivots):] for x in row)
    assert all(x != 0 for row in R for x in row.values())
    if p is None:
        assert all(type(x) is Fraction for row in R for x in row.values())
    assert S.rows == _sparse(A, n).rows   # the input is left as it was


@settings(max_examples=300, deadline=None)
@given(_field_matrices())
def test_kernel_basis_matches_reference(case):
    A, p = case
    n = len(A[0]) if A else 0
    K = _kernel_basis(_sparse(A, n), p)
    expected = _kernel_reference(A, p)
    assert [_dense(v, n, p) for v in K or []] == expected
    assert (K is None) == (not expected)
    if K is not None:
        assert _annihilates(A, K, p)


@settings(max_examples=300, deadline=None)
@given(_field_matrices())
def test_quotient_space_matches_reference(case):
    # the rows of A span the subspace; random vectors are reduced modulo it
    A, p = case
    n = len(A[0]) if A else 0
    qs = QuotientSpace(n, [row for row in _sparse(A, n).rows], p)
    R_ref, pivots = _rref_reference(A, p)
    assert qs.rank == len(pivots) and qs.quotient_dim == n - len(pivots)
    rng = random.Random(len(A) * 31 + n)
    vectors = [[(rng.randrange(p) if p is not None else Fraction(rng.randint(-4, 4)))
                if rng.random() < 0.4 else _zero(p) for _ in range(n)] for _ in range(5)]
    for vec, res in zip(vectors, qs.reduce_columns(_sparse(vectors, n).rows)):
        expected = list(vec)
        for row, c in zip(R_ref, pivots):
            f = expected[c]
            expected = [a - f * b for a, b in zip(expected, row)]
            if p is not None:
                expected = [x % p for x in expected]
        assert _dense(res, n, p) == expected


def test_quotient_space_owns_its_rank_rows():
    rng = random.Random(5)
    # 9 vectors spanning a rank-4 subspace of a 7-dimensional space
    basis = [[rng.randrange(P) for _ in range(7)] for _ in range(4)]
    mix = [[rng.randrange(P) for _ in range(4)] for _ in range(9)]
    vectors = _sparse([[sum(a * b[j] for a, b in zip(row, basis)) % P for j in range(7)]
                       for row in mix]).rows
    before = [dict(v) for v in vectors]
    qs = QuotientSpace(7, vectors, P)
    assert qs.rank == 4 == len(qs.basis)
    assert not any(row is v for row in qs.basis.values() for v in vectors)
    assert vectors == before
    assert not any(qs.reduce_columns(vectors))


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
    ref = _OneVectorAccumulator(p, len(A))
    ncols = len(A[0]) if A else 0
    return [j for j in range(ncols) if ref.add([row[j] for row in A])]


@settings(max_examples=300, deadline=None)
@given(_field_matrices(), st.lists(st.integers(min_value=0, max_value=16), max_size=4))
def test_block_add_picks_the_greedy_columns(case, cuts):
    A, p = case
    m = len(A)
    cols = _columns(A) if A else []
    n = len(cols)
    expected = _greedy_reference(A, p)
    acc = EchelonAccumulator(_field(p), m)
    assert acc.add(cols) == expected
    assert acc.rank == len(expected) == _rank(A, p)
    # the same columns split into consecutive blocks, some of them empty
    bounds = [0] + sorted(c % (n + 1) for c in cuts) + [n]
    acc = EchelonAccumulator(_field(p), m)
    picked = []
    for lo, hi in zip(bounds, bounds[1:]):
        picked += [lo + j for j in acc.add(cols[lo:hi])]
    assert picked == expected
    assert acc.rank == len(expected) == _rank(A, p)


def test_block_add_empty_and_zero_blocks():
    for p in (P, 4294967311, None):
        acc = EchelonAccumulator(_field(p), 4)
        assert acc.add([]) == []
        assert acc.add([{}, {}, {1: _zero(p)}]) == []
        assert acc.rank == 0
        assert EchelonAccumulator(_field(p), 0).add([{}] * 5) == []


def test_block_add_full_rank_block():
    rng = random.Random(17)
    for p in (P, 4294967311, None):
        n = 6
        # upper triangular with a nonzero diagonal, then two dependent columns
        A = [[_zero(p)] * (n + 2) for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if p is not None:
                    A[i][j] = rng.randrange(1, p)
                else:
                    A[i][j] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for row in A:
            row[n] = row[0]
            row[n + 1] = (row[1] + row[2]) % p if p is not None else row[1] + row[2]
        cols = _columns(A)
        acc = EchelonAccumulator(_field(p), n)
        assert acc.add(cols) == list(range(n)) == _greedy_reference(A, p)
        assert acc.rank == n
        assert acc.add(cols) == []
        assert acc.contains(cols[n + 1])


def test_tor_oracle_does_not_load_numpy():
    code = """
import sys
from cihom.fields import PrimeField
from cihom.fmodules import ModulePresentation
from cihom.oracle import tor_oracle
from cihom.polynomials import PolyRing
from cihom.rings import RingPresentation
pr = PolyRing(PrimeField(32003), ["x", "y"])
x, y = pr.variable("x"), pr.variable("y")
ring = RingPresentation(pr, [x * y], label="R_node")
M = ModulePresentation.quotient_by_ideal(ring, [x], label="M")
N = ModulePresentation.quotient_by_ideal(ring, [y], label="N")
print(tor_oracle(M, N, 2, 4)[2][2], "numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
