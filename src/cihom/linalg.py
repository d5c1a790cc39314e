"""Exact sparse linear algebra over the coefficient fields.

A vector is a dict {coordinate: nonzero value}: ints in [0, p) mod a prime
p, Fractions over the rationals (p None).  The oracle's matrices are
monomial shifts and almost all zero, and eliminating them makes little
fill-in (structured Gaussian elimination, LaMacchia and Odlyzko 1990), so
one Gauss-Jordan elimination on such rows serves every question:
``_rref`` gives the reduced row echelon form of a ``SparseMatrix``,
``_reduce`` takes a vector modulo a reduced basis, and
``EchelonAccumulator`` answers greedy rank and independence questions.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import PrimeField

# Largest graded slice (number of coordinates) the oracle builds.
MAX_SLICE = 6000


class SparseMatrix:
    """An m x n matrix held as its m rows, each a dict {column: value}."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows: list, ncols: int):
        self.rows = rows
        self.shape = (len(rows), ncols)

    @classmethod
    def from_columns(cls, cols: list, nrows: int) -> "SparseMatrix":
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                rows[i][j] = x
        return cls(rows, len(cols))


def _reduce(vec: dict, basis: dict, p) -> dict:
    """vec modulo the span of a reduced basis {pivot: row}, as a new dict
    with its entries taken mod p and its zeros dropped.

    Each basis row has a one at its pivot and a zero at every other pivot,
    so subtracting it clears that pivot and touches no other: one pass over
    the pivots in vec's support leaves no pivot behind."""
    if p is not None:
        v = {i: x % p for i, x in vec.items() if x % p}
    else:
        v = {i: x for i, x in vec.items() if x}
    for q in [i for i in v if i in basis]:
        f = v[q]
        for i, b in basis[q].items():
            x = v.get(i, 0) - f * b
            if p is not None:
                x %= p
            if x:
                v[i] = x
            else:
                del v[i]
    return v


def _insert(basis: dict, holders: dict, v: dict, p) -> None:
    """Add a nonzero vector, already reduced modulo ``basis``, as a new row.

    Its pivot is its least coordinate; the row is scaled to a one there, and
    the rows that ``holders`` (non-pivot column -> pivots of the rows nonzero
    in that column) lists at the pivot are cleared there, so the basis stays
    fully reduced and every row keeps its least coordinate as its pivot."""
    c = min(v)
    if p is not None:
        if v[c] != 1:
            inv = pow(v[c], -1, p)
            v = {i: x * inv % p for i, x in v.items()}
    else:
        inv = 1 / Fraction(v[c])
        v = {i: x * inv for i, x in v.items()}
    for q in holders.pop(c, ()):
        row = basis[q]
        f = row.pop(c)
        for i, b in v.items():
            if i == c:
                continue
            x = row.get(i, 0) - f * b
            if p is not None:
                x %= p
            if x:
                row[i] = x
                holders.setdefault(i, set()).add(q)
            else:
                del row[i]
                holders[i].discard(q)
    basis[c] = v
    for i in v:
        if i != c:
            holders.setdefault(i, set()).add(c)


def _rref(A: SparseMatrix, p):
    """Reduced row echelon form mod p (p None: over the rationals): the
    nonzero rows in pivot order, and their pivot columns.  The input is not
    changed; its entries are taken mod p."""
    basis, holders = {}, {}
    for row in A.rows:
        v = _reduce(row, basis, p) if row else row
        if v:
            _insert(basis, holders, v, p)
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


class EchelonAccumulator:
    """A growing span in a space of the given width, for greedy spanning and
    extension questions.

    ``add(block)`` takes a list of column vectors; one vector (a dict) counts
    as a one-column block.  It returns the positions of the columns that
    raised the rank, in greedy left-to-right order: column j is picked when
    it lies outside the span of everything added before and of the block's
    columns left of j.  A non-empty list is truthy, so ``if acc.add(v)``
    asks whether one vector was independent.

    The span is kept as the reduced rows of ``_rref``: each column is
    reduced against them and, when something is left, joins them.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.prime = field.p if isinstance(field, PrimeField) else None
        self.basis: dict = {}      # pivot -> reduced row
        self._holders: dict = {}   # non-pivot column -> pivots of rows nonzero there

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, block) -> list:
        if isinstance(block, dict):
            block = [block]
        picked = []
        for j, vec in enumerate(block):
            v = _reduce(vec, self.basis, self.prime) if vec else vec
            if v:
                _insert(self.basis, self._holders, v, self.prime)
                picked.append(j)
        return picked

    def contains(self, vec: dict) -> bool:
        return not _reduce(vec, self.basis, self.prime)
