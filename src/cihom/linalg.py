"""Exact dense linear algebra over the coefficient fields.

This module holds the dense path's one row reduction (``_rref``), its array
type per field (``residue_dtype``, ``_zeros``) and the ``EchelonAccumulator``
that answers greedy rank and independence questions with it.  The oracle
imports ``_rref`` and ``_zeros`` by name and builds its kernels on them.
The rationals use Fraction entries.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import PrimeField

# Largest graded slice (number of coordinates) the oracle builds.
MAX_SLICE = 6000


def residue_dtype(p):
    """numpy dtype that holds arithmetic mod p exactly: int64 or object.

    The largest intermediate on the dense path is a dot product of at most
    MAX_SLICE residue pairs, each product below (p-1)**2, subtracted from a
    residue (``QuotientSpace.reduce_columns``: the subspace rank is at most
    the slice dimension).  The block row reduction ``_rref``, which every
    ``EchelonAccumulator.add`` runs, forms single such products: each pivot
    subtracts one product of two residues from a residue and reduces mod p
    at once.  So int64 is exact while MAX_SLICE * (p-1)**2 < 2**63, that is
    for p up to about 3.9e7; above it, and for the rationals (``p is None``),
    entries are Python objects (ints mod p, Fractions) and never overflow.
    """
    if p is not None and MAX_SLICE * (p - 1) ** 2 < 2 ** 63:
        return np.int64
    return object


def _zeros(shape, p):
    A = np.zeros(shape, dtype=residue_dtype(p))
    if p is None:
        A[:] = Fraction(0)
    return A


def _rref(A, p):
    """Reduced row echelon form mod p (p None: over the rationals), with the
    pivot column list.  Arrays come from ``_zeros``, so their dtype is
    ``residue_dtype(p)``: int64 only where it cannot overflow.  The input is
    not changed; its entries are taken mod p.

    The matrices are built from monomial shifts and are mostly zero, so a
    pivot (r, c) updates only the rows with a nonzero in column c, and only
    the columns where row r is nonzero: no other entry changes.  Over the
    rationals no Fraction is multiplied by zero."""
    A = np.remainder(A, p, order="C") if p is not None else A.copy()
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r >= m:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        t = r + int(nz[0])
        if t != r:
            A[[r, t]] = A[[t, r]]
        cols = c + A[r, c:].nonzero()[0]
        if p is not None:
            row = (A[r, cols] * pow(int(A[r, c]), p - 2, p)) % p
        else:
            row = A[r, cols] * (Fraction(1) / A[r, c])
        A[r, cols] = row
        rows = A[:, c].nonzero()[0]
        rows = rows[rows != r]
        if rows.size:
            sub = (rows[:, None], cols)
            block = A[sub]
            block -= np.multiply.outer(block[:, 0], row)
            if p is not None:
                block %= p
            A[sub] = block
        pivots.append(c)
        r += 1
    return A, pivots


class EchelonAccumulator:
    """A growing span in a space of the given width, for greedy spanning and
    extension questions.

    ``add(block)`` takes a (width x k) block of column vectors; a 1-D vector
    counts as a one-column block.  It returns the positions of the columns
    that raised the rank, in greedy left-to-right order: column j is picked
    when it lies outside the span of everything added before and of the
    block's columns left of j.  A non-empty list is truthy, so ``if
    acc.add(v)`` asks whether one vector was independent.

    Each ``add`` is one ``_rref`` of the stored basis and the block side by
    side: the pivot columns of that reduction are exactly the greedy picks,
    and the stored basis (the columns picked so far, as given) is always
    independent, so its columns are the first pivots.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.prime = field.p if isinstance(field, PrimeField) else None
        self.dtype = residue_dtype(self.prime)
        self.basis = _zeros((width, 0), self.prime)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def _reduce(self, block):
        """The stored basis followed by the block, and its pivot columns."""
        B = np.asarray(block, dtype=self.dtype)
        if B.ndim == 1:
            B = B[:, None]
        X = np.hstack([self.basis, B]) if self.rank else B
        return X, _rref(X, self.prime)[1]

    def add(self, block) -> list:
        X, pivots = self._reduce(block)
        picked = [c - self.rank for c in pivots[self.rank:]]
        if picked:
            self.basis = X[:, pivots]
        return picked

    def contains(self, vec) -> bool:
        return len(self._reduce(vec)[1]) == self.rank
