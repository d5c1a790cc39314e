"""Exact dense linear algebra over the coefficient fields.

``residue_dtype`` chooses the array type of residues mod p for the whole
dense path: the oracle's row reduction and kernels (``oracle._rref``,
``oracle._kernel_basis``) and the incremental ``EchelonAccumulator`` here.
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
    the slice dimension).  Row reduction and ``EchelonAccumulator`` form
    single such products.  So int64 is exact while
    MAX_SLICE * (p-1)**2 < 2**63, that is for p up to about 3.9e7; above
    it, and for the rationals (``p is None``), entries are Python objects
    (ints mod p, Fractions) and never overflow.
    """
    if p is not None and MAX_SLICE * (p - 1) ** 2 < 2 ** 63:
        return np.int64
    return object


class EchelonAccumulator:
    """Incremental echelon form for greedy spanning/extension questions.

    ``add(vec)`` reduces the vector against the accumulated pivot rows and
    inserts it when independent, returning whether the rank grew.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.prime = field.p if isinstance(field, PrimeField) else None
        self.dtype = residue_dtype(self.prime)
        self.rows = []       # echelon rows
        self.pivot_cols = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        if self.prime is not None:
            p = self.prime
            v = np.asarray(vec, dtype=self.dtype) % p
            for row, c in zip(self.rows, self.pivot_cols):
                f = int(v[c])
                if f:
                    v = (v - f * row) % p
            return v
        v = [Fraction(x) for x in vec]
        for row, c in zip(self.rows, self.pivot_cols):
            f = v[c]
            if f != 0:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        v = self._reduce(vec)
        if self.prime is not None:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                return False
            c = int(nz[0])
            inv = pow(int(v[c]), self.prime - 2, self.prime)
            self.rows.append((v * inv) % self.prime)
            self.pivot_cols.append(c)
            return True
        c = next((i for i, x in enumerate(v) if x != 0), None)
        if c is None:
            return False
        inv = 1 / v[c]
        self.rows.append([x * inv for x in v])
        self.pivot_cols.append(c)
        return True

    def contains(self, vec) -> bool:
        v = self._reduce(vec)
        if self.prime is not None:
            return not np.any(v)
        return all(x == 0 for x in v)
