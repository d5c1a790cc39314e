"""Degree-truncated dense linear-algebra oracle for graded homology.

An independent verification path: graded pieces of modules over R = S/(f)
are represented by ambient monomial coordinates modulo explicit image
subspaces, resolutions are rebuilt degree by degree from kernels of
assembled coefficient matrices, and homology dimensions come from ranks.
No Groebner machinery is used anywhere on this path.

The truncation is sound: a graded piece in degree d only involves
generators and relations of degree <= d, so every reported value is exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .fields import PrimeField
from .fmodules import ModulePresentation, PolyMatrix
from .linalg import MAX_SLICE, EchelonAccumulator, residue_dtype
from .polynomials import mono_mul, monomials_of_degree
from .rings import RingPresentation


class OracleTooLargeError(RuntimeError):
    """The instance exceeds the oracle's size guardrails."""


MAX_VARS = 6
MAX_DEGREE = 8


@functools.cache
def monomial_basis(nvars: int, degree: int):
    return tuple(monomials_of_degree(nvars, degree))


def _rref(A, p):
    """Reduced row echelon form mod p (p None: over the rationals), with the
    pivot column list.  Arrays come from ``_zeros``, so their dtype is
    ``residue_dtype(p)``: int64 only where it cannot overflow.

    The matrices are built from monomial shifts and are mostly zero, so a
    pivot (r, c) updates only the rows with a nonzero in column c, and only
    from column c on: row r is zero left of c, so no other column changes."""
    A = A.copy()
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        t = r + int(nz[0])
        if t != r:
            A[[r, t]] = A[[t, r]]
        if p is not None:
            A[r, c:] = (A[r, c:] * pow(int(A[r, c]), p - 2, p)) % p
        else:
            A[r, c:] = A[r, c:] * (Fraction(1) / A[r, c])
        rows = np.nonzero(A[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            block = A[rows, c:]
            block -= np.multiply.outer(block[:, 0], A[r, c:])
            if p is not None:
                block %= p
            A[rows, c:] = block
        pivots.append(c)
        r += 1
    return A, pivots


def _kernel_basis(A, p):
    """Columns spanning ker(A) as a (n x k) array; None when k = 0."""
    m, n = A.shape
    if n == 0:
        return None
    if m == 0:
        return _eye(n, p)
    R, pivots = _rref(A, p)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    if not free:
        return None
    K = _zeros((n, len(free)), p)
    for t, j in enumerate(free):
        K[j, t] = 1 if p is not None else Fraction(1)
        for i, pc in enumerate(pivots):
            K[pc, t] = (-int(R[i, j])) % p if p is not None else -R[i][j]
    return K


def _zeros(shape, p):
    A = np.zeros(shape, dtype=residue_dtype(p))
    if p is None:
        A[:] = Fraction(0)
    return A


def _eye(n, p):
    A = _zeros((n, n), p)
    for i in range(n):
        A[i, i] = 1 if p is not None else Fraction(1)
    return A


class QuotientSpace:
    """A coordinate space modulo a stored column span, with fast reduction.

    Keeps the reduced row echelon form of the subspace, so reducing a batch
    of columns is a single matrix product.
    """

    __slots__ = ("dim", "rank", "echelon", "pivots", "p")

    def __init__(self, dim: int, subspace_cols, p):
        self.dim = dim
        self.p = p
        if subspace_cols is None or subspace_cols.shape[1] == 0 or dim == 0:
            self.echelon = None
            self.pivots = []
            self.rank = 0
            return
        E, pivots = _rref(subspace_cols.T, p)
        self.echelon = E[:len(pivots)].copy()  # not a view: E is dropped
        self.pivots = pivots
        self.rank = len(pivots)

    @property
    def quotient_dim(self) -> int:
        return self.dim - self.rank

    def reduce_columns(self, V):
        """Residuals of the columns of V modulo the subspace."""
        if self.rank == 0 or V.shape[1] == 0:
            return V
        P = V[self.pivots, :]
        if self.p is not None:
            return (V - self.echelon.T @ P) % self.p
        return V - self.echelon.T @ P


class OracleContext:
    """Shared grading data for one ring: slices, multiplication, subspaces."""

    def __init__(self, ring: RingPresentation, degree_bound: int):
        pr = ring.poly_ring
        if pr.nvars > MAX_VARS:
            raise OracleTooLargeError(f"{pr.nvars} variables exceeds the oracle cap {MAX_VARS}")
        if degree_bound > MAX_DEGREE:
            raise OracleTooLargeError(f"degree bound {degree_bound} exceeds the oracle cap {MAX_DEGREE}")
        self.ring = ring
        self.pr = pr
        self.degree_bound = degree_bound
        field = pr.field
        self.p = field.p if isinstance(field, PrimeField) else None
        self._slices: dict = {}
        self._value_spaces: dict = {}

    # -- coordinates -------------------------------------------------------------

    def slice_coords(self, gen_degs: tuple, d: int):
        """[(position, monomial)] basis of the degree-d piece of R^{gen_degs}
        in ambient coordinates, plus the index map."""
        key = (gen_degs, d)
        if key not in self._slices:
            coords = []
            for pos, g in enumerate(gen_degs):
                e = d - g
                if e < 0:
                    continue
                for m in monomial_basis(self.pr.nvars, e):
                    coords.append((pos, m))
            if len(coords) > MAX_SLICE:
                raise OracleTooLargeError(f"slice dimension {len(coords)} exceeds cap {MAX_SLICE}")
            self._slices[key] = (coords, {cm: i for i, cm in enumerate(coords)})
        return self._slices[key]

    def dense(self, gen_degs: tuple, d: int, sparse_vecs):
        """Stack sparse {(pos, mono): coeff} vectors as dense columns."""
        coords, index = self.slice_coords(gen_degs, d)
        A = _zeros((len(coords), len(sparse_vecs)), self.p)
        for j, vec in enumerate(sparse_vecs):
            for cm, c in vec.items():
                i = index.get(cm)
                if i is not None:
                    A[i, j] = c
        return A

    @staticmethod
    def shift(vec: dict, mono: tuple) -> dict:
        return {(pos, mono_mul(m, mono)): c for (pos, m), c in vec.items()}

    def monomial_multiples(self, vec: dict, vec_deg: int, d: int):
        """All monomial shifts of a sparse vector landing in degree d."""
        e = d - vec_deg
        if e < 0:
            return []
        return [self.shift(vec, m) for m in monomial_basis(self.pr.nvars, e)]

    # -- subspaces ----------------------------------------------------------------

    def _quotient_multiples(self, gen_degs: tuple, d: int):
        out = []
        for f in self.ring.quotient_gens:
            fd = f.degree()
            for pos, g in enumerate(gen_degs):
                e = d - g - fd
                if e < 0:
                    continue
                base = {(pos, m): c for m, c in f.terms.items()}
                out.extend(self.monomial_multiples(base, g + fd, d))
        return out

    def value_space(self, pres: ModulePresentation, d: int) -> QuotientSpace:
        """Degree-d piece of a presented module: free coordinates of its
        generator space modulo (relation images + quotient multiples).

        The cache key holds the presentation itself (hashed by identity), so
        it stays alive with the context and its id cannot pass to another."""
        key = (pres, d)
        if key not in self._value_spaces:
            gen_degs = pres.gen_degs
            coords, _ = self.slice_coords(gen_degs, d)
            cols = self._quotient_multiples(gen_degs, d)
            for deg, vec in _presentation_columns(pres):
                cols.extend(self.monomial_multiples(vec, deg, d))
            A = self.dense(gen_degs, d, cols)
            self._value_spaces[key] = QuotientSpace(len(coords), A, self.p)
        return self._value_spaces[key]

    def free_space(self, gen_degs: tuple, d: int) -> QuotientSpace:
        """Degree-d piece of R^{gen_degs} (quotient multiples only)."""
        key = (("free",) + gen_degs, d)
        if key not in self._value_spaces:
            coords, _ = self.slice_coords(gen_degs, d)
            A = self.dense(gen_degs, d, self._quotient_multiples(gen_degs, d))
            self._value_spaces[key] = QuotientSpace(len(coords), A, self.p)
        return self._value_spaces[key]


class TruncatedStep:
    """One free module of the degreewise-built resolution."""

    __slots__ = ("gen_degs", "gen_vecs")

    def __init__(self, gen_degs, gen_vecs):
        self.gen_degs = list(gen_degs)
        self.gen_vecs = list(gen_vecs)


def _presentation_columns(pres: ModulePresentation):
    cols = []
    rel = pres.relations
    for j in range(rel.ncols):
        vec = {}
        for i in range(rel.nrows):
            p = rel.entries[i][j]
            if p:
                for m, c in p.terms.items():
                    vec[(i, m)] = c
        cols.append((rel.col_degs[j], vec))
    return cols


def truncated_resolution(ctx: OracleContext, pres: ModulePresentation, hsteps: int):
    """Free modules F_0..F_hsteps with generator vectors, exact through the
    degree bound: kernels are covered degree by degree and generators are
    chosen minimally (complement of the lower-degree span)."""
    D = ctx.degree_bound
    steps = [TruncatedStep(pres.gen_degs, [])]
    for step in range(1, hsteps + 1):
        prev = steps[-1]
        prev_degs = tuple(prev.gen_degs)
        lo = min(prev_degs, default=0)
        gen_degs, gen_vecs = [], []
        preimage: dict = {}
        for d in range(lo, D + 1):
            coords, _ = ctx.slice_coords(prev_degs, d)
            if not coords:
                continue
            if step == 1:
                candidates = []
                for cdeg, vec in _presentation_columns(pres):
                    candidates.extend(ctx.monomial_multiples(vec, cdeg, d))
                candidates.extend(ctx._quotient_multiples(prev_degs, d))
                C = ctx.dense(prev_degs, d, candidates)
                # basis of the span; copied so the whole RREF is not kept
                E, pivots = _rref(C.T, ctx.p)
                P = E[:len(pivots)].copy().T if pivots else None
            else:
                src_degs = tuple(steps[-2].gen_degs)
                # columns of the induced map at degree d
                cols = []
                for j, (g, vec) in enumerate(zip(prev.gen_degs, prev.gen_vecs)):
                    for m in monomial_basis(ctx.pr.nvars, d - g) if d >= g else ():
                        cols.append(ctx.shift(vec, m))
                tgt_space = ctx.free_space(src_degs, d)
                L = ctx.dense(src_degs, d, cols)
                Lq = tgt_space.reduce_columns(L)
                K = _kernel_basis(Lq, ctx.p)
                P = K
            if P is None:
                continue
            # seed with quotient multiples and shifts of lower-degree kernels
            width = len(coords)
            acc = EchelonAccumulator(ctx.pr.field, width)
            for vec in ctx._quotient_multiples(prev_degs, d):
                dense = ctx.dense(prev_degs, d, [vec])[:, 0]
                acc.add(dense)
            prev_base = preimage.get(d - 1)
            if prev_base is not None:
                pcoords, _ = ctx.slice_coords(prev_degs, d - 1)
                for t in range(prev_base.shape[1]):
                    sparse = {pcoords[i]: prev_base[i, t]
                              for i in range(len(pcoords)) if prev_base[i, t]}
                    for v in range(ctx.pr.nvars):
                        mono = tuple(1 if w == v else 0 for w in range(ctx.pr.nvars))
                        shifted = ctx.shift(sparse, mono)
                        acc.add(ctx.dense(prev_degs, d, [shifted])[:, 0])
            pcoords_d, _ = ctx.slice_coords(prev_degs, d)
            for t in range(P.shape[1]):
                v = P[:, t]
                if acc.add(v):
                    gen_degs.append(d)
                    gen_vecs.append({pcoords_d[i]: v[i] for i in range(len(pcoords_d)) if v[i]})
            preimage[d] = P
        steps.append(TruncatedStep(gen_degs, gen_vecs))
        if not gen_degs:
            # kernel trivial through the degree bound: later steps stay empty
            for _ in range(step + 1, hsteps + 1):
                steps.append(TruncatedStep([], []))
            break
    return steps


def tor_oracle(M: ModulePresentation, N: ModulePresentation, index_bound: int,
               degree_bound: int) -> dict:
    """Graded dimensions of Tor_i(M, N) for 1 <= i <= index_bound.

    Returns {i: {d: dim}} for d from the smallest generator degree through
    degree_bound, computed purely by dense linear algebra on graded pieces.
    """
    M.check_same_ring(N)
    ctx = OracleContext(M.ring, degree_bound)
    steps = truncated_resolution(ctx, M, index_bound + 1)
    return _homology_dims(ctx, steps, N, index_bound, degree_bound)


def _induced_map_columns(ctx, src_degs, src_vecs, tgt_degs, N, d):
    """Columns of (d_step tensor N)_d: source block coords -> target coords."""
    tgt_index = {}
    off = 0
    for pos, g in enumerate(tgt_degs):
        coords, _ = ctx.slice_coords(N.gen_degs, d - g)
        for cm in coords:
            tgt_index[(pos, cm)] = off
            off += 1
    nrows = off
    columns = []
    for j, (g, vec) in enumerate(zip(src_degs, src_vecs)):
        coords_src, _ = ctx.slice_coords(N.gen_degs, d - g)
        for cm in coords_src:
            npos, nmono = cm
            col = _zeros((nrows, 1), ctx.p)[:, 0]
            for (pos, mono), c in vec.items():
                key = (pos, (npos, mono_mul(nmono, mono)))
                i = tgt_index.get(key)
                if i is not None:
                    if ctx.p is not None:
                        col[i] = (col[i] + c) % ctx.p
                    else:
                        col[i] = col[i] + c
            columns.append(col)
    if not columns:
        return _zeros((nrows, 0), ctx.p)
    return np.stack(columns, axis=1)


def _block_quotient(ctx, gen_degs, N, d):
    """Block-diagonal quotient data for (R^{gen_degs} tensor N)_d."""
    dims, ranks, reducers, offsets = [], [], [], []
    off = 0
    for g in gen_degs:
        qs = ctx.value_space(N, d - g)
        dims.append(qs.dim)
        ranks.append(qs.rank)
        reducers.append(qs)
        offsets.append(off)
        off += qs.dim
    return dims, ranks, reducers, offsets, off


def _reduce_blockwise(reducers, offsets, dims, V, p):
    if V.shape[1] == 0:
        return V
    out = V.copy()
    for qs, off, dim in zip(reducers, offsets, dims):
        if dim == 0 or qs.rank == 0:
            continue
        out[off:off + dim, :] = qs.reduce_columns(out[off:off + dim, :])
    return out


def _homology_dims(ctx: OracleContext, steps, N: ModulePresentation,
                   index_bound: int, degree_bound: int) -> dict:
    Nmin = N.minimalize()
    min_res = min((g for st in steps for g in st.gen_degs), default=0)
    min_n = min(Nmin.gen_degs, default=0)
    lo = min(0, min_res + min_n)
    out: dict = {}
    for i in range(1, index_bound + 1):
        dims_i = {}
        for d in range(lo, degree_bound + 1):
            Ti = steps[i]
            if not Ti.gen_degs:
                dims_i[d] = 0
                continue
            tgt_degs = tuple(steps[i - 1].gen_degs)
            dims_t, ranks_t, red_t, offs_t, total_t = _block_quotient(ctx, tgt_degs, Nmin, d)
            dims_s, ranks_s, red_s, offs_s, total_s = _block_quotient(ctx, tuple(Ti.gen_degs), Nmin, d)
            dimQ_src = sum(ds - rs for ds, rs in zip(dims_s, ranks_s))
            if dimQ_src == 0:
                dims_i[d] = 0
                continue
            Vi = _induced_map_columns(ctx, Ti.gen_degs, Ti.gen_vecs, tgt_degs, Nmin, d)
            Vi_red = _reduce_blockwise(red_t, offs_t, dims_t, Vi, ctx.p)
            # rank of the induced outgoing map: accumulate residual columns
            acc = EchelonAccumulator(ctx.pr.field, total_t if total_t else 1)
            rank_out = 0
            for j in range(Vi_red.shape[1]):
                if acc.add(Vi_red[:, j]):
                    rank_out += 1
            ker_dim = dimQ_src - rank_out
            # incoming map from step i+1
            Tnext = steps[i + 1]
            rank_in = 0
            if Tnext.gen_degs:
                Vn = _induced_map_columns(ctx, Tnext.gen_degs, Tnext.gen_vecs,
                                          tuple(Ti.gen_degs), Nmin, d)
                Vn_red = _reduce_blockwise(red_s, offs_s, dims_s, Vn, ctx.p)
                acc2 = EchelonAccumulator(ctx.pr.field, total_s if total_s else 1)
                for j in range(Vn_red.shape[1]):
                    if acc2.add(Vn_red[:, j]):
                        rank_in += 1
            dims_i[d] = ker_dim - rank_in
        out[i] = dims_i
    return out


def tor_oracle_single(M: ModulePresentation, N: ModulePresentation, index: int,
                      degree_bound: int) -> dict:
    """Graded dimensions of a single Tor module."""
    return tor_oracle(M, N, index, degree_bound)[index]


def module_hilbert_oracle(M: ModulePresentation, degree_bound: int) -> dict:
    """Graded dimensions of the module itself, by plain rank computations."""
    ctx = OracleContext(M.ring, degree_bound)
    lo = min(0, min(M.gen_degs, default=0))
    out = {}
    for d in range(lo, degree_bound + 1):
        out[d] = ctx.value_space(M, d).quotient_dim
    return out


def map_kernel_cokernel_oracle(psi: PolyMatrix, source: ModulePresentation,
                               target: ModulePresentation, degree_bound: int):
    """Graded kernel and cokernel dimensions of a module map.

    psi maps source generators to the target generator space; the induced
    map on graded pieces gives both dimensions by rank-nullity.
    """
    ctx = OracleContext(source.ring, degree_bound)
    lo = min(0, min(list(source.gen_degs) + list(target.gen_degs), default=0))
    ker, coker = {}, {}
    for d in range(lo, degree_bound + 1):
        src_q = ctx.value_space(source, d)
        tgt_q = ctx.value_space(target, d)
        cols = []
        coords_src, _ = ctx.slice_coords(source.gen_degs, d)
        for (pos, mono) in coords_src:
            vec = {}
            for i in range(psi.nrows):
                p = psi.entries[i][pos]
                if p:
                    for m, c in p.terms.items():
                        key = (i, mono_mul(m, mono))
                        vec[key] = c
            cols.append(vec)
        A = ctx.dense(target.gen_degs, d, cols)
        # psi descends, so source-subspace columns reduce to zero residuals
        # and the residual column span is exactly the induced image
        A_red = tgt_q.reduce_columns(A)
        acc = EchelonAccumulator(ctx.pr.field, A_red.shape[0] if A_red.shape[0] else 1)
        rank_ind = 0
        for j in range(A_red.shape[1]):
            if acc.add(A_red[:, j]):
                rank_ind += 1
        ker[d] = src_q.quotient_dim - rank_ind
        coker[d] = tgt_q.quotient_dim - rank_ind
    return ker, coker
