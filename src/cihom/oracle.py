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
from .linalg import MAX_SLICE, EchelonAccumulator, _rref, _zeros
from .polynomials import mono_mul, monomials_of_degree
from .rings import RingPresentation


class OracleTooLargeError(RuntimeError):
    """The instance exceeds the oracle's size guardrails."""


MAX_VARS = 6
MAX_DEGREE = 8


@functools.cache
def monomial_basis(nvars: int, degree: int):
    return tuple(monomials_of_degree(nvars, degree))


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
    K[free, range(len(free))] = 1 if p is not None else Fraction(1)
    tails = -R[:len(pivots)][:, free]
    K[pivots, :] = tails % p if p is not None else tails
    return K


def _eye(n, p):
    A = _zeros((n, n), p)
    for i in range(n):
        A[i, i] = 1 if p is not None else Fraction(1)
    return A


class QuotientSpace:
    """A coordinate space modulo a stored column span, with fast reduction.

    Keeps the reduced row echelon form of the subspace and, for each row
    with nonzero entries off the pivot columns (its tail), the coordinates
    of those entries.
    """

    __slots__ = ("dim", "rank", "echelon", "pivots", "tails", "p")

    def __init__(self, dim: int, subspace_cols, p):
        self.dim = dim
        self.p = p
        if subspace_cols is None or subspace_cols.shape[1] == 0 or dim == 0:
            self.echelon = None
            self.pivots = []
            self.tails = []
            self.rank = 0
            return
        E, pivots = _rref(subspace_cols.T, p)
        self.echelon = E[:len(pivots)].copy()  # not a view: E is dropped
        self.pivots = pivots
        self.rank = len(pivots)
        self.tails = []
        for a, c in enumerate(pivots):
            support = self.echelon[a].nonzero()[0]
            support = support[support != c]
            if support.size:
                self.tails.append((a, support))

    @property
    def quotient_dim(self) -> int:
        return self.dim - self.rank

    def reduce_columns(self, V):
        """Residuals of the columns of V modulo the subspace.

        The echelon rows are the identity on the pivot coordinates, so a
        residual is V with its pivot rows zeroed, minus the outer product of
        each tail with the matching pivot row of V.  The subspaces are
        spanned by monomial shifts, so tails are short or absent and the
        pivot rows of V mostly zero: only nonzero entries are multiplied,
        which also keeps Fraction arithmetic off the zeros."""
        if self.rank == 0 or V.shape[1] == 0:
            return V
        P = V[self.pivots, :]
        out = V.copy()
        out[self.pivots, :] = 0 if self.p is not None else Fraction(0)
        for a, support in self.tails:
            cols = P[a].nonzero()[0]
            if cols.size:
                out[support[:, None], cols] -= np.multiply.outer(self.echelon[a, support],
                                                                 P[a, cols])
        if self.p is not None:
            out %= self.p
        return out


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
        coords, _ = self.slice_coords(gen_degs, d)
        A = _zeros((len(coords), len(sparse_vecs)), self.p)
        self.write_columns(A, gen_degs, d, sparse_vecs)
        return A

    def write_columns(self, A, gen_degs: tuple, d: int, sparse_vecs):
        """Write sparse vectors into the first columns of A."""
        _, index = self.slice_coords(gen_degs, d)
        for j, vec in enumerate(sparse_vecs):
            for cm, c in vec.items():
                i = index.get(cm)
                if i is not None:
                    A[i, j] = c

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


def _kernel_piece(ctx: OracleContext, pres: ModulePresentation, steps, d: int):
    """Columns spanning the degree-d piece of the kernel of the last free
    module's map, in that free module's coordinates, quotient multiples
    included; None when it is zero.  For the first step the map is onto the
    module, whose kernel is the span of the relation images and quotient
    multiples (an echelon basis); later it is the induced map of the last
    step, taken modulo the quotient multiples of its target."""
    prev_degs = tuple(steps[-1].gen_degs)
    if len(steps) == 1:
        candidates = []
        for cdeg, vec in _presentation_columns(pres):
            candidates.extend(ctx.monomial_multiples(vec, cdeg, d))
        candidates.extend(ctx._quotient_multiples(prev_degs, d))
        E, pivots = _rref(ctx.dense(prev_degs, d, candidates).T, ctx.p)
        # copied so the whole RREF is not kept
        return E[:len(pivots)].copy().T if pivots else None
    prev = steps[-1]
    src_degs = tuple(steps[-2].gen_degs)
    # columns of the induced map at degree d
    cols = []
    for g, vec in zip(prev.gen_degs, prev.gen_vecs):
        for m in monomial_basis(ctx.pr.nvars, d - g) if d >= g else ():
            cols.append(ctx.shift(vec, m))
    L = ctx.dense(src_degs, d, cols)
    return _kernel_basis(ctx.free_space(src_degs, d).reduce_columns(L), ctx.p)


def truncated_resolution(ctx: OracleContext, pres: ModulePresentation, hsteps: int):
    """Free modules F_0..F_hsteps with generator vectors, exact through the
    degree bound: kernels are covered degree by degree and generators are
    chosen minimally (complement of the lower-degree span)."""
    D = ctx.degree_bound
    nvars = ctx.pr.nvars
    steps = [TruncatedStep(pres.gen_degs, [])]
    for step in range(1, hsteps + 1):
        prev_degs = tuple(steps[-1].gen_degs)
        gen_degs, gen_vecs = [], []
        # columns that span the kernel piece one degree lower together with
        # its quotient multiples
        prev_base = None
        for d in range(min(prev_degs, default=0), D + 1):
            coords, index = ctx.slice_coords(prev_degs, d)
            P = _kernel_piece(ctx, pres, steps, d) if coords else None
            if P is None:
                prev_base = None
                continue
            # The seeds (quotient multiples, then each variable times each
            # column of prev_base) span the part of the kernel piece that
            # lower-degree generators cover.  They fill one block and P
            # follows them, so the greedy pick keeps exactly the columns of
            # P outside the span of the seeds and of the columns of P left of
            # them: a minimal set of new generators.  The picks after the
            # quotient multiples are the next prev_base: multiplying by a
            # variable keeps quotient multiples inside the next ones.
            quotient = ctx._quotient_multiples(prev_degs, d)
            nseeds = len(quotient) + (nvars * prev_base.shape[1] if prev_base is not None else 0)
            block = _zeros((len(coords), nseeds + P.shape[1]), ctx.p)
            ctx.write_columns(block, prev_degs, d, quotient)
            if prev_base is not None:
                pcoords, _ = ctx.slice_coords(prev_degs, d - 1)
                for v in range(nvars):
                    mono = tuple(1 if w == v else 0 for w in range(nvars))
                    rows = [index[(pos, mono_mul(m, mono))] for pos, m in pcoords]
                    block[np.ix_(rows, range(len(quotient) + v, nseeds, nvars))] = prev_base
            block[:, nseeds:] = P
            picks = EchelonAccumulator(ctx.pr.field, len(coords)).add(block)
            for j in picks:
                if j >= nseeds:
                    v = P[:, j - nseeds]
                    gen_degs.append(d)
                    gen_vecs.append({coords[i]: v[i] for i in v.nonzero()[0]})
            prev_base = block[:, [j for j in picks if j >= len(quotient)]]
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
    src_coords = [ctx.slice_coords(N.gen_degs, d - g)[0] for g in src_degs]
    A = _zeros((nrows, sum(len(c) for c in src_coords)), ctx.p)
    j = 0
    for coords_src, vec in zip(src_coords, src_vecs):
        for npos, nmono in coords_src:
            for (pos, mono), c in vec.items():
                i = tgt_index.get((pos, (npos, mono_mul(nmono, mono))))
                if i is not None:
                    if ctx.p is not None:
                        A[i, j] = (A[i, j] + c) % ctx.p
                    else:
                        A[i, j] = A[i, j] + c
            j += 1
    return A


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
            # rank of the induced outgoing map: the span of the residual columns
            rank_out = len(EchelonAccumulator(ctx.pr.field, total_t).add(Vi_red))
            ker_dim = dimQ_src - rank_out
            # incoming map from step i+1
            Tnext = steps[i + 1]
            rank_in = 0
            if Tnext.gen_degs:
                Vn = _induced_map_columns(ctx, Tnext.gen_degs, Tnext.gen_vecs,
                                          tuple(Ti.gen_degs), Nmin, d)
                Vn_red = _reduce_blockwise(red_s, offs_s, dims_s, Vn, ctx.p)
                rank_in = len(EchelonAccumulator(ctx.pr.field, total_s).add(Vn_red))
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
        rank_ind = len(EchelonAccumulator(ctx.pr.field, A_red.shape[0]).add(A_red))
        ker[d] = src_q.quotient_dim - rank_ind
        coker[d] = tgt_q.quotient_dim - rank_ind
    return ker, coker
