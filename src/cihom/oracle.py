"""Degree-truncated sparse linear-algebra oracle for graded homology.

An independent verification path: graded pieces of modules over R = S/(f)
are represented by ambient monomial coordinates modulo explicit image
subspaces, resolutions are rebuilt degree by degree from kernels of
assembled coefficient matrices, and homology dimensions come from ranks.
No Groebner machinery is used anywhere on this path.  Vectors are sparse
dicts {coordinate index: value} and every rank, kernel and quotient comes
from the one elimination in ``linalg``.

The truncation is sound: a graded piece in degree d only involves
generators and relations of degree <= d, so every reported value is exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .fields import PrimeField
from .fmodules import ModulePresentation, PolyMatrix
from .linalg import MAX_SLICE, EchelonAccumulator, SparseMatrix, _reduce, _rref
from .polynomials import mono_mul, monomials_of_degree
from .rings import RingPresentation


class OracleTooLargeError(RuntimeError):
    """The instance exceeds the oracle's size guardrails."""


MAX_VARS = 6
MAX_DEGREE = 8


@functools.cache
def monomial_basis(nvars: int, degree: int):
    return tuple(monomials_of_degree(nvars, degree))


def _kernel_basis(A: SparseMatrix, p):
    """Vectors spanning ker(A) in the coordinates 0..n-1 of its columns;
    None when the kernel is zero.  One vector per non-pivot column j of the
    RREF: a one at j, minus column j's entries at the pivots."""
    rows, pivots = _rref(A, p)
    pivot_set = set(pivots)
    one = 1 if p is not None else Fraction(1)
    K = {j: {j: one} for j in range(A.shape[1]) if j not in pivot_set}
    for c, row in zip(pivots, rows):
        for j, x in row.items():
            if j != c:
                K[j][c] = -x % p if p is not None else -x
    return list(K.values()) or None


class QuotientSpace:
    """A coordinate space modulo the span of some vectors, kept as their
    reduced basis {pivot: row} from ``_rref``."""

    __slots__ = ("dim", "rank", "basis", "p")

    def __init__(self, dim: int, vectors: list, p):
        self.dim = dim
        self.p = p
        rows, pivots = _rref(SparseMatrix(vectors, dim), p)
        self.basis = dict(zip(pivots, rows))
        self.rank = len(pivots)

    @property
    def quotient_dim(self) -> int:
        return self.dim - self.rank

    def reduce_columns(self, V: list) -> list:
        """Residuals of the vectors V modulo the subspace: each has zeros at
        the pivots.  The subspaces are spanned by monomial shifts, so their
        rows are short and most entries of V meet no pivot."""
        if not self.rank:
            return V
        return [_reduce(v, self.basis, self.p) if v else {} for v in V]


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

    def vectors(self, gen_degs: tuple, d: int, sparse_vecs) -> list:
        """{(pos, mono): coeff} vectors in the slice's coordinate indices;
        terms outside the slice are dropped."""
        _, index = self.slice_coords(gen_degs, d)
        return [{index[cm]: c for cm, c in vec.items() if cm in index}
                for vec in sparse_vecs]

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
            self._value_spaces[key] = QuotientSpace(
                len(coords), self.vectors(gen_degs, d, cols), self.p)
        return self._value_spaces[key]

    def free_space(self, gen_degs: tuple, d: int) -> QuotientSpace:
        """Degree-d piece of R^{gen_degs} (quotient multiples only)."""
        key = (("free",) + gen_degs, d)
        if key not in self._value_spaces:
            coords, _ = self.slice_coords(gen_degs, d)
            cols = self._quotient_multiples(gen_degs, d)
            self._value_spaces[key] = QuotientSpace(
                len(coords), self.vectors(gen_degs, d, cols), self.p)
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
    """Vectors spanning the degree-d piece of the kernel of the last free
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
        A = SparseMatrix(ctx.vectors(prev_degs, d, candidates),
                         len(ctx.slice_coords(prev_degs, d)[0]))
        return _rref(A, ctx.p)[0] or None
    prev = steps[-1]
    src_degs = tuple(steps[-2].gen_degs)
    # columns of the induced map at degree d
    cols = []
    for g, vec in zip(prev.gen_degs, prev.gen_vecs):
        for m in monomial_basis(ctx.pr.nvars, d - g) if d >= g else ():
            cols.append(ctx.shift(vec, m))
    target = ctx.free_space(src_degs, d)
    L = target.reduce_columns(ctx.vectors(src_degs, d, cols))
    return _kernel_basis(SparseMatrix.from_columns(L, target.dim), ctx.p)


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
            # The seeds (the reduced basis of the quotient multiples, then
            # each variable times each column of prev_base) span the part of
            # the kernel piece that lower-degree generators cover.  They fill
            # one block and P follows them, so the greedy pick keeps exactly
            # the columns of P outside the span of the seeds and of the
            # columns of P left of them: a minimal set of new generators.
            # The picks after the quotient multiples are the next prev_base:
            # multiplying by a variable keeps quotient multiples inside the
            # next ones.
            block = list(ctx.free_space(prev_degs, d).basis.values())
            nquotient = len(block)
            if prev_base is not None:
                pcoords, _ = ctx.slice_coords(prev_degs, d - 1)
                moves = []
                for v in range(nvars):
                    mono = tuple(1 if w == v else 0 for w in range(nvars))
                    moves.append([index[(pos, mono_mul(m, mono))] for pos, m in pcoords])
                block += [{move[i]: x for i, x in vec.items()}
                          for vec in prev_base for move in moves]
            nseeds = len(block)
            block += P
            picks = EchelonAccumulator(ctx.pr.field, len(coords)).add(block)
            for j in picks:
                if j >= nseeds:
                    gen_degs.append(d)
                    gen_vecs.append({coords[i]: x for i, x in block[j].items()})
            prev_base = [block[j] for j in picks if j >= nquotient]
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
    degree_bound, computed purely by linear algebra on graded pieces.
    """
    M.check_same_ring(N)
    ctx = OracleContext(M.ring, degree_bound)
    steps = truncated_resolution(ctx, M, index_bound + 1)
    return _homology_dims(ctx, steps, N, index_bound, degree_bound)


def _induced_rank(ctx, src: TruncatedStep, tgt_degs, N, d) -> int:
    """Rank of (d_step tensor N)_d from the source step's free module into
    that of tgt_degs.  Target generator pos contributes the block N_{d-g}
    (g its degree), taken modulo its value space; the residual columns of
    all blocks side by side span the image."""
    spaces = [ctx.value_space(N, d - g) for g in tgt_degs]
    index = [ctx.slice_coords(N.gen_degs, d - g)[1] for g in tgt_degs]
    blocks = [[] for _ in tgt_degs]
    for g, vec in zip(src.gen_degs, src.gen_vecs):
        for npos, nmono in ctx.slice_coords(N.gen_degs, d - g)[0]:
            parts = [{} for _ in tgt_degs]
            for (pos, mono), c in vec.items():
                i = index[pos].get((npos, mono_mul(nmono, mono)))
                if i is not None:
                    parts[pos][i] = parts[pos].get(i, 0) + c
            for block, part in zip(blocks, parts):
                block.append(part)
    cols = [{} for _ in blocks[0]] if blocks else []
    off = 0
    for qs, block in zip(spaces, blocks):
        for col, v in zip(cols, qs.reduce_columns(block)):
            col.update({off + i: x for i, x in v.items()})
        off += qs.dim
    return len(EchelonAccumulator(ctx.pr.field, off).add(cols))


def _homology_dims(ctx: OracleContext, steps, N: ModulePresentation,
                   index_bound: int, degree_bound: int) -> dict:
    Nmin = N.minimalize()
    min_res = min((g for st in steps for g in st.gen_degs), default=0)
    min_n = min(Nmin.gen_degs, default=0)
    lo = min(0, min_res + min_n)
    ranks: dict = {}   # (step j, degree d) -> rank of (d_j tensor N)_d

    def rank(j, d):
        if (j, d) not in ranks:
            ranks[j, d] = (_induced_rank(ctx, steps[j], steps[j - 1].gen_degs, Nmin, d)
                           if steps[j].gen_degs else 0)
        return ranks[j, d]

    out: dict = {}
    for i in range(1, index_bound + 1):
        dims_i = {}
        for d in range(lo, degree_bound + 1):
            dimQ_src = sum(ctx.value_space(Nmin, d - g).quotient_dim for g in steps[i].gen_degs)
            if dimQ_src == 0:
                dims_i[d] = 0
                continue
            # kernel of the outgoing map minus the image of the incoming one;
            # the incoming rank at i is the outgoing one at i + 1
            dims_i[d] = dimQ_src - rank(i, d) - rank(i + 1, d)
        out[i] = dims_i
    return out


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
    map on graded pieces gives both dimensions by rank-nullity.  psi enters
    no presentation, so its grading is checked here.
    """
    psi.check_graded()
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
        # psi descends, so source-subspace columns reduce to zero residuals
        # and the residual column span is exactly the induced image
        A_red = tgt_q.reduce_columns(ctx.vectors(target.gen_degs, d, cols))
        rank_ind = len(EchelonAccumulator(ctx.pr.field, tgt_q.dim).add(A_red))
        ker[d] = src_q.quotient_dim - rank_ind
        coker[d] = tgt_q.quotient_dim - rank_ind
    return ker, coker
