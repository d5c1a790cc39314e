"""Degree-truncated sparse linear-algebra oracle for graded homology.

An independent verification path: graded pieces of modules over R = S/(f)
are held in R's standard coordinates, resolutions are rebuilt degree by
degree from kernels of assembled coefficient matrices, and homology
dimensions come from ranks.  No Groebner machinery is used anywhere on
this path.  Vectors are sparse dicts {coordinate index: value} and every
rank, kernel and quotient comes from the one elimination in ``linalg``.

The degree-e piece of R is the degree-e monomials of S modulo the
multiples of the f's, reduced once per degree by the oracle's own
elimination; the monomials that are not a pivot of it, the standard
monomials, are a basis of R_e (Lazard's linear-algebra view of a graded
quotient).  A slice of R^r, one block of degree-(d - g) monomials per
generator of degree g, is taken modulo these reduced rows block by block,
so every vector the oracle keeps lies on standard coordinates only, and the
multiples of the f's never enter a kernel, a seed block or an induced map.

The truncation is sound: a graded piece in degree d only involves
generators and relations of degree <= d, so every reported value is exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .fields import PrimeField
from .fmodules import ModulePresentation, PolyMatrix
from .linalg import MAX_SLICE, EchelonAccumulator, SparseMatrix, _reduce, _rref
from .polynomials import (
    IncompatibleOperandsError,
    InvariantError,
    mono_mul,
    monomials_of_degree,
)
from .rings import RingPresentation


class OracleTooLargeError(RuntimeError):
    """The instance exceeds the oracle's size guardrails."""


MAX_VARS = 6
MAX_DEGREE = 8


@functools.cache
def monomial_basis(nvars: int, degree: int):
    return tuple(monomials_of_degree(nvars, degree))


@functools.cache
def _monomial_index(nvars: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(monomial_basis(nvars, degree))}


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
    """A coordinate space modulo a subspace, kept as a fully reduced basis
    {pivot: row}: each row is one at its pivot and zero at every other one.

    The subspace is the span of ``vectors`` and, when ``basis`` is given,
    of that fully reduced basis too; the vectors must then have zeros at its
    pivots.  ``nonpivots`` lists the other coordinates in increasing order:
    their unit vectors are a basis of the quotient."""

    __slots__ = ("dim", "basis", "nonpivots", "p")

    def __init__(self, dim: int, vectors: list, p, basis: dict | None = None):
        self.dim = dim
        self.p = p
        rows, pivots = _rref(SparseMatrix(vectors, dim), p) if vectors else ((), ())
        own = dict(zip(pivots, rows))
        if basis:
            # The given rows have zeros at each other's pivots and the new
            # rows have zeros at all of them, so clearing the new pivots from
            # the given rows keeps the union fully reduced.
            merged = {q: row if own.keys().isdisjoint(row) else _reduce(row, own, p)
                      for q, row in basis.items()}
            merged.update(own)
            own = merged
        self.basis = own
        self.nonpivots = [i for i in range(dim) if i not in own]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def quotient_dim(self) -> int:
        return self.dim - self.rank

    def reduce_columns(self, V: list) -> list:
        """Residuals of the vectors V modulo the subspace: each has zeros at
        the pivots.  The subspaces are spanned by monomial shifts, so their
        rows are short and most entries of V meet no pivot."""
        if not self.basis:
            return V
        return [_reduce(v, self.basis, self.p) if v else {} for v in V]


class OracleContext:
    """Shared grading data for one ring: slices, standard coordinates,
    subspaces."""

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
        self._pieces: dict = {}
        self._free_spaces: dict = {}
        self._value_spaces: dict = {}

    # -- coordinates -------------------------------------------------------------

    def slice_coords(self, gen_degs: tuple, d: int):
        """[(position, monomial)] basis of the degree-d piece of S^{gen_degs},
        pos-major, plus the index map."""
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
        """{(pos, mono): coeff} vectors in the slice's coordinate indices.
        A term outside the slice means a vector of the wrong degree or rank,
        and raises InvariantError."""
        _, index = self.slice_coords(gen_degs, d)
        try:
            return [{index[cm]: c for cm, c in vec.items()} for vec in sparse_vecs]
        except KeyError as err:
            raise InvariantError(f"term {err.args[0]} lies outside the degree-{d} "
                                 f"slice of generator degrees {gen_degs}") from None

    @staticmethod
    def shift(vec: dict, mono: tuple) -> dict:
        return {(pos, mono_mul(m, mono)): c for (pos, m), c in vec.items()}

    def standard_monomials(self, e: int):
        """The degree-e monomials that are no pivot of the ring's degree-e
        piece: a basis of R_e."""
        if e < 0:
            return []
        basis = monomial_basis(self.pr.nvars, e)
        return [basis[i] for i in self.ring_piece(e).nonpivots]

    # -- subspaces ----------------------------------------------------------------

    def ring_piece(self, e: int) -> QuotientSpace:
        """Degree-e piece of R: the degree-e monomials of S, indexed as in
        ``monomial_basis``, modulo the multiples of the quotient generators."""
        if e not in self._pieces:
            nvars = self.pr.nvars
            index = _monomial_index(nvars, e)
            mults = []
            for f in self.ring.quotient_gens:
                for m in monomial_basis(nvars, e - f.degree()) if e >= f.degree() else ():
                    mults.append({index[mono_mul(t, m)]: c for t, c in f.terms.items()})
            self._pieces[e] = QuotientSpace(len(index), mults, self.p)
        return self._pieces[e]

    def free_space(self, gen_degs: tuple, d: int) -> QuotientSpace:
        """Degree-d piece of R^{gen_degs}: the slice modulo the quotient
        multiples, whose reduced rows are those of the ring's degree-(d - g)
        piece at each generator's offset.  Its non-pivots are the slice's
        standard coordinates."""
        key = (gen_degs, d)
        if key not in self._free_spaces:
            coords, _ = self.slice_coords(gen_degs, d)
            basis, off = {}, 0
            for g in gen_degs:
                if d < g:
                    continue
                piece = self.ring_piece(d - g)
                for q, row in piece.basis.items():
                    basis[off + q] = {off + i: x for i, x in row.items()}
                off += piece.dim
            self._free_spaces[key] = QuotientSpace(len(coords), [], self.p, basis)
        return self._free_spaces[key]

    def value_space(self, pres: ModulePresentation, d: int) -> QuotientSpace:
        """Degree-d piece of a presented module: the free space modulo the
        standard multiples of the relation columns, reduced to standard
        coordinates.  Its basis holds the free space's rows as well, so its
        non-pivots index a basis of the module's degree-d piece.

        The cache key holds the presentation itself (hashed by identity), so
        it stays alive with the context and its id cannot pass to another."""
        key = (pres, d)
        if key not in self._value_spaces:
            gen_degs = pres.gen_degs
            free = self.free_space(gen_degs, d)
            # modulo the quotient multiples, the shifts of a relation column
            # by the standard monomials span all its monomial shifts
            cols = [self.shift(vec, m) for deg, vec in _presentation_columns(pres)
                    for m in self.standard_monomials(d - deg)]
            rels = free.reduce_columns(self.vectors(gen_degs, d, cols))
            self._value_spaces[key] = QuotientSpace(free.dim, rels, self.p, free.basis)
        return self._value_spaces[key]


class TruncatedStep:
    """One free module of the degreewise-built resolution; each generator
    vector lies on standard coordinates."""

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
    """A basis of the degree-d piece of the kernel of the last free module's
    map, on that free module's standard coordinates; None when it is zero.
    For the first step the map is onto the module, whose kernel is spanned
    by the reduced standard multiples of the relations: the value space's
    own rows.  Later it is the kernel of the induced map of the last step,
    one column per standard coordinate of its source."""
    prev_degs = tuple(steps[-1].gen_degs)
    free = ctx.free_space(prev_degs, d)
    if len(steps) == 1:
        vs = ctx.value_space(pres, d)
        return [row for q, row in vs.basis.items() if q not in free.basis] or None
    prev = steps[-1]
    src_degs = tuple(steps[-2].gen_degs)
    coords, _ = ctx.slice_coords(prev_degs, d)
    cols = []
    for i in free.nonpivots:
        pos, m = coords[i]
        cols.append(ctx.shift(prev.gen_vecs[pos], m))
    target = ctx.free_space(src_degs, d)
    L = target.reduce_columns(ctx.vectors(src_degs, d, cols))
    K = _kernel_basis(SparseMatrix.from_columns(L, target.dim), ctx.p)
    if K is None:
        return None
    std = free.nonpivots
    return [{std[j]: x for j, x in v.items()} for v in K]


def truncated_resolution(ctx: OracleContext, pres: ModulePresentation, hsteps: int):
    """Free modules F_0..F_hsteps with generator vectors, exact through the
    degree bound: kernels are covered degree by degree and generators are
    chosen minimally (complement of the lower-degree span)."""
    D = ctx.degree_bound
    nvars = ctx.pr.nvars
    variables = [tuple(1 if w == v else 0 for w in range(nvars)) for v in range(nvars)]
    steps = [TruncatedStep(pres.gen_degs, [])]
    for step in range(1, hsteps + 1):
        prev_degs = tuple(steps[-1].gen_degs)
        gen_degs, gen_vecs = [], []
        prev_base = None   # a basis of the kernel piece one degree lower
        for d in range(min(prev_degs, default=0), D + 1):
            coords, index = ctx.slice_coords(prev_degs, d)
            P = _kernel_piece(ctx, pres, steps, d) if coords else None
            if P is None:
                prev_base = None
                continue
            # The seeds (each variable times each vector of prev_base, reduced
            # to standard coordinates) span the part of the kernel piece that
            # lower-degree generators cover.  They fill one block and P
            # follows them, so the greedy pick keeps exactly the columns of P
            # outside the span of the seeds and of the columns of P left of
            # them: a minimal set of new generators.
            seeds = []
            if prev_base is not None:
                pcoords, _ = ctx.slice_coords(prev_degs, d - 1)
                std = ctx.free_space(prev_degs, d - 1).nonpivots
                moves = [{i: index[pcoords[i][0], mono_mul(pcoords[i][1], x)] for i in std}
                         for x in variables]
                seeds = ctx.free_space(prev_degs, d).reduce_columns(
                    [{move[i]: c for i, c in vec.items()} for vec in prev_base for move in moves])
            nseeds = len(seeds)
            picks = EchelonAccumulator(ctx.pr.field, len(coords)).add(seeds + P)
            for j in picks:
                if j >= nseeds:
                    gen_degs.append(d)
                    gen_vecs.append({coords[i]: x for i, x in P[j - nseeds].items()})
            prev_base = P
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
    that of tgt_degs.  Source generator g contributes one column per
    non-pivot coordinate of N's value space at d - g, a basis element of
    N_{d-g}; target generator pos receives the block N_{d-g} (g its
    degree), taken modulo its value space; the residual columns of all
    blocks side by side span the image."""
    spaces = [ctx.value_space(N, d - g) for g in tgt_degs]
    index = [ctx.slice_coords(N.gen_degs, d - g)[1] for g in tgt_degs]
    blocks = [[] for _ in tgt_degs]
    for g, vec in zip(src.gen_degs, src.gen_vecs):
        ncoords, _ = ctx.slice_coords(N.gen_degs, d - g)
        for c in ctx.value_space(N, d - g).nonpivots:
            npos, nmono = ncoords[c]
            parts = [{} for _ in tgt_degs]
            # distinct terms of vec land on distinct coordinates
            for (pos, mono), x in vec.items():
                parts[pos][index[pos][npos, mono_mul(nmono, mono)]] = x
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
    # N is read as given: its graded pieces do not depend on the presentation,
    # and its initial degree is the first given generator degree where it is
    # nonzero (a generator below that degree is zero in N)
    min_res = min((g for st in steps for g in st.gen_degs), default=0)
    min_n = next((g for g in sorted(set(N.gen_degs)) if ctx.value_space(N, g).quotient_dim), 0)
    lo = min(0, min_res + min_n)
    ranks: dict = {}   # (step j, degree d) -> rank of (d_j tensor N)_d

    def rank(j, d):
        if (j, d) not in ranks:
            ranks[j, d] = (_induced_rank(ctx, steps[j], steps[j - 1].gen_degs, N, d)
                           if steps[j].gen_degs else 0)
        return ranks[j, d]

    out: dict = {}
    for i in range(1, index_bound + 1):
        dims_i = {}
        for d in range(lo, degree_bound + 1):
            dimQ_src = sum(ctx.value_space(N, d - g).quotient_dim for g in steps[i].gen_degs)
            if dimQ_src == 0:
                dims_i[d] = 0
                continue
            # kernel of the outgoing map minus the image of the incoming one;
            # the incoming rank at i is the outgoing one at i + 1
            dims_i[d] = dimQ_src - rank(i, d) - rank(i + 1, d)
        out[i] = dims_i
    return out


def module_hilbert_oracle(M: ModulePresentation, degree_bound: int) -> dict:
    """Graded dimensions of the module itself, by plain rank computations.
    A test reference: ``test_module_hilbert_oracle_matches_groebner`` and
    ``test_pushforward_node`` check Hilbert functions against it."""
    ctx = OracleContext(M.ring, degree_bound)
    lo = min(0, min(M.gen_degs, default=0))
    out = {}
    for d in range(lo, degree_bound + 1):
        out[d] = ctx.value_space(M, d).quotient_dim
    return out


def _apply(psi: PolyMatrix, vec: dict, p) -> dict:
    """psi times a {(source pos, mono): coeff} vector, as a {(target pos,
    mono): coeff} vector without zero entries."""
    out: dict = {}
    for (j, mono), x in vec.items():
        for i in range(psi.nrows):
            poly = psi.entries[i][j]
            if poly:
                for m, y in poly.terms.items():
                    key = (i, mono_mul(m, mono))
                    out[key] = out.get(key, 0) + x * y
    return {k: x for k, x in out.items() if (x % p if p is not None else x)}


def map_kernel_cokernel_oracle(psi: PolyMatrix, source: ModulePresentation,
                               target: ModulePresentation, degree_bound: int):
    """Graded kernel and cokernel dimensions of a module map.

    psi maps source generators to the target generator space; the induced
    map on graded pieces gives both dimensions by rank-nullity.  psi enters
    no presentation, so it is checked here: it must be graded, its row
    degrees must be the target's generator degrees and its column degrees
    the source's, and through the degree bound it must carry each source
    relation into the target's relations (IncompatibleOperandsError for the
    last three).
    """
    if psi.row_degs != target.gen_degs or psi.col_degs != source.gen_degs:
        raise IncompatibleOperandsError(
            f"map with row degrees {psi.row_degs} and column degrees {psi.col_degs} "
            f"does not fit source generator degrees {source.gen_degs} and target "
            f"generator degrees {target.gen_degs}")
    psi.check_graded()
    ctx = OracleContext(source.ring, degree_bound)
    relations = _presentation_columns(source)
    lo = min(0, min(list(source.gen_degs) + list(target.gen_degs), default=0))
    ker, coker = {}, {}
    for d in range(lo, degree_bound + 1):
        src_q = ctx.value_space(source, d)
        tgt_q = ctx.value_space(target, d)
        images = [_apply(psi, vec, ctx.p) for deg, vec in relations if deg == d]
        if any(tgt_q.reduce_columns(ctx.vectors(target.gen_degs, d, images))):
            raise IncompatibleOperandsError(
                f"map does not carry the degree-{d} source relations into the target's")
        # one column per basis element of the source's degree-d piece
        coords_src, _ = ctx.slice_coords(source.gen_degs, d)
        cols = [_apply(psi, {coords_src[c]: 1}, ctx.p) for c in src_q.nonpivots]
        A_red = tgt_q.reduce_columns(ctx.vectors(target.gen_degs, d, cols))
        rank_ind = len(EchelonAccumulator(ctx.pr.field, tgt_q.dim).add(A_red))
        ker[d] = src_q.quotient_dim - rank_ind
        coker[d] = tgt_q.quotient_dim - rank_ind
    return ker, coker
