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
quotient), and the reduced rows give every degree-e monomial of S its
normal form on them.  A slice of R^r is one block of standard monomials of
degree d - g per generator of degree g, and a monomial times a vector is
one normal-form lookup per term, so every vector the oracle builds lies on
standard coordinates and the multiples of the f's never enter a kernel, a
seed block or an induced map.

Each product is formed once.  A step's degree-d seeds, followed by its new
degree-d generators, are the images of the next step's degree-d
coordinates, so they are kept as that step's map columns.  A presented
module's multiplication maps (each basis element of its degree-e piece
times a monomial, reduced modulo its value space in the target degree) are
built once per context, and every rank of an induced map on F tensor N,
and of the relation map behind Hom(M, N), sums their columns.

The truncation is sound: a graded piece in degree d only involves
generators and relations of degree <= d, so every reported value is exact.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple

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


class RingPiece(NamedTuple):
    """R_e: its standard monomials, a basis, and the normal form
    {standard index: coeff} of every degree-e monomial of S."""
    standard: tuple
    normal_form: dict


class QuotientSpace:
    """A coordinate space modulo the span of ``vectors``, kept as a fully
    reduced basis {pivot: row}: each row is one at its pivot and zero at
    every other one.  ``nonpivots`` lists the other coordinates in
    increasing order: their unit vectors are a basis of the quotient."""

    __slots__ = ("dim", "basis", "nonpivots", "p")

    def __init__(self, dim: int, vectors: list, p):
        self.dim = dim
        self.p = p
        rows, pivots = _rref(SparseMatrix(vectors, dim), p) if vectors else ((), ())
        self.basis = dict(zip(pivots, rows))
        self.nonpivots = [i for i in range(dim) if i not in self.basis]

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


class Slice:
    """The degree-d piece of R^{gen_degs} on standard coordinates:
    ``coords`` lists its basis as (position, standard monomial), pos-major,
    and ``blocks`` maps each position of degree <= d to its (offset,
    normal-form table)."""

    __slots__ = ("gen_degs", "d", "coords", "blocks", "p")

    def __init__(self, ctx: "OracleContext", gen_degs: tuple, d: int):
        self.gen_degs, self.d, self.p = gen_degs, d, ctx.p
        self.coords, self.blocks = [], {}
        for pos, g in enumerate(gen_degs):
            if d >= g:
                standard, normal_form = ctx.piece(d - g)
                self.blocks[pos] = (len(self.coords), normal_form)
                self.coords.extend((pos, m) for m in standard)

    def vector(self, terms, mono: tuple | None = None) -> dict:
        """mono (one when None) times a sum of ((position, monomial of S),
        coeff) terms, on standard coordinates: one normal-form lookup per
        term.  A term outside the slice means a vector of the wrong degree
        or rank, and raises InvariantError."""
        blocks = self.blocks
        out: dict = {}
        for (pos, m), c in terms:
            if mono is not None:
                m = mono_mul(m, mono)
            try:
                off, normal_form = blocks[pos]
                row = normal_form[m]
            except KeyError:
                raise InvariantError(f"term {(pos, m)} lies outside the degree-{self.d} "
                                     f"slice of generator degrees {self.gen_degs}") from None
            for j, y in row.items():
                out[off + j] = out.get(off + j, 0) + c * y
        p = self.p
        if p is not None:
            return {i: x % p for i, x in out.items() if x % p}
        return {i: x for i, x in out.items() if x}


class OracleContext:
    """Shared grading data for one ring: pieces of R, slices of its free
    modules, value spaces of presented modules."""

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
        self.one = 1 if self.p is not None else Fraction(1)
        self._pieces: dict = {}
        self._slices: dict = {}
        self._value_spaces: dict = {}
        self._maps: dict = {}

    # -- coordinates -------------------------------------------------------------

    def piece(self, e: int) -> RingPiece:
        """R_e, read off the ring's degree-e RREF once: its standard
        monomials are the degree-e monomials of S that are no pivot of the
        multiples of the quotient generators, and the reduced rows give the
        other monomials their normal forms."""
        if e not in self._pieces:
            p, nvars = self.p, self.pr.nvars
            basis, index = monomial_basis(nvars, e), _monomial_index(nvars, e)
            mults = [{index[mono_mul(t, m)]: c for t, c in f.terms.items()}
                     for f in self.ring.quotient_gens
                     for m in monomial_basis(nvars, e - f.degree())]
            rows, pivots = _rref(SparseMatrix(mults, len(basis)), p) if mults else ((), ())
            pivot_set = set(pivots)
            std = {i: k for k, i in enumerate(i for i in range(len(basis)) if i not in pivot_set)}
            normal_form = {basis[i]: {k: self.one} for i, k in std.items()}
            for c, row in zip(pivots, rows):
                normal_form[basis[c]] = {std[j]: -x % p if p is not None else -x
                                         for j, x in row.items() if j != c}
            self._pieces[e] = RingPiece(tuple(basis[i] for i in std), normal_form)
        return self._pieces[e]

    def slice(self, gen_degs: tuple, d: int) -> "Slice":
        """The degree-d piece of R^{gen_degs}.  MAX_SLICE caps the size of
        S's slice, the block of every degree-(d - g) monomial."""
        key = (gen_degs, d)
        if key not in self._slices:
            nvars = self.pr.nvars
            size = sum(len(monomial_basis(nvars, d - g)) for g in gen_degs)
            if size > MAX_SLICE:
                raise OracleTooLargeError(f"slice dimension {size} exceeds cap {MAX_SLICE}")
            self._slices[key] = Slice(self, gen_degs, d)
        return self._slices[key]

    def value_space(self, pres: ModulePresentation, d: int) -> QuotientSpace:
        """Degree-d piece of a presented module: the slice modulo the
        standard-monomial multiples of the relation columns, whose
        non-pivots index a basis of the module's degree-d piece (modulo the
        quotient multiples, the standard shifts of a column span all its
        monomial shifts).

        The cache key holds the presentation itself (hashed by identity), so
        it stays alive with the context and its id cannot pass to another."""
        key = (pres, d)
        if key not in self._value_spaces:
            sl = self.slice(pres.gen_degs, d)
            rels = [sl.vector(vec.items(), m) for deg, vec in _presentation_columns(pres)
                    for m in self.piece(d - deg).standard]
            self._value_spaces[key] = QuotientSpace(len(sl.coords), rels, self.p)
        return self._value_spaces[key]

    def multiplication_map(self, pres: ModulePresentation, e: int, mono: tuple) -> list:
        """Multiplication by the monomial mono of S from the degree-e piece
        of a presented module to its degree-(e + deg mono) piece: for each
        basis element of the former (a non-pivot of its value space, in
        order), its image reduced modulo the latter's value space.  Built
        once per context, and keyed on the presentation as value spaces
        are."""
        key = (pres, e, mono)
        if key not in self._maps:
            coords = self.slice(pres.gen_degs, e).coords
            target = self.slice(pres.gen_degs, e + sum(mono))
            images = [target.vector([(coords[c], self.one)], mono)
                      for c in self.value_space(pres, e).nonpivots]
            self._maps[key] = self.value_space(pres, e + sum(mono)).reduce_columns(images)
        return self._maps[key]


class TruncatedStep:
    """One free module of the degreewise-built resolution; each generator
    vector is {(position, standard monomial): coeff}."""

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


def _kernel_piece(ctx: OracleContext, pres: ModulePresentation, steps, d: int, free: list,
                  images):
    """A basis of the degree-d vectors of the kernel of the last free
    module's map that are supported on the coordinates ``free``, as vectors
    indexed by position in ``free``; None when it is zero.  For the first
    step the map is onto the module: a coordinate goes to its residual
    modulo the value space.  Later it is the previous step's map, and
    ``images`` lists the image of each coordinate of the degree-d slice, in
    the slice's order, as ``truncated_resolution`` kept them: no product is
    formed here (None when the target slice is zero, so every image is).
    The target's slice is built even when ``free`` is empty, so MAX_SLICE
    checks the same slices whatever the seeds cover."""
    if len(steps) == 1:
        if not free:
            return None
        vs = ctx.value_space(pres, d)
        cols = vs.reduce_columns([{i: ctx.one} for i in free])
        dim = vs.dim
    else:
        target = ctx.slice(tuple(steps[-2].gen_degs), d)
        if not free:
            return None
        cols = [images[i] for i in free] if images else [{} for _ in free]
        dim = len(target.coords)
    return _kernel_basis(SparseMatrix.from_columns(cols, dim), ctx.p)


def truncated_resolution(ctx: OracleContext, pres: ModulePresentation, hsteps: int):
    """Free modules F_0..F_hsteps with generator vectors, exact through the
    degree bound: kernels are covered degree by degree and generators are
    chosen minimally (a complement of what lower-degree ones cover).

    Each step's degree-d seeds, followed by its new degree-d generators, are
    exactly the images of the next step's degree-d slice coordinates, in
    the slice's pos-major order (the generators are found in increasing
    degree, and R_0 is spanned by 1).  They are kept, one step at a time,
    as the next step's map columns."""
    D = ctx.degree_bound
    steps = [TruncatedStep(pres.gen_degs, [])]
    prev_images: dict = {}   # d -> the last step's images of the next slice's coordinates
    for step in range(1, hsteps + 1):
        prev_degs = tuple(steps[-1].gen_degs)
        gen_degs, gen_vecs, images = [], [], {}
        for d in range(min(prev_degs, default=0), D + 1):
            sl = ctx.slice(prev_degs, d)
            coords = sl.coords
            if not coords:
                continue
            # The seeds, each generator already chosen times each standard
            # monomial of the missing degree, span the part of the kernel
            # piece that lower-degree generators cover.  Every kernel vector
            # minus a combination of seeds is zero at their pivots, so the
            # new generators are a basis of the kernel on the other
            # coordinates: a minimal set.
            seeds = [sl.vector(vec.items(), m)
                     for g, vec in zip(gen_degs, gen_vecs) for m in ctx.piece(d - g).standard]
            covered = EchelonAccumulator(ctx.pr.field, len(coords))
            if seeds:
                covered.add(seeds)
            free = [i for i in range(len(coords)) if i not in covered.basis]
            for v in _kernel_piece(ctx, pres, steps, d, free, prev_images.get(d)) or ():
                v = {free[j]: x for j, x in v.items()}
                gen_degs.append(d)
                gen_vecs.append({coords[i]: x for i, x in v.items()})
                seeds.append(v)
            images[d] = seeds
        steps.append(TruncatedStep(gen_degs, gen_vecs))
        prev_images = images
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


def _induced_rank(ctx: OracleContext, N: ModulePresentation, sources, tgt_degrees) -> int:
    """Rank of a map from a sum of N's graded pieces into the sum of the
    N_t, t in tgt_degrees, read off N's multiplication maps.  Each source
    (e, terms) is a summand N_e with one column per basis element; a term
    ((pos, mono), x) sends that element to x times its image under mono,
    already reduced, in target summand pos.  The target summands lie side
    by side in their value spaces' coordinates, and no product is formed
    here.  For (d_j tensor N)_d the sources are the generators g of F_j,
    as N_{d-g} with their vectors' terms, and the targets are N_{d-h} for
    the generators h of F_{j-1}."""
    offsets = list(itertools.accumulate((ctx.value_space(N, t).dim for t in tgt_degrees),
                                        initial=0))
    p, cols = ctx.p, []
    for e, terms in sources:
        n = ctx.value_space(N, e).quotient_dim
        if not n:
            continue
        maps = [(offsets[pos], x, ctx.multiplication_map(N, e, mono)) for (pos, mono), x in terms]
        for c in range(n):
            col: dict = {}
            for off, x, images in maps:
                for i, y in images[c].items():
                    col[off + i] = col.get(off + i, 0) + x * y
            if p is not None:
                cols.append({i: y % p for i, y in col.items() if y % p})
            else:
                cols.append({i: y for i, y in col.items() if y})
    return len(EchelonAccumulator(ctx.pr.field, offsets[-1]).add(cols))


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
            src = steps[j]
            ranks[j, d] = _induced_rank(
                ctx, N, [(d - g, vec.items()) for g, vec in zip(src.gen_degs, src.gen_vecs)],
                [d - h for h in steps[j - 1].gen_degs]) if src.gen_degs else 0
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


def hom_oracle(M: ModulePresentation, N: ModulePresentation, lo: int, hi: int) -> dict:
    """dim Hom_R(M, N)_d for lo <= d <= hi, from M's given generators and
    relations and N's multiplication maps.

    A degree-d map sends generator i (degree a_i) into N_(a_i+d) and must
    send relation column j (degree b_j) to zero in N_(b_j+d), so Hom_d is
    the kernel of the sum of the N_(a_i+d) into the sum of the N_(b_j+d),
    in which each relation entry acts through the maps of its monomials.
    No resolution is built, so every degree is exact.  The context's degree
    bound is the highest degree of N read, max(a_i, b_j) + hi.
    """
    M.check_same_ring(N)
    rel = M.relations
    ctx = OracleContext(M.ring, max(M.gen_degs + rel.col_degs, default=0) + hi)
    rows = [[((j, m), x) for j, entry in enumerate(row) if entry for m, x in entry.terms.items()]
            for row in rel.entries]
    out = {}
    for d in range(lo, hi + 1):
        sources = [(a + d, terms) for a, terms in zip(M.gen_degs, rows)]
        dim = sum(ctx.value_space(N, e).quotient_dim for e, _ in sources)
        out[d] = dim - _induced_rank(ctx, N, sources, [b + d for b in rel.col_degs])
    return out


def _apply(psi: PolyMatrix, vec: dict):
    """psi times a {(source pos, mono): coeff} vector, as ((target pos,
    mono), coeff) terms for ``OracleContext.vector`` to sum."""
    for (j, mono), x in vec.items():
        for i in range(psi.nrows):
            poly = psi.entries[i][j]
            if poly:
                for m, y in poly.terms.items():
                    yield (i, mono_mul(m, mono)), x * y


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
        tgt = ctx.slice(target.gen_degs, d)
        images = [tgt.vector(_apply(psi, vec)) for deg, vec in relations if deg == d]
        if any(tgt_q.reduce_columns(images)):
            raise IncompatibleOperandsError(
                f"map does not carry the degree-{d} source relations into the target's")
        # one column per basis element of the source's degree-d piece
        coords_src = ctx.slice(source.gen_degs, d).coords
        cols = [tgt.vector(_apply(psi, {coords_src[c]: ctx.one})) for c in src_q.nonpivots]
        A_red = tgt_q.reduce_columns(cols)
        rank_ind = len(EchelonAccumulator(ctx.pr.field, tgt_q.dim).add(A_red))
        ker[d] = src_q.quotient_dim - rank_ind
        coker[d] = tgt_q.quotient_dim - rank_ind
    return ker, coker
