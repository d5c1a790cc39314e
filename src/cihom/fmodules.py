"""Finitely presented graded modules and module-level predicates.

A module is a cokernel presentation: generator degrees plus a relation matrix
whose columns are homogeneous relations (entries are stored as ambient-ring
polynomials and read modulo the quotient ideal).  The derived data,
minimal form, one Hilbert series per presentation (Hilbert function,
dimension, length), depth via the finite ambient resolution, Serre conditions
via Ext codimensions, torsion-freeness via the evaluation map on the dual's
generators and reflexivity via the level-two depth condition (these and the
maximal Cohen-Macaulay test refuse a nonzero module of dimension below dim R
from its Hilbert series first, with nothing built), free loci
and rank profiles, all live here.  Presentations are immutable; cached derived
values are computed once.  The two Kronecker shapes of a relation matrix,
``kron_identity`` (A (x) 1) and ``identity_kron`` (1 (x) B), build the tensor
presentation coker(A (x) 1 | 1 (x) B), the ambient presentation and the terms
of the Tor and Ext complexes.  The ambient presentation of a minimal
presentation is built minimal from it: its relations are kept and only the
quotient columns are tested, so depth reads an S-resolution with no second
greedy pass over the relations.
"""

from __future__ import annotations

import itertools

from .polynomials import (
    GradedViolationError,
    IncompatibleOperandsError,
    InvariantError,
    PolyRing,
    Polynomial,
)
from .groebner import (
    FreeModule,
    minimal_generator_indices,
    relation_basis,
    syzygy_generators,
)
from .rings import (INF, RingPresentation, add_numerator, dimension_and_multiplicity,
                    encode_infinite, hilbert_values, module_numerator)


def _entry_degree(p: Polynomial, i: int, j: int):
    """Degree of the nonzero matrix entry p at (i, j); an inhomogeneous entry
    raises GradedViolationError naming its place and its term degrees."""
    try:
        return p.degree()
    except GradedViolationError:
        raise GradedViolationError(
            f"entry ({i},{j}) = {p} is inhomogeneous: "
            f"degrees {sorted({sum(m) for m in p.terms})}") from None


class PolyMatrix:
    """Homogeneous matrix between graded free modules.

    ``row_degs`` are the generator degrees of the target, ``col_degs`` of the
    source; entry (i, j) is zero or homogeneous of degree
    col_degs[j] - row_degs[i].  The constructors do not check this;
    ``check_graded`` does, once for each ``ModulePresentation``.  A column
    is a tuple of polynomials, one per row: ``columns`` hands them out, as
    the Groebner engine takes them, and ``from_columns`` takes the engine's
    columns back.
    """

    __slots__ = ("poly_ring", "row_degs", "col_degs", "entries")

    def __init__(self, poly_ring: PolyRing, row_degs, col_degs, entries):
        self.poly_ring = poly_ring
        self.row_degs = tuple(row_degs)
        self.col_degs = tuple(col_degs)
        self.entries = [list(row) for row in entries]
        if len(self.entries) != len(self.row_degs):
            raise ValueError("row count does not match row_degs")
        for row in self.entries:
            if len(row) != len(self.col_degs):
                raise ValueError("column count does not match col_degs")

    def check_graded(self):
        """Raise GradedViolationError unless every entry (i, j) is zero or
        homogeneous of degree col_degs[j] - row_degs[i]; the message names
        the first entry that is not."""
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                if not p:
                    continue
                want = self.col_degs[j] - self.row_degs[i]
                deg = _entry_degree(p, i, j)
                if deg != want:
                    raise GradedViolationError(
                        f"entry ({i},{j}) = {p} has degree {deg}, not {want}")

    @property
    def nrows(self) -> int:
        return len(self.row_degs)

    @property
    def ncols(self) -> int:
        return len(self.col_degs)

    @classmethod
    def zero(cls, poly_ring, row_degs, col_degs):
        z = poly_ring.zero()
        return cls(poly_ring, row_degs, col_degs, [[z] * len(col_degs) for _ in row_degs])

    @classmethod
    def identity(cls, poly_ring, degs):
        one = poly_ring.one()
        z = poly_ring.zero()
        n = len(degs)
        return cls(poly_ring, degs, degs,
                   [[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, poly_ring, row_degs, columns, col_degs):
        """The matrix with the given columns, one polynomial per row each;
        IncompatibleOperandsError for a column of another length."""
        for col in columns:
            if len(col) != len(row_degs):
                raise IncompatibleOperandsError(
                    f"column with {len(col)} entries for a matrix with {len(row_degs)} rows")
        return cls(poly_ring, row_degs, col_degs,
                   [[col[i] for col in columns] for i in range(len(row_degs))])

    def columns(self) -> list:
        """The columns, each a tuple of polynomials, one per row."""
        return list(zip(*self.entries)) if self.entries else [()] * self.ncols

    def transpose(self) -> "PolyMatrix":
        ents = [[self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return PolyMatrix(self.poly_ring, tuple(-d for d in self.col_degs),
                          tuple(-d for d in self.row_degs), ents)

    def kron_identity(self, degs) -> "PolyMatrix":
        """self tensor the identity on R^degs: entry (i, j) sits at rows
        i * n + k and columns j * n + k, twisted by degs[k] (n = len(degs))."""
        n = len(degs)
        z = self.poly_ring.zero()
        rows = tuple(rd + d for rd in self.row_degs for d in degs)
        cols = tuple(cd + d for cd in self.col_degs for d in degs)
        ents = [[z] * len(cols) for _ in rows]
        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                if p:
                    for k in range(n):
                        ents[i * n + k][j * n + k] = p
        return PolyMatrix(self.poly_ring, rows, cols, ents)

    def identity_kron(self, degs) -> "PolyMatrix":
        """The identity on R^degs tensor self: one copy of self per degree,
        twisted by that degree, down the diagonal."""
        nr, nc = self.nrows, self.ncols
        z = self.poly_ring.zero()
        rows = tuple(d + rd for d in degs for rd in self.row_degs)
        cols = tuple(d + cd for d in degs for cd in self.col_degs)
        ents = [[z] * len(cols) for _ in rows]
        for t in range(len(degs)):
            for i, row in enumerate(self.entries):
                for j, p in enumerate(row):
                    if p:
                        ents[t * nr + i][t * nc + j] = p
        return PolyMatrix(self.poly_ring, rows, cols, ents)

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.row_degs != other.row_degs:
            raise IncompatibleOperandsError("hstack row degree mismatch")
        ents = [self.entries[i] + other.entries[i] for i in range(self.nrows)]
        return PolyMatrix(self.poly_ring, self.row_degs, self.col_degs + other.col_degs, ents)

    def minors(self, size: int):
        """All size x size minors (row and column subsets), as polynomials."""
        if size == 0:
            return [self.poly_ring.one()]
        if size > self.nrows or size > self.ncols:
            return []
        out = []
        for rows in itertools.combinations(range(self.nrows), size):
            for cols in itertools.combinations(range(self.ncols), size):
                out.append(self._det(rows, cols))
        return out

    def _det(self, rows, cols) -> Polynomial:
        if len(rows) == 1:
            return self.entries[rows[0]][cols[0]]
        acc = self.poly_ring.zero()
        sub_rows = rows[1:]
        for t, j in enumerate(cols):
            a = self.entries[rows[0]][j]
            if not a:
                continue
            rest = cols[:t] + cols[t + 1:]
            minor = self._det(sub_rows, rest)
            if not minor:
                continue
            term = a * minor
            acc = acc + (term if t % 2 == 0 else -term)
        return acc

    def text_rows(self):
        return [[p.text() for p in row] for row in self.entries]

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols}, rows={list(self.row_degs)}, cols={list(self.col_degs)})"


class ModulePresentation:
    """A finitely presented graded module over a RingPresentation.

    gen_degs are the degrees of the generators; ``relations`` is the
    homogeneous relation matrix (rows = generator components, columns =
    relations).  The zero module is the empty-generator presentation.
    Building one checks the grading of ``relations``.
    """

    __slots__ = ("ring", "gen_degs", "relations", "label",
                 "_minimal", "_hf_num", "_basis", "_ambient_pres", "_res_cache",
                 "_ext_dims", "_dual", "_torsion_free", "_nonfree_entry")

    def __init__(self, ring: RingPresentation, gen_degs, relations: PolyMatrix,
                 label="M"):
        self.ring = ring
        self.gen_degs = tuple(gen_degs)
        if relations.row_degs != self.gen_degs:
            raise ValueError("relation matrix rows must match generator degrees")
        relations.check_graded()
        self.relations = relations
        self.label = label
        self._minimal = None
        self._hf_num = None
        self._basis = None
        self._ambient_pres = None
        self._res_cache = None
        self._ext_dims = None
        self._dual = None
        self._torsion_free = None
        self._nonfree_entry = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_relations(cls, ring: RingPresentation, gen_degs, columns, label="M"):
        """columns: lists of polynomials (one entry per generator).  A
        column's degree is read from its first nonzero entry; the
        presentation checks the others."""
        col_degs = [next((_entry_degree(p, i, j) + d
                          for i, (p, d) in enumerate(zip(col, gen_degs)) if p),
                         min(gen_degs, default=0)) for j, col in enumerate(columns)]
        ents = [[col[i] for col in columns] for i in range(len(gen_degs))]
        mat = PolyMatrix(ring.poly_ring, gen_degs, col_degs, ents)
        return cls(ring, gen_degs, mat, label=label)

    @classmethod
    def free(cls, ring: RingPresentation, gen_degs, label="F"):
        mat = PolyMatrix.zero(ring.poly_ring, gen_degs, ())
        return cls(ring, gen_degs, mat, label=label)

    @classmethod
    def zero(cls, ring: RingPresentation, label="0"):
        return cls.free(ring, (), label=label)

    @classmethod
    def quotient_by_ideal(cls, ring: RingPresentation, polys, label="M"):
        """R / (polys): cyclic module with the given homogeneous relations."""
        return cls.from_relations(ring, (0,), [[p] for p in polys], label=label)

    # -- basic structure --------------------------------------------------------

    @property
    def n_gens(self) -> int:
        return len(self.gen_degs)

    @property
    def n_rels(self) -> int:
        return self.relations.ncols

    def is_zero_module(self) -> bool:
        return self.minimalize().n_gens == 0

    def same_ring(self, other: "ModulePresentation") -> bool:
        return self.ring.same_ring(other.ring)

    def check_same_ring(self, other: "ModulePresentation"):
        if not self.same_ring(other):
            raise IncompatibleOperandsError(
                f"modules over different rings: {self.ring.label} vs {other.ring.label}")

    # -- minimalization ----------------------------------------------------------

    def minimalize(self) -> "ModulePresentation":
        """Isomorphic presentation with no unit entries and irredundant columns.

        Unit (nonzero constant) entries are removed by row/column elimination;
        surviving entries are reduced modulo the quotient ideal; zero and
        redundant relation columns are dropped (graded Nakayama).  Preserves
        the graded Hilbert function exactly.
        """
        if self._minimal is not None:
            return self._minimal
        ring = self.ring
        field = ring.field
        row_degs = list(self.gen_degs)
        col_degs = list(self.relations.col_degs)
        ents = [[ring.reduce(p) if p else p for p in row] for row in self.relations.entries]

        def find_unit():
            for i in range(len(row_degs)):
                for j in range(len(col_degs)):
                    p = ents[i][j]
                    if p and p.is_constant():
                        return i, j
            return None

        while True:
            hit = find_unit()
            if hit is None:
                break
            i, j = hit
            pivot = ents[i][j].constant_value()
            pinv = field.inv(pivot)
            for jj in range(len(col_degs)):
                if jj == j:
                    continue
                factor = ents[i][jj]
                if not factor:
                    continue
                scale = factor.scale(pinv)
                for ii in range(len(row_degs)):
                    if ii == i:
                        continue
                    if ents[ii][j]:
                        p = ents[ii][jj] - ents[ii][j] * scale
                        ents[ii][jj] = ring.reduce(p) if p else p
            del row_degs[i]
            del col_degs[j]
            ents.pop(i)
            for row in ents:
                row.pop(j)

        # drop zero columns
        keep = [j for j in range(len(col_degs)) if any(ents[i][j] for i in range(len(row_degs)))]
        col_degs = [col_degs[j] for j in keep]
        ents = [[row[j] for j in keep] for row in ents]

        # drop redundant relation columns; the greedy pass's basis spans the
        # kept relations, so the result's hilbert_numerator reads it
        basis = None
        if col_degs:
            free = FreeModule(ring.poly_ring, tuple(row_degs))
            basis = relation_basis(free, ring.quotient_gens)
            alive = minimal_generator_indices(list(zip(*ents)), col_degs, free, basis=basis)
            col_degs = [col_degs[j] for j in alive]
            ents = [[row[j] for j in alive] for row in ents]

        mat = PolyMatrix(ring.poly_ring, tuple(row_degs), tuple(col_degs), ents)
        result = ModulePresentation(ring, tuple(row_degs), mat, label=self.label)
        result._basis = basis
        result._minimal = result
        self._minimal = result
        return result

    # -- ambient (S-level) presentation -------------------------------------------

    def ambient_presentation(self) -> "ModulePresentation":
        """The same module viewed over the ambient ring S (``ring.ambient()``):
        the quotient relations f_k e_j, the block (f_1 .. f_c) (x) 1, appended
        as columns.

        On a minimal presentation this is built minimal, as ``minimalize``
        of the full one would give it.  Every column of the relations A is
        kept over S: the greedy pass keeps a column unless it lies in the
        span of the columns tested before it, and a column of A lies outside
        the span of the other columns of A plus (f) S^r (graded Nakayama over
        R), which contains that span.  So only the quotient columns are
        tested, modulo A (``minimal_generator_indices``), in the (degree,
        index) order of the full pass; A's entries are reduced over R and
        reduction over S is the identity.  The result is its own minimal
        presentation and keeps no greedy basis.
        """
        if self._ambient_pres is None:
            ring = self.ring
            if ring.is_ambient:
                self._ambient_pres = self
            else:
                pr = ring.poly_ring
                gens = ring.quotient_gens
                row = PolyMatrix(pr, (0,), tuple(f.degree() for f in gens), [list(gens)])
                quot = row.kron_identity(self.gen_degs)
                minimal = self._minimal is self
                if minimal and quot.ncols:
                    cols = quot.columns()
                    alive = minimal_generator_indices(cols, quot.col_degs,
                                                      FreeModule(pr, self.gen_degs),
                                                      relations=self.relations.columns())
                    quot = PolyMatrix.from_columns(pr, self.gen_degs, [cols[j] for j in alive],
                                                   [quot.col_degs[j] for j in alive])
                amb = ModulePresentation(ring.ambient(), self.gen_degs,
                                         self.relations.hstack(quot), label=f"{self.label}|S")
                if minimal:
                    amb._minimal = amb
                self._ambient_pres = amb
        return self._ambient_pres

    # -- Hilbert series ---------------------------------------------------------------

    def hilbert_numerator(self) -> dict:
        """Numerator K of the Hilbert series K(t) / (1 - t)^n (n ambient
        variables), computed once from the lead terms of a Groebner basis
        of the relations (``initial_terms()``, read by
        ``rings.module_numerator``), which is not interreduced.  A
        presentation made by ``minimalize`` drains the basis its greedy pass
        grew, which spans its relations and the quotient columns, and then
        drops it; any other builds ``relation_basis`` of its relations.
        """
        if self._hf_num is None:
            basis = self._basis or relation_basis(
                FreeModule(self.ring.poly_ring, self.gen_degs), self.ring.quotient_gens,
                self.relations.columns())
            self._hf_num = module_numerator(self.gen_degs, basis.initial_terms())
            self._basis = None
        return self._hf_num

    def hilbert_function(self, dmax: int, dmin: int | None = None) -> dict:
        """dim_k of each graded piece for dmin..dmax (dmin defaults to the
        smallest generator degree; empty modules give all zeros)."""
        if dmin is None:
            dmin = min(self.gen_degs) if self.gen_degs else 0
        return hilbert_values(self.hilbert_numerator(), self.ring.poly_ring.nvars, dmin, dmax)

    # -- tensor ------------------------------------------------------------------

    def tensor(self, other: "ModulePresentation") -> "ModulePresentation":
        """Standard presentation coker(A (x) 1 | 1 (x) B) of the tensor product
        over the ring, A and B the two relation matrices."""
        self.check_same_ring(other)
        mat = self.relations.kron_identity(other.gen_degs).hstack(
            other.relations.identity_kron(self.gen_degs))
        return ModulePresentation(self.ring, mat.row_degs, mat,
                                  label=f"{self.label}(x){other.label}")

    # -- dual and torsion ----------------------------------------------------------

    def _dual_cycles(self):
        """Hom(M, R) as the minimal cycles of A^T, A the relations of the
        minimal presentation, in its dual coordinates R^(-gen_degs) (the
        identity columns when M is free): the generator half of the dual,
        computed once and kept on the minimal presentation, so ``dual``,
        ``is_torsion_free`` and ``pushforward`` share it."""
        M = self.minimalize()
        if M._dual is None:
            from .homology import minimal_cycles
            A = M.relations
            M._dual = minimal_cycles(M.ring, tuple(-d for d in M.gen_degs),
                                     A.transpose() if A.ncols else None, None, None, None,
                                     label=f"{M.label}*")
        return M._dual

    def dual_generators(self) -> PolyMatrix:
        """Generators of Hom(M, R) inside the dual coordinates of the
        minimal presentation's generator space: the matrix whose rows have
        its degrees -gen_degs and whose columns are a minimal set of dual
        generators."""
        cycles = self._dual_cycles()
        return PolyMatrix.from_columns(self.ring.poly_ring, cycles.free.gen_degs,
                                       cycles.columns, cycles.gen_degs)

    def dual(self) -> "ModulePresentation":
        """Hom(M, R) presented as a cokernel on the dual generators, by their
        syzygies (the relation half of ``_dual_cycles``); shifts are negated."""
        return self._dual_cycles().presentation()

    def _dual_is_zero(self) -> bool:
        """M* = 0: dim M < dim R (``_below_ring_dimension``), read with no
        dual built, or no dual generators.  A nonzero such M is its own
        torsion witness."""
        M = self.minimalize()
        return M._below_ring_dimension() or not M._dual_cycles().gen_degs

    def is_torsion_free(self) -> bool:
        """Whether M -> M** is injective, over a certified complete
        intersection (a Gorenstein ring); decided once per minimal
        presentation.

        The kernel of M -> M** is the kernel of the evaluation map
        u: M -> R^m, x -> (phi_1(x), .., phi_m(x)), the phi_k a minimal
        generating set of M* (``dual_generators``), because M** embeds in
        (R^m)* = R^m.  So M is torsion-free when u is injective, that is
        when HS(ker u) = HS(M) + HS(coker u) - HS(R^m) is zero (rank
        counting in each degree: ``homology._ResolutionComplex.numerator``'s
        identity with no incoming map), HS(R^m) being the sum of t^a HS(R)
        over the generator degrees a of R^m; no cycle, double dual or
        relation is built.  M = 0 is torsion-free; M* = 0 with M nonzero is
        not (``_dual_is_zero``).  Over a Gorenstein ring torsion-free is the
        depth condition (S_1) and reflexive is (S_2) (Evans and Griffith,
        Syzygies, 1985, Thm 3.8), which ``satisfies_serre(2)`` decides.
        """
        self.ring.require_certified()
        M = self.minimalize()
        if M._torsion_free is None:
            torsion_free = M.n_gens == 0
            if M.n_gens and not M._dual_is_zero():   # HS(ker u) is zero
                u = M.dual_generators().transpose()
                num = add_numerator(dict(M.hilbert_numerator()),
                                    ModulePresentation(M.ring, u.row_degs, u).hilbert_numerator())
                ring_num = module_numerator((0,), M.ring.ideal_gb.lead_terms)
                for a in u.row_degs:
                    add_numerator(num, ring_num, a, sign=-1)
                torsion_free = not num
            M._torsion_free = torsion_free   # kept only once decided
        return M._torsion_free

    # -- numerical profile -------------------------------------------------------------

    def fitting_ideal(self, r: int):
        """Generators of the r-th Fitting ideal (minors of size n_gens - r)."""
        M = self.minimalize()
        size = M.n_gens - r
        if size <= 0:
            return [self.ring.poly_ring.one()]
        return [p for p in M.relations.minors(size) if p]

    def dimension(self) -> float:
        """Krull dimension of the module, from its Hilbert series (-inf for
        the zero module)."""
        return dimension_and_multiplicity(self.minimalize().hilbert_numerator(),
                                          self.ring.poly_ring.nvars)[0]

    def _below_ring_dimension(self) -> bool:
        """M != 0 and dim M < dim R, read from the cached Hilbert series.

        The depth-type verdicts check this before they build an ambient
        resolution, an Ext module or a dual, because every one of them
        fails on such a module:
        - depth M <= dim M < dim R, so M is not maximal Cohen-Macaulay.
        - R = S/(f) is a graded complete intersection, so it is
          Cohen-Macaulay and unmixed: every associated prime q of R has
          dim R/q = dim R.  A minimal prime p of Supp M has dim R/p <= dim M
          < dim R, so p is not associated to R: depth R_p = height p >= 1,
          while depth M_p = 0.  So (S_n) fails for every n >= 1 (Evans and
          Griffith, Syzygies, 1985).
        - M* = Hom(M, R) = 0: the image of a nonzero map M -> R is a nonzero
          ideal I of R, whose associated primes are associated to R, so
          dim I = dim R, although I is a quotient of M.  So M, being nonzero,
          is not torsion-free (``is_torsion_free``).
        The zero module fails none of them, so it is excluded.
        """
        M = self.minimalize()
        return M.n_gens > 0 and M.dimension() < self.ring.dimension()

    def projective_dimension_ambient(self) -> int:
        """pd over the ambient regular ring (finite by the syzygy theorem)."""
        from .resolutions import resolve
        amb = self.ambient_presentation()
        res = resolve(amb, steps=self.ring.poly_ring.nvars + 1)
        if not res.terminated:
            raise InvariantError("ambient resolution must terminate within dim S steps")
        return res.length()

    def depth(self) -> float:
        """dim S - pd_S(M), the Auslander-Buchsbaum value; inf for zero.

        A nonzero module of dimension 0 has depth 0 (depth M <= dim M), read
        from its Hilbert series with no ambient resolution.
        """
        M = self.minimalize()
        if M.n_gens == 0:
            return INF
        if M.dimension() == 0:
            return 0
        return self.ring.poly_ring.nvars - M.projective_dimension_ambient()

    def length(self) -> float:
        """The Hilbert series at t = 1 when dim <= 0, otherwise inf."""
        dim, multiplicity = dimension_and_multiplicity(
            self.minimalize().hilbert_numerator(), self.ring.poly_ring.nvars)
        return INF if dim > 0 else multiplicity

    def module_profile(self) -> dict:
        """dim, depth, length and minimal generator count, infinities encoded."""
        M = self.minimalize()
        return {"dim": encode_infinite(M.dimension()), "depth": encode_infinite(M.depth()),
                "length": encode_infinite(M.length()), "betti0": M.n_gens}

    def is_cohen_macaulay(self) -> bool:
        M = self.minimalize()
        if M.n_gens == 0:
            return True
        return M.depth() == M.dimension()

    def is_maximal_cohen_macaulay(self) -> bool:
        """Nonzero with depth M = dim R; refused with no depth computed when
        dim M < dim R, since depth M <= dim M."""
        M = self.minimalize()
        return (M.n_gens > 0 and not M._below_ring_dimension()
                and M.depth() == self.ring.dimension())

    # -- Serre conditions -----------------------------------------------------------

    def serre_condition(self, n: int) -> dict:
        """Depth condition at level n, via Ext codimensions over the ambient.

        Holds iff dim Ext^j_S(M, S) <= dim S - j - n for every j >= codim+1;
        levels j <= codim are forced.  Returns the verdict plus the failing
        level and support dimension as a witness.  The Ext dimensions do not
        depend on n: they are computed once per minimal presentation and
        kept in its ``_ext_dims`` slot, so every level after the first only
        compares numbers.

        A nonzero M with dim M < dim R gets its witness with no Ext module
        built.  S is regular, so Cohen-Macaulay, and M has grade
        g = dim S - dim M over S: by Rees' theorem Ext^j_S(M, S) = 0 for
        j < g and Ext^g_S(M, S) != 0.  Its dimension is dim M: at a prime q
        of height < j, pd M_q <= height q kills Ext^j_S(M, S)_q, so
        dim Ext^j_S(M, S) <= dim S - j; and at a minimal prime p of Supp M
        with dim S/p = dim M, M_p has finite length over the regular ring S_p
        of dimension g, so Ext^g_S(M, S)_p != 0.  Here g > dim S - dim R =
        codim, and dim M > dim S - g - n for every n >= 1, so the loop below
        stops first at j = g, with support_dim = dim M and bound dim M - n.
        """
        if n < 1:
            raise ValueError("serre level must be a positive integer")
        self.ring.require_certified()
        M = self.minimalize()
        if M.n_gens == 0:
            return {"holds": True, "level": n, "witness": None}
        dS = self.ring.poly_ring.nvars
        if M._below_ring_dimension():
            dim = M.dimension()
            return {"holds": False, "level": n,
                    "witness": {"j": dS - dim, "support_dim": dim, "bound": dim - n}}
        if M._ext_dims is None:
            from .homology import ext_ambient_dimensions
            M._ext_dims = ext_ambient_dimensions(M)
        dims = M._ext_dims
        c = self.ring.codim
        for j, dj in dims.items():
            if j <= c:
                continue
            if dj > dS - j - n:
                return {"holds": False, "level": n,
                        "witness": {"j": j, "support_dim": dj,
                                    "bound": dS - j - n}}
        return {"holds": True, "level": n, "witness": None}

    def satisfies_serre(self, n: int) -> bool:
        """``serre_condition(n)["holds"]``, rejecting first on dimension,
        then on depth alone.

        A nonzero M with dim M < dim R fails the condition for every n >= 1
        (``_below_ring_dimension``), so neither its depth nor an Ext
        dimension is computed.  A nonzero M with depth M < min(n, dim R)
        fails it too, so no Ext dimension is computed for it.  Proof: let
        p = pd_S M, so depth M = dim S - p.  Ext^p_S(M, S) is nonzero (the
        last map of a minimal resolution has entries in the maximal ideal),
        so its support has dimension >= 0.  If p > codim, level j = p of the
        condition needs 0 <= dim S - p - n, that is depth M >= n.  If
        p <= codim, then depth M >= dim S - codim = dim R.  The depth reads
        the same ambient resolution that ``ext_ambient_dimensions`` builds.
        """
        if n < 1:
            raise ValueError("serre level must be a positive integer")
        self.ring.require_certified()
        M = self.minimalize()
        if M._below_ring_dimension():
            return False
        if M.n_gens and M.depth() < min(n, self.ring.dimension()):
            return False
        return M.serre_condition(n)["holds"]

    # -- free locus -------------------------------------------------------------------

    def first_syzygy(self) -> "ModulePresentation":
        """syz^1(M) = image of the first differential, as a cokernel."""
        from .resolutions import resolve
        res = resolve(self.minimalize(), steps=2)
        return res.syzygy_module(1)

    def _nonfree_locus_entry(self):
        """Ext^1(M, syz^1 M) as a ``homology.HomologyEntry``: its support is
        the non-free locus, so it vanishes exactly when M is free
        (projective = free in the graded local setting).  Built once and
        kept on the minimal presentation."""
        M = self.minimalize()
        if M._nonfree_entry is None:
            from .homology import ext_profile
            M._nonfree_entry = ext_profile(M, M.first_syzygy(), 1, 0)[0]
        return M._nonfree_entry

    def nonfree_locus_module(self) -> "ModulePresentation":
        """The Ext^1 entry's minimal presentation."""
        return self._nonfree_locus_entry().presentation

    def nonfree_locus_codim(self) -> float:
        """Codimension in Spec R of the non-free locus, read off the Ext^1
        entry's Hilbert numerator with no module built; inf when M is free."""
        entry = self._nonfree_locus_entry()
        return INF if entry.vanishes else self.ring.dimension() - entry.dim

    def is_free(self) -> bool:
        return self.minimalize().n_rels == 0

    def free_on_height(self, n: int) -> bool:
        """Locally free at every prime of height <= n."""
        return self.nonfree_locus_codim() >= n + 1

    # -- rank profile --------------------------------------------------------------------

    def rank_profile(self) -> dict:
        """Ranks at the minimal primes and whether they are constant.

        rank at q = least r with Fitt_r not contained in q; the module is
        locally free there iff additionally Fitt_{r-1} localizes to zero,
        tested through annihilator colons.
        """
        primes = self.ring.minimal_primes()
        M = self.minimalize()
        results = []
        ranks = []
        for q in primes:
            r = None
            for cand in range(0, M.n_gens + 1):
                gens = M.fitting_ideal(cand)
                if any(not q.contains(g) for g in gens):
                    r = cand
                    break
            if r is None:
                r = M.n_gens  # Fitt_{n_gens} = (1) always escapes a proper prime
            locally_free = self._fitting_localizes_to_zero(r - 1, q)
            ranks.append(r)
            results.append({"prime": q.label(), "rank": r, "locally_free": locally_free})
        constant = len(set(ranks)) <= 1 and all(e["locally_free"] for e in results)
        return {"ranks": results, "constant_rank": constant}

    def _fitting_localizes_to_zero(self, r: int, q) -> bool:
        """(Fitt_r)_q = 0: every generator is killed by something outside q."""
        if r < 0:
            return True
        M = self.minimalize()
        gens = [g for g in M.fitting_ideal(r) if g]
        if not gens:
            return True
        if any(p.is_constant() and p for p in gens):
            return False
        free = FreeModule(self.ring.poly_ring, (0,))
        for g in gens:
            gq = self.ring.reduce(g)
            if gq.is_zero():
                continue
            syz, _ = syzygy_generators([(gq,)], [gq.degree()], free, self.ring)
            ann = [s[0] for s in syz]
            if not any(not q.contains(a) for a in ann):
                return False
        return True

    # -- misc -----------------------------------------------------------------------------

    def twist(self, t: int) -> "ModulePresentation":
        """Shift all degrees by t (M(-t) with generator degrees raised by t)."""
        gen_degs = tuple(d + t for d in self.gen_degs)
        mat = PolyMatrix(self.ring.poly_ring, gen_degs,
                         tuple(d + t for d in self.relations.col_degs), self.relations.entries)
        return ModulePresentation(self.ring, gen_degs, mat, label=self.label)

    def describe(self) -> dict:
        M = self.minimalize()
        return {
            "label": self.label,
            "ring": self.ring.label,
            "gen_degs": list(M.gen_degs),
            "relations": M.relations.text_rows(),
            "rel_degs": list(M.relations.col_degs),
        }

    def __repr__(self):
        return (f"ModulePresentation({self.label}: {self.n_gens} gens, "
                f"{self.n_rels} relations over {self.ring.label})")


def equal_hilbert_functions(a: ModulePresentation, b: ModulePresentation) -> bool:
    """Equality of the graded Hilbert functions of two modules over one
    ambient ring (iso fingerprint), in every degree.

    H is zero below the lowest degree of its series' numerator K, and the
    coefficient of t^e in K = HS(t) (1 - t)^n reads only H(e - n..e), so the
    values from the lowest through the highest degree of either numerator
    decide it; they come from the cached numerators, with no new basis.
    """
    degs = [*a.hilbert_numerator(), *b.hilbert_numerator()]
    if not degs:
        return True
    lo, hi = min(degs), max(degs)
    return a.hilbert_function(hi, lo) == b.hilbert_function(hi, lo)
