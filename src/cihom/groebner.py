"""Buchberger Groebner bases for submodules of graded free modules.

Works over the ambient polynomial ring S and over quotients R = S/(f1..fc):
quotient-ring computations augment the generator set with f_k*e_j columns and
project them out afterwards, so one engine serves both rings.

Syzygies, membership and lifts all run through one construction: each input
column j gets a tracking coordinate e_j in an extension of the free module,
ordered so that every main-block term dominates every tracking term.  A
Groebner basis of the tracked columns then yields, in its zero-main-block
elements, generators of the syzygy module of the inputs, and reducing a
tracked target against it decides membership and produces an explicit lift.
"""

from __future__ import annotations

import heapq

from .polynomials import (
    GradedViolationError,
    IncompatibleOperandsError,
    PolyRing,
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class FreeModule:
    """A graded free module over a PolyRing with explicit generator degrees."""

    __slots__ = ("ring", "gen_degs")

    def __init__(self, ring: PolyRing, gen_degs):
        self.ring = ring
        self.gen_degs = tuple(gen_degs)

    @property
    def rank(self) -> int:
        return len(self.gen_degs)

    def zero(self) -> "Element":
        return Element(self, {})

    def basis_element(self, i: int) -> "Element":
        unit = (0,) * self.ring.nvars
        return Element(self, {(i, unit): self.ring.field.one()})

    def from_polys(self, polys) -> "Element":
        """Element with the given polynomial in each component."""
        terms = {}
        field = self.ring.field
        for i, p in enumerate(polys):
            if p is None:
                continue
            for m, c in p.terms.items():
                if not field.is_zero(c):
                    terms[(i, m)] = c
        return Element(self, terms)

    def __eq__(self, other):
        return (isinstance(other, FreeModule) and self.ring == other.ring
                and self.gen_degs == other.gen_degs)

    def __hash__(self):
        return hash((self.ring, self.gen_degs))

    def __repr__(self):
        return f"FreeModule(rank={self.rank}, degs={list(self.gen_degs)})"


class Element:
    """Element of a graded free module: dict of (position, monomial) -> coeff."""

    __slots__ = ("module", "terms", "_lead")

    def __init__(self, module: FreeModule, terms: dict):
        self.module = module
        self.terms = terms
        self._lead = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Common degree of all terms (None for zero); raises if mixed."""
        degs = {mono_degree(m) + self.module.gen_degs[p] for (p, m) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise GradedViolationError(f"inhomogeneous module element: degrees {sorted(degs)}")
        return next(iter(degs))

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) + self.module.gen_degs[p] for (p, m) in self.terms}
        return len(degs) <= 1

    def component(self, i: int) -> Polynomial:
        ring = self.module.ring
        return Polynomial(ring, {m: c for (p, m), c in self.terms.items() if p == i})

    def components(self):
        return [self.component(i) for i in range(self.module.rank)]

    def add(self, other: "Element") -> "Element":
        field = self.module.ring.field
        res = dict(self.terms)
        for t, c in other.terms.items():
            if t in res:
                s = field.add(res[t], c)
                if field.is_zero(s):
                    del res[t]
                else:
                    res[t] = s
            else:
                res[t] = c
        return Element(self.module, res)

    def sub_scaled(self, other: "Element", mono: tuple, coeff) -> "Element":
        """self - coeff * mono * other, the Buchberger reduction step."""
        field = self.module.ring.field
        res = dict(self.terms)
        for (p, m), c in other.terms.items():
            t = (p, mono_mul(m, mono))
            d = field.mul(c, coeff)
            if t in res:
                s = field.sub(res[t], d)
                if field.is_zero(s):
                    del res[t]
                else:
                    res[t] = s
            else:
                res[t] = field.neg(d)
        return Element(self.module, res)

    def scale(self, coeff) -> "Element":
        field = self.module.ring.field
        if field.is_zero(coeff):
            return Element(self.module, {})
        return Element(self.module, {t: field.mul(c, coeff) for t, c in self.terms.items()})

    def neg(self) -> "Element":
        field = self.module.ring.field
        return Element(self.module, {t: field.neg(c) for t, c in self.terms.items()})

    def mul_term(self, mono: tuple, coeff) -> "Element":
        field = self.module.ring.field
        if field.is_zero(coeff):
            return Element(self.module, {})
        return Element(self.module, {(p, mono_mul(m, mono)): field.mul(c, coeff)
                                     for (p, m), c in self.terms.items()})

    def mul_poly(self, poly: Polynomial) -> "Element":
        out = Element(self.module, {})
        for m, c in poly.terms.items():
            out = out.add(self.mul_term(m, c))
        return out

    def __eq__(self, other):
        return isinstance(other, Element) and self.module == other.module and self.terms == other.terms

    def __hash__(self):
        return hash((self.module, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "(0)"
        return "(" + ", ".join(p.text() for p in self.components()) + ")"


class ModuleOrder:
    """Graded term-over-position order with an optional elimination split.

    Positions below ``split`` form the main block and dominate every tracking
    position.  Within a block terms compare by shifted degree, then the ring
    order on monomials, then by earlier position.  Larger key = larger term.
    Keys are memoized per order instance, so each term's key is built once
    for as long as the order lives.
    """

    __slots__ = ("module", "split", "_keys")

    def __init__(self, module: FreeModule, split: int | None = None):
        self.module = module
        self.split = module.rank if split is None else split
        self._keys: dict = {}

    def key(self, term):
        k = self._keys.get(term)
        if k is None:
            p, m = term
            k = self._keys[term] = (1 if p < self.split else 0,
                                    mono_degree(m) + self.module.gen_degs[p],
                                    self.module.ring.order.key(m), -p)
        return k


def lead_term(e: Element, order: ModuleOrder):
    if e._lead is None:
        e._lead = max(e.terms, key=order.key)
    return e._lead


# heapq's max-heap functions are private before Python 3.14, public from it.
_heapify_max = getattr(heapq, "heapify_max", None) or heapq._heapify_max
_heappop_max = getattr(heapq, "heappop_max", None) or heapq._heappop_max


def _heappush_max(heap: list, item):
    """Push onto a max-heap: append, then sift the new leaf up."""
    heap.append(item)
    pos = len(heap) - 1
    while pos:
        parent = (pos - 1) >> 1
        if not heap[parent] < item:
            break
        heap[pos] = heap[parent]
        pos = parent
    heap[pos] = item


def normal_form(e: Element, basis: list, order: ModuleOrder,
                by_position: dict | None = None) -> Element:
    """Fully reduced remainder of e modulo the basis elements.

    Zero iff e lies in the generated submodule (when basis is a Groebner
    basis); idempotent.  ``by_position`` maps lead position -> list of basis
    indices and is rebuilt when absent.

    The work terms live in a dict changed in place, beside a max-heap of
    (order key, term) pairs, so each term's key is computed once, when the
    term enters the work set.  A popped term missing from the dict was
    cancelled and is skipped; a processed term never comes back, because a
    reduction step only introduces terms below the current lead.
    """
    if by_position is None:
        by_position = {}
        for i, g in enumerate(basis):
            if g:
                by_position.setdefault(lead_term(g, order)[0], []).append(i)
    field = e.module.ring.field
    add, mul, is_zero = field.add, field.mul, field.is_zero
    key = order.key
    work = dict(e.terms)
    heap = [(key(t), t) for t in work]
    _heapify_max(heap)
    remainder: dict = {}
    while heap:
        t = _heappop_max(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue
        pos, mono = t
        reducer = None
        for i in by_position.get(pos, ()):
            g = basis[i]
            glt = lead_term(g, order)
            if mono_divides(glt[1], mono):
                reducer = g
                break
        if reducer is None:
            remainder[t] = c
            continue
        # work -= (c / lc) * shift * reducer; its lead cancels t exactly.
        shift = mono_div(mono, glt[1])
        ncoeff = field.neg(field.div(c, reducer.terms[glt]))
        for rt, rc in reducer.terms.items():
            if rt == glt:
                continue
            u = (rt[0], mono_mul(rt[1], shift))
            d = mul(rc, ncoeff)
            old = work.get(u)
            if old is None:
                work[u] = d
                _heappush_max(heap, (key(u), u))
            else:
                s = add(old, d)
                if is_zero(s):
                    del work[u]
                else:
                    work[u] = s
    return Element(e.module, remainder)


def s_pair(f: Element, g: Element, order: ModuleOrder) -> Element:
    """S-element of two module elements with leading terms in one position."""
    field = f.module.ring.field
    (pf, mf) = lead_term(f, order)
    (pg, mg) = lead_term(g, order)
    if pf != pg:
        raise IncompatibleOperandsError(
            f"S-pair of elements with leads in positions {pf} and {pg}")
    lcm = mono_lcm(mf, mg)
    left = f.mul_term(mono_div(lcm, mf), field.inv(f.terms[(pf, mf)]))
    return left.sub_scaled(g, mono_div(lcm, mg), field.inv(g.terms[(pg, mg)]))


def buchberger(elements: list, order: ModuleOrder, ideal_mode: bool = False) -> list:
    """Reduced Groebner basis of the submodule generated by the elements.

    Inputs must be homogeneous.  Normal selection strategy (minimal shifted
    lcm degree first, deterministic index tie-break), the chain criterion,
    and in ideal_mode (rank-one input, valid only there) the coprime-lead
    criterion.
    """
    basis: list = []
    for e in elements:
        if not e:
            continue
        if not e.is_homogeneous():
            raise GradedViolationError("Groebner input must be homogeneous")
        basis.append(e.scale(e.module.ring.field.inv(e.terms[lead_term(e, order)])))

    by_position: dict = {}
    for i, g in enumerate(basis):
        by_position.setdefault(lead_term(g, order)[0], []).append(i)

    gen_degs = order.module.gen_degs

    def pair_entry(i, j):
        (pi, mi) = lead_term(basis[i], order)
        (pj, mj) = lead_term(basis[j], order)
        if pi != pj:
            return None
        lcm = mono_lcm(mi, mj)
        if ideal_mode and mono_mul(mi, mj) == lcm:
            return None  # coprime leads: S-pair reduces to zero
        return (mono_degree(lcm) + gen_degs[pi], j, i, lcm)

    heap = []
    pending = set()
    for j in range(len(basis)):
        for i in range(j):
            ent = pair_entry(i, j)
            if ent is not None:
                heapq.heappush(heap, ent)
                pending.add((i, j))

    def chain_skip(i, j, lcm):
        # Skip (i, j) when some k divides the lcm and both (i, k), (j, k)
        # have already been handled.
        pos = lead_term(basis[i], order)[0]
        for k in by_position.get(pos, ()):
            if k == i or k == j:
                continue
            mk = lead_term(basis[k], order)[1]
            if mono_divides(mk, lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    return True
        return False

    while heap:
        _, j, i, lcm = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        if chain_skip(i, j, lcm):
            continue
        s = s_pair(basis[i], basis[j], order)
        r = normal_form(s, basis, order, by_position)
        if not r:
            continue
        r = r.scale(r.module.ring.field.inv(r.terms[lead_term(r, order)]))
        new = len(basis)
        basis.append(r)
        by_position.setdefault(lead_term(r, order)[0], []).append(new)
        for k in range(new):
            ent = pair_entry(k, new)
            if ent is not None:
                heapq.heappush(heap, ent)
                pending.add((k, new))

    return interreduce(basis, order)


def interreduce(basis: list, order: ModuleOrder) -> list:
    """Unique reduced basis: minimal lead terms, fully tail-reduced, monic."""
    # Drop elements whose lead is divisible by another element's lead.
    keep = []
    leads = [lead_term(g, order) for g in basis]
    for i, g in enumerate(basis):
        pi, mi = leads[i]
        redundant = False
        for j, _h in enumerate(basis):
            if i == j:
                continue
            pj, mj = leads[j]
            if pj == pi and mono_divides(mj, mi):
                if mj != mi or j < i:
                    redundant = True
                    break
        if not redundant:
            keep.append(g)
    # Tail-reduce each survivor against the others.
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = normal_form(g, others, order)
        if r:
            reduced.append(r.scale(r.module.ring.field.inv(r.terms[lead_term(r, order)])))
    reduced.sort(key=lambda e: order.key(lead_term(e, order)))
    return reduced


class GroebnerBasis:
    """A reduced Groebner basis of a submodule of a graded free module.

    ``quotient_polys`` records the quotient relations that were appended, so
    normal forms decide membership over R = S/(quotient) as well as over S.
    """

    __slots__ = ("module", "order", "generators", "quotient_polys", "reduced_flag",
                 "_by_position", "_lead_monos")

    def __init__(self, module, order, generators, quotient_polys, reduced_flag=True):
        self.module = module
        self.order = order
        self.generators = generators
        self.quotient_polys = tuple(quotient_polys)
        self.reduced_flag = reduced_flag
        self._by_position = {}
        for i, g in enumerate(generators):
            self._by_position.setdefault(lead_term(g, order)[0], []).append(i)
        self._lead_monos = None

    def normal_form(self, e: Element) -> Element:
        if e.module != self.module:
            raise IncompatibleOperandsError("element from a different free module")
        return normal_form(e, self.generators, self.order, self._by_position)

    def reduce_poly(self, poly: Polynomial) -> Polynomial:
        """Normal form of a polynomial modulo a rank-one basis (an ideal).

        Fast path: when no term of ``poly`` is divisible by a lead monomial
        of the basis (the zero polynomial and the empty basis included), the
        normal form is ``poly`` itself and that same object is returned.
        The lead monomials are collected once per basis.
        """
        leads = self._lead_monos
        if leads is None:
            if self.module.rank != 1:
                raise IncompatibleOperandsError(
                    f"polynomial reduction needs a rank-one basis, not rank {self.module.rank}")
            leads = self._lead_monos = tuple(lead_term(g, self.order)[1]
                                             for g in self.generators)
        for mono in poly.terms:
            for lead in leads:
                if mono_divides(lead, mono):
                    return self.normal_form(self.module.from_polys([poly])).component(0)
        return poly

    def contains(self, e: Element) -> bool:
        return not self.normal_form(e)

    def lead_terms(self):
        return [lead_term(g, self.order) for g in self.generators]

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __repr__(self):
        return f"GroebnerBasis({len(self.generators)} elements, rank {self.module.rank})"


def quotient_columns(free: FreeModule, quotient_polys) -> list:
    """The relations f_k * e_j presenting free/quotient over the ambient ring."""
    cols = []
    for f in quotient_polys:
        for j in range(free.rank):
            cols.append(free.basis_element(j).mul_poly(f))
    return cols


def groebner_basis(columns, free: FreeModule, quotient_polys=()) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by the columns.

    Over a quotient ring the f_k * e_j relations are appended internally, so
    ``normal_form(e) == 0`` decides membership over the quotient.
    """
    elems = list(columns) + quotient_columns(free, quotient_polys)
    order = ModuleOrder(free)
    ideal_mode = free.rank == 1 and not quotient_polys
    gens = buchberger(elems, order, ideal_mode=ideal_mode)
    return GroebnerBasis(free, order, gens, quotient_polys)


def tracked_buchberger(inputs: list, order: ModuleOrder, split: int):
    """Groebner basis of the main block plus collected syzygies.

    The inputs stay in the active basis (so every input is trivially
    expressible in it) and only pairs with leads in the main block are
    processed; an S-pair reduction whose main part dies is a syzygy of the
    inputs and is collected instead of fed back.  The collected elements
    generate the full syzygy module: pulled back along the tracking
    coordinates, the S-pair syzygies of a Groebner basis containing the
    inputs generate every relation among the inputs (the chain criterion
    is safe here; the coprime-lead shortcut is not and stays off).
    """
    field = order.module.ring.field
    active: list = []
    collected: list = []
    by_position: dict = {}
    gen_degs = order.module.gen_degs

    def classify(e):
        if lead_term(e, order)[0] >= split:
            collected.append(e)
            return None
        g = e.scale(field.inv(e.terms[lead_term(e, order)]))
        idx = len(active)
        active.append(g)
        by_position.setdefault(lead_term(g, order)[0], []).append(idx)
        return idx

    heap: list = []
    pending: set = set()

    def pair_entry(i, j):
        (pi, mi) = lead_term(active[i], order)
        (pj, mj) = lead_term(active[j], order)
        if pi != pj:
            return None
        lcm = mono_lcm(mi, mj)
        return (mono_degree(lcm) + gen_degs[pi], j, i, lcm)

    def push_pairs(new):
        for k in range(new):
            ent = pair_entry(k, new)
            if ent is not None:
                heapq.heappush(heap, ent)
                pending.add((k, new))

    for e in inputs:
        if not e:
            continue
        if not e.is_homogeneous():
            raise GradedViolationError("Groebner input must be homogeneous")
        idx = classify(e)
        if idx is not None:
            push_pairs(idx)

    def chain_skip(i, j, lcm):
        pos = lead_term(active[i], order)[0]
        for k in by_position.get(pos, ()):
            if k == i or k == j:
                continue
            mk = lead_term(active[k], order)[1]
            if mono_divides(mk, lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    return True
        return False

    while heap:
        _, j, i, lcm = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        if chain_skip(i, j, lcm):
            continue
        s = s_pair(active[i], active[j], order)
        r = normal_form(s, active, order, by_position)
        if not r:
            continue
        idx = classify(r)
        if idx is not None:
            push_pairs(idx)

    return active, collected


class TrackedSubmodule:
    """Column set with tracking coordinates: syzygies, membership, lifts.

    Input columns c_1..c_s of a free module F are extended to (c_j, e_j) in
    F + R^s; quotient relations get tracking coordinates too, which are
    discarded on projection.  The elimination order puts every F-term above
    every tracking term, so the active basis is a Groebner basis of the
    column module (membership and lifts reduce against it) while the
    collected elements' tracking parts generate the syzygy module of the
    inputs over the declared ring.
    """

    __slots__ = ("free", "columns", "col_degs", "quotient_polys", "tracked_module",
                 "order", "active", "collected", "_by_position", "n_cols", "_ideal_gb")

    def __init__(self, columns, col_degs, free: FreeModule, quotient_polys=()):
        self.free = free
        self.columns = list(columns)
        self.col_degs = list(col_degs)
        self.quotient_polys = tuple(quotient_polys)
        if len(self.columns) != len(self.col_degs):
            raise ValueError("columns/col_degs length mismatch")
        for c, d in zip(self.columns, self.col_degs):
            cd = c.degree()
            if cd is not None and cd != d:
                raise GradedViolationError(f"column of degree {cd} declared as degree {d}")
        qcols = quotient_columns(free, quotient_polys)
        qdegs = [c.degree() for c in qcols]
        self.n_cols = len(self.columns)
        all_cols = self.columns + qcols
        all_degs = self.col_degs + qdegs
        ring = free.ring
        self.tracked_module = FreeModule(ring, free.gen_degs + tuple(all_degs))
        self.order = ModuleOrder(self.tracked_module, split=free.rank)
        tracked = []
        unit = (0,) * ring.nvars
        one = ring.field.one()
        for j, col in enumerate(all_cols):
            terms = dict(col.terms)
            terms[(free.rank + j, unit)] = one
            tracked.append(Element(self.tracked_module, terms))
        self.active, self.collected = tracked_buchberger(tracked, self.order, free.rank)
        self._by_position = {}
        for i, g in enumerate(self.active):
            self._by_position.setdefault(lead_term(g, self.order)[0], []).append(i)
        if quotient_polys:
            ideal_free = FreeModule(ring, (0,))
            self._ideal_gb = groebner_basis(
                [ideal_free.from_polys([f]) for f in quotient_polys], ideal_free)
        else:
            self._ideal_gb = None

    def _reduce_coeff(self, poly):
        """Normal form of a coefficient modulo the quotient ideal."""
        if self._ideal_gb is None:
            return poly
        return self._ideal_gb.reduce_poly(poly)

    def _embed(self, e: Element) -> Element:
        terms = {t: c for t, c in e.terms.items()}
        return Element(self.tracked_module, terms)

    def _main_part(self, e: Element) -> Element:
        split = self.free.rank
        return Element(self.free, {t: c for t, c in e.terms.items() if t[0] < split})

    def _tracking_vector(self, e: Element) -> Element:
        """Projection to the tracking coordinates of the original columns,
        with coefficients reduced modulo the quotient ideal."""
        split = self.free.rank
        track = FreeModule(self.free.ring, tuple(self.col_degs))
        terms = {}
        for (p, m), c in e.terms.items():
            if split <= p < split + self.n_cols:
                terms[(p - split, m)] = c
        vec = Element(track, terms)
        if self._ideal_gb is None:
            return vec
        comps = [self._reduce_coeff(vec.component(j)) for j in range(self.n_cols)]
        return track.from_polys(comps)

    def syzygy_elements(self) -> list:
        """Generators of the syzygy module of the columns over the ring."""
        out = []
        seen = set()
        for g in self.collected:
            vec = self._tracking_vector(g)
            if vec:
                key = tuple(sorted(vec.terms.items()))
                if key not in seen:
                    seen.add(key)
                    out.append(vec)
        return out

    def normal_form_main(self, e: Element) -> Element:
        nf = normal_form(self._embed(e), self.active, self.order, self._by_position)
        return self._main_part(nf)

    def contains(self, e: Element) -> bool:
        return not self.normal_form_main(e)

    def lift(self, e: Element):
        """Coefficients x with e = sum x_j * c_j over the ring, or None."""
        nf = normal_form(self._embed(e), self.active, self.order, self._by_position)
        if self._main_part(nf):
            return None
        vec = self._tracking_vector(nf)
        return [vec.component(j).scale(self.free.ring.field.neg(self.free.ring.field.one()))
                for j in range(self.n_cols)]


def syzygy_generators(columns, col_degs, free: FreeModule, quotient_polys=()):
    """Columns generating ker(free^s -> free) of the given columns over the ring.

    Returns (elements of R^s, their degrees); s = len(columns).  Over a
    quotient ring the internal computation appends the f_k * e_j relations
    and projects their coordinates out.
    """
    tracked = TrackedSubmodule(columns, col_degs, free, quotient_polys)
    syz = tracked.syzygy_elements()
    return syz, [s.degree() for s in syz]


class IncrementalModuleGB:
    """A Groebner basis that accepts new generators one at a time.

    Seeds with the quotient relations; ``add`` appends a generator and
    drains the new S-pairs.  Not interreduced (membership only needs the
    Groebner property).
    """

    __slots__ = ("free", "order", "basis", "_by_position", "_heap", "_pending")

    def __init__(self, free: FreeModule, quotient_polys=()):
        self.free = free
        self.order = ModuleOrder(free)
        self.basis = []
        self._by_position = {}
        self._heap = []
        self._pending = set()
        for qc in quotient_columns(free, quotient_polys):
            self._insert(qc)
        self._drain()

    def _insert(self, e: Element):
        if not e:
            return
        g = e.scale(self.free.ring.field.inv(e.terms[lead_term(e, self.order)]))
        idx = len(self.basis)
        self.basis.append(g)
        self._by_position.setdefault(lead_term(g, self.order)[0], []).append(idx)
        gen_degs = self.free.gen_degs
        for k in range(idx):
            (pk, mk) = lead_term(self.basis[k], self.order)
            (pi, mi) = lead_term(g, self.order)
            if pk != pi:
                continue
            lcm = mono_lcm(mk, mi)
            heapq.heappush(self._heap, (mono_degree(lcm) + gen_degs[pi], idx, k, lcm))
            self._pending.add((k, idx))

    def _drain(self):
        while self._heap:
            _, j, i, lcm = heapq.heappop(self._heap)
            if (i, j) not in self._pending:
                continue
            self._pending.discard((i, j))
            pos = lead_term(self.basis[i], self.order)[0]
            skip = False
            for k in self._by_position.get(pos, ()):
                if k in (i, j):
                    continue
                if mono_divides(lead_term(self.basis[k], self.order)[1], lcm):
                    a = (min(i, k), max(i, k))
                    b = (min(j, k), max(j, k))
                    if a not in self._pending and b not in self._pending:
                        skip = True
                        break
            if skip:
                continue
            s = s_pair(self.basis[i], self.basis[j], self.order)
            r = normal_form(s, self.basis, self.order, self._by_position)
            if r:
                self._insert(r)

    def normal_form(self, e: Element) -> Element:
        return normal_form(e, self.basis, self.order, self._by_position)

    def contains(self, e: Element) -> bool:
        return not self.normal_form(e)

    def add(self, e: Element):
        self._insert(e)
        self._drain()


def minimal_generator_indices(columns, col_degs, free: FreeModule, quotient_polys=()):
    """Indices of a minimal generating subset of the given homogeneous columns.

    Greedy pass in weakly increasing degree against an incrementally grown
    Groebner basis: a column already generated by the kept prefix is
    redundant, and graded Nakayama makes the kept set genuinely minimal.
    """
    n = len(columns)
    gb = IncrementalModuleGB(free, quotient_polys)
    kept = []
    for i in sorted(range(n), key=lambda k: (col_degs[k], k)):
        col = columns[i]
        if not col:
            continue
        if gb.contains(col):
            continue
        kept.append(i)
        gb.add(col)
    return sorted(kept)
