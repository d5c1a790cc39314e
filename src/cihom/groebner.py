"""Buchberger Groebner bases for submodules of graded free modules.

One pair engine, ``IncrementalModuleGB``, serves every basis here: plain
(``buchberger``, interreduced afterwards), tracked (``tracked_buchberger``,
which also collects syzygies) and incremental (``minimal_generator_indices``
grows it one column at a time).

Works over the ambient polynomial ring S and over quotients R = S/(f1..fc):
quotient-ring computations augment the generator set with f_k*e_j columns, so
one engine serves both rings.

Syzygies and lifts run through one construction, ``TrackedSubmodule``: each
input column j gets a tracking coordinate e_j in an extension of the free
module, ordered so that every main-block term dominates every tracking term;
relation columns, the f_k*e_j among them, enter untracked.  A Groebner basis
of both then yields, in its zero-main-block elements, generators of the
syzygy module of the inputs modulo the relations, and reducing a tracked
target against it produces an explicit lift.  ``syzygy_generators``
hands the syzygies out once, in their final free module and with coefficients
reduced modulo the quotient ideal.  Membership needs no tracking: it is a
normal form against an untracked basis (``GroebnerBasis.contains``,
``IncrementalModuleGB.contains``).
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


class IncrementalModuleGB:
    """The Buchberger pair engine behind every Groebner basis in this module.

    ``extend`` inserts a batch of homogeneous generators and drains the
    queued S-pairs by normal selection (smallest shifted lcm degree first,
    then the larger and the smaller basis index) with the chain criterion.
    ``add`` inserts one generator and leaves its pairs queued; ``contains``
    drains only the pairs up to the degree it asks about.  Basis elements
    are monic.  An element whose lead lies in the tracking block (position
    >= ``order.split``) is collected unscaled in ``collected`` and never
    joins the basis.  ``coprime`` also skips pairs with coprime leads, which
    is valid for rank-one input only.  Not interreduced (membership only
    needs the Groebner property).
    """

    __slots__ = ("order", "coprime", "basis", "collected", "_by_position", "_heap", "_pending")

    def __init__(self, order: ModuleOrder, coprime: bool = False):
        self.order = order
        self.coprime = coprime
        self.basis: list = []
        self.collected: list = []
        self._by_position: dict = {}
        self._heap: list = []      # (shifted lcm degree, j, i, lcm) for pairs i < j
        self._pending: set = set()

    def add(self, e: Element):
        """Add e to the basis, monic, and queue its pairs; or collect it."""
        if not e:
            return
        order = self.order
        lead = lead_term(e, order)
        if lead[0] >= order.split:
            self.collected.append(e)
            return
        g = e.scale(e.module.ring.field.inv(e.terms[lead]))
        idx = len(self.basis)
        self.basis.append(g)
        pos, mono = lead_term(g, order)
        same = self._by_position.setdefault(pos, [])
        shift = order.module.gen_degs[pos]
        for k in same:
            mk = lead_term(self.basis[k], order)[1]
            lcm = mono_lcm(mk, mono)
            if self.coprime and mono_mul(mk, mono) == lcm:
                continue  # coprime leads: the S-pair reduces to zero
            heapq.heappush(self._heap, (mono_degree(lcm) + shift, idx, k, lcm))
            self._pending.add((k, idx))
        same.append(idx)

    def _drain(self, upto=None):
        """Reduce queued pairs; with ``upto``, leave those of shifted lcm degree
        above it queued (pending for the chain criterion): homogeneous inputs
        then give a Groebner basis through degree ``upto``."""
        basis, order, pending, heap = self.basis, self.order, self._pending, self._heap
        while heap and (upto is None or heap[0][0] <= upto):
            _, j, i, lcm = heapq.heappop(heap)
            pending.remove((i, j))
            # Chain criterion: skip (i, j) when the lead of some k divides
            # the lcm and both (i, k) and (j, k) have already been handled.
            if any(k != i and k != j
                   and mono_divides(lead_term(basis[k], order)[1], lcm)
                   and (min(i, k), max(i, k)) not in pending
                   and (min(j, k), max(j, k)) not in pending
                   for k in self._by_position[lead_term(basis[i], order)[0]]):
                continue
            s = s_pair(basis[i], basis[j], order)
            r = normal_form(s, basis, order, self._by_position)
            if r:
                self.add(r)

    def extend(self, elements):
        """Insert the homogeneous elements (zeros are skipped), then drain."""
        for e in elements:
            if not e.is_homogeneous():
                raise GradedViolationError("Groebner input must be homogeneous")
            self.add(e)
        self._drain()

    def contains(self, e: Element) -> bool:
        """Membership of e, after draining the queued pairs up to its degree."""
        if not e:
            return True
        self._drain(e.degree())
        return not normal_form(e, self.basis, self.order, self._by_position)


def buchberger(elements: list, order: ModuleOrder, ideal_mode: bool = False) -> list:
    """Reduced Groebner basis of the submodule generated by the elements.

    Inputs must be homogeneous.  In ideal_mode (rank-one input, valid only
    there) the pair engine also skips pairs with coprime leads.
    """
    gb = IncrementalModuleGB(order, coprime=ideal_mode)
    gb.extend(elements)
    return interreduce(gb.basis, order)


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

    __slots__ = ("module", "order", "generators", "quotient_polys", "_by_position",
                 "_lead_monos")

    def __init__(self, module, order, generators, quotient_polys):
        self.module = module
        self.order = order
        self.generators = generators
        self.quotient_polys = tuple(quotient_polys)
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


def initial_terms(columns, free: FreeModule, quotient_polys=()) -> list:
    """Lead terms (position, monomial) of a Groebner basis of the columns,
    the quotient relations f_k * e_j appended: they generate the initial
    module.  The basis is not interreduced, so some terms may be redundant."""
    elems = list(columns) + quotient_columns(free, quotient_polys)
    order = ModuleOrder(free)
    gb = IncrementalModuleGB(order, coprime=free.rank == 1 and not quotient_polys)
    gb.extend(elems)
    return [lead_term(g, order) for g in gb.basis]


def tracked_buchberger(inputs: list, order: ModuleOrder):
    """Groebner basis of the main block plus collected syzygies.

    The inputs stay in the active basis (so every input is trivially
    expressible in it) and only pairs with leads in the main block are
    processed; an element whose main part is zero, an input or an S-pair
    remainder, is a syzygy of the inputs and is collected instead of fed
    back.  The collected elements generate the full syzygy module: pulled
    back along the tracking coordinates, the S-pair syzygies of a Groebner
    basis containing the inputs generate every relation among the inputs
    (the chain criterion is safe here; the coprime-lead shortcut is not and
    stays off).
    """
    gb = IncrementalModuleGB(order)
    gb.extend(inputs)
    return gb.basis, gb.collected


class TrackedSubmodule:
    """Column set with tracking coordinates: syzygies and lifts.

    Input columns c_1..c_s of a free module F are extended to (c_j, e_j) in
    F + R^s; relation columns, the quotient relations f_k e_j among them,
    enter untracked.  The elimination order puts every F-term above every
    tracking term, so the active basis is a Groebner basis of the module of
    columns and relations (lifts reduce against it) while the collected
    elements' tracking parts generate the syzygies of the columns modulo the
    relations over the declared ring.  Tracking vectors are elements of
    ``syzygy_module``, the free module R^s on the column degrees, with every
    coefficient reduced modulo the quotient ideal.

    ``quotient_ring`` is the ring presentation the columns live over (None:
    the polynomial ring itself); its quotient relations enter the
    computation and its reduced ideal basis (``ideal_gb``) reduces the
    tracking coefficients.
    """

    __slots__ = ("free", "syzygy_module", "tracked_module", "order",
                 "active", "collected", "_by_position", "_ideal_gb")

    def __init__(self, columns, col_degs, free: FreeModule, quotient_ring=None, relations=()):
        self.free = free
        quotient_polys = quotient_ring.quotient_gens if quotient_ring is not None else ()
        columns = list(columns)
        col_degs = tuple(col_degs)
        if len(columns) != len(col_degs):
            raise ValueError("columns/col_degs length mismatch")
        for c, d in zip(columns, col_degs):
            cd = c.degree()
            if cd is not None and cd != d:
                raise GradedViolationError(f"column of degree {cd} declared as degree {d}")
        ring = free.ring
        self.syzygy_module = FreeModule(ring, col_degs)
        self.tracked_module = FreeModule(ring, free.gen_degs + col_degs)
        self.order = ModuleOrder(self.tracked_module, split=free.rank)
        tracked = []
        unit = (0,) * ring.nvars
        one = ring.field.one()
        for j, col in enumerate(columns):
            terms = dict(col.terms)
            terms[(free.rank + j, unit)] = one
            tracked.append(Element(self.tracked_module, terms))
        for rel in list(relations) + quotient_columns(free, quotient_polys):
            tracked.append(Element(self.tracked_module, rel.terms))
        self.active, self.collected = tracked_buchberger(tracked, self.order)
        self._by_position = {}
        for i, g in enumerate(self.active):
            self._by_position.setdefault(lead_term(g, self.order)[0], []).append(i)
        self._ideal_gb = quotient_ring.ideal_gb if quotient_polys else None

    def _tracking_vector(self, e: Element) -> Element:
        """e, which has tracking terms only, as an element of ``syzygy_module``,
        each coordinate's coefficient reduced once modulo the quotient ideal."""
        split = self.free.rank
        if self._ideal_gb is None:
            return Element(self.syzygy_module, {(p - split, m): c for (p, m), c in e.terms.items()})
        by_col: dict = {}
        for (p, m), c in e.terms.items():
            by_col.setdefault(p - split, {})[m] = c
        ring, reduce_poly = self.free.ring, self._ideal_gb.reduce_poly
        terms = {}
        for j in sorted(by_col):
            for m, c in reduce_poly(Polynomial(ring, by_col[j])).terms.items():
                terms[(j, m)] = c
        return Element(self.syzygy_module, terms)

    def syzygy_elements(self) -> list:
        """Generators of the syzygies modulo the relations, each one once."""
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

    def lift(self, e: Element):
        """Coefficients x with e = sum x_j * c_j modulo the relations, or None."""
        nf = normal_form(Element(self.tracked_module, dict(e.terms)), self.active,
                         self.order, self._by_position)
        if any(p < self.free.rank for p, _ in nf.terms):
            return None
        vec = self._tracking_vector(nf)
        minus_one = self.free.ring.field.neg(self.free.ring.field.one())
        return [vec.component(j).scale(minus_one) for j in range(self.syzygy_module.rank)]


def syzygy_generators(columns, col_degs, free: FreeModule, quotient_ring=None, relations=()):
    """Columns generating the x in R^s, s = len(columns), with sum x_j c_j in
    the span of ``relations`` over the ring (zero when there are none); the
    ring is ``quotient_ring``, a ring presentation, or the polynomial ring
    when it is None.

    Returns (elements, their degrees).  The elements live in
    ``FreeModule(free.ring, col_degs)`` with every coefficient already reduced
    modulo the quotient ideal, so callers use them as they come.  The
    relations and the f_k * e_j enter the computation untracked.
    """
    tracked = TrackedSubmodule(columns, col_degs, free, quotient_ring, relations)
    syz = tracked.syzygy_elements()
    return syz, [s.degree() for s in syz]


def minimal_generator_indices(columns, col_degs, free: FreeModule, quotient_polys=()):
    """Indices of a minimal generating subset of the given homogeneous columns.

    Greedy pass in weakly increasing degree against an incrementally grown
    Groebner basis: a column already generated by the kept prefix is
    redundant, and graded Nakayama makes the kept set genuinely minimal.
    Each membership question drains the pairs only up to the column's degree.
    """
    n = len(columns)
    gb = IncrementalModuleGB(ModuleOrder(free))
    for q in quotient_columns(free, quotient_polys):
        gb.add(q)
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
