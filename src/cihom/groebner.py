"""Buchberger Groebner bases for submodules of graded free modules.

One pair engine, ``IncrementalModuleGB``, serves every basis here: plain
(``buchberger``, interreduced afterwards), tracked (``tracked_buchberger``,
which also collects syzygies) and incremental (``minimal_generator_indices``
grows it one column at a time).  Minimal generators of columns of one
degree whose entries are normal forms modulo the quotient ideal need no
basis: ``one_degree_generator_indices`` picks the same ones by linear
algebra on their coefficients.

Columns in, columns out.  Outside the pair engine an element of a free
module F is a column: a tuple of ``Polynomial``s, one per row of F, as
``PolyMatrix.columns`` hands them out and ``PolyMatrix.from_columns`` takes
them back.  Every public function here takes and returns columns.

Works over the ambient polynomial ring S and over quotients R = S/(f1..fc):
quotient-ring computations augment the generator set with f_k*e_j columns, so
one engine serves both rings.

Syzygies run through one construction, ``TrackedSubmodule``: each
input column j gets a tracking coordinate e_j in an extension of the free
module, ordered so that every main-block term dominates every tracking term;
relation columns, the f_k*e_j among them, enter untracked.  A Groebner basis
of both then yields, in its zero-main-block elements, generators of the
syzygy module of the inputs modulo the relations.  ``syzygy_generators``
hands the syzygies out once, in their final free module and with coefficients
reduced modulo the quotient ideal.  Membership needs no tracking: it is a
normal form against an untracked basis (``GroebnerBasis.contains``,
``IncrementalModuleGB.reduce``).

Term codes.  Inside the pair engine (``normal_form``, ``s_pair``,
``IncrementalModuleGB``, ``interreduce`` and the bases of
``TrackedSubmodule``) a term (p, m) is one int, ``ModuleOrder.encode``.  The
code is mixed-radix; its fields, from most to least significant, are

- the block flag (1 for positions below the split);
- the shifted degree deg m + gen_degs[p], plus an offset that makes it
  non-negative;
- the grevlex key of m: deg m, then one slot per variable, B - e_n, ...,
  B - e_1 (B = _FIELD_MAX);
- rank - 1 - p.

Each field holds a value below 2^_VALUE_BITS; an exponent slot has one guard
bit above it.  Comparing two codes as ints then compares their fields in
turn, which is the term order: block, shifted degree, grevlex, earlier
position.  Every field is affine in the exponents with a slope that does not
depend on p, so code(p, m*s) - code(p, m) depends on s alone, and a reducer's
term moves under the shift t / lead by adding t - lead.  For two codes a, b
of one position, the monomial of a divides that of b exactly when a - b has
no guard bit set (the slots hold B - e, so they shrink as the exponents
grow): a slot that goes negative borrows through its guard bit.  The same
guard bits pick each slot's maximum for the lcm of two leads, so pairs are
formed on codes too: ``ModuleOrder.lcms`` gives the lcm and its shifted
degree for one lead against a list of others in one call,
``IncrementalModuleGB.add`` queues each new pair with both, and ``s_pair``
takes the queued lcm.

Codes stay exact only while every field fits.  Homogeneity bounds every
exponent of a term by its degree, and every term the engine makes has the
shifted degree of an input term or of a queued pair's lcm; so ``encode``,
``encode_column`` and ``lcms`` (and with it ``IncrementalModuleGB.add``) raise
``TermCodeRangeError`` when such a degree does not fit, before any code
could wrap into a neighbouring field.

A code is ``_base[p]``, which holds the block flag, the generator degree and
the position, plus the offset sum_i m_i * weight_i of its monomial, which
depends only on the layout (variable count, position width).  Each layout
(``_code_layout``) keeps two tables, monomial -> (offset, degree) and
offset -> monomial, shared by all its orders: ``encode`` is a
lookup plus ``_base[p]``, with the range check on every call, hit or miss,
and ``decode`` reads the position field and looks the monomial up.  Only
monomials whose exponents fit their slots enter a table, and a table that
reaches ``_TABLE_MAX`` entries starts over.  A column enters the engine
through one encoder, ``ModuleOrder.encode_column``, which codes each row's
terms as ``_base[p]`` plus the table offset of each monomial and refuses a
column whose length is not the rank or whose entry lies over another
polynomial ring (``IncompatibleOperandsError``).  Results leave through one
decoder, ``ModuleOrder.decode_rows``, which turns a coded element into one
{monomial: coeff} dict per row in the order of its terms (syzygies,
``GroebnerBasis`` generators and normal forms); leads leave as (position,
monomial) pairs (``GroebnerBasis.lead_terms``,
``IncrementalModuleGB.initial_terms``).  So no caller outside this module
sees a code.  The engine's callers take their orders from
``shared_order``, one per equal (module, split), at most
``_SHARED_ORDERS`` kept.  An order codes the quotient columns f_k*e_j of
its main block once per quotient (``ModuleOrder.quotient_elements``, at
most ``_QUOTIENTS_KEPT`` quotients, then it starts over);
``groebner_basis``, ``relation_basis`` and ``TrackedSubmodule`` all feed
those same elements to their engines, which read them and never change
them.

Coefficients.  Every ``Element`` that leaves a loop of the engine holds
field elements: ints in [1, p) over GF(p), nonzero Fractions over the
rationals.  Inside ``normal_form`` and ``s_pair`` coefficients are combined
with Python's ``*``, ``+`` and unary ``-``, which act on both kinds, so one
loop serves every field.  A coefficient stays unreduced (negative, or p or
more) until its term is final, and is then made canonical once
(``field.canonical``): in ``normal_form`` when its term pops, a term that
has come to zero being skipped; in ``s_pair`` when it is entered, since a
term of an S-pair meets at most one sum.  The pair engine's basis elements
are monic, and a lead coefficient of 1 skips the division in a reduction
step and the inverse in ``s_pair``, ``IncrementalModuleGB.add`` and
``interreduce``; any other division multiplies by ``field.inv``.  This is
the one coefficient rule of ``cihom.fields``: ``Element``'s (position,
monomial) methods and ``Polynomial`` follow it too, canonical once per
stored value, and no code here calls another field method.
"""

from __future__ import annotations

import functools
import heapq
import operator

from .polynomials import (
    GradedViolationError,
    IncompatibleOperandsError,
    PolyRing,
    Polynomial,
    mono_divides,
)

# Value bits of one term-code field; exponent slots add a guard bit above.
_VALUE_BITS = 31
_FIELD_MAX = (1 << _VALUE_BITS) - 1
_SLOT_BITS = _VALUE_BITS + 1
_SLOT_MASK = (1 << _SLOT_BITS) - 1
# Entries of one layout's monomial table before it starts over.
_TABLE_MAX = 1 << 14
# Orders kept by shared_order.
_SHARED_ORDERS = 256
# Quotients whose coded columns one order keeps before it starts over.
_QUOTIENTS_KEPT = 8


class TermCodeRangeError(RuntimeError):
    """A term's degree does not fit the fixed width of a term-code field."""


class FreeModule:
    """A graded free module over a PolyRing with explicit generator degrees."""

    __slots__ = ("ring", "gen_degs")

    def __init__(self, ring: PolyRing, gen_degs):
        self.ring = ring
        self.gen_degs = tuple(gen_degs)

    @property
    def rank(self) -> int:
        return len(self.gen_degs)

    def __eq__(self, other):
        return (isinstance(other, FreeModule) and self.ring == other.ring
                and self.gen_degs == other.gen_degs)

    def __hash__(self):
        return hash((self.ring, self.gen_degs))

    def __repr__(self):
        return f"FreeModule(rank={self.rank}, degs={list(self.gen_degs)})"


class Element:
    """A coded element of a graded free module: dict of int term code -> coeff,
    the codes of a ``ModuleOrder`` of ``module`` (see the module docstring)."""

    __slots__ = ("module", "terms", "_lead")

    def __init__(self, module: FreeModule, terms: dict):
        self.module = module
        self.terms = terms
        self._lead = None

    def __bool__(self):
        return bool(self.terms)

    def scale(self, coeff) -> "Element":
        if not coeff:
            return Element(self.module, {})
        canonical = self.module.ring.field.canonical
        return Element(self.module, {t: canonical(c * coeff) for t, c in self.terms.items()})


@functools.lru_cache(maxsize=None)
def _code_layout(nvars: int, pos_bits: int) -> tuple:
    """The parts of a term code's layout that depend only on the variable
    count and the position field's width, in the order ``ModuleOrder``
    unpacks them; one run meets few such pairs.  The last two are the
    layout's monomial tables, monomial -> (offset, degree) and offset ->
    monomial, which every order of the layout fills and reads."""
    # slot i holds B - e_i, so the last variable's slot is the most significant
    slot_shifts = tuple(pos_bits + _SLOT_BITS * s for s in range(nvars))
    top = pos_bits + _SLOT_BITS * nvars + _SLOT_BITS     # the shifted degree; deg m below it
    # each exponent lowers its slot and raises the degree and shifted-degree fields
    degree_weight = (1 << (top - _SLOT_BITS)) + (1 << top)
    return (slot_shifts, top, 1 << (top + _SLOT_BITS),
            sum(1 << (s + _VALUE_BITS) for s in slot_shifts),
            sum(_FIELD_MAX << s for s in slot_shifts),
            # one bit per slot: multiplying the slots by it sums them into the top one
            sum(1 << (_SLOT_BITS * k) for k in range(nvars)),
            pos_bits + _SLOT_BITS * max(nvars - 1, 0), degree_weight,
            tuple(degree_weight - (1 << s) for s in slot_shifts), {}, {})


class ModuleOrder:
    """Graded term-over-position order with an optional elimination split,
    and its int term codes (see the module docstring for their layout).

    Positions below ``split`` form the main block and dominate every tracking
    position.  Within a block terms compare by shifted degree, then grevlex
    on monomials, then by earlier position: larger code = larger term.
    ``position_mask`` cuts a code's position field, ``block_flag`` is set in
    the codes of the main block, and ``guard_mask`` holds the exponent
    slots' guard bits.

    A code is ``_base[p]`` plus the offset of its monomial, which depends on
    the layout alone; ``encode`` and ``decode`` look offsets and monomials up
    in the layout's tables and fill them on a miss.  ``shared_order`` hands
    out one order per (module, split).
    """

    __slots__ = ("module", "split", "position_mask", "block_flag", "guard_mask",
                 "_offset", "_raised_degs", "_degree_shift", "_slot_shifts",
                 "_slot_values", "_slot_ones", "_sum_shift", "_degree_weight",
                 "_weights", "_base", "_top", "_offsets", "_monomials", "_quotient_codes")

    def __init__(self, module: FreeModule, split: int | None = None):
        self.module = module
        self.split = module.rank if split is None else split
        rank = module.rank
        pos_bits = (rank - 1).bit_length() if rank else 0
        self.position_mask = (1 << pos_bits) - 1
        (self._slot_shifts, self._degree_shift, self.block_flag, self.guard_mask,
         self._slot_values, self._slot_ones, self._sum_shift, self._degree_weight,
         self._weights, self._offsets, self._monomials) = _code_layout(
             module.ring.nvars, pos_bits)
        gen_degs = module.gen_degs
        self._offset = offset = -min(gen_degs + (0,))   # no shifted degree below 0
        self._raised_degs = tuple([d + offset for d in gen_degs])
        self._top = rank - 1
        # code(p, m) = _base[p] + sum_i m_i * _weights[i]
        flag, shift, slots = self.block_flag, self._degree_shift, self._slot_values
        self._base = tuple([(flag if p < self.split else 0) + (d << shift) + slots
                            + (rank - 1 - p) for p, d in enumerate(self._raised_degs)])
        self._quotient_codes: dict = {}   # quotient polynomials -> coded quotient columns

    def _out_of_range(self, shifted_degree: int) -> TermCodeRangeError:
        return TermCodeRangeError(
            f"shifted degree {shifted_degree} does not fit a term code (generator degrees "
            f"from {-self._offset}; at most {_FIELD_MAX} above the lowest)")

    def _learn(self, m: tuple, offset: int) -> tuple:
        """(offset, degree) of the monomial m, entered in the layout's tables
        when every exponent fits its slot (otherwise its offset could equal
        that of a monomial that fits); a full table starts over."""
        known = (offset, sum(m))
        if min(m, default=0) >= 0 and known[1] <= _FIELD_MAX:
            if len(self._offsets) >= _TABLE_MAX:
                self._offsets.clear()
                self._monomials.clear()
            self._offsets[m] = known
            self._monomials[offset] = m
        return known

    def encode(self, term) -> int:
        """Code of the term (p, m); TermCodeRangeError when it does not fit."""
        p, m = term
        known = self._offsets.get(m)
        if known is None:
            known = self._learn(m, sum(map(operator.mul, m, self._weights)))
        offset, deg = known
        if not 0 <= deg + self._raised_degs[p] <= _FIELD_MAX:
            raise self._out_of_range(deg + self.module.gen_degs[p])
        return self._base[p] + offset

    def decode(self, code: int):
        """The term (p, m) of a code."""
        p = self._top - (code & self.position_mask)
        offset = code - self._base[p]
        m = self._monomials.get(offset)
        if m is None:
            m = tuple([_FIELD_MAX ^ (code >> s & _FIELD_MAX) for s in self._slot_shifts])
            self._learn(m, offset)
        return p, m

    def lcms(self, a: int, others) -> list:
        """(shifted degree, code) of the lcm of the term a with each term of
        ``others``, all of a's position; TermCodeRangeError when one does
        not fit.

        The lcm with b is a times s, s_i = max(0, b_i - a_i).  The slots
        hold B - e, so subtracting b's slots from a's with every guard bit
        set leaves a slot's guard bit exactly where that difference is
        non-negative, and the difference in its value bits.
        """
        values, guard, ones, sum_shift = (self._slot_values, self.guard_mask,
                                          self._slot_ones, self._sum_shift)
        weight, offset = self._degree_weight, self._offset
        a_slots = (a & values) | guard
        a_raised = a >> self._degree_shift & _SLOT_MASK     # a's shifted degree + offset
        out = []
        for b in others:
            diff = a_slots - (b & values)
            kept = diff & guard
            s = diff & (kept - (kept >> _VALUE_BITS))
            # deg s <= deg b fits one slot, so no partial sum carries
            deg = (s * ones >> sum_shift) & _FIELD_MAX
            raised = a_raised + deg
            if raised > _FIELD_MAX:
                raise self._out_of_range(raised - offset)
            out.append((raised - offset, a - s + deg * weight))
        return out

    def encode_column(self, column, free: FreeModule) -> Element:
        """The coded element of a column of ``free`` (one polynomial per row),
        whose positions are this order's first ones.  Raises
        IncompatibleOperandsError for a column whose length is not the rank
        of ``free`` or an entry over another polynomial ring, and
        TermCodeRangeError for a term that does not fit."""
        if len(column) != free.rank:
            raise IncompatibleOperandsError(
                f"column with {len(column)} entries for a free module of rank {free.rank}")
        ring, base, raised_degs = free.ring, self._base, self._raised_degs
        offsets, weights = self._offsets, self._weights
        terms = {}
        for p, poly in enumerate(column):
            if poly.ring is not ring:
                ring.check_compatible(poly.ring)
            if not poly.terms:
                continue
            b, raised = base[p], raised_degs[p]
            for m, c in poly.terms.items():
                known = offsets.get(m)
                if known is None:
                    known = self._learn(m, sum(map(operator.mul, m, weights)))
                offset, deg = known
                if not 0 <= deg + raised <= _FIELD_MAX:
                    raise self._out_of_range(deg + self.module.gen_degs[p])
                terms[b + offset] = c
        return Element(self.module, terms)

    def quotient_elements(self, quotient_polys) -> list:
        """The coded quotient columns f_k * e_j (``quotient_columns``) of the
        free module on this order's first ``split`` generators.  They are
        coded once per quotient and shared by every engine of the order,
        which reads them and never changes them; an order keeps at most
        ``_QUOTIENTS_KEPT`` quotients, then starts over."""
        if not quotient_polys:
            return []
        key = tuple(quotient_polys)
        coded = self._quotient_codes.get(key)
        if coded is None:
            free = FreeModule(self.module.ring, self.module.gen_degs[:self.split])
            coded = [self.encode_column(q, free) for q in quotient_columns(free, key)]
            if len(self._quotient_codes) >= _QUOTIENTS_KEPT:
                self._quotient_codes.clear()
            self._quotient_codes[key] = coded
        return coded

    def decode_rows(self, e: Element, first: int, count: int) -> list:
        """The coded e as one {monomial: coeff} dict per position first, ...,
        first + count - 1, each in the order of e's terms; e has no term at
        another position."""
        rows = [{} for _ in range(count)]
        top, pmask, base, monomials = self._top, self.position_mask, self._base, self._monomials
        for code, c in e.terms.items():
            p = top - (code & pmask)
            m = monomials.get(code - base[p])
            if m is None:
                m = self.decode(code)[1]
            rows[p - first][m] = c
        return rows

    def degree(self, code: int) -> int:
        """Shifted degree of a coded term."""
        return (code >> self._degree_shift & _SLOT_MASK) - self._offset

    def element_degree(self, e: Element):
        """Common shifted degree of a coded element (None for zero); raises if mixed."""
        shift, offset = self._degree_shift, self._offset
        degs = {(t >> shift & _SLOT_MASK) - offset for t in e.terms}
        if len(degs) > 1:
            raise GradedViolationError(f"inhomogeneous module element: degrees {sorted(degs)}")
        return next(iter(degs), None)

    def divides(self, a: int, b: int) -> bool:
        """The term a divides the term b: one position, and its monomial divides."""
        if (a ^ b) & self.position_mask:
            return False
        return not (a - b) & self.guard_mask


@functools.lru_cache(maxsize=_SHARED_ORDERS)
def shared_order(module: FreeModule, split: int | None = None) -> ModuleOrder:
    """The one ``ModuleOrder`` of an equal module and split, kept in a
    bounded cache; an order holds no state of a computation."""
    return ModuleOrder(module, split)


def _as_column(ring: PolyRing, rows) -> tuple:
    """The term dicts of ``ModuleOrder.decode_rows`` as a column of
    polynomials over ``ring``; empty rows share the ring's zero."""
    zero = ring.zero()
    return tuple(Polynomial(ring, terms) if terms else zero for terms in rows)


def lead_term(e: Element, order: ModuleOrder) -> int:
    """Code of the leading term of a coded element."""
    if e._lead is None:
        e._lead = max(e.terms)
    return e._lead


def _index_leads(basis: list, order: ModuleOrder) -> dict:
    """Position field -> [(lead code, index)] over the nonzero basis elements."""
    by_position: dict = {}
    for i, g in enumerate(basis):
        if g:
            lead = lead_term(g, order)
            by_position.setdefault(lead & order.position_mask, []).append((lead, i))
    return by_position


def normal_form(e: Element, basis: list, order: ModuleOrder,
                by_position: dict | None = None) -> Element:
    """Fully reduced remainder of the coded element e modulo the basis elements.

    Zero iff e lies in the generated submodule (when basis is a Groebner
    basis); idempotent.  ``by_position`` maps a lead's position field to the
    (lead code, basis index) pairs in basis order, and is rebuilt when absent.

    The work terms live in a dict changed in place, beside a heap of negated
    codes, so the largest term pops first.  Each term is in the heap once:
    it stays in the dict, its coefficient unreduced, until it pops, and a
    reduction step only introduces terms below the current lead, so a popped
    term never comes back.  Its coefficient is made canonical when it pops,
    and a term that has come to zero is skipped.
    """
    if by_position is None:
        by_position = _index_leads(basis, order)
    field = e.module.ring.field
    canonical = field.canonical
    pmask, guard = order.position_mask, order.guard_mask
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(e.terms)
    heap = [-t for t in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        t = -heappop(heap)
        c = canonical(work.pop(t))
        if not c:
            continue
        for lead, i in by_position.get(t & pmask, ()):
            if not (lead - t) & guard:
                break
        else:
            remainder[t] = c
            continue
        # work -= (c / lc) * (t / lead) * reducer; its lead cancels t exactly.
        reducer = basis[i]
        shift = t - lead
        lc = reducer.terms[lead]
        ncoeff = -c if lc == 1 else -canonical(c * field.inv(lc))
        for rt, rc in reducer.terms.items():
            if rt == lead:
                continue
            u = rt + shift
            old = work.get(u)
            if old is None:
                work[u] = rc * ncoeff
                heappush(heap, -u)
            else:
                work[u] = old + rc * ncoeff
    return Element(e.module, remainder)


def s_pair(f: Element, g: Element, order: ModuleOrder, lcm: int | None = None) -> Element:
    """S-element of two coded module elements with leading terms in one
    position.  ``lcm``, the code of the leads' lcm, is passed by the pair
    engine, which queued it with the pair; without it the positions are
    checked and the lcm is formed here."""
    field = f.module.ring.field
    lf, lg = lead_term(f, order), lead_term(g, order)
    if lcm is None:
        if (lf ^ lg) & order.position_mask:
            raise IncompatibleOperandsError(f"S-pair of elements with leads in positions "
                                            f"{order.decode(lf)[0]} and {order.decode(lg)[0]}")
        lcm = order.lcms(lf, (lg,))[0][1]
    canonical = field.canonical
    shift, a = lcm - lf, f.terms[lf]
    if a == 1:
        res = {t + shift: c for t, c in f.terms.items()}
    else:
        a = field.inv(a)
        res = {t + shift: canonical(c * a) for t, c in f.terms.items()}
    # a term meets at most one sum below, so its value is final once entered
    shift, b = lcm - lg, g.terms[lg]
    b = -1 if b == 1 else -field.inv(b)
    for t, c in g.terms.items():
        u = t + shift
        old = res.get(u)
        if old is None:
            res[u] = canonical(c * b)
        else:
            s = canonical(old + c * b)
            if not s:
                del res[u]
            else:
                res[u] = s
    return Element(f.module, res)


class IncrementalModuleGB:
    """The Buchberger pair engine behind every Groebner basis in this module.

    It works on coded elements of ``order``.  ``extend`` inserts a batch of
    homogeneous generators and drains the queued S-pairs by normal selection
    (smallest shifted lcm degree first, then the larger and the smaller
    basis index) with the chain criterion.  ``add`` inserts one generator
    and leaves its pairs queued; ``reduce`` drains only the pairs up to the
    degree of the element it reduces.  Basis elements are monic.  An element
    whose lead lies in the tracking block (position >= ``order.split``) is
    collected unscaled in ``collected`` and never joins the basis.  The
    chain criterion is the only one that skips a pair.  Not interreduced
    (membership only needs the Groebner property).
    """

    __slots__ = ("order", "basis", "collected", "_by_position", "_heap", "_pending")

    def __init__(self, order: ModuleOrder):
        self.order = order
        self.basis: list = []
        self.collected: list = []
        self._by_position: dict = {}   # position field -> [(lead code, index)]
        self._heap: list = []      # (shifted lcm degree, j, i, lcm code) for pairs i < j
        self._pending: set = set()

    def add(self, e: Element):
        """Add e to the basis, monic, and queue its pairs; or collect it."""
        if not e:
            return
        order = self.order
        lead = lead_term(e, order)
        if not lead & order.block_flag:
            self.collected.append(e)
            return
        lc = e.terms[lead]
        g = e if lc == 1 else e.scale(e.module.ring.field.inv(lc))
        g._lead = lead
        idx = len(self.basis)
        self.basis.append(g)
        same = self._by_position.setdefault(lead & order.position_mask, [])
        if same:
            heap, pending, heappush = self._heap, self._pending, heapq.heappush
            # TermCodeRangeError when a pair's lcm does not fit
            lcms = order.lcms(lead, [lead_k for lead_k, _ in same])
            for (_, k), (deg, lcm) in zip(same, lcms):
                heappush(heap, (deg, idx, k, lcm))
                pending.add((k, idx))
        same.append((lead, idx))

    def _drain(self, upto=None):
        """Reduce queued pairs; with ``upto``, leave those of shifted lcm degree
        above it queued (pending for the chain criterion): homogeneous inputs
        then give a Groebner basis through degree ``upto``."""
        basis, order, pending, heap = self.basis, self.order, self._pending, self._heap
        by_position, pmask, guard = self._by_position, order.position_mask, order.guard_mask
        heappop = heapq.heappop
        while heap and (upto is None or heap[0][0] <= upto):
            _, j, i, lcm = heappop(heap)
            pending.remove((i, j))
            # Chain criterion: skip (i, j) when the lead of some k divides
            # the lcm and both (i, k) and (j, k) have already been handled.
            # Every lead listed at the lcm's position has that position, so
            # the guard bits alone decide divisibility.
            for lead_k, k in by_position[lcm & pmask]:
                if (not (lead_k - lcm) & guard and k != i and k != j
                        and ((i, k) if i < k else (k, i)) not in pending
                        and ((j, k) if j < k else (k, j)) not in pending):
                    break
            else:
                r = normal_form(s_pair(basis[i], basis[j], order, lcm), basis, order,
                                by_position)
                if r:
                    self.add(r)

    def extend(self, elements):
        """Insert the homogeneous coded elements (zeros are skipped), then drain."""
        for e in elements:
            self.order.element_degree(e)   # raises GradedViolationError if mixed
            self.add(e)
        self._drain()

    def reduce(self, e: Element) -> Element:
        """Normal form of the coded e, after draining the queued pairs up to
        its degree: zero exactly when e lies in the submodule."""
        if not e:
            return e
        self._drain(self.order.element_degree(e))
        return normal_form(e, self.basis, self.order, self._by_position)

    def initial_terms(self) -> list:
        """Drain every queued pair, then the leads (position, monomial) of the
        basis: they generate the initial module of the submodule."""
        self._drain()
        return [self.order.decode(lead_term(g, self.order)) for g in self.basis]


def buchberger(elements: list, order: ModuleOrder) -> list:
    """Reduced Groebner basis of the submodule generated by the coded
    elements, which must be homogeneous: the pair engine's basis,
    interreduced."""
    gb = IncrementalModuleGB(order)
    gb.extend(elements)
    return interreduce(gb.basis, order)


def interreduce(basis: list, order: ModuleOrder) -> list:
    """Unique reduced basis: minimal lead terms, fully tail-reduced, monic."""
    # Drop elements whose lead is divisible by another element's lead.
    keep = []
    leads = [lead_term(g, order) for g in basis]
    for i, g in enumerate(basis):
        li = leads[i]
        if not any(j != i and order.divides(lj, li) and (lj != li or j < i)
                   for j, lj in enumerate(leads)):
            keep.append(g)
    # Tail-reduce each survivor against the others.
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = normal_form(g, others, order)
        if r:
            lc = r.terms[lead_term(r, order)]
            reduced.append(r if lc == 1 else r.scale(r.module.ring.field.inv(lc)))
    reduced.sort(key=lambda e: lead_term(e, order))
    return reduced


class GroebnerBasis:
    """A reduced Groebner basis of a submodule of a graded free module.

    ``generators`` are columns, one polynomial per row of ``module``, and
    ``lead_terms`` their (position, monomial) leads; the coded basis stays
    inside.  ``normal_form`` and ``contains`` take columns of ``module``.
    """

    __slots__ = ("module", "order", "generators", "lead_terms", "_basis", "_by_position",
                 "_divisible")

    def __init__(self, module, order, basis):
        self.module = module
        self.order = order
        self._basis = basis
        self.generators = [self._column(g) for g in basis]
        self.lead_terms = [order.decode(lead_term(g, order)) for g in basis]
        self._by_position = _index_leads(basis, order)
        self._divisible = None

    def _column(self, e: Element) -> tuple:
        return _as_column(self.module.ring, self.order.decode_rows(e, 0, self.module.rank))

    def _reduce(self, column) -> Element:
        return normal_form(self.order.encode_column(column, self.module), self._basis,
                           self.order, self._by_position)

    def normal_form(self, column) -> tuple:
        return self._column(self._reduce(column))

    def reduce_poly(self, poly: Polynomial) -> Polynomial:
        """Normal form of a polynomial modulo a rank-one basis (an ideal).

        Fast path: when no term of ``poly`` is divisible by a lead monomial
        of the basis (the zero polynomial and the empty basis included), the
        normal form is ``poly`` itself and that same object is returned.
        Whether a monomial is divisible by some lead is kept per basis, so a
        term costs one lookup once its monomial has been met; the dict starts
        over at ``_TABLE_MAX`` entries.  Raises IncompatibleOperandsError
        for a polynomial over another ring.
        """
        ring = self.module.ring
        if poly.ring is not ring:
            ring.check_compatible(poly.ring)
        divisible = self._divisible
        if divisible is None:
            if self.module.rank != 1:
                raise IncompatibleOperandsError(
                    f"polynomial reduction needs a rank-one basis, not rank {self.module.rank}")
            divisible = self._divisible = {}
        for mono in poly.terms:
            hit = divisible.get(mono)
            if hit is None:
                if len(divisible) >= _TABLE_MAX:
                    divisible.clear()
                hit = divisible[mono] = any(mono_divides(lead, mono) for _, lead in self.lead_terms)
            if hit:
                return self.normal_form((poly,))[0]
        return poly

    def contains(self, column) -> bool:
        return not self._reduce(column)

    def __repr__(self):
        return f"GroebnerBasis({len(self.generators)} elements, rank {self.module.rank})"


def quotient_columns(free: FreeModule, quotient_polys) -> list:
    """The relation columns f_k * e_j presenting free/quotient over the ambient ring."""
    zero, rank = (free.ring.zero(),), free.rank
    return [zero * j + (f,) + zero * (rank - 1 - j) for f in quotient_polys for j in range(rank)]


def groebner_basis(columns, free: FreeModule, quotient_polys=()) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by the columns of
    ``free``.

    Over a quotient ring the f_k * e_j relations are appended internally, so
    ``contains(column)`` decides membership over the quotient.
    """
    order = shared_order(free)
    elems = [order.encode_column(c, free) for c in columns]
    elems += order.quotient_elements(quotient_polys)
    return GroebnerBasis(free, order, buchberger(elems, order))


def tracked_buchberger(inputs: list, order: ModuleOrder):
    """Groebner basis of the main block plus collected syzygies, all coded.

    The inputs stay in the active basis (so every input is trivially
    expressible in it) and only pairs with leads in the main block are
    processed; an element whose main part is zero, an input or an S-pair
    remainder, is a syzygy of the inputs and is collected instead of fed
    back.  The collected elements generate the full syzygy module: pulled
    back along the tracking coordinates, the S-pair syzygies of a Groebner
    basis containing the inputs generate every relation among the inputs
    (the chain criterion is safe here).
    """
    gb = IncrementalModuleGB(order)
    gb.extend(inputs)
    return gb.basis, gb.collected


class TrackedSubmodule:
    """Column set with tracking coordinates: the syzygies of the columns.

    Input columns c_1..c_s of a free module F are extended to (c_j, e_j) in
    F + R^s; relation columns, the quotient relations f_k e_j among them,
    enter untracked.  The elimination order puts every F-term above every
    tracking term, so the active basis is a Groebner basis of the module of
    columns and relations while the collected
    elements' tracking parts generate the syzygies of the columns modulo the
    relations over the declared ring.  ``active`` and ``collected`` are coded
    in ``order``, the shared order of the tracked module.  Tracking vectors
    are columns of ``syzygy_module``, the free module R^s on the column
    degrees: the codes of a collected element are decoded straight into one
    polynomial per column, which over a quotient ``reduce_poly`` reduces, and
    a syzygy's degree is read off its lead code.

    ``quotient_ring`` is the ring presentation the columns live over (None:
    the polynomial ring itself); its quotient relations enter the
    computation and its reduced ideal basis (``ideal_gb``) reduces the
    tracking coefficients.
    """

    __slots__ = ("free", "syzygy_module", "tracked_module", "order",
                 "active", "collected", "_ideal_gb")

    def __init__(self, columns, col_degs, free: FreeModule, quotient_ring=None, relations=()):
        self.free = free
        quotient_polys = quotient_ring.quotient_gens if quotient_ring is not None else ()
        columns = list(columns)
        col_degs = tuple(col_degs)
        if len(columns) != len(col_degs):
            raise ValueError("columns/col_degs length mismatch")
        ring = free.ring
        self.syzygy_module = FreeModule(ring, col_degs)
        self.tracked_module = FreeModule(ring, free.gen_degs + col_degs)
        self.order = order = shared_order(self.tracked_module, free.rank)
        tracked = []
        unit = (0,) * ring.nvars
        one = ring.field.one()
        for j, col in enumerate(columns):
            coded = order.encode_column(col, free)   # F's positions come first
            coded.terms[order.encode((free.rank + j, unit))] = one
            tracked.append(coded)
        for rel in relations:
            tracked.append(order.encode_column(rel, free))
        tracked += order.quotient_elements(quotient_polys)
        self.active, self.collected = tracked_buchberger(tracked, order)
        self._ideal_gb = quotient_ring.ideal_gb if quotient_polys else None

    def _tracking_vector(self, e: Element) -> tuple:
        """The coded e, which has tracking terms only, as a column of
        ``syzygy_module``, each entry in the order of e's terms and, over a
        quotient, reduced once modulo the quotient ideal."""
        vec = _as_column(self.free.ring, self.order.decode_rows(e, self.free.rank,
                                                                self.syzygy_module.rank))
        if self._ideal_gb is not None:
            vec = tuple(self._ideal_gb.reduce_poly(p) if p.terms else p for p in vec)
        return vec

    def syzygy_elements(self):
        """Generators of the syzygies modulo the relations, each one once, as
        columns of ``syzygy_module``, and their degrees, read off the codes
        of the collected elements."""
        order = self.order
        out, degs, seen = [], [], set()
        for g in self.collected:
            vec = self._tracking_vector(g)
            key = frozenset((j, m, c) for j, p in enumerate(vec) for m, c in p.terms.items())
            if key and key not in seen:
                seen.add(key)
                out.append(vec)
                degs.append(order.degree(lead_term(g, order)))
        return out, degs


def syzygy_generators(columns, col_degs, free: FreeModule, quotient_ring=None, relations=()):
    """Columns generating the x in R^s, s = len(columns), with sum x_j c_j in
    the span of ``relations`` over the ring (zero when there are none); the
    ring is ``quotient_ring``, a ring presentation, or the polynomial ring
    when it is None.  The columns and relations are columns of ``free``.

    Returns (columns of length s, their degrees), every entry already
    reduced modulo the quotient ideal, so callers use them as they come.  The
    relations and the f_k * e_j enter the computation untracked.
    """
    return TrackedSubmodule(columns, col_degs, free, quotient_ring, relations).syzygy_elements()


def relation_basis(free: FreeModule, quotient_polys=(), relations=()) -> IncrementalModuleGB:
    """The pair engine of ``free``'s shared order holding the homogeneous
    ``relations`` and the quotient columns f_k * e_j, their pairs queued:
    the span that ``minimal_generator_indices`` reduces modulo.  Its
    ``initial_terms`` read the initial module of that span, which every
    Hilbert numerator is computed from."""
    order = shared_order(free)
    gb = IncrementalModuleGB(order)
    for r in relations:
        r = order.encode_column(r, free)
        order.element_degree(r)   # raises GradedViolationError if mixed
        gb.add(r)
    for q in order.quotient_elements(quotient_polys):
        gb.add(q)
    return gb


def minimal_generator_indices(columns, col_degs, free: FreeModule, quotient_polys=(),
                              relations=(), basis: IncrementalModuleGB | None = None):
    """Indices of a minimal generating subset of the given homogeneous columns
    of ``free``, modulo the span of the homogeneous ``relations`` (none:
    modulo zero).

    Greedy pass in weakly increasing degree against an incrementally grown
    Groebner basis, preloaded with the relations and the quotient columns: a
    column already generated by them and the kept prefix is redundant, and
    graded Nakayama makes the kept set a minimal generating set of the
    quotient.  Each membership question drains the pairs only up to the
    column's degree and reduces the column; a kept column enters the basis
    as that nonzero normal form, which spans the same submodule with the
    basis and forms no S-pair with the reducers of its own lead.  ``basis``,
    when given, is ``relation_basis(free, quotient_polys, relations)``,
    drained or not, built by the caller; the pass grows it in place instead
    of building its own.  Membership is the same, so the kept set is too.
    """
    gb = relation_basis(free, quotient_polys, relations) if basis is None else basis
    order = gb.order
    kept = []
    for i in sorted(range(len(columns)), key=lambda k: (col_degs[k], k)):
        r = gb.reduce(order.encode_column(columns[i], free))
        if r:
            kept.append(i)
            gb.add(r)
    return sorted(kept)


def one_degree_generator_indices(columns, field) -> list:
    """Indices of a minimal generating subset of columns that all have one
    degree d and whose entries are normal forms modulo the quotient ideal
    (every column over the polynomial ring itself): the indices that
    ``minimal_generator_indices(columns, [d] * len(columns), free,
    quotient_polys)`` returns, with no Groebner basis.

    The precondition makes the question linear.  The kept columns span only
    their k-span in degree d, and a normal form lies in the quotient
    relations (f)F only when it is zero; so a column is generated by the
    kept ones and the relations exactly when it is a k-combination of the
    kept ones.  A Gauss-Jordan pass over the (position, monomial)
    coefficients keeps each column that is independent of those kept before
    it, in index order, which is the greedy pass's order within a degree.
    Each pivot row is monic at its pivot and zero at every other pivot.
    """
    canonical, inv = field.canonical, field.inv
    pivots: dict = {}   # (position, monomial) -> row
    kept = []
    for i, col in enumerate(columns):
        row = {(p, m): c for p, poly in enumerate(col) for m, c in poly.terms.items()}
        hits = [k for k in row if k in pivots]
        if hits:
            for key in hits:
                c = row.pop(key)
                for k, v in pivots[key].items():
                    if k != key:
                        row[k] = row.get(k, 0) - c * v
            row = {k: v for k, v in ((k, canonical(v)) for k, v in row.items()) if v}
        if not row:
            continue
        kept.append(i)
        key = next(iter(row))
        if row[key] != 1:
            a = inv(row[key])
            row = {k: canonical(v * a) for k, v in row.items()}
        for other in pivots.values():
            c = other.get(key)
            if c is not None:
                for k, v in row.items():
                    s = canonical(other.get(k, 0) - c * v)
                    if s:
                        other[k] = s
                    else:
                        other.pop(k, None)
        pivots[key] = row
    return kept
