"""Tor and Ext modules over the declared ring, with full profiles.

Homology of a complex of finitely presented modules is presented as a
subquotient on a minimal set of cycles, in two halves.  The generator half
(``minimal_cycles``): the kernel generators are syzygies of the outgoing map
modulo the target's relations; a greedy membership pass in degree order
drops those in the span of the image (the incoming map, the term's own
relations and the quotient relations) and of the ones kept, which by graded
Nakayama leaves a minimal generating set.  The relation half
(``MinimalCycles.presentation``): the syzygies of the survivors modulo that
image.  A vanishing module computes no relations, and no relation has a
unit entry, so the survivors' degrees are the minimal generator degrees of
the module.  ``subquotient_presentation`` runs both.  Tor_i(M, N) is the
homology of (minimal resolution of M) tensor N, Ext^i the cohomology of
Hom(resolution, N); one builder makes both complexes, from the two
Kronecker shapes of ``PolyMatrix``: the maps are d_i (x) 1 (``kron_identity``)
and the relations of each term 1 (x) B (``identity_kron``), B those of N.

"Vanishes for all i >= 1" is never asserted from a finite window alone: each
profile carries an evidence tier: (a) finite projective dimension, (b)
window vanishing plus a certified periodic resolution (a constant base
change d_o ~ d_(o+p), which makes the whole tail periodic) whose period the
window covers, (c) window vanishing plus an applicable rigidity instance,
(d) window only.  ``TorProfile.vanishing_certified`` is (a), (b) or (c).

A Tor profile fills itself on first read: each Tor_i, the tensor slot,
the vanishing evidence and the resolution are built when a caller first
asks for them, so a search that stops at the first nonzero Tor_i builds
nothing past it.  Every entry (``HomologyEntry``), Tor_0, Tor_i and Ext^i
alike, reads its vanishing, its initial degree, its dimension, finite
length and Hilbert data off one Hilbert-series identity.  In each degree a
complex of graded modules with finite-dimensional pieces has
dim H = dim T - rank(in) - rank(out) at a term T, so

    HS(H_i) = HS(coker in) + HS(coker out) - HS(target of out),

"in" the map into term i and "out" the map out of it; both cokernels are
taken modulo the relations of the map's target term.  For F tensor N the
cokernel of d_j tensor N is Omega^(j-1) M tensor N (Omega^0 M = M), but
the identity needs no such name, so it holds for Hom(F, N) as well;
``_ResolutionComplex.numerator`` writes it once, for both.
Each cokernel's numerator needs one untracked Groebner basis, with no
syzygies and no cycles, and serves two neighbouring entries; the identity
holds for any free resolution, minimal or not.  Minimal cycles are built
only on the first read of ``betti0`` of a nonzero entry, ``depth`` of an
entry of positive dimension, or ``presentation``; the greedy pass then
grows the basis that gave the cokernel of the map into the entry's term.
The relations among the cycles, ``minimalize`` and the ambient resolution
come only with ``presentation`` and ``depth``, so a verdict that reads only
which Tor_i vanish builds no cycles at all, and an error of a later step
surfaces on the first read that needs it.  Tor_0 is M tensor N itself,
presented by ``ModulePresentation.tensor`` and minimalized.  Built modules
and the resolution cached on M's minimal presentation are reused by later
reads; a profile is not safe to fill from two threads at once.  The
linear-algebra verification path in ``oracle`` shares nothing with this
pipeline by construction.
"""

from __future__ import annotations

from .fmodules import ModulePresentation, PolyMatrix
from .groebner import FreeModule, minimal_generator_indices, relation_basis, syzygy_generators
from .resolutions import FreeResolution, detect_periodicity, resolve
from .rings import (INF, RingPresentation, add_numerator, dimension_and_multiplicity,
                    encode_infinite, hilbert_values, module_numerator)


class MinimalCycles:
    """The generator half of a subquotient ker(outgoing) / image: a minimal
    set of kernel generators, ``columns`` of ``free`` in degrees
    ``gen_degs``, and the image columns whose span they are taken modulo.

    ``presentation()`` computes the relation half, the syzygies of the
    columns modulo the image, and returns the built presentation; with no
    columns it is the zero module and computes nothing.  Cycles made by
    ``presented`` already have their presentation, which is returned.
    """

    __slots__ = ("ring", "free", "columns", "gen_degs", "image", "label", "_built")

    def __init__(self, ring: RingPresentation, free: FreeModule, columns, gen_degs, image,
                 label="H", built: ModulePresentation | None = None):
        self.ring = ring
        self.free = free
        self.columns = columns
        self.gen_degs = tuple(gen_degs)
        self.image = image
        self.label = label
        self._built = built

    @classmethod
    def empty(cls, ring: RingPresentation, label="H") -> "MinimalCycles":
        """No cycles: the zero subquotient, labelled."""
        return cls(ring, FreeModule(ring.poly_ring, ()), [], (), [], label=label)

    @classmethod
    def presented(cls, pres: ModulePresentation) -> "MinimalCycles":
        """The minimal generators of ``pres``, a minimal presentation, as
        cycles whose relation half is ``pres`` itself."""
        return cls(pres.ring, None, None, pres.gen_degs, None, pres.label, built=pres)

    def presentation(self) -> ModulePresentation:
        if self._built is not None:
            return self._built
        if not self.gen_degs:
            return ModulePresentation.zero(self.ring, label=self.label)
        rel_cols, rel_degs = syzygy_generators(self.columns, self.gen_degs, self.free,
                                               self.ring, self.image)
        mat = PolyMatrix.from_columns(self.ring.poly_ring, self.gen_degs, rel_cols,
                                      tuple(rel_degs))
        return ModulePresentation(self.ring, self.gen_degs, mat, label=self.label)


def minimal_cycles(ring: RingPresentation, gen_degs, outgoing: PolyMatrix | None,
                   target_rels: PolyMatrix | None, incoming: PolyMatrix | None,
                   own_rels: PolyMatrix | None, label="H", basis=None) -> MinimalCycles:
    """The generator half of ``subquotient_presentation`` (same arguments):
    the kernel generators left by the greedy pass, which computes no
    relation among them.  ``basis``, when given, is the term's
    ``relation_basis`` of the image, already built by the caller; the greedy
    pass grows it instead of building its own."""
    gen_degs = tuple(gen_degs)
    for name, mat, side in (("outgoing map", outgoing, "col_degs"),
                            ("incoming map", incoming, "row_degs"),
                            ("own relations", own_rels, "row_degs")):
        if mat is not None and getattr(mat, side) != gen_degs:
            raise ValueError(f"{label}: the {name} has {side} {list(getattr(mat, side))}, "
                             f"not the term's generator degrees {list(gen_degs)}")
    pr = ring.poly_ring
    own_free = FreeModule(pr, gen_degs)
    if outgoing is None:
        ker_cols = PolyMatrix.identity(pr, gen_degs).columns()
        ker_degs = list(gen_degs)
    else:
        ker_cols, ker_degs = syzygy_generators(
            outgoing.columns(), outgoing.col_degs, FreeModule(pr, outgoing.row_degs),
            ring, target_rels.columns() if target_rels is not None else ())
    image = [c for mat in (incoming, own_rels) if mat is not None for c in mat.columns()]
    keep = minimal_generator_indices(ker_cols, ker_degs, own_free, ring.quotient_gens,
                                     relations=image, basis=basis)
    return MinimalCycles(ring, own_free, [ker_cols[j] for j in keep],
                         [ker_degs[j] for j in keep], image, label=label)


def subquotient_presentation(ring: RingPresentation, gen_degs, outgoing: PolyMatrix | None,
                             target_rels: PolyMatrix | None, incoming: PolyMatrix | None,
                             own_rels: PolyMatrix | None, label="H") -> ModulePresentation:
    """Presentation of ker(outgoing) / (im(incoming) + im(own_rels)).

    The ambient term T has generator coordinates R^{gen_degs}; ``outgoing``
    maps T's generator space into the next term's (whose relations are
    ``target_rels``), and ``incoming`` maps the previous term's generator
    space in.  Any of the matrices may be None (no constraint / no image);
    one whose degrees do not fit T raises ValueError.

    The generators are a minimal set of kernel generators modulo the image
    (graded Nakayama), so a vanishing subquotient computes no relations, and
    no relation has a unit entry.  It is ``minimal_cycles(...)`` with its
    relation half built.
    """
    return minimal_cycles(ring, gen_degs, outgoing, target_rels, incoming, own_rels,
                          label=label).presentation()


def kernel_of_map(psi: PolyMatrix, source: ModulePresentation,
                  target: ModulePresentation, label="ker") -> ModulePresentation:
    """Presentation of ker(source -> target) for a map given on generators."""
    source.check_same_ring(target)
    return subquotient_presentation(source.ring, source.gen_degs, psi,
                                    target.relations, None, source.relations,
                                    label=label)


def cokernel_of_map(psi: PolyMatrix, target: ModulePresentation,
                    label="coker") -> ModulePresentation:
    """Presentation of target / im(psi)."""
    mat = target.relations.hstack(psi)
    return ModulePresentation(target.ring, target.gen_degs, mat, label=label)


class HomologyEntry:
    """Minimal presentation and numeric profile of one Tor/Ext module.

    Built as ``HomologyEntry(index, cx, degree_bound)``: the entry is
    H_index of the complex ``cx`` (a ``_ResolutionComplex``, F (x) N for Tor
    or Hom(F, N) for Ext), which hands it its Hilbert numerator,
    ``numerator``, and labels it.  ``vanishes`` (the numerator is zero),
    ``initial_degree`` (its lowest exponent), ``dim``, ``finite_length`` and
    ``hilbert`` are read off the numerator.  The complex builds the entry's
    minimal cycles (``minimal_cycles``; for Tor_0 the minimal M (x) N) only
    on the first read of ``betti0`` of a nonzero entry, ``depth`` of an
    entry of positive dimension (a vanishing entry has depth inf, one of
    dimension 0 depth 0), or ``presentation``; a vanishing entry's
    presentation is the zero module.

    The presentation is the relation half of the cycles, minimalized; the
    entry then drops the cycles, and an error of the relation step surfaces
    on that first read.  The entry hands the presentation its numerator, so
    ``depth`` (an ambient resolution of the presentation) computes no
    second Hilbert series.
    """

    __slots__ = ("index", "vanishes", "initial_degree", "numerator", "_betti0", "_ring",
                 "_complex", "_cycles", "_presentation", "_degree_bound", "_hilbert")

    def __init__(self, index, cx, degree_bound):
        self.index = index
        self.numerator = cx.numerator(index)
        self.vanishes = not self.numerator
        self.initial_degree = min(self.numerator, default=None)
        self._betti0 = 0 if self.vanishes else None
        self._ring = cx.ring
        self._complex = cx
        self._cycles = None
        self._presentation = None
        self._degree_bound = degree_bound
        self._hilbert = None

    def _minimal_cycles(self) -> MinimalCycles:
        if self._cycles is None:
            cx = self._complex
            self._cycles = (MinimalCycles.empty(self._ring, cx.label(self.index))
                            if self.vanishes else cx.cycles(self.index))
        return self._cycles

    @property
    def betti0(self) -> int:
        if self._betti0 is None:
            self._betti0 = len(self._minimal_cycles().gen_degs)
        return self._betti0

    @property
    def presentation(self) -> ModulePresentation:
        """The entry as a minimal presentation, built on first read."""
        if self._presentation is None:
            pres = self._minimal_cycles().presentation().minimalize()
            # the same series, computed once: no basis to keep for it
            pres._hf_num, pres._basis = self.numerator, None
            self._presentation, self._cycles = pres, None
            self._betti0 = len(pres.gen_degs)
        return self._presentation

    @property
    def depth(self) -> float:
        if self.vanishes:
            return INF
        if self.dim == 0:
            return 0
        return self.presentation.depth()

    @property
    def dim(self) -> float:
        return dimension_and_multiplicity(self.numerator, self._ring.poly_ring.nvars)[0]

    @property
    def finite_length(self) -> bool:
        return self.dim <= 0

    @property
    def hilbert(self) -> dict:
        """Hilbert values from min(0, initial degree) through the degree bound."""
        if self._hilbert is None:
            lo = min(0, self.initial_degree) if self.initial_degree is not None else 0
            self._hilbert = hilbert_values(self.numerator, self._ring.poly_ring.nvars, lo,
                                           self._degree_bound)
        return self._hilbert

    def normalized_hilbert(self):
        """Hilbert values listed from the initial degree (empty if zero)."""
        if self.initial_degree is None:
            return ()
        top = max(self.hilbert)
        return tuple(self.hilbert[d] for d in range(self.initial_degree, top + 1))

    def as_dict(self):
        return {"index": self.index, "vanishes": self.vanishes, "betti0": self.betti0,
                "depth": encode_infinite(self.depth), "dim": encode_infinite(self.dim),
                "finite_length": self.finite_length,
                "initial_degree": self.initial_degree,
                "hilbert": list(self.normalized_hilbert())}

    def graded_data_equal(self, other: "HomologyEntry") -> bool:
        """Iso-invariant fingerprint equality (up to the shared window)."""
        if self.vanishes and other.vanishes:
            return True
        if self.vanishes != other.vanishes:
            return False
        if (self.betti0 != other.betti0 or self.depth != other.depth
                or self.dim != other.dim):
            return False
        a, b = self.normalized_hilbert(), other.normalized_hilbert()
        n = min(len(a), len(b))
        return a[:n] == b[:n]


class TorProfile:
    """Tor_i(M, N) for 1 <= i <= bound, plus the Tor_0 = tensor slot.

    The profile fills itself on first read.  ``entry(i)`` builds Tor_i
    alone, as H_i of F (x) N (``_ResolutionComplex``), with F the resolution
    of M that is cached on M's minimal presentation and extended only
    through step i + 1.  Its numerator is K_(i+1) + K_i - HS(F_(i-1) (x) N),
    K_j the Hilbert numerator of coker(d_j (x) 1 | 1 (x) B) on term j - 1,
    which is Omega^(j-1) M (x) N; K_1 is Tor_0's, the minimal M (x) N's.
    Each K_j is computed once, from an untracked basis, and shared by
    Tor_(j-1) and Tor_j; the basis is kept for Tor_(j-1)'s greedy
    generator pass.  ``tor0``, ``vanishing``, ``periodicity`` and
    ``resolution`` are built when first read.  ``vanishing``,
    ``all_vanish_in_window`` and ``vanish_range`` stop at the first nonzero
    Tor_i, and ``vanishing`` reads the resolution only when every Tor_i in
    the window vanishes.  ``entries`` and ``as_dict`` build everything.  A
    right-side profile resolves N: it reads every field from its left
    profile of (N, M) and builds nothing of its own.
    """

    __slots__ = ("M", "N", "ring", "bound", "degree_bound", "side", "_left", "_entries",
                 "_tor0", "_vanishing", "_periodicity", "_resolution", "_complex")

    def __init__(self, M, N, bound, degree_bound, side="left"):
        self.M = M
        self.N = N
        self.ring = M.ring
        self.bound = bound
        self.degree_bound = degree_bound
        self.side = side
        self._left = tor_profile(N, M, bound, degree_bound) if side == "right" else None
        self._entries: dict = {}
        self._tor0 = None
        self._vanishing = None
        self._periodicity = None
        self._resolution = None
        self._complex = _ResolutionComplex(M, N, 1)   # F (x) N, built as it is read

    def entry(self, i: int) -> HomologyEntry:
        """Tor_i for 0 <= i <= bound, built on first read."""
        if i == 0:
            return self.tor0
        if not 1 <= i <= self.bound:
            raise IndexError(f"Tor index {i} outside the window 0..{self.bound}")
        left = self._left or self
        e = left._entries.get(i)
        if e is None:
            e = left._entries[i] = HomologyEntry(i, left._complex.reach(i + 1),
                                                 self.degree_bound)
        return e

    @property
    def entries(self) -> list:
        return [self.entry(i) for i in range(1, self.bound + 1)]

    @property
    def tor0(self) -> HomologyEntry:
        left = self._left or self
        if left._tor0 is None:
            left._tor0 = HomologyEntry(0, left._complex, self.degree_bound)
        return left._tor0

    @property
    def resolution(self) -> FreeResolution:
        left = self._left or self
        if left._resolution is None:
            left._resolution = resolve(left.M, steps=self.bound + 1)
        return left._resolution

    @property
    def vanishing(self) -> dict:
        left = self._left or self
        if left._vanishing is None:
            left._vanishing = _vanishing_evidence(left)
        return left._vanishing

    @property
    def vanishing_certified(self) -> bool:
        """Every Tor_i in the window vanishes and the evidence tier certifies
        the tail: finite projective dimension, periodicity or rigidity."""
        v = self.vanishing
        return v["all_vanish_in_window"] and v["tier"] in ("pd-finite", "periodicity", "rigidity")

    @property
    def periodicity(self) -> list:
        """Tor_i against Tor_(i+2) for 1 <= i <= bound - 2."""
        left = self._left or self
        if left._periodicity is None:
            entries = left.entries
            left._periodicity = []
            for a, b in zip(entries, entries[2:]):
                rec = {"i": a.index, "distance": 2, "equal": a.graded_data_equal(b)}
                if a.initial_degree is not None and b.initial_degree is not None:
                    rec["twist"] = b.initial_degree - a.initial_degree
                left._periodicity.append(rec)
        return left._periodicity

    def vanishes(self, i: int) -> bool:
        return self.entry(i).vanishes

    def all_vanish_in_window(self) -> bool:
        return self.vanish_range(1, self.bound)

    def vanish_range(self, lo: int, hi: int) -> bool:
        return all(self.entry(i).vanishes for i in range(lo, hi + 1))

    def as_dict(self):
        # Tor_1..Tor_bound, then Tor_0, the evidence and the periodicity:
        # the order in which the profile has always been built.
        entries = [e.as_dict() for e in self.entries]
        return {"module": self.M.label, "argument": self.N.label,
                "ring": self.ring.label, "bound": self.bound,
                "degree_bound": self.degree_bound, "resolved_side": self.side,
                "tor0": self.tor0.as_dict(),
                "entries": entries,
                "vanishing": self.vanishing,
                "periodicity": self.periodicity}


def _vanishing_evidence(prof: TorProfile) -> dict:
    if not prof.all_vanish_in_window():
        return {"all_vanish_in_window": False, "tier": None,
                "detail": "nonzero homology in window"}
    res, ring, bound = prof.resolution, prof.ring, prof.bound
    if res.terminated:
        return {"all_vanish_in_window": True, "tier": "pd-finite",
                "detail": f"resolution terminates at step {res.length()}"}
    if res.steps_computed() >= 6:
        per = detect_periodicity(res)
        if per["periodic"] and bound >= per["onset"] + per["period"] - 1:
            return {"all_vanish_in_window": True, "tier": "periodicity",
                    "detail": f"resolution periodic (period {per['period']}, "
                              f"onset {per['onset']}); window covers one period"}
    if ring.certified and bound >= ring.codim + 1:
        return {"all_vanish_in_window": True, "tier": "rigidity",
                "detail": f"{ring.codim + 1} consecutive vanishing steps over a "
                          f"codimension-{ring.codim} complete intersection"}
    return {"all_vanish_in_window": True, "tier": "window-only",
            "detail": "vanishing observed in the window only"}


class _ResolutionComplex:
    """F tensor N (sign 1: Tor) or Hom(F, N) (sign -1: Ext), F a minimal
    resolution of M computed through the step ``reach`` last asked for (it
    is cached on M's minimal presentation, so reaching further extends it).

    Term i has generator degrees sign * a + b (a of F_i, b of N's minimal
    generators) and relations the twisted copies of N's relations B,
    1 (x) B.  Its maps are d_i and d_{i+1} tensor N (transposed for Hom):
    the first goes out of term i for Tor and comes in for Ext, and the
    outgoing map lands in term i - sign.  ``numerator(i)`` is the Hilbert
    numerator of H_i, ``cycles(i)`` its minimal cycles.
    """

    __slots__ = ("M", "N", "ring", "sign", "Nmin", "res", "_tensor", "_cokernels", "_bases")

    def __init__(self, M: ModulePresentation, N: ModulePresentation, sign: int):
        self.M, self.N, self.ring, self.sign = M, N, M.ring, sign
        self.Nmin = self.res = self._tensor = None
        self._cokernels: dict = {}   # term i -> C(i), see ``cokernel``
        self._bases: dict = {}       # term i -> basis of its image, for one greedy pass

    def reach(self, steps: int) -> "_ResolutionComplex":
        if self.res is None or self.res.truncation < steps:
            self.res = resolve(self.M, steps=steps)
            if self.Nmin is None:
                self.Nmin = self.N.minimalize()
        return self

    def label(self, i: int) -> str:
        return f"{'Tor' if self.sign > 0 else 'Ext'}{i}({self.M.label},{self.N.label})"

    def _step(self, i: int) -> tuple:
        return self.res.step_degrees(i) if i >= 0 else ()

    def degs(self, i: int) -> tuple:
        return tuple(self.sign * a + b for a in self._step(i) for b in self.Nmin.gen_degs)

    def rels(self, i: int) -> PolyMatrix | None:
        degs = tuple(self.sign * a for a in self._step(i))
        return self.Nmin.relations.identity_kron(degs) if degs else None

    def kron(self, i: int) -> PolyMatrix | None:
        """d_i tensor N (d_i^T for Hom), or None past the resolution."""
        d = self.res.differential(i)
        if d is None:
            return None
        return (d if self.sign > 0 else d.transpose()).kron_identity(self.Nmin.gen_degs)

    def tensor(self) -> ModulePresentation:
        """M (x) N as ``ModulePresentation.tensor`` presents it, minimalized:
        Tor_0, and the term-0 cokernel of F tensor N."""
        if self._tensor is None:
            self._tensor = self.M.tensor(self.N).minimalize()
        return self._tensor

    def cycles(self, i: int) -> MinimalCycles:
        """The minimal cycles of term i; the greedy pass takes the term's
        basis kept by ``cokernel``, once, instead of building it.  Tor_0 is
        ``tensor()``, already presented."""
        if self.sign > 0 and i == 0:
            return MinimalCycles.presented(self.tensor())
        label, degs = self.label(i), self.degs(i)
        if not degs:
            return MinimalCycles.empty(self.ring, label)
        lower, upper = self.kron(i), self.kron(i + 1)
        outgoing, incoming = (lower, upper) if self.sign > 0 else (upper, lower)
        return minimal_cycles(self.ring, degs, outgoing, self.rels(i - self.sign), incoming,
                              self.rels(i), label=label, basis=self._bases.pop(i, None))

    def term_numerator(self, i: int) -> dict:
        """Hilbert numerator of term i: sum over a in deg F_i of
        t^(sign * a) K_N."""
        num: dict = {}
        for a in self._step(i):
            add_numerator(num, self.Nmin.hilbert_numerator(), self.sign * a)
        return num

    def cokernel(self, i: int) -> dict:
        """C(i), the Hilbert numerator of term i modulo the image of the map
        into it (d_(i+1) (x) 1 for Tor, d_i^T for Hom) and 1 (x) B, computed
        once.  It is read off an untracked basis of that image, which is
        also the image H_i is taken modulo, so the basis is kept for the
        greedy pass of ``cycles(i)``.  Tor's C(0) is ``tensor()``'s."""
        num = self._cokernels.get(i)
        if num is None:
            num = self._cokernels[i] = (self.tensor().hilbert_numerator()
                                        if self.sign > 0 and i == 0 else self._cokernel(i))
        return num

    def _cokernel(self, i: int) -> dict:
        degs = self.degs(i)
        d = self.kron(i + 1 if self.sign > 0 else i) if degs else None
        if d is None:   # no map in: the whole term
            return self.term_numerator(i)
        gb = relation_basis(FreeModule(self.ring.poly_ring, degs), self.ring.quotient_gens,
                            d.columns() + self.rels(i).columns())
        self._bases[i] = gb
        return module_numerator(degs, gb.initial_terms())

    def numerator(self, i: int) -> dict:
        """The Hilbert numerator of H_i, C(i) + C(i - sign) - HS(term
        i - sign): the map out of term i is the map into term i - sign.  A
        vanishing H_i drops the basis kept for its cycles."""
        num = add_numerator(dict(self.cokernel(i)), self.cokernel(i - self.sign))
        add_numerator(num, self.term_numerator(i - self.sign), sign=-1)
        if not num:
            self._bases.pop(i, None)
        return num


def _check_bounds(bound: int, degree_bound: int):
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be >= 0, not {degree_bound}")


def tor_profile(M: ModulePresentation, N: ModulePresentation, bound: int,
                degree_bound: int = 8, side: str = "left") -> TorProfile:
    """Tor_i(M, N) for 1 <= i <= bound via a minimal resolution.

    side='left' resolves M, side='right' resolves N (the symmetric
    recomputation used for cross-checks).  The arguments are checked here
    (``bound`` >= 1, ``degree_bound`` >= 0); every Tor module is built on
    first read (see ``TorProfile``).
    """
    M.check_same_ring(N)
    if side not in ("left", "right"):
        raise ValueError(f"side must be left or right, not {side!r}")
    _check_bounds(bound, degree_bound)
    return TorProfile(M, N, bound, degree_bound, side)


def ext_modules(M: ModulePresentation, N: ModulePresentation, lo: int, hi: int) -> dict:
    """Ext^i(M, N) presentations for lo <= i <= hi, via Hom(resolution, N),
    each built from its minimal cycles."""
    M.check_same_ring(N)
    cx = _ResolutionComplex(M, N, -1).reach(hi + 1)
    return {i: cx.cycles(i).presentation() for i in range(lo, hi + 1)}


def ext_profile(M: ModulePresentation, N: ModulePresentation, bound: int,
                degree_bound: int = 8) -> list:
    """HomologyEntry list for Ext^i(M, N), i = 1..bound (``bound`` >= 1,
    ``degree_bound`` >= 0), as H_i of Hom(F, N): each entry reads its
    numeric fields off its Hilbert numerator and builds its minimal cycles
    and presentation only when a field needs them (see ``HomologyEntry``)."""
    M.check_same_ring(N)
    _check_bounds(bound, degree_bound)
    cx = _ResolutionComplex(M, N, -1).reach(bound + 1)
    return [HomologyEntry(i, cx, degree_bound) for i in range(1, bound + 1)]


def ext_ambient_dimensions(M: ModulePresentation) -> dict:
    """Support dimensions of Ext^j_S(M, S) over the ambient ring, j >= 1.

    Feeds the depth-condition criterion: the resolution is finite, so this
    is a complete list through the projective dimension.  Each is read off
    the Hilbert numerator of H_j of Hom(F, S), F the minimal ambient
    resolution: C(j) + C(j + 1) - HS(F_(j+1)*), C(j) the numerator of
    coker d_j^T (``_ResolutionComplex.numerator``), with no Ext module built.
    """
    amb = M.ambient_presentation()
    nv = M.ring.poly_ring.nvars
    cx = _ResolutionComplex(amb, ModulePresentation.free(amb.ring, (0,)), -1).reach(nv + 1)
    return {j: dimension_and_multiplicity(cx.numerator(j), nv)[0] for j in range(1, nv + 1)}


class DepthFormulaReport:
    """Both sides of depth M + depth N = depth R + depth(M tensor N).

    ``holds`` is the raw equality; ``asserted`` additionally requires the
    certified vanishing hypothesis, and ``tier`` states which certificate
    backed it (the report never asserts from a bare window).  When the
    resolution terminated, ``shifted_form`` also evaluates the classical
    shifted variant depth M + depth N = depth R + depth(Tor_q) - q at the
    top nonvanishing index q (applicable when q = 0 or that depth is <= 1).
    """

    __slots__ = ("depth_M", "depth_N", "depth_ring", "depth_tensor",
                 "left", "right", "holds", "hypothesis_met", "tier", "asserted",
                 "shifted_form")

    def __init__(self, depth_M, depth_N, depth_ring, depth_tensor,
                 hypothesis_met, tier, shifted_form=None):
        self.depth_M = depth_M
        self.depth_N = depth_N
        self.depth_ring = depth_ring
        self.depth_tensor = depth_tensor
        self.left = depth_M + depth_N
        self.right = depth_ring + depth_tensor
        self.holds = self.left == self.right
        self.hypothesis_met = hypothesis_met
        self.tier = tier
        self.asserted = bool(hypothesis_met and self.holds)
        self.shifted_form = shifted_form

    def as_dict(self):
        enc = encode_infinite
        return {"depth_M": enc(self.depth_M), "depth_N": enc(self.depth_N),
                "depth_ring": enc(self.depth_ring), "depth_tensor": enc(self.depth_tensor),
                "left": enc(self.left), "right": enc(self.right),
                "holds": self.holds, "hypothesis_met": self.hypothesis_met,
                "tier": self.tier, "asserted": self.asserted,
                "shifted_form": self.shifted_form}

    def __repr__(self):
        return (f"DepthFormulaReport({self.depth_M}+{self.depth_N} vs "
                f"{self.depth_ring}+{self.depth_tensor}, holds={self.holds}, "
                f"tier={self.tier})")


def ring_depth(ring: RingPresentation) -> float:
    """Depth of R as a module over itself (ambient Auslander-Buchsbaum)."""
    return ModulePresentation.free(ring, (0,)).depth()


def depth_formula_check(M: ModulePresentation, N: ModulePresentation,
                        bound: int, degree_bound: int = 8,
                        profile: TorProfile | None = None) -> DepthFormulaReport:
    """Depth-formula report; the vanishing hypothesis carries its tier.

    ``profile``, when given, is ``tor_profile(M, N, bound, degree_bound)``
    already built by the caller; it is used instead of a second one."""
    if profile is None:
        profile = tor_profile(M, N, bound, degree_bound)
    tier = profile.vanishing["tier"]
    hypothesis_met = profile.vanishing_certified
    tensor = profile.tor0.presentation  # M (x) N, already minimalized as Tor_0
    depth_M, depth_N = M.depth(), N.depth()
    depth_R = ring_depth(M.ring)
    shifted = None
    if profile.resolution.terminated and profile.resolution.length() <= bound:
        q = next((i for i in range(bound, 0, -1) if not profile.vanishes(i)), 0)
        depth_q = tensor.depth() if q == 0 else profile.entry(q).depth
        applicable = q == 0 or depth_q <= 1
        shifted = {"q": q,
                   "depth_tor_q": encode_infinite(depth_q),
                   "applicable": applicable,
                   "holds": (depth_M + depth_N == depth_R + depth_q - q)
                   if applicable and depth_q != INF else None}
    return DepthFormulaReport(depth_M, depth_N, depth_R, tensor.depth(),
                              hypothesis_met, tier, shifted_form=shifted)
