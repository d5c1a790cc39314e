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
the module, and the subquotient is zero exactly when no cycle survives.
These two halves are the one way cihom takes a subquotient: the Tor and
Ext entries here, the dual and its presentation (``fmodules``), and the
kernels, cokernels (no outgoing map: the identity columns modulo the
image) and middle homologies that certify the exact sequences of
``constructions``, whose zero tests read only the generator half, and
the kernel of the evaluation map presented as a torsion witness.
``subquotient_presentation`` runs both halves in one call.  Tor_i(M, N)
is the homology of (minimal resolution of M) tensor N, Ext^i the
cohomology of Hom(resolution, N); one builder makes both complexes, from
the two Kronecker shapes of ``PolyMatrix``: the maps are d_i (x) 1
(``kron_identity``) and the relations of each term 1 (x) B
(``identity_kron``), B those of N.  A cokernel's basis needs only their
columns, so it takes the column forms (``kron_identity_columns``,
``identity_kron_columns``) and builds no Kronecker matrix; the cycles of
an entry still read the matrices.
A right-side Tor profile of (M, N) is the left profile of (N, M).

"Vanishes for all i >= 1" is never asserted from a finite window alone: each
profile carries an evidence tier: (a) finite projective dimension, (b)
window vanishing plus a certified periodic resolution (a constant base
change d_o ~ d_(o+p), which makes the whole tail periodic) whose period the
window covers, (c) window vanishing plus an applicable rigidity instance,
(d) window only.  ``TorProfile.vanishing_certified`` is (a), (b) or (c);
over a certified ring of codimension c whose window reaches c + 1, it
reads Tor_1..Tor_(c+1) and stops there, since by Murthy's rigidity theorem
their vanishing already certifies the whole tail (tier (c)).  The tier
itself, and every window read, stays an observation of each Tor_i, so the
harness can check that theorem.

A Tor profile fills itself on first read: each Tor_i, Tor_0 included, and
the vanishing evidence are built when a caller first asks for them, so a
search that stops at the first nonzero Tor_i builds nothing past it.  The
complex (``_ResolutionComplex``) owns every entry, the degree bound and the
one view of the resolution its entries have reached.  Every entry
(``HomologyEntry``), Tor_0, Tor_i and Ext^i alike, reads its vanishing, its
initial degree, its dimension, finite length and Hilbert data off one
Hilbert-series identity.  In each degree a complex of graded modules with
finite-dimensional pieces has dim H = dim T - rank(in) - rank(out) at a
term T, so

    HS(H_i) = HS(coker in) + HS(coker out) - HS(target of out),

"in" the map into term i and "out" the map out of it; both cokernels are
taken modulo the relations of the map's target term.  For F tensor N the
cokernel of d_j tensor N is Omega^(j-1) M tensor N (Omega^0 M = M), but
the identity needs no such name, so it holds for Hom(F, N) as well;
``_ResolutionComplex.numerator`` writes it once, for both.  With no map in,
the same counting is the torsion-free test
(``ModulePresentation.is_torsion_free``).
Each cokernel's numerator needs one untracked Groebner basis, with no
syzygies and no cycles, and serves two neighbouring entries; the identity
holds for any free resolution, minimal or not.  Minimal cycles are built
only on the first read of ``betti0`` of a nonzero entry, ``depth`` of an
entry of positive dimension, or ``presentation``; the greedy pass then
grows the basis that gave the cokernel of the map into the entry's term.
An entry whose Hilbert series is c t^d, the whole of its finite length in
one degree d, is k^c (m H lies in degrees above d, where H is zero), so
its ``betti0`` is c, read off the numerator with no cycles.
The relations among the cycles, ``minimalize`` and the ambient resolution
come only with ``presentation`` and ``depth``, so a verdict that reads only
which Tor_i vanish builds no cycles at all, and an error of a later step
surfaces on the first read that needs it.  Tor_0 is entry 0 of F tensor N:
its numerator and its presentation are those of M tensor N itself,
presented by ``ModulePresentation.tensor`` and minimalized, so it reaches
no resolution step and builds no cycles; nor does a vanishing entry, whose
presentation is the zero module.  Built modules and the resolution cached
on M's minimal presentation are reused by later reads; a profile is not
safe to fill from two threads at once.  The linear-algebra verification
path in ``oracle`` shares nothing with this pipeline by construction.

A resolution that repeats itself literally (``FreeResolution.period``:
d_m is d_(m-p) with its degrees raised by t for m >= o + p) repeats its
complex too.  A cokernel whose map in is such a copy is the cokernel one
period back twisted by sign * t, so its numerator is copied, not computed:
for Tor when i + 1 - p >= o, for Ext when i - p >= o.  An entry H_i with
i - p >= o reads both maps as copies, so H_i is H_(i-p) twisted by
sign * t; it reads ``betti0`` and ``depth``, invariants of the module, off
entry i - p.  Its numerator, ``dim`` and ``hilbert`` are read as always,
and its ``presentation``, if read, is still built directly.  The copies
are exact, so every output is the one the computation would give.
"""

from __future__ import annotations

from .fmodules import ModulePresentation, PolyMatrix
from .groebner import FreeModule, minimal_generator_indices, relation_basis, syzygy_generators
from .polynomials import InvariantError
from .resolutions import FreeResolution, detect_periodicity, resolve
from .rings import (INF, RingPresentation, add_numerator, dimension_and_multiplicity,
                    encode_infinite, hilbert_values, module_numerator)


class MinimalCycles:
    """The generator half of a subquotient ker(outgoing) / image: a minimal
    set of kernel generators, ``columns`` of ``free`` in degrees
    ``gen_degs``, and the image columns whose span they are taken modulo.

    ``presentation()`` computes the relation half, the syzygies of the
    columns modulo the image, and returns the built presentation; with no
    columns it is the zero module and computes nothing.  By graded
    Nakayama the subquotient is zero exactly when ``gen_degs`` is empty.
    """

    __slots__ = ("ring", "free", "columns", "gen_degs", "image", "label")

    def __init__(self, ring: RingPresentation, free: FreeModule, columns, gen_degs, image,
                 label="H"):
        self.ring = ring
        self.free = free
        self.columns = columns
        self.gen_degs = tuple(gen_degs)
        self.image = image
        self.label = label

    def presentation(self) -> ModulePresentation:
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


class HomologyEntry:
    """Minimal presentation and numeric profile of one Tor/Ext module.

    Built as ``HomologyEntry(index, cx)``: the entry is H_index of the
    complex ``cx`` (a ``_ResolutionComplex``, F (x) N for Tor or Hom(F, N)
    for Ext), which hands it its Hilbert numerator, ``numerator``, its
    label and the degree bound of ``hilbert``.  ``vanishes`` (the numerator
    is zero), ``initial_degree`` (its lowest exponent), ``dim``,
    ``finite_length`` and ``hilbert`` are read off the numerator.  A
    vanishing entry's presentation is the zero module, and Tor_0's is the
    complex's minimal M (x) N (``_ResolutionComplex.tensor``); neither
    builds cycles.  The complex builds any other entry's minimal cycles
    (``minimal_cycles``) only on the first read of ``betti0`` of a nonzero
    entry, ``depth`` of an entry of positive dimension (a vanishing entry
    has depth inf, one of dimension 0 depth 0), or ``presentation``; except
    that an entry whose Hilbert series is c t^d (``_one_degree_length``)
    reads ``betti0`` = c off it.

    The presentation is the relation half of the cycles, minimalized; the
    entry then drops the cycles, and an error of the relation step surfaces
    on that first read.  When ``betti0`` was read before (off the Hilbert
    series or off the entry one period back), the presentation's generator
    count must equal it, or ``InvariantError`` is raised.  The entry hands
    the presentation its numerator, so ``depth`` (an ambient resolution of
    the presentation) computes no second Hilbert series.  An entry one period past a literal repeat of
    the resolution (``_ResolutionComplex.earlier``) is the entry one period
    back, twisted: it reads ``betti0`` and ``depth`` off that entry, which
    the complex builds if it is not built yet.
    """

    __slots__ = ("index", "vanishes", "initial_degree", "numerator", "_betti0", "_complex",
                 "_cycles", "_presentation", "_hilbert")

    def __init__(self, index, cx):
        self.index = index
        self.numerator = cx.numerator(index)
        self.vanishes = not self.numerator
        self.initial_degree = min(self.numerator, default=None)
        self._betti0 = 0 if self.vanishes else None
        self._complex = cx
        self._cycles = None
        self._presentation = None
        self._hilbert = None

    def _minimal_cycles(self) -> MinimalCycles:
        if self._cycles is None:
            self._cycles = self._complex.cycles(self.index)
        return self._cycles

    def _earlier(self) -> "HomologyEntry | None":
        """The entry one period back, when this one is a twisted copy of it."""
        j = self._complex.earlier(self.index)
        return None if j is None else self._complex.entry(j)

    def _one_degree_length(self) -> int | None:
        """c when the Hilbert series is c t^d, the whole (finite) length in
        the initial degree d; else None.  Then m H = 0, so c is also the
        number of minimal generators (graded Nakayama)."""
        nvars = self._complex.ring.poly_ring.nvars
        dim, length = dimension_and_multiplicity(self.numerator, nvars)
        c = self.numerator[self.initial_degree]
        return c if dim == 0 and length == c else None

    @property
    def betti0(self) -> int:
        if self._betti0 is None:
            earlier = self._earlier()
            self._betti0 = (earlier.betti0 if earlier is not None
                            else self.presentation.n_gens if self._complex.is_tensor(self.index)
                            else self._one_degree_length()
                            or len(self._minimal_cycles().gen_degs))
        return self._betti0

    @property
    def presentation(self) -> ModulePresentation:
        """The entry as a minimal presentation, built on first read."""
        if self._presentation is None:
            cx = self._complex
            if self.vanishes:
                pres = ModulePresentation.zero(cx.ring, cx.label(self.index))
            elif cx.is_tensor(self.index):
                pres = cx.tensor()
            else:
                pres = self._minimal_cycles().presentation().minimalize()
            if self._betti0 is not None and self._betti0 != pres.n_gens:
                raise InvariantError(f"{pres.label}: {pres.n_gens} minimal generators, "
                                     f"but betti0 read {self._betti0}")
            # the same series, computed once: no basis to keep for it
            pres._hf_num, pres._basis = self.numerator, None
            self._presentation, self._cycles = pres, None
            self._betti0 = pres.n_gens
        return self._presentation

    @property
    def depth(self) -> float:
        if self.vanishes:
            return INF
        if self.dim == 0:
            return 0
        earlier = self._earlier()
        return earlier.depth if earlier is not None else self.presentation.depth()

    @property
    def dim(self) -> float:
        return dimension_and_multiplicity(self.numerator, self._complex.ring.poly_ring.nvars)[0]

    @property
    def finite_length(self) -> bool:
        return self.dim <= 0

    @property
    def hilbert(self) -> dict:
        """Hilbert values from min(0, initial degree) through the degree bound."""
        if self._hilbert is None:
            lo = min(0, self.initial_degree) if self.initial_degree is not None else 0
            self._hilbert = hilbert_values(self.numerator, self._complex.ring.poly_ring.nvars, lo,
                                           self._complex.degree_bound)
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
    """Tor_i(M, N) for 0 <= i <= bound, each read off one complex F (x) N.

    The profile fills itself on first read and keeps no entry of its own:
    ``entry(i)`` is the complex's H_i (``_ResolutionComplex.entry``), built
    alone, with F the resolution of M that is cached on M's minimal
    presentation and extended only through step i + 1; ``tor0`` is
    ``entry(0)``, the minimal M (x) N, which reaches no step; and
    ``resolution`` is the complex's view of F, reached through step
    bound + 1.  Tor_i's numerator is K_(i+1) + K_i - HS(F_(i-1) (x) N), K_j
    the Hilbert numerator of coker(d_j (x) 1 | 1 (x) B) on term j - 1,
    which is Omega^(j-1) M (x) N; K_1 is Tor_0's, the minimal M (x) N's.
    Each K_j is computed once, from an untracked basis, and shared by
    Tor_(j-1) and Tor_j; the basis is kept for Tor_(j-1)'s greedy
    generator pass.  ``vanishing`` and ``periodicity`` are built when first
    read.  ``vanishing``, ``all_vanish_in_window`` and ``vanish_range``
    stop at the first nonzero Tor_i, and ``vanishing`` reads the resolution
    only when every Tor_i in the window vanishes.  ``vanishing_certified``
    over a certified complete intersection of codimension c whose window
    reaches c + 1 stops after Tor_(c+1) (Murthy's rigidity; see there),
    whatever was read before it, while the reads above never infer past
    what they build, so that statement 2.2 is checked on observations.
    ``entries`` and ``as_dict`` build everything.  A right-side profile of
    (M, N) resolves N: it is the left profile of (N, M), ``self.M`` being
    N, with ``side`` "right", and ``as_dict`` names the module and the
    argument in the caller's order.

    Once M's resolution repeats itself literally, d_m = d_(m-p) raised by
    t for m >= o + p (``FreeResolution.period``), K_j for j - p >= o is
    K_(j-p) twisted by t, and Tor_i for i - p >= o is Tor_(i-p)(-t): its
    numerator is copied, and its ``betti0`` and ``depth`` are read off
    Tor_(i-p), so no Groebner basis is built for it unless its
    ``presentation`` is read.  The copy is exact,
    because the resolution's later steps are exact copies; ``vanishing``
    and ``periodicity`` still report what they always did.
    """

    __slots__ = ("M", "N", "ring", "bound", "side", "_vanishing", "_periodicity", "_complex")

    def __init__(self, M, N, bound, degree_bound, side="left"):
        self.M = M
        self.N = N
        self.ring = M.ring
        self.bound = bound
        self.side = side
        self._vanishing = None
        self._periodicity = None
        self._complex = _ResolutionComplex(M, N, 1, degree_bound)  # F (x) N, built as read

    @property
    def degree_bound(self) -> int:
        """The last degree of each entry's Hilbert values, kept by the complex."""
        return self._complex.degree_bound

    def entry(self, i: int) -> HomologyEntry:
        """Tor_i for 0 <= i <= bound, built on first read."""
        if not 0 <= i <= self.bound:
            raise IndexError(f"Tor index {i} outside the window 0..{self.bound}")
        return self._complex.entry(i)

    @property
    def entries(self) -> list:
        return [self.entry(i) for i in range(1, self.bound + 1)]

    @property
    def tor0(self) -> HomologyEntry:
        return self.entry(0)

    @property
    def resolution(self) -> FreeResolution:
        """The complex's view of M's resolution, reached through step bound + 1."""
        return self._complex.reach(self.bound + 1).res

    @property
    def vanishing(self) -> dict:
        if self._vanishing is None:
            self._vanishing = _vanishing_evidence(self)
        return self._vanishing

    @property
    def vanishing_certified(self) -> bool:
        """Every Tor_i in the window vanishes and the evidence tier certifies
        the tail: finite projective dimension, periodicity or rigidity.

        Over a certified ring of codimension c with ``bound`` >= c + 1, this
        is Tor_1 = ... = Tor_(c+1) = 0 and nothing past it is built: by
        Murthy's rigidity theorem (1963, Thm 1.6; graded modules localized
        at the homogeneous maximal ideal) c + 1 consecutive vanishing Tor_i
        force every later one to vanish, so the window vanishes and the
        rigidity tier applies, and the boolean is the one the evidence
        would give.  ``vanishing``, ``all_vanish_in_window``,
        ``vanish_range`` and ``entries`` never infer: they stay
        observations, which the harness checks statement 2.2 (Murthy's
        theorem itself) against."""
        ring = self.ring
        if ring.certified and self.bound >= ring.codim + 1:
            return self.vanish_range(1, ring.codim + 1)
        v = self.vanishing
        return v["all_vanish_in_window"] and v["tier"] in ("pd-finite", "periodicity", "rigidity")

    @property
    def periodicity(self) -> list:
        """Tor_i against Tor_(i+2) for 1 <= i <= bound - 2."""
        if self._periodicity is None:
            entries = self.entries
            self._periodicity = []
            for a, b in zip(entries, entries[2:]):
                rec = {"i": a.index, "distance": 2, "equal": a.graded_data_equal(b)}
                if a.initial_degree is not None and b.initial_degree is not None:
                    rec["twist"] = b.initial_degree - a.initial_degree
                self._periodicity.append(rec)
        return self._periodicity

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
        module, argument = (self.N, self.M) if self.side == "right" else (self.M, self.N)
        return {"module": module.label, "argument": argument.label,
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
        # onsets o <= n - 2p over a view of n <= bound + 1 steps, so the
        # window reaches o + p - 1 <= bound - p: it covers one period
        per = detect_periodicity(res)
        if per["periodic"]:
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
    numerator of H_i, ``cycles(i)`` its minimal cycles, ``entry(i)`` the one
    ``HomologyEntry`` of H_i, whose Hilbert values run through
    ``degree_bound``.  The period of F, once F has one, is read off the
    resolution view (``FreeResolution.period``).
    """

    __slots__ = ("M", "N", "ring", "sign", "degree_bound", "Nmin", "res", "entries", "_tensor",
                 "_cokernels", "_bases")

    def __init__(self, M: ModulePresentation, N: ModulePresentation, sign: int,
                 degree_bound=None):
        self.M, self.N, self.ring, self.sign = M, N, M.ring, sign
        self.degree_bound = degree_bound
        self.Nmin = self.res = self._tensor = None
        self.entries: dict = {}      # i -> H_i, see ``entry``
        self._cokernels: dict = {}   # term i -> C(i), see ``cokernel``
        self._bases: dict = {}       # term i -> basis of its image, for one greedy pass

    def reach(self, steps: int) -> "_ResolutionComplex":
        if self.res is None or self.res.truncation < steps:
            self.res = resolve(self.M, steps=steps)
            if self.Nmin is None:
                self.Nmin = self.N.minimalize()
        return self

    def entry(self, i: int) -> HomologyEntry:
        """H_i, built on first read, with F reaching step i + 1; Tor_0, the
        minimal M (x) N, reaches no step."""
        e = self.entries.get(i)
        if e is None:
            cx = self if self.is_tensor(i) else self.reach(i + 1)
            e = self.entries[i] = HomologyEntry(i, cx)
        return e

    def is_tensor(self, i: int) -> bool:
        """H_i is Tor_0, M (x) N, read off ``tensor()``."""
        return i == 0 and self.sign > 0

    def _back(self, j: int):
        """(p, t) when d_j is a copy of d_(j-p) raised by t (``FreeResolution.period``:
        j - p >= o), else None."""
        period = self.res.period if self.res is not None else None
        if period is None or j - period[1] < period[0]:
            return None
        return period[1:]

    def earlier(self, i: int) -> int | None:
        """i - p when d_i and d_(i+1), the maps H_i reads, are copies of
        d_(i-p) and d_(i+1-p), so that H_i is H_(i-p) twisted; else None."""
        back = self._back(i)
        return None if back is None else i - back[0]

    def label(self, i: int) -> str:
        return f"{'Tor' if self.sign > 0 else 'Ext'}{i}({self.M.label},{self.N.label})"

    def _step(self, i: int) -> tuple:
        return self.res.step_degrees(i) if i >= 0 else ()

    def degs(self, i: int) -> tuple:
        return tuple(self.sign * a + b for a in self._step(i) for b in self.Nmin.gen_degs)

    def rels(self, i: int) -> PolyMatrix | None:
        degs = tuple(self.sign * a for a in self._step(i))
        return self.Nmin.relations.identity_kron(degs) if degs else None

    def _map(self, i: int) -> PolyMatrix | None:
        """d_i (d_i^T for Hom), or None past the resolution."""
        d = self.res.differential(i)
        return d if d is None or self.sign > 0 else d.transpose()

    def kron(self, i: int) -> PolyMatrix | None:
        """d_i tensor N (d_i^T for Hom), or None past the resolution."""
        d = self._map(i)
        return None if d is None else d.kron_identity(self.Nmin.gen_degs)

    def tensor(self) -> ModulePresentation:
        """M (x) N as ``ModulePresentation.tensor`` presents it, minimalized:
        Tor_0, and the term-0 cokernel of F tensor N."""
        if self._tensor is None:
            self._tensor = self.M.tensor(self.N).minimalize()
        return self._tensor

    def cycles(self, i: int) -> MinimalCycles:
        """The minimal cycles of term i (i >= 1 for Tor); the greedy pass
        takes the term's basis kept by ``cokernel``, once, instead of
        building it."""
        lower, upper = self.kron(i), self.kron(i + 1)
        outgoing, incoming = (lower, upper) if self.sign > 0 else (upper, lower)
        return minimal_cycles(self.ring, self.degs(i), outgoing, self.rels(i - self.sign),
                              incoming, self.rels(i), label=self.label(i),
                              basis=self._bases.pop(i, None))

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
        greedy pass of ``cycles(i)``.  Tor's C(0) is ``tensor()``'s.  When
        the map in is a copy of the one a period p back raised by t, the
        cokernel is C(i - p) twisted by sign * t, and no basis is built."""
        num = self._cokernels.get(i)
        if num is None:
            back = self._back(i + 1 if self.sign > 0 else i)
            if back is not None:
                num = add_numerator({}, self.cokernel(i - back[0]), self.sign * back[1])
            elif self.is_tensor(i):
                num = self.tensor().hilbert_numerator()
            else:
                num = self._cokernel(i)
            self._cokernels[i] = num
        return num

    def _cokernel(self, i: int) -> dict:
        degs = self.degs(i)
        d = self._map(i + 1 if self.sign > 0 else i) if degs else None
        if d is None:   # no map in: the whole term
            return self.term_numerator(i)
        gb = relation_basis(FreeModule(self.ring.poly_ring, degs), self.ring.quotient_gens,
                            d.kron_identity_columns(len(self.Nmin.gen_degs))
                            + self.Nmin.relations.identity_kron_columns(len(self._step(i))))
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
    recomputation used for cross-checks): the left profile of (N, M),
    marked right.  The arguments are checked here (``bound`` >= 1,
    ``degree_bound`` >= 0); every Tor module is built on first read (see
    ``TorProfile``).
    """
    M.check_same_ring(N)
    if side not in ("left", "right"):
        raise ValueError(f"side must be left or right, not {side!r}")
    _check_bounds(bound, degree_bound)
    if side == "right":
        M, N = N, M
    return TorProfile(M, N, bound, degree_bound, side)


def ext_profile(M: ModulePresentation, N: ModulePresentation, bound: int,
                degree_bound: int = 8) -> list:
    """HomologyEntry list for Ext^i(M, N), i = 1..bound (``bound`` >= 1,
    ``degree_bound`` >= 0), as H_i of Hom(F, N): each entry reads its
    numeric fields off its Hilbert numerator and builds its minimal cycles
    and presentation only when a field needs them (see ``HomologyEntry``)."""
    M.check_same_ring(N)
    _check_bounds(bound, degree_bound)
    cx = _ResolutionComplex(M, N, -1, degree_bound).reach(bound + 1)
    return [cx.entry(i) for i in range(1, bound + 1)]


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


def ring_depth(ring: RingPresentation) -> float:
    """Depth of R as a module over itself: dim R when R is a certified
    complete intersection, which is Cohen-Macaulay, with nothing resolved;
    otherwise ambient Auslander-Buchsbaum (``ModulePresentation.depth``)."""
    if ring.certified:
        return ring.dimension()
    return ModulePresentation.free(ring, (0,)).depth()


def depth_formula_check(profile: TorProfile) -> dict:
    """Both sides of depth M + depth N = depth R + depth(M tensor N), on the
    modules and the window of ``profile``, ``tor_profile(M, N, bound,
    degree_bound)``, with every depth and side encoded.

    ``holds`` is the raw equality; ``asserted`` additionally requires the
    certified vanishing hypothesis (``hypothesis_met``), and ``tier`` states
    which certificate backed it (the report never asserts from a bare
    window).  When the resolution terminated, ``shifted_form`` also
    evaluates the classical shifted variant depth M + depth N = depth R +
    depth(Tor_q) - q at the top nonvanishing index q (applicable when q = 0
    or that depth is <= 1).
    """
    M, N = (profile.N, profile.M) if profile.side == "right" else (profile.M, profile.N)
    tier = profile.vanishing["tier"]
    hypothesis_met = profile.vanishing_certified
    tensor = profile.tor0.presentation  # M (x) N, already minimalized as Tor_0
    depth_M, depth_N = M.depth(), N.depth()
    depth_R, depth_T = ring_depth(M.ring), tensor.depth()
    left, right = depth_M + depth_N, depth_R + depth_T
    shifted = None
    if profile.resolution.terminated and profile.resolution.length() <= profile.bound:
        q = next((i for i in range(profile.bound, 0, -1) if not profile.vanishes(i)), 0)
        depth_q = depth_T if q == 0 else profile.entry(q).depth
        applicable = q == 0 or depth_q <= 1
        shifted = {"q": q,
                   "depth_tor_q": encode_infinite(depth_q),
                   "applicable": applicable,
                   "holds": (left == depth_R + depth_q - q)
                   if applicable and depth_q != INF else None}
    enc = encode_infinite
    return {"depth_M": enc(depth_M), "depth_N": enc(depth_N),
            "depth_ring": enc(depth_R), "depth_tensor": enc(depth_T),
            "left": enc(left), "right": enc(right),
            "holds": left == right, "hypothesis_met": hypothesis_met,
            "tier": tier, "asserted": bool(hypothesis_met and left == right),
            "shifted_form": shifted}
