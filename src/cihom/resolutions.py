"""Minimal graded free resolutions, Betti tables, complexity, periodicity.

Resolutions are built by iterated syzygy computation: each differential's
columns are pruned to a minimal generating set of the kernel, which keeps
every later differential's entries inside the irrelevant ideal (graded
Nakayama), so minimality is structural and asserted per step.  Over the
ambient ring S resolutions terminate by the syzygy theorem: they stop after
d_(dim S), whose syzygies are zero and are not computed.  Over quotients
they are truncated at a requested bound.

A resolution that repeats itself literally is copied, not recomputed.  When
a computed d_n equals d_(n-p) entry for entry, p <= 3, with every row and
column degree raised by one twist t, the cache records (onset o = n - p,
period p, twist t), and every later d_m is d_(m-p) with its degrees raised
by t, with no syzygy computation.  The copy is exact, byte for byte what the
engine would compute: a step reads only the previous differential, and a
uniform twist moves every term code of the step's module order by one
constant, so every comparison, lcm, divisibility test and heap pop is the
same, while tracking, reduction and the dedupe of syzygies never read
degrees.  Over a hypersurface every minimal resolution becomes 2-periodic
(Eisenbud 1980), and the engine reproduces the period literally: for k
over a quadric, d_6 is d_4 with its degrees raised by 2.  A literal
period certifies no complexity by itself; ``FreeResolution.period`` only
says which steps are copies.

Periodicity is certified: constant invertible A and B, degree-preserving up
to one twist t, with A.d_(o+p) = d_o.B are an isomorphism syz^(o+p-1) M =
syz^(o-1) M(-t), so by uniqueness of minimal resolutions the whole tail is
p-periodic from o on, in every codimension.  The pairs (A, B) solve a linear
system over k, which the syzygy engine solves.  This equivalence can come
before the literal period: for k over the quadric it is period 1 at onset 4
through a constant base change, while the literal period is 2.

A resolution cache is append-only and extended by the single task that
requested it; returned FreeResolution views are immutable and safe to share.
"""

from __future__ import annotations

import itertools
import random

from .fmodules import ModulePresentation, PolyMatrix
from .groebner import (FreeModule, minimal_generator_indices, one_degree_generator_indices,
                       syzygy_generators)
from .polynomials import InvariantError


class MinimalityRequiredError(ValueError):
    pass


class InsufficientWindowError(ValueError):
    pass


class FreeResolution:
    """A chain of homogeneous matrices d1, d2, ... with d_i d_{i+1} = 0.

    ``differentials[i]`` is d_{i+1}: F_{i+1} -> F_i; generator degrees of F_i
    are the column degrees of d_i (row degrees of d_1 for F_0).  ``terminated``
    records that the next syzygy module is zero, certifying finite projective
    dimension.  ``period`` is (onset o, period p, twist t) when d_(o+p) is
    among the differentials and equals d_o with every degree raised by t, so
    that d_m is d_(m-p) raised by t for every m >= o + p; else None.
    Immutable once returned.
    """

    __slots__ = ("module", "differentials", "truncation", "terminated", "period")

    def __init__(self, module: ModulePresentation, differentials, truncation, terminated,
                 period=None):
        self.module = module
        self.differentials = list(differentials)
        self.truncation = truncation
        self.terminated = terminated
        self.period = period

    @property
    def ring(self):
        return self.module.ring

    def steps_computed(self) -> int:
        return len(self.differentials)

    def betti_numbers(self):
        """(beta_0, beta_1, ...) through every computed step (plus trailing
        zeros when the resolution terminated early)."""
        if not self.differentials:
            betti = [self.module.minimalize().n_gens]
        else:
            betti = [self.differentials[0].nrows] + [d.ncols for d in self.differentials]
        if self.terminated:
            betti += [0] * (self.truncation + 1 - len(betti))
        return betti

    def step_degrees(self, i: int):
        """Generator degrees of F_i (empty past a terminated resolution)."""
        if i == 0:
            return self.module.minimalize().gen_degs
        if i > len(self.differentials):
            if self.terminated:
                return ()
            raise ValueError(f"resolution computed only through step {len(self.differentials)}")
        return self.differentials[i - 1].col_degs

    def differential(self, i: int) -> PolyMatrix | None:
        """d_i: F_i -> F_{i-1}, or None past the computed/terminated range."""
        if 1 <= i <= len(self.differentials):
            return self.differentials[i - 1]
        return None

    def length(self):
        """Projective dimension when terminated; otherwise a lower bound."""
        betti = self.betti_numbers()
        last = max((i for i, b in enumerate(betti) if b), default=0)
        return last

    def syzygy_module(self, i: int) -> ModulePresentation:
        """syz^i(M) = image of d_i, presented as coker(d_{i+1})."""
        if i == 0:
            return self.module
        if i > len(self.differentials):
            raise ValueError(f"resolution computed only through step {len(self.differentials)}")
        gen_degs = self.step_degrees(i)
        nxt = self.differential(i + 1)
        if nxt is None:
            nxt = PolyMatrix.zero(self.ring.poly_ring, gen_degs, ())
        return ModulePresentation(self.ring, gen_degs, nxt,
                                  label=f"syz^{i}({self.module.label})")

    def minimality_certificate(self) -> bool:
        """No differential entry has a nonzero constant term."""
        return not any(p.constant_value() for d in self.differentials
                       for row in d.entries for p in row)

    def __repr__(self):
        return (f"FreeResolution({self.module.label} over {self.ring.label}, "
                f"betti={self.betti_numbers()}, terminated={self.terminated})")


def resolve(M: ModulePresentation, steps: int, over: str = "quotient") -> FreeResolution:
    """Minimal free resolution of M, truncated after ``steps`` differentials.

    over='ambient' resolves the underlying S-module (quotient relations
    appended); such resolutions always terminate within dim S steps.  Results
    are cached on the minimal presentation and extended on demand.

    Each computed d_n is compared with d_(n-1), d_(n-2) and d_(n-3) (shape
    and twist first, then the entries); on the first literal repeat
    (``_literal_period``) the cache records (o, p, t), and from then on each
    step is d_(m-p) with its degrees raised by t, exactly what the syzygy
    computation would return (see the module docstring).

    A computed step keeps a minimal generating subset of the syzygy
    candidates, which come reduced modulo the quotient ideal.  When they
    all have one degree d the kernel is zero below d, so a candidate is
    redundant exactly when it is a k-combination of those kept before it:
    ``one_degree_generator_indices`` decides that on the coefficients, with
    no Groebner basis.  Other steps take the greedy pass,
    ``minimal_generator_indices``.  Both keep the same indices.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if over == "ambient":
        return resolve(M.ambient_presentation(), steps=max(steps, M.ring.poly_ring.nvars + 1))
    if over != "quotient":
        raise ValueError(f"unknown resolution target {over!r}")
    Mmin = M.minimalize()
    if Mmin._res_cache is None:
        Mmin._res_cache = {"diffs": [], "terminated": False, "period": None}
    cache = Mmin._res_cache
    diffs = cache["diffs"]
    ring = Mmin.ring
    pr = ring.poly_ring
    while not cache["terminated"] and len(diffs) < steps:
        if not diffs:
            diffs.append(Mmin.relations)
            if Mmin.n_rels == 0:
                cache["terminated"] = True
            continue
        if cache["period"] is not None:
            _, p, t = cache["period"]
            e = diffs[-p]
            diffs.append(PolyMatrix(pr, tuple(r + t for r in e.row_degs),
                                    tuple(c + t for c in e.col_degs), e.entries))
            continue
        if not ring.quotient_gens and len(diffs) >= pr.nvars:
            # syzygy theorem: d_(dim S) of a minimal S-resolution is injective
            cache["terminated"] = True
            break
        prev = diffs[-1]
        syz, degs = syzygy_generators(prev.columns(), list(prev.col_degs),
                                      FreeModule(pr, prev.row_degs), ring)
        if len(set(degs)) == 1:
            alive = one_degree_generator_indices(syz, pr.field)
        else:
            alive = minimal_generator_indices(syz, degs, FreeModule(pr, prev.col_degs),
                                              ring.quotient_gens)
        if not alive:
            cache["terminated"] = True
            break
        alive.sort(key=lambda i: (degs[i], i))
        d = PolyMatrix.from_columns(pr, prev.col_degs, [syz[i] for i in alive],
                                    tuple(degs[i] for i in alive))
        for row in d.entries:
            for p in row:
                if p and p.is_constant():
                    raise InvariantError("minimality violated in resolution step")
        diffs.append(d)
        cache["period"] = _literal_period(diffs)
    period = cache["period"]
    if period is not None and period[0] + period[1] > steps:
        period = None
    return FreeResolution(Mmin, diffs[:steps], steps,
                          cache["terminated"] and len(diffs) <= steps, period)


def _literal_period(diffs):
    """(o, p, t) for the first p <= _MAX_PERIOD with d_n = d_(n-p) raised by
    one twist t, n = len(diffs) and o = n - p >= 1, or None.  A pair of
    another shape or without one twist is rejected before any entry is
    compared."""
    n, d = len(diffs), diffs[-1]
    for p in range(1, min(_MAX_PERIOD, n - 1) + 1):
        e = diffs[n - 1 - p]
        if (e.nrows, e.ncols) != (d.nrows, d.ncols):
            continue
        t = d.row_degs[0] - e.row_degs[0]
        if (d.row_degs == tuple(r + t for r in e.row_degs)
                and d.col_degs == tuple(c + t for c in e.col_degs)
                and d.entries == e.entries):
            return n - p, p, t
    return None


def betti_table(res: FreeResolution) -> dict:
    """Betti numbers beta_i = rank F_i, with the graded refinement beta_{i,j}:
    ``{"betti", "graded", "truncation"}``, ``graded`` keyed by the step as a
    string, each step's counts sorted by degree."""
    if not res.minimality_certificate():
        raise MinimalityRequiredError("betti numbers require a minimal resolution")
    betti = res.betti_numbers()
    graded = {}
    for i in range(min(len(betti), res.steps_computed() + 1)):
        degs = res.step_degrees(i)
        counts: dict = {}
        for d in degs:
            counts[d] = counts.get(d, 0) + 1
        graded[str(i)] = dict(sorted(counts.items()))
    return {"betti": list(betti), "graded": graded, "truncation": res.truncation}


def _difference_order(seq):
    """Smallest s >= 1 with the order-s differences identically zero, or None."""
    cur = list(seq)
    for s in range(1, len(seq)):
        cur = [b - a for a, b in zip(cur, cur[1:])]
        if not cur:
            return None
        if all(v == 0 for v in cur):
            return s
    return None


def complexity_estimate(betti, codim: int, window: int | None = None) -> dict:
    """Estimate the complexity of a module from a Betti-number window.

    Returns ``{"value", "window", "evidence", "conflict", "at_least"}``.
    value 0 iff the sequence hits zero; otherwise the smallest s >= 1 whose
    order-s finite differences vanish on the tail window (checked on the even
    and odd subsequences too, since tails can be parity-polynomial).  Clamped
    to the codimension with a conflict flag, and the codimension with
    ``at_least`` when no order is found; always an estimate from the window,
    never a proof.
    """
    betti = list(betti)
    if window is None:
        window = len(betti)
    if len(betti) < 4:
        raise InsufficientWindowError(
            f"betti window of length {len(betti)} is too short (need >= 4)")
    evidence = {"betti": betti, "recommended_window": 2 * codim + 4,
                "window_ok": len(betti) >= 2 * codim + 4}
    at_least = False
    if any(b == 0 for b in betti):
        evidence["zero_at"] = betti.index(0)
        value = 0
    else:
        # drop the first entries: polynomial behaviour is a tail phenomenon
        tail = betti[2:] if len(betti) >= 6 else betti
        value = _difference_order(tail)
        if value is not None:
            evidence["difference_order"] = value
        else:
            se, so = (_difference_order(part) if len(part) >= 2 else None
                      for part in (tail[::2], tail[1::2]))
            evidence["difference_order_even"] = se
            evidence["difference_order_odd"] = so
            at_least = se is None or so is None
            value = codim if at_least else max(se, so)
    return {"value": min(value, codim), "window": window, "evidence": evidence,
            "conflict": value > codim, "at_least": at_least}


def default_betti_window(ring) -> int:
    """The default resolution length over ``ring``: 2 dim R + 2 codim + 4."""
    return 2 * int(ring.dimension()) + 2 * ring.codim + 4


def module_complexity(M: ModulePresentation, window: int) -> dict:
    """Complexity estimate from a Betti window of ``window`` resolution steps."""
    res = resolve(M, steps=window)
    return complexity_estimate(res.betti_numbers()[:window + 1], M.ring.codim, window)


class InsufficientStepsError(ValueError):
    pass


_MAX_PERIOD = 3
_COMBINATIONS = 4  # seeded combinations of the solution space tried for an invertible pair


def _invertible(mat: PolyMatrix) -> bool:
    """A square constant matrix keeps every column as a minimal generator:
    its columns, constants of one degree, are linearly independent."""
    return len(one_degree_generator_indices(mat.columns(), mat.poly_ring.field)) == mat.ncols


def _equivalence(D: PolyMatrix, E: PolyMatrix):
    """Constant invertible matrices (A, B) with A.E = D.B, or None.

    E's degrees are D's up to one twist t, which A and B preserve.  Entries
    are reduced modulo the quotient ideal, and so is every k-combination of
    them, so A.E = D.B over the ring is one linear equation over k per entry
    and monomial.  Its solutions are the syzygies of the unknowns' constant
    coefficient columns, all of degree 0; a few seeded combinations of them
    are tried for an invertible pair, and over a prime field of at most 7
    elements a solution space of at most 729 elements is tried whole.
    """
    r, c = D.nrows, D.ncols
    twists = {e - d for d, e in zip(sorted(D.row_degs), sorted(E.row_degs))}
    if (E.nrows, E.ncols) != (r, c) or not r or not c or len(twists) != 1:
        return None
    t = twists.pop()
    # A constant base change keeps the k-span of the entries: both use the same monomials.
    monomials = [{m for row in mat.entries for p in row for m in p.terms} for mat in (D, E)]
    if sorted(E.col_degs) != sorted(d + t for d in D.col_degs) or monomials[0] != monomials[1]:
        return None
    pr, field = D.poly_ring, D.poly_ring.field
    a_vars = [(i, k) for i in range(r) for k in range(r) if E.row_degs[k] == D.row_degs[i] + t]
    b_vars = [(s, j) for s in range(c) for j in range(c) if E.col_degs[j] == D.col_degs[s] + t]
    equations: dict = {}  # (row i, column j, monomial) of A.E - D.B -> position
    columns = [{equations.setdefault((i, j, m), len(equations)): v
                for j in range(c) for m, v in E.entries[k][j].terms.items()} for i, k in a_vars]
    columns += [{equations.setdefault((i, j, m), len(equations)): -v
                 for i in range(r) for m, v in D.entries[i][s].terms.items()} for s, j in b_vars]
    zero = pr.zero()
    dense = []
    for col in columns:
        entries = [zero] * len(equations)
        for e, v in col.items():
            entries[e] = pr.constant(v)
        dense.append(tuple(entries))
    kernel, _ = syzygy_generators(dense, [0] * len(columns),
                                  FreeModule(pr, (0,) * len(equations)))
    rng = random.Random(0)
    tries = [[rng.randrange(1, 1 << 15) for _ in kernel] for _ in range(_COMBINATIONS)]
    p = next((n for n in range(2, 8) if not field.from_int(n)), 0)
    if p and kernel and p ** len(kernel) <= 729:
        tries += itertools.product(range(p), repeat=len(kernel))
    for ints in tries:
        x = [zero] * len(columns)
        for vec, n in zip(kernel, ints):
            coeff = field.from_int(n)
            x = [xu + vu.scale(coeff) if vu else xu for xu, vu in zip(x, vec)]
        a, b = [[zero] * r for _ in range(r)], [[zero] * c for _ in range(c)]
        for u, v in enumerate(x):
            mat, (i, k) = (a, a_vars[u]) if u < len(a_vars) else (b, b_vars[u - len(a_vars)])
            mat[i][k] = v
        A = PolyMatrix(pr, tuple(d + t for d in D.row_degs), E.row_degs, a)
        B = PolyMatrix(pr, D.col_degs, tuple(e - t for e in E.col_degs), b)
        if _invertible(A) and _invertible(B):
            return A, B
    return None


def detect_periodicity(res: FreeResolution) -> dict:
    """The first period p <= 3, then onset 1 <= o <= n - 2p (n computed steps),
    with d_o and d_(o+p) equivalent (``_equivalence``), which certifies that
    the whole tail is p-periodic from o on.  ``periodic: False`` means no such
    equivalence in the window, not a proof that the resolution is not
    periodic; a finite resolution is never periodic.  Needs >= 6 steps.
    """
    if res.terminated:
        return {"periodic": False, "period": None, "onset": None}
    n = res.steps_computed()
    if n < 6:
        raise InsufficientStepsError("periodicity detection needs >= 6 resolution steps")
    for period in range(1, _MAX_PERIOD + 1):
        for onset in range(1, n - 2 * period + 1):
            if _equivalence(res.differential(onset), res.differential(onset + period)):
                return {"periodic": True, "period": period, "onset": onset}
    return {"periodic": False, "period": None, "onset": None}
