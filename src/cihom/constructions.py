"""Pushforward and quasi-lifting constructions with exactness certificates.

The pushforward of a torsion-free module M embeds M into a free module
through a minimal generating set of its dual and takes the cokernel; the
quasi-lifting lifts that cokernel's kernel one ring up, splitting off a
designated quotient generator.  Both constructions certify their short
exact sequences computationally (kernel, cokernel and middle homology
have no minimal cycles) rather than by fiat: ``homology.minimal_cycles``
keeps a minimal generating set, so by graded Nakayama a subquotient is
zero exactly when no cycle survives, and no relation among the cycles is
built.  Downstream consumers only use iso-invariant data, so the
non-canonical choice of generators is harmless.
"""

from __future__ import annotations

from .fmodules import ModulePresentation, PolyMatrix
from .groebner import FreeModule
from .homology import MinimalCycles, minimal_cycles, subquotient_presentation
from .inputs import InvalidSplitError
from .rings import (HypothesisMissingError, RingPresentation, encode_infinite, ideal_contains,
                    ideal_groebner)


class TorsionInputError(HypothesisMissingError):
    """The construction requires a torsion-free module; carries a witness."""

    def __init__(self, module, kernel):
        self.module = module
        self.kernel = kernel
        super().__init__(
            f"{module.label} has torsion: the biduality kernel has "
            f"{kernel.n_gens} minimal generator(s)")


class PushforwardResult:
    """M embedded in a free module by its dual's minimal generators.

    Fields: the embedding matrix on generators, the free rank m = beta_0 of
    the dual, the cokernel, and the exactness certificate for
    0 -> M -> R^(m) -> cokernel -> 0.
    """

    __slots__ = ("M", "M1", "u", "m", "free_degs", "certificate")

    def __init__(self, M, M1, u, m, free_degs, certificate):
        self.M = M
        self.M1 = M1
        self.u = u
        self.m = m
        self.free_degs = free_degs
        self.certificate = certificate

    def as_dict(self):
        return {"module": self.M.label, "m": self.m,
                "pushforward_gens": self.M1.minimalize().n_gens,
                "certificate": dict(self.certificate)}

    def __repr__(self):
        return (f"PushforwardResult({self.M.label}: m={self.m}, "
                f"exact={all(self.certificate.values())})")


def pushforward(M: ModulePresentation) -> PushforwardResult:
    """The short exact sequence 0 -> M -> R^(m) -> M1 -> 0.

    Requires a torsion-free module over a certified complete intersection;
    m is the minimal generator count of Hom(M, R) and the embedding sends a
    generator to its tuple of values under those dual generators.
    """
    M.ring.require_certified()
    Mmin = M.minimalize()
    if Mmin.n_gens == 0:
        zero = ModulePresentation.zero(M.ring, label=f"{M.label}1")
        cert = {"kernel_zero": True, "middle_exact": True, "cokernel_by_construction": True}
        return PushforwardResult(Mmin, zero, PolyMatrix.zero(M.ring.poly_ring, (), ()),
                                 0, (), cert)
    if not Mmin.is_torsion_free():   # witness ker(M -> M**): M when M* = 0, else ker u
        kernel = Mmin if Mmin._dual_is_zero() else subquotient_presentation(
            M.ring, Mmin.gen_degs, Mmin.dual_generators().transpose(), None, None,
            Mmin.relations, label="ker").minimalize()
        raise TorsionInputError(Mmin, kernel)
    pr = M.ring.poly_ring
    dual_gens = Mmin.dual_generators()
    m = dual_gens.ncols
    free_degs = tuple(-g for g in dual_gens.col_degs)
    # embedding on generators: column i lists the dual generators' values at e_i
    u = dual_gens.transpose()
    M1 = ModulePresentation(M.ring, free_degs, u, label=f"{M.label}1").minimalize()
    # middle homology of M -> R^(m) -> M1 at the free spot
    middle = minimal_cycles(M.ring, free_degs, PolyMatrix.identity(pr, free_degs), u, u, None,
                            label="middle")
    # ker u from its minimal cycles checks the numerator torsion-free verdict
    kernel = minimal_cycles(M.ring, Mmin.gen_degs, u, None, None, Mmin.relations, label="ker")
    cert = {"kernel_zero": not kernel.gen_degs,
            "middle_exact": not middle.gen_degs,
            "cokernel_by_construction": True}
    return PushforwardResult(Mmin, M1, u, m, free_degs, cert)


class QuasiLiftingResult:
    """The lift E over the intermediate ring, with both exact sequences.

    E is kept in its raw presentation (generators = embedding columns plus
    the split generator times the basis), so the connecting maps of the
    sequence 0 -> M1 -> E/fE -> M -> 0 are literal block matrices; a
    minimalized copy is used for profiles.
    """

    __slots__ = ("M", "M1", "E", "E_min", "intermediate", "split_poly",
                 "certificate", "depth_check", "free_off_split")

    def __init__(self, M, M1, E, E_min, intermediate, split_poly, certificate,
                 depth_check, free_off_split):
        self.M = M
        self.M1 = M1
        self.E = E
        self.E_min = E_min
        self.intermediate = intermediate
        self.split_poly = split_poly
        self.certificate = certificate
        self.depth_check = depth_check
        self.free_off_split = free_off_split

    def as_dict(self):
        return {"module": self.M.label, "intermediate": self.intermediate.label,
                "split": self.split_poly.text(),
                "lift_gens": self.E_min.n_gens,
                "certificate": dict(self.certificate),
                "depth_check": self.depth_check,
                "free_off_split": self.free_off_split}

    def __repr__(self):
        return (f"QuasiLiftingResult({self.M.label} over {self.intermediate.label}, "
                f"exact={all(self.certificate.values())})")


def quasi_lifting(M: ModulePresentation, split) -> QuasiLiftingResult:
    """Quasi-lifting of M with respect to R = S'/(split).

    ``split`` designates one quotient generator (by index or by polynomial);
    S' is the ambient ring modulo the remaining generators and must itself be
    a certified complete intersection.  Certifies exactness of
    0 -> E -> S'^(m) -> M1 -> 0 and of 0 -> M1 -> E/fE -> M -> 0, and checks
    the depth relation depth_{S'}(E) = depth_R(M1) + 1 when M1 is nonzero.
    """
    ring = M.ring
    ring.require_certified()
    gens = list(ring.quotient_gens)
    if isinstance(split, int):
        if not 0 <= split < len(gens):
            raise InvalidSplitError(f"split index {split} out of range")
        f = gens[split]
    else:
        matches = [g for g in gens if g == split]
        if not matches:
            raise InvalidSplitError(f"{split} is not a quotient generator of {ring.label}")
        f = matches[0]
    rest = [g for g in gens if g is not f]
    intermediate = RingPresentation(ring.poly_ring, rest,
                                    label=f"{ring.label}'")
    if not intermediate.certified:
        raise InvalidSplitError(
            f"remaining generators do not form a regular sequence: "
            f"{intermediate.verify_regular_sequence()}")

    pf = pushforward(M)
    Mmin = pf.M
    m = pf.m
    free_degs = pf.free_degs
    pr = ring.poly_ring
    fd = f.degree()

    # E = ker(S'^(m) -> M1): generated by the embedding columns and f*basis,
    # the inclusion u | f (x) 1
    incl = pf.u.hstack(PolyMatrix(pr, (0,), (fd,), [[f]]).kron_identity(free_degs))
    col_degs = incl.col_degs
    E = MinimalCycles(intermediate, FreeModule(pr, free_degs), incl.columns(), col_degs, (),
                      label=f"lift({M.label})").presentation()
    rels = E.relations
    E_min = E.minimalize()

    # (QL) exactness: inclusion composed with projection vanishes, and the
    # middle homology of E -> S'^(m) -> M1 is zero over S'
    middle_ql = minimal_cycles(intermediate, free_degs, PolyMatrix.identity(pr, free_degs),
                               incl, incl, None, label="QLmiddle")
    incl_kernel = minimal_cycles(intermediate, col_degs, incl, None, None, rels, label="ker")

    # connecting sequence over R: 0 -> M1 -> E/fE -> M -> 0 with block maps,
    # E/fE presented by E's relations over R
    p = Mmin.n_gens
    alpha = PolyMatrix.zero(pr, col_degs, tuple(d + fd for d in free_degs))
    for k in range(m):
        alpha.entries[p + k][k] = pr.one()
    # alpha has a column per generator of S'^(m), so its source is M1 on those
    # generators, not the minimalized M1 (which can have fewer)
    M1_twist = ModulePresentation(ring, free_degs, pf.u).twist(fd)
    beta = PolyMatrix.zero(pr, Mmin.gen_degs, col_degs)
    for j in range(p):
        beta.entries[j][j] = pr.one()
    alpha_kernel = minimal_cycles(ring, M1_twist.gen_degs, alpha, rels, None,
                                  M1_twist.relations, label="ker")
    # M modulo the image of beta: the identity columns modulo beta and M's relations
    beta_coker = minimal_cycles(ring, Mmin.gen_degs, None, None, beta, Mmin.relations,
                                label="coker")
    middle_conn = minimal_cycles(ring, col_degs, beta, Mmin.relations, alpha, rels,
                                 label="connmiddle")

    certificate = {
        "ql_kernel_by_construction": True,
        "ql_inclusion_injective": not incl_kernel.gen_degs,
        "ql_middle_exact": not middle_ql.gen_degs,
        "conn_alpha_injective": not alpha_kernel.gen_degs,
        "conn_beta_surjective": not beta_coker.gen_degs,
        "conn_middle_exact": not middle_conn.gen_degs,
    }

    M1_min = pf.M1.minimalize()
    dE, dM1 = E_min.depth(), M1_min.depth()   # depth of M1 = 0 is inf
    depth_check = {"depth_lift": encode_infinite(dE),
                   "depth_pushforward": encode_infinite(dM1),
                   "holds": not M1_min.n_gens or dE == dM1 + 1}

    free_off_split = _free_off_hypersurface(E_min, intermediate, f)
    return QuasiLiftingResult(Mmin, pf.M1, E, E_min, intermediate, f,
                              certificate, depth_check, free_off_split)


def _free_off_hypersurface(E: ModulePresentation, intermediate: RingPresentation, f) -> dict:
    """Spot check that E localizes free away from V(f): the non-free locus
    must be contained in V(f), tested by radical membership of f through the
    powers f..f^8 (recorded as spot-checked, not proven)."""
    ext1 = E.nonfree_locus_module()
    if ext1.n_gens == 0:
        return {"status": "free-everywhere", "ok": True}
    gb = ideal_groebner(intermediate.poly_ring,
                        list(intermediate.quotient_gens) + ext1.fitting_ideal(0))
    power = intermediate.poly_ring.one()
    for k in range(1, 9):
        power = power * f
        if ideal_contains(gb, power):
            return {"status": f"nonfree-locus inside V(split): f^{k} in the locus ideal",
                    "ok": True, "power": k}
    return {"status": "inconclusive within power bound", "ok": False}
