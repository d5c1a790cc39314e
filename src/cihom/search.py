"""Randomized searches around the open questions.

Each target samples random finitely presented modules over a declared ring,
evaluates the question's hypotheses, and logs any instance where they hold
while the questioned conclusion fails in the computed window (a candidate
counterexample flagged for manual audit) together with all near-misses.
Runs are reproducible from the seed; known instances can be prepended so
the expected near-misses appear deterministically.
"""

from __future__ import annotations

import random

from .fmodules import ModulePresentation
from .homology import tor_profile
from .polynomials import monomials_of_degree
from .rings import INF, HypothesisMissingError, RingPresentation


KNOWN_QUESTIONS = ("3.17", "4.16", "4.18", "4.10", "3.6")


class SearchConfig:
    """Reproducible sampling parameters for one question."""

    __slots__ = ("ring", "question", "samples", "seed", "max_gens", "max_deg",
                 "tor_bound", "degree_bound", "preset")

    def __init__(self, ring: RingPresentation, question: str, samples: int = 20,
                 seed: int = 1, max_gens: int = 2, max_deg: int = 2,
                 tor_bound: int = 5, degree_bound: int = 6, preset=None):
        if question not in KNOWN_QUESTIONS:
            raise ValueError(f"unknown question id {question!r}; known: {KNOWN_QUESTIONS}")
        self.ring = ring
        self.question = question
        self.samples = samples
        self.seed = seed
        self.max_gens = max_gens
        self.max_deg = max_deg
        self.tor_bound = tor_bound
        self.degree_bound = degree_bound
        self.preset = list(preset) if preset else []

    def as_dict(self):
        return {"ring": self.ring.label, "question": self.question,
                "samples": self.samples, "seed": self.seed,
                "max_gens": self.max_gens, "max_deg": self.max_deg,
                "tor_bound": self.tor_bound, "degree_bound": self.degree_bound,
                "preset": len(self.preset)}


def random_homogeneous_module(ring: RingPresentation, rng: random.Random,
                              max_gens: int = 2, max_deg: int = 2,
                              label="X") -> ModulePresentation:
    """A random graded cokernel: few generators, low-degree relations."""
    pr = ring.poly_ring
    p = rng.randint(1, max_gens)
    q = rng.randint(1, max_gens + 1)
    gen_degs = tuple(0 for _ in range(p))
    columns = []
    monos_of_degree: dict = {}
    for _ in range(q):
        deg = rng.randint(1, max_deg)
        col = []
        monos = monos_of_degree.get(deg)
        if monos is None:
            monos = monos_of_degree[deg] = list(monomials_of_degree(pr.nvars, deg))
        for _i in range(p):
            poly = pr.zero()
            for _t in range(rng.randint(0, 2)):
                c = pr.field.from_int(rng.randint(1, 50))
                poly = poly + pr.monomial(rng.choice(monos), c)
            col.append(poly)
        if any(not c.is_zero() for c in col):
            columns.append(col)
    if not columns:
        columns = [[pr.variable(pr.variables[0])] + [pr.zero()] * (p - 1)]
    return ModulePresentation.from_relations(ring, gen_degs, columns,
                                             label=label).minimalize()


def _sample_stream(cfg: SearchConfig, pairs: bool):
    rng = random.Random(cfg.seed)
    for idx, preset in enumerate(cfg.preset):
        yield ("preset", idx, preset)
    for idx in range(cfg.samples):
        M = random_homogeneous_module(cfg.ring, rng, cfg.max_gens, cfg.max_deg,
                                      label=f"S{idx}a")
        if pairs:
            N = random_homogeneous_module(cfg.ring, rng, cfg.max_gens, cfg.max_deg,
                                          label=f"S{idx}b")
            yield ("random", idx, (M, N))
        else:
            yield ("random", idx, (M,))


def _locally_free_at_minimal_primes(M: ModulePresentation) -> bool:
    prof = M.rank_profile()
    return all(entry["locally_free"] for entry in prof["ranks"])


def counterexample_search(cfg: SearchConfig) -> dict:
    """Run the configured search; returns the findings log."""
    handler = {"3.17": _search_3_17, "4.16": _search_4_16,
               "4.18": _search_4_18, "4.10": _search_4_10,
               "3.6": _search_3_6}[cfg.question]
    findings = []
    counts = {"candidate": 0, "near-miss": 0, "miss": 0, "skipped": 0}
    pairs = cfg.question in ("3.17", "4.10", "3.6")
    for origin, idx, mods in _sample_stream(cfg, pairs):
        try:
            rec = handler(cfg, mods)
        except HypothesisMissingError as err:
            # A sample outside the hypotheses is skipped; any other error is a
            # fault and propagates.
            rec = {"classification": "skipped", "error": str(err),
                   "error_type": type(err).__name__}
        rec["origin"] = origin
        rec["sample"] = idx
        rec["modules"] = [m.describe() for m in mods]
        counts[rec["classification"]] += 1
        findings.append(rec)
    return {"config": cfg.as_dict(), "findings": findings, "summary": counts}


def _search_3_17(cfg, mods):
    """Hypersurface, M locally free at minimal primes, M tensor N torsion-free,
    Tor_1 = 0: is every higher Tor zero?"""
    M, N = mods
    ring = cfg.ring
    hyps = {"hypersurface": ring.codim == 1 and ring.certified}
    if M.n_gens == 0 or N.n_gens == 0:
        return {"classification": "skipped", "reason": "zero module sampled"}
    hyps["M_free_on_minimal_primes"] = _locally_free_at_minimal_primes(M)
    prof = tor_profile(M, N, cfg.tor_bound, cfg.degree_bound)
    # Tor_0 is M (x) N, already minimalized.
    hyps["tensor_torsion_free"] = prof.tor0.presentation.biduality_report().torsion_free
    hyps["tor1_zero"] = prof.vanishes(1)
    rec = {"hypotheses": hyps}
    if not all(hyps.values()):
        rec["classification"] = "miss"
        return rec
    rec["conclusion_all_vanish"] = prof.all_vanish_in_window()
    rec["vanishing"] = [prof.vanishes(i) for i in range(1, cfg.tor_bound + 1)]
    rec["classification"] = "near-miss" if rec["conclusion_all_vanish"] else "candidate"
    return rec


def _search_4_16(cfg, mods):
    """One-dimensional domain: M and M tensor M* torsion-free: is M free?"""
    def tensor_torsion_free(M, hyps):
        hyps["tensor_torsion_free"] = M.tensor(M.dual()).biduality_report().torsion_free
        return {}
    return _freeness_search(cfg, mods, tensor_torsion_free)


def _search_4_18(cfg, mods):
    """One-dimensional domain, M and M tensor M* torsion-free and some
    Tor_i(M, M*) = 0 in the window: is M free?"""
    def tensor_torsion_free_and_some_tor_vanishes(M, hyps):
        prof = tor_profile(M, M.dual(), cfg.tor_bound, cfg.degree_bound)
        # Tor_0 is M (x) M*, already minimalized.
        hyps["tensor_torsion_free"] = prof.tor0.presentation.biduality_report().torsion_free
        first_zero = next((i for i in range(1, cfg.tor_bound + 1) if prof.vanishes(i)), None)
        hyps["some_tor_vanishes"] = first_zero is not None
        return {"first_vanishing_index": first_zero}
    return _freeness_search(cfg, mods, tensor_torsion_free_and_some_tor_vanishes)


def _freeness_search(cfg, mods, read_hypotheses):
    """Is M free?  The hypotheses 4.16 and 4.18 share come first: a
    one-dimensional certified domain and a torsion-free M.  Then
    ``read_hypotheses(M, hyps)`` adds the question's own and returns the
    record's other fields."""
    (M,) = mods
    ring = cfg.ring
    hyps = {"one_dimensional": ring.dimension() == 1,
            "certified": ring.certified,
            "domain": ring.is_domain()["domain"]}
    if M.n_gens == 0:
        return {"classification": "skipped", "reason": "zero module sampled"}
    hyps["M_torsion_free"] = M.biduality_report().torsion_free
    rec = {"hypotheses": hyps, **read_hypotheses(M, hyps)}
    if not all(hyps.values()):
        rec["classification"] = "miss"
        return rec
    rec["M_free"] = M.is_free()
    rec["classification"] = "near-miss" if rec["M_free"] else "candidate"
    return rec


def _search_3_6(cfg, mods):
    """Certified total Tor vanishing plus a depth condition on the tensor
    product: must M inherit the condition?  Run as an experiment only; the
    affirmative claim in the literature has a flawed proof, so nothing here
    is ever asserted.  The certified vanishing is
    ``TorProfile.vanishing_certified``: over a certified ring of
    codimension c, with a window of at least c + 1, it builds Tor_0 and
    Tor_1..Tor_(c+1) at most, and no resolution step past c + 2 and no
    periodicity test."""
    M, N = mods
    if M.n_gens == 0 or N.n_gens == 0:
        return {"classification": "skipped", "reason": "zero module sampled"}
    prof = tor_profile(M, N, cfg.tor_bound, cfg.degree_bound)
    tensor = prof.tor0.presentation  # M (x) N, already minimalized as Tor_0
    level = next((n for n in (2, 1) if tensor.satisfies_serre(n)), None)
    hyps = {"certified": cfg.ring.certified,
            "all_tor_vanish_certified": prof.vanishing_certified,
            "tensor_serre_level": level}
    rec = {"hypotheses": hyps}
    if not (hyps["certified"] and hyps["all_tor_vanish_certified"] and level):
        rec["classification"] = "miss"
        return rec
    rec["M_satisfies_level"] = M.satisfies_serre(level)
    rec["classification"] = "near-miss" if rec["M_satisfies_level"] else "candidate"
    return rec


def _search_4_10(cfg, mods):
    """Gap pattern: a vanishing run of length >= 2 followed by a nonzero Tor,
    with M tensor N of finite length (the sought configuration)."""
    M, N = mods
    if M.n_gens == 0 or N.n_gens == 0:
        return {"classification": "skipped", "reason": "zero module sampled"}
    prof = tor_profile(M, N, cfg.tor_bound, cfg.degree_bound)
    pattern = None
    run = 0
    for i in range(1, cfg.tor_bound + 1):
        if prof.vanishes(i):
            run += 1
        else:
            if run >= 2:
                pattern = {"start": i - run, "gap": run, "nonzero_at": i}
                break
            run = 0
    finite = prof.tor0.presentation.length() != INF
    rec = {"hypotheses": {"certified": cfg.ring.certified,
                          "codim_at_least_2": cfg.ring.codim >= 2,
                          "tensor_finite_length": finite},
           "gap_pattern": pattern,
           "vanishing": [prof.vanishes(i) for i in range(1, cfg.tor_bound + 1)]}
    if pattern is None:
        rec["classification"] = "miss"
    elif finite and cfg.ring.codim >= 2:
        rec["classification"] = "candidate"
    else:
        rec["classification"] = "near-miss"
    return rec
