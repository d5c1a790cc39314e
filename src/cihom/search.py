"""Randomized searches around the open questions.

Each target samples random finitely presented modules over a declared ring,
evaluates the question's hypotheses, and logs any instance where they hold
while the questioned conclusion fails in the computed window (a candidate
counterexample flagged for manual audit) together with all near-misses.
Runs are reproducible from the seed; known instances can be prepended so
the expected near-misses appear deterministically.

``counterexample_search`` owns the sample protocol: it draws each sample,
skips one with a zero module before any handler runs, and classifies the
record.  A handler computes its question's hypotheses and, when they all
hold, its conclusion field; the sample is then a miss unless that field is
filled in, a near-miss when the conclusion holds and a candidate when it
fails.  Question 4.10 keeps its own gap rule.
"""

from __future__ import annotations

import random

from .fmodules import ModulePresentation
from .homology import tor_profile
from .polynomials import monomials_of_degree
from .rings import INF, HypothesisMissingError, RingPresentation


# question -> (handler name, modules per sample, conclusion field); the
# handler is looked up when the search runs, and 4.10 names its own verdict.
_QUESTIONS = {"3.17": ("_search_3_17", 2, "conclusion_all_vanish"),
              "4.16": ("_search_4_16", 1, "M_free"),
              "4.18": ("_search_4_18", 1, "M_free"),
              "4.10": ("_search_4_10", 2, None),
              "3.6": ("_search_3_6", 2, "M_satisfies_level")}
KNOWN_QUESTIONS = tuple(_QUESTIONS)


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


def _sample_stream(cfg: SearchConfig, arity: int):
    rng = random.Random(cfg.seed)
    for idx, preset in enumerate(cfg.preset):
        yield ("preset", idx, preset)
    for idx in range(cfg.samples):
        yield ("random", idx, tuple(
            random_homogeneous_module(cfg.ring, rng, cfg.max_gens, cfg.max_deg,
                                      label=f"S{idx}{side}") for side in "ab"[:arity]))


def _verdict(rec: dict, conclusion: str) -> str:
    """Miss unless the handler filled in ``conclusion`` (it does so only when
    every hypothesis holds); then near-miss if it holds, else candidate."""
    if conclusion not in rec:
        return "miss"
    return "near-miss" if rec[conclusion] else "candidate"


def counterexample_search(cfg: SearchConfig) -> dict:
    """Run the configured search; returns the findings log."""
    name, arity, conclusion = _QUESTIONS[cfg.question]
    handler = globals()[name]
    findings = []
    counts = {"candidate": 0, "near-miss": 0, "miss": 0, "skipped": 0}
    for origin, idx, mods in _sample_stream(cfg, arity):
        if any(m.n_gens == 0 for m in mods):
            rec = {"classification": "skipped", "reason": "zero module sampled"}
        else:
            try:
                rec = handler(cfg, mods)
            except HypothesisMissingError as err:
                # A sample outside the hypotheses is skipped; any other error
                # is a fault and propagates.
                rec = {"classification": "skipped", "error": str(err),
                       "error_type": type(err).__name__}
            else:
                if conclusion is not None:
                    rec["classification"] = _verdict(rec, conclusion)
        rec.update(origin=origin, sample=idx, modules=[m.describe() for m in mods])
        counts[rec["classification"]] += 1
        findings.append(rec)
    return {"config": cfg.as_dict(), "findings": findings, "summary": counts}


def _search_3_17(cfg, mods):
    """Hypersurface, M locally free at minimal primes, M tensor N torsion-free,
    Tor_1 = 0: is every higher Tor zero?"""
    M, N = mods
    hyps = {"hypersurface": cfg.ring.codim == 1 and cfg.ring.certified,
            "M_free_on_minimal_primes": all(entry["locally_free"]
                                            for entry in M.rank_profile()["ranks"])}
    prof = tor_profile(M, N, cfg.tor_bound, cfg.degree_bound)
    # Tor_0 is M (x) N, already minimalized.
    hyps["tensor_torsion_free"] = prof.tor0.presentation.is_torsion_free()
    hyps["tor1_zero"] = prof.vanishes(1)
    rec = {"hypotheses": hyps}
    if all(hyps.values()):
        rec["conclusion_all_vanish"] = prof.all_vanish_in_window()
        rec["vanishing"] = [prof.vanishes(i) for i in range(1, cfg.tor_bound + 1)]
    return rec


def _freeness_hypotheses(cfg, M) -> dict:
    """What 4.16 and 4.18 share: a one-dimensional certified domain and a
    torsion-free M."""
    ring = cfg.ring
    return {"one_dimensional": ring.dimension() == 1,
            "certified": ring.certified,
            "domain": ring.is_domain(),
            "M_torsion_free": M.is_torsion_free()}


def _search_4_16(cfg, mods):
    """One-dimensional domain: M and M tensor M* torsion-free: is M free?"""
    (M,) = mods
    hyps = _freeness_hypotheses(cfg, M)
    hyps["tensor_torsion_free"] = M.tensor(M.dual()).is_torsion_free()
    rec = {"hypotheses": hyps}
    if all(hyps.values()):
        rec["M_free"] = M.is_free()
    return rec


def _search_4_18(cfg, mods):
    """One-dimensional domain, M and M tensor M* torsion-free and some
    Tor_i(M, M*) = 0 in the window: is M free?"""
    (M,) = mods
    hyps = _freeness_hypotheses(cfg, M)
    prof = tor_profile(M, M.dual(), cfg.tor_bound, cfg.degree_bound)
    # Tor_0 is M (x) M*, already minimalized.
    hyps["tensor_torsion_free"] = prof.tor0.presentation.is_torsion_free()
    first_zero = next((i for i in range(1, cfg.tor_bound + 1) if prof.vanishes(i)), None)
    hyps["some_tor_vanishes"] = first_zero is not None
    rec = {"hypotheses": hyps, "first_vanishing_index": first_zero}
    if all(hyps.values()):
        rec["M_free"] = M.is_free()
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
    prof = tor_profile(M, N, cfg.tor_bound, cfg.degree_bound)
    tensor = prof.tor0.presentation  # M (x) N, already minimalized as Tor_0
    level = next((n for n in (2, 1) if tensor.satisfies_serre(n)), None)
    hyps = {"certified": cfg.ring.certified,
            "all_tor_vanish_certified": prof.vanishing_certified,
            "tensor_serre_level": level}
    rec = {"hypotheses": hyps}
    if all(hyps.values()):
        rec["M_satisfies_level"] = M.satisfies_serre(level)
    return rec


def _search_4_10(cfg, mods):
    """Gap pattern: a vanishing run of length >= 2 followed by a nonzero Tor,
    with M tensor N of finite length (the sought configuration).  A gap is a
    candidate only when every hypothesis holds: over an uncertified ring the
    codimension counts generators, not a regular sequence."""
    M, N = mods
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
    hyps = {"certified": cfg.ring.certified,
            "codim_at_least_2": cfg.ring.codim >= 2,
            "tensor_finite_length": prof.tor0.presentation.length() != INF}
    rec = {"hypotheses": hyps, "gap_pattern": pattern,
           "vanishing": [prof.vanishes(i) for i in range(1, cfg.tor_bound + 1)]}
    rec["classification"] = ("miss" if pattern is None else
                             "candidate" if all(hyps.values()) else "near-miss")
    return rec
