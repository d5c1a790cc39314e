"""Instance-level checks of Tor-rigidity statements.

Each checker evaluates a statement's hypotheses on concrete modules with
the engine's predicates and then tests the conclusion inside the computed
window.  A report never asserts a conclusion when a hypothesis line failed:
"hypotheses unmet" is itself a valid outcome (counterexample instances live
there).  Hypotheses that the graded equicharacteristic model satisfies
automatically (unramified/admissible base) are tagged model-level;
complexity hypotheses consume window estimates and are tagged as such;
pointwise-prime hypotheses are replaced by explicitly labeled surrogates.
"""

from __future__ import annotations

from .fmodules import ModulePresentation
from .homology import depth_formula_check, tor_profile
from .resolutions import module_complexity, resolve
from .rings import INF, NEG_INF, encode_infinite


class UnknownTheoremError(ValueError):
    pass


def _line(name, status, evidence=None, kind="computed"):
    return {"name": name, "status": status, "kind": kind,
            "evidence": evidence if evidence is not None else ""}


def _ok(name, ok, evidence=None, kind="computed"):
    return _line(name, "satisfied" if ok else "failed", evidence, kind)


def _model(name, evidence="holds in the graded equicharacteristic model"):
    return _line(name, "model-level", evidence, kind="model-level")


class TheoremReport:
    """Hypothesis checklist plus conclusion verdict for one statement."""

    __slots__ = ("statement_id", "instance", "hypotheses", "conclusion", "tier")

    def __init__(self, statement_id, instance, hypotheses, conclusion, tier=None):
        self.statement_id = statement_id
        self.instance = instance
        self.hypotheses = hypotheses
        self.conclusion = conclusion
        self.tier = tier

    @property
    def hypotheses_met(self) -> bool:
        return all(h["status"] in ("satisfied", "model-level") for h in self.hypotheses)

    @property
    def asserted(self) -> bool:
        return bool(self.hypotheses_met and self.conclusion.get("verdict") == "holds")

    def as_dict(self):
        concl = dict(self.conclusion)
        if not self.hypotheses_met:
            concl = {"verdict": "hypotheses-unmet",
                     "statement": self.conclusion.get("statement", "")}
        return {"id": self.statement_id, "instance": self.instance,
                "hypotheses": self.hypotheses, "conclusion": concl,
                "tier": self.tier, "asserted": self.asserted,
                # wall-clock would break byte-stable reports; the instance
                # bounds are the deterministic cost record
                "timings": {"wall_clock": None,
                            "bounds": {"tor_bound": self.instance.get("tor_bound")}}}

    def __repr__(self):
        verdict = self.conclusion.get("verdict") if self.hypotheses_met else "hypotheses-unmet"
        return f"TheoremReport({self.statement_id}: {verdict})"


class _Instance:
    """Lazy cache of the engine values a checker may need."""

    def __init__(self, M: ModulePresentation, N: ModulePresentation | None,
                 tor_bound: int, degree_bound: int, window: int | None = None):
        self.M = M.minimalize()
        self.N = (N if N is not None else M).minimalize()
        self.ring = M.ring
        self.tor_bound = tor_bound
        self.degree_bound = degree_bound
        self.window = window or max(2 * int(self.ring.dimension()) + 2 * self.ring.codim + 4,
                                    tor_bound + 1)
        self._cache: dict = {}

    def describe(self):
        return {"ring": self.ring.label, "module": self.M.label,
                "argument": self.N.label, "tor_bound": self.tor_bound}

    def profile(self, side="left"):
        key = ("profile", side)
        if key not in self._cache:
            self._cache[key] = tor_profile(self.M, self.N, self.tor_bound,
                                           self.degree_bound, side=side)
        return self._cache[key]

    def cx(self, which):
        key = ("cx", which)
        if key not in self._cache:
            self._cache[key] = module_complexity(self.module(which), window=self.window)
        return self._cache[key]

    def tensor(self):
        """M (x) N, minimalized: the left profile's Tor_0 presentation.

        Every checker that reads the tensor also builds the left profile,
        so taking it from there adds no work and builds it only once."""
        return self.profile().tor0.presentation

    def module(self, which):
        """M, N or (for "T") M (x) N; the tensor is built only when read."""
        return self.tensor() if which == "T" else {"M": self.M, "N": self.N}[which]

    def constant_rank(self, which):
        """Whether M or N has constant rank (False without minimal primes)."""
        if not self.ring.has_minimal_primes:
            return False
        return self.module(which).rank_profile()["constant_rank"]

    def depth(self, which):
        return self.module(which).depth()

    def dim(self, which):
        return self.module(which).dimension()

    @property
    def d(self):
        return int(self.ring.dimension())

    @property
    def c(self):
        return self.ring.codim


# -- hypothesis helpers ---------------------------------------------------------

def _hyp_certified(inst):
    return _ok(f"{inst.ring.label} is a certified complete intersection",
               inst.ring.certified, inst.ring.verify_regular_sequence().as_dict())


def _hyp_serre(inst, which, n):
    if n <= 0:
        return _ok(f"{which} satisfies the level-{n} depth condition (trivial)", True)
    rep = inst.module(which).serre_condition(n)
    return _ok(f"{which} satisfies the level-{n} depth condition",
               rep["holds"], rep["witness"])


def _hyp_mcm(inst, which):
    mod = inst.module(which)
    return _ok(f"{which} is maximal Cohen-Macaulay", mod.is_maximal_cohen_macaulay(),
               {"depth": encode_infinite(mod.depth()), "ring_dim": inst.d})


def _hyp_cm(inst, which):
    mod = inst.module(which)
    return _ok(f"{which} is Cohen-Macaulay", mod.is_cohen_macaulay(),
               {"depth": encode_infinite(mod.depth()), "dim": encode_infinite(mod.dimension())})


def _hyp_nonzero(inst, which):
    return _ok(f"{which} is nonzero", inst.module(which).n_gens > 0)


def _hyp_free_on(inst, which, n):
    if n < 0:
        return _ok(f"{which} is locally free in height <= {n} (trivial)", True)
    codim = inst.module(which).nonfree_locus_codim()
    return _ok(f"{which} is locally free in height <= {n}", codim >= n + 1,
               {"nonfree_locus_codim": encode_infinite(codim)})


def _hyp_torsion_free(inst, which):
    return _ok(f"{which} is torsion-free", inst.module(which).biduality_report().torsion_free)


def _hyp_reflexive(inst, which):
    return _ok(f"{which} is reflexive", inst.module(which).biduality_report().reflexive)


def _hyp_finite_length(inst, which):
    ln = inst.module(which).length()
    return _ok(f"{which} has finite length", ln != INF, {"length": encode_infinite(ln)})


def _hyp_vanishing(inst, lo, hi, subject="Tor"):
    if hi < lo:
        return _ok(f"{subject} {lo}..{hi} vanish (empty range)", True)
    prof = inst.profile()
    if hi > inst.tor_bound:
        return _ok(f"{subject} {lo}..{hi} vanish", False,
                   f"window bound {inst.tor_bound} too small for index {hi}")
    oks = [prof.vanishes(i) for i in range(lo, hi + 1)]
    return _ok(f"{subject} indices {lo}..{hi} vanish", all(oks),
               {"vanishing": oks})


def _hyp_local_vanishing_surrogate(inst, height):
    """Surrogate for Tor_i(M,N)_q = 0 on all primes of height <= ``height``:
    the support codimension of every computed Tor_i is at least height+1."""
    prof = inst.profile()
    worst = None
    for e in prof.entries:
        if e.vanishes:
            continue
        codim = inst.d - e.dim
        if worst is None or codim < worst:
            worst = codim
    ok = worst is None or worst >= height + 1
    return _line(f"Tor vanishes at primes of height <= {height} "
                 f"(surrogate: support codim >= {height + 1} in window)",
                 "satisfied" if ok else "failed",
                 {"min_support_codim": encode_infinite(worst) if worst is not None else "empty"},
                 kind="surrogate")


# -- conclusion helpers -----------------------------------------------------------

def _concl_all_vanish(inst):
    prof = inst.profile()
    ok = prof.all_vanish_in_window()
    return ({"statement": "Tor_i(M, N) = 0 for all i >= 1",
             "verdict": "holds" if ok else "fails",
             "window": inst.tor_bound,
             "certified": prof.vanishing_certified,
             "detail": prof.vanishing},
            prof.vanishing["tier"])


def _concl_vanish_from(inst, n):
    prof = inst.profile()
    ok = prof.vanish_range(n, inst.tor_bound)
    return ({"statement": f"Tor_i(M, N) = 0 for all i >= {n}",
             "verdict": "holds" if ok else "fails",
             "window": inst.tor_bound,
             "detail": {"from": n,
                        "vanishing": [prof.vanishes(i) for i in range(n, inst.tor_bound + 1)]}},
            prof.vanishing["tier"] if ok and prof.all_vanish_in_window() else None)


def _concl_even_nonzero_pattern(inst, include_zero):
    """Tor_i != 0 exactly at even i (>= 2, or >= 0 with the tensor slot)."""
    prof = inst.profile()
    detail = {}
    ok = True
    lo = 0 if include_zero else 1
    for i in range(lo, inst.tor_bound + 1):
        nonzero = not prof.entry(i).vanishes
        want = (i % 2 == 0) and (i > 0 or include_zero)
        detail[i] = {"nonzero": nonzero, "expected": want}
        if nonzero != want:
            ok = False
    word = "nonnegative" if include_zero else "positive"
    return {"statement": f"Tor_i(M, N) != 0 iff i is a {word} even integer",
            "verdict": "holds" if ok else "fails", "window": inst.tor_bound,
            "detail": detail}


# -- checkers -----------------------------------------------------------------------

def _check_2_1(inst, params):
    prof = inst.profile()
    hyps = [_ok(f"{inst.ring.label} is regular (codimension 0)",
                inst.ring.codim == 0 and inst.ring.certified)]
    n = params.get("n") or next((i for i in range(1, inst.tor_bound + 1)
                                 if prof.vanishes(i)), None)
    hyps.append(_ok("some Tor_n vanishes with n >= 1", n is not None, {"n": n}))
    concl, tier = _concl_vanish_from(inst, n if n is not None else 1)
    return TheoremReport("2.1", inst.describe(), hyps, concl, tier)


def _find_vanishing_run(inst, length, start_min=1):
    prof = inst.profile()
    for n in range(start_min, inst.tor_bound - length + 2):
        if all(prof.vanishes(i) for i in range(n, n + length)):
            return n
    return None


def _check_2_2(inst, params):
    c = inst.c
    hyps = [_hyp_certified(inst)]
    n = params.get("n") or _find_vanishing_run(inst, c + 1)
    hyps.append(_ok(f"{c + 1} consecutive Tor vanish from some n >= 1",
                    n is not None and n + c <= inst.tor_bound, {"n": n}))
    if n is not None:
        hyps.append(_hyp_vanishing(inst, n, n + c))
    concl, tier = _concl_vanish_from(inst, n if n is not None else 1)
    return TheoremReport("2.2", inst.describe(), hyps, concl, tier)


def _check_2_3(inst, params):
    c, d = inst.c, inst.d
    hyps = [_hyp_certified(inst), _ok("codimension >= 1", c >= 1),
            _hyp_finite_length(inst, "T")]
    dimsum = inst.dim("M") + inst.dim("N")
    hyps.append(_ok("dim M + dim N < dim R + codim", dimsum < d + c,
                    {"dim_sum": encode_infinite(dimsum), "bound": d + c}))
    n = params.get("n") or _find_vanishing_run(inst, c)
    hyps.append(_ok(f"{c} consecutive Tor vanish from some n >= 1",
                    n is not None, {"n": n}))
    if n is not None:
        hyps.append(_hyp_vanishing(inst, n, n + c - 1))
        if n <= d:
            hyps.append(_model("base ring unramified (needed since n <= dim R)"))
    concl, tier = _concl_vanish_from(inst, n if n is not None else 1)
    return TheoremReport("2.3", inst.describe(), hyps, concl, tier)


def _check_2_4(inst, params):
    r = min(inst.cx("M").value, inst.cx("N").value)
    b = max(_depth_int(inst, "M"), _depth_int(inst, "N"))
    start = inst.d - b + 1
    hyps = [_hyp_certified(inst),
            _line(f"r = min of the complexity estimates = {r}", "satisfied",
                  {"cx_M": inst.cx("M").as_dict(), "cx_N": inst.cx("N").as_dict()},
                  kind="estimate-based")]
    n = params.get("n") or _find_vanishing_run(inst, r + 1, start_min=max(1, start))
    hyps.append(_ok(f"{r + 1} consecutive Tor vanish from some n >= dim - depth + 1 = {start}",
                    n is not None, {"n": n}))
    if n is not None:
        hyps.append(_hyp_vanishing(inst, n, n + r))
    concl, tier = _concl_vanish_from(inst, max(1, start))
    return TheoremReport("2.4", inst.describe(), hyps, concl, tier)


def _depth_int(inst, which):
    v = inst.depth(which)
    return int(v) if v not in (INF, NEG_INF) else 0


def _check_2_6(inst, params):
    b = max(_depth_int(inst, "M"), _depth_int(inst, "N"))
    start = max(1, inst.d - b + 1)
    cxm, cxn = inst.cx("M").value, inst.cx("N").value
    hyps = [_hyp_certified(inst),
            _line("at least one module has complexity <= 1",
                  "satisfied" if min(cxm, cxn) <= 1 else "failed",
                  {"cx_M": cxm, "cx_N": cxn}, kind="estimate-based")]
    prof = inst.profile()
    detail = {}
    ok = True
    for rec in prof.periodicity:
        if rec["i"] >= start:
            detail[rec["i"]] = rec["equal"]
            ok = ok and rec["equal"]
    concl = {"statement": f"Tor_i and Tor_(i+2) share graded data for i >= {start}",
             "verdict": "holds" if ok else "fails", "detail": detail}
    return TheoremReport("2.6", inst.describe(), hyps, concl, None)


def _check_2_7(inst, params):
    prof = inst.profile()
    rep = depth_formula_check(inst.M, inst.N, inst.tor_bound, inst.degree_bound,
                              profile=prof)
    hyps = [_hyp_certified(inst),
            _ok("Tor_i(M, N) = 0 for all i >= 1 (certified)",
                rep.hypothesis_met, prof.vanishing)]
    concl = {"statement": "depth M + depth N = depth R + depth(M tensor N)",
             "verdict": "holds" if rep.holds else "fails",
             "detail": rep.as_dict()}
    return TheoremReport("2.7", inst.describe(), hyps, concl, rep.tier)


def _check_2_8(inst, params):
    c = inst.c
    prof = inst.profile()
    hyps = [_hyp_certified(inst), _ok("codimension >= 1", c >= 1),
            _model("admissible complete intersection"),
            _hyp_vanishing(inst, 1, c),
            _ok("depth N > 0", inst.depth("N") > 0, {"depth_N": encode_infinite(inst.depth("N"))}),
            _ok("depth(M tensor N) > 0", inst.depth("T") > 0,
                {"depth": encode_infinite(inst.depth("T"))})]
    tail = [e for e in prof.entries if e.index > max(c, inst.tor_bound - 3)]
    hyps.append(_line("Tor_i has finite length for large i (surrogate: window tail)",
                      "satisfied" if all(e.finite_length or e.vanishes for e in tail) else "failed",
                      {e.index: e.finite_length or e.vanishes for e in tail},
                      kind="surrogate"))
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("2.8", inst.describe(), hyps, concl, tier)


def _check_3_3(inst, params):
    c = inst.c
    hyps = [_hyp_certified(inst), _model("admissible complete intersection"),
            _hyp_free_on(inst, "M", c),
            _hyp_serre(inst, "M", c), _hyp_serre(inst, "N", c),
            _hyp_serre(inst, "T", c + 1)]
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("3.3", inst.describe(), hyps, concl, tier)


def _check_3_4(inst, params):
    c = inst.c
    hyps = [_hyp_certified(inst), _model("ambient regular ring unramified"),
            _hyp_serre(inst, "M", c - 1), _hyp_serre(inst, "N", c - 1),
            _hyp_serre(inst, "T", c)]
    if c >= 2:
        free_line = _hyp_free_on(inst, "M", c - 1)
        if free_line["status"] == "satisfied":
            hyps.append(free_line)
        else:
            hyps.append(_hyp_local_vanishing_surrogate(inst, c - 1))
    cxm, cxn = inst.cx("M"), inst.cx("N")
    prof = inst.profile()
    vanish = prof.all_vanish_in_window()
    both_max = cxm.value == c and cxn.value == c
    concl = {"statement": "either both complexities equal the codimension, "
                          "or Tor_i(M, N) = 0 for all i >= 1",
             "verdict": "holds" if (both_max or vanish) else "fails",
             "detail": {"cx_M": cxm.value, "cx_N": cxn.value,
                        "all_vanish": vanish, "branch":
                        "maximal-complexity" if both_max else
                        ("vanishing" if vanish else "neither")}}
    return TheoremReport("3.4", inst.describe(), hyps, concl,
                         prof.vanishing["tier"] if vanish else None)


def _check_3_7(inst, params):
    r = min(inst.cx("M").value, inst.cx("N").value)
    b = max(_depth_int(inst, "M"), _depth_int(inst, "N"))
    start = max(1, inst.d - b + 1)
    hyps = [_hyp_certified(inst),
            _line(f"r = min complexity estimate = {r} >= 1",
                  "satisfied" if r >= 1 else "failed", None, kind="estimate-based")]
    n = params.get("n") or _find_vanishing_run(inst, r, start_min=start)
    hyps.append(_ok(f"{r} consecutive Tor vanish from some n >= {start}",
                    n is not None, {"n": n}))
    prof = inst.profile()
    if n is None:
        concl = {"statement": "parity vanishing propagates", "verdict": "fails",
                 "detail": "no starting run found"}
        return TheoremReport("3.7", inst.describe(), hyps, concl, None)
    hyps.append(_hyp_vanishing(inst, n, n + r - 1))
    if r % 2 == 1:
        idxs = [i for i in range(n, inst.tor_bound + 1) if (i - n) % 2 == 0]
        stmt = f"Tor_(n+2i) = 0 for all i >= 0 (n = {n})"
    else:
        idxs = [i for i in range(n + 1, inst.tor_bound + 1) if (i - n) % 2 == 1]
        stmt = f"Tor_(n+2i+1) = 0 for all i >= 0 (n = {n})"
    ok = all(prof.vanishes(i) for i in idxs)
    concl = {"statement": stmt, "verdict": "holds" if ok else "fails",
             "detail": {i: prof.vanishes(i) for i in idxs}}
    return TheoremReport("3.7", inst.describe(), hyps, concl, None)


def _check_3_8(inst, params):
    resN = resolve(inst.N, steps=inst.tor_bound + 1)
    hyps = [_hyp_nonzero(inst, "M"), _hyp_nonzero(inst, "N"),
            _hyp_mcm(inst, "M"),
            _ok("N has finite projective dimension", resN.terminated,
                {"betti": resN.betti_numbers()})]
    prof = inst.profile(side="right")
    ok = prof.all_vanish_in_window()
    concl = {"statement": "Tor_i(M, N) = 0 for all i >= 1",
             "verdict": "holds" if ok else "fails",
             "detail": prof.vanishing}
    return TheoremReport("3.8", inst.describe(), hyps, concl, prof.vanishing["tier"])


def _check_3_9(inst, params, part):
    r = min(inst.cx("M").value, inst.cx("N").value)
    hyps = [_hyp_certified(inst), _hyp_mcm(inst, "M"),
            _line(f"r = min complexity estimate = {r}", "satisfied", None,
                  kind="estimate-based")]
    if part == 1:
        hyps += [_hyp_free_on(inst, "M", r), _hyp_serre(inst, "N", r),
                 _hyp_serre(inst, "T", r + 1)]
        concl, tier = _concl_all_vanish(inst)
        return TheoremReport("3.9.1", inst.describe(), hyps, concl, tier)
    hyps += [_hyp_free_on(inst, "M", r - 1), _hyp_serre(inst, "N", r - 1),
             _hyp_serre(inst, "T", r)]
    concl, tier = _even_vanish_with_odd_clause(inst)
    return TheoremReport("3.9.2", inst.describe(), hyps, concl, tier)


def _even_vanish_with_odd_clause(inst):
    prof = inst.profile()
    evens = {i: prof.vanishes(i) for i in range(2, inst.tor_bound + 1, 2)}
    even_ok = all(evens.values())
    odd_zero = next((j for j in range(1, inst.tor_bound + 1, 2) if prof.vanishes(j)), None)
    detail = {"even_vanishing": evens, "first_vanishing_odd": odd_zero}
    if odd_zero is not None:
        detail["all_vanish_given_odd"] = prof.all_vanish_in_window()
        ok = even_ok and prof.all_vanish_in_window()
    else:
        ok = even_ok
    concl = {"statement": "Tor_i = 0 for even i >= 2; if some odd index vanishes, "
                          "all indices vanish",
             "verdict": "holds" if ok else "fails", "detail": detail}
    tier = prof.vanishing["tier"] if prof.all_vanish_in_window() else None
    return concl, tier


def _check_3_12(inst, params, part):
    r = min(inst.cx("M").value, inst.cx("N").value)
    hyps = [_hyp_certified(inst), _hyp_mcm(inst, "M"), _hyp_mcm(inst, "N"),
            _hyp_mcm(inst, "T"),
            _line(f"r = min complexity estimate = {r}", "satisfied", None,
                  kind="estimate-based")]
    if part == 1:
        hyps.append(_hyp_free_on(inst, "M", r))
        concl, tier = _concl_all_vanish(inst)
        return TheoremReport("3.12.1", inst.describe(), hyps, concl, tier)
    hyps.append(_hyp_free_on(inst, "M", r - 1))
    concl, tier = _even_vanish_with_odd_clause(inst)
    return TheoremReport("3.12.2", inst.describe(), hyps, concl, tier)


def _check_3_15(inst, params):
    c = inst.c
    n = params.get("n")
    if n is None:
        raise UnknownTheoremError("statement 3.15 needs the parameter n")
    hyps = [_hyp_certified(inst), _model("ambient regular ring unramified"),
            _ok(f"n = {n} differs from the codimension when positive",
                not (n > 0 and n == c)),
            _hyp_serre(inst, "M", c - n), _hyp_serre(inst, "N", c - n),
            _hyp_free_on(inst, "M", c - n), _hyp_serre(inst, "T", c - n + 1),
            _hyp_vanishing(inst, 1, n)]
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("3.15", inst.describe(), hyps, concl, tier)


def _check_3_16(inst, params):
    c = inst.c
    hyps = [_hyp_certified(inst), _model("ambient regular ring unramified"),
            _ok("codimension differs from 1", c != 1),
            _hyp_serre(inst, "M", c - 1), _hyp_serre(inst, "N", c - 1),
            _hyp_free_on(inst, "M", c - 1), _hyp_serre(inst, "T", c)]
    prof = inst.profile()
    vanish = prof.all_vanish_in_window()
    cxm, cxn = inst.cx("M").value, inst.cx("N").value
    branch_a = cxm == c and cxn == c and not prof.vanishes(1)
    concl = {"statement": "either both complexities are maximal with Tor_1 != 0, "
                          "or all Tor vanish",
             "verdict": "holds" if (branch_a or vanish) else "fails",
             "detail": {"cx_M": cxm, "cx_N": cxn, "tor1_nonzero": not prof.vanishes(1),
                        "all_vanish": vanish}}
    return TheoremReport("3.16", inst.describe(), hyps, concl,
                         prof.vanishing["tier"] if vanish else None)


def _check_4_1(inst, params):
    hyps = [_hyp_certified(inst), _ok("hypersurface (codimension 1)", inst.c == 1),
            _model("ambient regular ring unramified"),
            _hyp_cm(inst, "M"), _hyp_cm(inst, "N"), _hyp_cm(inst, "T"),
            _ok("dim M + dim N <= dim R",
                inst.dim("M") + inst.dim("N") <= inst.d,
                {"dims": [encode_infinite(inst.dim("M")), encode_infinite(inst.dim("N"))],
                 "d": inst.d}),
            _hyp_vanishing(inst, 1, 1)]
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("4.1", inst.describe(), hyps, concl, tier)


def _check_4_3(inst, params):
    prof = inst.profile()
    hyps = [_hyp_certified(inst),
            _ok("Tor_i(M, M) = 0 for all i >= 1 (certified)",
                prof.vanishing_certified, prof.vanishing)]
    cm_m = inst.M.is_cohen_macaulay() and inst.M.n_gens > 0
    cm_t = inst.tensor().is_cohen_macaulay() and inst.tensor().n_gens > 0
    hyps.append(_ok("M or M tensor M is Cohen-Macaulay (nonzero)", cm_m or cm_t,
                    {"M": cm_m, "tensor": cm_t}))
    free = inst.M.is_free()
    concl = {"statement": "M is free", "verdict": "holds" if free else "fails",
             "detail": {"minimal_relations": inst.M.minimalize().n_rels}}
    return TheoremReport("4.3", inst.describe(), hyps, concl, prof.vanishing["tier"])


def _check_4_6(inst, params):
    dS = inst.ring.poly_ring.nvars
    hyps = [_hyp_certified(inst), _ok("codimension >= 1", inst.c >= 1),
            _hyp_nonzero(inst, "M"), _hyp_nonzero(inst, "N"),
            _ok("M has finite projective dimension over the ambient ring", True,
                "finite by the syzygy theorem"),
            _hyp_finite_length(inst, "T"),
            _ok("depth M + depth N >= ambient depth",
                inst.depth("M") + inst.depth("N") >= dS,
                {"sum": encode_infinite(inst.depth("M") + inst.depth("N")), "ambient_depth": dS})]
    eq = inst.depth("M") + inst.depth("N") == dS
    pattern = _concl_even_nonzero_pattern(inst, include_zero=False)
    ok = eq and pattern["verdict"] == "holds"
    concl = {"statement": "depth M + depth N equals the ambient depth and "
                          "Tor_i != 0 iff i is a positive even integer",
             "verdict": "holds" if ok else "fails",
             "detail": {"depth_equality": eq, "pattern": pattern["detail"]}}
    return TheoremReport("4.6", inst.describe(), hyps, concl, None)


def _check_4_7(inst, params):
    hyps = [_hyp_certified(inst),
            _ok("codimension equals dimension >= 1", inst.c == inst.d and inst.c >= 1,
                {"codim": inst.c, "dim": inst.d}),
            _hyp_mcm(inst, "M"), _hyp_mcm(inst, "N"), _hyp_finite_length(inst, "T")]
    concl = _concl_even_nonzero_pattern(inst, include_zero=True)
    return TheoremReport("4.7", inst.describe(), hyps, concl, None)


def _check_4_8(inst, params):
    c = inst.c
    hyps = [_hyp_certified(inst), _model("ambient regular ring unramified"),
            _ok("codimension >= 1", c >= 1),
            _hyp_nonzero(inst, "M"), _hyp_nonzero(inst, "N"),
            _hyp_cm(inst, "M"), _hyp_cm(inst, "N"), _hyp_finite_length(inst, "T")]
    n = params.get("n") or _find_vanishing_run(inst, c)
    hyps.append(_ok(f"{c} consecutive Tor vanish from some positive n", n is not None,
                    {"n": n}))
    if n is not None:
        hyps.append(_hyp_vanishing(inst, n, n + c - 1))
        if c == 1:
            hyps.append(_ok("n is a positive even integer (codimension one case)",
                            n % 2 == 0, {"n": n}))
    concl, tier = _concl_vanish_from(inst, n if n is not None else 1)
    return TheoremReport("4.8", inst.describe(), hyps, concl, tier)


def _check_4_9(inst, params):
    c = inst.c
    hyps = [_hyp_certified(inst), _model("ambient regular ring unramified"),
            _ok("codimension >= 1", c >= 1),
            _hyp_vanishing(inst, 1, c),
            _hyp_cm(inst, "M"), _hyp_cm(inst, "N"), _hyp_cm(inst, "T")]
    if c == 1:
        hyps.append(_ok("dim M + dim N <= dim R",
                        inst.dim("M") + inst.dim("N") <= inst.d))
    vanish_concl, tier = _concl_all_vanish(inst)
    rep = depth_formula_check(inst.M, inst.N, inst.tor_bound, inst.degree_bound,
                              profile=inst.profile())
    ok = vanish_concl["verdict"] == "holds" and rep.holds
    concl = {"statement": "Tor_i(M, N) = 0 for all i >= 1 and the depth formula holds",
             "verdict": "holds" if ok else "fails",
             "detail": {"vanishing": vanish_concl["detail"],
                        "depth_formula": rep.as_dict()}}
    return TheoremReport("4.9", inst.describe(), hyps, concl, tier)


def _check_4_11(inst, params):
    r = min(inst.cx("M").value, inst.cx("N").value)
    b = max(_depth_int(inst, "M"), _depth_int(inst, "N"))
    start = max(1, inst.d - b + 1)
    w = params.get("w", 0)
    n = params.get("n") or _find_vanishing_run(inst, max(r, 1), start_min=start)
    hyps = [_hyp_certified(inst),
            _line(f"r = min complexity estimate = {r}", "satisfied", None,
                  kind="estimate-based"),
            _ok(f"Tor_n..n+r-1 vanish for some n >= {start}", n is not None, {"n": n})]
    prof = inst.profile()
    if n is None:
        concl = {"statement": "vanishing tail or depth-zero predecessor",
                 "verdict": "fails", "detail": "no starting run found"}
        return TheoremReport("4.11", inst.describe(), hyps, concl, None)
    hyps.append(_hyp_vanishing(inst, n, n + max(r, 1) - 1))
    fl_idx = [n + 2 * w + i for i in range(1, max(r, 1) + 1) if n + 2 * w + i <= inst.tor_bound]
    hyps.append(_ok("Tor_(n+2w+i) has finite length for i = 1..r",
                    all(prof.entry(i).finite_length or prof.entry(i).vanishes
                        for i in fl_idx),
                    {i: prof.entry(i).finite_length or prof.entry(i).vanishes
                     for i in fl_idx}))
    tail_ok = prof.vanish_range(start, inst.tor_bound)
    if n >= 2:
        prev = prof.entry(n - 1)
        depth_zero = (not prev.vanishes) and prev.depth == 0
    else:
        depth_zero = False
    ok = tail_ok or depth_zero
    concl = {"statement": f"either Tor_i = 0 for all i >= {start}, or "
                          f"depth Tor_{n - 1} = 0",
             "verdict": "holds" if ok else "fails",
             "detail": {"tail_vanishes": tail_ok, "depth_zero_predecessor": depth_zero}}
    return TheoremReport("4.11", inst.describe(), hyps, concl, None)


def _check_4_12(inst, params):
    r = min(inst.cx("M").value, inst.cx("N").value)
    prof = inst.profile()
    hyps = [_hyp_certified(inst), _hyp_mcm(inst, "M"),
            _ok("depth(M tensor N) > 0", inst.depth("T") > 0),
            _line(f"r = min complexity estimate = {r}", "satisfied", None,
                  kind="estimate-based"),
            _hyp_vanishing(inst, 1, r),
            _line("Tor_i has finite length for all i >= 1 (window surrogate)",
                  "satisfied" if all(e.finite_length or e.vanishes for e in prof.entries)
                  else "failed",
                  {e.index: e.finite_length or e.vanishes for e in prof.entries},
                  kind="surrogate")]
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("4.12", inst.describe(), hyps, concl, tier)


def _check_4_13(inst, params):
    r = min(inst.cx("M").value, inst.cx("N").value)
    hyps = [_hyp_certified(inst),
            _line(f"r = min complexity estimate = {r}", "satisfied", None,
                  kind="estimate-based"),
            _hyp_vanishing(inst, 1, r - 1),
            _hyp_mcm(inst, "M"), _hyp_reflexive(inst, "T"),
            _hyp_torsion_free(inst, "N"),
            _hyp_local_vanishing_surrogate(inst, 1)]
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("4.13", inst.describe(), hyps, concl, tier)


def _check_4_14(inst, params):
    r = max(inst.cx("M").value, inst.cx("N").value)
    rk_m = inst.constant_rank("M")
    rk_n = inst.constant_rank("N")
    hyps = [_hyp_certified(inst), _ok("dim R = 1", inst.d == 1),
            _ok("M or N has constant rank", rk_m or rk_n, {"M": rk_m, "N": rk_n}),
            _line(f"r = max complexity estimate = {r}", "satisfied", None,
                  kind="estimate-based"),
            _hyp_vanishing(inst, 1, r - 1),
            _hyp_torsion_free(inst, "M"), _hyp_torsion_free(inst, "T")]
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("4.14", inst.describe(), hyps, concl, tier)


def _check_4_15(inst, params):
    r = max(inst.cx("M").value, inst.cx("N").value)
    rk_m = inst.constant_rank("M")
    rk_n = inst.constant_rank("N")
    hyps = [_hyp_certified(inst),
            _ok("M or N has constant rank", rk_m or rk_n, {"M": rk_m, "N": rk_n}),
            _line(f"r = max complexity estimate = {r}", "satisfied", None,
                  kind="estimate-based"),
            _hyp_vanishing(inst, 1, r - 1),
            _hyp_mcm(inst, "M"), _hyp_reflexive(inst, "T"),
            _hyp_torsion_free(inst, "N")]
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("4.15", inst.describe(), hyps, concl, tier)


def _check_4_17(inst, params):
    # N is Hom(M, R); the instance builder supplies it
    prof = inst.profile()
    hyps = [_hyp_certified(inst), _hyp_torsion_free(inst, "M"),
            _hyp_reflexive(inst, "T")]
    even_zero = next((i for i in range(2, inst.tor_bound + 1, 2) if prof.vanishes(i)), None)
    odd_zero = next((j for j in range(1, inst.tor_bound + 1, 2) if prof.vanishes(j)), None)
    alt1 = even_zero is not None and odd_zero is not None
    cx_m = inst.cx("M").value
    rk = inst.constant_rank("M")
    alt2 = rk and cx_m <= 1
    hyps.append(_line(
        "some even and some odd Tor index vanish (global surrogate for the "
        "height-one condition), or M has constant rank and bounded Betti numbers",
        "satisfied" if (alt1 or alt2) else "failed",
        {"even_zero": even_zero, "odd_zero": odd_zero,
         "constant_rank": rk, "cx_M": cx_m}, kind="surrogate"))
    free = inst.M.is_free()
    concl = {"statement": "M is free", "verdict": "holds" if free else "fails",
             "detail": {"minimal_relations": inst.M.minimalize().n_rels}}
    return TheoremReport("4.17", inst.describe(), hyps, concl, None)


def _check_4_20(inst, params):
    c = inst.c
    rk_m = inst.constant_rank("M")
    rk_n = inst.constant_rank("N")
    hyps = [_hyp_certified(inst),
            _ok("M or N has constant rank", rk_m or rk_n, {"M": rk_m, "N": rk_n}),
            _hyp_vanishing(inst, 1, c - 1), _hyp_reflexive(inst, "T")]
    if c >= 2:
        hyps += [_hyp_torsion_free(inst, "M"), _hyp_torsion_free(inst, "N")]
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("4.20", inst.describe(), hyps, concl, tier)


def _check_4_21(inst, params):
    c = inst.c
    n = params.get("n") or _find_vanishing_run(inst, c)
    rk_n = inst.constant_rank("N")
    free_m = inst.M.free_on_height(1)
    rk_m = inst.constant_rank("M")
    hyps = [_hyp_certified(inst), _ok("dim R = 2", inst.d == 2),
            _ok("codimension >= 1", c >= 1),
            _ok(f"{c} consecutive Tor vanish from some positive n", n is not None,
                {"n": n}),
            _hyp_torsion_free(inst, "M"), _hyp_torsion_free(inst, "N"),
            _ok("N has constant rank", rk_n),
            _line("M is free of constant rank in height <= 1 "
                  "(checked: height-one freeness plus constant generic rank)",
                  "satisfied" if free_m and rk_m else "failed",
                  {"free_on_height_1": free_m, "constant_rank": rk_m},
                  kind="surrogate")]
    if n is not None:
        hyps.append(_hyp_vanishing(inst, n, n + c - 1))
    concl, tier = _concl_vanish_from(inst, n if n is not None else 1)
    return TheoremReport("4.21", inst.describe(), hyps, concl, tier)


def _check_4_22(inst, params):
    c = inst.c
    rk_n = inst.constant_rank("N")
    free_m = inst.M.free_on_height(1)
    rk_m = inst.constant_rank("M")
    hyps = [_hyp_certified(inst),
            _hyp_vanishing(inst, 1, c - 2),
            _hyp_serre(inst, "T", 3),
            _hyp_reflexive(inst, "M"), _hyp_reflexive(inst, "N"),
            _ok("N has constant rank", rk_n),
            _line("M is free of constant rank in height <= 1 "
                  "(checked: height-one freeness plus constant generic rank)",
                  "satisfied" if free_m and rk_m else "failed",
                  {"free_on_height_1": free_m, "constant_rank": rk_m},
                  kind="surrogate")]
    concl, tier = _concl_all_vanish(inst)
    return TheoremReport("4.22", inst.describe(), hyps, concl, tier)


_CHECKERS = {
    "2.1": _check_2_1,
    "2.2": _check_2_2,
    "2.3": _check_2_3,
    "2.4": _check_2_4,
    "2.6": _check_2_6,
    "2.7": _check_2_7,
    "2.8": _check_2_8,
    "3.3": _check_3_3,
    "3.4": _check_3_4,
    "3.7": _check_3_7,
    "3.8": _check_3_8,
    "3.9.1": lambda inst, p: _check_3_9(inst, p, 1),
    "3.9.2": lambda inst, p: _check_3_9(inst, p, 2),
    "3.12.1": lambda inst, p: _check_3_12(inst, p, 1),
    "3.12.2": lambda inst, p: _check_3_12(inst, p, 2),
    "3.15": _check_3_15,
    "3.16": _check_3_16,
    "4.1": _check_4_1,
    "4.3": _check_4_3,
    "4.6": _check_4_6,
    "4.7": _check_4_7,
    "4.8": _check_4_8,
    "4.9": _check_4_9,
    "4.11": _check_4_11,
    "4.12": _check_4_12,
    "4.13": _check_4_13,
    "4.14": _check_4_14,
    "4.15": _check_4_15,
    "4.17": _check_4_17,
    "4.20": _check_4_20,
    "4.21": _check_4_21,
    "4.22": _check_4_22,
}

ALIASES = {"1.1": "3.12.2", "1.2": "4.15", "3.9": "3.9.1", "3.12": "3.12.1",
           "3.12(1)": "3.12.1", "3.12(2)": "3.12.2", "3.9(1)": "3.9.1",
           "3.9(2)": "3.9.2"}


def known_statements():
    return sorted(_CHECKERS)


def check_theorem(statement_id: str, M: ModulePresentation,
                  N: ModulePresentation | None = None, tor_bound: int = 6,
                  degree_bound: int = 8, window: int | None = None,
                  **params) -> TheoremReport:
    """Evaluate one statement's hypotheses and conclusion on an instance.

    For self-paired statements N defaults to M; statement 4.17 pairs M with
    its dual automatically.  Unknown ids raise UnknownTheoremError.
    """
    sid = ALIASES.get(statement_id, statement_id)
    if sid not in _CHECKERS:
        raise UnknownTheoremError(
            f"unknown statement id {statement_id!r}; known: {', '.join(known_statements())}")
    if sid == "4.17" and N is None:
        N = M.dual()
        N.label = f"{M.label}*"
    inst = _Instance(M, N, tor_bound, degree_bound, window)
    return _CHECKERS[sid](inst, params)
