"""Instance-level checks of Tor-rigidity statements.

Each checker evaluates a statement's hypotheses on concrete modules with
the engine's predicates and then tests the conclusion inside the computed
window.  A report never asserts a conclusion when a hypothesis line failed:
"hypotheses unmet" is itself a valid outcome (counterexample instances live
there).  Hypotheses that the graded equicharacteristic model satisfies
automatically (unramified/admissible base) are tagged model-level;
complexity hypotheses consume window estimates and are tagged as such;
pointwise-prime hypotheses are replaced by explicitly labeled surrogates.

A checker takes the instance and the statement's parameters and returns
``(hypotheses, conclusion, tier)``; ``check_theorem`` wraps them in the one
``TheoremReport`` under the registry id.  Lines that several statements
share come from one builder each:

- ``_hyp_complexity(inst, min|max)``: r and its estimate-based line;
- ``_hyp_run(inst, params, length, label, start)``: the n that starts a
  run of ``length`` vanishing Tor, its line, and the Tor_n..n+length-1
  line.  An explicit ``n`` is used as given; otherwise it is the first
  run in the window.  The run line holds exactly when n >= start and the
  run lies in the window;
- ``_hyp_constant_rank``: "M or N has constant rank";
- ``_hyp_free_height_one``: M free of constant rank in height <= 1;
- ``_concl_free``: the conclusion "M is free".
"""

from __future__ import annotations

from .fmodules import ModulePresentation
from .homology import depth_formula_check, tor_profile
from .inputs import InstanceShapeError, UnknownTheoremError
from .resolutions import default_betti_window, module_complexity, resolve
from .rings import INF, NEG_INF, encode_infinite


def _line(name, status, evidence=None, kind="computed"):
    return {"name": name, "status": status, "kind": kind,
            "evidence": evidence if evidence is not None else ""}


def _ok(name, ok, evidence=None):
    return _line(name, "satisfied" if ok else "failed", evidence)


def _model(name):
    return _line(name, "model-level", "holds in the graded equicharacteristic model",
                 kind="model-level")


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
        self.window = window or max(default_betti_window(self.ring), tor_bound + 1)
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
    return _ok(f"{which} is torsion-free", inst.module(which).is_torsion_free())


def _hyp_reflexive(inst, which):
    return _ok(f"{which} is reflexive", inst.module(which).satisfies_serre(2))


def _hyp_finite_length(inst, which):
    ln = inst.module(which).length()
    return _ok(f"{which} has finite length", ln != INF, {"length": encode_infinite(ln)})


def _hyp_vanishing(inst, lo, hi):
    if hi < lo:
        return _ok(f"Tor {lo}..{hi} vanish (empty range)", True)
    prof = inst.profile()
    if hi > inst.tor_bound:
        return _ok(f"Tor {lo}..{hi} vanish", False,
                   f"window bound {inst.tor_bound} too small for index {hi}")
    oks = [prof.vanishes(i) for i in range(lo, hi + 1)]
    return _ok(f"Tor indices {lo}..{hi} vanish", all(oks),
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


def _hyp_complexity(inst, pick):
    """r = pick(cx M, cx N) of the window estimates, and its line."""
    r = pick(inst.cx("M").value, inst.cx("N").value)
    return r, _line(f"r = {pick.__name__} complexity estimate = {r}", "satisfied", None,
                    kind="estimate-based")


def _find_vanishing_run(inst, length, start):
    prof = inst.profile()
    for n in range(start, inst.tor_bound - length + 2):
        if all(prof.vanishes(i) for i in range(n, n + length)):
            return n
    return None


def _hyp_run(inst, params, length, label, start=1):
    """n, the line "``length`` consecutive Tor vanish from n >= start", and
    the Tor_n..n+length-1 line (a list, empty when n is None or below start).

    An explicit ``n`` is used as given, otherwise the first run in the
    window.  The run line holds when n >= start and the run lies in the
    window; the vanishing line checks the run itself."""
    n = params.get("n")
    if n is None:
        n = _find_vanishing_run(inst, length, start)
    in_range = n is not None and n >= start
    run = _ok(label, in_range and n + length - 1 <= inst.tor_bound, {"n": n})
    return n, run, [_hyp_vanishing(inst, n, n + length - 1)] if in_range else []


def _hyp_constant_rank(inst):
    rk_m, rk_n = inst.constant_rank("M"), inst.constant_rank("N")
    return _ok("M or N has constant rank", rk_m or rk_n, {"M": rk_m, "N": rk_n})


def _hyp_free_height_one(inst):
    free_m, rk_m = inst.M.free_on_height(1), inst.constant_rank("M")
    return _line("M is free of constant rank in height <= 1 "
                 "(checked: height-one freeness plus constant generic rank)",
                 "satisfied" if free_m and rk_m else "failed",
                 {"free_on_height_1": free_m, "constant_rank": rk_m},
                 kind="surrogate")


def _depth_start(inst):
    """dim R - max(depth M, depth N) + 1, with infinite depths read as 0."""
    depths = (inst.depth(which) for which in "MN")
    return inst.d - max(int(v) if v not in (INF, NEG_INF) else 0 for v in depths) + 1


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
    """Tor_i = 0 for all i >= n, from n = 1 when no n was found."""
    n = 1 if n is None else n
    prof = inst.profile()
    ok = prof.vanish_range(n, inst.tor_bound)
    return ({"statement": f"Tor_i(M, N) = 0 for all i >= {n}",
             "verdict": "holds" if ok else "fails",
             "window": inst.tor_bound,
             "detail": {"from": n,
                        "vanishing": [prof.vanishes(i) for i in range(n, inst.tor_bound + 1)]}},
            prof.vanishing["tier"] if ok else None)


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


def _concl_free(inst):
    return {"statement": "M is free", "verdict": "holds" if inst.M.is_free() else "fails",
            "detail": {"minimal_relations": inst.M.minimalize().n_rels}}


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
    return concl, prof.vanishing["tier"]


# -- checkers: each returns (hypotheses, conclusion, tier) ---------------------------

def _check_2_1(inst, params):
    hyps = [_ok(f"{inst.ring.label} is regular (codimension 0)",
                inst.ring.codim == 0 and inst.ring.certified)]
    n, run, vanishing = _hyp_run(inst, params, 1, "some Tor_n vanishes with n >= 1")
    # a searched n is a vanishing index by construction; an explicit one
    # that is not adds its failed vanishing line
    hyps += [run] + [h for h in vanishing if h["status"] == "failed"]
    return hyps, *_concl_vanish_from(inst, n)


def _check_2_2(inst, params):
    c = inst.c
    n, run, vanishing = _hyp_run(inst, params, c + 1,
                                 f"{c + 1} consecutive Tor vanish from some n >= 1")
    return [_hyp_certified(inst), run, *vanishing], *_concl_vanish_from(inst, n)


def _check_2_3(inst, params):
    c, d = inst.c, inst.d
    hyps = [_hyp_certified(inst), _ok("codimension >= 1", c >= 1),
            _hyp_finite_length(inst, "T")]
    dimsum = inst.dim("M") + inst.dim("N")
    hyps.append(_ok("dim M + dim N < dim R + codim", dimsum < d + c,
                    {"dim_sum": encode_infinite(dimsum), "bound": d + c}))
    n, run, vanishing = _hyp_run(inst, params, c,
                                 f"{c} consecutive Tor vanish from some n >= 1")
    hyps += [run, *vanishing]
    if n is not None and n <= d:
        hyps.append(_model("base ring unramified (needed since n <= dim R)"))
    return hyps, *_concl_vanish_from(inst, n)


def _check_2_4(inst, params):
    r, _ = _hyp_complexity(inst, min)
    start = _depth_start(inst)
    hyps = [_hyp_certified(inst),
            _line(f"r = min of the complexity estimates = {r}", "satisfied",
                  {"cx_M": inst.cx("M").as_dict(), "cx_N": inst.cx("N").as_dict()},
                  kind="estimate-based")]
    _, run, vanishing = _hyp_run(
        inst, params, r + 1,
        f"{r + 1} consecutive Tor vanish from some n >= dim - depth + 1 = {start}",
        start=max(1, start))
    return hyps + [run, *vanishing], *_concl_vanish_from(inst, max(1, start))


def _check_2_6(inst, params):
    start = max(1, _depth_start(inst))
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
    return hyps, concl, None


def _check_2_7(inst, params):
    prof = inst.profile()
    rep = depth_formula_check(prof)
    hyps = [_hyp_certified(inst),
            _ok("Tor_i(M, N) = 0 for all i >= 1 (certified)",
                rep.hypothesis_met, prof.vanishing)]
    concl = {"statement": "depth M + depth N = depth R + depth(M tensor N)",
             "verdict": "holds" if rep.holds else "fails",
             "detail": rep.as_dict()}
    return hyps, concl, rep.tier


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
    return hyps, *_concl_all_vanish(inst)


def _check_3_3(inst, params):
    c = inst.c
    hyps = [_hyp_certified(inst), _model("admissible complete intersection"),
            _hyp_free_on(inst, "M", c),
            _hyp_serre(inst, "M", c), _hyp_serre(inst, "N", c),
            _hyp_serre(inst, "T", c + 1)]
    return hyps, *_concl_all_vanish(inst)


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
    return hyps, concl, prof.vanishing["tier"]


def _check_3_7(inst, params):
    r, _ = _hyp_complexity(inst, min)
    start = max(1, _depth_start(inst))
    n, run, vanishing = _hyp_run(inst, params, r,
                                 f"{r} consecutive Tor vanish from some n >= {start}",
                                 start=start)
    hyps = [_hyp_certified(inst),
            _line(f"r = min complexity estimate = {r} >= 1",
                  "satisfied" if r >= 1 else "failed", None, kind="estimate-based"),
            run]
    if n is None:
        return hyps, {"statement": "parity vanishing propagates", "verdict": "fails",
                      "detail": "no starting run found"}, None
    prof = inst.profile()
    if r % 2 == 1:
        idxs = [i for i in range(n, inst.tor_bound + 1) if (i - n) % 2 == 0]
        stmt = f"Tor_(n+2i) = 0 for all i >= 0 (n = {n})"
    else:
        idxs = [i for i in range(n + 1, inst.tor_bound + 1) if (i - n) % 2 == 1]
        stmt = f"Tor_(n+2i+1) = 0 for all i >= 0 (n = {n})"
    ok = all(prof.vanishes(i) for i in idxs)
    concl = {"statement": stmt, "verdict": "holds" if ok else "fails",
             "detail": {i: prof.vanishes(i) for i in idxs}}
    return hyps + vanishing, concl, None


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
    return hyps, concl, prof.vanishing["tier"]


def _check_3_9(inst, params, part):
    r, cx_line = _hyp_complexity(inst, min)
    hyps = [_hyp_certified(inst), _hyp_mcm(inst, "M"), cx_line]
    if part == 1:
        hyps += [_hyp_free_on(inst, "M", r), _hyp_serre(inst, "N", r),
                 _hyp_serre(inst, "T", r + 1)]
        return hyps, *_concl_all_vanish(inst)
    hyps += [_hyp_free_on(inst, "M", r - 1), _hyp_serre(inst, "N", r - 1),
             _hyp_serre(inst, "T", r)]
    return hyps, *_even_vanish_with_odd_clause(inst)


def _check_3_12(inst, params, part):
    r, cx_line = _hyp_complexity(inst, min)
    hyps = [_hyp_certified(inst), _hyp_mcm(inst, "M"), _hyp_mcm(inst, "N"),
            _hyp_mcm(inst, "T"), cx_line]
    if part == 1:
        return hyps + [_hyp_free_on(inst, "M", r)], *_concl_all_vanish(inst)
    return hyps + [_hyp_free_on(inst, "M", r - 1)], *_even_vanish_with_odd_clause(inst)


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
    return hyps, *_concl_all_vanish(inst)


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
    return hyps, concl, prof.vanishing["tier"]


def _check_4_1(inst, params):
    hyps = [_hyp_certified(inst), _ok("hypersurface (codimension 1)", inst.c == 1),
            _model("ambient regular ring unramified"),
            _hyp_cm(inst, "M"), _hyp_cm(inst, "N"), _hyp_cm(inst, "T"),
            _ok("dim M + dim N <= dim R",
                inst.dim("M") + inst.dim("N") <= inst.d,
                {"dims": [encode_infinite(inst.dim("M")), encode_infinite(inst.dim("N"))],
                 "d": inst.d}),
            _hyp_vanishing(inst, 1, 1)]
    return hyps, *_concl_all_vanish(inst)


def _check_4_3(inst, params):
    prof = inst.profile()
    hyps = [_hyp_certified(inst),
            _ok("Tor_i(M, M) = 0 for all i >= 1 (certified)",
                prof.vanishing_certified, prof.vanishing)]
    cm_m = inst.M.is_cohen_macaulay() and inst.M.n_gens > 0
    cm_t = inst.tensor().is_cohen_macaulay() and inst.tensor().n_gens > 0
    hyps.append(_ok("M or M tensor M is Cohen-Macaulay (nonzero)", cm_m or cm_t,
                    {"M": cm_m, "tensor": cm_t}))
    return hyps, _concl_free(inst), prof.vanishing["tier"]


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
    return hyps, concl, None


def _check_4_7(inst, params):
    hyps = [_hyp_certified(inst),
            _ok("codimension equals dimension >= 1", inst.c == inst.d and inst.c >= 1,
                {"codim": inst.c, "dim": inst.d}),
            _hyp_mcm(inst, "M"), _hyp_mcm(inst, "N"), _hyp_finite_length(inst, "T")]
    return hyps, _concl_even_nonzero_pattern(inst, include_zero=True), None


def _check_4_8(inst, params):
    c = inst.c
    hyps = [_hyp_certified(inst), _model("ambient regular ring unramified"),
            _ok("codimension >= 1", c >= 1),
            _hyp_nonzero(inst, "M"), _hyp_nonzero(inst, "N"),
            _hyp_cm(inst, "M"), _hyp_cm(inst, "N"), _hyp_finite_length(inst, "T")]
    n, run, vanishing = _hyp_run(inst, params, c,
                                 f"{c} consecutive Tor vanish from some positive n")
    hyps += [run, *vanishing]
    if n is not None and c == 1:
        hyps.append(_ok("n is a positive even integer (codimension one case)",
                        n > 0 and n % 2 == 0, {"n": n}))
    return hyps, *_concl_vanish_from(inst, n)


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
    rep = depth_formula_check(inst.profile())
    ok = vanish_concl["verdict"] == "holds" and rep.holds
    concl = {"statement": "Tor_i(M, N) = 0 for all i >= 1 and the depth formula holds",
             "verdict": "holds" if ok else "fails",
             "detail": {"vanishing": vanish_concl["detail"],
                        "depth_formula": rep.as_dict()}}
    return hyps, concl, tier


def _check_4_11(inst, params):
    r, cx_line = _hyp_complexity(inst, min)
    start = max(1, _depth_start(inst))
    w = params.get("w", 0)
    n, run, vanishing = _hyp_run(inst, params, max(r, 1),
                                 f"Tor_n..n+r-1 vanish for some n >= {start}", start=start)
    hyps = [_hyp_certified(inst), cx_line, run]
    if n is None:
        return hyps, {"statement": "vanishing tail or depth-zero predecessor",
                      "verdict": "fails", "detail": "no starting run found"}, None
    prof = inst.profile()
    fl_idx = [n + 2 * w + i for i in range(1, max(r, 1) + 1) if n + 2 * w + i <= inst.tor_bound]
    hyps += vanishing
    hyps.append(_ok("Tor_(n+2w+i) has finite length for i = 1..r",
                    all(prof.entry(i).finite_length or prof.entry(i).vanishes
                        for i in fl_idx),
                    {i: prof.entry(i).finite_length or prof.entry(i).vanishes
                     for i in fl_idx}))
    tail_ok = prof.vanish_range(start, inst.tor_bound)
    if 1 <= n <= inst.tor_bound + 1:
        prev = prof.entry(n - 1)
        depth_zero = (not prev.vanishes) and prev.depth == 0
    else:
        depth_zero = False
    ok = tail_ok or depth_zero
    concl = {"statement": f"either Tor_i = 0 for all i >= {start}, or "
                          f"depth Tor_{n - 1} = 0",
             "verdict": "holds" if ok else "fails",
             "detail": {"tail_vanishes": tail_ok, "depth_zero_predecessor": depth_zero}}
    return hyps, concl, None


def _check_4_12(inst, params):
    r, cx_line = _hyp_complexity(inst, min)
    prof = inst.profile()
    hyps = [_hyp_certified(inst), _hyp_mcm(inst, "M"),
            _ok("depth(M tensor N) > 0", inst.depth("T") > 0),
            cx_line,
            _hyp_vanishing(inst, 1, r),
            _line("Tor_i has finite length for all i >= 1 (window surrogate)",
                  "satisfied" if all(e.finite_length or e.vanishes for e in prof.entries)
                  else "failed",
                  {e.index: e.finite_length or e.vanishes for e in prof.entries},
                  kind="surrogate")]
    return hyps, *_concl_all_vanish(inst)


def _check_4_13(inst, params):
    r, cx_line = _hyp_complexity(inst, min)
    hyps = [_hyp_certified(inst), cx_line,
            _hyp_vanishing(inst, 1, r - 1),
            _hyp_mcm(inst, "M"), _hyp_reflexive(inst, "T"),
            _hyp_torsion_free(inst, "N"),
            _hyp_local_vanishing_surrogate(inst, 1)]
    return hyps, *_concl_all_vanish(inst)


def _check_4_14(inst, params):
    r, cx_line = _hyp_complexity(inst, max)
    hyps = [_hyp_certified(inst), _ok("dim R = 1", inst.d == 1),
            _hyp_constant_rank(inst), cx_line,
            _hyp_vanishing(inst, 1, r - 1),
            _hyp_torsion_free(inst, "M"), _hyp_torsion_free(inst, "T")]
    return hyps, *_concl_all_vanish(inst)


def _check_4_15(inst, params):
    r, cx_line = _hyp_complexity(inst, max)
    hyps = [_hyp_certified(inst), _hyp_constant_rank(inst), cx_line,
            _hyp_vanishing(inst, 1, r - 1),
            _hyp_mcm(inst, "M"), _hyp_reflexive(inst, "T"),
            _hyp_torsion_free(inst, "N")]
    return hyps, *_concl_all_vanish(inst)


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
    return hyps, _concl_free(inst), None


def _check_4_20(inst, params):
    c = inst.c
    hyps = [_hyp_certified(inst), _hyp_constant_rank(inst),
            _hyp_vanishing(inst, 1, c - 1), _hyp_reflexive(inst, "T")]
    if c >= 2:
        hyps += [_hyp_torsion_free(inst, "M"), _hyp_torsion_free(inst, "N")]
    return hyps, *_concl_all_vanish(inst)


def _check_4_21(inst, params):
    c = inst.c
    n, run, vanishing = _hyp_run(inst, params, c,
                                 f"{c} consecutive Tor vanish from some positive n")
    hyps = [_hyp_certified(inst), _ok("dim R = 2", inst.d == 2),
            _ok("codimension >= 1", c >= 1), run,
            _hyp_torsion_free(inst, "M"), _hyp_torsion_free(inst, "N"),
            _ok("N has constant rank", inst.constant_rank("N")),
            _hyp_free_height_one(inst), *vanishing]
    return hyps, *_concl_vanish_from(inst, n)


def _check_4_22(inst, params):
    hyps = [_hyp_certified(inst),
            _hyp_vanishing(inst, 1, inst.c - 2),
            _hyp_serre(inst, "T", 3),
            _hyp_reflexive(inst, "M"), _hyp_reflexive(inst, "N"),
            _ok("N has constant rank", inst.constant_rank("N")),
            _hyp_free_height_one(inst)]
    return hyps, *_concl_all_vanish(inst)


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

# The statements that read each optional parameter: n starts a vanishing
# run (the ``_hyp_run`` users) or is 3.15's index, and w is 4.11's.  A
# script's ``check`` rejects either key for every other statement.
PARAMETER_READERS = {
    "n": frozenset({"2.1", "2.2", "2.3", "2.4", "3.7", "3.15", "4.8", "4.11", "4.21"}),
    "w": frozenset({"4.11"}),
}

# The instance each statement reads: a pair (M, N), M with itself, or M
# with its dual M* = Hom(M, R).  ``check_theorem`` refuses an N for the
# last two, and a script's ``check`` does too.
INSTANCE_SHAPES = {**dict.fromkeys(_CHECKERS, "(M, N)"), "4.3": "(M, M)", "4.17": "(M, M*)"}

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

    N defaults to M; statement 4.17 pairs M with its dual.  Unknown ids
    raise UnknownTheoremError, and an N for a statement whose instance
    shape is (M, M) or (M, M*) raises InstanceShapeError.
    """
    sid = ALIASES.get(statement_id, statement_id)
    if sid not in _CHECKERS:
        raise UnknownTheoremError(
            f"unknown statement id {statement_id!r}; known: {', '.join(known_statements())}")
    shape = INSTANCE_SHAPES[sid]
    if N is not None and shape != "(M, N)":
        raise InstanceShapeError(f"statement {statement_id} reads {shape} and takes no N")
    if shape == "(M, M*)":
        N = M.dual()
        N.label = f"{M.label}*"
    inst = _Instance(M, N, tor_bound, degree_bound, window)
    hypotheses, conclusion, tier = _CHECKERS[sid](inst, params)
    return TheoremReport(sid, inst.describe(), hypotheses, conclusion, tier)
