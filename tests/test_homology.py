import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cihom import catalog, homology, resolutions
from cihom.fields import PrimeField, field_by_tag
from cihom.fmodules import ModulePresentation, PolyMatrix, equal_hilbert_functions
from cihom.homology import (
    HomologyEntry,
    _ResolutionComplex,
    depth_formula_check,
    ext_profile,
    minimal_cycles,
    ring_depth,
    subquotient_presentation,
    tor_profile,
)
from cihom.oracle import tor_oracle
from cihom.polynomials import PolyRing
from cihom.resolutions import betti_table, detect_periodicity, module_complexity, resolve
from cihom.rings import INF, RingPresentation
from cihom.search import SearchConfig, _search_3_6, random_homogeneous_module
from cihom.theorems import check_theorem

F = PrimeField(32003)


# -- Tor ------------------------------------------------------------------------

def test_tor_gap_pattern(mod_M_two_nodes, mod_N_two_nodes):
    prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 5)
    assert [prof.vanishes(i) for i in range(1, 6)] == [True, True, False, True, False]


def test_tor_periodic_values(periodic_pair):
    M, N = periodic_pair
    prof = tor_profile(M, N, 4)
    e1 = prof.entry(1)
    assert not e1.vanishes
    assert e1.normalized_hilbert()[:4] == (1, 1, 1, 1)
    assert e1.depth == 1
    assert prof.vanishes(2)
    assert not prof.vanishes(3)


def test_tor_of_free_module(ring_two_nodes, mod_N_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,))
    prof = tor_profile(free, mod_N_two_nodes, 3)
    assert prof.all_vanish_in_window()
    assert prof.vanishing["tier"] == "pd-finite"


def test_tor_symmetry_on_catalog(mod_M_two_nodes, mod_N_two_nodes, periodic_pair):
    pairs = [(mod_M_two_nodes, mod_N_two_nodes), periodic_pair]
    for M, N in pairs:
        left = tor_profile(M, N, 4)
        right = tor_profile(M, N, 4, side="right")
        for i in range(1, 5):
            a, b = left.entry(i), right.entry(i)
            assert a.vanishes == b.vanishes
            assert a.normalized_hilbert() == b.normalized_hilbert()
            assert a.depth == b.depth and a.dim == b.dim


def test_tor_rejects_an_unknown_side(mod_M_two_nodes):
    with pytest.raises(ValueError, match="side must be left or right"):
        tor_profile(mod_M_two_nodes, mod_M_two_nodes, 2, side="bogus")


# -- the on-demand profile against the eager builder ---------------------------------

def _eager_vanishing_evidence(entries, res, ring, bound):
    if not all(e["vanishes"] for e in entries):
        return {"all_vanish_in_window": False, "tier": None,
                "detail": "nonzero homology in window"}
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


def _eager_graded_data_equal(a, b):
    """``HomologyEntry.graded_data_equal`` on two ``as_dict()`` records."""
    if a["vanishes"] or b["vanishes"]:
        return a["vanishes"] == b["vanishes"]
    if (a["betti0"], a["depth"], a["dim"]) != (b["betti0"], b["depth"], b["dim"]):
        return False
    n = min(len(a["hilbert"]), len(b["hilbert"]))
    return a["hilbert"][:n] == b["hilbert"][:n]


def _eager_tor_profile_dict(M, N, bound, degree_bound, side="left"):
    """``tor_profile(...).as_dict()`` as tor_profile built it before the
    profile filled itself on first read: the resolution through step
    bound + 1, every Tor_i from its minimal cycles, then Tor_0 (the
    minimalized tensor), the evidence and the periodicity."""
    if side == "right":
        doc = _eager_tor_profile_dict(N, M, bound, degree_bound)
        doc.update(module=M.label, argument=N.label, resolved_side="right")
        return doc
    cx = _ResolutionComplex(M, N, 1, degree_bound).reach(bound + 1)
    entries = [_eager_entry_dict(i, cx.cycles(i).presentation().minimalize(), degree_bound)
               for i in range(1, bound + 1)]
    tor0 = _eager_entry_dict(0, M.tensor(N).minimalize(), degree_bound)
    vanishing = _eager_vanishing_evidence(entries, cx.res, M.ring, bound)
    periodicity = []
    for i in range(1, bound - 1):
        a, b = entries[i - 1], entries[i + 1]
        rec = {"i": i, "distance": 2, "equal": _eager_graded_data_equal(a, b)}
        if a["initial_degree"] is not None and b["initial_degree"] is not None:
            rec["twist"] = b["initial_degree"] - a["initial_degree"]
        periodicity.append(rec)
    return {"module": M.label, "argument": N.label, "ring": M.ring.label, "bound": bound,
            "degree_bound": degree_bound, "resolved_side": side,
            "tor0": tor0, "entries": entries,
            "vanishing": vanishing, "periodicity": periodicity}


def _random_pair(ring, seed):
    rng = random.Random(seed)
    return (random_homogeneous_module(ring, rng, 2, 1, label="A"),
            random_homogeneous_module(ring, rng, 2, 1, label="B"))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["quadric", "two_nodes", "node"]),
       st.integers(min_value=1, max_value=5), st.sampled_from(["left", "right"]),
       st.randoms(use_true_random=False))
def test_on_demand_profile_matches_the_eager_builder(ring_quadric, ring_two_nodes, ring_node,
                                                     seed, which, bound, side, order):
    ring = {"quadric": ring_quadric, "two_nodes": ring_two_nodes, "node": ring_node}[which]
    # Two copies of the pair, so the two builders share no cached work.
    M, N = _random_pair(ring, seed)
    prof = tor_profile(M, N, bound, 6, side=side)
    reads = list(range(bound + 1)) + ["vanishing", "vanishing_certified", "resolution"]
    order.shuffle(reads)
    for r in reads[:order.randint(0, len(reads))]:
        if isinstance(r, int):
            prof.entry(r)
        else:
            getattr(prof, r)
    eager = _eager_tor_profile_dict(*_random_pair(ring, seed), bound, 6, side)
    assert prof.as_dict() == eager
    assert prof.vanishing_certified == (eager["vanishing"]["all_vanish_in_window"] and
                                        eager["vanishing"]["tier"] in ("pd-finite", "periodicity",
                                                                       "rigidity"))


def _count_builds(monkeypatch):
    """Tor subquotients (their generator half) and HomologyEntry builds made
    from now on."""
    built = {"tor": 0, "entries": 0}
    real_sub, real_init = homology.minimal_cycles, HomologyEntry.__init__

    def sub(*args, **kwargs):
        built["tor"] += kwargs.get("label", "").startswith("Tor")
        return real_sub(*args, **kwargs)

    def init(self, *args, **kwargs):
        built["entries"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(homology, "minimal_cycles", sub)
    monkeypatch.setattr(HomologyEntry, "__init__", init)
    return built


def test_3_6_search_stops_at_the_first_nonzero_tor(ring_quadric, monkeypatch):
    # The search36 benchmark's item with seed 3: Tor_1 is nonzero, so the
    # 3.6 verdict is a miss after Tor_1 and Tor_0, with M resolved to step 2.
    # Whether Tor_1 vanishes is read off Hilbert numerators, so no Tor
    # module builds its minimal cycles.
    cfg = SearchConfig(ring_quadric, "3.6", samples=1, seed=3, max_gens=2, max_deg=1)
    rng = random.Random(cfg.seed)
    M = random_homogeneous_module(ring_quadric, rng, 2, 1, label="S0a")
    N = random_homogeneous_module(ring_quadric, rng, 2, 1, label="S0b")
    built = _count_builds(monkeypatch)
    rec = _search_3_6(cfg, (M, N))
    assert "M_satisfies_level" not in rec   # a miss: the conclusion is never read
    assert rec["hypotheses"]["all_tor_vanish_certified"] is False
    assert built == {"tor": 0, "entries": 2}
    assert len(M.minimalize()._res_cache["diffs"]) == 2
    assert not tor_profile(M, N, cfg.tor_bound).vanishes(1)


def _record_depth_reads(monkeypatch):
    """Presentations whose ``depth`` is called from now on."""
    read = []
    real = ModulePresentation.depth

    def depth(self):
        read.append(self)
        return real(self)

    monkeypatch.setattr(ModulePresentation, "depth", depth)
    return read


@pytest.mark.parametrize("seed", [1, 3, 25])
def test_3_6_search_reads_no_depth_of_a_higher_tor(ring_quadric, monkeypatch, seed):
    # search36 benchmark items: with seed 1 Tor_1..Tor_5 all vanish, with
    # seed 3 Tor_1 is nonzero; seed 25 is the one item whose tensor has
    # dimension dim R = 3.  The verdict reads only which Tor_i vanish,
    # so no Tor_i with i >= 1 has its depth computed; the tensor (Tor_0)
    # has it computed in its Serre test only when dim T = dim R, since a
    # lower dimension rejects every level first.
    cfg = SearchConfig(ring_quadric, "3.6", samples=1, seed=seed, max_gens=2, max_deg=1)
    rng = random.Random(cfg.seed)
    M = random_homogeneous_module(ring_quadric, rng, 2, 1, label="S0a")
    N = random_homogeneous_module(ring_quadric, rng, 2, 1, label="S0b")
    entries = []
    real_init = HomologyEntry.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        entries.append(self)

    monkeypatch.setattr(HomologyEntry, "__init__", init)
    read = _record_depth_reads(monkeypatch)
    _search_3_6(cfg, (M, N))
    higher = [e.presentation for e in entries if e.index >= 1]
    tensor = next(e.presentation for e in entries if e.index == 0)
    assert higher and not any(p is q for p in higher for q in read)
    assert any(q is tensor for q in read) == (tensor.dimension() == ring_quadric.dimension())


def _eager_entry_dict(index, pres, degree_bound):
    """``HomologyEntry.as_dict()`` as the entry computed it when every field
    was filled at construction: ``module_profile`` and ``hilbert_function``
    on the entry's own (minimal) presentation."""
    profile = pres.module_profile()
    initial = min(pres.minimalize().gen_degs, default=None)
    lo = min(0, initial) if initial is not None else 0
    hilbert = pres.hilbert_function(degree_bound, dmin=lo)
    normalized = [] if initial is None else [hilbert[d] for d in range(initial, max(hilbert) + 1)]
    return {"index": index, "vanishes": pres.n_gens == 0, "betti0": pres.n_gens,
            "depth": profile["depth"], "dim": profile["dim"],
            "finite_length": profile["length"] != "inf", "initial_degree": initial,
            "hilbert": normalized}


def test_lazy_entries_match_the_eager_profile(mod_M_two_nodes, mod_N_two_nodes, mod_quadric,
                                              monkeypatch):
    read = _record_depth_reads(monkeypatch)
    for M, N, bound in ((mod_M_two_nodes, mod_N_two_nodes, 5), (mod_quadric, mod_quadric, 4)):
        prof = tor_profile(M, N, bound, 6)
        for e in [prof.tor0] + prof.entries:
            # dim, finite length and the Hilbert data never build the depth
            e.dim, e.finite_length, e.hilbert
            assert not any(q is e.presentation for q in read)
            assert e.as_dict() == _eager_entry_dict(e.index, e.presentation, 6)


def test_right_profile_builds_no_entries_of_its_own(mod_M_two_nodes, mod_N_two_nodes,
                                                    monkeypatch):
    M = ModulePresentation(mod_M_two_nodes.ring, mod_M_two_nodes.gen_degs,
                           mod_M_two_nodes.relations, label="M")
    # The right profile of (M, N) is the left profile of (N, M): it builds
    # that profile's entries and nothing besides, and its document names
    # the module and the argument in the caller's order.
    built = _count_builds(monkeypatch)
    right = tor_profile(M, mod_N_two_nodes, 3, side="right")
    assert built == {"tor": 0, "entries": 0}
    doc = right.as_dict()
    # Tor_1 and Tor_2 of (N, M) vanish; only Tor_3 builds minimal cycles
    assert [e.vanishes for e in right.entries] == [True, True, False]
    assert built == {"tor": 1, "entries": 4}
    assert right.M is mod_N_two_nodes and right.N is M and right.side == "right"
    assert right.resolution.module is mod_N_two_nodes.minimalize()
    assert (doc["module"], doc["argument"], doc["resolved_side"]) == ("M", "N", "right")
    assert built == {"tor": 1, "entries": 4}


def test_profile_entry_outside_the_window(mod_M_two_nodes, mod_N_two_nodes):
    prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 2)
    for i in (-1, 3):
        with pytest.raises(IndexError):
            prof.entry(i)


def test_tor0_matches_tensor(mod_M_two_nodes, mod_N_two_nodes):
    prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 2)
    tensor = mod_M_two_nodes.tensor(mod_N_two_nodes)
    assert prof.tor0.hilbert == tensor.minimalize().hilbert_function(
        prof.degree_bound, dmin=min(0, prof.tor0.initial_degree or 0))


def test_tor0_and_vanishing_entries_build_no_cycles(mod_M_two_nodes, mod_N_two_nodes,
                                                    monkeypatch):
    # A vanishing entry is the zero module and Tor_0 the complex's minimal
    # M (x) N: reading either presentation builds no minimal cycles.  A
    # nonzero Tor_i, i >= 1, still builds them.
    built = []
    real = homology.MinimalCycles.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(homology.MinimalCycles, "__init__", counting)
    prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 3)
    tor0, tor1 = prof.tor0, prof.entry(1)
    assert tor1.vanishes and not tor0.vanishes
    assert tor1.presentation.n_gens == 0 and tor1.presentation.label.startswith("Tor1(")
    tensor = mod_M_two_nodes.tensor(mod_N_two_nodes).minimalize()
    assert tor0.presentation.gen_degs == tensor.gen_degs
    assert tor0.betti0 == tensor.n_gens
    assert tor0 is prof.entry(0)
    assert built == []
    assert prof.entry(3).betti0 > 0
    assert len(built) == 1


def test_a_profile_reads_one_resolution_view(mod_quadric, monkeypatch):
    # Every Tor_i vanishes here, so the evidence reads the resolution; the
    # view it reads is the one the entries reached, with no further resolve.
    calls = []
    real = homology.resolve

    def counting(M, steps):
        calls.append(steps)
        return real(M, steps=steps)

    monkeypatch.setattr(homology, "resolve", counting)
    prof = tor_profile(mod_quadric, mod_quadric, 4)
    assert all(e.vanishes for e in prof.entries)
    reads = len(calls)
    assert prof.vanishing["tier"] == "pd-finite"
    assert prof.resolution.truncation == 5
    assert len(calls) == reads
    expected = resolve(mod_quadric, steps=5)
    assert prof.resolution.differentials == expected.differentials
    assert prof.resolution.terminated == expected.terminated


def test_rigidity_replay_on_catalog(mod_quadric, ring_two_nodes,
                                    mod_M_two_nodes, mod_N_two_nodes):
    # wherever codim+1 consecutive Tor vanish, all later ones in the window do
    for M, N, bound in ((mod_quadric, mod_quadric, 8),
                        (mod_M_two_nodes, mod_N_two_nodes, 5)):
        c = M.ring.codim
        prof = tor_profile(M, N, bound)
        flags = [prof.vanishes(i) for i in range(1, bound + 1)]
        for start in range(len(flags) - c):
            if all(flags[start:start + c + 1]):
                assert all(flags[start:]), (M.label, start)


def test_even_odd_replay_3_11(mod_M_two_nodes, mod_N_two_nodes):
    prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 6)
    assert prof.vanishes(1) and prof.vanishes(2)
    for i in range(2, 7, 2):
        assert prof.vanishes(i)


def test_period_two_evidence_3_14(periodic_pair):
    M, N = periodic_pair
    prof = tor_profile(M, N, 8)
    for rec in prof.periodicity:
        assert rec["equal"], rec


# -- certified vanishing ---------------------------------------------------------

def _x_z_pair(ring):
    """R/(x), R/(z) over the two-node ring."""
    x, z = ring.poly_ring.variable("x"), ring.poly_ring.variable("z")
    return (ModulePresentation.quotient_by_ideal(ring, [x], label="Mx"),
            ModulePresentation.quotient_by_ideal(ring, [z], label="Nz"))


def _certified_both_ways(M, N, bound, degree_bound=6):
    """``vanishing_certified`` read first on a fresh profile, and the
    evidence's boolean (every Tor_i in the window vanishes, with a
    certifying tier) on a second fresh profile, whose
    ``vanishing_certified`` read after the evidence must give it too."""
    first = tor_profile(M, N, bound, degree_bound).vanishing_certified
    full = tor_profile(M, N, bound, degree_bound)
    tier = full.vanishing["tier"]
    evidence = full.all_vanish_in_window() and tier in ("pd-finite", "periodicity", "rigidity")
    assert full.vanishing_certified == evidence
    return first, evidence, tier


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_certified_vanishing_reads_agree(tag):
    # Read first over a certified ring, vanishing_certified stops after
    # Tor_(c+1) (Murthy's rigidity); the evidence reads the whole window and
    # the periodicity test.  Half the modules M are first syzygies.
    tiers = set()
    for name in ("R_node", "R_node3", "R_xyzu", "R_quadric"):
        ring = catalog.ring(name, field_by_tag(tag))
        rng = random.Random(5)
        for k in range(6):
            M = random_homogeneous_module(ring, rng, 2, 1, "A")
            N = random_homogeneous_module(ring, rng, 2, 1, "B")
            if k % 2:
                M = M.first_syzygy()
            first, full, tier = _certified_both_ways(M, N, 5)
            assert first == full, (name, k, tier)
            tiers.add((full, tier))
    assert {(False, None), (True, "pd-finite"), (True, "periodicity")} <= tiers


def test_vanishing_tier_is_none_exactly_when_the_window_has_a_nonzero_tor(ring_quadric,
                                                                         mod_quadric):
    # The theorem checkers return the evidence tier as it is, so it must be
    # None exactly when some Tor_i in the window is nonzero.  Over the
    # quadric: catalog 4.5's module against itself (pd-finite), A = coker
    # [[x, y], [z, w]] against R in windows of 6, 3 and 1 (periodicity,
    # rigidity, window only), and A against R/(x, z) (a nonzero window).
    pr = ring_quadric.poly_ring
    x, y, w, z = (pr.variable(v) for v in "xywz")
    A = ModulePresentation.from_relations(ring_quadric, (0, 0), [[x, z], [y, w]], label="A")
    R = ModulePresentation.free(ring_quadric, (0,), label="R")
    B = ModulePresentation.quotient_by_ideal(ring_quadric, [x, z], label="B")
    tiers = []
    for M, N, bound in ((mod_quadric, mod_quadric, 10), (A, R, 6), (A, R, 3), (A, R, 1),
                        (A, B, 3)):
        prof = tor_profile(M, N, bound, 6)
        tier = prof.vanishing["tier"]
        assert (tier is None) == (not prof.all_vanish_in_window()), (M.label, N.label, bound)
        tiers.append(tier)
    assert tiers == ["pd-finite", "periodicity", "rigidity", "window-only", None]


def test_certified_vanishing_stops_after_codim_plus_one(ring_two_nodes, monkeypatch):
    # R/(x), R/(z) over k[x,y,z,u]/(xy, zu): every Tor_i vanishes and the
    # resolution of R/(x) is periodic, yet the first read needs Tor_1..Tor_3.
    M, N = _x_z_pair(ring_two_nodes)
    assert _certified_both_ways(M, N, 5) == (True, True, "periodicity")
    built = _count_builds(monkeypatch)
    prof = tor_profile(M, N, 5, 6)
    assert prof.vanishing_certified
    assert built == {"tor": 0, "entries": 3} and sorted(prof._complex.entries) == [1, 2, 3]
    assert prof._vanishing is None


def test_certified_vanishing_gap_of_length_codim(mod_M_two_nodes, mod_N_two_nodes):
    # The 3.11 pair: Tor_1 = Tor_2 = 0 but Tor_3 != 0, a run of length c = 2
    # that certifies nothing.
    prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 5, 6)
    assert prof.vanishing_certified is False
    assert [prof.vanishes(i) for i in (1, 2, 3)] == [True, True, False]
    assert _certified_both_ways(mod_M_two_nodes, mod_N_two_nodes, 5) == (False, False, None)


def test_certified_vanishing_full_path_below_codim_plus_one(ring_two_nodes):
    # A window of 2 < c + 1 over the two-node ring: Tor_1 and Tor_2 vanish,
    # but nothing certifies the tail, and the evidence is built.
    M, N = _x_z_pair(ring_two_nodes)
    prof = tor_profile(M, N, 2, 6)
    assert prof.vanishing_certified is False
    assert prof._vanishing["tier"] == "window-only"


def test_certified_vanishing_full_path_over_an_uncertified_ring():
    # k[x,y]/(x^2, xy) is no complete intersection: no rigidity applies, and
    # the evidence is built on the first read.
    pr = PolyRing(F, ["x", "y"])
    x, y = pr.variable("x"), pr.variable("y")
    ring = RingPresentation(pr, [x * x, x * y], label="R_bad")
    assert not ring.certified
    M = ModulePresentation.quotient_by_ideal(ring, [y], label="My")
    N = ModulePresentation.quotient_by_ideal(ring, [x], label="Nx")
    prof = tor_profile(M, N, 4, 6)
    prof.vanishing_certified
    assert prof._vanishing is not None
    first, full, _ = _certified_both_ways(M, N, 4)
    assert first == full


def test_statement_2_2_reads_the_whole_window(ring_two_nodes, monkeypatch):
    # Statement 2.2 is the rigidity theorem itself: its conclusion must
    # observe every Tor_i in the window, even where Tor_1..Tor_(c+1) vanish.
    M, N = _x_z_pair(ring_two_nodes)
    built = _count_builds(monkeypatch)
    rep = check_theorem("2.2", M, N, tor_bound=5).as_dict()
    assert built == {"tor": 0, "entries": 5}
    concl = rep["conclusion"]
    assert concl["verdict"] == "holds"
    assert concl["detail"] == {"from": 1, "vanishing": [True] * 5}


# -- Ext ------------------------------------------------------------------------

def _ext_modules(M, N, lo, hi):
    """Ext^i(M, N) for lo <= i <= hi, each built from its minimal cycles,
    vanishing ones included: no Hilbert numerator decides them."""
    cx = _ResolutionComplex(M, N, -1, 8).reach(hi + 1)
    return {i: cx.cycles(i).presentation() for i in range(lo, hi + 1)}


def test_ext_of_free_module(ring_two_nodes, mod_N_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,))
    entries = ext_profile(free, mod_N_two_nodes, 3)
    assert all(e.vanishes for e in entries)


def test_ext_residue_field_over_ambient():
    pr = PolyRing(F, ["x", "y", "z"])
    S = RingPresentation(pr, [], label="S")
    gens = [pr.variable(v) for v in pr.variables]
    k = ModulePresentation.quotient_by_ideal(S, gens, label="k")
    free = ModulePresentation.free(S, (0,))
    mods = _ext_modules(k, free, 1, 3)
    assert mods[1].minimalize().n_gens == 0
    assert mods[2].minimalize().n_gens == 0
    assert mods[3].minimalize().n_gens == 1  # top static spot = dim S


def test_ext1_against_first_syzygy_two_nodes(mod_M_two_nodes, ring_two_nodes):
    ext1 = _ext_modules(mod_M_two_nodes, mod_M_two_nodes.first_syzygy(), 1, 1)[1]
    m = ext1.minimalize()
    assert m.n_gens > 0
    assert ring_two_nodes.dimension() - m.dimension() == 1


# -- depth formula -----------------------------------------------------------------

def test_depth_formula_quadric(mod_quadric):
    rep = depth_formula_check(tor_profile(mod_quadric, mod_quadric, 10))
    assert rep["holds"] and rep["asserted"] and rep["tier"] == "pd-finite"
    assert (rep["depth_M"], rep["depth_N"], rep["depth_ring"], rep["depth_tensor"]) == (2, 2, 3, 1)


def test_depth_formula_trivial_ring(ring_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,))
    rep = depth_formula_check(tor_profile(free, free, 3))
    assert rep["holds"] and rep["asserted"]


def test_depth_formula_declined_without_vanishing(periodic_pair):
    M, N = periodic_pair
    rep = depth_formula_check(tor_profile(M, N, 4))
    assert not rep["hypothesis_met"]
    assert not rep["asserted"]


def _json_keys(value):
    """``value`` with every dict key as JSON writes it: a string."""
    if isinstance(value, dict):
        return {str(k): _json_keys(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_keys(v) for v in value]
    return value


@pytest.mark.parametrize("which", ["zero", "residue_field", "quadric", "two_nodes"])
def test_report_values_are_strict_json(which, ring_node, mod_quadric, mod_M_two_nodes):
    # every report value is the dict the document prints: strict JSON
    # (infinities encoded), which reads back equal up to JSON's string keys
    pr = ring_node.poly_ring
    M = {"zero": ModulePresentation.zero(ring_node),
         "residue_field": ModulePresentation.quotient_by_ideal(
             ring_node, [pr.variable(v) for v in pr.variables], label="k"),
         "quadric": mod_quadric, "two_nodes": mod_M_two_nodes}[which]
    depth_formula = depth_formula_check(tor_profile(M, M, 3, 4))
    values = [M.ring.verify_regular_sequence(), M.module_profile(),
              betti_table(resolve(M, steps=6)), module_complexity(M, window=6), depth_formula]
    for value in values:
        assert json.loads(json.dumps(value, allow_nan=False)) == _json_keys(value)
    # the shifted form is filled once the resolution has terminated
    assert (depth_formula["shifted_form"] is not None) == (which in ("zero", "quadric"))
    if which == "zero":
        assert values[1] == {"dim": "-inf", "depth": "inf", "length": 0, "betti0": 0}
        assert (depth_formula["left"], depth_formula["shifted_form"]["depth_tor_q"]) == (
            "inf", "inf")
    if which == "residue_field":
        assert values[1] == {"dim": 0, "depth": 0, "length": 1, "betti0": 1}


def test_ring_depth(ring_two_nodes, ring_quadric):
    assert ring_depth(ring_two_nodes) == 2
    assert ring_depth(ring_quadric) == 3


# -- each Tor_i presented on a minimal set of cycles ----------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.sampled_from(["quadric", "two_nodes"]))
def test_tor_presentations_are_minimal_and_match_the_oracle(ring_quadric, ring_two_nodes,
                                                            seed, which):
    # The kernel generators left after dropping those in the image are a
    # minimal generating set, so the built presentation has exactly them and
    # minimalize keeps every one, and the Hilbert data is the linear-algebra
    # oracle's.
    ring = ring_quadric if which == "quadric" else ring_two_nodes
    M, N = _random_pair(ring, seed)
    cx = _ResolutionComplex(M, N, 1, 8).reach(4)
    cycles = {i: cx.cycles(i) for i in range(1, 4)}
    dims = tor_oracle(M, N, 3, 5)
    for i in range(1, 4):
        pres = cycles[i].presentation()
        assert pres.gen_degs == cycles[i].gen_degs, (seed, i)
        assert pres.minimalize().gen_degs == pres.gen_degs, (seed, i)
        hilbert = pres.hilbert_function(5, dmin=min(dims[i], default=0))
        for d in sorted(set(dims[i]) | set(hilbert)):
            assert hilbert.get(d, 0) == dims[i].get(d, 0), (seed, i, d)


def _count_tracked_bases(monkeypatch):
    """TrackedSubmodule builds made from now on."""
    from cihom import groebner
    tracked = {"bases": 0}
    real_init = groebner.TrackedSubmodule.__init__

    def counting_init(self, *args, **kwargs):
        tracked["bases"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.TrackedSubmodule, "__init__", counting_init)
    return tracked


def test_a_vanishing_tor_computes_no_relations(mod_M_two_nodes, mod_N_two_nodes, monkeypatch):
    # Tor_1 and Tor_2 vanish on this pair and Tor_3 does not.  A vanishing
    # Tor_i takes one tracked basis, for the kernel; a nonzero one a second,
    # for the relations among its minimal cycles, and only when its
    # presentation is built.
    resolve(mod_M_two_nodes, steps=4)
    mod_N_two_nodes.minimalize()
    tracked = _count_tracked_bases(monkeypatch)
    for i, bases in ((1, 1), (2, 1), (3, 2)):
        tracked["bases"] = 0
        cycles = _ResolutionComplex(mod_M_two_nodes, mod_N_two_nodes, 1, 8).reach(i + 1).cycles(i)
        assert tracked["bases"] == 1, i
        tor = cycles.presentation()
        assert (tor.n_gens == 0, tracked["bases"]) == (bases == 1, bases), i
        assert tor.gen_degs == cycles.gen_degs, i


def test_reading_only_vanishing_builds_no_relations(mod_M_two_nodes, mod_N_two_nodes,
                                                    monkeypatch):
    # Tor_3 of the two-node pair is nonzero.  Whether it vanishes, its
    # dimension and its Hilbert data are read off Hilbert numerators, with
    # no tracked basis; its betti0 takes the kernel's tracked basis alone;
    # the first read of its presentation builds the second, for the
    # relations, and drops the cycles; later reads of it build nothing
    # (depth builds the ambient resolution, from the presentation already
    # built).
    resolve(mod_M_two_nodes, steps=4)
    mod_N_two_nodes.minimalize()
    tracked = _count_tracked_bases(monkeypatch)
    entry = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 3).entry(3)
    assert not entry.vanishes
    entry.dim, entry.finite_length, entry.hilbert
    assert tracked["bases"] == 0
    assert entry.betti0 > 0
    assert tracked["bases"] == 1 and entry._presentation is None
    pres = entry.presentation
    assert tracked["bases"] == 2 and entry._cycles is None
    assert pres.n_gens == entry.betti0 and min(pres.gen_degs) == entry.initial_degree
    entry.depth, entry.dim, entry.hilbert
    built = tracked["bases"]
    assert entry.presentation is pres and tracked["bases"] == built


def _entry_fields(e):
    """Every field of a HomologyEntry, its presentation's relations as text."""
    pres = e.presentation
    return (e.index, e.vanishes, e.betti0, e.initial_degree, e.depth, e.dim,
            e.finite_length, e.hilbert, e.normalized_hilbert(), e.as_dict(),
            pres.gen_degs, pres.relations.col_degs, pres.relations.text_rows(), pres.label)


def _eager_fields(i, ref, degree_bound):
    """``_entry_fields`` of the entry whose minimal presentation is ``ref``,
    each field read off ``ref`` itself (``_eager_entry_dict``)."""
    want = _eager_entry_dict(i, ref, degree_bound)
    hilbert = ref.hilbert_function(degree_bound, dmin=min(0, want["initial_degree"] or 0))
    return (i, want["vanishes"], want["betti0"], want["initial_degree"], ref.depth(),
            ref.dimension(), ref.length() != INF, hilbert, tuple(want["hilbert"]), want,
            ref.gen_degs, ref.relations.col_degs, ref.relations.text_rows(), ref.label)


def _eager_homology(M, N, i, sign):
    """Tor_i (sign 1) or Ext^i (sign -1) of M and N, built eagerly by
    subquotient_presentation on the complex written out here, minimalized."""
    res = resolve(M, steps=i + 1)
    Nmin = N.minimalize()
    B, n_degs = Nmin.relations, Nmin.gen_degs
    label = f"{'Tor' if sign > 0 else 'Ext'}{i}({M.label},{N.label})"
    if not res.step_degrees(i) or not n_degs:
        return ModulePresentation.zero(M.ring, label=label)

    def rels(j):
        degs = tuple(sign * a for a in res.step_degrees(j))
        return B.identity_kron(degs) if degs else None

    def kron(j):
        d = res.differential(j)
        return None if d is None else (d if sign > 0 else d.transpose()).kron_identity(n_degs)

    outgoing, incoming = (kron(i), kron(i + 1)) if sign > 0 else (kron(i + 1), kron(i))
    degs = tuple(sign * a + b for a in res.step_degrees(i) for b in n_degs)
    return subquotient_presentation(M.ring, degs, outgoing, rels(i - sign), incoming, rels(i),
                                    label=label).minimalize()


@pytest.mark.parametrize("pair", ["two_nodes", "quadric", "periodic"])
def test_lazy_entries_equal_the_eagerly_built_ones(mod_M_two_nodes, mod_N_two_nodes,
                                                   mod_quadric, periodic_pair, pair):
    # Tor_i and Ext^i entries, read off their numerators and built from
    # their cycles, against subquotient_presentation(...).minimalize(),
    # built eagerly: the same relations, generator degrees, depth,
    # dimension and Hilbert data.
    M, N = {"two_nodes": (mod_M_two_nodes, mod_N_two_nodes),
            "quadric": (mod_quadric, mod_quadric), "periodic": periodic_pair}[pair]
    bound, nonzero = 4, 0
    for sign, lazy in ((1, tor_profile(M, N, bound, 6).entries),
                       (-1, ext_profile(M, N, bound, 6))):
        eager = [_eager_fields(i, _eager_homology(M, N, i, sign), 6)
                 for i in range(1, bound + 1)]
        assert [_entry_fields(e) for e in lazy] == eager, sign
        nonzero += sum(not e.vanishes for e in lazy)
    assert nonzero


# -- Tor and Ext read off HS(H_i) = HS(coker in) + HS(coker out) - HS(target of out) --
# These tests rest on no assert inside src, so they run the same under python -O:
#   PYTHONPATH=src python -O -m pytest -q tests/test_homology.py -k "tor_identity or ext_identity"

@functools.cache
def _ambient_ring(tag):
    """k[x,y,z] over the field with that tag: no quotient relations."""
    return RingPresentation(PolyRing(field_by_tag(tag), ["x", "y", "z"]), [], label="S_xyz")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["node", "two_nodes", "quadric", "ambient"]),
       st.sampled_from(["f32003", "f3", "rational"]))
def test_tor_identity_matches_the_eager_path(rings_over, seed, which, tag):
    # vanishes, the initial degree, dim, finite length and the Hilbert data
    # come from the entry's numerator alone; betti0, depth and the
    # presentation from its minimal cycles.  Each equals the field of
    # subquotient_presentation(...).minimalize() built eagerly on a second
    # copy of the pair, and the Hilbert data is tor_oracle's.
    node, two_nodes, quadric = rings_over(tag)
    ring = {"node": node, "two_nodes": two_nodes, "quadric": quadric,
            "ambient": _ambient_ring(tag)}[which]
    bound, degree_bound, oracle_degree = 4, 6, 4
    M, N = _random_pair(ring, seed)
    prof = tor_profile(M, N, bound, degree_bound)
    dims = tor_oracle(M, N, bound, oracle_degree)
    for i in range(1, bound + 1):
        e = prof.entry(i)
        numeric = (e.vanishes, e.initial_degree, e.dim, e.finite_length, e.hilbert)
        assert (e._presentation, e._betti0 is None) == (None, not e.vanishes), (seed, i)
        ref = _eager_homology(*_random_pair(ring, seed), i, 1)
        want = _eager_entry_dict(i, ref, degree_bound)
        assert numeric == (want["vanishes"], want["initial_degree"], ref.dimension(),
                           ref.length() != INF, ref.hilbert_function(
                               degree_bound, dmin=min(0, want["initial_degree"] or 0))), (seed, i)
        assert e.as_dict() == want, (seed, i)
        pres = e.presentation   # handed the entry's numerator as its own
        assert (pres.gen_degs, pres.relations.col_degs, pres.relations.text_rows(),
                pres.label, pres.hilbert_numerator()) == (
            ref.gen_degs, ref.relations.col_degs, ref.relations.text_rows(), ref.label,
            ref.hilbert_numerator()), (seed, i)
        for d in sorted(set(dims[i]) | set(e.hilbert)):
            if d <= oracle_degree:
                assert e.hilbert.get(d, 0) == dims[i].get(d, 0), (seed, i, d)


def test_tor_identity_reads_vanishing_without_cycles(ring_quadric, monkeypatch):
    # The search36 benchmark's items with seeds 1 and 14: Tor_1..Tor_5 all
    # vanish, which the 3.6 verdict reads off Hilbert numerators alone, so
    # no Tor module builds its minimal cycles.  Over the quadric (c = 1) the
    # certified read stops after Tor_2: Tor_0..Tor_2 are built, M is
    # resolved through step 3 at most and no periodicity test runs.  With
    # seed 1, M = R/(x) has projective dimension 1; with seed 14 its
    # resolution is periodic, and the evidence would resolve through step 6.
    built = _count_builds(monkeypatch)
    periodicity_tests = []
    monkeypatch.setattr(homology, "detect_periodicity",
                        lambda res: periodicity_tests.append(res) or detect_periodicity(res))
    for seed, diffs, tier in ((1, 1, "pd-finite"), (14, 3, "periodicity")):
        cfg = SearchConfig(ring_quadric, "3.6", samples=1, seed=seed, max_gens=2, max_deg=1)
        rng = random.Random(cfg.seed)
        M = random_homogeneous_module(ring_quadric, rng, 2, 1, label="S0a")
        N = random_homogeneous_module(ring_quadric, rng, 2, 1, label="S0b")
        built.update(tor=0, entries=0)
        periodicity_tests.clear()
        rec = _search_3_6(cfg, (M, N))
        assert built == {"tor": 0, "entries": 3}, seed
        assert len(M.minimalize()._res_cache["diffs"]) == diffs, seed
        assert periodicity_tests == [], seed
        prof = tor_profile(M, N, cfg.tor_bound, cfg.degree_bound)
        assert cfg.tor_bound == 5 and prof.all_vanish_in_window()
        assert rec["hypotheses"]["all_tor_vanish_certified"] is True
        assert prof.vanishing["tier"] == tier
        assert built["tor"] == 0
    assert periodicity_tests   # seed 14's evidence ran the counted test


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["node", "two_nodes", "quadric", "ambient"]),
       st.sampled_from(["f32003", "f3", "rational"]))
def test_ext_identity_matches_the_eager_path(rings_over, seed, which, tag):
    # The same identity on Hom(F, N): vanishes, the initial degree, dim,
    # finite length and the Hilbert data come from the entry's numerator
    # before any cycle exists; betti0, depth and the presentation from its
    # minimal cycles.  Each equals the field of
    # subquotient_presentation(...).minimalize() built eagerly on a second
    # copy of the pair.
    node, two_nodes, quadric = rings_over(tag)
    ring = {"node": node, "two_nodes": two_nodes, "quadric": quadric,
            "ambient": _ambient_ring(tag)}[which]
    bound, degree_bound = 4, 6
    entries = ext_profile(*_random_pair(ring, seed), bound, degree_bound)
    for i, e in enumerate(entries, start=1):
        numeric = (e.vanishes, e.initial_degree, e.dim, e.finite_length, e.hilbert)
        assert (e._cycles, e._presentation, e._betti0 is None) == (
            None, None, not e.vanishes), (seed, i)
        ref = _eager_homology(*_random_pair(ring, seed), i, -1)
        want = _eager_entry_dict(i, ref, degree_bound)
        assert numeric == (want["vanishes"], want["initial_degree"], ref.dimension(),
                           ref.length() != INF, ref.hilbert_function(
                               degree_bound, dmin=min(0, want["initial_degree"] or 0))), (seed, i)
        assert e.as_dict() == want, (seed, i)
        pres = e.presentation   # handed the entry's numerator as its own
        assert (pres.gen_degs, pres.relations.col_degs, pres.relations.text_rows(),
                pres.label, pres.hilbert_numerator()) == (
            ref.gen_degs, ref.relations.col_degs, ref.relations.text_rows(), ref.label,
            ref.hilbert_numerator()), (seed, i)


def test_ext_identity_reads_vanishing_without_cycles(ring_node, monkeypatch):
    # R/(x) over the node k[x,y]/(xy) is maximal Cohen-Macaulay and R is
    # Gorenstein, so Ext^i(R/(x), R) = 0 for i >= 1, though every term of
    # Hom(F, R) is R (F is x, y, x, ... periodic).  The entries read that off
    # their numerators, so no Ext module builds its minimal cycles.
    x = ring_node.poly_ring.variable("x")
    M = ModulePresentation.quotient_by_ideal(ring_node, [x], label="R/(x)")
    R = ModulePresentation.free(ring_node, (0,), label="R")
    calls = []
    real = homology.minimal_cycles
    monkeypatch.setattr(homology, "minimal_cycles",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    entries = ext_profile(M, R, 4)
    assert [e.vanishes for e in entries] == [True] * 4
    assert [e.as_dict()["betti0"] for e in entries] == [0] * 4
    assert [e.presentation.n_gens for e in entries] == [0] * 4
    assert calls == []


@pytest.mark.parametrize("build", [tor_profile, ext_profile])
def test_a_negative_degree_bound_is_refused_up_front(mod_M_two_nodes, build):
    # Refused when the profile is made, naming the argument, and not by
    # max() of an empty Hilbert dict inside as_dict.
    M = mod_M_two_nodes
    with pytest.raises(ValueError, match="degree_bound must be >= 0, not -2"):
        build(M, M, 3, -2)
    with pytest.raises(ValueError, match="bound must be >= 1"):
        build(M, M, 0, 8)
    # 0, the least value the CLI accepts, still reads every entry
    entries = build(M, M, 3, 0)
    entries = entries.entries if build is tor_profile else entries
    assert all(isinstance(e.as_dict()["hilbert"], list) for e in entries)


@pytest.mark.parametrize("slot", ["outgoing", "incoming", "own_rels"])
def test_subquotient_rejects_a_map_that_does_not_fit(ring_node, slot):
    # A map on generators of degree 1 does not fit a term generated in degree 0.
    mats = dict.fromkeys(["outgoing", "target_rels", "incoming", "own_rels"])
    mats[slot] = PolyMatrix.identity(ring_node.poly_ring, (1,))
    with pytest.raises(ValueError, match=r"not the term's generator degrees \[0\]"):
        subquotient_presentation(ring_node, (0,), **mats)


# -- a literal period copies later steps and the Tor/Ext entries past it -----------------

def _resolved_outputs(M, N):
    """Twelve differentials with their degrees, the periodicity certificate,
    the Tor profile and the Ext entries of (M, N), windows 8 and 8."""
    res = resolve(M, steps=12)
    diffs = [(d.row_degs, d.col_degs, d.entries) for d in res.differentials]
    return (diffs, res.terminated, detect_periodicity(res),
            tor_profile(M, N, 8, 8).as_dict(),
            [e.as_dict() for e in ext_profile(M, N, 8, 8)]), res.period


def _period_cases(ring, seed):
    """(M, N) pairs built afresh on each call: a random module and its first
    syzygy against a random module, and over a hypersurface k as well."""
    rng = random.Random(seed)
    M = random_homogeneous_module(ring, rng, label="M")
    N = random_homogeneous_module(ring, rng, label="N")
    pairs = [(M, N), (M.first_syzygy(), N)]
    if ring.codim == 1:
        pr = ring.poly_ring
        pairs.append((ModulePresentation.quotient_by_ideal(
            ring, [pr.variable(v) for v in pr.variables], label="k"), N))
    return pairs


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
@pytest.mark.parametrize("name", ["R_node", "R_node3", "R_quadric", "R_xyzu"])
def test_copying_a_literal_period_changes_nothing(name, tag):
    # The same outputs with every step computed: matching is switched off.
    ring = catalog.ring(name, field_by_tag(tag))
    periods = []
    for seed in range(3):
        copied = [_resolved_outputs(M, N) for M, N in _period_cases(ring, seed)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resolutions, "_literal_period", lambda diffs: None)
            computed = [_resolved_outputs(M, N) for M, N in _period_cases(ring, seed)]
        for (out, period), (ref, no_period) in zip(copied, computed):
            assert no_period is None
            assert out == ref, (seed, period)
            periods.append(period)
    assert any(periods)


def _counting(monkeypatch, *names):
    """Calls of the named homology functions made from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(homology, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(homology, name, counted)
    return calls


def test_entries_past_a_literal_period_build_no_basis(ring_node3, monkeypatch):
    # R/(x) over k[x,y,z]/(xy): d_3 = [x] is d_1 raised by 2, so Tor_i and
    # Ext^i for i >= 3 are the entries two back, twisted.  Tor_i(R/(x),
    # R/(x)) is k[z] for odd i, of depth 1: Tor_1 builds its presentation
    # for that depth, and Tor_3..Tor_8 read it, with no basis or cycles.
    x = ring_node3.poly_ring.variable("x")
    M = ModulePresentation.quotient_by_ideal(ring_node3, [x], label="Mx")
    prof = tor_profile(M, M, 8, 8)
    first = [prof.entry(i) for i in (1, 2)]
    assert [(e.betti0, e.depth, e.dim) for e in first] == [(1, 1, 1), (0, INF, -INF)]
    assert prof.resolution.period == (1, 2, 2)
    calls = _counting(monkeypatch, "relation_basis", "minimal_cycles")
    rest = [prof.entry(i) for i in range(3, 9)]
    [e.as_dict() for e in rest]
    assert calls == {"relation_basis": 0, "minimal_cycles": 0}
    for e in rest:
        back = first[(e.index - 1) % 2]
        assert (e.betti0, e.depth, e.dim) == (back.betti0, back.depth, back.dim), e.index
    # Ext^1 and Ext^2 compute the cokernels of d_1^T and d_2^T; every later
    # one is copied.
    N = ModulePresentation.quotient_by_ideal(ring_node3, [x], label="Nx")
    ext_profile(M, N, 8, 8)
    assert calls == {"relation_basis": 2, "minimal_cycles": 0}


# -- kernel of a map ------------------------------------------------------------------

def _kernel(psi, source, target):
    """ker(source -> target) for a map psi given on generators."""
    return subquotient_presentation(source.ring, source.gen_degs, psi, target.relations, None,
                                    source.relations)


def test_kernel_of_zero_map(mod_N_two_nodes, ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    N = mod_N_two_nodes.minimalize()
    psi = PolyMatrix.zero(pr, N.gen_degs, N.gen_degs)
    ker = _kernel(psi, N, N)
    assert equal_hilbert_functions(ker, N)


def test_kernel_of_identity(mod_N_two_nodes, ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    N = mod_N_two_nodes.minimalize()
    psi = PolyMatrix.identity(pr, N.gen_degs)
    assert _kernel(psi, N, N).minimalize().n_gens == 0
    assert not minimal_cycles(ring_two_nodes, N.gen_degs, psi, N.relations, None,
                              N.relations).gen_degs


def test_kernel_of_injective_multiplication(ring_node):
    # multiplication by x on R/(y) over k[x,y]/(xy) is injective
    pr = ring_node.poly_ring
    x, y = pr.variable("x"), pr.variable("y")
    My = ModulePresentation.quotient_by_ideal(ring_node, [y], label="My")
    shifted = My.twist(1)
    psi = PolyMatrix(pr, (0,), (1,), [[x]])
    ker = _kernel(psi, shifted, My).minimalize()
    assert ker.n_gens == 0
    # cross-check through the linear-algebra oracle
    from cihom.oracle import map_kernel_cokernel_oracle
    kdims, _ = map_kernel_cokernel_oracle(psi, shifted, My, 6)
    assert all(v == 0 for v in kdims.values())


@functools.cache
def _fixture_ring(name, tag):
    return catalog.ring(name, field_by_tag(tag))


def _times(pr, v, degs):
    """Multiplication by the variable v on R^degs, into R^degs."""
    return PolyMatrix(pr, (0,), (1,), [[v]]).kron_identity(degs)


def _assert_survivors_are_minimal(ring, *args):
    # the greedy pass keeps a minimal generating set: as many cycles as the
    # minimalized subquotient has generators, so zero exactly when none
    cycles = minimal_cycles(ring, *args)
    pres = subquotient_presentation(ring, *args).minimalize()
    assert len(cycles.gen_degs) == pres.n_gens, args


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.sampled_from(["R_node", "R_node3", "R_xyzu", "R_quadric"]),
       st.sampled_from(["f32003", "f3", "rational"]), st.booleans())
def test_surviving_cycles_count_the_minimal_generators(seed, name, tag, syzygy):
    # The rule every zero test of the constructions' certificates reads, on
    # the evaluation kernel, the dual, two cokernels (identity columns modulo
    # a map) and two middle homologies.
    ring = _fixture_ring(name, tag)
    pr = ring.poly_ring
    x = pr.variable(pr.variables[0])
    rng = random.Random(seed)
    M = random_homogeneous_module(ring, rng, 2, rng.randint(1, 2), label="A")
    M = (M.first_syzygy() if syzygy else M).minimalize()
    if not M.n_gens:
        return
    D = M.dual_generators()
    assert len(M._dual_cycles().gen_degs) == M.dual().minimalize().n_gens
    u = D.transpose()
    free = u.row_degs
    # evaluation kernel (all of M when M* = 0)
    _assert_survivors_are_minimal(ring, M.gen_degs, u if D.ncols else None, None, None,
                                  M.relations)
    # M / xM, and R^m / im u, the pushforward
    _assert_survivors_are_minimal(ring, M.gen_degs, None, None, _times(pr, x, M.gen_degs),
                                  M.relations)
    _assert_survivors_are_minimal(ring, free, None, None, u, None)
    # M -> R^m -> R^m / im u at the free spot, and Tor_1(M, R/(x)) from the
    # resolution: d_1 and d_2 modulo x
    _assert_survivors_are_minimal(ring, free, PolyMatrix.identity(pr, free), u, u, None)
    res = resolve(M, steps=2)
    f0, f1 = res.step_degrees(0), res.step_degrees(1)
    _assert_survivors_are_minimal(ring, f1, res.differential(1), _times(pr, x, f0),
                                  res.differential(2), _times(pr, x, f1))


def test_shifted_depth_formula_at_top_index(ring_node3):
    # finite projective dimension with a nonzero top Tor: the shifted form
    # depth M + depth N = depth R + depth(Tor_q) - q at q = sup
    pr = ring_node3.poly_ring
    z = pr.variable("z")
    M = ModulePresentation.quotient_by_ideal(ring_node3, [z], label="M")
    rep = depth_formula_check(tor_profile(M, M, 6))
    sf = rep["shifted_form"]
    assert sf is not None and sf["q"] == 1
    if sf["applicable"]:
        assert sf["holds"] is True


def test_shifted_depth_formula_total_vanishing(mod_quadric):
    rep = depth_formula_check(tor_profile(mod_quadric, mod_quadric, 10, 6))
    sf = rep["shifted_form"]
    assert sf == {"q": 0, "depth_tor_q": 1, "applicable": True, "holds": True}


def test_tensor_symmetry_hilbert(mod_M_two_nodes, mod_N_two_nodes):
    left = mod_M_two_nodes.tensor(mod_N_two_nodes)
    right = mod_N_two_nodes.tensor(mod_M_two_nodes)
    assert equal_hilbert_functions(left, right)
