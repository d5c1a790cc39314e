import json
from types import SimpleNamespace

import pytest

import cihom.search as search
from cihom.constructions import TorsionInputError
from cihom.fields import PrimeField
from cihom.fmodules import ModulePresentation
from cihom.homology import tor_profile
from cihom.polynomials import InvariantError, PolyRing
from cihom.rings import HypothesisMissingError, RingPresentation
from cihom.search import SearchConfig, counterexample_search, random_homogeneous_module
import golden
import reference


def test_unknown_question(ring_node):
    with pytest.raises(ValueError):
        SearchConfig(ring_node, "1.23")


def test_seed_replay_identical(ring_node):
    cfg1 = SearchConfig(ring_node, "3.17", samples=6, seed=5)
    cfg2 = SearchConfig(ring_node, "3.17", samples=6, seed=5)
    log1 = counterexample_search(cfg1)
    log2 = counterexample_search(cfg2)
    assert json.dumps(log1, sort_keys=True, default=str) == \
        json.dumps(log2, sort_keys=True, default=str)


def test_different_seed_differs(ring_node):
    log1 = counterexample_search(SearchConfig(ring_node, "3.17", samples=6, seed=5))
    log2 = counterexample_search(SearchConfig(ring_node, "3.17", samples=6, seed=6))
    assert json.dumps(log1, sort_keys=True, default=str) != \
        json.dumps(log2, sort_keys=True, default=str)


def test_3_17_log_well_formed(ring_node):
    cfg = SearchConfig(ring_node, "3.17", samples=12, seed=1)
    log = counterexample_search(cfg)
    assert log["summary"]["candidate"] == 0  # a hit would be a surprise
    assert len(log["findings"]) == 12
    for rec in log["findings"]:
        assert rec["classification"] in ("candidate", "near-miss", "miss", "skipped")
        assert "modules" in rec and "sample" in rec


def test_4_10_preset_near_miss(ring_two_nodes, mod_M_two_nodes, mod_N_two_nodes):
    cfg = SearchConfig(ring_two_nodes, "4.10", samples=2, seed=1,
                       preset=[(mod_M_two_nodes, mod_N_two_nodes)])
    log = counterexample_search(cfg)
    first = log["findings"][0]
    assert first["origin"] == "preset"
    assert first["classification"] == "near-miss"
    assert first["gap_pattern"] == {"start": 1, "gap": 2, "nonzero_at": 3}


class _GapProfile:
    """A stub Tor profile: Tor_1 = Tor_2 = 0, Tor_3 != 0 and Tor_0 of finite
    length, the configuration 4.10 looks for."""
    tor0 = SimpleNamespace(presentation=SimpleNamespace(length=lambda: 1))

    def vanishes(self, i):
        return i < 3


def _gap_verdict(monkeypatch, ring):
    monkeypatch.setattr(search, "tor_profile", lambda *args: _GapProfile())
    pr = ring.poly_ring
    k = ModulePresentation.quotient_by_ideal(ring, [pr.variable(v) for v in pr.variables],
                                             label="k")
    log = counterexample_search(SearchConfig(ring, "4.10", samples=0, preset=[(k, k)]))
    (rec,) = log["findings"]
    assert rec["gap_pattern"] == {"start": 1, "gap": 2, "nonzero_at": 3}
    assert rec["hypotheses"]["tensor_finite_length"] and rec["hypotheses"]["codim_at_least_2"]
    return rec["hypotheses"]["certified"], rec["classification"]


def test_4_10_gap_is_a_candidate_over_a_complete_intersection(monkeypatch, ring_two_nodes):
    assert _gap_verdict(monkeypatch, ring_two_nodes) == (True, "candidate")


def test_4_10_gap_over_an_uncertified_ring_is_a_near_miss(monkeypatch):
    # k[x,y]/(x^2, xy): two generators, so codim counts 2, but they are no
    # regular sequence.
    pr = PolyRing(PrimeField(32003), ["x", "y"])
    x, y = pr.variable("x"), pr.variable("y")
    ring = RingPresentation(pr, [x * x, x * y], label="R_x2_xy")
    assert _gap_verdict(monkeypatch, ring) == (False, "near-miss")


def test_4_18_runs(ring_node):
    cfg = SearchConfig(ring_node, "4.18", samples=5, seed=2)
    log = counterexample_search(cfg)
    assert len(log["findings"]) == 5
    assert log["summary"]["candidate"] == 0


def test_random_module_generator_reproducible(ring_node):
    import random
    a = random_homogeneous_module(ring_node, random.Random(9), 2, 2)
    b = random_homogeneous_module(ring_node, random.Random(9), 2, 2)
    assert a.describe() == b.describe()


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_random_module_matches_the_sum_of_its_terms(rings_over, tag):
    # the same draws, in the same order, as sums of one-term polynomials:
    # equal presentations, entry by entry in the same term order
    import random
    for ring in rings_over(tag):
        for seed in range(60):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for max_gens, max_deg in ((2, 2), (2, 1), (3, 3)):
                got = random_homogeneous_module(ring, rng, max_gens, max_deg)
                want = reference.random_module_by_sums(ring, ref_rng, max_gens, max_deg)
                assert got.gen_degs == want.gen_degs
                assert got.relations.col_degs == want.relations.col_degs
                assert [[list(p.terms.items()) for p in row] for row in got.relations.entries] \
                    == [[list(p.terms.items()) for p in row] for row in want.relations.entries]
            assert rng.getstate() == ref_rng.getstate()


def test_3_6_experiment_runs(ring_quadric):
    cfg = SearchConfig(ring_quadric, "3.6", samples=4, seed=3)
    log = counterexample_search(cfg)
    assert len(log["findings"]) == 4
    for rec in log["findings"]:
        assert rec["classification"] in ("candidate", "near-miss", "miss", "skipped")


def _search_3_6_own_tensor(cfg, mods):
    """The 3.6 handler as it was before it shared Tor_0: it builds M (x) N
    afresh and asks each depth level for its own Ext dimensions."""
    M, N = mods
    prof = tor_profile(M, N, cfg.tor_bound, cfg.degree_bound)
    tensor = M.tensor(N)
    level = next((n for n in (2, 1)
                  if ModulePresentation(tensor.ring, tensor.gen_degs, tensor.relations,
                                        label=tensor.label).satisfies_serre(n)), None)
    hyps = {"certified": cfg.ring.certified,
            "all_tor_vanish_certified": prof.vanishing_certified,
            "tensor_serre_level": level}
    rec = {"hypotheses": hyps}
    if all(hyps.values()):
        rec["M_satisfies_level"] = M.satisfies_serre(level)
    return rec


def _search_3_6_config(ring):
    pr = ring.poly_ring
    x, y, w, z = (pr.variable(v) for v in "xywz")
    Mq = ModulePresentation.from_relations(ring, (0, 0, 0, 0), [[w, y, x, z]], label="Mq")
    R = ModulePresentation.free(ring, (0,), label="R")
    I = ModulePresentation.quotient_by_ideal(ring, [x, y], label="Ixy")
    return SearchConfig(ring, "3.6", samples=3, seed=3, max_gens=2, max_deg=1,
                        preset=[(Mq, Mq), (R, Mq), (Mq, R), (I, Mq)])


def test_3_6_findings_unchanged(monkeypatch, ring_quadric):
    log = counterexample_search(_search_3_6_config(ring_quadric))
    assert [(r["classification"], r["hypotheses"]["tensor_serre_level"])
            for r in log["findings"]] == [
        ("near-miss", 1), ("near-miss", 2), ("near-miss", 2), ("miss", None),
        ("miss", None), ("miss", None), ("miss", None)]
    # The log was recorded before the handler shared Tor_0's tensor and the
    # Ext dimensions were memoized.
    golden.check("search_3_6_preset.json", golden.dump(log))
    monkeypatch.setattr(search, "_search_3_6", _search_3_6_own_tensor)
    assert counterexample_search(_search_3_6_config(ring_quadric)) == log


def _search_4_18_own_tensor(cfg, mods):
    """The 4.18 handler as it was before it read M (x) M* from Tor_0: it
    builds and minimalizes the tensor itself, before the Tor profile."""
    (M,) = mods
    ring = cfg.ring
    hyps = {"one_dimensional": ring.dimension() == 1,
            "certified": ring.certified,
            "domain": ring.is_domain(),
            "M_torsion_free": M.is_torsion_free()}
    dual = M.dual()
    hyps["tensor_torsion_free"] = M.tensor(dual).is_torsion_free()
    prof = tor_profile(M, dual, cfg.tor_bound, cfg.degree_bound)
    first_zero = next((i for i in range(1, cfg.tor_bound + 1) if prof.vanishes(i)), None)
    hyps["some_tor_vanishes"] = first_zero is not None
    rec = {"hypotheses": hyps, "first_vanishing_index": first_zero}
    if all(hyps.values()):
        rec["M_free"] = M.is_free()
    return rec


def _preset_search_config(ring, question):
    x, y = ring.poly_ring.variable("x"), ring.poly_ring.variable("y")
    preset = [(ModulePresentation.quotient_by_ideal(ring, [x], label="Mx"),),
              (ModulePresentation.free(ring, (0, 1), label="F"),),
              (ModulePresentation.quotient_by_ideal(ring, [x, y], label="k"),)]
    return SearchConfig(ring, question, samples=6, seed=2, preset=preset)


def test_4_18_findings_unchanged(monkeypatch, ring_node):
    # The log (keys in insertion order) was recorded while the handler still
    # built M (x) M* itself.
    text = golden.dump(counterexample_search(_preset_search_config(ring_node, "4.18")))
    golden.check("search_4_18_preset.json", text)
    monkeypatch.setattr(search, "_search_4_18", _search_4_18_own_tensor)
    assert golden.dump(counterexample_search(_preset_search_config(ring_node, "4.18"))) == text


def test_4_16_findings_unchanged(ring_node):
    # The node is not a domain, so every sample is a miss and the log pins
    # only the torsion verdicts on the way; a one-dimensional graded domain
    # would reach the question's other classifications.  The log (keys in
    # insertion order) was recorded while lex and grlex were still term orders.
    log = counterexample_search(_preset_search_config(ring_node, "4.16"))
    golden.check("search_4_16_preset.json", golden.dump(log))
    assert log["summary"]["miss"] == len(log["findings"]) == 9
    assert all(rec["hypotheses"]["domain"] is False for rec in log["findings"])


@pytest.mark.parametrize("kind", ["hypothesis", "torsion"])
def test_search_skips_hypothesis_and_torsion_errors(monkeypatch, ring_node, kind):
    zero = ModulePresentation.zero(ring_node, label="Z")
    err = {"hypothesis": HypothesisMissingError("no certificate"),
           "torsion": TorsionInputError(zero, zero)}[kind]

    def failing(cfg, mods):
        raise err

    monkeypatch.setattr(search, "_search_3_17", failing)
    log = counterexample_search(SearchConfig(ring_node, "3.17", samples=2, seed=1))
    assert log["summary"]["skipped"] == 2
    for rec in log["findings"]:
        assert rec["classification"] == "skipped"
        assert rec["error"] == str(err)
        assert rec["error_type"] == type(err).__name__


def _handler_name(question):
    return "_search_" + question.replace(".", "_")


@pytest.mark.parametrize("err", [InvariantError("broken invariant"), ValueError("bad value"),
                                 ZeroDivisionError("division")])
def test_search_propagates_other_errors(monkeypatch, ring_node, err):
    # Only the question's own handler fails, so each search shows that the
    # handler it looks up when it runs is the monkeypatched one.
    def failing(cfg, mods):
        raise err

    for question in search.KNOWN_QUESTIONS:
        with monkeypatch.context() as patch:
            patch.setattr(search, _handler_name(question), failing)
            with pytest.raises(type(err)) as raised:
                counterexample_search(SearchConfig(ring_node, question, samples=2, seed=1))
            assert raised.value is err


@pytest.mark.parametrize("question, arity", [("3.17", 2), ("4.16", 1), ("4.18", 1),
                                             ("4.10", 2), ("3.6", 2)])
def test_zero_module_is_skipped_before_the_handler(monkeypatch, ring_node, question, arity):
    def unreachable(cfg, mods):
        raise AssertionError(f"the {question} handler got a zero module")

    monkeypatch.setattr(search, _handler_name(question), unreachable)
    x = ring_node.poly_ring.variable("x")
    Z = ModulePresentation.zero(ring_node, label="Z")
    Mx = ModulePresentation.quotient_by_ideal(ring_node, [x], label="Mx")
    preset = [(Z,)] if arity == 1 else [(Mx, Z), (Z, Mx), (Z, Z)]
    log = counterexample_search(SearchConfig(ring_node, question, samples=0, preset=preset))
    assert log["summary"]["skipped"] == len(log["findings"]) == len(preset)
    for idx, (rec, mods) in enumerate(zip(log["findings"], preset)):
        assert rec == {"classification": "skipped", "reason": "zero module sampled",
                       "origin": "preset", "sample": idx,
                       "modules": [m.describe() for m in mods]}
