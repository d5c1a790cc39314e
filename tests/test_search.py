import json

import pytest

import cihom.search as search
from cihom.constructions import TorsionInputError
from cihom.fmodules import ModulePresentation
from cihom.homology import tor_profile
from cihom.polynomials import InvariantError
from cihom.rings import HypothesisMissingError
from cihom.search import SearchConfig, counterexample_search, random_homogeneous_module
import golden


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
    if M.n_gens == 0 or N.n_gens == 0:
        return {"classification": "skipped", "reason": "zero module sampled"}
    prof = tor_profile(M, N, cfg.tor_bound, cfg.degree_bound)
    tensor = M.tensor(N)
    level = next((n for n in (2, 1)
                  if ModulePresentation(tensor.ring, tensor.gen_degs, tensor.relations,
                                        label=tensor.label).satisfies_serre(n)), None)
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
            "domain": ring.is_domain()["domain"]}
    if M.n_gens == 0:
        return {"classification": "skipped", "reason": "zero module sampled"}
    hyps["M_torsion_free"] = M.biduality_report().torsion_free
    dual = M.dual()
    hyps["tensor_torsion_free"] = M.tensor(dual).biduality_report().torsion_free
    prof = tor_profile(M, dual, cfg.tor_bound, cfg.degree_bound)
    first_zero = next((i for i in range(1, cfg.tor_bound + 1) if prof.vanishes(i)), None)
    hyps["some_tor_vanishes"] = first_zero is not None
    rec = {"hypotheses": hyps, "first_vanishing_index": first_zero}
    if not all(hyps.values()):
        rec["classification"] = "miss"
        return rec
    rec["M_free"] = M.is_free()
    rec["classification"] = "near-miss" if rec["M_free"] else "candidate"
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


@pytest.mark.parametrize("err", [InvariantError("broken invariant"), ValueError("bad value"),
                                 ZeroDivisionError("division")])
def test_search_propagates_other_errors(monkeypatch, ring_node, err):
    def failing(cfg, mods):
        raise err

    monkeypatch.setattr(search, "_search_3_17", failing)
    with pytest.raises(type(err)):
        counterexample_search(SearchConfig(ring_node, "3.17", samples=2, seed=1))
