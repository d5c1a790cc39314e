import inspect
import random

import pytest

from cihom import catalog, homology, theorems
from cihom.cli import main
from cihom.fields import PrimeField, field_by_tag
from cihom.fmodules import ModulePresentation
from cihom.polynomials import PolyRing
from cihom.rings import RingPresentation
from cihom.search import random_homogeneous_module
from cihom.theorems import (INSTANCE_SHAPES, InstanceShapeError, UnknownTheoremError,
                            check_theorem, known_statements)
import golden

F = PrimeField(32003)


def _soundness(report):
    """No report ever asserts a conclusion with a failed hypothesis line,
    and none whose hypotheses are all met has the verdict `fails`: a
    statement of the paper holds on every instance that meets it."""
    failed = any(h["status"] == "failed" for h in report.hypotheses)
    if failed:
        assert not report.asserted
        assert report.as_dict()["conclusion"]["verdict"] == "hypotheses-unmet"
    if report.hypotheses_met:
        assert report.conclusion["verdict"] != "fails", report


def test_unknown_statement():
    with pytest.raises(UnknownTheoremError):
        check_theorem("9.99", None)


def test_registry_nonempty():
    ids = known_statements()
    for sid in ("2.2", "2.7", "3.12.1", "3.12.2", "4.7", "4.15", "4.22"):
        assert sid in ids


def test_3_12_2_on_gap_instance(mod_M_two_nodes, mod_N_two_nodes):
    rep = check_theorem("3.12.2", mod_M_two_nodes, mod_N_two_nodes,
                        tor_bound=5, window=12)
    assert not rep.hypotheses_met
    assert not rep.asserted
    free_line = next(h for h in rep.hypotheses if "locally free" in h["name"])
    assert free_line["status"] == "failed"
    assert free_line["evidence"]["nonfree_locus_codim"] == 1
    _soundness(rep)


def test_alias_acceptance(mod_M_two_nodes, mod_N_two_nodes):
    rep = check_theorem("3.12(2)", mod_M_two_nodes, mod_N_two_nodes,
                        tor_bound=3, window=12)
    assert rep.statement_id == "3.12.2"


def test_4_7_on_node_pair(node_pair):
    Mx, My = node_pair
    rep = check_theorem("4.7", Mx, My, tor_bound=10)
    assert rep.hypotheses_met and rep.asserted
    _soundness(rep)


def test_2_7_on_quadric(mod_quadric):
    rep = check_theorem("2.7", mod_quadric, mod_quadric, tor_bound=10)
    assert rep.asserted
    assert rep.tier == "pd-finite"
    _soundness(rep)


def test_2_2_replay_on_quadric(mod_quadric):
    rep = check_theorem("2.2", mod_quadric, mod_quadric, tor_bound=6)
    assert rep.hypotheses_met
    assert rep.as_dict()["conclusion"]["verdict"] == "holds"
    _soundness(rep)


def test_3_8_mcm_against_finite_pd(mod_M_two_nodes, ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    x, y, z, u = (pr.variable(v) for v in "xyzu")
    # N = R/(x+y+z+u): the linear form avoids every minimal prime, so it is
    # a nonzerodivisor and N has projective dimension one
    N = ModulePresentation.quotient_by_ideal(ring_two_nodes, [x + y + z + u],
                                             label="Nfd")
    rep = check_theorem("3.8", mod_M_two_nodes, N, tor_bound=5)
    assert rep.hypotheses_met, [h for h in rep.hypotheses if h["status"] == "failed"]
    assert rep.asserted
    _soundness(rep)


def test_4_3_on_free_module(ring_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,), label="free")
    rep = check_theorem("4.3", free, tor_bound=4)
    assert rep.asserted
    _soundness(rep)


def test_4_3_hypotheses_unmet_on_4_4(ring_node3):
    pr = ring_node3.poly_ring
    z = pr.variable("z")
    M = ModulePresentation.quotient_by_ideal(ring_node3, [z], label="M44")
    rep = check_theorem("4.3", M, tor_bound=4)
    # Tor_1(M, M) is nonzero, so the vanishing hypothesis fails: unmet
    assert not rep.hypotheses_met
    _soundness(rep)


def test_4_1_on_node3(ring_node3):
    pr = ring_node3.poly_ring
    x, y, z = (pr.variable(v) for v in "xyz")
    # M = R/(x), N = R/(y + z): Tor_1 = 0 and the dimension bound holds
    M = ModulePresentation.quotient_by_ideal(ring_node3, [x], label="Ma")
    N = ModulePresentation.quotient_by_ideal(ring_node3, [y + z], label="Nb")
    rep = check_theorem("4.1", M, N, tor_bound=5)
    _soundness(rep)
    if rep.hypotheses_met:
        assert rep.as_dict()["conclusion"]["verdict"] in ("holds", "fails")


def test_3_15_requires_parameter(mod_M_two_nodes):
    with pytest.raises(UnknownTheoremError):
        check_theorem("3.15", mod_M_two_nodes, mod_M_two_nodes)


def test_3_15_with_parameter(mod_quadric):
    rep = check_theorem("3.15", mod_quadric, mod_quadric, tor_bound=4, n=0)
    _soundness(rep)


def test_4_17_defaults_to_dual(mod_quadric):
    rep = check_theorem("4.17", mod_quadric, tor_bound=4, window=10)
    _soundness(rep)
    # the quadric module is not free, so the conclusion cannot be asserted;
    # at least one hypothesis line must have failed
    assert not rep.asserted


def test_soundness_across_statements(node_pair):
    Mx, My = node_pair
    for sid in ("2.1", "2.2", "2.3", "2.4", "2.6", "2.8", "3.3", "3.4", "3.7",
                "3.9.1", "3.9.2", "4.6", "4.7", "4.8", "4.9", "4.11", "4.12",
                "4.13", "4.14", "4.20", "4.21", "4.22"):
        rep = check_theorem(sid, Mx, My, tor_bound=6, window=8)
        _soundness(rep)
        d = rep.as_dict()
        assert d["id"] == sid
        assert isinstance(d["hypotheses"], list) and d["hypotheses"]


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_seeded_sweep_is_sound(tag):
    # Every statement on two seeded pairs per fixture ring, each module
    # replaced by its first syzygy half the time: 256 reports per field,
    # 137 of the 768 with their hypotheses met when this test was written,
    # none of them `fails`.  A `fails` found here is a bug or a window
    # artifact to record with its instance, not to skip.
    met = 0
    for name in ("R_node", "R_node3", "R_xyzu", "R_quadric"):
        ring = catalog.ring(name, field_by_tag(tag))
        rng = random.Random(7)
        for _ in range(2):
            M, N = (random_homogeneous_module(ring, rng, 2, 1, label) for label in "MN")
            M, N = (X.first_syzygy() if rng.random() < 0.5 else X for X in (M, N))
            for sid in known_statements():
                rep = check_theorem(sid, M, N if INSTANCE_SHAPES[sid] == "(M, N)" else None,
                                    tor_bound=4, degree_bound=6, window=8,
                                    **({"n": 1} if sid == "3.15" else {}))
                _soundness(rep)
                met += rep.hypotheses_met
    assert met, "no report met its hypotheses"


def test_3_12_2_positive_on_node_self_pair(node_pair):
    # the node's cyclic module is a maximal Cohen-Macaulay vector bundle:
    # every hypothesis of the even-vanishing statement holds and the even
    # indices do vanish (odd ones do not, so the odd clause stays vacuous)
    Mx, _ = node_pair
    rep = check_theorem("3.12.2", Mx, Mx, tor_bound=8, window=10)
    assert rep.hypotheses_met, [h for h in rep.hypotheses if h["status"] == "failed"]
    assert rep.asserted
    detail = rep.conclusion["detail"]
    assert detail["first_vanishing_odd"] is None
    assert all(detail["even_vanishing"].values())


def test_2_4_positive_on_quadric(mod_quadric):
    rep = check_theorem("2.4", mod_quadric, mod_quadric, tor_bound=8, window=8)
    assert rep.hypotheses_met and rep.asserted
    _soundness(rep)


def test_2_6_positive_on_periodic_pair(periodic_pair):
    M, N = periodic_pair
    rep = check_theorem("2.6", M, N, tor_bound=6, window=10)
    assert rep.hypotheses_met, [h for h in rep.hypotheses if h["status"] == "failed"]
    assert rep.asserted
    _soundness(rep)


def test_2_8_positive_on_quadric(mod_quadric):
    rep = check_theorem("2.8", mod_quadric, mod_quadric, tor_bound=8)
    assert rep.hypotheses_met and rep.asserted
    _soundness(rep)


def test_4_9_node_pair_soundly_unmet(node_pair):
    # Tor_1 vanishes but Tor_2 does not: the dimension inequality hypothesis
    # must fail, and the harness must decline rather than assert a falsehood
    Mx, My = node_pair
    rep = check_theorem("4.9", Mx, My, tor_bound=6, window=8)
    assert not rep.hypotheses_met
    _soundness(rep)
    dim_line = next(h for h in rep.hypotheses if "dim M + dim N" in h["name"])
    assert dim_line["status"] == "failed"


def test_4_8_node_pair_parity_guard(node_pair):
    # over the node any vanishing run starts at an odd index, which the
    # codimension-one parity hypothesis rejects
    Mx, My = node_pair
    rep = check_theorem("4.8", Mx, My, tor_bound=8, window=8)
    assert not rep.hypotheses_met
    _soundness(rep)


def test_3_16_unmet_on_gap_pair(mod_M_two_nodes, mod_N_two_nodes):
    rep = check_theorem("3.16", mod_M_two_nodes, mod_N_two_nodes,
                        tor_bound=4, window=12)
    _soundness(rep)
    assert not rep.asserted


def test_3_4_on_gap_pair(mod_M_two_nodes, mod_N_two_nodes):
    rep = check_theorem("3.4", mod_M_two_nodes, mod_N_two_nodes,
                        tor_bound=4, window=12)
    _soundness(rep)
    if rep.hypotheses_met:
        # both complexities are maximal, so the disjunction holds that way
        assert rep.conclusion["detail"]["branch"] == "maximal-complexity"


def test_check_builds_the_tensor_once(tmp_path, capsys, monkeypatch):
    # M (x) N comes from the left Tor profile's Tor_0, not from a second tensor
    calls = []
    real = ModulePresentation.tensor

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(ModulePresentation, "tensor", counting)
    script = tmp_path / "s.txt"
    script.write_text(
        "ring R = quotient(field=f32003, vars=[x,y,z,u], degrees=[1,1,1,1], ideal=[x*y, z*u])\n"
        "module M = coker(R, shifts=[0], matrix=[[y, u]])\n"
        "module N = coker(R, shifts=[0,0,0], matrix=[[0, u], [-z, x], [y, 0]])\n"
        "check 3.12.2 on (M, N)\n")
    assert main(["--script", str(script), "--format", "json"]) == 0
    assert len(calls) == 1
    # the report is the one the two-tensor code wrote
    golden.check("check_3_12_2.json", capsys.readouterr().out)


def test_harness_reports_are_pinned(mod_M_two_nodes, mod_N_two_nodes, mod_quadric, node_pair,
                                    periodic_pair):
    # Every statement's report on the four fixture pairs, by pair and
    # statement id; N goes only to the (M, N) statements, and 4.3 and 4.17
    # read M with itself and with M*.
    reports = {}
    for pair, (M, N) in [("two_nodes", (mod_M_two_nodes, mod_N_two_nodes)),
                         ("quadric", (mod_quadric, mod_quadric)),
                         ("node", node_pair), ("periodic", periodic_pair)]:
        reports[pair] = {}
        for sid in known_statements():
            params = {"n": 1} if sid == "3.15" else {}
            arg = N if theorems.INSTANCE_SHAPES[sid] == "(M, N)" else None
            rep = check_theorem(sid, M, arg, tor_bound=4, degree_bound=6, window=8, **params)
            _soundness(rep)
            reports[pair][sid] = rep.as_dict()
    assert len(known_statements()) == 32
    golden.check("harness_reports.json", golden.dump(reports))


def test_self_paired_statements_take_no_n(ring_node):
    # Over the node, 4.3 read Tor(M, N) and M (x) N of any N it was given:
    # with N = coker [[x*y]] (which is R) every hypothesis held and "M is
    # free" failed.  4.3 reads (M, M) and 4.17 reads (M, M*).
    assert set(theorems.INSTANCE_SHAPES) == set(known_statements())
    assert {sid: shape for sid, shape in theorems.INSTANCE_SHAPES.items()
            if shape != "(M, N)"} == {"4.3": "(M, M)", "4.17": "(M, M*)"}
    x, y = (ring_node.poly_ring.variable(v) for v in "xy")
    M = ModulePresentation.quotient_by_ideal(ring_node, [x], label="M")
    N = ModulePresentation.from_relations(ring_node, (0,), [[x * y]], label="N")
    for sid in ("4.3", "4.17"):
        with pytest.raises(InstanceShapeError, match=f"statement {sid} reads"):
            check_theorem(sid, M, N, tor_bound=4)
        rep = check_theorem(sid, M, tor_bound=4)
        _soundness(rep)
        assert rep.instance["argument"] == ("M" if sid == "4.3" else "M*")


class _RecordingParams(dict):
    """Statement parameters that note every key a checker reads."""

    def __init__(self, **params):
        super().__init__(**params)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_parameter_readers_match_the_checkers(node_pair):
    # The script parser rejects n= and w= by PARAMETER_READERS; each
    # checker must read exactly the parameters listed for it.
    M, N = node_pair
    for sid in known_statements():
        params = _RecordingParams(n=1)
        theorems._CHECKERS[sid](theorems._Instance(M, N, 4, 6, 8), params)
        assert params.read == {key for key, readers in theorems.PARAMETER_READERS.items()
                               if sid in readers}, sid


# statements whose hypotheses include "k consecutive Tor vanish from some n"
_RUN_STATEMENTS = ("2.1", "2.2", "2.3", "2.4", "3.7", "4.8", "4.11", "4.21")


def _fixture_pairs(mod_M_two_nodes, mod_N_two_nodes, mod_quadric, node_pair, periodic_pair):
    return [(mod_M_two_nodes, mod_N_two_nodes), (mod_quadric, mod_quadric), node_pair,
            periodic_pair]


@pytest.mark.parametrize("n", [0, 9])
def test_explicit_n_off_the_run_range_leaves_hypotheses_unmet(
        n, mod_M_two_nodes, mod_N_two_nodes, mod_quadric, node_pair, periodic_pair):
    # n = 0 lies below every statement's start, and a run from n = 9 leaves
    # the window 1..4: the run line fails with the given n as its evidence,
    # and n = 0 adds no Tor_0 vanishing line
    for M, N in _fixture_pairs(mod_M_two_nodes, mod_N_two_nodes, mod_quadric, node_pair,
                               periodic_pair):
        for sid in _RUN_STATEMENTS:
            rep = check_theorem(sid, M, N, tor_bound=4, degree_bound=6, window=8, n=n)
            assert not rep.hypotheses_met, (sid, M.label)
            runs = [h for h in rep.hypotheses if h["evidence"] == {"n": n}]
            assert runs and runs[0]["status"] == "failed", (sid, M.label)
            assert not any(h["name"].startswith(("Tor indices 0..", "Tor 0.."))
                           for h in rep.hypotheses), (sid, M.label)
            _soundness(rep)


def test_the_searched_n_given_explicitly_gives_the_same_report(
        mod_M_two_nodes, mod_N_two_nodes, mod_quadric, node_pair, periodic_pair):
    found = 0
    for M, N in _fixture_pairs(mod_M_two_nodes, mod_N_two_nodes, mod_quadric, node_pair,
                               periodic_pair):
        for sid in _RUN_STATEMENTS:
            rep = check_theorem(sid, M, N, tor_bound=4, degree_bound=6, window=8)
            n = next(h["evidence"]["n"] for h in rep.hypotheses
                     if isinstance(h["evidence"], dict) and "n" in h["evidence"])
            if n is None:
                continue
            found += 1
            again = check_theorem(sid, M, N, tor_bound=4, degree_bound=6, window=8, n=n)
            assert again.as_dict() == rep.as_dict(), (sid, M.label, n)
    assert found >= len(_RUN_STATEMENTS)


def test_2_1_checks_an_explicit_n():
    # over k[x, y], Tor_1(S/(x), S/(x)) = S/(x) and Tor_2 = 0: an explicit
    # n = 1 must not pass as a vanishing index and turn Auslander-Lichtenbaum
    # rigidity into a false counterexample
    pr = PolyRing(F, ["x", "y"])
    S = RingPresentation(pr, [], label="S")
    M = ModulePresentation.quotient_by_ideal(S, [pr.variable("x")], label="Sx")
    given = check_theorem("2.1", M, M, tor_bound=4, n=1)
    assert not given.hypotheses_met
    assert given.as_dict()["conclusion"]["verdict"] == "hypotheses-unmet"
    assert [h["status"] for h in given.hypotheses if h["name"] == "Tor indices 1..1 vanish"] \
        == ["failed"]
    searched = check_theorem("2.1", M, M, tor_bound=4)
    assert searched.asserted
    assert searched.hypotheses[1]["evidence"] == {"n": 2}


def _count_tor_profiles(monkeypatch):
    """Wrap tor_profile wherever it is looked up; returns the list of calls,
    each as (module label, argument label, side)."""
    calls = []
    real = homology.tor_profile
    signature = inspect.signature(real)

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["M"].label, bound.arguments["N"].label,
                      bound.arguments["side"]))
        return real(*args, **kwargs)

    for module in (homology, theorems, catalog):
        monkeypatch.setattr(module, "tor_profile", counting)
    return calls


@pytest.mark.parametrize("sid", ["2.7", "4.9"])
def test_depth_formula_reuses_the_left_profile(sid, monkeypatch, mod_M_two_nodes,
                                               mod_N_two_nodes):
    calls = _count_tor_profiles(monkeypatch)
    check_theorem(sid, mod_M_two_nodes, mod_N_two_nodes, tor_bound=4, degree_bound=6)
    assert len(calls) == 1


def test_3_8_builds_no_left_profile_of_the_pair(monkeypatch, mod_M_two_nodes,
                                                mod_N_two_nodes):
    # 3.8 reads only the right profile, which is the left profile of
    # (N, M) and needs no second call; its hypotheses on M and N alone
    # must not build M (x) N through a left profile of (M, N).
    calls = _count_tor_profiles(monkeypatch)
    check_theorem("3.8", mod_M_two_nodes, mod_N_two_nodes, tor_bound=4)
    assert ("M", "N", "left") not in calls
    assert calls == [("M", "N", "right")]


def test_example_4_5_builds_one_tor_profile(monkeypatch, capsys):
    calls = _count_tor_profiles(monkeypatch)
    assert main(["--example", "4.5", "--format", "json"]) == 0
    assert len(calls) == 1
    assert '"depth_formula"' in capsys.readouterr().out
