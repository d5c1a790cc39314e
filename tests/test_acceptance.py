"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expectation is exact (integer equality); each criterion also carries
a wall-clock budget that the computation must stay inside.
"""

import random
import time

from cihom.fields import PrimeField
from cihom.fmodules import ModulePresentation
from cihom.groebner import FreeModule, groebner_basis, normal_form, s_pair
from cihom.homology import depth_formula_check, tor_profile
from cihom.oracle import tor_oracle
from cihom.polynomials import monomials_of_degree
from cihom.resolutions import module_complexity, resolve
from cihom.search import random_homogeneous_module
from cihom.theorems import check_theorem
from reference import composition_is_zero

F = PrimeField(32003)


class _Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {verdict} ({elapsed:.1f}s / "
              f"budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.criterion} exceeded its {self.seconds}s budget"
        return False


def test_criterion_1_betti_fixture(mod_M_two_nodes):
    with _Budget(1, 10):
        res = resolve(mod_M_two_nodes, steps=6)
        assert res.betti_numbers() == [1, 2, 3, 4, 5, 6, 7]
        prof = tor_profile(mod_M_two_nodes, mod_M_two_nodes, 2, 6)
        assert not prof.vanishes(2)


def test_criterion_2_gap_fixture(mod_M_two_nodes, mod_N_two_nodes):
    with _Budget(2, 30):
        prof = tor_profile(mod_M_two_nodes, mod_N_two_nodes, 5, 8)
        assert prof.vanishes(1) and prof.vanishes(2)
        assert not prof.vanishes(3)
        assert prof.vanishes(4)
        assert not prof.vanishes(5)
        assert module_complexity(mod_M_two_nodes, window=10).value == 2
        assert module_complexity(mod_N_two_nodes, window=10).value == 2


def test_criterion_3_periodic_fixture(periodic_pair):
    with _Budget(3, 10):
        M, N = periodic_pair
        res = resolve(M, steps=10)
        assert res.betti_numbers()[:11] == [1] * 11
        prof = tor_profile(M, N, 8, 8)
        e1 = prof.entry(1)
        assert list(e1.normalized_hilbert())[:5] == [1, 1, 1, 1, 1]
        assert e1.depth == 1
        assert prof.vanishes(2)
        evidence = {rec["i"]: rec["equal"] for rec in prof.periodicity}
        for i in range(1, 7):
            assert evidence[i], f"distance-2 evidence missing at {i}"


def test_criterion_4_quadric_fixture(mod_quadric):
    with _Budget(4, 30):
        res = resolve(mod_quadric, steps=3)
        assert res.terminated and res.length() == 1
        assert mod_quadric.depth() == 2
        prof = tor_profile(mod_quadric, mod_quadric, 10, 6)
        assert prof.all_vanish_in_window()
        assert prof.vanishing["tier"] == "pd-finite"
        assert mod_quadric.tensor(mod_quadric).depth() == 1
        rep = depth_formula_check(tor_profile(mod_quadric, mod_quadric, 10, 6))
        assert rep.holds and rep.asserted
        assert (rep.depth_M, rep.depth_N) == (2, 2)
        assert (rep.depth_ring, rep.depth_tensor) == (3, 1)


def test_criterion_5_node3_fixture(ring_node3):
    with _Budget(5, 5):
        z = ring_node3.poly_ring.variable("z")
        M = ModulePresentation.quotient_by_ideal(ring_node3, [z], label="M")
        res = resolve(M, steps=3)
        assert res.terminated and res.length() == 1
        prof = tor_profile(M, M, 1, 6)
        assert not prof.vanishes(1)


def test_criterion_6_even_pattern(node_pair):
    with _Budget(6, 5):
        Mx, My = node_pair
        prof = tor_profile(Mx, My, 10, 6)
        for i in range(1, 10, 2):
            assert prof.vanishes(i), f"odd index {i}"
        for i in range(2, 11, 2):
            assert not prof.vanishes(i), f"even index {i}"
        tor0 = prof.tor0
        assert not tor0.vanishes
        assert Mx.tensor(My).length() == 1


def test_criterion_7_odd_pattern(node_pair):
    with _Budget(7, 5):
        Mx, _ = node_pair
        prof = tor_profile(Mx, Mx, 9, 6)
        assert not prof.tor0.vanishes
        for i in range(1, 10):
            assert prof.vanishes(i) == (i % 2 == 0), f"index {i}"


def test_criterion_8_oracle_equivalence(ring_two_nodes, ring_quadric, ring_node):
    with _Budget(8, 120):
        rng = random.Random(2009)
        modules_used = 0
        for ring in (ring_two_nodes, ring_quadric, ring_node):
            for _ in range(4):
                M = random_homogeneous_module(ring, rng, 2, 2, "A")
                N = random_homogeneous_module(ring, rng, 2, 2, "B")
                if M.n_gens == 0 or N.n_gens == 0:
                    continue
                modules_used += 2
                prof = tor_profile(M, N, 4, 6)
                dims = tor_oracle(M, N, 4, 6)
                for i in range(1, 5):
                    entry = prof.entry(i)
                    for d in range(0, 7):
                        assert entry.hilbert.get(d, 0) == dims[i].get(d, 0), \
                            (ring.label, i, d)
        assert modules_used >= 20


def test_criterion_9_property_suites(ring_two_nodes, ring_quadric, ring_node,
                                     mod_M_two_nodes, mod_N_two_nodes,
                                     mod_quadric, node_pair, periodic_pair):
    with _Budget(9, 180):
        rng = random.Random(1964)
        rings = (ring_two_nodes, ring_quadric, ring_node)

        # d.d = 0 and minimality on every computed resolution
        resolutions = [resolve(mod_M_two_nodes, steps=6),
                       resolve(mod_N_two_nodes, steps=6),
                       resolve(mod_quadric, steps=4),
                       resolve(periodic_pair[0], steps=8)]
        for _ in range(6):
            ring = rings[rng.randrange(3)]
            X = random_homogeneous_module(ring, rng, 2, 2)
            if X.n_gens:
                resolutions.append(resolve(X, steps=4))
        for res in resolutions:
            assert composition_is_zero(res)
            assert res.minimality_certificate()

        # Auslander-Buchsbaum on 50 random modules
        checked = 0
        while checked < 50:
            ring = rings[checked % 3]
            X = random_homogeneous_module(ring, rng, 2, 2).minimalize()
            if X.n_gens == 0:
                continue
            assert X.depth() + X.projective_dimension_ambient() == \
                ring.poly_ring.nvars, X.describe()
            checked += 1

        # Tor symmetry on all catalog pairs
        pairs = [(mod_M_two_nodes, mod_N_two_nodes), periodic_pair, node_pair,
                 (mod_quadric, mod_quadric), (node_pair[0], node_pair[0])]
        for M, N in pairs:
            left = tor_profile(M, N, 4, 6)
            right = tor_profile(M, N, 4, 6, side="right")
            for i in range(1, 5):
                assert left.entry(i).vanishes == right.entry(i).vanishes
                assert left.entry(i).normalized_hilbert() == \
                    right.entry(i).normalized_hilbert()

        # reduced-basis S-pair criterion on 50 random ideals
        for t in range(50):
            ring = rings[t % 3]
            pr = ring.poly_ring
            free = FreeModule(pr, (0,))
            cols = []
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 2)
                monos = list(monomials_of_degree(pr.nvars, deg))
                p = pr.zero()
                for _t in range(rng.randint(1, 3)):
                    p = p + pr.monomial(rng.choice(monos),
                                        F.from_int(rng.randint(1, 100)))
                if p:
                    cols.append((p,))
            if not cols:
                continue
            gb = groebner_basis(cols, free)
            gens = [gb.order.encode_column(g, free) for g in gb.generators]
            for i in range(len(gens)):
                for j in range(i):
                    if gb.lead_terms[i][0] != gb.lead_terms[j][0]:
                        continue
                    s = s_pair(gens[i], gens[j], gb.order)
                    assert not normal_form(s, gens, gb.order)


def test_criterion_10_harness_soundness(mod_M_two_nodes, mod_N_two_nodes,
                                        mod_quadric, node_pair, periodic_pair):
    with _Budget(10, 30):
        rep = check_theorem("3.12.2", mod_M_two_nodes, mod_N_two_nodes,
                            tor_bound=5, window=12)
        assert not rep.hypotheses_met
        assert not rep.asserted
        assert rep.as_dict()["conclusion"]["verdict"] == "hypotheses-unmet"
        free_line = next(h for h in rep.hypotheses if "locally free" in h["name"])
        assert free_line["status"] == "failed"
        assert free_line["evidence"]["nonfree_locus_codim"] == 1

        # rigidity replay: wherever codim+1 consecutive Tor vanish in a
        # catalog window, every later computed Tor vanishes too
        windows = [
            (tor_profile(mod_M_two_nodes, mod_N_two_nodes, 6, 6), 2),
            (tor_profile(*periodic_pair, 6, 6), 2),
            (tor_profile(*node_pair, 8, 6), 1),
            (tor_profile(mod_quadric, mod_quadric, 8, 6), 1),
        ]
        for prof, c in windows:
            flags = [prof.vanishes(i) for i in range(1, prof.bound + 1)]
            for start in range(len(flags) - c):
                if all(flags[start:start + c + 1]):
                    assert all(flags[start:]), (prof.M.label, start)
