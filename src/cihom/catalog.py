"""Built-in example catalog with expected outputs.

Each entry constructs its ring and modules from scratch, runs the relevant
computations, and diffs the results against the recorded expectations.
Expectations carry a provenance tag: "reference" values come from the worked
instance the entry reproduces, "trivial" ones are forced by definitions, and
"derived" ones were computed here and cross-checked against the
linear-algebra oracle.  The matrices are hard-coded exactly as displayed in
the source instances; they are the ground-truth fixtures.  ``ring(name,
field)`` builds the four fixture rings the entries stand on, and is the one
place they are written out.
"""

from __future__ import annotations

from .fields import field_by_tag
from .fmodules import ModulePresentation, equal_hilbert_functions
from .homology import depth_formula_check, tor_profile
from .groebner import FreeModule, groebner_basis, syzygy_generators
from .polynomials import PolyRing
from .resolutions import detect_periodicity, module_complexity, resolve
from .rings import RingPresentation


class UnknownExampleError(ValueError):
    pass


# The fixture rings by label: variable names in order, the ideal on those
# variables, and whether that ideal is prime (then declared as the one
# minimal prime).
_RINGS = {
    "R_node": ("xy", lambda x, y: [x * y], False),
    "R_node3": ("xyz", lambda x, y, z: [x * y], False),
    "R_xyzu": ("xyzu", lambda x, y, z, u: [x * y, z * u], False),
    "R_quadric": ("xywz", lambda x, y, w, z: [x * w - y * z], True),
}


def ring(name: str, field) -> RingPresentation:
    """A fresh fixture ring over ``field``, built anew on every call:

    - ``R_node``: k[x,y]/(xy), one-dimensional, codimension one;
    - ``R_node3``: k[x,y,z]/(xy), a two-dimensional hypersurface;
    - ``R_xyzu``: k[x,y,z,u]/(xy, zu), codimension two, dimension two;
    - ``R_quadric``: k[x,y,w,z]/(xw - yz), a three-dimensional hypersurface
      domain, declared with its minimal prime.
    """
    names, ideal, prime = _RINGS[name]
    pr = PolyRing(field, list(names))
    gens = ideal(*(pr.variable(v) for v in names))
    return RingPresentation(pr, gens, label=name, minimal_primes=[gens] if prime else None)


def _ring_and_variables(name, field):
    R = ring(name, field)
    return R, tuple(R.poly_ring.variable(v) for v in R.poly_ring.variables)


def _check(name, expected, actual, provenance):
    return {"name": name, "expected": expected, "actual": actual,
            "ok": expected == actual, "provenance": provenance}


def _run_3_11(field, bounds):
    ring, (x, y, z, u) = _ring_and_variables("R_xyzu", field)
    M = ModulePresentation.quotient_by_ideal(ring, [y, u], label="M")
    zero = ring.poly_ring.zero()
    N = ModulePresentation.from_relations(ring, (0, 0, 0),
                                          [[zero, -z, y], [u, x, zero]], label="N")
    checks = [
        _check("ring is a codim-2 complete intersection of dim 2",
               {"ok": True, "dims": [4, 3, 2]},
               {"ok": ring.certified, "dims": [int(v) for v in
                                               ring.verify_regular_sequence().dims]},
               "reference"),
        _check("M is maximal Cohen-Macaulay", True, M.is_maximal_cohen_macaulay(),
               "reference"),
        _check("N is maximal Cohen-Macaulay", True, N.is_maximal_cohen_macaulay(),
               "reference"),
    ]
    prof = tor_profile(M, N, 5, bounds["degree_bound"])
    checks.append(_check("Tor_1..5 vanishing pattern",
                         [True, True, False, True, False],
                         [prof.vanishes(i) for i in range(1, 6)], "reference"))
    window = max(10, bounds["steps"])
    cxM = module_complexity(M, window=window)
    cxN = module_complexity(N, window=window)
    checks.append(_check("complexity estimates", {"M": 2, "N": 2},
                         {"M": cxM.value, "N": cxN.value}, "reference"))
    return {"ring": ring.describe(), "modules": [M.describe(), N.describe()],
            "tor_profile": prof.as_dict(), "checks": checks}


def _run_3_13(field, bounds):
    ring, (x, y, z, u) = _ring_and_variables("R_xyzu", field)
    M = ModulePresentation.quotient_by_ideal(ring, [y, u], label="M")
    res = resolve(M, steps=6)
    checks = [
        _check("Betti numbers through step 6", [1, 2, 3, 4, 5, 6, 7],
               res.betti_numbers()[:7], "reference"),
    ]
    # displayed second differential: columns (0,z), (-u,y), (x,0)
    pr = ring.poly_ring
    zero = pr.zero()
    free2 = FreeModule(pr, (1, 1))
    displayed = [(zero, z), (-u, y), (x, zero)]
    syz, degs = syzygy_generators([(y,), (u,)], [1, 1], FreeModule(pr, (0,)), ring)
    gb_syz = groebner_basis(syz, free2, ring.quotient_gens)
    gb_disp = groebner_basis(displayed, free2, ring.quotient_gens)
    mutual = (all(gb_syz.contains(e) for e in displayed)
              and all(gb_disp.contains(s) for s in syz))
    checks.append(_check("displayed second differential spans the syzygies",
                         True, mutual, "reference"))
    # displayed third differential: columns (u,0,0), (-y,z,0), (0,x,u), (0,0,y)
    free3 = FreeModule(pr, (2, 2, 2))
    displayed3 = [(u, zero, zero), (-y, z, zero), (zero, x, u), (zero, zero, y)]
    syz2, degs2 = syzygy_generators(displayed, [2, 2, 2], free2, ring)
    gb_syz2 = groebner_basis(syz2, free3, ring.quotient_gens)
    gb_disp3 = groebner_basis(displayed3, free3, ring.quotient_gens)
    mutual3 = (all(gb_syz2.contains(e) for e in displayed3)
               and all(gb_disp3.contains(s) for s in syz2))
    checks.append(_check("displayed third differential spans the next syzygies",
                         True, mutual3, "reference"))
    prof = tor_profile(M, M, 2, bounds["degree_bound"])
    checks.append(_check("Tor_2(M, M) is nonzero", True, not prof.vanishes(2),
                         "reference"))
    checks.append(_check("non-free locus has codimension 1 (not a vector bundle)",
                         1, M.nonfree_locus_codim(), "reference"))
    return {"ring": ring.describe(), "modules": [M.describe()],
            "betti": res.betti_numbers()[:7], "checks": checks}


def _run_3_14(field, bounds):
    ring, (x, y, z, u) = _ring_and_variables("R_xyzu", field)
    M = ModulePresentation.quotient_by_ideal(ring, [x], label="M")
    N = ModulePresentation.quotient_by_ideal(ring, [x * z], label="N")
    res = resolve(M, steps=10)
    checks = [
        _check("Betti numbers are all 1 through step 10", [1] * 11,
               res.betti_numbers()[:11], "reference"),
        _check("resolution is periodic with period 2",
               {"periodic": True, "period": 2},
               {k: v for k, v in detect_periodicity(res).items() if k != "onset"},
               "reference"),
    ]
    prof = tor_profile(M, N, 6, bounds["degree_bound"])
    e1 = prof.entry(1)
    checks.append(_check("Tor_1 graded values (from its initial degree)",
                         [1, 1, 1, 1, 1], list(e1.normalized_hilbert())[:5],
                         "reference"))
    checks.append(_check("Tor_1 depth", 1, e1.depth, "reference"))
    checks.append(_check("Tor_2 vanishes", True, prof.vanishes(2), "reference"))
    checks.append(_check("distance-2 graded data equal for i = 1..4",
                         [True] * 4,
                         [rec["equal"] for rec in prof.periodicity], "reference"))
    checks.append(_check("M tensor N is the expected cyclic module", True,
                         equal_hilbert_functions(prof.tor0.presentation, M),
                         "trivial"))
    return {"ring": ring.describe(), "modules": [M.describe(), N.describe()],
            "tor_profile": prof.as_dict(), "checks": checks}


def _run_pre_3_4(field, bounds):
    ring, (x, y) = _ring_and_variables("R_node", field)
    M = ModulePresentation.quotient_by_ideal(ring, [x], label="M")
    prof = tor_profile(M, M, 9, bounds["degree_bound"])
    expected = {i: (i % 2 == 1) for i in range(1, 10)}
    actual = {i: not prof.vanishes(i) for i in range(1, 10)}
    checks = [
        _check("Tor_i(M, M) nonzero exactly at odd i in the window",
               expected, actual, "reference"),
        _check("Tor_0(M, M) nonzero", True, not prof.tor0.vanishes, "reference"),
        _check("M is a maximal Cohen-Macaulay vector bundle",
               {"mcm": True, "bundle": True},
               {"mcm": M.is_maximal_cohen_macaulay(),
                "bundle": M.free_on_height(int(ring.dimension()) - 1)},
               "reference"),
    ]
    return {"ring": ring.describe(), "modules": [M.describe()],
            "tor_profile": prof.as_dict(), "checks": checks}


def _run_4_4(field, bounds):
    ring, (x, y, z) = _ring_and_variables("R_node3", field)
    M = ModulePresentation.quotient_by_ideal(ring, [z], label="M")
    res = resolve(M, steps=4)
    prof = tor_profile(M, M, 1, bounds["degree_bound"])
    checks = [
        _check("M has projective dimension one", {"finite": True, "pd": 1},
               {"finite": res.terminated, "pd": res.length()}, "reference"),
        _check("Tor_1(M, M) is nonzero", True, not prof.vanishes(1), "reference"),
        _check("M is Cohen-Macaulay", True, M.is_cohen_macaulay(), "reference"),
    ]
    return {"ring": ring.describe(), "modules": [M.describe()],
            "tor_profile": prof.as_dict(), "checks": checks}


def _quadric_module(ring, syms):
    x, y, w, z = syms
    return ModulePresentation.from_relations(ring, (0, 0, 0, 0),
                                             [[w, y, x, z]], label="M")


def _run_4_5(field, bounds):
    ring, syms = _ring_and_variables("R_quadric", field)
    M = _quadric_module(ring, syms)
    res = resolve(M, steps=5)
    prof = tor_profile(M, M, 10, bounds["degree_bound"])
    rep = depth_formula_check(prof)
    checks = [
        _check("M has projective dimension one", {"finite": True, "pd": 1},
               {"finite": res.terminated, "pd": res.length()}, "reference"),
        _check("depth M = 2", 2, M.depth(), "reference"),
        _check("dim M = 3", 3, M.dimension(), "reference"),
        _check("Tor_i(M, M) = 0 for 1 <= i <= 10 with finite-pd certificate",
               {"all_vanish": True, "tier": "pd-finite"},
               {"all_vanish": prof.all_vanish_in_window(),
                "tier": prof.vanishing["tier"]}, "reference"),
        _check("depth of M tensor M", 1, prof.tor0.presentation.depth(), "reference"),
        _check("depth formula 2 + 2 = 3 + 1 asserted",
               {"holds": True, "asserted": True},
               {"holds": rep.holds, "asserted": rep.asserted}, "reference"),
    ]
    return {"ring": ring.describe(), "modules": [M.describe()],
            "tor_profile": prof.as_dict(), "depth_formula": rep.as_dict(),
            "checks": checks}


def _run_4_19(field, bounds):
    ring, syms = _ring_and_variables("R_quadric", field)
    M = _quadric_module(ring, syms)
    dual = M.dual()
    dual.label = "M*"
    prof = tor_profile(M, dual, 1, bounds["degree_bound"])
    checks = [
        _check("the dual is nonzero (M is torsion-free)", True,
               not dual.is_zero_module(), "reference"),
        _check("M is torsion-free", True, M.is_torsion_free(), "reference"),
        _check("Tor_1(M, M*) vanishes", True, prof.vanishes(1), "reference"),
        _check("M tensor M* is not reflexive", False,
               prof.tor0.presentation.satisfies_serre(2), "reference"),
    ]
    return {"ring": ring.describe(), "modules": [M.describe(), dual.describe()],
            "checks": checks}


def _run_cor_4_7(field, bounds):
    ring, (x, y) = _ring_and_variables("R_node", field)
    M = ModulePresentation.quotient_by_ideal(ring, [x], label="M")
    N = ModulePresentation.quotient_by_ideal(ring, [y], label="N")
    prof = tor_profile(M, N, 10, bounds["degree_bound"])
    expected = {i: (i % 2 == 0) for i in range(1, 11)}
    actual = {i: not prof.vanishes(i) for i in range(1, 11)}
    checks = [
        _check("Tor_i nonzero exactly at even i >= 2 in the window",
               expected, actual, "derived"),
        _check("Tor_0 = M tensor N has length 1",
               {"vanishes": False, "length": 1},
               {"vanishes": prof.tor0.vanishes,
                "length": prof.tor0.presentation.length()}, "derived"),
    ]
    return {"ring": ring.describe(), "modules": [M.describe(), N.describe()],
            "tor_profile": prof.as_dict(), "checks": checks}


_ENTRIES = {
    "3.11": ("two-node codim-2 ring; Tor gap of length two", _run_3_11),
    "3.13": ("minimal resolution shapes and the non-bundle locus", _run_3_13),
    "3.14": ("periodic resolution; one-dimensional odd Tor", _run_3_14),
    "pre-3.4": ("node: self-Tor nonzero exactly at zero and odd indices", _run_pre_3_4),
    "4.4": ("cyclic Cohen-Macaulay module with nonvanishing self-Tor", _run_4_4),
    "4.5": ("quadric cone module with totally vanishing self-Tor", _run_4_5),
    "4.19": ("tensor with the dual fails reflexivity", _run_4_19),
    "cor4.7-instance": ("node: Tor nonzero exactly at even indices", _run_cor_4_7),
}


def catalog_ids():
    return list(_ENTRIES)


def run_example(example_id: str, field_tag: str = "f32003",
                bounds: dict | None = None) -> dict:
    """Execute a catalog entry and diff against its expectations.

    Returns the report with per-check verdicts; overall 'pass' is the
    conjunction.  Unknown ids raise UnknownExampleError.  ``bounds`` may set
    ``degree_bound`` and ``steps``, which only 3.11's complexity window
    reads; each entry fixes its own Tor windows.
    """
    if example_id not in _ENTRIES:
        raise UnknownExampleError(
            f"unknown example id {example_id!r}; known: {', '.join(catalog_ids())}")
    field = field_by_tag(field_tag)
    b = {"steps": 10, "degree_bound": 8}
    if bounds:
        b.update({k: v for k, v in bounds.items() if v is not None})
    description, runner = _ENTRIES[example_id]
    result = runner(field, b)
    result["id"] = example_id
    result["description"] = description
    result["field_tag"] = field.tag
    result["pass"] = all(c["ok"] for c in result["checks"])
    return result
