import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cihom import catalog, resolutions
from cihom.fields import PrimeField, field_by_tag
from cihom.fmodules import ModulePresentation, PolyMatrix
from cihom.groebner import (
    FreeModule,
    minimal_generator_indices,
    one_degree_generator_indices,
    syzygy_generators,
)
from cihom.polynomials import PolyRing, monomials_of_degree
from cihom.resolutions import (
    InsufficientStepsError,
    InsufficientWindowError,
    MinimalityRequiredError,
    _equivalence,
    _invertible,
    betti_table,
    complexity_estimate,
    detect_periodicity,
    module_complexity,
    resolve,
)
from cihom.rings import RingPresentation
from cihom.search import random_homogeneous_module
from reference import compose, composition_is_zero

F = PrimeField(32003)


def test_two_node_quotient_resolution(mod_M_two_nodes):
    res = resolve(mod_M_two_nodes, steps=6)
    assert res.betti_numbers() == [1, 2, 3, 4, 5, 6, 7]
    assert res.minimality_certificate()
    assert composition_is_zero(res)


def test_alternating_periodic_resolution(ring_two_nodes):
    pr = ring_two_nodes.poly_ring
    x = pr.variable("x")
    M = ModulePresentation.quotient_by_ideal(ring_two_nodes, [x], label="Mx")
    res = resolve(M, steps=8)
    assert res.betti_numbers() == [1] * 9
    entries = [res.differential(i).entries[0][0].text() for i in range(1, 5)]
    assert entries == ["x", "y", "x", "y"]
    per = detect_periodicity(res)
    assert per == {"periodic": True, "period": 2, "onset": 1}


def test_quadric_module_terminates(mod_quadric):
    res = resolve(mod_quadric, steps=5)
    assert res.terminated
    assert res.betti_numbers() == [4, 1, 0, 0, 0, 0]


def test_betti_table_graded(mod_M_two_nodes):
    res = resolve(mod_M_two_nodes, steps=6)
    table = betti_table(res)
    assert table["betti"][:7] == [1, 2, 3, 4, 5, 6, 7]
    assert table["graded"]["1"] == {1: 2}
    assert table["graded"]["2"] == {2: 3}


def test_betti_table_free(ring_two_nodes):
    res = resolve(ModulePresentation.free(ring_two_nodes, (0, 0, 0)), steps=4)
    assert betti_table(res)["betti"][:3] == [3, 0, 0]


def test_betti_requires_minimality(mod_M_two_nodes, ring_two_nodes):
    # a hand-built complex with an identity differential is not minimal
    from cihom.fmodules import PolyMatrix
    from cihom.resolutions import FreeResolution
    pr = ring_two_nodes.poly_ring
    ident = PolyMatrix.identity(pr, (0,))
    fake = FreeResolution(ModulePresentation.free(ring_two_nodes, (0,)),
                          [ident], 1, True)
    with pytest.raises(MinimalityRequiredError):
        betti_table(fake)


def test_complexity_linear_growth():
    est = complexity_estimate([1, 2, 3, 4, 5, 6, 7], 2)
    assert est["value"] == 2 and not est["conflict"]


def test_complexity_bounded():
    est = complexity_estimate([1] * 9, 2)
    assert est["value"] == 1


def test_complexity_finite_pd():
    est = complexity_estimate([4, 1, 0, 0, 0, 0], 1)
    assert est["value"] == 0


def test_complexity_window_too_short():
    with pytest.raises(InsufficientWindowError):
        complexity_estimate([1, 2], 1)


def test_complexity_clamped_to_codim():
    # artificially fast growth must clamp at the codimension with a flag
    est = complexity_estimate([1, 2, 4, 8, 16, 32, 64, 128], 1)
    assert est["value"] == 1 and (est["conflict"] or est["at_least"])


def test_complexity_bound_on_catalog(mod_M_two_nodes, mod_N_two_nodes, ring_two_nodes):
    for mod in (mod_M_two_nodes, mod_N_two_nodes):
        est = module_complexity(mod, window=10)
        assert est["value"] <= ring_two_nodes.codim


def test_periodicity_needs_steps(mod_M_two_nodes):
    res = resolve(mod_M_two_nodes, steps=4)
    with pytest.raises(InsufficientStepsError):
        detect_periodicity(res)


def test_finite_resolution_not_periodic(mod_quadric):
    res = resolve(mod_quadric, steps=6)
    assert detect_periodicity(res)["periodic"] is False


def test_growing_resolution_not_periodic(mod_M_two_nodes):
    res = resolve(mod_M_two_nodes, steps=6)
    assert detect_periodicity(res)["periodic"] is False


def _random_module(ring, rng, max_gens=2, max_deg=2):
    pr = ring.poly_ring
    p = rng.randint(1, max_gens)
    cols = []
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, max_deg)
        monos = list(monomials_of_degree(pr.nvars, deg))
        col = []
        for _i in range(p):
            poly = pr.zero()
            for _t in range(rng.randint(0, 2)):
                poly = poly + pr.monomial(rng.choice(monos), F.from_int(rng.randint(1, 50)))
            col.append(poly)
        cols.append(col)
    return ModulePresentation.from_relations(ring, (0,) * p, cols)


def test_hilbert_syzygy_bound_over_ambient():
    pr = PolyRing(F, ["x", "y", "z", "u"])
    S = RingPresentation(pr, [], label="S")
    rng = random.Random(17)
    for _ in range(15):
        M = _random_module(S, rng)
        res = resolve(M, steps=pr.nvars + 1)
        assert res.terminated
        assert res.length() <= pr.nvars


def test_ambient_resolution_stops_at_dim_s(monkeypatch):
    # k = S/(x, y, w, z) has pd 4 = dim S.  d_2, d_3 and d_4 come from
    # syzygies; by the syzygy theorem those of d_4 are zero, so they are
    # not computed.  Its depth 0 is read off its dimension, with no
    # resolution at all.
    calls = []
    real = resolutions.syzygy_generators

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(resolutions, "syzygy_generators", counting)
    pr = PolyRing(F, ["x", "y", "w", "z"])
    S = RingPresentation(pr, [], label="S")
    k = ModulePresentation.quotient_by_ideal(S, [pr.variable(v) for v in "xywz"], label="k")
    assert k.depth() == 0 and calls == []
    assert k.projective_dimension_ambient() == 4
    assert len(calls) == 3
    res = resolve(k, steps=6)
    assert res.terminated and res.betti_numbers() == [1, 4, 6, 4, 1, 0, 0]
    assert len(calls) == 3


def test_euler_characteristic_against_hilbert(mod_M_two_nodes, mod_N_two_nodes):
    ring = mod_M_two_nodes.ring
    hf_ring = ModulePresentation.free(ring, (0,)).hilbert_function(8, dmin=0)
    for M in (mod_M_two_nodes, mod_N_two_nodes):
        res = resolve(M, steps=9)
        hf_M = M.hilbert_function(8, dmin=0)
        last_degs = res.step_degrees(res.steps_computed())
        # the truncated tail lives in degrees > min degree of the last step
        safe_top = (min(last_degs) if last_degs else 9)
        for d in range(0, min(9, safe_top + 1)):
            total = 0
            for i in range(res.steps_computed() + 1):
                sign = 1 if i % 2 == 0 else -1
                total += sign * sum(hf_ring.get(d - g, 0) for g in res.step_degrees(i)
                                    if d - g >= 0)
            assert total == hf_M[d], (M.label, d)


def test_resolution_cache_extends(mod_N_two_nodes):
    res4 = resolve(mod_N_two_nodes, steps=4)
    res6 = resolve(mod_N_two_nodes, steps=6)
    assert res6.betti_numbers()[:5] == res4.betti_numbers()[:5]
    assert res6.steps_computed() >= 6


def test_codim_three_generality():
    # three-node ring in six variables: the cyclic section has the binomial
    # Betti growth of a maximal-complexity module in codimension three
    from cihom.rings import RingPresentation
    pr = PolyRing(F, ["x", "y", "z", "u", "v", "w"])
    x, y, z, u, v, w = (pr.variable(c) for c in "xyzuvw")
    ring = RingPresentation(pr, [x * y, z * u, v * w], label="R3")
    assert ring.certified and ring.codim == 3 and ring.dimension() == 3
    M = ModulePresentation.quotient_by_ideal(ring, [y, u, w], label="M")
    res = resolve(M, steps=5)
    assert res.betti_numbers() == [1, 3, 6, 10, 15, 21]
    assert M.is_maximal_cohen_macaulay()


# -- literal periods: later steps are copies, not syzygy computations ---------------

def _residue_field(ring):
    pr = ring.poly_ring
    return ModulePresentation.quotient_by_ideal(ring, [pr.variable(v) for v in pr.variables],
                                                label="k")


def _counting_syzygies(monkeypatch):
    calls = []
    real = resolutions.syzygy_generators

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(resolutions, "syzygy_generators", counting)
    return calls


def test_quadric_residue_field_copies_its_literal_period(monkeypatch):
    # k over k[x,y,w,z]/(xw - yz): d_6 is d_4 with every degree raised by 2,
    # so only d_2..d_6 are syzygy computations and d_7..d_20 are copies.
    # detect_periodicity still finds its constant base change d_4 ~ d_5
    # first: period 1 at onset 4, while the literal period is 2.
    calls = _counting_syzygies(monkeypatch)
    k = _residue_field(catalog.ring("R_quadric", F))
    res = resolve(k, steps=20)
    assert len(calls) == 5
    assert res.period == (4, 2, 2)
    assert res.betti_numbers() == [1, 4, 7] + [8] * 18
    for m in range(6, 21):
        d, e = res.differential(m), res.differential(m - 2)
        assert d.entries == e.entries, m
        assert (d.row_degs, d.col_degs) == (tuple(r + 2 for r in e.row_degs),
                                            tuple(c + 2 for c in e.col_degs)), m
    # A view that ends before d_6 shows no period; its steps are the same.
    short = resolve(k, steps=5)
    assert short.period is None and short.differentials == res.differentials[:5]
    assert detect_periodicity(res) == {"periodic": True, "period": 1, "onset": 4}


def test_the_3_11_resolution_records_no_period(monkeypatch):
    # R/(y, u) over k[x,y,z,u]/(xy, zu), the module of catalog entry 3.11,
    # has Betti numbers i + 1: no two differentials have the same shape, so
    # every step is computed.
    calls = _counting_syzygies(monkeypatch)
    ring = catalog.ring("R_xyzu", F)
    M = ModulePresentation.quotient_by_ideal(
        ring, [ring.poly_ring.variable(v) for v in "yu"], label="M")
    res = resolve(M, steps=11)
    assert res.period is None and M.minimalize()._res_cache["period"] is None
    assert res.betti_numbers() == list(range(1, 13))
    assert len(calls) == 10


# -- periodicity certificates against the permutation search they replaced ----------

def _unit_match(A, B, row_perm, field):
    """Column matching of B against A (rows permuted) up to unit scaling."""
    used = [False] * A.ncols
    for j in range(A.ncols):
        found = None
        for k in range(A.ncols):
            if used[k]:
                continue
            scale = None
            ok = True
            for i in range(A.nrows):
                a = A.entries[row_perm[i]][k]
                b = B.entries[i][j]
                if a.is_zero() != b.is_zero():
                    ok = False
                    break
                if a.is_zero():
                    continue
                if set(a.terms) != set(b.terms):
                    ok = False
                    break
                for mono, cb in b.terms.items():
                    r = field.canonical(cb * field.inv(a.terms[mono]))
                    if scale is None:
                        scale = r
                    elif scale != r:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found = k
                break
        if found is None:
            return False
        used[found] = True
    return True


def _equivalent_up_to_perm(A, B, field, size_cap=6):
    """A ~ B under row/column permutation, unit scaling and a uniform twist."""
    if A.nrows != B.nrows or A.ncols != B.ncols:
        return False
    if A.nrows == 0 or A.ncols == 0:
        return True
    twists = {br - ar for ar, br in zip(sorted(A.row_degs), sorted(B.row_degs))}
    if len(twists) != 1:
        return False
    t = next(iter(twists))
    if sorted(b - t for b in B.col_degs) != sorted(A.col_degs):
        return False
    if A.nrows > size_cap or A.ncols > size_cap:
        return False
    for perm in itertools.permutations(range(A.nrows)):
        if any(A.row_degs[perm[i]] != B.row_degs[i] - t for i in range(A.nrows)):
            continue
        if _unit_match(A, B, perm, field):
            return True
    return False


def _reference_periodicity(res, max_period=3):
    """The capped permutation search that ``detect_periodicity`` replaced:
    every differential in the window from the onset on matches the one a
    period later up to permutation, unit scaling and twist."""
    if res.terminated:
        return {"periodic": False, "period": None, "onset": None}
    n = res.steps_computed()
    field = res.ring.field
    for period in range(1, max_period + 1):
        for onset in range(1, n - 2 * period + 1):
            if all(_equivalent_up_to_perm(res.differential(i), res.differential(i + period), field)
                   for i in range(onset, n - period + 1)):
                return {"periodic": True, "period": period, "onset": onset}
    return {"periodic": False, "period": None, "onset": None}


def _rank(rows, field):
    """Rank of a matrix of field elements, by Gaussian elimination."""
    canonical = field.canonical
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        for i in range(rank + 1, len(rows)):
            f = canonical(rows[i][col] * inv)
            rows[i] = [canonical(a - f * b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_equivalence(ring, D, E, pair):
    """A.E - D.B reduces to zero over the ring, and A and B have full rank."""
    A, B = pair
    field = ring.field
    left, right = compose(A, E), compose(D, B)
    for i in range(D.nrows):
        for j in range(D.ncols):
            assert ring.reduce(left.entries[i][j] - right.entries[i][j]).is_zero()
    for mat in (A, B):
        assert all(p.is_zero() or p.is_constant() for row in mat.entries for p in row)
        consts = [[p.constant_value() for p in row] for row in mat.entries]
        assert _rank(consts, field) == mat.nrows == mat.ncols


def _property_rings(tag):
    """The quadric, the two-node ring, k[x,y,z]/(xy) and k[x,y,z]/(x^2,y^2,z^2)."""
    F = field_by_tag(tag)
    pr = PolyRing(F, ["x", "y", "w", "z"])
    x, y, w, z = (pr.variable(v) for v in "xywz")
    quadric = RingPresentation(pr, [x * w - y * z], label="R_quadric")
    pr = PolyRing(F, ["x", "y", "z"])
    x, y, z = (pr.variable(v) for v in "xyz")
    return [quadric, catalog.ring("R_xyzu", F), RingPresentation(pr, [x * y], label="R_xy"),
            RingPresentation(pr, [x * x, y * y, z * z], label="R_squares")]


_PROPERTY_RINGS = {tag: _property_rings(tag) for tag in ("f3", "f32003", "rational")}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_PROPERTY_RINGS)), st.integers(0, 3), st.integers(0, 10**6))
# d_3 = d_5 over f3, yet the four seeded combinations of the 5-dimensional
# solution space of A.d_5 = d_3.B are all singular
@example(tag="f3", ring_index=1, seed=656)
def test_periodicity_certificate_covers_the_permutation_search(tag, ring_index, seed):
    ring = _PROPERTY_RINGS[tag][ring_index]
    res = resolve(random_homogeneous_module(ring, random.Random(seed)), steps=7)
    ref = _reference_periodicity(res)
    per = detect_periodicity(res)
    if ref["periodic"]:
        assert per["periodic"]
        assert (per["period"], per["onset"]) <= (ref["period"], ref["onset"])
    for period in (1, 2, 3):
        for i in range(1, res.steps_computed() - period + 1):
            D, E = res.differential(i), res.differential(i + period)
            pair = _equivalence(D, E)
            if pair is not None:
                _check_equivalence(ring, D, E, pair)


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_detected_period_comes_no_later_than_the_literal_one(tag):
    # resolve's literal period (o, p, t), d_(o+p) = d_o raised by t, is an
    # equivalence with A = B = 1, so detect_periodicity must report a period
    # at (period, onset) <= (p, o).  Fixed seeds: the residue field, ten
    # random modules and their first syzygies over each fixture ring; they
    # give 45 literal periods per field.
    rng = random.Random(1)
    literal = 0
    for name in ("R_node", "R_node3", "R_xyzu", "R_quadric"):
        ring = catalog.ring(name, field_by_tag(tag))
        pr = ring.poly_ring
        modules = [ModulePresentation.quotient_by_ideal(
            ring, [pr.variable(v) for v in pr.variables], label="k")]
        for _ in range(10):
            M = random_homogeneous_module(ring, rng)
            modules += [M, M.first_syzygy()]
        for M in modules:
            res = resolve(M, steps=10)
            if res.period is None:
                continue
            onset, period, _ = res.period
            found = detect_periodicity(res)
            assert found["periodic"], (name, res.period)
            assert (found["period"], found["onset"]) <= (period, onset), (name, res.period, found)
            literal += 1
    assert literal >= 40


def test_equivalence_rejects_x_against_y_over_the_node(ring_node):
    pr = ring_node.poly_ring
    x, y = pr.variable("x"), pr.variable("y")
    D = PolyMatrix(pr, (0,), (1,), [[x]])
    E = PolyMatrix(pr, (1,), (2,), [[y]])
    assert _equivalence(D, E) is None
    pair = _equivalence(D, PolyMatrix(pr, (1,), (2,), [[x]]))
    assert pair is not None
    _check_equivalence(ring_node, D, PolyMatrix(pr, (1,), (2,), [[x]]), pair)


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_quadric_residue_field_is_periodic_above_the_old_cap(tag):
    ring = _PROPERTY_RINGS[tag][0]
    pr = ring.poly_ring
    k = ModulePresentation.quotient_by_ideal(ring, [pr.variable(v) for v in "xywz"], label="k")
    res = resolve(k, steps=10)
    assert res.betti_numbers() == [1, 4, 7] + [8] * 8
    assert (res.differential(4).nrows, res.differential(4).ncols) == (8, 8)
    assert detect_periodicity(res) == {"periodic": True, "period": 1, "onset": 4}
    assert _reference_periodicity(res)["periodic"] is False
    pair = _equivalence(res.differential(4), res.differential(5))
    _check_equivalence(ring, res.differential(4), res.differential(5), pair)


# -- one-degree resolution steps: linear algebra instead of the greedy pass -----------

_FOUR_RINGS = {tag: tuple(catalog.ring(name, field_by_tag(tag))
                          for name in ("R_node", "R_node3", "R_xyzu", "R_quadric"))
               for tag in ("f32003", "f3", "rational")}


def _step_candidates(M, steps):
    """(syzygy candidates, their degrees, F_n) of every step of M's
    resolution, as ``resolve`` computes them from d_n."""
    ring = M.ring
    pr = ring.poly_ring
    for d in resolve(M, steps=steps).differentials:
        syz, degs = syzygy_generators(d.columns(), list(d.col_degs),
                                      FreeModule(pr, d.row_degs), ring)
        yield syz, degs, FreeModule(pr, d.col_degs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_FOUR_RINGS)), st.integers(0, 3), st.integers(0, 10**6),
       st.booleans(), st.booleans())
def test_one_degree_steps_keep_what_the_greedy_pass_keeps(tag, which, seed, syzygy, ambient):
    # On every resolution step whose candidates have one degree, over the
    # quotient and over the ambient ring, the linear pass keeps the greedy
    # pass's indices; and again after random k-combinations of the
    # candidates are mixed in, which both passes must drop.
    ring = _FOUR_RINGS[tag][which]
    rng = random.Random(seed)
    M = random_homogeneous_module(ring, rng, 2, rng.randint(1, 2), label="A")
    M = M.first_syzygy() if syzygy else M
    M = M.ambient_presentation() if ambient else M
    field = ring.field
    for syz, degs, free in _step_candidates(M, 3):
        if len(set(degs)) != 1:
            continue
        quotient = M.ring.quotient_gens
        kept = one_degree_generator_indices(syz, field)
        assert kept == minimal_generator_indices(syz, degs, free, quotient)
        mixed = list(syz)
        for _ in range(2):
            coeffs = [field.from_int(rng.randrange(3)) for _ in syz]
            mixed.insert(rng.randrange(len(mixed) + 1), tuple(
                sum((col[r].scale(c) for col, c in zip(syz, coeffs)), free.ring.zero())
                for r in range(free.rank)))
        kept = one_degree_generator_indices(mixed, field)
        assert kept == minimal_generator_indices(mixed, degs[:1] * len(mixed), free, quotient)
        assert len(kept) == len(one_degree_generator_indices(syz, field))


def test_one_degree_steps_on_the_residue_fields():
    # k over each fixture ring: every step's candidates have one degree
    # (the residue field of a complete intersection has a linear strand
    # through step 2), and the linear pass keeps every one of them.
    checked = 0
    for ring in _FOUR_RINGS["f32003"]:
        pr = ring.poly_ring
        k = ModulePresentation.quotient_by_ideal(ring, [pr.variable(v) for v in pr.variables])
        for syz, degs, free in _step_candidates(k, 3):
            if len(set(degs)) == 1:
                checked += 1
                assert one_degree_generator_indices(syz, ring.field) == minimal_generator_indices(
                    syz, degs, free, ring.quotient_gens)
    assert checked >= 8


def test_one_degree_generator_indices_on_dependent_columns():
    # Zero columns, repeats and combinations are dropped, in index order,
    # over the rationals too.
    for field in (F, field_by_tag("rational"), field_by_tag("f3")):
        pr = PolyRing(field, ["x", "y"])
        x, y, zero = pr.variable("x"), pr.variable("y"), pr.zero()
        two = pr.from_int(2)
        cols = [(zero, zero), (x, y), (x * two, y * two), (y, x), (x + y, x + y), (x, zero),
                (zero, y), (zero, x)]
        assert one_degree_generator_indices(cols, field) == [1, 3, 5, 7]
        assert minimal_generator_indices(cols, [1] * 8, FreeModule(pr, (0, 0))) == [1, 3, 5, 7]
        assert one_degree_generator_indices([], field) == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["f32003", "f3", "rational"]), st.integers(1, 4), st.integers(0, 10**6))
def test_invertible_is_full_rank(tag, n, seed):
    # _invertible (periodicity certificates) asks the linear pass: a square
    # constant matrix is invertible exactly when its rank is its size.
    field = field_by_tag(tag)
    pr = PolyRing(field, ["x"])
    rng = random.Random(seed)
    consts = [[field.from_int(rng.randrange(3)) for _ in range(n)] for _ in range(n)]
    mat = PolyMatrix(pr, (0,) * n, (0,) * n,
                     [[pr.constant(c) if c else pr.zero() for c in row] for row in consts])
    assert _invertible(mat) == (_rank(consts, field) == n)
