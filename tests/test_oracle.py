import functools
import os
import random
import subprocess
import sys

import pytest

from cihom.fields import PrimeField, field_by_tag
from cihom.fmodules import ModulePresentation, PolyMatrix
from cihom.homology import tor_profile
from cihom.oracle import (
    OracleContext,
    OracleTooLargeError,
    map_kernel_cokernel_oracle,
    module_hilbert_oracle,
    tor_oracle,
    truncated_resolution,
)
from cihom.polynomials import IncompatibleOperandsError, InvariantError, PolyRing
from cihom.resolutions import resolve
from cihom.rings import RingPresentation
from cihom.search import random_homogeneous_module

F = PrimeField(32003)


def test_oracle_tor_of_free_is_zero(ring_two_nodes, mod_N_two_nodes):
    free = ModulePresentation.free(ring_two_nodes, (0,))
    dims = tor_oracle(free, mod_N_two_nodes, 2, 5)
    assert all(v == 0 for dd in dims.values() for v in dd.values())


def test_oracle_periodic_tor_values(periodic_pair):
    M, N = periodic_pair
    dims = tor_oracle(M, N, 1, 6)[1]
    assert [dims[d] for d in range(2, 7)] == [1, 1, 1, 1, 1]
    assert dims[0] == 0 and dims[1] == 0


def test_oracle_matches_pipeline_on_catalog(periodic_pair):
    M, N = periodic_pair
    prof = tor_profile(M, N, 4, 6)
    dims = tor_oracle(M, N, 4, 6)
    for i in range(1, 5):
        entry = prof.entry(i)
        for d in range(0, 7):
            assert entry.hilbert.get(d, 0) == dims[i].get(d, 0), (i, d)


def test_oracle_matches_pipeline_on_random(ring_two_nodes, ring_node):
    rng = random.Random(23)
    for ring in (ring_two_nodes, ring_node):
        for _ in range(3):
            M = random_homogeneous_module(ring, rng, 2, 2, "A")
            N = random_homogeneous_module(ring, rng, 2, 2, "B")
            if M.n_gens == 0 or N.n_gens == 0:
                continue
            prof = tor_profile(M, N, 3, 6)
            dims = tor_oracle(M, N, 3, 6)
            for i in range(1, 4):
                for d in range(0, 7):
                    assert prof.entry(i).hilbert.get(d, 0) == dims[i].get(d, 0)


@pytest.mark.parametrize("tag, degree_bound", [
    ("f3", 6), ("f32003", 6), ("f2147483647", 6), ("f4294967311", 6), ("rational", 6)])
def test_oracle_matches_pipeline_on_every_field(tag, degree_bound):
    # With int64 arithmetic the oracle disagreed on both samples over f4294967311
    pr = PolyRing(field_by_tag(tag), ["x", "y", "z", "u"])
    x, y, z, u = (pr.variable(v) for v in "xyzu")
    ring = RingPresentation(pr, [x * y, z * u], label="R_xyzu")
    for seed in (0, 2):
        rng = random.Random(seed)
        M = random_homogeneous_module(ring, rng, 2, 2, "A")
        N = random_homogeneous_module(ring, rng, 2, 2, "B")
        prof = tor_profile(M, N, 3, degree_bound)
        dims = tor_oracle(M, N, 3, degree_bound)
        for i in range(1, 4):
            assert ([prof.entry(i).hilbert.get(d, 0) for d in range(degree_bound + 1)]
                    == [dims[i].get(d, 0) for d in range(degree_bound + 1)]), (seed, i)


def test_oracle_matches_pipeline_at_degree_8(ring_two_nodes):
    # The benchmark's two-node pair: its largest slices (330 coordinates at
    # degree 8) are where the block row reductions carry the most columns.
    rng = random.Random(2009)
    M = random_homogeneous_module(ring_two_nodes, rng, 2, 2, "A")
    N = random_homogeneous_module(ring_two_nodes, rng, 2, 2, "B")
    assert M.n_gens and N.n_gens
    prof = tor_profile(M, N, 4, 8)
    dims = tor_oracle(M, N, 4, 8)
    for i in range(1, 5):
        hilbert = prof.entry(i).hilbert
        for d in sorted(set(dims[i]) | set(hilbert)):
            if d <= 8:
                assert hilbert.get(d, 0) == dims[i].get(d, 0), (i, d)


def test_module_hilbert_oracle_matches_groebner(mod_N_two_nodes, mod_quadric):
    for M in (mod_N_two_nodes, mod_quadric):
        oracle = module_hilbert_oracle(M, 6)
        pipeline = M.hilbert_function(6, dmin=0)
        assert oracle == pipeline


def test_guardrail_degree():
    pr = PolyRing(F, ["x", "y"])
    ring = RingPresentation(pr, [pr.variable("x") * pr.variable("y")])
    M = ModulePresentation.free(ring, (0,))
    with pytest.raises(OracleTooLargeError):
        module_hilbert_oracle(M, 20)


def test_guardrail_variables():
    pr = PolyRing(F, list("abcdefg"))
    ring = RingPresentation(pr, [])
    M = ModulePresentation.free(ring, (0,))
    with pytest.raises(OracleTooLargeError):
        module_hilbert_oracle(M, 4)


def test_syzygy_hilbert_matches_oracle(ring_two_nodes):
    # kernel of a small homogeneous matrix on free modules: the syzygy
    # presentation's Hilbert values equal the oracle's kernel dimensions
    import random as _random
    from cihom.fmodules import PolyMatrix
    from cihom.groebner import syzygy_generators
    from cihom.oracle import map_kernel_cokernel_oracle
    rng = _random.Random(77)
    pr = ring_two_nodes.poly_ring
    monos = {d: list(__import__("cihom.polynomials", fromlist=["monomials_of_degree"])
                     .monomials_of_degree(pr.nvars, d)) for d in (1, 2)}
    for _ in range(5):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        col_deg = rng.randint(1, 2)
        cols = []
        from cihom.groebner import FreeModule
        free = FreeModule(pr, (0,) * nrows)
        ents = []
        for _c in range(ncols):
            col = []
            for _r in range(nrows):
                p = pr.zero()
                for _t in range(rng.randint(0, 2)):
                    p = p + pr.monomial(rng.choice(monos[col_deg]),
                                        PrimeField(32003).from_int(rng.randint(1, 50)))
                col.append(p)
            ents.append(col)
        if not any(p for c in ents for p in c):
            continue
        degs = [col_deg] * ncols
        syz, sdegs = syzygy_generators([tuple(c) for c in ents], degs, free, ring_two_nodes)
        src_free = FreeModule(pr, tuple(degs))
        rel, rdegs = syzygy_generators(syz, sdegs, src_free, ring_two_nodes)
        rels = PolyMatrix.from_columns(pr, tuple(sdegs), rel, tuple(rdegs))
        ker_pres = ModulePresentation(ring_two_nodes, tuple(sdegs), rels)
        psi = PolyMatrix(pr, (0,) * nrows, tuple(degs),
                         [[ents[j][i] for j in range(ncols)] for i in range(nrows)])
        source = ModulePresentation.free(ring_two_nodes, tuple(degs))
        target = ModulePresentation.free(ring_two_nodes, (0,) * nrows)
        kdims, _ = map_kernel_cokernel_oracle(psi, source, target, 6)
        pipeline = ker_pres.hilbert_function(6, dmin=0)
        for d in range(0, 7):
            assert pipeline[d] == kdims.get(d, 0), d


def test_value_space_cache_keyed_on_the_presentation(ring_two_nodes):
    # Each presentation is dropped right after use, so a cache keyed on id()
    # could hand its slot to the next one, which may well differ.
    pr = ring_two_nodes.poly_ring
    gens = [pr.variable(v) for v in pr.variables]
    ctx = OracleContext(ring_two_nodes, 4)
    rng = random.Random(5)
    for k in range(80):
        polys = rng.sample(gens, rng.randint(0, len(gens)))
        pres = ModulePresentation.quotient_by_ideal(ring_two_nodes, polys, label=f"T{k}")
        for d in (1, 2):
            fresh = OracleContext(ring_two_nodes, 4).value_space(pres, d).quotient_dim
            assert ctx.value_space(pres, d).quotient_dim == fresh
        del pres


def test_importing_cihom_does_not_load_the_oracle():
    # The Groebner pipeline does not load the oracle, and nothing loads numpy.
    code = "import sys, cihom; print('cihom.oracle' in sys.modules, 'numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_truncated_resolution_matches_graded_betti_numbers(tag, rings_over):
    # Every step's generator degrees are the graded Betti numbers of the
    # minimal resolution through the degree bound.
    bound, hsteps = 7, 5
    for ring in rings_over(tag):
        for seed in range(6):
            M = random_homogeneous_module(ring, random.Random(seed), 2, 2, "A")
            steps = truncated_resolution(OracleContext(ring, bound), M, hsteps)
            res = resolve(M, hsteps)
            for i in range(hsteps + 1):
                want = sorted(g for g in res.step_degrees(i) if g <= bound)
                assert sorted(steps[i].gen_degs) == want, (ring.label, seed, i)


@pytest.mark.parametrize("gen_degs", [(0,), (0, 0), (1, 0, 1), (-1, 2), (-2, -2, 0), ()])
def test_free_space_dimension_is_the_hilbert_function(ring_two_nodes, ring_quadric,
                                                     ring_node, gen_degs):
    # The free space is assembled from one reduced piece of R per degree,
    # one block per generator; its quotient dimension is sum_g HF_R(d - g).
    for ring in (ring_node, ring_two_nodes, ring_quadric):
        ctx = OracleContext(ring, 8)
        hf = ModulePresentation.free(ring, gen_degs).hilbert_function(8, dmin=-3)
        for d in range(-3, 9):
            free = ctx.free_space(gen_degs, d)
            assert free.quotient_dim == hf[d], (ring.label, d)
            assert free.dim == len(ctx.slice_coords(gen_degs, d)[0])


def test_value_space_rows_are_zero_at_every_other_pivot(ring_two_nodes, ring_quadric):
    # _reduce clears each pivot of a vector with one pass over the rows,
    # which holds only when every row is zero at every other pivot.
    rng = random.Random(11)
    for ring in (ring_two_nodes, ring_quadric):
        ctx = OracleContext(ring, 6)
        for _ in range(4):
            M = random_homogeneous_module(ring, rng, 2, 2, "A")
            hf = M.hilbert_function(6, dmin=0)
            for d in range(0, 7):
                vs = ctx.value_space(M, d)
                assert vs.quotient_dim == len(vs.nonpivots) == hf[d]
                for q, row in vs.basis.items():
                    assert row[q] == 1
                    assert not any(i in vs.basis for i in row if i != q), (ring.label, d, q)


def test_map_that_does_not_fit_its_modules_is_refused(ring_two_nodes):
    # Unchecked, each gives a wrong answer: the whole source as kernel for
    # a column declared in the wrong degree, a dropped row, an ignored
    # column, a kernel read off a map that does not descend.
    pr = ring_two_nodes.poly_ring
    x, z = pr.variable("x"), pr.variable("z")
    free = functools.partial(ModulePresentation.free, ring_two_nodes)
    cases = [
        (PolyMatrix(pr, (0, 0), (2,), [[x * x], [z * z]]), free((1,)), free((0, 0))),
        (PolyMatrix(pr, (0, 0, 0), (1,), [[x], [z], [x]]), free((1,)), free((0, 0))),
        (PolyMatrix(pr, (0,), (1, 1), [[x, z]]), free((1,)), free((0,))),
    ]
    # 1 on R/(x) -> R is no map: x goes to x, which is not zero in R
    quotient = functools.partial(ModulePresentation.quotient_by_ideal, ring_two_nodes)
    one = pr.monomial((0, 0, 0, 0), F.from_int(1))
    cases.append((PolyMatrix(pr, (0,), (0,), [[one]]), quotient([x]), free((0,))))
    for psi, source, target in cases:
        with pytest.raises(IncompatibleOperandsError):
            map_kernel_cokernel_oracle(psi, source, target, 4)
    # 1 on R/(x) -> R/(x, y) is one, with kernel (x, y)/(x) = y R/(x)
    y = pr.variable("y")
    source, target = quotient([x]), quotient([x, y])
    ker, coker = map_kernel_cokernel_oracle(PolyMatrix(pr, (0,), (0,), [[one]]),
                                            source, target, 3)
    hs, ht = source.hilbert_function(3, dmin=0), target.hilbert_function(3, dmin=0)
    assert ker == {d: hs[d] - ht[d] for d in range(4)} and ker[1] == 1
    assert coker == {0: 0, 1: 0, 2: 0, 3: 0}
    # a fitting map still works: x and z on R(-1)^2 -> R
    psi = PolyMatrix(pr, (0,), (1, 1), [[x, z]])
    ker, coker = map_kernel_cokernel_oracle(psi, free((1, 1)), free((0,)), 3)
    assert coker == {0: 1, 1: 2, 2: 3, 3: 4}
    assert ker[1] == 0


def test_term_outside_its_slice_is_an_invariant_error(ring_two_nodes):
    ctx = OracleContext(ring_two_nodes, 4)
    _, index = ctx.slice_coords((0,), 1)
    assert ctx.vectors((0,), 1, [{(0, (1, 0, 0, 0)): 1}]) == [{index[0, (1, 0, 0, 0)]: 1}]
    for vec in ({(0, (2, 0, 0, 0)): 1}, {(1, (1, 0, 0, 0)): 1}):
        with pytest.raises(InvariantError):
            ctx.vectors((0,), 1, [vec])


def _groebner_calls(fn):
    """fn()'s result and the names of the cihom.groebner functions it called."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "cihom.groebner":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


def test_tor_oracle_reads_n_as_given_without_groebner_code(ring_two_nodes):
    # The oracle used to minimalize N through the Groebner engine.  N's
    # graded pieces do not depend on its presentation, and its initial
    # degree (which sets the lowest degree key) is the first given generator
    # degree where it is nonzero.  The expected values were recorded while
    # the oracle still minimalized N.
    pr = ring_two_nodes.poly_ring
    x, y = pr.variable("x"), pr.variable("y")
    zero, one = pr.zero(), pr.one()
    M = ModulePresentation.quotient_by_ideal(ring_two_nodes, [x], label="M")
    N = ModulePresentation.from_relations(ring_two_nodes, (0, 1), [[x * x + x * y, x]])
    out, calls = _groebner_calls(lambda: tor_oracle(M, N, 2, 4))
    assert calls == []
    assert out == {1: {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}, 2: {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}}
    # a generator in degree -1 killed by a unit relation: N = R/(y) from
    # degree 0, so with M in degree -2 the keys start at -2, not -3
    N = ModulePresentation.from_relations(ring_two_nodes, (-1, 0), [[one, zero], [zero, y]])
    out, calls = _groebner_calls(lambda: tor_oracle(M.twist(-2), N, 2, 3))
    assert calls == []
    assert out == {1: {-2: 0, -1: 0, 0: 0, 1: 0, 2: 0, 3: 0},
                   2: {-2: 0, -1: 0, 0: 1, 1: 2, 2: 2, 3: 2}}
