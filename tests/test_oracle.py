import functools
import os
import random
import subprocess
import sys

import pytest

from cihom import catalog, oracle
from cihom.fields import PrimeField, field_by_tag
from cihom.fmodules import ModulePresentation, PolyMatrix
from cihom.homology import tor_profile
from cihom.oracle import (
    OracleContext,
    OracleTooLargeError,
    hom_oracle,
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


_FIELD_TAGS = ("f3", "f32003", "f2147483647", "f4294967311", "rational")


# The two-node cases keep the ids they had before the other fixture rings
# joined them.
@pytest.mark.parametrize("tag, degree_bound, ring_name", [
    pytest.param(tag, 6, name, id=f"{tag}-6" if name == "R_xyzu" else f"{tag}-6-{name}")
    for name in ("R_xyzu", "R_node", "R_node3", "R_quadric") for tag in _FIELD_TAGS])
def test_oracle_matches_pipeline_on_every_field(tag, degree_bound, ring_name):
    # With int64 arithmetic the oracle disagreed on both samples over
    # f4294967311 on the two-node ring
    ring = catalog.ring(ring_name, field_by_tag(tag))
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


_FIXTURE_RINGS = ("R_node", "R_node3", "R_xyzu", "R_quadric")


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_tor_oracle_is_balanced(tag):
    # Tor(M, N) = Tor(N, M): the two calls resolve different modules and
    # read different multiplication maps, so this checks the oracle with no
    # Groebner pipeline.
    for name in _FIXTURE_RINGS:
        ring = catalog.ring(name, field_by_tag(tag))
        rng = random.Random(31)
        for _ in range(3):
            M = random_homogeneous_module(ring, rng, 2, 2, "A")
            N = random_homogeneous_module(ring, rng, 2, 2, "B")
            assert tor_oracle(M, N, 3, 6) == tor_oracle(N, M, 3, 6), (name, M, N)


@pytest.mark.parametrize("tag", ["f32003", "f3", "rational"])
def test_hom_oracle_matches_the_dual(tag):
    # M* = Hom(M, R) is built by the Groebner engine (syzygies of the
    # transposed relations); hom_oracle reads only M's relations and R's
    # multiplication maps.  Half the modules are first syzygies, which
    # have generators and relations in several degrees.
    for name in _FIXTURE_RINGS:
        ring = catalog.ring(name, field_by_tag(tag))
        R = ModulePresentation.free(ring, (0,))
        rng = random.Random(3)
        for k in range(5):
            M = random_homogeneous_module(ring, rng, 2, 1, "A")
            if k % 2:
                M = M.first_syzygy()
            hf = M.dual().hilbert_function(4, dmin=-3)
            assert hom_oracle(M, R, -3, 4) == {d: hf.get(d, 0) for d in range(-3, 5)}, (name, k)


def _count_calls(mp, owner, name, counter, key):
    """Wrap owner.name so that each call adds one to counter[key(*args)]."""
    fn = getattr(owner, name)

    def counted(*args):
        k = key(*args)
        counter[k] = counter.get(k, 0) + 1
        return fn(*args)

    mp.setattr(owner, name, counted)


def test_later_steps_read_the_kept_seeds(ring_two_nodes):
    # A step's seeds and new generators are the next step's map columns, so
    # a later step's kernel forms no product: no Slice.vector call inside
    # it, while the resolution still has later-step kernels to find.
    rng = random.Random(2009)
    M = random_homogeneous_module(ring_two_nodes, rng, 2, 2, "A")
    inside, later = [], {}
    kernel_piece = oracle._kernel_piece

    def watched(ctx, pres, steps, d, free, images):
        inside.append(len(steps) > 1)
        try:
            return kernel_piece(ctx, pres, steps, d, free, images)
        finally:
            inside.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_kernel_piece", watched)
        _count_calls(mp, oracle.Slice, "vector", later,
                     lambda *args: "later" if inside and inside[-1] else "other")
        steps = truncated_resolution(OracleContext(ring_two_nodes, 8), M, 5)
    assert "later" not in later and later["other"]
    assert all(steps[i].gen_degs for i in range(1, 6))


def test_each_multiplication_map_is_built_once(ring_two_nodes):
    # Every rank of (d_j tensor N)_d reads N's multiplication maps: the
    # images of N_e's basis under a monomial, reduced modulo N's value
    # space (one reduce_columns call), built once per tor_oracle call and
    # read again by every later rank that needs them.
    rng = random.Random(2009)
    M = random_homogeneous_module(ring_two_nodes, rng, 2, 2, "A")
    N = random_homogeneous_module(ring_two_nodes, rng, 2, 2, "B")
    inside, reads, builds = [], {}, {}
    lookup = OracleContext.multiplication_map

    def watched(ctx, pres, e, mono):
        key = (id(ctx), id(pres), e, mono)
        reads[key] = reads.get(key, 0) + 1
        inside.append(key)
        try:
            return lookup(ctx, pres, e, mono)
        finally:
            inside.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OracleContext, "multiplication_map", watched)
        _count_calls(mp, oracle.QuotientSpace, "reduce_columns", builds,
                     lambda *args: inside[-1] if inside else None)
        tor_oracle(M, N, 4, 8)
    builds.pop(None, None)   # the first step's residuals
    assert builds.keys() == reads.keys() and set(builds.values()) == {1}
    assert len({key[:2] for key in reads}) == 1   # one context, one N
    assert sum(reads.values()) > 2 * len(builds)


def test_module_hilbert_oracle_matches_groebner(mod_N_two_nodes, mod_quadric):
    for M in (mod_N_two_nodes, mod_quadric):
        oracle = module_hilbert_oracle(M, 6)
        pipeline = M.hilbert_function(6, dmin=0)
        assert oracle == pipeline


def test_guardrail_degree():
    ring = catalog.ring("R_node", F)
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


_IMPORT_SCRIPT = """
ring R = quotient(field=f32003, vars=[x,y,z,u], ideal=[x*y, z*u])
module M = coker(R, shifts=[0], matrix=[[y, u]])
"""


def test_importing_cihom_does_not_load_the_oracle(tmp_path):
    # The Groebner pipeline and the command line do not load the oracle, and
    # nothing loads numpy.  A run loads only the modules its commands use:
    # the package's deferred names and the script reader load on first use.
    watched = ("cihom.oracle", "cihom.linalg", "cihom.theorems", "cihom.dsl",
               "cihom.constructions", "cihom.search", "numpy")
    scripts = {}
    for name, line in (("check", "check 3.3 on (M)\n"), ("pushforward", "pushforward M\n")):
        scripts[name] = tmp_path / f"{name}.ci"
        scripts[name].write_text(_IMPORT_SCRIPT + line)
    run = ("import contextlib, io, cihom.cli\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    if cihom.cli.main({argv!r}):\n"
           "        sys.exit('the run failed')\n")
    cases = (
        ("import cihom", set()),
        ("import cihom.cli", set()),
        (run.format(argv=["--example", "4.4"]), set()),
        (run.format(argv=["--script", str(scripts["check"])]), {"cihom.dsl", "cihom.theorems"}),
        (run.format(argv=["--script", str(scripts["pushforward"])]),
         {"cihom.dsl", "cihom.constructions"}),
        ("import cihom\nfor name in cihom.__all__:\n    getattr(cihom, name)\n",
         {"cihom.theorems", "cihom.constructions", "cihom.search"}),
    )
    for code, loads in cases:
        code = f"import sys\n{code}\nprint(sorted(set(sys.modules) & {set(watched)!r}))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(sorted(loads)), code
    # and in this process: a deferred name is its module's own object
    import cihom
    from cihom import constructions, search, theorems
    owners = {"pushforward": constructions, "quasi_lifting": constructions,
              "check_theorem": theorems, "SearchConfig": search,
              "counterexample_search": search}
    for name in cihom.__all__:
        assert getattr(cihom, name) is getattr(owners.get(name, cihom), name), name
    with pytest.raises(AttributeError):
        cihom.no_such_name


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


def test_truncated_resolution_of_k_over_k_x_mod_x_cubed():
    # k over k[x]/(x^3) is resolved by x and x^2 in turn, so its generators
    # sit in degrees 0, 1, 3, 4, 6, 7.  From step 2 on, a new generator's
    # degree is one where the target two steps back is zero (R_3 = 0): the
    # step before formed no map column there, and every image is zero.
    pr = PolyRing(F, ["x"])
    x = pr.variable("x")
    k = ModulePresentation.quotient_by_ideal(RingPresentation(pr, [x * x * x]), [x])
    steps = truncated_resolution(OracleContext(k.ring, 8), k, 6)
    assert [st.gen_degs for st in steps] == [[0], [1], [3], [4], [6], [7], []]


@pytest.mark.parametrize("gen_degs", [(0,), (0, 0), (1, 0, 1), (-1, 2), (-2, -2, 0), ()])
def test_free_space_dimension_is_the_hilbert_function(ring_two_nodes, ring_quadric,
                                                     ring_node, gen_degs):
    # A slice of R^r is one block of R's standard monomials per generator,
    # so its length is sum_g HF_R(d - g), and each block is the normal-form
    # table's image: every monomial of S lands on its block.
    for ring in (ring_node, ring_two_nodes, ring_quadric):
        ctx = OracleContext(ring, 8)
        hf_r = ModulePresentation.free(ring, (0,)).hilbert_function(11, dmin=0)
        hf = ModulePresentation.free(ring, gen_degs).hilbert_function(8, dmin=-3)
        for d in range(-3, 9):
            sl = ctx.slice(gen_degs, d)
            assert len(sl.coords) == sum(hf_r[d - g] for g in gen_degs if d >= g) == hf[d]
            for pos, (off, normal_form) in sl.blocks.items():
                width = hf_r[d - gen_degs[pos]]
                assert all(off <= off + j < off + width for row in normal_form.values()
                           for j in row), (ring.label, d, pos)


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
    # R = k[x, y, z, u]/(xy, zu): x is a standard monomial of degree 1 and xy
    # a multiple of a quotient generator, whose normal form is zero
    ctx = OracleContext(ring_two_nodes, 4)
    sl = ctx.slice((0,), 1)
    x = (1, 0, 0, 0)
    assert sl.vector([((0, x), 1)]) == {sl.coords.index((0, x)): 1}
    assert ctx.slice((0,), 2).vector([((0, (1, 1, 0, 0)), 1)]) == {}
    # a term of the wrong degree, or at a position the slice does not have
    for term in ((0, (2, 0, 0, 0)), (1, x), (-1, x)):
        with pytest.raises(InvariantError):
            sl.vector([(term, 1)])
    with pytest.raises(InvariantError):
        ctx.slice((2,), 1).vector([((0, ()), 1)])


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
    # hom_oracle reads M's relations and N's pieces the same way.  Hom(R/(x),
    # X) is the part of X that x kills: nothing of R/(y) = k[x, z, u]/(zu),
    # and all of R/(x) = k[y, z, u]/(zu)
    out, calls = _groebner_calls(lambda: (hom_oracle(M, N, -1, 3), hom_oracle(M, M, -1, 3)))
    assert calls == []
    assert out == ({-1: 0, 0: 0, 1: 0, 2: 0, 3: 0}, {-1: 0, 0: 1, 1: 3, 2: 5, 3: 7})
