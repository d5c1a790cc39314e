"""The pinned outputs of cihom, one row each.

A row is (name, builder, check).  The builder computes an output in-process.
The check is a predicate, or the name of a golden file under
``tests/data/golden``: the builder's text must equal that file byte for byte,
or, when the builder returns a {file name: text} dict, each text must equal
the file of that name in the named directory (``tests/golden.py``).  A
failing pin names the JSON path or text line that moved.  A builder wrapped
in ``_within`` must finish inside its time limit.  Every golden file was
recorded earlier and is kept byte for byte; a refactor that moves one of them
changes what cihom prints.  The names the benchmark's tracer wraps are
checked here too.
"""

import hashlib
import importlib
import io
import json
import runpy
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cihom import catalog, linalg, oracle
from cihom.catalog import catalog_ids
from cihom.cli import main
from cihom.fields import PrimeField, field_by_tag
from cihom.fmodules import ModulePresentation
from cihom.resolutions import resolve
from cihom.search import SearchConfig, counterexample_search
import golden

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
F = PrimeField(32003)
# The benchmark's inputs; bench/ is not a package.
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))


def _within(seconds, build):
    def timed():
        start = time.perf_counter()
        out = build()
        elapsed = time.perf_counter() - start
        assert elapsed < seconds, f"took {elapsed:.1f} s; the limit is {seconds} s"
        return out
    return timed


def _cli(*argv):
    """stdout of an in-process ``cihom ARGV`` that exits 0."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    assert rc == 0, argv
    return buf.getvalue()


def _catalog(tag):
    """Each catalog entry's ``--example ID --field TAG --format json`` output,
    by file name ``ID.json``; every entry must pass."""
    outs = {}
    for entry_id in catalog_ids():
        out = _cli("--example", entry_id, "--field", tag, "--format", "json")
        assert json.loads(out)["results"][0]["data"]["pass"] is True, entry_id
        outs[f"{entry_id}.json"] = out
    return outs


def _matches_bench_digests(outs):
    # The f32003 digests are the benchmark's own record of the catalog bytes.
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())["catalog"]["f32003"]
    return {name.removesuffix(".json"): hashlib.sha256(out.encode("utf-8")).hexdigest()
            for name, out in outs.items()} == recorded


def _search_logs(configs):
    """Each {name: SearchConfig}'s log, by file name ``name.json``."""
    return {f"{name}.json": golden.dump(counterexample_search(cfg))
            for name, cfg in configs.items()}


def _default_3_6_logs():
    # The default SearchConfig: 8 samples over the quadric, max_deg=2.  Seed 1
    # is the run in which the depth pre-check of satisfies_serre skips 4 of the
    # 8 Ext computations of the tensor Serre tests.  With full pair-queue
    # drains for membership questions this took about 265 s.
    quadric = catalog.ring("R_quadric", F)
    return _search_logs({f"seed_{s}": SearchConfig(quadric, "3.6", samples=8, seed=s)
                         for s in (1, 2)})


def _thirty_sample_3_6_logs():
    # The search36 workload's module sizes over f3 (cancellation mod p is
    # common) and over the rationals (Fraction coefficients).
    return _search_logs({
        tag: SearchConfig(catalog.ring("R_quadric", field_by_tag(tag)), "3.6", samples=30,
                          seed=1, max_gens=2, max_deg=1)
        for tag in ("f3", "rational")})


def _torsion_searches():
    # 3.17 reads the tensor's torsion-freeness, 4.16 and 4.18 that of M and
    # of M tensor M*; no benchmark workload runs them.
    quadric, two_nodes, node = (catalog.ring(name, F)
                                for name in ("R_quadric", "R_xyzu", "R_node"))
    return _search_logs({
        "3.17_quadric_seed_3": SearchConfig(quadric, "3.17", seed=3),
        "3.17_quadric_seed_4": SearchConfig(quadric, "3.17", seed=4),
        "3.17_two_nodes_seed_1": SearchConfig(two_nodes, "3.17", seed=1),
        "3.17_node_seed_1": SearchConfig(node, "3.17", seed=1),
        "4.16_node_seed_1": SearchConfig(node, "4.16", seed=1),
        "4.18_node_seed_1": SearchConfig(node, "4.18", seed=1)})


def _bench_oracle(field_tag=None):
    """The benchmark's oracle workload (seed 1): its ten (M, N) pairs, over
    another field when one is named, with the same shapes."""
    workload = WORKLOADS["Oracle"](1)
    if field_tag:
        workload.field = field_by_tag(field_tag)
    return workload


def _oracle_degree_8():
    # tor_oracle(M, N, 4, 8) on the benchmark's items.  The add count tells
    # block row reductions apart where wall time does not: 21,983 adds one
    # vector at a time, 543 in blocks with a greedy pick over each degree's
    # full kernel, 497 with one block of seeds per degree and no greedy pick.
    # The Slice.vector count tells apart how often a product is formed:
    # 5034 with every step's map columns and every induced column rebuilt,
    # 3282 with the seeds kept as map columns and N's multiplication maps
    # built once.
    calls = {"add": 0, "vector": 0}

    def counted(fn, name):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg.EchelonAccumulator, "add",
                   counted(linalg.EchelonAccumulator.add, "add"))
        mp.setattr(oracle.Slice, "vector", counted(oracle.Slice.vector, "vector"))
        dims = [oracle.tor_oracle(M, N, 4, 8) for M, N in _bench_oracle().build_pass()]
    return {"dims": dims, **calls}


def _oracle_degree_8_holds(got):
    golden.check("oracle_degree_8_dims.json", golden.dump(got["dims"]))
    return got["add"] < 2000 and got["vector"] < 3500


def _oracle_against_tor_profile():
    """Per field: the number of pairs, and the (i, d) where tor_oracle and
    tor_profile's Hilbert data disagree, by item."""
    found = {}
    for tag in ("f3", "rational"):
        workload = _bench_oracle(tag)
        pairs = workload.build_pass()
        bad = {}
        for pos, (M, N) in enumerate(pairs):
            diff = WORKLOADS["_hilbert_disagreements"](M, N, 4, 8, oracle.tor_oracle(M, N, 4, 8))
            if diff:
                bad[workload.item_key(pos)] = diff
        found[tag] = (len(pairs), bad)
    return found


def _quadric_residue_field_betti():
    # k over k[x,y,w,z]/(xw - yz), resolved to 20 steps on a fresh ring:
    # d_6 is d_4 with its degrees raised by 2, so steps 7..20 are copies.
    ring = catalog.ring("R_quadric", F)
    k = ModulePresentation.quotient_by_ideal(
        ring, [ring.poly_ring.variable(v) for v in "xywz"], label="k")
    return resolve(k, steps=20).betti_numbers()


def _tate_betti(n):
    """Coefficients of (1 + t)^4 / (1 - t^2) through t^n: Tate's Betti
    numbers of k over a quadric hypersurface in four variables."""
    top = [1, 4, 6, 4, 1]
    return [sum(top[j] for j in range(i % 2, min(i, 4) + 1, 2)) for i in range(n + 1)]


def _script_data(name):
    out = _cli("--script", str(DATA / name), "--format", "json")
    return json.loads(out)["results"][0]["data"]


ROWS = [
    # The catalog over four fields: f3 makes cancellation mod p common, a prime
    # above 2^32 makes unreduced coefficient sums large, and over the
    # rationals the canonical map is the identity.
    ("catalog_f32003", lambda: _catalog("f32003"), _matches_bench_digests),
    ("catalog_f3", lambda: _catalog("f3"), "catalog_f3"),
    ("catalog_f4294967311", lambda: _catalog("f4294967311"), "catalog_f4294967311"),
    ("catalog_rational", lambda: _catalog("rational"), "catalog_rational"),
    # Every script command over the two-node ring and the quadric.
    ("session_json", lambda: _cli("--script", str(DATA / "session_all.ci"), "--format", "json"),
     "session.json"),
    ("session_text", lambda: _cli("--script", str(DATA / "session_all.ci"), "--format", "text"),
     "session.txt"),
    ("search_3_6_default", _within(120, _default_3_6_logs), "search_3_6_default"),
    ("search_3_6_f3_and_rational", _within(120, _thirty_sample_3_6_logs),
     "search_3_6_f3_and_rational"),
    ("search_torsion_free", _within(60, _torsion_searches), "search_torsion_free"),
    ("oracle_degree_8", _within(60, _oracle_degree_8), _oracle_degree_8_holds),
    ("oracle_against_tor_profile", _within(60, _oracle_against_tor_profile),
     lambda got: got == {"f3": (10, {}), "rational": (10, {})}),
    # k over the quadric has 8x8 differentials from step 3 on; a constant base
    # change d_4 ~ d_5 certifies period 1.
    ("quadric_residue_field_periodicity",
     lambda: _script_data("quadric_residue_field.ci")["periodicity"],
     lambda got: got == {"onset": 4, "period": 1, "periodic": True}),
    # Over a hypersurface the resolution turns periodic and is copied from
    # then on; 20 steps of it take milliseconds.
    ("quadric_residue_field_betti_20", _within(10, _quadric_residue_field_betti),
     lambda got: got == _tate_betti(20)),
    # The quasi-lift of a free module: its pushforward is zero while the
    # connecting map alpha has one column.
    ("quasilift_free_certificate", lambda: _script_data("quasilift_free.ci")["certificate"],
     lambda got: bool(got) and all(v is True for v in got.values())),
]


@pytest.mark.parametrize("build, check", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_contract(build, check):
    got = build()
    if callable(check):
        assert check(got), got
    elif isinstance(got, dict):
        assert sorted(got) == sorted(f.name for f in (golden.GOLDEN / check).iterdir())
        for name, text in got.items():
            golden.check(f"{check}/{name}", text)
    else:
        golden.check(check, got)


def test_every_benchmark_boundary_exists():
    # bench/spans.py wraps each (module, attribute path) of BOUNDARIES when a
    # traced run starts; without this test a deleted or renamed name shows
    # only in a traced bench/tests run.  The owner is walked as
    # Tracer.install walks it, and the last name must be the owner's own.
    spans = runpy.run_path(str(ROOT / "bench" / "spans.py"))
    for metric, modname, path in spans["BOUNDARIES"]:
        owner = importlib.import_module(f"cihom.{modname}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), metric
