"""The pinned outputs of cihom, one row each.

A row is (name, builder, check).  The builder computes an output in-process.
The check is the sha256 of that text output (a hex string), a list of
sha256s for a list of outputs, or a predicate.  A builder wrapped in
``_within`` must finish inside its time limit.  Every digest was recorded
earlier and is kept byte for byte; a refactor that moves one of them changes
what cihom prints.  The names the benchmark's tracer wraps are checked here
too.
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

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
F = PrimeField(32003)
# The benchmark's inputs; bench/ is not a package.
WORKLOADS = runpy.run_path(str(ROOT / "bench" / "workloads.py"))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    in ``catalog_ids()`` order; every entry must pass."""
    outs = [_cli("--example", entry_id, "--field", tag, "--format", "json")
            for entry_id in catalog_ids()]
    for entry_id, out in zip(catalog_ids(), outs):
        assert json.loads(out)["results"][0]["data"]["pass"] is True, entry_id
    return outs


def _matches_bench_digests(outs):
    # The f32003 digests are the benchmark's own record of the catalog bytes.
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())["catalog"]["f32003"]
    return dict(zip(catalog_ids(), map(_sha256, outs))) == recorded


def _search_logs(*configs):
    return [json.dumps(counterexample_search(cfg), sort_keys=True) for cfg in configs]


def _default_3_6_logs():
    # The default SearchConfig: 8 samples over the quadric, max_deg=2.  Seed 1
    # is the run in which the depth pre-check of satisfies_serre skips 4 of the
    # 8 Ext computations of the tensor Serre tests.  With full pair-queue
    # drains for membership questions this took about 265 s.
    quadric = catalog.ring("R_quadric", F)
    return _search_logs(*(SearchConfig(quadric, "3.6", samples=8, seed=s) for s in (1, 2)))


def _thirty_sample_3_6_logs():
    # The search36 workload's module sizes over f3 (cancellation mod p is
    # common) and over the rationals (Fraction coefficients).
    return _search_logs(*(
        SearchConfig(catalog.ring("R_quadric", field_by_tag(tag)), "3.6", samples=30,
                     seed=1, max_gens=2, max_deg=1)
        for tag in ("f3", "rational")))


def _torsion_searches():
    # 3.17 reads the tensor's torsion-freeness, 4.16 and 4.18 that of M and
    # of M tensor M*; no benchmark workload runs them.
    quadric, two_nodes, node = (catalog.ring(name, F)
                                for name in ("R_quadric", "R_xyzu", "R_node"))
    return _search_logs(
        SearchConfig(quadric, "3.17", seed=3), SearchConfig(quadric, "3.17", seed=4),
        SearchConfig(two_nodes, "3.17", seed=1), SearchConfig(node, "3.17", seed=1),
        SearchConfig(node, "4.16", seed=1), SearchConfig(node, "4.18", seed=1))


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
    return {"sha256": _sha256(json.dumps(dims, sort_keys=True)), **calls}


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
    ("catalog_f3", lambda: "".join(_catalog("f3")),
     "a507cdc0d3d1edd4de41122250b33fd8bfcde93ac7024eedddf54a4b2a6bb5cd"),
    ("catalog_f4294967311", lambda: "".join(_catalog("f4294967311")),
     "29cf0cf63561754139dce7972d49929cdc97ee1747c337b0e06588efff22b1a3"),
    ("catalog_rational", lambda: "".join(_catalog("rational")),
     "5abdd8a798cdc0667c528e19c6fd74e9abf714aba9a541f5f597639f4cbc9da1"),
    # Every script command over the two-node ring and the quadric.
    ("session_json", lambda: _cli("--script", str(DATA / "session_all.ci"), "--format", "json"),
     "7cb916f1086ab805293dd3c9b254f5d13173c5582eca3dc59e79d796b9a03fb6"),
    ("session_text", lambda: _cli("--script", str(DATA / "session_all.ci"), "--format", "text"),
     "29094ce24c08cd3f894962e16969b1e96eca284630b340a388b1ada07dfbba02"),
    ("search_3_6_default", _within(120, _default_3_6_logs),
     ["7b5efe1d134967aebf395670ff9954b9deed0544885cad3c648c7da8af71f731",
      "9bdd51973d4d891ab722f96f0d672a22a46749c6649a6ac05ad15c7e431defca"]),
    ("search_3_6_f3_and_rational", _within(120, _thirty_sample_3_6_logs),
     ["21ff5793a444afb49a796189b36b784b49a4081c673621c10beff6cc497fea0e",
      "071d01e380fc2d68bfe9cdd51bfc1400ca1ee197d0eb99fa37b2a8f958ecd783"]),
    ("search_torsion_free", _within(60, _torsion_searches),
     ["6cad7cd6016984b0787df074bec56a13f2f00fcac58a821dbe8a6feec6e409dc",   # 3.17, quadric, 3
      "9ead373c8e00bde17eb7f04dc81ff749a7551e23b2648dc055434b4a1360476d",   # 3.17, quadric, 4
      "fa28f9a167b1d0fb8204b4729098b9caa3424a52b122d465ca2e940bd40276fc",   # 3.17, two nodes, 1
      "bceca717f9f69127b9bdb893953aa65ccb4476c00dbf5d445e3610682d803a61",   # 3.17, node, 1
      "65733f25aaf2af3c21ad61a46868a6aa51e92456ab497a37be0557713fb8c193",   # 4.16, node, 1
      "6d5d29fa05a66ceb9f4a7b393b663d3740acf2d3ab651568cd4b3b95901bca8b"]),  # 4.18, node, 1
    ("oracle_degree_8", _within(60, _oracle_degree_8),
     lambda got: got["sha256"] == "52c1bcf716dbe088a73ddd8b137eb6a7110bea8032bf3c950863ea98b3c82ad9"
     and got["add"] < 2000 and got["vector"] < 3500),
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
    elif isinstance(check, list):
        assert [_sha256(out) for out in got] == check
    else:
        assert _sha256(got) == check


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
