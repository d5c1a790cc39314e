"""The benchmark's workloads: inputs, one item's work, and output checks.

Every workload builds fresh inputs for each pass (``build_pass``), so the
per-object caches of cihom (resolution, minimal-presentation, Hilbert and
ring-dimension caches) never make a later item or pass free.  ``run``
performs one item and returns its output bytes plus an error string or None.
``check`` runs outside the timed section and returns one error string per
failed pass position.

The workload seed picks the coefficient field: the prime p = PRIMES[seed - 1]
(cyclically), so seed 1 is cihom's default field f32003.  The monomial
shape of every generated input is the same for all seeds, which keeps the
cost of a pass the same across seeds while the inputs themselves differ.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout

from cihom import PolyRing, RingPresentation, field_by_tag
from cihom.catalog import catalog_ids
from cihom.search import SearchConfig, random_homogeneous_module

# Items call cihom through its modules, so the span tracer's wrappers see them.
from cihom import cli, homology, oracle, search


def _primes_descending(top: int, bottom: int) -> list:
    sieve = bytearray([1]) * (top + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(top ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, top + 1, i)))
    return [p for p in range(top, bottom - 1, -1) if sieve[p]]


PRIMES = _primes_descending(32003, 16411)


def field_for_seed(seed: int):
    return field_by_tag(f"f{PRIMES[(seed - 1) % len(PRIMES)]}")


def quadric_ring(field):
    """k[x,y,w,z]/(xw - yz)."""
    pr = PolyRing(field, ["x", "y", "w", "z"])
    x, y, w, z = (pr.variable(v) for v in "xywz")
    f = x * w - y * z
    return RingPresentation(pr, [f], label="R_quadric", minimal_primes=[[f]])


def two_node_ring(field):
    """k[x,y,z,u]/(xy, zu)."""
    pr = PolyRing(field, ["x", "y", "z", "u"])
    x, y, z, u = (pr.variable(v) for v in "xyzu")
    return RingPresentation(pr, [x * y, z * u], label="R_xyzu")


def node_ring(field):
    """k[x,y]/(xy)."""
    pr = PolyRing(field, ["x", "y"])
    x, y = pr.variable("x"), pr.variable("y")
    return RingPresentation(pr, [x * y], label="R_node")


def _hilbert_disagreements(M, N, index_bound, degree_bound, oracle_dims):
    """Positions (i, d) where tor_profile's Hilbert data and the oracle differ."""
    prof = homology.tor_profile(M, N, index_bound, degree_bound)
    return [(i, d) for i in range(1, index_bound + 1)
            for d in sorted(set(oracle_dims[i]) | set(prof.entry(i).hilbert))
            if d <= degree_bound
            and prof.entry(i).hilbert.get(d, 0) != oracle_dims[i].get(d, 0)]


class Catalog:
    """The eight catalog entries, each one in-process ``cihom --example ID``."""

    name = "catalog"
    nominal_pass_s = 1.1
    dense = False       # pure-Python work: timed against the sparse reference only

    def __init__(self, seed: int):
        self.ids = catalog_ids()
        self.digest_key = "f32003"

    def build_pass(self) -> list:
        # Each entry builds its own ring and modules when it runs.
        return list(self.ids)

    def item_key(self, pos: int) -> str:
        return self.ids[pos]

    def run(self, entry_id):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["--example", entry_id, "--format", "json"])
        out = buf.getvalue().encode("utf-8")
        return out, (None if code == 0 else f"exit code {code}")

    def check(self, outputs) -> dict:
        return {}


class Search36:
    """One ``search 3.6`` sample per item over the quadric, seeds 1..30."""

    name = "search36"
    nominal_pass_s = 2.8
    dense = False
    item_seeds = tuple(range(1, 31))
    tor_bound, degree_bound = 5, 6

    def __init__(self, seed: int):
        self.field = field_for_seed(seed)
        self.digest_key = self.field.tag

    def build_pass(self) -> list:
        ring = quadric_ring(self.field)   # once per pass, as a session would
        return [(ring, s) for s in self.item_seeds]

    def item_key(self, pos: int) -> str:
        return str(self.item_seeds[pos])

    def run(self, item):
        ring, s = item
        log = search.counterexample_search(SearchConfig(ring, "3.6", samples=1, seed=s,
                                                        max_gens=2, max_deg=1))
        rec = log["findings"][0]
        err = None
        if rec["classification"] == "skipped" and "error" in rec:
            err = f"skipped with error: {rec['error']}"
        return json.dumps(log, sort_keys=True).encode("utf-8"), err

    def check(self, outputs) -> dict:
        """Each sampled pair: pipeline Tor Hilbert data equals the oracle's."""
        errors = {}
        ring = quadric_ring(self.field)
        for pos, s in enumerate(self.item_seeds):
            rng = random.Random(s)   # the search's own sampling stream
            M = random_homogeneous_module(ring, rng, 2, 1, label="S0a")
            N = random_homogeneous_module(ring, rng, 2, 1, label="S0b")
            if M.n_gens == 0 or N.n_gens == 0:
                continue
            dims = oracle.tor_oracle(M, N, self.tor_bound, self.degree_bound)
            bad = _hilbert_disagreements(M, N, self.tor_bound, self.degree_bound, dims)
            if bad:
                errors[pos] = f"tor_profile differs from tor_oracle at (i, d) {bad}"
        return errors


class Oracle:
    """``tor_oracle(M, N, 4, 8)`` on random pairs over three rings."""

    name = "oracle"
    nominal_pass_s = 2.6
    # The node items are mostly interpreter overhead, the two-node item
    # mostly numpy row reduction: timed against both reference parts.
    dense = True
    # (ring builder, pairs per pass, sampling seed).  The two-node and quadric
    # pairs are large and carry most of the time; the node pairs are tiny and
    # set the median item.
    pool = ((two_node_ring, 1, 2009), (quadric_ring, 1, 2010), (node_ring, 8, 2011))
    index_bound, degree_bound = 4, 8

    def __init__(self, seed: int):
        self.field = field_for_seed(seed)
        self.digest_key = self.field.tag
        self.keys = [f"{make.__name__}:{k}" for make, count, _ in self.pool
                     for k in range(count)]

    def build_pass(self) -> list:
        items = []
        for make, count, sample_seed in self.pool:
            rng = random.Random(sample_seed)
            made = 0
            while made < count:
                ring = make(self.field)   # a fresh ring for every item
                M = random_homogeneous_module(ring, rng, 2, 2, label="A")
                N = random_homogeneous_module(ring, rng, 2, 2, label="B")
                if M.n_gens and N.n_gens:
                    items.append((M, N))
                    made += 1
        return items

    def item_key(self, pos: int) -> str:
        return self.keys[pos]

    def run(self, item):
        M, N = item
        dims = oracle.tor_oracle(M, N, self.index_bound, self.degree_bound)
        return json.dumps(dims, sort_keys=True).encode("utf-8"), None

    def check(self, outputs) -> dict:
        """Each item's oracle dimensions equal tor_profile's Hilbert data."""
        errors = {}
        for pos, (M, N) in enumerate(self.build_pass()):
            dims = {int(i): {int(d): v for d, v in row.items()}
                    for i, row in json.loads(outputs[pos]).items()}
            bad = _hilbert_disagreements(M, N, self.index_bound, self.degree_bound, dims)
            if bad:
                errors[pos] = f"tor_oracle differs from tor_profile at (i, d) {bad}"
        return errors


WORKLOADS = {w.name: w for w in (Catalog, Search36, Oracle)}
