"""One workload in one single-threaded process; started by ``run.py``.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

Prints ``ready`` once cihom is imported and the first pass's inputs exist
(``--probe`` exits there: a set-up sample), with the time spent in the
references run just before and just after the set-up and their median.
Then it runs one untimed warm-up pass and a fixed number of timed passes
sized from ``--seconds``, checks every output, and prints one JSON line of
raw results.  With ``--trace 1``
it then runs one more pass under the span tracer and adds the per-layer
metrics.

Every item is timed between two runs of a fixed reference computation that
uses no cihom code (``reference_s``).  An item's time is reported at the
reference speed: its wall time times the reference's nominal time over the
mean of the reference times at its two boundaries.  On a shared host the
speed of the whole machine drifts by a third or more for seconds at a time;
both the item and its neighbouring references see the same drift, so their
ratio does not.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ITEM_DEADLINE_S = 30
TAIL_BEYOND = 10    # samples required beyond the reported tail percentile
# Median times of the two parts of the reference computation on a quiet host
# at the baseline: sparse dict arithmetic, and dense int64 row reduction.
REF_SPARSE_S = 0.0023
REF_DENSE_S = 0.0018


class ItemDeadline(BaseException):
    """Raised in the item when it runs past the per-item deadline; a
    BaseException so that no ``except Exception`` in cihom swallows it."""


def _on_alarm(signum, frame):
    raise ItemDeadline(f"item ran past {ITEM_DEADLINE_S} s")


def import_cihom():
    """Import cihom from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "cihom" / "__init__.py").is_file():
        raise SystemExit(f"bench: no cihom package under {src}")
    sys.path.insert(0, str(src))
    import cihom
    if Path(cihom.__file__).resolve().parent != (src / "cihom").resolve():
        raise SystemExit(f"bench: imported cihom from {cihom.__file__}, not {src}")


P_REF = 32003
SPARSE_BASE = {(i, j, 5 - i - j): (7 * i + 13 * j + 1) % P_REF
               for i in range(6) for j in range(6 - i)}


def _sparse_reference():
    """Products of sparse polynomials as dicts keyed by exponent tuples,
    coefficients mod a prime, the shape of cihom's own arithmetic."""
    acc = dict(SPARSE_BASE)
    for _ in range(4):
        res = {}
        for m1, c1 in acc.items():
            for m2, c2 in SPARSE_BASE.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                c = c1 * c2 % P_REF
                if m in res:
                    s = (res[m] + c) % P_REF
                    if s:
                        res[m] = s
                    else:
                        del res[m]
                elif c:
                    res[m] = c
        acc = {m: c for m, c in res.items() if max(m) < 12}


def _dense_reference():
    """24 pivots of int64 row reduction mod a prime by rank-one updates, the
    shape of the oracle's dense elimination."""
    import numpy as np
    A = (np.arange(96 * 128, dtype=np.int64).reshape(96, 128) * 7919 + 13) % P_REF
    for r in range(24):
        inv = pow(int(A[r, r]) or 1, P_REF - 2, P_REF)
        A[r] = (A[r] * inv) % P_REF
        col = A[:, r].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % P_REF


def reference_nominal_s(dense: bool) -> float:
    return REF_SPARSE_S + (REF_DENSE_S if dense else 0.0)


def reference_s(dense: bool) -> float:
    """Wall time of a fixed computation written here, so that no change to
    cihom can move it: the sparse part, plus the dense part for a workload
    whose items are partly dense linear algebra.  The cyclic garbage
    collector is held off, so the size of cihom's heap does not move it
    either."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    _sparse_reference()
    if dense:
        _dense_reference()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def boundary_reference_s(dense: bool) -> float:
    """The reference time at one item boundary: the median of three runs,
    since a single run now and then lands in a burst of other load."""
    return statistics.median(reference_s(dense) for _ in range(3))


def run_pass(wl, inputs, tracer=None):
    """Run every item of one pass, each between two reference boundaries.

    Returns (item seconds, reference seconds, outputs, errors); the
    reference list has one entry more than the items: item ``pos`` ran
    between references ``pos`` and ``pos + 1``.
    """
    times, refs, outputs, errors = [], [], [], {}
    clock = time.perf_counter
    for pos, item in enumerate(inputs):
        refs.append(boundary_reference_s(wl.dense))
        if tracer is not None:
            tracer.item = pos
        signal.setitimer(signal.ITIMER_REAL, ITEM_DEADLINE_S)
        t0 = clock()
        try:
            out, err = wl.run(item)
        except ItemDeadline as exc:
            out, err = b"", str(exc)
        except Exception as exc:  # the item's failure is recorded, the run goes on
            out, err = b"", f"{type(exc).__name__}: {exc}"
        finally:
            t1 = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.item = -1
        times.append(t1 - t0)
        outputs.append(out)
        if err:
            errors[pos] = err
    refs.append(boundary_reference_s(wl.dense))
    return times, refs, outputs, errors


def at_reference_speed(wl, times, refs):
    """Item times scaled to the reference speed, from one pass's run_pass."""
    nominal = reference_nominal_s(wl.dense)
    return [t * 2.0 * nominal / (refs[pos] + refs[pos + 1]) for pos, t in enumerate(times)]


def timing(wl, per_pass, raw_per_pass, refs):
    """End-to-end timings from the item times of every timed pass.

    ``per_pass`` holds item times at the reference speed.  Each item's cost
    is the median of its times over the passes.  The tail is taken over all
    passes x items samples, each standing at its item's median time, at the
    highest percentile that has at least TAIL_BEYOND samples beyond it.  The
    wall-clock throughput and the host's speed relative to the reference
    (nominal over median reference time) are returned for the record.
    """
    passes = len(per_pass)
    typical = [statistics.median(col) for col in zip(*per_pass)]
    raw = [statistics.median(col) for col in zip(*raw_per_pass)]
    samples = passes * len(typical)
    slowest = sorted(typical, reverse=True)
    return {
        "items_per_s": len(typical) / sum(typical),
        "item_p50_s": statistics.median(typical),
        "item_tail_s": slowest[min(TAIL_BEYOND // passes, len(typical) - 1)],
        "tail_percentile": 100.0 * max(samples - TAIL_BEYOND, 0) / samples,
        "tail_samples": samples,
        "typical_pass_s": sum(typical),
        "wall_items_per_s": len(raw) / sum(raw),
        "host_speed": reference_nominal_s(wl.dense) / statistics.median(refs),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    # Set-up is scaled to the reference speed like the items, against
    # references run in this process on either side of it.
    t0 = time.perf_counter()
    refs = [reference_s(False) for _ in range(3)]
    in_refs = time.perf_counter() - t0
    import_cihom()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    inputs = wl.build_pass()
    t0 = time.perf_counter()
    refs += [reference_s(False) for _ in range(3)]
    in_refs += time.perf_counter() - t0
    print(f"ready {in_refs!r} {statistics.median(refs)!r}", flush=True)
    if args.probe:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    recorded = json.loads((Path(__file__).parent / "digests.json").read_text())
    expected = recorded.get(wl.name, {}).get(wl.digest_key, {})
    reasons = {}       # item key -> why it failed
    bad = set()        # (timed pass, position) of each failed attempt

    def fail(pos, why, passes_hit):
        reasons.setdefault(wl.item_key(pos), set()).add(why)
        bad.update((k, pos) for k in passes_hit)

    passes = max(3, round(args.seconds / wl.nominal_pass_s))
    _, _, outputs, errors = run_pass(wl, inputs)  # warm-up: imports, bytecode
    for pos, err in errors.items():
        fail(pos, f"warm-up: {err}", ())
    warmup_digests = [hashlib.sha256(out).hexdigest() for out in outputs]
    for pos, dg in enumerate(warmup_digests):
        want = expected.get(wl.item_key(pos))
        if want is not None and dg != want:
            fail(pos, "output digest differs from the recorded one", range(passes))
    warmup_outputs = outputs

    per_pass, raw_per_pass, all_refs = [], [], []
    for k in range(passes):
        times, refs, outputs, errors = run_pass(wl, wl.build_pass())
        per_pass.append(at_reference_speed(wl, times, refs))
        raw_per_pass.append(times)
        all_refs.extend(refs)
        for pos, err in errors.items():
            fail(pos, err, (k,))
        for pos, out in enumerate(outputs):
            if hashlib.sha256(out).hexdigest() != warmup_digests[pos]:
                fail(pos, "output differs from the warm-up pass", (k,))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for pos, err in wl.check(warmup_outputs).items():
        fail(pos, err, range(passes))
    n_items = len(warmup_digests)
    result = {
        "workload": wl.name, "seed": args.seed, "field": wl.digest_key,
        "passes": passes, "items_per_pass": n_items,
        "pass_s": [sum(times) for times in per_pass],
        "attempted": passes * n_items, "failed": len(bad),
        "failures": {key: sorted(why) for key, why in sorted(reasons.items())},
        "peak_rss_mb": peak_rss_mb,
        **timing(wl, per_pass, raw_per_pass, all_refs),
    }
    if args.trace:
        result["trace"] = traced_pass(wl, warmup_digests, result["typical_pass_s"])
    print(json.dumps(result), flush=True)
    return 0


def traced_pass(wl, warmup_digests, untraced_pass_s):
    """One pass under the span tracer: per-layer metrics and self-checks.

    ``untraced_pass_s`` is the untraced pass time at the reference speed."""
    from spans import DENSE_LAYERS, GROEBNER_LAYERS, Tracer
    inputs = wl.build_pass()
    tracer = Tracer()
    tracer.install()
    try:
        times, refs, outputs, errors = run_pass(wl, inputs, tracer)
    finally:
        tracer.uninstall()
    problems = [f"{wl.item_key(p)}: {e}" for p, e in sorted(errors.items())]
    for pos, out in enumerate(outputs):
        if hashlib.sha256(out).hexdigest() != warmup_digests[pos]:
            problems.append(f"{wl.item_key(pos)}: traced output differs from untraced")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
    traced_pass_s = sum(at_reference_speed(wl, times, refs))
    metrics["trace.overhead_ratio"] = {"value": traced_pass_s / untraced_pass_s, "unit": "ratio"}
    for name in EXPECTED_NONZERO[wl.name]:
        if metrics[name]["value"] == 0:
            problems.append(f"coverage: {name} recorded no calls")
    if wl.name == "oracle":
        for pos in sorted(tracer.items_calling(GROEBNER_LAYERS)):
            problems.append(f"{wl.item_key(pos)}: Groebner-side layer called inside an oracle item")
    else:
        for pos in sorted(tracer.items_calling(DENSE_LAYERS)):
            problems.append(f"{wl.item_key(pos)}: oracle or linalg called outside the oracle")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-{wl.digest_key}.txt"
    tracer.write(span_file)
    return {"metrics": metrics, "problems": problems, "spans": tracer.span_count(),
            "span_file": str(span_file.relative_to(ROOT))}


# Boundaries the interaction table predicts to be busy on each workload; the
# traced run fails when one of them records no calls.
EXPECTED_NONZERO = {
    "catalog": ("groebner.tracked_buchberger.calls", "groebner.minimal_generator_indices.calls",
                "resolutions.resolve.steps", "rings.init.calls", "fmodules.minimalize.calls",
                "reports.emit_json.calls", "catalog.run_example.calls", "cli.main.calls"),
    "search36": ("groebner.normal_form.calls", "groebner.s_pair.calls",
                 "groebner.tracked_buchberger.calls", "groebner.minimal_generator_indices.calls",
                 "resolutions.resolve.steps", "homology.HomologyEntry.calls",
                 "homology.ext_ambient_dimensions.calls", "fmodules.depth.calls",
                 "search.counterexample_search.calls"),
    "oracle": ("oracle.tor_oracle.calls", "oracle.truncated_resolution.calls",
               "oracle.rref.calls", "oracle.reduce_columns.calls", "linalg.echelon_add.calls"),
}


if __name__ == "__main__":
    sys.exit(main())
