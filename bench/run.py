"""The cihom benchmark: one command, every workload, every metric with its unit.

    python3 bench/run.py [--workload catalog|search36|oracle|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Each workload runs in its own single-threaded process (``worker.py``), one
workload at a time.  With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are printed; ``setup_s`` is the median over several fresh
processes of the time from process start until cihom is imported and the
first pass's inputs exist, at the reference speed of ``worker.py`` (timed
against the sparse reference, run in that process just before and just
after its set-up).  With ``--trace 1`` the per-layer metrics of a
traced pass are printed instead, after the trace self-checks.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every result was produced; a failed output
check shows as ``correct: false``, in ``failed`` and in ``ok_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_SPARSE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4           # fresh processes timed for setup_s before and after the run
RUN_TIMEOUT_S = 170        # whole workload process, per workload
WORKLOAD_NAMES = ("catalog", "search36", "oracle")


def _env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)   # cihom comes from this checkout's src only
    return env


def _start(workload, seed, seconds, trace, probe=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    return proc, t0


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("bench: workload process ran past its time limit")
    if proc.returncode != 0:
        raise SystemExit(f"bench: workload process exited with {proc.returncode}")
    return out


def _until_ready(proc, t0):
    """Set-up time of a started worker, less its references, at the
    reference speed."""
    words = proc.stdout.readline().split()
    ready = time.perf_counter() - t0
    if len(words) != 3 or words[0] != "ready":
        proc.kill()
        proc.communicate()
        raise SystemExit("bench: workload process failed during set-up")
    in_refs, ref_s = float(words[1]), float(words[2])
    return (ready - in_refs) * REF_SPARSE_S / ref_s


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns the worker's raw result plus setup samples."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup = []

    def probes():
        # Probes on both sides of the run sample more of the machine's
        # fast and slow phases than probes taken back to back.
        for _ in range(0 if trace else SETUP_PROBES):
            proc, t0 = _start(workload, seed, seconds, trace, probe=True)
            setup.append(_until_ready(proc, t0))
            _finish(proc, deadline)

    probes()
    proc, t0 = _start(workload, seed, seconds, trace)
    setup.append(_until_ready(proc, t0))
    out = _finish(proc, deadline)
    probes()
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setup)
    return result


def end_to_end(r):
    return {
        "setup_s": r["setup_s"],
        "items_per_s": r["items_per_s"],
        "item_p50_s": r["item_p50_s"],
        "item_tail_s": r["item_tail_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "ok_ratio": 1.0 - r["failed"] / r["attempted"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cihom" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"bench: {ROOT} has no src/cihom package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        r = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += r["attempted"]
        failed += r["failed"]
        correct = correct and r["failed"] == 0
        for key, why in r["failures"].items():
            print(f"{name} FAILED {key}: {'; '.join(why)}")
        if args.trace:
            values = {k: m["value"] for k, m in r["trace"]["metrics"].items()}
            for problem in r["trace"]["problems"]:
                print(f"{name} TRACE CHECK FAILED {problem}")
            correct = correct and not r["trace"]["problems"]
            print(f"{name} spans {r['trace']['spans']} written to {r['trace']['span_file']}")
        else:
            values = end_to_end(r)
            print(f"{name} field {r['field']}: {r['passes']} timed passes of "
                  f"{r['items_per_pass']} items; fail_ratio {r['failed']}/{r['attempted']}; "
                  f"item times are each item's median of {r['passes']} passes at the "
                  f"reference speed; item_tail_s is p{r['tail_percentile']:.1f} of "
                  f"{r['tail_samples']} samples; host ran at {r['host_speed']:.3f} of the "
                  f"reference speed, {r['wall_items_per_s']:.4g} items/s by wall clock")
        prefix = "" if len(names) == 1 else f"{name}."
        for m in wanted:
            value = values[m["name"]]
            print(f"{name} {m['name']} {value:.6g} {m['unit']}")
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
