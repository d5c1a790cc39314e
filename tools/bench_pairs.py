"""Paired benchmark runs of this checkout against another revision.

    python tools/bench_pairs.py REV --workload W [--seed N] [--seconds S] [--pairs K]
    python tools/bench_pairs.py REV --workload W [--seed N] --trace

REV (a commit, branch or tag) is extracted with ``git archive`` into a
temporary directory, which is removed again at exit.
``bench/run.py --workload W --seed N --seconds S`` then runs K times in each
tree, REV first in even pairs and this checkout first in odd ones.  For
every end-to-end metric of this checkout's ``BENCHMARK.json`` the script
prints each side's median and quartiles, REV's quartile spread and the pairs
each side won (a tie counts for neither), and whether the gain rule holds:
this checkout wins at least nine tenths of the pairs, and its median is
better than REV's by more than REV's quartile spread.

With ``--trace`` each tree runs one traced pass instead (``bench/run.py
--trace 1``), and the script prints every count-type per-layer metric whose
value differs between the two, or that none does.  A count-type metric is
one the machine does not move: every per-layer metric whose unit is not
seconds, except the tracer's own ``trace.`` overhead, a ratio of times.

The runs leave nothing in this checkout but the bytecode caches any run of
``bench/run.py`` leaves (ignored by git); they are not moved elsewhere,
because a ``PYTHONPYCACHEPREFIX`` raises ``setup_s`` and ``peak_rss_mb``.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of the values, the
    quartiles interpolated between the values (a single value is all
    three)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list, change: list, metrics: list) -> list:
    """One row per metric of paired runs.

    ``base`` and ``change`` are lists of {metric name: value}, one per
    run, run i of each side making pair i; ``metrics`` are the end-to-end
    entries of ``BENCHMARK.json`` (name, unit, better).  A row holds each
    side's quartiles, the base's spread (third minus first quartile), the
    pairs each side won and ``holds``: the change won at least nine tenths
    of the pairs and its median is better by more than that spread.
    """
    if len(base) != len(change) or not base:
        raise ValueError("summarize needs the same positive number of runs on both sides")
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        sign = 1 if higher else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        losses = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        bq, cq = quartiles(b), quartiles(c)
        spread = bq[2] - bq[0]
        rows.append({"name": name, "unit": m["unit"], "better": m["better"],
                     "base": bq, "change": cq, "base_spread": spread,
                     "wins": wins, "losses": losses, "pairs": len(b),
                     "holds": 10 * wins >= 9 * len(b) and sign * (cq[1] - bq[1]) > spread})
    return rows


def format_rows(rows: list, rev: str) -> str:
    """The rows of ``summarize`` as text, one block per metric."""
    out = []
    for r in rows:
        b, c = r["base"], r["change"]
        out.append(f"{r['name']} ({r['unit']}, {r['better']} is better)")
        out.append(f"  {rev}: median {b[1]:.6g}, quartiles {b[0]:.6g} .. {b[2]:.6g}, "
                   f"spread {r['base_spread']:.6g}")
        out.append(f"  this checkout: median {c[1]:.6g}, quartiles {c[0]:.6g} .. {c[2]:.6g}")
        out.append(f"  pairs won: {r['wins']} of {r['pairs']} (lost {r['losses']}); "
                   f"gain rule holds: {'yes' if r['holds'] else 'no'}")
    return "\n".join(out)


def count_metrics(per_layer: list) -> list:
    """The count-type entries of ``BENCHMARK.json``'s per-layer list (see
    the module docstring)."""
    return [m for m in per_layer if m["unit"] != "s" and not m["name"].startswith("trace.")]


def differing_counts(base: dict, change: dict, metrics: list) -> list:
    """(name, unit, base value, change value) for each of the count-type
    ``metrics`` whose value differs between the traced runs ``base`` and
    ``change``, each {metric name: value}, in the order of ``metrics``."""
    return [(m["name"], m["unit"], base[m["name"]], change[m["name"]])
            for m in count_metrics(metrics) if base[m["name"]] != change[m["name"]]]


def format_counts(rows: list, rev: str) -> str:
    """The rows of ``differing_counts`` as text, one line each."""
    if not rows:
        return f"every count-type per-layer metric is the same at {rev} and in this checkout"
    return "\n".join(f"{name} ({unit}): {rev} {b:.6g} -> this checkout {c:.6g}"
                     for name, unit, b, c in rows)


def _run_bench(tree: Path, args) -> dict:
    """One ``bench/run.py`` run in ``tree``: its metrics as {name: value}."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if args.trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: bench/run.py in {tree} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"bench_pairs: bench/run.py in {tree} reported wrong outputs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--workload", required=True, choices=("catalog", "search36", "oracle"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", action="store_true",
                    help="compare the count-type per-layer metrics of one traced pass")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        tree = Path(tmp) / "rev"
        tree.mkdir()
        archive = Path(tmp) / "rev.tar"
        subprocess.run(["git", "-C", str(ROOT), "archive", f"--output={archive}", args.rev],
                       check=True)
        subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], check=True)
        if args.trace:
            rows = differing_counts(_run_bench(tree, args), _run_bench(ROOT, args),
                                    spec["per_layer"])
            print(format_counts(rows, args.rev))
            return 0
        metrics = spec["end_to_end"]
        base, change = [], []
        for k in range(args.pairs):
            sides = [(tree, base), (ROOT, change)]
            for side_tree, runs in sides if k % 2 == 0 else sides[::-1]:
                runs.append(_run_bench(side_tree, args))
            print(f"pair {k + 1}: " + ", ".join(
                f"{m['name']} {base[-1][m['name']]:.6g} -> {change[-1][m['name']]:.6g}"
                for m in metrics), flush=True)
    print(format_rows(summarize(base, change, metrics), args.rev))
    return 0


if __name__ == "__main__":
    sys.exit(main())
