"""Two traced runs on one seed give identical exact per-layer counters.

    python3 -m pytest bench/tests -q

Each case runs the benchmark command twice with ``--trace 1`` (about a
minute per workload on a 2-core machine).  Self times and the trace overhead
are wall-clock figures and are not compared; every count, size and ratio is.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXACT_SUFFIXES = (".calls", ".terms_in", ".zero_ratio", ".basis_out", ".active_out",
                  ".collected_out", ".kept_ratio", ".steps", ".madds", ".bytes")


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["catalog", "search36", "oracle"])
def test_exact_counters_repeat(workload):
    first, second = traced_run(workload, 2), traced_run(workload, 2)
    exact = sorted(n for n in first if n.endswith(EXACT_SUFFIXES))
    assert len(exact) == 27
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}

    groebner_side = [n for n in exact if n.startswith(("groebner.", "resolutions.", "homology."))]
    dense_side = [n for n in exact if n.startswith(("oracle.", "linalg."))]
    if workload == "oracle":
        assert all(first[n] == 0 for n in groebner_side)
        assert first["oracle.rref.calls"] > 0
    else:
        assert all(first[n] == 0 for n in dense_side)
        assert first["groebner.tracked_buchberger.calls"] > 0
