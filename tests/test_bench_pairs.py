import runpy
from pathlib import Path

import pytest

BENCH_PAIRS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"))
summarize, quartiles = BENCH_PAIRS["summarize"], BENCH_PAIRS["quartiles"]

METRICS = [{"name": "items_per_s", "unit": "items/s", "better": "higher"},
           {"name": "item_tail_s", "unit": "s", "better": "lower"},
           {"name": "ok_ratio", "unit": "ok/attempted", "better": "higher"}]


def _runs(**columns):
    names = list(columns)
    return [dict(zip(names, values)) for values in zip(*columns.values())]


def test_quartiles_interpolate_between_the_values():
    assert quartiles([4, 1, 3, 2, 5]) == (2, 3, 4)
    assert quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_holds_and_ties_count_for_neither():
    base = _runs(items_per_s=[240, 244, 250, 242, 241, 246, 243, 248, 245, 247],
                 item_tail_s=[0.011, 0.010, 0.011, 0.012, 0.011, 0.010, 0.011, 0.011, 0.010,
                              0.011],
                 ok_ratio=[1.0] * 10)
    change = _runs(items_per_s=[258, 259, 262, 257, 260, 263, 255, 261, 256, 247],
                   item_tail_s=[0.010, 0.010, 0.012, 0.010, 0.010, 0.010, 0.010, 0.010, 0.010,
                                0.010],
                   ok_ratio=[1.0] * 10)
    rows = {r["name"]: r for r in summarize(base, change, METRICS)}
    fast = rows["items_per_s"]
    # nine wins (the last pair is a tie), the medians 244.5 -> 258.5 apart
    # by 14, more than the base's spread 246.75 - 242.25 = 4.5
    assert (fast["wins"], fast["losses"], fast["pairs"]) == (9, 0, 10)
    assert fast["base"] == (242.25, 244.5, 246.75) and fast["base_spread"] == 4.5
    assert fast["change"][1] == 258.5 and fast["holds"]
    tail = rows["item_tail_s"]
    # lower is better: six wins, one loss (0.011 -> 0.012), three ties
    assert (tail["wins"], tail["losses"]) == (6, 1) and not tail["holds"]
    ok = rows["ok_ratio"]
    assert (ok["wins"], ok["losses"], ok["base_spread"]) == (0, 0, 0.0) and not ok["holds"]


def test_wins_without_a_gap_beyond_the_spread_do_not_hold():
    # ten wins, but the medians differ by 1 while the base spreads by 4.5
    base = _runs(items_per_s=[100, 104, 98, 103, 97, 105, 99, 102, 96, 101])
    change = _runs(items_per_s=[x + 1 for x in [100, 104, 98, 103, 97, 105, 99, 102, 96, 101]])
    (row,) = summarize(base, change, METRICS[:1])
    assert row["wins"] == 10 and row["base_spread"] == 4.5 and not row["holds"]


def test_eight_wins_in_ten_do_not_hold():
    base = _runs(items_per_s=[100] * 10)
    change = _runs(items_per_s=[120] * 8 + [90, 90])
    (row,) = summarize(base, change, METRICS[:1])
    assert (row["wins"], row["losses"]) == (8, 2) and not row["holds"]
    text = BENCH_PAIRS["format_rows"]([row], "HEAD~1")
    assert "pairs won: 8 of 10 (lost 2); gain rule holds: no" in text


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        summarize(_runs(items_per_s=[1, 2]), _runs(items_per_s=[1]), METRICS[:1])
    with pytest.raises(ValueError):
        summarize([], [], METRICS[:1])


PER_LAYER = [{"name": "groebner.normal_form.calls", "unit": "count", "better": "lower"},
             {"name": "groebner.normal_form.self_s", "unit": "s", "better": "lower"},
             {"name": "groebner.normal_form.terms_in", "unit": "terms", "better": "lower"},
             {"name": "groebner.normal_form.zero_ratio", "unit": "ratio", "better": "lower"},
             {"name": "fmodules.depth.calls", "unit": "count", "better": "lower"},
             {"name": "oracle.rref.madds", "unit": "madd_computed", "better": "lower"},
             {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"}]


def test_count_metrics_leave_out_times_and_the_tracer_overhead():
    names = [m["name"] for m in BENCH_PAIRS["count_metrics"](PER_LAYER)]
    assert names == ["groebner.normal_form.calls", "groebner.normal_form.terms_in",
                     "groebner.normal_form.zero_ratio", "fmodules.depth.calls",
                     "oracle.rref.madds"]


def test_differing_counts_name_each_moved_counter_in_spec_order():
    base = {"groebner.normal_form.calls": 1175, "groebner.normal_form.self_s": 0.0051,
            "groebner.normal_form.terms_in": 2392, "groebner.normal_form.zero_ratio": 0.4936,
            "fmodules.depth.calls": 25, "oracle.rref.madds": 0, "trace.overhead_ratio": 0.4}
    # every time differs, and of the counters only two calls and a ratio
    change = dict(base, **{"groebner.normal_form.calls": 1166,
                           "groebner.normal_form.self_s": 0.0049,
                           "groebner.normal_form.zero_ratio": 0.4974,
                           "fmodules.depth.calls": 24, "trace.overhead_ratio": 0.5})
    rows = BENCH_PAIRS["differing_counts"](base, change, PER_LAYER)
    assert rows == [("groebner.normal_form.calls", "count", 1175, 1166),
                    ("groebner.normal_form.zero_ratio", "ratio", 0.4936, 0.4974),
                    ("fmodules.depth.calls", "count", 25, 24)]
    text = BENCH_PAIRS["format_counts"](rows, "HEAD~1").splitlines()
    assert text[0] == "groebner.normal_form.calls (count): HEAD~1 1175 -> this checkout 1166"
    assert len(text) == 3
    assert BENCH_PAIRS["differing_counts"](base, dict(base), PER_LAYER) == []
    assert BENCH_PAIRS["format_counts"]([], "HEAD~1") == \
        "every count-type per-layer metric is the same at HEAD~1 and in this checkout"
