#!/usr/bin/env python3
"""Unit tests for tools/ab.py's arithmetic.

Self-hosting like test_perf_gate.py: `python3 tools/test_ab.py` runs
every test_* function and exits non-zero if any fails; ctest runs it
(see tools/CMakeLists.txt).
"""

import json
import os
import sys
import tempfile
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ab import (metric_specs, pair_order, parse_result,  # noqa: E402
                quartiles, verdict, wins)


# --- order statistics --------------------------------------------

def test_quartiles_odd_count():
    assert quartiles([5, 1, 3, 2, 4]) == (2, 3, 4)


def test_quartiles_interpolate_even_count():
    q1, med, q3 = quartiles([1, 2, 3, 4])
    assert (q1, med, q3) == (1.75, 2.5, 3.25)


def test_quartiles_single_run():
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


# --- pair bookkeeping ---------------------------------------------

def test_pairs_alternate_which_side_runs_first():
    assert pair_order(0) == ("parent", "change")
    assert pair_order(1) == ("change", "parent")
    assert pair_order(8) == ("parent", "change")


def test_wins_follow_the_metric_direction():
    parent = [10, 10, 10]
    change = [11, 9, 12]
    assert wins(parent, change, "higher") == 2
    assert wins(parent, change, "lower") == 1


def test_ties_count_for_neither_side():
    assert wins([1, 2, 3], [1, 2, 4], "higher") == 1
    assert wins([1, 2, 3], [1, 2, 3], "lower") == 0


# --- verdicts -----------------------------------------------------

PARENT = [8.5, 8.6, 8.7, 8.4, 8.6, 8.5, 8.8, 8.6, 8.5, 8.7]


def test_gain_needs_nine_of_ten_and_more_than_the_iqr():
    change = [x * 1.2 for x in PARENT]
    assert verdict(PARENT, change, "higher", 0.25) == "GAIN"


def test_eight_wins_of_ten_is_not_a_gain():
    change = [x * 1.2 for x in PARENT]
    change[0] = change[1] = 1.0  # two lost pairs
    assert verdict(PARENT, change, "higher", 0.25) != "GAIN"


def test_median_gap_within_the_iqr_is_not_a_gain():
    # Every pair won by a hair: 10/10 wins but the medians differ by
    # less than the parent's interquartile range.
    change = [x + 0.01 for x in PARENT]
    q1, _, q3 = quartiles(PARENT)
    assert q3 - q1 > 0.01
    assert verdict(PARENT, change, "higher", 0.25) == "no change"


def test_gain_for_a_lower_is_better_metric():
    parent = [60, 62, 61, 63, 64, 60, 62, 61, 63, 62]
    change = [x * 0.7 for x in parent]
    assert verdict(parent, change, "lower", 0.25) == "GAIN"


def test_regression_beyond_the_bound():
    change = [x * 0.7 for x in PARENT]
    assert verdict(PARENT, change, "higher", 0.25) == "REGRESSION"


def test_worse_within_the_bound_is_no_change():
    change = [x * 0.9 for x in PARENT]
    assert verdict(PARENT, change, "higher", 0.25) == "no change"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [10, 20, 30, 40, 50]
    change = [15, 25, 35, 45, 55]
    assert verdict(parent, change, "lower", 0.25) == "UNRESOLVED"


def test_wide_spread_but_separated_runs_resolve():
    parent = [100, 200, 300, 400, 500]
    change = [50, 60, 70, 80, 90]
    assert verdict(parent, change, "lower", 0.25) == "GAIN"
    # Separated, but the median gap is inside the parent's IQR.
    parent = [100, 200, 900, 901, 902]
    change = [903, 904, 905, 906, 907]
    assert verdict(parent, change, "higher", 0.25) == "no change"


def test_per_layer_metrics_can_lose():
    parent = [100.0] * 10
    change = [130.0] * 10
    assert verdict(parent, change, "lower") == "LOSS"
    assert verdict(change, parent, "lower") == "GAIN"
    assert verdict(parent, parent, "lower") == "no change"


# --- inputs ---------------------------------------------------------

def test_parse_result_reads_the_last_line():
    out = "building...\nmips 9.1\n" + json.dumps(
        {"correct": True, "attempted": 4, "failed": 0,
         "metrics": {"mips": {"value": 9.1, "unit": "MIPS"}}}) + "\n"
    result = parse_result(out)
    assert result["metrics"]["mips"]["value"] == 9.1


def test_parse_result_rejects_a_truncated_result():
    try:
        parse_result('{"correct": true}\n')
    except ValueError:
        return
    raise AssertionError("missing keys accepted")


def test_metric_specs_read_direction_and_bound():
    with tempfile.TemporaryDirectory() as tree:
        with open(os.path.join(tree, "BENCHMARK.json"), "w") as f:
            json.dump({"end_to_end": [{"name": "mips",
                                       "better": "higher",
                                       "bound": 0.25}],
                       "per_layer": [{"name": "x.ns",
                                      "better": "lower"}]}, f)
        specs = metric_specs(tree)
    assert specs == {"mips": ("higher", 0.25), "x.ns": ("lower", None)}


def _run_all():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed}/{len(tests)} ab tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_run_all())
