#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic.

    python3 repobench/test_repobench.py

The digest-stability test builds the measuring binary (as run.py
does) and runs it twice.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402


class TailPercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 500)
        self.assertEqual(metrics.tail_percentile(99), 500)
        self.assertEqual(metrics.tail_percentile(100), 900)
        self.assertEqual(metrics.tail_percentile(999), 900)
        self.assertEqual(metrics.tail_percentile(1000), 990)
        self.assertEqual(metrics.tail_percentile(10000), 999)

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(metrics.beyond(100, 900), 10)
        self.assertEqual(metrics.beyond(624, 900), 62)
        self.assertEqual(metrics.beyond(10000, 999), 10)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(metrics.percentile(values, 500), 50)
        self.assertEqual(metrics.percentile(values, 900), 90)
        self.assertEqual(metrics.percentile([7.0], 900), 7.0)


def span(name, parent, t0, t1, exec_id=1):
    return [name, exec_id, parent, t0, t1]


class SelfTime(unittest.TestCase):
    def test_nested_children_sum_to_the_root(self):
        spans = [span("row", -1, 0, 100), span("a", 0, 10, 50),
                 span("b", 1, 20, 30), span("c", 0, 60, 70)]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs, [50, 30, 10, 10])
        self.assertEqual(metrics.subtree_sums(spans, selfs)[0], 100)

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [span("row", -1, 0, 100), span("a", 0, 10, 40),
                 span("b", 0, 30, 60)]
        selfs = metrics.self_times(spans)
        # The parent loses the union [10, 60), not 30 + 30.
        self.assertEqual(selfs[0], 50)
        # The children's own durations double-count [30, 40), which
        # is exactly what the row-sum check detects.
        self.assertEqual(metrics.subtree_sums(spans, selfs)[0], 110)

    def test_child_outside_its_parent_is_clipped(self):
        spans = [span("row", -1, 0, 100), span("a", 0, 90, 120)]
        self.assertEqual(metrics.self_times(spans)[0], 90)

    def test_row_whose_self_times_miss_its_span_fails(self):
        nested = [span("row", -1, 0, 100), span("a", 0, 10, 50)]
        self.assertEqual(metrics.self_sum_failures({"spans": nested}),
                         {})
        overlapping = [span("row", -1, 0, 100, exec_id=7),
                       span("a", 0, 10, 40, exec_id=7),
                       span("b", 0, 30, 60, exec_id=7)]
        failures = metrics.self_sum_failures({"spans": overlapping})
        self.assertEqual(list(failures), [7])
        self.assertIn("10%", failures[7])


class SiblingDifferences(unittest.TestCase):
    def test_precon_row_minus_its_tc_only_sibling(self):
        gcc = ("gcc", "w1")
        costs = {
            (0, gcc + (256, 128, False)): 180.0,
            (0, gcc + (256, 0, False)): 55.0,
            # No (512, 0) row in pass 0: no difference.
            (0, gcc + (512, 512, False)): 200.0,
            # Same shape in another pass pairs only within that pass.
            (1, gcc + (256, 128, False)): 170.0,
            (1, gcc + (256, 0, False)): 60.0,
            (1, gcc + (512, 0, False)): 70.0,
        }
        self.assertEqual(
            metrics.sibling_diffs(costs, metrics.precon_sibling),
            [125.0, 110.0])

    def test_prep_row_minus_its_prep_off_sibling(self):
        go = ("go", "w2")
        costs = {
            (0, go + (256, 0, True)): 500.0,
            (0, go + (256, 0, False)): 400.0,
            (0, go + (128, 128, True)): 650.0,
            (0, go + (128, 128, False)): 600.0,
        }
        self.assertEqual(
            sorted(metrics.sibling_diffs(costs, metrics.prep_sibling)),
            [50.0, 100.0])
        # A prep row is a precon sibling only of a prep row.
        self.assertEqual(metrics.precon_sibling(go + (128, 128, True)),
                         go + (128, 0, True))

    def test_row_names_parse_into_sibling_keys(self):
        self.assertEqual(metrics.parse_row("gcc/w3/128TC+128PB+prep"),
                         ("gcc", "w3", 128, 128, True))
        self.assertEqual(metrics.parse_row("li/w9/1024TC"),
                         ("li", "w9", 1024, 0, False))


def fake_raw(digests, failure=""):
    return {
        "workload": "fast_grid",
        "sets": [{"set": 4, "rows": ["gcc/w5/64TC", "gcc/w5/128TC"]}],
        "passes": [{"set": 0, "traced": False, "wall_s": 1.0}],
        "execs": [{"pass": 0, "row": i, "exec": i + 1, "digest": d,
                   "failure": failure if i == 0 else ""}
                  for i, d in enumerate(digests)],
    }


class OutputCheck(unittest.TestCase):
    expected = {"sets": {"4": ["0000aaaa", "0000bbbb"]}}

    def test_matching_digests_pass(self):
        c = metrics.check_outputs(
            fake_raw(["123400000000aaaa", "ffff00000000bbbb"]),
            self.expected)
        self.assertEqual((c["attempted"], c["failed"]), (2, 0))

    def test_mismatch_and_row_failure_are_named(self):
        c = metrics.check_outputs(
            fake_raw(["000000000000aaab", "00000000000bbbb"],
                     failure=""), self.expected)
        self.assertEqual(c["failed"], 1)
        self.assertEqual(c["failures"][0][0], "gcc/w5/64TC")
        c = metrics.check_outputs(
            fake_raw(["00000000000aaaa", "00000000000bbbb"],
                     failure="diff: boom"), self.expected)
        self.assertEqual(c["failures"], [("gcc/w5/64TC", "diff: boom")])
        self.assertEqual(c["failed_frac"], 0.5)

    def test_failure_of_another_check_counts_once(self):
        raw = fake_raw(["000000000000aaab", "00000000000bbbb"])
        c = metrics.check_outputs(raw, self.expected,
                                  {1: "sum", 2: "sum"})
        self.assertEqual(c["failures"],
                         [("gcc/w5/64TC", "digest 0000aaab, expected "
                           "0000aaaa"), ("gcc/w5/128TC", "sum")])


class DigestStability(unittest.TestCase):
    def test_two_runs_give_the_expected_digests(self):
        binary = run.build()
        os.makedirs(os.path.join(run.ROOT, run.OUT_DIR), exist_ok=True)
        expected = run.load_expected("oracle_campaign")
        runs = []
        for i in range(2):
            out = os.path.join(run.ROOT, run.OUT_DIR,
                               "selftest-%d.json" % i)
            raw = run.run_binary(binary, "oracle_campaign", 7, 1, 0,
                                 out, setup_reps=1)
            os.remove(out)
            runs.append([e["digest"] for e in raw["execs"]])
            check = metrics.check_outputs(raw, expected)
            self.assertEqual(check["failed"], 0, check["failures"][:3])
        self.assertEqual(runs[0], runs[1])


if __name__ == "__main__":
    unittest.main()
