"""Tests for the verdict rules of compare.py: python3 -m unittest discover perfbench"""

import unittest

from compare import canary_mismatches, spread, verdict, wins


class VerdictTest(unittest.TestCase):
    def test_ties_win_nothing_and_are_no_worse(self):
        runs = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
        self.assertEqual(wins(runs, runs, "lower"), 0)
        self.assertEqual(verdict(runs, runs, "lower", 0.1), "no worse")

    def test_nine_of_ten_wins_beyond_the_spread_improve(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
        change = [p - 1.0 for p in parent]
        change[0] = parent[0]  # one tie: still 9 of 10
        self.assertEqual(verdict(parent, change, "lower", 0.1), "improved")
        # The same numbers read as throughput are a regression.
        self.assertEqual(verdict(parent, change, "higher", 0.05), "worse")

    def test_eight_of_ten_wins_do_not_improve(self):
        parent = [10.0] * 10
        change = [9.0] * 8 + [10.5, 10.5]
        self.assertEqual(wins(parent, change, "lower"), 8)
        self.assertEqual(verdict(parent, change, "lower", 0.1), "no worse")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [p * 1.02 for p in parent]
        self.assertGreater(spread(parent), 0.1)
        self.assertEqual(verdict(parent, change, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_change_run_better_is_resolved(self):
        parent = [20.0, 30.0, 22.0, 28.0, 25.0, 21.0, 29.0, 24.0, 26.0, 25.0]
        change = [10.0, 19.0, 11.0, 18.0, 15.0, 12.0, 19.5, 14.0, 16.0, 13.0]
        # Every change run beats every parent run, though the pairs are
        # shuffled so only some pairwise wins exceed the parent's spread.
        self.assertLess(max(change), min(parent))
        self.assertNotEqual(verdict(parent, change, "lower", 0.05), "unresolved")

    def test_worse_by_more_than_the_bound(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
        self.assertEqual(verdict(parent, [p * 1.2 for p in parent], "lower", 0.1), "worse")
        self.assertEqual(verdict(parent, [p * 1.05 for p in parent], "lower", 0.1), "no worse")



def record(side, seed, femtos):
    metrics = {"sim.femtos_per_req": {"value": femtos, "unit": "fs"}}
    return {"side": side, "workload": "w", "seed": seed, "pair": seed,
            "result": {"attempted": 1, "failed": 0, "metrics": metrics}}


class CanaryTest(unittest.TestCase):
    def test_canary_flags_only_differing_counts_at_one_seed(self):
        runs = [record("parent", 1, 5.0), record("change", 1, 5.0),
                record("parent", 2, 7.0), record("change", 2, 8.0)]
        self.assertEqual(canary_mismatches(runs), [("w", 2, "sim.femtos_per_req")])


if __name__ == "__main__":
    unittest.main()
