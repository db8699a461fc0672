#!/usr/bin/env python3
"""scripts/perf_ab.py's decision rule on made-up run records.

Nothing is built and perfbench does not run: each case hands `decide`
records shaped like perfbench's JSON lines, with BENCHMARK.json's own
end-to-end metrics. Registered as the `perf_ab_rule` ctest.
"""

import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
sys.dont_write_bytecode = True  # no __pycache__ in the source tree
import perf_ab  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
WORKLOADS = ("malec_synth", "baseline_replay", "fig4a_sweep")
NOMINAL = {"setup_s": 0.002, "wall_norm_s": 0.36, "mips_norm": 2.5,
           "cpu_norm_s": 0.35, "peak_rss_mb": 15.5}


def record(workload, pair, tree, values, correct=True, failed=0, rc=0):
    return {"workload": workload, "pair": pair, "tree": tree, "rc": rc,
            "result": {"correct": correct, "attempted": 35, "failed": failed,
                       "metrics": {n: {"value": v, "unit": "-"}
                                   for n, v in values.items()}}}


def noisy(pair, tree):
    """NOMINAL with up to ±3% of per-run noise."""
    jitter = 1 + 0.01 * ((3 * pair + (tree == "head")) % 7 - 3)
    return {n: v * jitter for n, v in NOMINAL.items()}


def runs(slow=None, metric=None, factor=1.0, pairs=range(perf_ab.PAIRS)):
    """Records of every workload; the head's `metric` on workload `slow` is
    scaled by `factor` in `pairs`."""
    out = []
    for w in WORKLOADS:
        for k in range(perf_ab.PAIRS):
            for tree in ("base", "head"):
                values = noisy(k, tree)
                if tree == "head" and w == slow and k in pairs:
                    values[metric] = NOMINAL[metric] * factor
                out.append(record(w, k, tree, values))
    return out


class DecideTest(unittest.TestCase):
    def assertFailsNaming(self, records, *words):
        _, failures = perf_ab.decide(records, END_TO_END)
        self.assertEqual(len(failures), 1, failures)
        for word in words:
            self.assertIn(word, failures[0])

    def assertPasses(self, records):
        rows, failures = perf_ab.decide(records, END_TO_END)
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), len(WORKLOADS) * len(END_TO_END))

    def test_a_a_passes(self):
        self.assertPasses(runs())

    def test_higher_is_better_metric_25_percent_lower_fails(self):
        self.assertFailsNaming(runs("malec_synth", "mips_norm", 0.75),
                               "malec_synth", "mips_norm", "10/10")

    def test_lower_is_better_metric_25_percent_higher_fails(self):
        self.assertFailsNaming(runs("fig4a_sweep", "wall_norm_s", 1.25),
                               "fig4a_sweep", "wall_norm_s", "10/10")

    def test_25_percent_worse_in_4_of_10_pairs_passes(self):
        self.assertPasses(runs("malec_synth", "mips_norm", 0.75,
                               pairs=(0, 3, 6, 9)))

    def test_median_25_percent_worse_with_half_the_pairs_lost_passes(self):
        # Every odd pair at half speed, the even pairs tied: the median pair
        # ratio is 0.75, but the head loses only 5 of 10 pairs.
        slow = dict(NOMINAL, mips_norm=NOMINAL["mips_norm"] / 2)
        self.assertPasses(
            [record(w, k, tree, slow if tree == "head" and k % 2 else NOMINAL)
             for w in WORKLOADS for k in range(perf_ab.PAIRS)
             for tree in ("base", "head")])

    def test_15_percent_worse_in_every_pair_passes(self):
        self.assertPasses(runs("malec_synth", "mips_norm", 0.85))
        self.assertPasses(runs("baseline_replay", "cpu_norm_s", 1.15))

    def test_one_failed_run_fails(self):
        for bad in ({"correct": False}, {"failed": 1}, {"rc": 1}):
            records = runs()
            records[7] = record("malec_synth", 3, "head", noisy(3, "head"),
                                **bad)
            self.assertFailsNaming(records, "malec_synth pair 3 head")


if __name__ == "__main__":
    unittest.main()
