#!/usr/bin/env python3
"""Contract test for tools/bench_gate.py's decision on synthetic results.

    python3 tests/tools/bench_gate_test.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
import bench_gate  # noqa: E402

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "accesses_per_s", "better": "higher", "bound": 0.25},
    {"name": "pass_frac", "better": "higher", "bound": 0.001},
]


def line(wall=1.0, rate=1000.0, frac=1.0, correct=True, failed=0,
         drop=None):
    """One result line as perfbench/run.py prints it."""
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "accesses_per_s": {"value": rate, "unit": "1/s"},
               "pass_frac": {"value": frac, "unit": "frac"}}
    metrics.pop(drop, None)
    return json.dumps({"correct": correct, "attempted": 4,
                       "failed": failed, "metrics": metrics})


def failures(base_lines, head_lines):
    # run.py's stdout ends in the result line; earlier lines are noise.
    def parse(lines):
        return [bench_gate.parse_result("log\n" + x) for x in lines]
    verdicts = bench_gate.decide(END_TO_END, parse(base_lines),
                                 parse(head_lines))
    return [msg for ok, msg in verdicts if not ok]


class Decide(unittest.TestCase):
    def test_clean_pass(self):
        runs = [line(), line(), line()]
        self.assertEqual(failures(runs, runs), [])

    def test_jitter_inside_bound(self):
        base = [line(wall=1.0, rate=1000), line(wall=1.1, rate=950),
                line(wall=0.9, rate=1050)]
        head = [line(wall=1.2, rate=820), line(wall=0.8, rate=1100),
                line(wall=1.15, rate=800)]
        self.assertEqual(failures(base, head), [])

    def test_lower_is_better_regression(self):
        base = [line(wall=1.0)] * 3
        head = [line(wall=1.3), line(wall=1.26), line(wall=1.0)]
        got = failures(base, head)
        self.assertEqual(len(got), 1)
        self.assertTrue(got[0].startswith("wall_s:"), got)

    def test_higher_is_better_regression(self):
        base = [line(rate=1000)] * 3
        head = [line(rate=740)] * 3
        got = failures(base, head)
        self.assertEqual(len(got), 1)
        self.assertTrue(got[0].startswith("accesses_per_s:"), got)

    def test_improvement_beyond_bound_passes(self):
        base = [line(wall=1.0, rate=1000)] * 3
        head = [line(wall=0.5, rate=2000)] * 3
        self.assertEqual(failures(base, head), [])

    def test_failed_increase(self):
        base = [line()] * 3
        head = [line(), line(failed=1), line()]
        got = failures(base, head)
        self.assertEqual(len(got), 1)
        self.assertTrue(got[0].startswith("failed:"), got)

    def test_correct_false_on_either_side(self):
        good, bad = [line()] * 3, [line(), line(correct=False), line()]
        self.assertTrue(failures(bad, good))
        self.assertTrue(failures(good, bad))

    def test_missing_result_line(self):
        self.assertTrue(failures([line()] * 3, [line(), "", line()]))

    def test_metric_missing_from_one_side(self):
        full = [line()] * 3
        short = [line(drop="accesses_per_s")] * 3
        for base, head in ((full, short), (short, full)):
            got = failures(base, head)
            self.assertEqual(len(got), 1)
            self.assertIn("accesses_per_s: missing", got[0])


if __name__ == "__main__":
    unittest.main()
