"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402
from stats import tail_percentile  # noqa: E402


class TamperedReferenceTest(unittest.TestCase):
    """A reference that no longer matches the program's output counts as failed."""

    @classmethod
    def setUpClass(cls):
        cls.reference = wl.load_reference()
        cls.tmp = tempfile.TemporaryDirectory(dir=HERE)
        cls.workdir = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_changed_solve_dimension(self):
        ladder = wl.SolveLadder(0, self.workdir, self.reference)
        path = self.workdir / "rung.json"
        output = (wl.quiet_main(wl.solve_argv("wittz-9", ladder.a, path)), path.read_bytes())
        recorded = self.reference["solve"]["wittz-9"]
        ladder.expected = [recorded]
        self.assertEqual(ladder.check([output]), [True])
        ladder.expected = [dict(recorded, dimSolved=recorded["dimSolved"] + 1)]
        self.assertEqual(ladder.check([output]), [False])

    def test_flipped_verify_all_verdict(self):
        check = wl.VerifyAll(0, self.workdir, self.reference)
        verdicts = self.reference["verify_all"]["verdicts"]
        report = json.dumps(
            {"results": {"criteria": [{"passed": v} for v in verdicts]}}
        ).encode()
        self.assertEqual(check.check((1, report)), [True] * 10)
        check.expected = copy.deepcopy(self.reference["verify_all"])
        check.expected["verdicts"][5] = True  # criterion 6 green
        self.assertEqual(check.check((1, report)).count(False), 1)
        green = json.dumps({"results": {"criteria": [{"passed": True}] * 10}}).encode()
        self.assertEqual(check.check((0, green)).count(False), 10)

    def test_flipped_locality_verdict_and_bad_params(self):
        queries = wl.LocalityQueries(0, self.workdir, self.reference)
        indices = queries.blocks[0][:20]
        outputs = [(i, wl.run_query(queries.queries[i], queries.families)) for i in indices]
        self.assertEqual(queries.check(outputs), [True] * 20)
        queries.expected[indices[3]] = not queries.expected[indices[3]]
        self.assertEqual(queries.check(outputs).count(False), 1)
        queries.expected[indices[3]] = not queries.expected[indices[3]]
        feasible = next(n for n, (_, (ok, _)) in enumerate(outputs) if ok)
        params = dict(outputs[feasible][1][1])
        key = next(iter(params))
        params[key] += 1
        outputs[feasible] = (indices[feasible], (True, params))
        self.assertFalse(queries.check(outputs)[feasible])


class TailPercentileTest(unittest.TestCase):
    def test_p99_of_a_thousand(self):
        pct, value = tail_percentile(range(1000, 0, -1))
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 990)  # 991..1000 are the 10 samples beyond it

    def test_highest_percentile_with_ten_beyond(self):
        pct, value = tail_percentile(range(1, 88))
        self.assertEqual(value, 77)
        self.assertAlmostEqual(pct, 100 * 77 / 87)

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(tail_percentile([3, 1, 2] * 4), (100.0, 3))
        self.assertEqual(tail_percentile(range(20)), (100.0, 19))
        self.assertEqual(tail_percentile(range(21))[1], 10)


class CalibrationTest(unittest.TestCase):
    def test_intervals_lose_points_and_scale_by_their_neighbourhood(self):
        sampler = calibrate.Sampler()
        # points at 1, 3 and 5 s, each 0.5 s long, the middle one on a host
        # at half the reference speed
        sampler.starts, sampler.ends = [1.0, 3.0, 5.0], [1.5, 3.5, 5.5]
        sampler.cpus, sampler.scales = [0.5, 0.5, 0.5], [1.0, 0.5, 1.0]
        self.assertEqual(sampler.wall(2.0, 4.0), 1.5)
        self.assertEqual(sampler.cpu(2.0, 4.0, 1.2), 0.7)
        self.assertAlmostEqual(sampler.scale(2.0, 4.0), 2.5 / 3)  # 3 s and its neighbours
        self.assertAlmostEqual(sampler.scale(1.6, 1.9), 0.75)  # no point inside: the two neighbours
        self.assertEqual(sampler.scale(6.0, 7.0), 1.0)  # after the last point

    def test_end_to_end_takes_scaled_timings(self):
        from run import end_to_end

        timings = {"wall": 2.0, "cpu": 2.0, "p50": 0.1, "tail": 0.4}
        run = {
            "passes": [{"ops": 10, "raw": dict(timings, wall=4.0), "ref": timings}] * 3,
            "setups": [{"s": 0.5, "scale": 0.5, "top": {"raw": 2.0, "ref": 1.0}}] * 3,
            "peak_rss_mb": 1.0,
        }
        metrics = end_to_end(run)
        self.assertAlmostEqual(metrics["wall_s"]["value"], 2.0)
        self.assertAlmostEqual(metrics["ops_per_s"]["value"], 5.0)
        self.assertAlmostEqual(metrics["query_p99_ms"]["value"], 400.0)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.25)
        self.assertAlmostEqual(metrics["solve_top_s"]["value"], 1.0)
        raw = end_to_end(run, calibrated=False)
        self.assertAlmostEqual(raw["wall_s"]["value"], 4.0)
        self.assertAlmostEqual(raw["setup_s"]["value"], 0.5)
        self.assertAlmostEqual(raw["solve_top_s"]["value"], 2.0)

    def test_kernel_is_fixed_work(self):
        self.assertEqual(calibrate.kernel(), 36)  # full rank on its 50 x 36 rows

    def test_timer_takes_points(self):
        sampler = calibrate.Sampler()
        sampler.start()
        try:
            deadline = time.perf_counter() + 4 * calibrate.PERIOD_S
            while time.perf_counter() < deadline:
                pass
        finally:
            sampler.stop()
        self.assertGreaterEqual(len(sampler.scales), 2)
        self.assertEqual(sampler.starts, sorted(sampler.starts))


class SeedTest(unittest.TestCase):
    def test_seed_changes_locality_but_not_verify_all_inputs(self):
        reference = wl.load_reference()
        costs = reference["locality"]["costs"]
        self.assertNotEqual(wl.stream_blocks(1, costs), wl.stream_blocks(2, costs))
        self.assertEqual(wl.stream_blocks(7, costs), wl.stream_blocks(7, costs))
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            one = wl.VerifyAll(1, Path(tmp), reference)
            two = wl.VerifyAll(2, Path(tmp), reference)
        self.assertEqual(one.argv, two.argv)
        self.assertEqual(one.inputs, two.inputs)

    def test_blocks_split_the_pool_by_cost(self):
        costs = wl.load_reference()["locality"]["costs"]
        blocks = wl.stream_blocks(3, costs)
        self.assertEqual([len(b) for b in blocks], [wl.STREAM_SIZE] * wl.BLOCKS)
        self.assertEqual(sorted(i for b in blocks for i in b), list(range(wl.POOL_SIZE)))
        # every block takes one query of each stratum, so the slowest
        # BLOCKS * 10 queries are shared out evenly
        slowest = set(sorted(range(wl.POOL_SIZE), key=lambda i: (costs[i], i))[-wl.BLOCKS * 10 :])
        self.assertEqual([len(slowest.intersection(b)) for b in blocks], [10] * wl.BLOCKS)

    def test_seed_picks_the_wab_parameter(self):
        self.assertEqual({wl.ladder_a(s) for s in range(50)}, set(wl.A_VALUES))


if __name__ == "__main__":
    unittest.main()
