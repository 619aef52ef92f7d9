"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests

The output-check test builds the benchmark binary (as perfbench/run.py does)
and runs the seconds-scale `tiny` workload.
"""

import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib  # noqa: E402
import run  # noqa: E402


class TailTest(unittest.TestCase):
    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_percentile(5), 50.0)
        self.assertEqual(benchlib.tail_percentile(39), 50.0)
        self.assertEqual(benchlib.tail_percentile(40), 75.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(199), 90.0)
        self.assertEqual(benchlib.tail_percentile(200), 95.0)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)

    def test_tail_is_exact_from_samples(self):
        samples = list(range(1, 101))  # 1..100 ms, shuffled order is fine
        samples.reverse()
        p, value = benchlib.tail(samples)
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(value, 90.1)
        # A bucketed histogram would report a bucket edge here; the exact
        # percentile moves with every sample.
        self.assertAlmostEqual(benchlib.tail(samples + [1000.0])[1], 91.0)

    def test_few_samples_fall_back_to_the_median(self):
        self.assertEqual(benchlib.tail([3.0, 1.0, 2.0]), (50.0, 2.0))


def rung(rate, latency_ms, errors=None, scheduled=None, drain_s=0.01,
         drained=1, limit_ms=500.0):
    n = len(latency_ms)
    return {"rate": rate, "latency_ms": latency_ms,
            "error": errors or [""] * n,
            "scheduled": n if scheduled is None else scheduled,
            "drain_s": drain_s, "drained": drained, "limit_ms": limit_ms,
            "seconds": n / rate + drain_s}


class LadderTest(unittest.TestCase):
    def test_rung_rule(self):
        fast = [10.0] * 100
        self.assertTrue(benchlib.rung_passes(rung(100, fast)))
        # Tail over the limit.
        self.assertFalse(benchlib.rung_passes(rung(100, [10.0] * 80 +
                                                   [900.0] * 20)))
        # A refused (Overloaded) or unanswered request fails the rung.
        self.assertFalse(benchlib.rung_passes(
            rung(100, fast, errors=["overloaded"] + [""] * 99)))
        self.assertFalse(benchlib.rung_passes(rung(100, fast, scheduled=101)))
        # Growing backlog: what was outstanding at the last due time took
        # longer than the limit to drain, even though the tail is fine.
        self.assertFalse(benchlib.rung_passes(rung(100, fast, drain_s=0.8)))
        self.assertFalse(benchlib.rung_passes(rung(100, fast, drained=0)))

    def test_max_rate_is_the_fastest_passing_rung(self):
        rungs = [rung(40, [10.0] * 100), rung(80, [10.0] * 100),
                 rung(160, [10.0] * 100, drain_s=2.0),
                 rung(120, [10.0] * 80 + [900.0] * 20)]
        # 160/s did not drain in time and 120/s missed the tail limit, so
        # the answer is the 80/s rung's completion rate, not its offer.
        self.assertAlmostEqual(benchlib.max_rate(rungs),
                               100 / rungs[1]["seconds"])
        self.assertLess(benchlib.max_rate(rungs), 80)
        self.assertIsNone(benchlib.max_rate([rung(40, [900.0] * 100)]))


class RssIsolationTest(unittest.TestCase):
    ALLOC = ("import sys; b = b'x' * (%d << 20); "
             "sys.stdout.write(str(len(b)))")

    def test_each_process_reports_its_own_peak(self):
        _, big = benchlib.run_child([sys.executable, "-c", self.ALLOC % 300])
        _, small = benchlib.run_child([sys.executable, "-c", self.ALLOC % 1])
        self.assertGreater(big, 300)
        # RUSAGE_CHILDREN would still say 300+ MB here.
        self.assertLess(small, 100)
        _, big_again = benchlib.run_child([sys.executable, "-c",
                                           self.ALLOC % 200])
        self.assertGreater(big_again, 200)
        self.assertLess(big_again, big)

    def test_failing_child_raises(self):
        with self.assertRaises(RuntimeError):
            benchlib.run_child([sys.executable, "-c", "raise SystemExit(3)"])


class OutputCheckTest(unittest.TestCase):
    def test_check_counts_mismatching_runs(self):
        oracle = {"exec": "batch", "state_hash": "a", "krep_hash": "k"}
        ok = {"state_hash": ["a", "a"], "krep_hash": ["k", "k"]}
        self.assertEqual(benchlib.check_pipeline(ok, oracle)[:2], (2, 0))
        bad = {"state_hash": ["a", "b"], "krep_hash": ["k", "k"]}
        self.assertEqual(benchlib.check_pipeline(bad, oracle)[:2], (2, 1))

    def test_one_byte_change_in_a_state_csv_is_caught(self):
        out = run.build_dir()
        out.mkdir(parents=True, exist_ok=True)
        exe = str(run.build(out))
        work = out / "tests" / str(os.getpid())
        work.mkdir(parents=True)
        try:
            common = ["--workload", "tiny", "--dir", str(work)]
            benchlib.run_child([exe, "gen", "--seed", "5"] + common)
            csv = work / "state.csv"
            oracle = benchlib.last_json(benchlib.run_child(
                [exe, "oracle", "--state-out", str(csv)] + common)[0])

            def file_hash():
                return benchlib.last_json(benchlib.run_child(
                    [exe, "hash", "--file", str(csv)])[0])["hash"]

            # The written CSV is exactly what the oracle hashed in memory.
            self.assertEqual(file_hash(), oracle["state_hash"])
            data = bytearray(csv.read_bytes())
            data[len(data) // 2] ^= 0x01
            csv.write_bytes(bytes(data))
            measured = {"state_hash": [file_hash()],
                        "krep_hash": [oracle["krep_hash"]]}
            attempted, failed, messages = benchlib.check_pipeline(measured,
                                                                  oracle)
            self.assertEqual((attempted, failed), (1, 1))
            self.assertIn("run 0", messages[0])
        finally:
            shutil.rmtree(work, ignore_errors=True)


class CommandLineTest(unittest.TestCase):
    def test_unknown_workload_is_a_usage_error(self):
        proc = subprocess.run([sys.executable, str(HERE.parent / "run.py"),
                               "--workload", "nope", "--seed", "1"],
                              capture_output=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
