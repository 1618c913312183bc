"""Self-tests of the benchmark's own code (stats.py).

    python3 perfbench/selftest.py

run.py also runs them before every benchmark run; they take milliseconds.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def make_pass(digests, traced=False, errors=None):
    errors = errors or [""] * len(digests)
    return {"traced": traced,
            "ops": [{"digest": d, "error": e} for d, e in zip(digests, errors)]}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([5], 99), 5)
        self.assertEqual(stats.percentile(list(range(101)), 99), 99)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)

    def test_tail_needs_ten_samples_beyond(self):
        values = list(range(1000))
        value, used, n = stats.tail_percentile(values, 99)
        self.assertEqual((used, n), (99, 1000))
        self.assertAlmostEqual(value, 989.01)
        # 100 samples support p90 at most: exactly ten lie beyond it.
        _, used, n = stats.tail_percentile(list(range(100)), 99)
        self.assertEqual((used, n), (90, 100))
        self.assertEqual(stats.tail_percentile(list(range(10)), 99),
                         (None, None, 10))


class AccountingTest(unittest.TestCase):
    def reference(self, digests):
        return stats.pass_digest(make_pass(digests))

    def test_clean_run(self):
        passes = [make_pass(["a", "b"]), make_pass(["a", "b"], traced=True)]
        self.assertEqual(stats.account_ops(passes, self.reference(["a", "b"])),
                         (4, 0, []))

    def test_corrupted_digest_counts_as_failure(self):
        passes = [make_pass(["a", "b"]), make_pass(["a", "X"])]
        attempted, failed, problems = stats.account_ops(
            passes, self.reference(["a", "b"]))
        self.assertEqual((attempted, failed), (4, 1))
        self.assertIn("op 1", problems[0])

    def test_corrupted_reference_fails_every_operation(self):
        passes = [make_pass(["a", "b"]), make_pass(["a", "b"])]
        _, failed, problems = stats.account_ops(
            passes, self.reference(["a", "corrupt"]))
        self.assertEqual(failed, 4)
        self.assertIn("reference", problems[0])

    def test_pass_digest_depends_on_order(self):
        self.assertNotEqual(self.reference(["a", "b"]),
                            self.reference(["b", "a"]))

    def test_errors_fail_without_reference(self):
        passes = [make_pass(["a", "b"], errors=["", "run timed out"])]
        self.assertEqual(stats.account_ops(passes, None)[:2], (2, 1))

    def test_traced_output_must_match_untraced(self):
        passes = [make_pass(["a"]), make_pass(["z"], traced=True)]
        attempted, failed, problems = stats.account_ops(passes, None)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("traced", problems[0])


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        import run
        path = run.ROOT / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in spec[key]],
                             table)


def run_quietly():
    """True when every self-test passes; failures go to stderr."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
