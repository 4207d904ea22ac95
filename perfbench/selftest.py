"""Self-test of the benchmark: run ``python3 perfbench/selftest.py`` from the
root of a checkout.

It checks that the operation lists depend on the seed alone, that the
reference closed forms agree with the reference counter, that every check
rejects a corrupted answer, and that a short run, plain and traced, yields
every metric.
"""

from __future__ import annotations

import contextlib
import io
import sys
import unittest

import reference as ref
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


def _sample(ops, per_kind=2):
    """A few operations of every kind, in list order."""
    seen, out = {}, []
    for op in ops:
        if seen.get(op.kind, 0) < per_kind:
            seen[op.kind] = seen.get(op.kind, 0) + 1
            out.append(op)
    return out


def _corrupt(out):
    """A wrong answer close to the right one."""
    if not out:
        return "1\n"
    lines = out.splitlines(keepends=True)
    if len(lines) > 4:
        return "".join(lines[:-1])
    if len(lines) == 2:
        return lines[1] + lines[0]
    for a, b in (("<", ">"), (">", "<"), ("||", "<"), ("=", "<"), ("yes", "no"), ("D", "R")):
        if a in out:
            return out.replace(a, b, 1)
    digits = [i for i, c in enumerate(out) if c.isdigit()]
    if digits:
        i = digits[-1]
        return out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:]
    return out + "x1\n"


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for name, make in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(workloads.digest(make(5)), workloads.digest(make(5)))
                self.assertNotEqual(workloads.digest(make(5)), workloads.digest(make(6)))

    def test_same_work_for_every_seed(self):
        for name, make in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(sorted(op.kind for op in make(1)), sorted(op.kind for op in make(2)))


class ReferenceTest(unittest.TestCase):
    def test_closed_forms_match_the_counter(self):
        for d in range(0, 6):
            self.assertEqual(ref.staircase_poly(d), ref.RefPoset("D", 2, d).filter_poly())
            self.assertEqual(sum(ref.staircase_poly(d)), ref.catalan(d + 2))
            self.assertEqual(ref.four_var_poly(d), ref.RefPoset("A", 4, d).filter_poly())
        for d in range(1, 8):
            self.assertEqual(ref.distinct_parts_poly(d), ref.RefPoset("C", 3, d).filter_poly())
            self.assertEqual(sum(ref.distinct_parts_poly(d)), 2 ** (d + 1))
            catalan_sum = sum(ref.catalan(i) for i in range(d + 2))
            self.assertEqual(sum(ref.RefPoset("B", 3, d).filter_poly()), catalan_sum)

    def test_fountain_series_prefix(self):
        self.assertEqual(ref.fountain_series(8), [1, 1, 1, 2, 3, 5, 9, 15, 26])


class CheckerTest(unittest.TestCase):
    def test_checks_accept_the_program_and_reject_corruption(self):
        cli = run.fresh_cli()
        for name, make in workloads.WORKLOADS.items():
            for op in _sample(make(3)):
                if op.kind == "verify":
                    continue
                code, out, escaped, _ = run.call(cli, op.argv)
                if escaped is not None or code != op.code:
                    continue  # a known failure of the program, counted by the run
                with self.subTest(workload=name, argv=op.argv):
                    self.assertIsNone(op.check(out))
                    self.assertIsNotNone(op.check(_corrupt(out)))


class SmokeTest(unittest.TestCase):
    def test_short_runs_report_every_metric(self):
        for name, make in workloads.WORKLOADS.items():
            ops = [op for op in _sample(make(4), per_kind=1) if op.kind != "verify"]
            with self.subTest(workload=name), contextlib.redirect_stdout(io.StringIO()):
                passes = run.run_passes(ops, 0)
                metrics = run.end_to_end(ops, passes, 0.01)
                self.assertEqual(set(metrics), {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                                                "peak_rss_mb", "fail_frac"})
                self.assertFalse(any(p.wrong for p, _ in passes))
                again = run.run_passes(ops, 0)
                self.assertEqual(passes[0][0].digest.hexdigest(), again[0][0].digest.hexdigest())
                traced, _ = run.per_layer(ops, 0)
                self.assertEqual(list(traced), [m for m, _ in tracing.METRICS])


if __name__ == "__main__":
    unittest.main()
