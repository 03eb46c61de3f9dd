"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that a deliberately corrupted output is counted as a failed op, so
that error_rate rises above 0, and that self and inclusive span times come
out right on a hand-built nested trace and on a live one.
"""

from __future__ import annotations

import sys
import tempfile
import time
import unittest
from array import array
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from child import check_outputs, run_pass  # noqa: E402
from spans import Tracer, aggregate  # noqa: E402


def error_rate(ops) -> float:
    outputs, _ = run_pass(ops)
    return len(check_outputs(ops, outputs)) / len(ops)


class CorruptedOutputs(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def cycles_op(self, name):
        ops = workloads.build("cycles", 0, Path(self.tmp.name))
        return next(op for op in ops if op.name == name)

    def test_clean_cli_output_passes(self):
        self.assertEqual(error_rate([self.cycles_op("compare-c7-n1-text")]), 0)

    def test_corrupted_cli_output_fails(self):
        op = self.cycles_op("compare-c7-n1-text")

        def corrupted():
            code, text, err = op.run()
            return code, text.replace("t1", "t2", 1), err

        self.assertEqual(error_rate([replace(op, run=corrupted)]), 1)

    def test_op_that_raises_fails(self):
        op = self.cycles_op("ass-c9-text")

        def broken():
            raise RuntimeError("refused")

        self.assertEqual(error_rate([op, replace(op, run=broken)]), 0.5)

    def test_wrong_classification_fails(self):
        op = workloads.build("sweep", 5, Path(self.tmp.name))[0]

        def flipped():
            cls, equal = op.run()
            return cls, [equal[0], not equal[1], *equal[2:]]

        self.assertEqual(error_rate([op]), 0)
        self.assertEqual(error_rate([replace(op, run=flipped)]), 1)

    def test_wrong_vertex_fails(self):
        ops = workloads.build("polyhedra", 5, Path(self.tmp.name))
        op = next(op for op in ops if op.name == "vertices-q7")

        def shifted():
            first, *rest = op.run()
            return (tuple(x + 1 for x in first), *rest)

        self.assertEqual(error_rate([replace(op, run=shifted)]), 1)


class SpanArithmetic(unittest.TestCase):
    def test_hand_built_trace(self):
        # a [0, 10] holds b [1, 4] (holding c [2, 3]) and b [5, 9] (holding a [6, 8]).
        names = ["a", "b", "c"]
        name_of = array("i", [0, 1, 2, 1, 0])
        parent = array("i", [-1, 0, 1, 0, 3])
        start = array("d", [0, 1, 2, 5, 6])
        end = array("d", [10, 4, 3, 9, 8])
        out = aggregate(names, name_of, parent, start, end)
        self.assertEqual(out["a"], {"calls": 2, "self_s": 3 + 2, "total_s": 10})
        self.assertEqual(out["b"], {"calls": 2, "self_s": 2 + 2, "total_s": 3 + 4})
        self.assertEqual(out["c"], {"calls": 1, "self_s": 1, "total_s": 1})

    def test_live_trace_self_times_sum_to_root(self):
        tracer = Tracer()

        def leaf():
            time.sleep(0.002)

        traced_leaf = tracer.span("leaf", leaf)

        def middle():
            time.sleep(0.001)
            traced_leaf()
            traced_leaf()

        traced_middle = tracer.span("middle", middle)

        def root():
            traced_middle()
            traced_leaf()

        tracer.span("root", root)()
        out = aggregate(tracer.names, tracer.name_of, tracer.parent, tracer.start, tracer.end)
        self.assertEqual([out[n]["calls"] for n in ("root", "middle", "leaf")], [1, 1, 3])
        total = sum(entry["self_s"] for entry in out.values())
        self.assertAlmostEqual(total, out["root"]["total_s"], places=9)
        self.assertGreaterEqual(out["leaf"]["self_s"], 0.006)
        self.assertLess(out["middle"]["self_s"], out["middle"]["total_s"] - 0.004)


if __name__ == "__main__":
    unittest.main()
