"""Self-tests of the benchmark harness.

    python3 bench/selftest.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import entroprec
import entroprec.cli

import metrics
from spans import LAYERS, METHODS, SpanRecorder, instrument, self_times

# root [0, 10] with children a [1, 4] and b [3, 9] (overlapping: together they
# cover [1, 9]); a has child c [2, 3]; d [11, 12] is a second root.
TREE = [
    ["x.root", 0.0, 10.0, -1],
    ["x.a", 1.0, 4.0, 0],
    ["y.c", 2.0, 3.0, 1],
    ["x.b", 3.0, 9.0, 0],
    ["y.d", 11.0, 12.0, -1],
]


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        self.assertEqual(self_times(TREE), [2.0, 2.0, 1.0, 6.0, 1.0])

    def test_totals_by_name_and_layer(self):
        totals = metrics.SpanTotals(TREE)
        self.assertEqual(totals.calls["x.a"], 1)
        self.assertEqual(totals.total["x.root"], 10.0)
        self.assertEqual(totals.layer_self, {"x": 10.0, "y": 2.0})
        self.assertEqual(totals.outer_total({"x.root", "x.a"}), 10.0)
        self.assertEqual(totals.outer_total({"x.a", "y.c", "x.b"}), 9.0)


class TailRuleTest(unittest.TestCase):
    def test_ten_samples_beyond_p90(self):
        self.assertEqual(metrics.tail_count(range(100), 90), 10)
        self.assertTrue(metrics.enough_samples(list(range(100))))
        self.assertFalse(metrics.enough_samples(list(range(50))))

    def test_ties_do_not_count_as_beyond(self):
        self.assertFalse(metrics.enough_samples([1.0] * 500))


def _snapshot():
    modules = [entroprec] + [getattr(entroprec, layer) for layer in LAYERS]
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for layer, cls, method in METHODS:
        state[(layer, cls, method)] = vars(getattr(getattr(entroprec, layer), cls))[method]
    return state


class RestoreTest(unittest.TestCase):
    def test_instrument_traces_then_restores(self):
        before = _snapshot()
        recorder = SpanRecorder()
        with instrument(recorder, entroprec):
            original = before[("entroprec.experiments", "build_channel")]
            self.assertIsNot(entroprec.experiments.build_channel, original)
            entroprec.experiments.build_channel(entroprec.experiments.preset("fig3"))
        names = [span[0] for span in recorder.spans]
        self.assertIn("experiments.build_channel", names)
        self.assertIn("channels.ms_gate", names)
        self.assertEqual(_snapshot(), before)

    def test_restores_after_an_error(self):
        before = _snapshot()
        with self.assertRaises(ZeroDivisionError):
            with instrument(SpanRecorder(), entroprec):
                1 / 0
        self.assertEqual(_snapshot(), before)


if __name__ == "__main__":
    unittest.main()
