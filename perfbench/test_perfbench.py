"""Self-tests of the benchmark (about a minute).  From the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [
            Span("a.f", 0.0, 10.0, None, None),
            Span("b.g", 1.0, 4.0, 0, None),
            Span("c.h", 2.0, 3.0, 1, None),  # grandchild: only b.g loses it
            Span("b.g", 5.0, 6.0, 0, None),
        ]
        self.assertEqual(tracer.self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_cover_their_union(self):
        spans = [
            Span("a.f", 0.0, 10.0, None, None),
            Span("b.g", 1.0, 5.0, 0, None),
            Span("b.h", 3.0, 7.0, 0, None),
        ]
        self.assertEqual(tracer.self_times(spans)[0], 4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [Span("a.f", 0.0, 10.0, None, None), Span("b.g", 8.0, 12.0, 0, None)]
        self.assertEqual(tracer.self_times(spans)[0], 8.0)

    def test_module_summary(self):
        spans = [
            Span("p.outer", 0.0, 4.0, None, "Bad"),  # rejection raised in q.inner
            Span("q.inner", 1.0, 2.0, 0, "Bad"),
            Span("p.outer", 5.0, 9.0, None, None),
            Span("q.inner", 6.0, 7.0, 2, "Bad"),  # raised and caught inside the library
            Span("p.outer", 10.0, 11.0, None, "Other"),  # not a rejection
        ]
        summary = tracer.module_summary(spans, {"Bad"})
        self.assertEqual(summary["p"], {"self_s": 7.0, "calls": 3, "rejected": 0})
        self.assertEqual(summary["q"], {"self_s": 2.0, "calls": 2, "rejected": 1})


class TracedPassTest(unittest.TestCase):
    """A traced pass must give the same outputs as an untraced one."""

    def assert_same_outputs(self, name: str, inputs: dict) -> None:
        plain = workloads.run(name, inputs)
        before = {m: dict(vars(m)) for m in workloads.MODULES}
        trace = tracer.Tracer()
        trace.install(workloads.MODULES)
        try:
            traced = workloads.run(name, inputs)
        finally:
            trace.uninstall()
        self.assertEqual({m: dict(vars(m)) for m in workloads.MODULES}, before)
        self.assertTrue(trace.spans)
        self.assertEqual(workloads.output_digest(name, traced.outputs), workloads.output_digest(name, plain.outputs))
        _, problems = workloads.check(name, inputs, traced.outputs)
        self.assertEqual(problems, [])

    def test_atlas(self):
        self.assert_same_outputs("atlas", {"argv": ("atlas", "--max-rank", "3", "--max-length", "8", "--format", "tsv")})

    def test_stream(self):
        self.assert_same_outputs("stream", workloads.build("stream", 7))

    def test_catalog(self):
        self.assert_same_outputs("catalog", workloads.build("catalog", 7))


if __name__ == "__main__":
    unittest.main()
