"""Self-checks of the benchmark's own machinery.

    python3 perfbench/selfcheck.py

Covers wrapper installation (every ``from ... import`` call site is
traced), the self-time arithmetic of nested spans, the per-op self-time
sum, the failure counting behind ``error_rate``, and the reference answers
of :mod:`oracles` against the library.
"""

import json
import random
import shutil
import unittest

import checks
import oracles
import spans
import workloads
from worker import ROOT, load_library, run_op, trace_summary

gc = load_library()
from graphconvex import cli, convexity, lattice, theorems  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selfcheck"


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def square_and_function():
    g = gc.Graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    return g, {0: 0, 1: 1, 2: 2, 3: 1}


class InstallTest(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        original = convexity.is_convex_at
        tracer = spans.Tracer()
        patched, uninstall = spans.install(tracer)
        try:
            wrapped = convexity.is_convex_at
            self.assertIsNot(wrapped, original)
            for mod in (theorems, cli, gc):
                self.assertIs(mod.is_convex_at, wrapped)
            self.assertIs(cli.is_midpoint_convex_at, lattice.is_midpoint_convex_at)
            self.assertIs(theorems.is_midpoint_convex_at, lattice.is_midpoint_convex_at)
            self.assertIn(("graphconvex.theorems", "is_convex_at"), patched)
            self.assertIn(("graphconvex.cli", "convex_hull"), patched)
        finally:
            uninstall()
        for mod in (convexity, theorems, cli, gc):
            self.assertIs(mod.is_convex_at, original)

    def test_calls_through_theorems_are_traced(self):
        g, f = square_and_function()
        tracer = spans.Tracer()
        _, uninstall = spans.install(tracer)
        try:
            theorems.verify_pointwise_implication(g, f, "triangle_free")
        finally:
            uninstall()
        self.assertEqual(tracer.calls()["convexity.is_convex_at"], 4)
        self.assertEqual(tracer.calls()["subharmonic.compare_to_neighborhood_mean"],
                         sum(1 for z in g.vertices if convexity.is_convex_at(g.metric(), f, z)))

    def test_patching_the_defining_module_alone_misses_theorems(self):
        # the failure mode install() exists to avoid
        g, f = square_and_function()
        tracer = spans.Tracer()
        original = convexity.is_convex_at
        convexity.is_convex_at = spans.wrap(tracer, "naive", original)
        try:
            theorems.verify_pointwise_implication(g, f, "triangle_free")
        finally:
            convexity.is_convex_at = original
        self.assertEqual(tracer.calls()["naive"], 0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
        tracer = spans.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
        a = tracer.begin("a")
        b = tracer.begin("b")
        tracer.end(b)
        c = tracer.begin("c")
        d = tracer.begin("d")
        tracer.end(d)
        tracer.end(c)
        tracer.end(a)
        self_s = tracer.self_times()
        self.assertEqual(self_s, {"a": 3, "b": 3, "c": 3, "d": 1})
        self.assertEqual(sum(self_s.values()), 10)

    def test_same_name_spans_add_up(self):
        tracer = spans.Tracer(clock=FakeClock([0, 2, 3, 4, 6, 10]))
        outer = tracer.begin("x")
        for _ in range(2):
            inner = tracer.begin("x")
            tracer.end(inner)
        tracer.end(outer)
        self.assertEqual(tracer.self_times(), {"x": 10})
        self.assertEqual(tracer.calls()["x"], 3)

    def test_out_of_order_end_is_refused(self):
        tracer = spans.Tracer()
        a = tracer.begin("a")
        tracer.begin("b")
        with self.assertRaises(RuntimeError):
            tracer.end(a)


class PassTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        path = SCRATCH / "path4.txt"
        workloads.write_graph(path, range(4), [(0, 1), (1, 2), (2, 3)])
        self.op = {"id": "thm3-path4", "kind": "cli",
                   "argv": ["verify", "thm3", "--graph", str(path), "--format", "json"],
                   "expect": {"exit": 0, "verdict": "verified"}}

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def count(self, op, results):
        manifest = {"ops": [op]}
        return checks.count_failures(manifest, [{"ops": results}], {})

    def test_a_wrong_expected_value_counts_as_failed(self):
        result = run_op(gc, self.op)
        self.assertEqual(self.count(self.op, [result])[:2], (1, 0))
        wrong = dict(self.op, expect={"exit": 0, "verdict": "refuted"})
        attempted, failed, reasons = self.count(wrong, [result, result])
        self.assertEqual((attempted, failed), (2, 2))
        self.assertIn("verdict", reasons[0])
        wrong_exit = dict(self.op, expect={"exit": 1, "verdict": "verified"})
        self.assertEqual(self.count(wrong_exit, [result])[:2], (1, 1))

    def test_wrong_expected_counts_count_as_failed(self):
        result = run_op(gc, self.op)
        payload = json.loads(result["out"])
        right = [payload["checked"], payload["hypothesis_fired"]]
        counted = dict(self.op, expect=dict(self.op["expect"], counts=right))
        self.assertEqual(self.count(counted, [result])[:2], (1, 0))
        wrong = dict(self.op, expect=dict(self.op["expect"], counts=[right[0] + 1, right[1]]))
        self.assertEqual(self.count(wrong, [result])[:2], (1, 1))

    def test_traced_self_times_sum_to_each_op(self):
        tracer = spans.Tracer()
        _, uninstall = spans.install(tracer)
        try:
            results = [run_op(gc, dict(self.op, id=f"op{k}"), tracer) for k in range(3)]
        finally:
            uninstall()
        summary = trace_summary(tracer, results)
        self.assertLess(summary["self_sum_error_s"], 1e-9)
        self.assertEqual(summary["calls"]["cli.main"], 3)
        self.assertEqual(summary["calls"]["io.parse"], 3)


class OracleTest(unittest.TestCase):
    def test_hull_matches_brute_force(self):
        rng = random.Random(7)
        for n in range(5, 13):
            vertices, edges = workloads.sparse_connected(n, rng.randrange(4), rng)
            g = gc.Graph(edges, vertices=vertices)
            members = rng.sample(vertices, 3)
            want = gc.brute_force_convex_hull(g.metric(), members)
            self.assertEqual(oracles.hull(vertices, edges, members), sorted(want))

    def test_fn_convex_rows_match_the_library(self):
        rng = random.Random(8)
        vertices, edges = workloads.sparse_connected(15, 10, rng)
        g = gc.Graph(edges, vertices=vertices)
        for _ in range(5):
            f = {v: rng.randint(-3, 3) for v in vertices}
            for z, verdict, pair in oracles.fn_convex_rows(vertices, edges, f):
                got = gc.is_convex_at(g.metric(), f, z)
                self.assertEqual(verdict == "ok", got.ok)
                if pair:
                    self.assertEqual(pair, [got.witness.x, got.witness.y])


if __name__ == "__main__":
    unittest.main()
