"""The benchmark's own test, at toy sizes (m=4/5 encodings and solves; the
m=8 counterexample is fixed, so certify keeps it but skips the m=10 scans).

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from time import perf_counter
from unittest import mock

import hostspeed
import run
from metrics import CDCL_INSTANCES, MOVES, pass_metrics
from tracing import Tracer
from workloads import (
    CERTIFY_M8,
    Certify,
    Checks,
    ModelSearch,
    Reduce,
    ReduceSpec,
    Refutation,
    Refute,
    RefuteSpec,
    Row,
    worker_count,
)

sys.path.insert(0, str(run.SRC))

REDUCE_TOY = ReduceSpec(
    rows=(Row(4, 3, True, 2_808, 367), Row(5, 4, False, 40_536, 8_610)),
    smt_m=4,
    smt_inequalities=288,
)
REFUTE_TOY = RefuteSpec(
    unsat=(Refutation("learn", 5, None, False), Refutation("nolevel", 4, None, False)),
    sat=ModelSearch("model", 4, 3, True, 36),
)
# The certify instances are fixed by the bundled m=8 counterexample; the toy
# spec skips the dummy good (so the n=4 m=9 extension is scanned serially and
# in parallel) and draws fewer and smaller random three-agent instances.
CERTIFY_TOY = dataclasses.replace(
    CERTIFY_M8, dummy_goods=0, dummy_allocations=186_480, random_instances=10,
    random_goods=(4, 5),
)

# Counters that must repeat exactly from run to run and seed to seed (the
# three-agent counts are left out: the seed draws those instances).
COUNTERS = [
    "encoding.clauses",
    "simplify.units_fixed",
    "simplify.satisfied_removed",
    "simplify.subsumed_removed",
    "simplify.output_clauses",
    "verification.allocations",
    *(f"cdcl.{label}.{key}" for label, _ in CDCL_INSTANCES
      for key in ("conflicts", "decisions", "restarts")),
]


def toy_workloads():
    return [
        Reduce(REDUCE_TOY, str(run.OUT)),
        Refute(REFUTE_TOY),
        Certify(CERTIFY_TOY),
    ]


def traced_pass(workload, seed: int) -> tuple[dict[str, float], Checks]:
    """Set up and make one traced pass; counters cover set-up and pass."""
    run.OUT.mkdir(exist_ok=True)
    tracer, checks = Tracer("test"), Checks()
    lib, state, _, _ = run.set_up(workload, seed, tracer, traced=True)
    run.timed_pass(workload, lib, state, tracer, checks, "pass-0", traced=True)
    return pass_metrics(tracer.spans, worker_count()), checks


class ManifestTest(unittest.TestCase):
    """Every metric BENCHMARK.json names is computed, on the toy workloads."""

    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_workloads_are_accepted(self):
        self.assertLessEqual({w["name"] for w in self.manifest["workloads"]}, set(run.WORKLOADS))

    def test_end_to_end_metrics_are_measured(self):
        run.OUT.mkdir(exist_ok=True)
        values = run.measure(Reduce(REDUCE_TOY, str(run.OUT)), 1, 0.0, False, Tracer("test"),
                             Checks(), [])
        self.assertEqual(set(values), {m["name"] for m in self.manifest["end_to_end"]})
        self.assertTrue(all(v > 0 for v in values.values()))

    def test_per_layer_metrics_are_traced(self):
        run.OUT.mkdir(exist_ok=True)
        names = {m["name"] for m in self.manifest["per_layer"]}
        self.assertEqual(names, set(MOVES))
        values = run.measure(Refute(REFUTE_TOY), 1, 0.0, True, Tracer("test"), Checks(), [])
        self.assertEqual(set(values), names)


class HostClockTest(unittest.TestCase):
    def test_times_are_rescaled_by_the_host_loop(self):
        # On a host whose loop reads twice the reference, the reference host
        # would do the same work in 0.5 ** ELASTICITY of the time.
        clock = hostspeed.HostClock()
        with mock.patch.object(hostspeed, "loop_ms", return_value=2 * hostspeed.REF_LOOP_MS):
            with clock.timing():
                deadline = perf_counter() + 0.35
                while perf_counter() < deadline:
                    pass
        self.assertGreaterEqual(clock.readings, 3)
        self.assertAlmostEqual(clock.seconds, 0.35, delta=0.05)
        self.assertAlmostEqual(clock.ref_seconds, clock.seconds * 0.5 ** hostspeed.ELASTICITY)


class ToyRunTest(unittest.TestCase):
    def test_outputs_correct_and_counters_repeat_exactly(self):
        for workload in toy_workloads():
            with self.subTest(workload=workload.name):
                first, first_checks = traced_pass(workload, seed=1)
                second, second_checks = traced_pass(workload, seed=2)
                for checks in (first_checks, second_checks):
                    self.assertGreater(checks.attempted, 0)
                    self.assertEqual(checks.messages, [])
                self.assertEqual(
                    {c: first[c] for c in COUNTERS}, {c: second[c] for c in COUNTERS}
                )

    def test_counters_count_the_work(self):
        reduce_counts, _ = traced_pass(Reduce(REDUCE_TOY, str(run.OUT)), seed=3)
        self.assertEqual(reduce_counts["encoding.clauses"], 2_808 + 40_536)
        self.assertEqual(reduce_counts["simplify.output_clauses"], 367 + 8_610)
        self.assertGreater(reduce_counts["simplify.subsumed_removed"], 0)
        refute_counts, _ = traced_pass(Refute(REFUTE_TOY), seed=3)
        self.assertGreater(refute_counts["cdcl.learn.conflicts"], 0)
        self.assertGreater(refute_counts["cdcl.learn.restarts"], 0)
        self.assertEqual(refute_counts["cdcl.model.conflicts"], 0)
        self.assertGreater(refute_counts["cdcl.model.decisions"], 0)
        self.assertGreater(refute_counts["simplify.units_fixed"], 0)

    def test_wrong_expected_figure_gives_nonzero_fail_ratio(self):
        wrong_row = dataclasses.replace(REDUCE_TOY.rows[0], reduced=REDUCE_TOY.rows[0].reduced + 1)
        spec = dataclasses.replace(REDUCE_TOY, rows=(wrong_row, *REDUCE_TOY.rows[1:]))
        run.OUT.mkdir(exist_ok=True)
        checks, report = Checks(), []
        values = run.measure(Reduce(spec, str(run.OUT)), 1, 0.0, False, Tracer("test"),
                             checks, report)
        self.assertGreater(checks.failed / checks.attempted, 0)
        self.assertEqual(values, {})  # the wrong pass's time is not reported
        self.assertTrue(any("reduced clauses" in m for m in checks.messages))


if __name__ == "__main__":
    unittest.main()
