"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at tiny size through run.py, checks that the printed
metric names and units are the ones BENCHMARK.json declares, and checks
that the correctness gates trip on a perturbed trace and on a wrong
expected outcome.  Takes about half a minute.
"""

import copy
import json
import subprocess
import sys
import tempfile
import unittest
import warnings
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import NullTracer  # noqa: E402


def _declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class TinyRuns(unittest.TestCase):
    def _run(self, workload, trace):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
               "--tiny"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                             cwd=ROOT)
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_every_workload_prints_the_declared_metrics(self):
        declared = {0: _declared("end_to_end"), 1: _declared("per_layer")}
        with open(ROOT / "BENCHMARK.json") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOAD_NAMES))
        for workload in names:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    res = self._run(workload, trace)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    units = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(units, declared[trace])


class Gates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        workdir = Path(cls.tmp.name)
        loop = wl.LoopWorkload("stiff_loop", tiny=True)
        prep = loop.prepare(0, workdir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cls.res = loop.op(prep, NullTracer())
        cls.ref = dict(wl.reference_samples(cls.res.trace),
                       tolerance=loop.tolerance)
        cls.sweep = wl.DesignSweep(tiny=True)
        cls.workdir = workdir

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _perturbed(self, edit):
        trace = copy.deepcopy(self.res.trace)
        edit(trace)
        res = copy.copy(self.res)
        res.trace = trace
        res.checks = wl.trace_checks(trace, res.design, res.cc, res.horizon)
        return res

    def test_loop_gate_passes_the_unperturbed_trace(self):
        fails, dev = wl.loop_gate(self.res, self.ref)
        self.assertEqual(fails, [])
        self.assertEqual(dev, 0.0)

    def test_loop_gate_trips_on_a_funnel_breach(self):
        def breach(trace):
            i = int(np.flatnonzero(trace.a == 1)[-1])
            trace.e_norm[i] = 1.5 / trace.phi[i]

        fails, _ = wl.loop_gate(self._perturbed(breach), self.ref)
        self.assertTrue(any("funnel_containment" in f for f in fails), fails)

    def test_loop_gate_trips_off_the_reference(self):
        def shift(trace):
            trace.y[len(trace.t) // 2:] += 1e-3

        fails, dev = wl.loop_gate(self._perturbed(shift), self.ref)
        self.assertGreater(dev, 1.0)
        self.assertTrue(any("reference" in f for f in fails), fails)

    def test_loop_gate_trips_on_a_short_trace(self):
        def cut(trace):
            n = len(trace.t) // 2
            for name in ("t", "a", "tau", "phi", "psi", "y", "e_norm",
                         "stage_norms", "u", "u_norm", "eta", "eta_norm"):
                setattr(trace, name, getattr(trace, name)[:n])

        fails, _ = wl.loop_gate(self._perturbed(cut), self.ref)
        self.assertTrue(any("global_solution" in f for f in fails), fails)

    def test_design_gate_trips_on_a_wrong_expected_outcome(self):
        outcomes = [e["outcome"] for e in self.sweep.variants]
        v = outcomes.index("feasible")
        prep = self.sweep.prepare(v, self.workdir)
        res = self.sweep.op(prep, NullTracer())
        self.assertEqual(self.sweep.check(res, prep)[0], [])
        prep["expected"] = "DeltaTooLarge"
        fails, _ = self.sweep.check(res, prep)
        self.assertTrue(any("expected DeltaTooLarge" in f for f in fails))

    def test_design_gate_trips_on_a_negative_margin(self):
        res = wl.DesignResult("feasible", {"funnel_level": -1e-3})
        fails = wl.design_gate(res, "feasible")
        self.assertTrue(any("funnel_level" in f for f in fails), fails)


if __name__ == "__main__":
    unittest.main()
