"""Self-tests of the benchmark itself (not of cvqss).

Run from the repository root:

    python3 perfbench/selftest.py

They check that inputs are a pure function of the seed, that the oracles
reject perturbed records, that the tracer's rebinding check notices a binding
left unwrapped, that two traced runs count identical calls, and that
BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import copy
import json
import math
import unittest

import run
import workloads
from tracer import SPAN_NAMES, Tracer


def _traced_calls(name: str, seed: int) -> dict:
    w = workloads.make(name)
    pool = w.inputs(seed)
    tracer = Tracer()
    tracer.install()
    try:
        run.timed_loop(w, w.inproc_op, pool, 1e-9, run.Tally(), tracer=tracer)
    finally:
        tracer.uninstall()
    return tracer.summary()["calls"]


class InputTests(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for name in workloads.WORKLOADS:
            w = workloads.make(name)
            self.assertEqual(workloads.digest(w.inputs(7)), workloads.digest(w.inputs(7)))
            self.assertNotEqual(workloads.digest(w.inputs(7)), workloads.digest(w.inputs(8)))

    def test_generated_domain(self):
        for grid in workloads.verify_grid_inputs(3):
            self.assertEqual([len(grid[k]) for k in ("r_values", "vm_values", "eta_values", "gains")],
                             [6, 3, 2, 17])
            self.assertTrue(all(0.0 <= r <= workloads.R_MAX for r in grid["r_values"]))
            self.assertTrue(all(0.0 < e <= 1.0 for e in grid["eta_values"]))
            self.assertEqual(grid["gains"], sorted(grid["gains"]))
        for figure in workloads.scenario_mix_inputs(3):
            self.assertEqual(len(figure["scenarios"]), 21)
            self.assertEqual(figure["tv"]["gains"], sorted(figure["tv"]["gains"]))
            for sc in figure["scenarios"]:
                self.assertTrue(0.0 <= sc["r"] <= workloads.R_MAX)
                self.assertTrue(0.0 < sc["eta"] <= 1.0)
        kinds = [c["kind"] for c in workloads.cli_commands(3)]
        self.assertEqual(kinds[0], "run")
        self.assertEqual({k: kinds.count(k) for k in set(kinds)},
                         {"run": 14, "tv-curve": 1, "table": 1, "verify": 4})


class OracleTests(unittest.TestCase):
    def test_scenario_mix_rejects_perturbed_records(self):
        w = workloads.make("scenario-mix")
        figure = w.inputs(5)[0]
        out = w.op(figure)
        self.assertEqual(w.check(figure, out), [])
        for scheme in ("feedforward", "psa2", "single_player_1", "single_player_3", "mz12"):
            bad = copy.deepcopy(out)
            k = next(k for k, sc in enumerate(figure["scenarios"])
                     if sc["scheme"] == scheme and sc["epsilon"] == 0.0)
            bad["scenarios"][k]["t_q"] += 1e-6
            self.assertNotEqual(w.check(figure, bad), [], scheme)
        bad = copy.deepcopy(out)
        bad["tv"][3]["v_q"] += 1e-6
        self.assertNotEqual(w.check(figure, bad), [])
        bad = copy.deepcopy(out)
        bad["table"][0]["t_q"] += 0.01
        self.assertNotEqual(w.check(figure, bad), [])
        bad = copy.deepcopy(out)
        bad["scenarios"][0]["fidelity"] = math.nan
        self.assertNotEqual(w.check(figure, bad), [])

    def test_verify_grid_rejects_failed_or_short_summary(self):
        w = workloads.make("verify-grid")
        grid = w.inputs(5)[0]
        out = w.op(grid)
        self.assertEqual(w.check(grid, out), [])
        bad = copy.deepcopy(out)
        bad["pass"] = False
        self.assertNotEqual(w.check(grid, bad), [])
        bad = copy.deepcopy(out)
        bad["families"]["feedforward_tv"]["count"] -= 1
        self.assertNotEqual(w.check(grid, bad), [])

    def test_cli_rejects_bad_exit_and_perturbed_output(self):
        w = workloads.CliProcess()
        commands = w.inputs(5)
        command = next(c for c in commands if c["kind"] == "run"
                       and c["scenario"]["scheme"] == "single_player_1")
        out = w.inproc_op(command)
        self.assertEqual(w.check(command, out), [])
        self.assertNotEqual(w.check(command, {**out, "rc": 1}), [])
        if "json" in command["argv"]:
            row = json.loads(out["stdout"])
            row["v_q"] *= 1.0 + 1e-6
            text = json.dumps(row)
        else:
            header, line = out["stdout"].splitlines()
            cells = line.split(",")
            v_q = header.split(",").index("v_q")
            cells[v_q] = repr(float(cells[v_q]) * (1.0 + 1e-6))
            text = header + "\n" + ",".join(cells) + "\n"
        self.assertNotEqual(w.check(command, {**out, "stdout": text}), [])
        self.assertNotEqual(w.check(command, {**out, "stdout": "not,output\n"}), [])

    def test_nondeterminism_counts_as_failure(self):
        w = workloads.make("verify-grid")
        pool = w.inputs(5)[:1]
        first = w.op(pool[0])
        changed = copy.deepcopy(first)
        changed["families"]["psa2_tv"]["max_deviation"] += 1e-30
        tally = run.Tally()
        run.timed_loop(w, w.op, pool, 1e-9, tally, reference={0: changed})
        self.assertEqual(tally.failed, 1)


class TracerTests(unittest.TestCase):
    def test_every_call_site_rebound_and_restored(self):
        ox = workloads.import_cvqss()
        import cvqss.noise
        import cvqss.optics

        original = cvqss.noise.lincomb
        tracer = Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.missing, [])
            self.assertEqual(tracer.unbound(), [])
            self.assertIs(cvqss.optics.lincomb, cvqss.noise.lincomb)
            self.assertIsNot(cvqss.optics.lincomb, original)
            # A binding left at the original must be reported.
            cvqss.optics.lincomb = original
            self.assertTrue(any("cvqss.optics.lincomb" in s for s in tracer.unbound()))
            cvqss.optics.lincomb = cvqss.noise.lincomb
            init = cvqss.noise.FieldState.__init__
            cvqss.noise.FieldState.__init__ = init.__wrapped__
            self.assertTrue(any("FieldState.__init__" in s for s in tracer.unbound()))
            cvqss.noise.FieldState.__init__ = init
        finally:
            tracer.uninstall()
        self.assertIs(cvqss.optics.lincomb, original)
        self.assertFalse(hasattr(cvqss.noise.FieldState.__init__, "__wrapped__"))
        self.assertFalse(hasattr(ox["cli"].verify_grid, "__wrapped__"))

    def test_two_traced_runs_count_identical_calls(self):
        for name in ("verify-grid", "scenario-mix"):
            first, second = _traced_calls(name, 9), _traced_calls(name, 9)
            self.assertEqual(first, second, name)
            self.assertGreater(sum(first.values()), 0)

    def test_traced_output_equals_untraced(self):
        w = workloads.make("scenario-mix")
        figure = w.inputs(4)[0]
        untraced = w.op(figure)
        tracer = Tracer()
        tracer.install()
        try:
            traced = w.op(figure)
        finally:
            tracer.uninstall()
        self.assertEqual(traced, untraced)


class SpecTests(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual(len(SPAN_NAMES), 35)


if __name__ == "__main__":
    unittest.main()
