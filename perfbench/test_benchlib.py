#!/usr/bin/env python3
"""Self-test of the benchmark's own code: percentile and quartile math,
the Fig. 8 output check (a perturbed reference must be flagged), and
the shape of the result object.

  python3 perfbench/test_benchlib.py
"""

import copy
import json
import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "fig8_reference.json").read_text())


def grid_cells(grid, trace=False):
    """One grid of cells that agrees with the reference table exactly. In
    a traced grid every other cell is traced and runs 10% slower."""
    cells = []
    for key, ref in REFERENCE["cells"].items():
        app, version, device = key.split("/")
        traced = trace and grid >= 1 and (len(cells) + grid) % 2 == 0
        wall_ms = (10.0 + len(cells)) * (1.1 if traced else 1.0)
        cells.append({"grid": grid, "app": app, "version": version,
                      "device": device, "kernel_ms": ref["kernel_ms"],
                      "wall_ms": wall_ms, "valid": ref["valid"],
                      "traced": traced})
    return cells


def raw_fig8(trace=False):
    """Warm-up grid 0 and measured grid 1; a traced run measures two."""
    grids = 3 if trace else 2
    return {"workload": "fig8_grid", "seed": 1, "trace": trace,
            "rss_peak_mb": 95.0, "heap_mb": [30.0, 50.0, 40.0],
            "setup_s": [0.1, 0.3, 0.2], "warmup_s": 11.0, "measure_s": 10.0,
            "measure_cpu_s": 36.0, "ops": grids - 1, "threads": 72_000_000,
            "attempted": 0, "failed": 0, "op_ms": [10000.0] * (grids - 1),
            "traced_op_ms": [], "untraced_op_ms": [],
            "cells": [c for g in range(grids) for c in grid_cells(g, trace)],
            "values": {}, "samples": {}}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(benchlib.percentile(xs, 0), 1.0)
        self.assertEqual(benchlib.percentile(xs, 100), 4.0)
        self.assertAlmostEqual(benchlib.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(benchlib.percentile(xs, 75), 3.25)
        self.assertAlmostEqual(benchlib.percentile(list(range(101)), 99), 99.0)

    def test_single_sample(self):
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)

    def test_failed_operations_miss_the_tail(self):
        xs = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(benchlib.percentile(xs, 50), 1.0)
        self.assertTrue(math.isinf(benchlib.percentile(xs, 99)))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_quartiles_match_the_statistics_module(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(benchlib.quartiles(xs),
                         tuple(statistics.quantiles(xs, n=4)))
        q1, q2, q3 = benchlib.quartiles(xs)
        self.assertAlmostEqual(benchlib.spread(xs), (q3 - q1) / q2)
        self.assertAlmostEqual(q2, 5.5)

    def test_tail_leaves_ten_samples_beyond_it(self):
        # The fewest operations a run makes; one Fig. 8 grid has no
        # percentile with ten beyond it, so its tail is the slowest grid.
        fewest = {"launch_chain": 1000, "serve_mix": 1000}
        for workload, n in fewest.items():
            q = benchlib.TAIL_PERCENTILE[workload]
            self.assertGreaterEqual(n * (1 - q / 100), 10)
        self.assertEqual(benchlib.TAIL_PERCENTILE["fig8_grid"], 100.0)


class Fig8CheckTest(unittest.TestCase):
    def test_reference_covers_the_grid(self):
        self.assertEqual(len(REFERENCE["cells"]), 48)
        invalid = sorted(k for k, c in REFERENCE["cells"].items()
                         if not c["valid"])
        self.assertEqual(invalid, ["xsbench/omp/sim-a100",
                                   "xsbench/omp/sim-mi250"])

    def test_matching_grid_passes(self):
        for cell in grid_cells(1):
            self.assertEqual(benchlib.cell_failures(cell, REFERENCE), [])

    def test_perturbed_reference_is_flagged(self):
        cells = grid_cells(1)
        for key in REFERENCE["cells"]:
            app = key.split("/")[0]
            tol = REFERENCE["tolerance_rel"].get(
                app, REFERENCE["tolerance_rel"]["default"])
            bad = copy.deepcopy(REFERENCE)
            bad["cells"][key]["kernel_ms"] *= 1 + 2 * tol + 1e-6
            flagged = [c for c in cells if benchlib.cell_failures(c, bad)]
            self.assertEqual([benchlib.cell_key(c) for c in flagged], [key])

    def test_validity_flip_is_flagged(self):
        bad = copy.deepcopy(REFERENCE)
        bad["cells"]["xsbench/omp/sim-a100"]["valid"] = True
        cell = next(c for c in grid_cells(1)
                    if benchlib.cell_key(c) == "xsbench/omp/sim-a100")
        self.assertEqual(len(benchlib.cell_failures(cell, bad)), 1)

    def test_jitter_within_tolerance_passes(self):
        cell = next(c for c in grid_cells(1) if c["app"] == "xsbench")
        cell["kernel_ms"] *= 1 + REFERENCE["tolerance_rel"]["xsbench"] / 2
        self.assertEqual(benchlib.cell_failures(cell, REFERENCE), [])
        other = next(c for c in grid_cells(1) if c["app"] == "su3")
        other["kernel_ms"] *= 1 + 1e-6  # no jitter is allowed here
        self.assertEqual(len(benchlib.cell_failures(other, REFERENCE)), 1)


class EvaluateTest(unittest.TestCase):
    def test_fig8_result_object(self):
        result, notes, _ = benchlib.evaluate("fig8_grid", raw_fig8(), REFERENCE)
        self.assertEqual(notes, [])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (96, 0))
        self.assertEqual(set(result["metrics"]),
                         {name for name, _ in benchlib.END_TO_END})
        m = result["metrics"]
        self.assertAlmostEqual(m["setup_s"]["value"], 0.2)  # no warm-up
        self.assertAlmostEqual(m["op_ms_p50"]["value"], 10000.0)
        self.assertAlmostEqual(m["heap_mb"]["value"], 40.0)
        self.assertAlmostEqual(m["cpu_ns_per_thread"]["value"], 500.0)

    def test_failed_cell_is_counted_and_reported(self):
        raw = raw_fig8()
        raw["cells"][50]["kernel_ms"] *= 2  # a cell of measured grid 1
        result, notes, latency = benchlib.evaluate("fig8_grid", raw,
                                                   REFERENCE)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(len(notes), 1)
        self.assertEqual(latency["ops_per_s"], 0.0)
        self.assertTrue(math.isinf(latency["op_ms_p50"]))

    def test_traced_run_reports_every_per_layer_metric(self):
        raw = raw_fig8(trace=True)
        result, _, _ = benchlib.evaluate("fig8_grid", raw, REFERENCE)
        self.assertEqual(list(result["metrics"]),
                         [name for name, _ in benchlib.PER_LAYER])
        m = result["metrics"]
        self.assertEqual(m["model.cells_unstable"]["value"], 0.0)
        self.assertAlmostEqual(m["trace.overhead_pct"]["value"], 10.0)
        self.assertEqual(m["warmup_cpu_s"]["value"], 11.0)
        self.assertAlmostEqual(
            m["model.kernel_ms.a100"]["value"],
            sum(c["kernel_ms"] for k, c in REFERENCE["cells"].items()
                if k.endswith("sim-a100")))

    def test_layer_budget_subtracts_the_path_below(self):
        raw = {"workload": "launch_chain", "seed": 1, "trace": True,
               "rss_peak_mb": 10.0, "heap_mb": [], "setup_s": [0.1],
               "warmup_s": 1.0, "measure_s": 1.0, "measure_cpu_s": 2.0,
               "ops": 3, "threads": 3000, "attempted": 3, "failed": 0,
               "op_ms": [1.0, 0.5, 1.0, 0.5], "traced_op_ms": [1.0, 1.0],
               "untraced_op_ms": [0.5, None],
               "cells": [], "values": {}, "samples": {}}
        for i, p in enumerate(benchlib.LAYER_PATHS):
            raw["samples"][f"probe.{p}_us"] = [10.0 * (i + 1)] * 5
        result, _, _ = benchlib.evaluate("launch_chain", raw, REFERENCE)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(m["layer.engine_us"], 10.0)
        self.assertEqual(m["layer.blocks_us"], 10.0)   # 20 - engine
        self.assertEqual(m["layer.ompx_us"], 10.0)     # 40 - stream
        self.assertEqual(m["layer.serve_us"], 50.0)    # 60 - engine
        self.assertAlmostEqual(m["trace.overhead_pct"], 100.0)


if __name__ == "__main__":
    unittest.main()
