#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds cellfi_perfbench like run.py does, then checks at each workload's
default seed that
  - the per-layer counts of a traced replication repeat exactly across two
    runs, and so does the outcome;
  - the benchmark's own scenario assembly gives scenario::RunScenario's
    result bytes, and passes the workload's outcome gate.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

DEFAULT_SEED = 1
COUNTS = ("lte.subframes", "core.cqi_reports", "core.prach_observations",
          "traffic.delivered_tbs", "radio.add_node_calls", "sim.events")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_traced_counts_repeat(self):
        layers = {}
        for workload in run.GATES:
            with self.subTest(workload=workload):
                first = run.run_child(workload, DEFAULT_SEED, "1")
                second = run.run_child(workload, DEFAULT_SEED, "1")
                for name in COUNTS:
                    self.assertEqual(first["layers"][name], second["layers"][name], name)
                self.assertEqual(first["outcome"], second["outcome"])
                layers[workload] = first["layers"]
        # Each layer runs where the workload says it does: APs + clients
        # (+ 4 aggregate cluster anchors per cell on users_agg).
        self.assertGreater(layers["fig9_cellfi"]["core.cqi_reports"], 0)
        self.assertGreater(layers["users_agg"]["traffic.agg_samples"], 0)
        self.assertEqual(layers["fig9_cellfi"]["traffic.agg_samples"], 0)
        self.assertEqual(layers["fig9_cellfi"]["radio.add_node_calls"], 14 * 7)
        self.assertEqual(layers["users_agg"]["radio.add_node_calls"], 10 * 7)
        for workload_layers in layers.values():
            self.assertGreater(workload_layers["lte.subframes"], 0)
            self.assertGreater(workload_layers["sim.events"], 0)

    def test_assembly_matches_library(self):
        for workload in run.GATES:
            with self.subTest(workload=workload):
                library = run.run_child(workload, DEFAULT_SEED, "library")
                own = run.run_child(workload, DEFAULT_SEED, "0")
                self.assertEqual(own["outcome"], library["outcome"])
                self.assertEqual(run.gate_problems(workload, own), [])
                self.assertGreater(own["hops"], 0)


if __name__ == "__main__":
    unittest.main()
