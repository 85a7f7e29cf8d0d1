"""Self-tests of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

They check that every workload completes, that every metric named in
BENCHMARK.json is printed with its unit, that the oracle catches a
corrupted product, that the seed changes the inputs but not the metric
names, and that simulated cycles do not change under tracing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_repro()

from inputs import TINY, Graph, InputMaker  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int = 1, trace: int = 0,
          seconds: float = 1.0) -> tuple[int, dict, dict]:
    """Run the benchmark in-process on the tiny profile; returns (exit
    code, final JSON line, results file)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)],
                        profile=TINY)
    final = json.loads(out.getvalue().strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    details = json.loads((run.OUT / f"{tag}.json").read_text())
    return code, final, details


class SelfTest(unittest.TestCase):
    def test_every_workload_completes_with_every_metric(self):
        declared = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, final, _ = bench(workload)
                self.assertEqual(code, 0)
                self.assertTrue(final["correct"])
                self.assertGreaterEqual(final["attempted"], 1)
                self.assertEqual(final["failed"], 0)
                self.assertEqual({(k, v["unit"]) for k, v
                                  in final["metrics"].items()}, declared)

    def test_traced_run_reports_every_layer_metric(self):
        declared = {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
        code, final, details = bench("sim-cycle", trace=1, seconds=2.0)
        self.assertEqual(code, 0)
        self.assertEqual({(k, v["unit"]) for k, v
                          in final["metrics"].items()}, declared)
        # Self-time rows sum to the op wall time.
        values = {k: v["value"] for k, v in final["metrics"].items()}
        rows = sum(v for k, v in values.items() if k.endswith(".self_ms"))
        self.assertAlmostEqual(rows, values["op.wall_ms"], places=6)
        # Simulated statistics are identical with and without tracing.
        untraced, traced = details["end_to_end"]
        self.assertIn("sim_cycles", untraced)
        self.assertEqual(untraced["sim_cycles"], traced["sim_cycles"])
        self.assertEqual(untraced["sim_counters"], traced["sim_counters"])

    def test_oracle_catches_a_corrupted_product(self):
        from repro.sparse import kernels

        original = kernels.spgemm

        def corrupted(*args, **kwargs):
            result = original(*args, **kwargs)
            result.matrix.data[len(result.matrix.data) // 2] += 1.0
            return result

        kernels.spgemm = corrupted
        try:
            code, final, details = bench("analytic-warm")
        finally:
            kernels.spgemm = original
        self.assertNotEqual(code, 0)
        self.assertFalse(final["correct"])
        self.assertEqual(final["failed"], final["attempted"])
        self.assertIn("values differ", details["failures"][0])

    def test_seed_changes_inputs_not_metric_names(self):
        graph = Graph("kron", 64, 3)
        a, b = (InputMaker(seed).operand(graph, 0) for seed in (1, 2))
        self.assertFalse(a.nnz == b.nnz and (a.indices == b.indices).all()
                         and (a.data == b.data).all())
        again = InputMaker(1).operand(graph, 0)
        self.assertTrue((a.indices == again.indices).all()
                        and (a.data == again.data).all())
        _, first, _ = bench("fanout-process", seed=1)
        _, second, _ = bench("fanout-process", seed=2)
        self.assertEqual(first["metrics"].keys(), second["metrics"].keys())


if __name__ == "__main__":
    unittest.main()
