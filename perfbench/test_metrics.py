#!/usr/bin/env python3
"""Self-tests of the benchmark's aggregation rules, on fixed inputs.

    python3 perfbench/test_metrics.py
"""

import json
import math
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
import metrics  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_on_1_to_100(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(values, 50), (50, 50))
        self.assertEqual(metrics.nearest_rank(values, 90), (90, 10))
        self.assertEqual(metrics.nearest_rank(values, 99), (99, 1))

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertTrue(metrics.supported(100, 90))    # 10 beyond
        self.assertFalse(metrics.supported(99, 90))    # 9 beyond
        self.assertFalse(metrics.supported(999, 99))   # 9 beyond
        self.assertTrue(metrics.supported(1000, 99))   # 10 beyond
        self.assertTrue(metrics.supported(10000, 99.9))

    def test_summary_reports_highest_supported_tail_and_count(self):
        s = metrics.latency_summary(list(range(1000, 0, -1)))  # unsorted input
        self.assertEqual(s, {"n": 1000, "p50": 500, "tail_pct": 99.0, "tail": 990})
        s = metrics.latency_summary(list(range(1, 100)))
        self.assertEqual((s["n"], s["p50"], s["tail_pct"], s["tail"]), (99, 50, None, None))
        s = metrics.latency_summary([float(v) for v in range(1, 20001)])
        self.assertEqual((s["tail_pct"], s["tail"]), (99.9, 19980.0))


class OperationCounting(unittest.TestCase):
    def test_a_fit_fails_when_any_check_failed(self):
        passes = [[{"failures": []}, {"failures": ["lambda = 0 (limit 80)"]}],
                  [{"failures": []}, {"failures": ["a", "b"]}]]
        self.assertEqual(metrics.count_fit_operations(passes), (4, 2))

    def test_serve_counts_frames(self):
        raw = {"attempted": 1234, "failed": 5}
        self.assertEqual(metrics.count_serve_operations(raw), (1234, 5))

    def test_serve_end_to_end_on_fixed_latencies(self):
        # 1000 evals and 100 batches answered in 2.2 s.
        raw = {"eval_us": [float(v) for v in range(1, 1001)],
               "batch_ms": [float(v) for v in range(1, 101)],
               "wall_s": 2.2, "test_error": 0.05, "peak_rss_mb": 100.0,
               "setup_s": [0.3, 0.1, 0.2]}
        out = metrics.serve_end_to_end(raw)
        self.assertEqual(set(out), set(metrics.END_TO_END_UNITS))
        self.assertAlmostEqual(out["op_mean_ms"], 2.0)
        self.assertAlmostEqual(out["error_pct"], 5.0)
        self.assertEqual(out["setup_s"], 0.2)


class DerivedRatios(unittest.TestCase):
    def test_scans_per_step(self):
        self.assertEqual(metrics.scans_per_step(70.0, 35.0), 2.0)

    def test_fold_self_time(self):
        self.assertAlmostEqual(metrics.fold_self_s(10.0, 9.25), 0.75)

    def test_scan_bandwidth_and_fraction_of_peak(self):
        # 1000 x 21311 doubles plus x and y: 170.6 MB in 40 ms.
        gbps = metrics.scan_gbps(1000, 21311, 0.040)
        self.assertAlmostEqual(gbps, 8 * (1000 * 21311 + 1000 + 21311) / 0.040 / 1e9)
        self.assertAlmostEqual(metrics.scan_frac_peak(gbps, 2 * gbps), 0.5)

    def test_gram_flops(self):
        self.assertAlmostEqual(metrics.gram_gflops(10, 4, 1e-9), 200.0)

    def test_fit_metrics_from_fixed_raw(self):
        def fit(method, seconds, error, spans):
            return {"method": method, "target": "a", "seconds": seconds,
                    "test_error": error, "failures": [], "spans": spans}
        cv_spans = {"cv_s": 8.0, "final_s": 1.5, "fold_total_s": 8.0,
                    "fold_solver_s": 7.0, "fold_max_s": 2.5, "fold_min_s": 1.5,
                    "rss_hwm_cv_mb": 900.0, "rss_hwm_final_mb": 910.0}
        ls_spans = {"final_s": 0.5, "rss_hwm_cv_mb": 0.0, "rss_hwm_final_mb": 300.0}
        path = {"seconds": 1.3, "steps": 20, "iteration_s": 1.26, "iteration_spans": 21}
        raw = {
            "passes": [[fit("LS", 0.6, 0.01, ls_spans),
                        fit("LAR", 10.0, 0.05, cv_spans),
                        fit("OMP", 1.1, 0.03, dict(cv_spans))],
                       [fit("LS", 0.8, 0.01, ls_spans),
                        fit("LAR", 12.0, 0.05, cv_spans),
                        fit("OMP", 1.0, 0.03, dict(cv_spans))]],
            "peak_rss_mb": 910.0, "setup_s": [1.0, 3.0, 2.0],
            "layers": {"sim_samples": 2000, "sim_s": 1.0, "design_matrix_s": 0.25,
                       "rss_after_setup_mb": 400.0,
                       "proc": {"cpu_s": 9.0, "wall_s": 10.0, "invol_ctx_switches": 7},
                       "probes": {
                           "linalg": {"scan_s": [0.07, 0.05, 0.06], "scan_rows": 10,
                                      "scan_cols": 20, "gram_s": [2.0, 1.0, 3.0],
                                      "gram_rows": 10, "gram_cols": 4},
                           "solver": {m: path for m in metrics.SPARSE_METHODS},
                           "model": {"predict_ns": [300.0], "batch1024_rows_per_s": [1e7],
                                     "decode_us": [100.0], "registry_load_ms": [0.2]},
                           "trace_cost": {"traced_s": [1.2, 1.0, 1.1],
                                          "untraced_s": [1.0, 0.9, 1.1, 1.0]}}}}
        e2e = metrics.fit_end_to_end(raw)
        self.assertEqual(set(e2e), set(metrics.END_TO_END_UNITS))
        # Pass totals 11.7 and 13.8 s; their median over 3 fits a pass.
        self.assertAlmostEqual(e2e["op_mean_ms"], 1e3 * 12.75 / 3)
        self.assertAlmostEqual(e2e["error_pct"], 3.0)
        self.assertEqual(e2e["setup_s"], 2.0)
        self.assertEqual(metrics.per_method(raw["passes"][0])["LAR"], (10.0, 0.05))

        layer = metrics.per_layer(raw, triad_gbps=10.0)
        self.assertEqual(set(layer), set(metrics.PER_LAYER_UNITS))
        self.assertAlmostEqual(layer["linalg.scan_ms"], 60.0)
        self.assertAlmostEqual(layer["linalg.gram_s"], 2.0)
        self.assertAlmostEqual(layer["solver.LAR.step_ms"], 60.0)
        self.assertAlmostEqual(layer["solver.LAR.scans_per_step"], 1.0)
        self.assertAlmostEqual(layer["cv.fold_self_s"], 2.0)
        self.assertAlmostEqual(layer["cv.run_s"], 16.0)
        self.assertAlmostEqual(layer["cv.share"], 16.0 / 11.7)
        self.assertAlmostEqual(layer["pipeline.overhead_s"],
                               (0.6 - 0.5) + (10.0 - 9.5) + (1.1 - 9.5))
        self.assertAlmostEqual(layer["linalg.scan_frac_peak"],
                               layer["linalg.scan_gbps"] / 10.0)
        self.assertAlmostEqual(layer["trace.overhead_frac"], 0.1)
        self.assertEqual(layer["mem.rss_peak_cv_mb"], 900.0)
        self.assertEqual(layer["proc.cpu_per_wall"], 0.9)
        self.assertAlmostEqual(layer["sim.sample_us"], 500.0)

        # serve_socket has no passes: its spans come from the set-up fit.
        serve = {"layers": dict(raw["layers"],
                                setup_fit={"seconds": 10.0, "spans": cv_spans})}
        layer = metrics.per_layer(serve, triad_gbps=10.0)
        self.assertEqual(set(layer), set(metrics.PER_LAYER_UNITS))
        self.assertAlmostEqual(layer["cv.share"], 0.8)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_names_every_metric_with_its_unit(self):
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER_UNITS)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertFalse(math.isnan(m["bound"]))


if __name__ == "__main__":
    unittest.main()
