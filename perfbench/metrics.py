"""Turns the harness's raw measurements into the benchmark's named metrics.

perfbench_harness (C++) measures; this module only aggregates, so every rule
that decides a reported number -- the percentile rule, operation counting,
and the derived ratios -- is plain Python that test_metrics.py checks on
fixed inputs.
"""

import math
import statistics

SPARSE_METHODS = ("STAR", "LAR", "OMP")
METHODS = ("LS",) + SPARSE_METHODS

# End-to-end metrics (untraced run). Every workload prints all of them; an
# operation is a fit on the fit workloads and a request frame on
# serve_socket.
END_TO_END_UNITS = {
    "op_mean_ms": "ms",
    "error_pct": "%",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics (traced run). Every workload prints all of them.
PER_LAYER_UNITS = {
    "sim.samples": "count",
    "sim.sample_us": "us",
    "basis.design_matrix_s": "s",
    "linalg.scan_ms": "ms",
    "linalg.scan_gbps": "GB/s",
    "linalg.scan_frac_peak": "ratio",
    "mem.triad_gbps": "GB/s",
    "linalg.gram_s": "s",
    "linalg.gram_gflops": "GFLOP/s",
    **{f"solver.{m}.{k}": u for m in SPARSE_METHODS
       for k, u in (("path_s", "s"), ("steps", "count"),
                    ("step_ms", "ms"), ("scans_per_step", "ratio"))},
    "cv.run_s": "s",
    "cv.share": "ratio",
    "cv.fold_max_s": "s",
    "cv.fold_min_s": "s",
    "cv.fold_self_s": "s",
    "pipeline.overhead_s": "s",
    "mem.rss_after_setup_mb": "MB",
    "mem.rss_peak_cv_mb": "MB",
    "mem.rss_peak_final_mb": "MB",
    "proc.cpu_per_wall": "ratio",
    "proc.invol_ctx_switches": "count",
    "model.predict_ns": "ns",
    "model.batch1024_rows_per_s": "rows/s",
    "serve.decode_us": "us",
    "serve.registry_load_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# ---------------------------------------------------------------- percentiles

PERCENTILE_LADDER = (90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """The nearest-rank percentile: the smallest sample with at least pct %
    of the samples at or below it. Returns (value, samples beyond it)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return sorted_values[rank - 1], n - rank


def supported(n, pct):
    """True when n samples leave at least MIN_BEYOND beyond the pct-th."""
    return n - max(1, math.ceil(pct / 100.0 * n - 1e-9)) >= MIN_BEYOND


def latency_summary(values):
    """Median plus the highest ladder percentile with >= 10 samples beyond
    it, and the sample count. The tail is None below 10 * 10 samples."""
    ordered = sorted(values)
    out = {"n": len(ordered), "p50": None, "tail_pct": None, "tail": None}
    if not ordered:
        return out
    out["p50"], _ = nearest_rank(ordered, 50.0)
    for pct in PERCENTILE_LADDER:
        if supported(len(ordered), pct):
            out["tail_pct"] = pct
            out["tail"], _ = nearest_rank(ordered, pct)
    return out


def describe_latency(values):
    """One line: sample count, median and the highest supported tail."""
    s = latency_summary(values)
    if s["p50"] is None:
        return "n=0"
    tail = (f", p{s['tail_pct']:g} = {s['tail']:.6g}" if s["tail_pct"] is not None
            else ", no percentile with 10 samples beyond it")
    return f"n={s['n']}, p50 = {s['p50']:.6g}{tail}"


# ------------------------------------------------------------------ counting

def count_fit_operations(passes):
    """A fit is one operation; it fails when any output check failed."""
    fits = [fit for one_pass in passes for fit in one_pass]
    return len(fits), sum(1 for fit in fits if fit["failures"])


def count_serve_operations(raw):
    """A request frame is one operation; a shed request, an error reply or
    an answer that differs from in-process prediction fails."""
    return raw["attempted"], raw["failed"]


# ------------------------------------------------------------ derived ratios

def scans_per_step(step_ms, scan_ms):
    """Mean solver step time in units of one full correlation scan."""
    return step_ms / scan_ms


def fold_self_s(fold_total_s, fold_solver_s):
    """cv.fold time not inside its solver child spans: the fold copy plus
    held-out scoring."""
    return fold_total_s - fold_solver_s


def scan_gbps(rows, cols, seconds):
    """Computed bytes of y = G'x over a rows x cols double matrix (G, x and
    y each touched once) per second, in GB/s."""
    return 8.0 * (rows * cols + rows + cols) / seconds / 1e9


def scan_frac_peak(scan_gbps_value, triad_gbps):
    """Achieved scan bandwidth as a share of the STREAM-triad probe."""
    return scan_gbps_value / triad_gbps


def gram_gflops(rows, cols, seconds):
    """G'G computes the upper triangle: cols(cols+1)/2 dot products of
    length rows, 2 flops per term."""
    return rows * cols * (cols + 1) / seconds / 1e9


# ------------------------------------------------------------------ workloads

def fit_end_to_end(raw):
    """A fit's time is the median of its repeats (see fit_workloads.cpp);
    a pass's total is the sum over its fits, and op_mean_ms is the median
    pass total per fit."""
    passes = raw["passes"]
    per_pass = statistics.median(sum(f["seconds"] for f in p) for p in passes)
    fits = passes[0]
    return {
        "op_mean_ms": 1e3 * per_pass / len(fits),
        "error_pct": 100.0 * statistics.fmean(f["test_error"] for f in fits),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setup_s"]),
    }


def per_method(fits):
    """{method: (total fit seconds, mean test error)} over one pass."""
    out = {}
    for m in METHODS:
        mine = [f for f in fits if f["method"] == m]
        if mine:
            out[m] = (sum(f["seconds"] for f in mine),
                      statistics.fmean(f["test_error"] for f in mine))
    return out


def serve_end_to_end(raw):
    frames = len(raw["eval_us"]) + len(raw["batch_ms"])
    return {
        "op_mean_ms": 1e3 * raw["wall_s"] / frames,
        "error_pct": 100.0 * raw["test_error"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setup_s"]),
    }


def traced_fits(raw):
    """The traced fits with their span figures: the workload's fits, or
    serve_socket's set-up fit."""
    if "passes" in raw:
        return raw["passes"][0]
    return [raw["layers"]["setup_fit"]]


def per_layer(raw, triad_gbps):
    layers = raw["layers"]
    probes = layers["probes"]
    out = {
        "sim.samples": layers["sim_samples"],
        "sim.sample_us": 1e6 * layers["sim_s"] / layers["sim_samples"],
        "basis.design_matrix_s": layers["design_matrix_s"],
        "mem.triad_gbps": triad_gbps,
        "mem.rss_after_setup_mb": layers["rss_after_setup_mb"],
    }
    lin = probes["linalg"]
    scan_s = statistics.median(lin["scan_s"])
    out["linalg.scan_ms"] = 1e3 * scan_s
    out["linalg.scan_gbps"] = scan_gbps(lin["scan_rows"], lin["scan_cols"], scan_s)
    out["linalg.scan_frac_peak"] = scan_frac_peak(out["linalg.scan_gbps"], triad_gbps)
    gram_s = statistics.median(lin["gram_s"])
    out["linalg.gram_s"] = gram_s
    out["linalg.gram_gflops"] = gram_gflops(lin["gram_rows"], lin["gram_cols"], gram_s)

    for m in SPARSE_METHODS:
        path = probes["solver"][m]
        step_ms = 1e3 * path["iteration_s"] / path["iteration_spans"]
        out[f"solver.{m}.path_s"] = path["seconds"]
        out[f"solver.{m}.steps"] = path["steps"]
        out[f"solver.{m}.step_ms"] = step_ms
        out[f"solver.{m}.scans_per_step"] = scans_per_step(step_ms, out["linalg.scan_ms"])

    fits = traced_fits(raw)
    spans = [f["spans"] for f in fits]
    with_cv = [s for s in spans if "cv_s" in s]
    out["cv.run_s"] = sum(s["cv_s"] for s in with_cv)
    out["cv.share"] = out["cv.run_s"] / sum(f["seconds"] for f in fits)
    out["cv.fold_max_s"] = sum(s["fold_max_s"] for s in with_cv)
    out["cv.fold_min_s"] = sum(s["fold_min_s"] for s in with_cv)
    out["cv.fold_self_s"] = sum(
        fold_self_s(s["fold_total_s"], s["fold_solver_s"]) for s in with_cv)
    out["pipeline.overhead_s"] = sum(
        f["seconds"] - f["spans"].get("cv_s", 0.0) - f["spans"]["final_s"] for f in fits)
    out["mem.rss_peak_cv_mb"] = max(s["rss_hwm_cv_mb"] for s in with_cv)
    out["mem.rss_peak_final_mb"] = max(s["rss_hwm_final_mb"] for s in spans)
    proc = layers["proc"]
    out["proc.cpu_per_wall"] = proc["cpu_s"] / proc["wall_s"]
    out["proc.invol_ctx_switches"] = proc["invol_ctx_switches"]

    model = probes["model"]
    out["model.predict_ns"] = statistics.median(model["predict_ns"])
    out["model.batch1024_rows_per_s"] = statistics.median(model["batch1024_rows_per_s"])
    out["serve.decode_us"] = statistics.median(model["decode_us"])
    out["serve.registry_load_ms"] = statistics.median(model["registry_load_ms"])
    cost = probes["trace_cost"]
    out["trace.overhead_frac"] = (statistics.median(cost["traced_s"])
                                  / statistics.median(cost["untraced_s"]) - 1.0)
    return out
