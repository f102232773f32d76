// Shared pieces of the perfbench harness: run arguments, timing and memory
// helpers, the fitting problem every workload builds in its set-up, the
// timed fit, the per-layer probes and the workload entry points.
//
// The harness measures; perfbench/metrics.py turns its raw JSON into the
// named metrics. Every layer is timed from outside, through the library's
// public functions, so the same harness measures any later rewrite of them.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "basis/dictionary.hpp"
#include "core/pipeline.hpp"
#include "linalg/matrix.hpp"
#include "obs/json.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

/// Monotonic wall clock in seconds.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process resident-set high-water mark so far, MiB (obs/resource).
double rss_hwm_mb();

/// JSON array of doubles.
rsm::obs::JsonValue json_array(const std::vector<double>& values);

double median(std::vector<double> v);

/// One modeled performance: training values over the pool and test values.
struct Target {
  std::string name;
  std::vector<rsm::Real> f_pool;
  std::vector<rsm::Real> f_test;
};

/// Everything the fits need, built by a workload's set-up.
struct Problem {
  std::shared_ptr<const rsm::BasisDictionary> dict;
  rsm::Matrix g_pool;       // LS training rows; the sparse rows are its prefix
  rsm::Index k_sparse = 0;  // training samples of the sparse methods
  rsm::Matrix g_sparse;     // first k_sparse rows of g_pool (empty: use g_pool)
  rsm::Matrix test_inputs;  // test samples in the dictionary's variables
  std::vector<Target> targets;
  rsm::Index samples_simulated = 0;
  double sim_s = 0;
  double design_s = 0;

  const rsm::Matrix& sparse_design() const {
    return g_sparse.empty() ? g_pool : g_sparse;
  }
  /// The first target's training values over the sparse design's rows.
  std::span<const rsm::Real> first_values() const {
    return {targets.front().f_pool.data(),
            static_cast<std::size_t>(sparse_design().rows())};
  }
};

/// The SRAM read path with rows x cols cells and a linear dictionary:
/// k_train training then 1000 test samples drawn with seed 44 + seed, as
/// bench/table4_sram.cpp draws them.
std::unique_ptr<Problem> setup_sram(std::uint64_t seed, int rows, int cols,
                                    rsm::Index k_train);

/// One build_model_from_design call and its wall time. A traced fit also
/// records, under `spans`, the span-tree figures of the call and the
/// resident-set high-water marks at the end of CV and of the final fit.
struct Fit {
  rsm::BuildReport report;
  double seconds = 0;
  rsm::obs::JsonValue spans;
};
Fit run_fit(const Problem& p, const rsm::Matrix& g,
            std::span<const rsm::Real> f, const rsm::BuildOptions& opt,
            bool traced);

/// The layer probes every workload's traced run makes on its own problem:
/// the scan and Gram kernels on its design, a path fit of each sparse
/// method to max_lambda steps, prediction, codec and registry on
/// `model`, and the cost of tracing.
rsm::obs::JsonValue layer_probes(const Problem& p, rsm::Index max_lambda,
                                 const rsm::SparseModel& model);

/// Fit workloads: "sram_table4" and "opamp_quadratic". Fills `out` with the
/// raw measurements and returns the number of failed operations. Each
/// workload sets "peak_rss_mb" when its operations end, before it builds
/// the JSON of its samples, so the figure does not grow with their count.
int run_fit_workload(const RunArgs& args, rsm::obs::JsonValue& out);

/// The "serve_socket" workload. Same contract as run_fit_workload.
int run_serve_workload(const RunArgs& args, rsm::obs::JsonValue& out);

}  // namespace perfbench
