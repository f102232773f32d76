// Per-layer probes, made by every workload's traced run on its own problem.
//
// Each probe times calls into one layer's public functions: gemv_transposed
// and gram (linalg), PathSolver::fit_path (solver), SparseModel::predict and
// predict_batch (model), encode/decode_model and ModelRegistry (serve). The
// probes run after the workload's operations, so they never raise the
// memory marks taken during them.
#include <algorithm>
#include <filesystem>

#include "core/omp.hpp"
#include "harness.hpp"
#include "linalg/blas.hpp"
#include "obs/trace.hpp"
#include "serve/model_codec.hpp"
#include "serve/registry.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/errors.hpp"

namespace perfbench {
namespace {

using rsm::Index;
using rsm::Matrix;
using rsm::Method;
using rsm::Real;
using rsm::obs::JsonValue;

/// Widest design the Gram probe takes: gram() of all 21 311 columns of the
/// paper-scale SRAM design would need 3.6 GB.
constexpr Index kGramMaxCols = 2048;
constexpr Index kBatchRows = 1024;
constexpr int kModelRepeats = 21;

Matrix first_cols(const Matrix& m, Index cols) {
  Matrix out(m.rows(), cols);
  for (Index r = 0; r < m.rows(); ++r)
    std::copy_n(m.data() + r * m.cols(), cols, out.data() + r * cols);
  return out;
}

/// One warm gemv_transposed over the sparse training G, repeated; and
/// gram() of the widest-row design (LS rows on opamp_quadratic), at most
/// kGramMaxCols columns of it.
JsonValue linalg_probes(const Problem& p) {
  JsonValue out = JsonValue::object();
  const Matrix& g = p.sparse_design();
  rsm::Rng rng(1);
  const std::vector<Real> x = rng.normal_vector(g.rows());
  std::vector<Real> y(static_cast<std::size_t>(g.cols()));
  rsm::gemv_transposed(g, x, y);  // warm: pages touched, caches filled
  std::vector<double> scans;
  const double start = now_s();
  while (scans.size() < 15 || (now_s() - start < 0.5 && scans.size() < 2000)) {
    const double t0 = now_s();
    rsm::gemv_transposed(g, x, y);
    scans.push_back(now_s() - t0);
  }
  out.set("scan_s", json_array(scans));
  out.set("scan_rows", static_cast<std::int64_t>(g.rows()));
  out.set("scan_cols", static_cast<std::int64_t>(g.cols()));

  const Matrix sliced = p.g_pool.cols() > kGramMaxCols
                            ? first_cols(p.g_pool, kGramMaxCols)
                            : Matrix();
  const Matrix& gram_in = sliced.empty() ? p.g_pool : sliced;
  std::vector<double> grams;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    (void)rsm::gram(gram_in);
    grams.push_back(now_s() - t0);
  }
  out.set("gram_s", json_array(grams));
  out.set("gram_rows", static_cast<std::int64_t>(gram_in.rows()));
  out.set("gram_cols", static_cast<std::int64_t>(gram_in.cols()));
  return out;
}

/// One fit_path per sparse method on the sparse training G and the first
/// target, to max_lambda steps (the fits give LAR 3x that), with the
/// solver's own iteration spans (lar.step, omp.iteration, star.iteration:
/// the only child of its <method>.fit span). Callers have exported their
/// traces already, so the probe may reset the tracer.
JsonValue solver_probes(const Problem& p, Index max_lambda) {
  JsonValue out = JsonValue::object();
  for (const Method method : {Method::kStar, Method::kLar, Method::kOmp}) {
    const auto solver = rsm::make_path_solver(method);
    rsm::obs::reset_tracing();
    const double t0 = now_s();
    const rsm::SolverPath path =
        solver->fit_path(p.sparse_design(), p.first_values(), max_lambda);
    JsonValue one = JsonValue::object();
    one.set("seconds", now_s() - t0);
    one.set("steps", static_cast<std::int64_t>(path.num_steps()));
    const rsm::obs::SpanStats root = rsm::obs::trace_snapshot();
    if (root.children.size() != 1 || root.children[0].children.size() != 1)
      throw rsm::Error(std::string("unexpected span tree under ") +
                       rsm::method_name(method) + " fit_path");
    const rsm::obs::SpanStats& iteration = root.children[0].children[0];
    one.set("iteration_spans", static_cast<std::int64_t>(iteration.count));
    one.set("iteration_s", iteration.total_seconds);
    out.set(rsm::method_name(method), std::move(one));
  }
  return out;
}

/// Prediction, codec and registry round trip on one fitted model.
JsonValue model_probes(const rsm::SparseModel& model) {
  const Index n = model.dictionary().num_variables();
  rsm::Rng rng(3);
  const Matrix points = rsm::monte_carlo_normal(kBatchRows, n, rng);
  std::vector<Real> out(static_cast<std::size_t>(kBatchRows));
  std::vector<double> predict_ns, batch_rows_per_s, decode_us, load_ms;
  Real sink = 0;
  for (int rep = 0; rep < kModelRepeats; ++rep) {
    double t0 = now_s();
    for (Index r = 0; r < kBatchRows; ++r) sink += model.predict(points.row(r));
    predict_ns.push_back(1e9 * (now_s() - t0) / static_cast<double>(kBatchRows));
    t0 = now_s();
    model.predict_batch(points, out);
    batch_rows_per_s.push_back(static_cast<double>(kBatchRows) / (now_s() - t0));
    sink += out[0];
  }
  const std::string bytes = rsm::serve::encode_model(model);
  const std::string root = "probe_registry";
  std::filesystem::remove_all(root);
  rsm::serve::ModelRegistry registry(root);
  registry.save("probe", model);
  for (int rep = 0; rep < kModelRepeats; ++rep) {
    double t0 = now_s();
    sink += rsm::serve::decode_model(bytes).terms().front().coefficient;
    decode_us.push_back(1e6 * (now_s() - t0));
    t0 = now_s();
    sink += registry.load("probe").terms().front().coefficient;
    load_ms.push_back(1e3 * (now_s() - t0));
  }
  std::filesystem::remove_all(root);
  JsonValue out_json = JsonValue::object();
  out_json.set("predict_ns", json_array(predict_ns));
  out_json.set("batch1024_rows_per_s", json_array(batch_rows_per_s));
  out_json.set("decode_us", json_array(decode_us));
  out_json.set("registry_load_ms", json_array(load_ms));
  // Keeps the probed calls' results observable, so none is optimized away.
  out_json.set("checksum", static_cast<double>(sink));
  return out_json;
}

/// Tracing cost: OMP's path fit to 10 steps on the first target, traced
/// and untraced in ABBA order so drift in the host's speed cancels, for at
/// least 4 s. The spans it toggles are the solver-iteration spans that
/// dominate a fit's span count.
JsonValue trace_cost(const Problem& p) {
  const rsm::OmpSolver omp;
  std::vector<double> traced, untraced;
  const double start = now_s();
  for (int i = 0; i % 4 != 0 || traced.size() < 2 || now_s() - start < 4.0; ++i) {
    const bool on = i % 4 == 0 || i % 4 == 3;
    rsm::obs::set_tracing_enabled(on);
    const double t0 = now_s();
    (void)omp.fit_path(p.sparse_design(), p.first_values(), 10);
    (on ? traced : untraced).push_back(now_s() - t0);
  }
  rsm::obs::set_tracing_enabled(true);
  JsonValue out = JsonValue::object();
  out.set("traced_s", json_array(traced));
  out.set("untraced_s", json_array(untraced));
  return out;
}

}  // namespace

JsonValue layer_probes(const Problem& p, Index max_lambda,
                       const rsm::SparseModel& model) {
  JsonValue out = JsonValue::object();
  out.set("linalg", linalg_probes(p));
  out.set("solver", solver_probes(p, max_lambda));
  out.set("model", model_probes(model));
  out.set("trace_cost", trace_cost(p));
  return out;
}

}  // namespace perfbench
