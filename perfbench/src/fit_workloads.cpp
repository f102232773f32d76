// The two fit-path workloads.
//
//   sram_table4      Table IV at paper scale: the 128x166 SRAM read path,
//                    21 310 variables, linear Hermite dictionary (M = 21 311),
//                    K = 1000 training + 1000 test samples; STAR and OMP
//                    with 4-fold CV, max_lambda 80. (LAR fails its output
//                    check here; see spec_for.)
//   opamp_quadratic  Tables II/III at their default size: the 630-variable
//                    OpAmp, a linear OMP screening fit (K = 600) keeps the top
//                    50 variables, quadratic dictionary (M = 1326); STAR, LAR,
//                    OMP at K = 500 with 4-fold CV, max_lambda 120 (LAR 360),
//                    and LS by normal equations at K = 1658, for all four
//                    performances.
//
// Both follow bench/table4_sram.cpp and bench/quadratic_opamp.cpp call for
// call, so --seed 0 reproduces the committed tables; seed s uses the table's
// own generator seed + s. Set-up (simulation, design matrices, screening) is
// timed apart from the fits and repeated five times in an untraced run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "basis/dictionary.hpp"
#include "checks.hpp"
#include "circuits/opamp.hpp"
#include "core/pipeline.hpp"
#include "harness.hpp"
#include "obs/resource.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "sram/sram.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

using rsm::BasisDictionary;
using rsm::BuildOptions;
using rsm::Index;
using rsm::Matrix;
using rsm::Method;
using rsm::Real;
using rsm::obs::JsonValue;

constexpr int kSetupRepeats = 5;
constexpr double kShortFitS = 1.0;
constexpr double kRepeatBelowS = 2.0;
constexpr std::size_t kMinRepeats = 3;
constexpr std::size_t kMaxRepeats = 7;

struct Spec {
  std::vector<Method> methods;  // in the table's column order
  Index max_lambda = 0;         // LAR uses 3x, as the tables do
  double error_bound = 0;       // per-fit held-out relative error limit
};

Spec spec_for(const std::string& workload) {
  if (workload == "sram_table4")
    // Bound: the paper's LS error on this circuit (Table IV, 9.78 %); the
    // sparse fits are the paper's claim that 25x fewer samples do better.
    // LAR is left out: at this scale it fails its equiangularity check for
    // every seed (absolute step tolerances in core/lar, see README.md). The
    // traced run still times its path as a layer probe.
    return {{Method::kStar, Method::kOmp}, 80, 0.0978};
  // Bound: 10 % on every performance, about twice the worst cell of
  // Table II (bandwidth, 5-6 %).
  return {{Method::kLeastSquares, Method::kStar, Method::kLar, Method::kOmp},
          120, 0.10};
}

Index max_lambda_for(const Spec& spec, Method method, const Problem& p) {
  if (method == Method::kLeastSquares) return p.dict->size();
  return method == Method::kLar ? 3 * spec.max_lambda : spec.max_lambda;
}

Matrix first_rows(const Matrix& m, Index rows) {
  Matrix out(rows, m.cols());
  std::copy(m.data(), m.data() + rows * m.cols(), out.data());
  return out;
}

}  // namespace

std::unique_ptr<Problem> setup_sram(std::uint64_t seed, int rows, int cols,
                                    Index k_train) {
  rsm::sram::SramConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  const rsm::sram::SramWorkload sram(cfg);
  const Index n = sram.num_variables();
  auto p = std::make_unique<Problem>();
  p->dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(n));
  p->k_sparse = k_train;

  rsm::Rng rng(44 + seed);
  const double t0 = now_s();
  const auto simulate = [&](Index count, std::vector<Real>& delays) {
    Matrix inputs = rsm::monte_carlo_normal(count, n, rng);
    delays.reserve(static_cast<std::size_t>(count));
    for (Index k = 0; k < count; ++k) delays.push_back(sram.evaluate(inputs.row(k)));
    return inputs;
  };
  Target delay{"delay", {}, {}};
  const Matrix pool = simulate(p->k_sparse, delay.f_pool);
  p->test_inputs = simulate(1000, delay.f_test);
  p->samples_simulated = k_train + 1000;
  p->sim_s = now_s() - t0;
  p->targets.push_back(std::move(delay));

  const double t1 = now_s();
  p->g_pool = p->dict->design_matrix(pool);
  p->design_s = now_s() - t1;
  return p;
}

namespace {

std::unique_ptr<Problem> setup_opamp(std::uint64_t seed) {
  using rsm::circuits::OpAmpMetric;
  using rsm::circuits::OpAmpMetrics;
  rsm::circuits::OpAmpConfig cfg;
  cfg.num_variables = 630;
  const rsm::circuits::OpAmpWorkload opamp(cfg);
  const Index n = opamp.num_variables();
  constexpr Index kTopVars = 50;
  auto p = std::make_unique<Problem>();
  rsm::Rng rng(2009 + seed);

  const auto simulate = [&](Index count, std::vector<OpAmpMetrics>& metrics) {
    const double t0 = now_s();
    Matrix inputs = rsm::monte_carlo_normal(count, n, rng);
    metrics.reserve(static_cast<std::size_t>(count));
    for (Index k = 0; k < count; ++k) metrics.push_back(opamp.evaluate(inputs.row(k)));
    p->sim_s += now_s() - t0;
    p->samples_simulated += count;
    return inputs;
  };
  const auto values = [](const std::vector<OpAmpMetrics>& metrics,
                         OpAmpMetric metric) {
    std::vector<Real> out;
    out.reserve(metrics.size());
    for (const OpAmpMetrics& m : metrics) out.push_back(m.get(metric));
    return out;
  };

  // Stage 1: linear OMP screening ranks the variables.
  std::vector<OpAmpMetrics> screen_metrics;
  const Matrix screen = simulate(600, screen_metrics);
  auto lin_dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(n));
  double t0 = now_s();
  const Matrix g_screen = lin_dict->design_matrix(screen);
  p->design_s += now_s() - t0;
  std::vector<Real> importance(static_cast<std::size_t>(n), Real{0});
  for (OpAmpMetric metric : rsm::circuits::kAllOpAmpMetrics) {
    BuildOptions opt;
    opt.method = Method::kOmp;
    opt.max_lambda = 80;
    opt.skip_cross_validation = true;
    const rsm::BuildReport rpt = rsm::build_model_from_design(
        lin_dict, g_screen, values(screen_metrics, metric), opt);
    const Real scale = std::sqrt(rpt.model.analytic_variance());
    if (scale <= 0) continue;
    for (const rsm::ModelTerm& t : rpt.model.terms()) {
      const rsm::MultiIndex& mi = lin_dict->index(t.basis_index);
      if (mi.is_constant()) continue;
      Real& imp = importance[static_cast<std::size_t>(mi.terms()[0].variable)];
      imp = std::max(imp, std::abs(t.coefficient) / scale);
    }
  }
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(), [&](Index a, Index b) {
    return importance[static_cast<std::size_t>(a)] >
           importance[static_cast<std::size_t>(b)];
  });
  std::vector<Index> critical(order.begin(), order.begin() + kTopVars);
  std::sort(critical.begin(), critical.end());

  // Stage 2: quadratic dictionary over the critical variables.
  p->dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(kTopVars));
  const Index k_ls = static_cast<Index>(
      std::ceil(1.25 * static_cast<Real>(p->dict->size())));
  p->k_sparse = 500;
  std::vector<OpAmpMetrics> pool_metrics, test_metrics;
  const Matrix pool = simulate(k_ls, pool_metrics);
  const Matrix test = simulate(800, test_metrics);
  const auto select = [&](const Matrix& samples) {
    Matrix out(samples.rows(), kTopVars);
    for (Index r = 0; r < samples.rows(); ++r)
      for (Index j = 0; j < kTopVars; ++j)
        out(r, j) = samples(r, critical[static_cast<std::size_t>(j)]);
    return out;
  };
  p->test_inputs = select(test);
  t0 = now_s();
  p->g_pool = p->dict->design_matrix(select(pool));
  p->design_s += now_s() - t0;
  p->g_sparse = first_rows(p->g_pool, p->k_sparse);
  for (OpAmpMetric metric : rsm::circuits::kAllOpAmpMetrics)
    p->targets.push_back({rsm::circuits::opamp_metric_name(metric),
                          values(pool_metrics, metric),
                          values(test_metrics, metric)});
  return p;
}

std::unique_ptr<Problem> setup(const RunArgs& args) {
  return args.workload == "sram_table4" ? setup_sram(args.seed, 128, 166, 1000)
                                        : setup_opamp(args.seed);
}

/// Records the resident-set high-water mark when the last CV fold ends —
/// the boundary between the CV and final-fit phases inside
/// build_model_from_design, which is otherwise invisible from outside. Folds
/// are counted rather than matched by index, so the mark is still taken at
/// the end of CV when folds finish out of order.
class CvEndSink final : public rsm::obs::TelemetrySink {
 public:
  explicit CvEndSink(int folds) : folds_(folds) {}
  void on_cv_fold(const rsm::obs::CvFoldEvent&) override {
    if (done_.fetch_add(1) + 1 == folds_) hwm_mb_.store(rss_hwm_mb());
  }
  double take() { return hwm_mb_.exchange(0); }

 private:
  int folds_;
  std::atomic<int> done_{0};
  std::atomic<double> hwm_mb_{0};
};

/// Span-tree figures of one traced build_model_from_design call.
JsonValue span_figures(const rsm::obs::SpanStats& root) {
  JsonValue out = JsonValue::object();
  const rsm::obs::SpanStats* fit = root.child("pipeline.fit");
  if (fit == nullptr) return out;
  if (const auto* ls = fit->child("pipeline.least_squares"))
    out.set("final_s", ls->total_seconds);
  if (const auto* cv = fit->child("pipeline.cross_validation")) {
    out.set("cv_s", cv->total_seconds);
    const auto* run = cv->child("cv.run");
    const auto* fold = run != nullptr ? run->child("cv.fold") : nullptr;
    if (fold != nullptr) {
      double children = 0;
      for (const auto& c : fold->children) children += c.total_seconds;
      out.set("folds", static_cast<std::int64_t>(fold->count));
      out.set("fold_total_s", fold->total_seconds);
      out.set("fold_min_s", fold->min_seconds);
      out.set("fold_max_s", fold->max_seconds);
      out.set("fold_solver_s", children);
    }
  }
  if (const auto* final_fit = fit->child("pipeline.final_fit"))
    out.set("final_s", final_fit->total_seconds);
  return out;
}

/// Writes the current span trees as a Chrome trace beside RSM_TRACE_EXPORT
/// (one file per fit, since the tracer is reset between fits).
void export_fit_trace(const std::string& method, const std::string& target) {
  const std::string& base = rsm::obs::trace_export_path();
  if (base.empty()) return;
  const std::string stem = base.size() > 5 &&
                                   base.compare(base.size() - 5, 5, ".json") == 0
                               ? base.substr(0, base.size() - 5)
                               : base;
  (void)rsm::obs::write_chrome_trace(stem + "." + method + "." + target + ".json",
                                     "perfbench." + method + "." + target);
}

}  // namespace

Fit run_fit(const Problem& p, const Matrix& g, std::span<const Real> f,
            const BuildOptions& opt, bool traced) {
  std::shared_ptr<CvEndSink> sink;
  if (traced) {
    rsm::obs::reset_tracing();
    sink = std::make_shared<CvEndSink>(opt.cv_folds);
    rsm::obs::set_telemetry_sink(sink);
  }
  Fit fit;
  const double t0 = now_s();
  fit.report = rsm::build_model_from_design(p.dict, g, f, opt);
  fit.seconds = now_s() - t0;
  if (traced) {
    rsm::obs::set_telemetry_sink(nullptr);
    fit.spans = span_figures(rsm::obs::trace_snapshot());
    fit.spans.set("rss_hwm_cv_mb", sink->take());
    fit.spans.set("rss_hwm_final_mb", rss_hwm_mb());
  }
  return fit;
}

namespace {

/// One pass of every fit. Returns the failed-fit count; `probe_model` gets
/// the first target's OMP model.
int fit_pass(const Spec& spec, const Problem& p, bool traced, JsonValue& fits,
             rsm::SparseModel& probe_model) {
  int failed = 0;
  for (const Target& target : p.targets) {
    for (const Method method : spec.methods) {
      const bool is_ls = method == Method::kLeastSquares;
      const Matrix& g = is_ls ? p.g_pool : p.sparse_design();
      const std::span<const Real> f_train(target.f_pool.data(),
                                          static_cast<std::size_t>(g.rows()));
      BuildOptions opt;
      opt.method = method;
      opt.max_lambda = max_lambda_for(spec, method, p);
      if (is_ls) opt.ridge = 1e-8 * static_cast<Real>(g.rows());

      Fit fit = run_fit(p, g, f_train, opt, traced);
      const rsm::BuildReport& rpt = fit.report;
      std::vector<double> times{fit.seconds};
      // Untraced, a fit under kRepeatBelowS runs at least kMinRepeats times
      // and one under kShortFitS until kShortFitS is spent, at most
      // kMaxRepeats times; it is timed by the median. The host's load from
      // other tenants comes in bursts of about a second, and the median
      // keeps one burst from moving a 1.5 s fit by 30 %.
      double spent = times.back();
      const auto more = [&] {
        return spent < kShortFitS ||
               (times.front() < kRepeatBelowS && times.size() < kMinRepeats);
      };
      while (!traced && times.size() < kMaxRepeats && more()) {
        times.push_back(run_fit(p, g, f_train, opt, false).seconds);
        spent += times.back();
      }
      const double seconds = median(times);
      const double test_error =
          rsm::validate_model(rpt.model, p.test_inputs, target.f_test);

      std::vector<std::string> failures =
          check_model(rpt.model, max_lambda_for(spec, method, p));
      const auto add = [&failures](std::vector<std::string> more) {
        failures.insert(failures.end(), more.begin(), more.end());
      };
      add(check_test_error(test_error, spec.error_bound));
      if (method == Method::kOmp) add(check_omp(g, f_train, rpt.model));
      if (method == Method::kLar) add(check_lar(g, f_train, rpt.model));
      if (method == Method::kOmp && &target == &p.targets.front())
        probe_model = rpt.model;

      JsonValue record = JsonValue::object();
      record.set("method", rsm::method_name(method));
      record.set("target", target.name);
      record.set("seconds", seconds);
      record.set("test_error", static_cast<double>(test_error));
      JsonValue fails = JsonValue::array();
      for (const std::string& f : failures) fails.push_back(f);
      record.set("failures", std::move(fails));
      if (traced) {
        record.set("spans", std::move(fit.spans));
        export_fit_trace(rsm::method_name(method), target.name);
      }
      std::printf("  %-9s %-4s lambda=%-5ld err=%6.3f%% fit=%.3f s (median of %zu)%s\n",
                  target.name.c_str(), rsm::method_name(method),
                  static_cast<long>(rpt.lambda), 100.0 * test_error, seconds,
                  times.size(), failures.empty() ? "" : "  CHECK FAILED");
      for (const std::string& f : failures) std::printf("    %s\n", f.c_str());
      if (!failures.empty()) ++failed;
      fits.push_back(std::move(record));
    }
  }
  return failed;
}

}  // namespace

int run_fit_workload(const RunArgs& args, JsonValue& out) {
  const Spec spec = spec_for(args.workload);
  std::unique_ptr<Problem> problem;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    problem.reset();  // never hold two set-ups at once
    const double t0 = now_s();
    problem = setup(args);
    setup_s.push_back(now_s() - t0);
  }
  const Problem& p = *problem;
  std::printf("%s: M = %ld, K = %ld (sparse) / %ld, set-up %.3f s\n",
              args.workload.c_str(), static_cast<long>(p.dict->size()),
              static_cast<long>(p.k_sparse), static_cast<long>(p.g_pool.rows()),
              setup_s.back());
  out.set("setup_s", json_array(setup_s));

  JsonValue layers = JsonValue::object();
  if (args.trace) {
    layers.set("sim_samples", static_cast<std::int64_t>(p.samples_simulated));
    layers.set("sim_s", p.sim_s);
    layers.set("design_matrix_s", p.design_s);
    layers.set("rss_after_setup_mb", rss_hwm_mb());
  }

  // Fits: whole passes until --seconds have been measured, at least one.
  int failed = 0;
  rsm::SparseModel probe_model;
  JsonValue passes = JsonValue::array();
  const rsm::obs::ResourceUsage before = rsm::obs::sample_resource_usage();
  const double t0 = now_s();
  do {
    JsonValue fits = JsonValue::array();
    failed += fit_pass(spec, p, args.trace, fits, probe_model);
    passes.push_back(std::move(fits));
  } while (!args.trace && now_s() - t0 < args.seconds);
  const double wall = now_s() - t0;
  const rsm::obs::ResourceUsage used =
      rsm::obs::resource_delta(rsm::obs::sample_resource_usage(), before);
  out.set("peak_rss_mb", rss_hwm_mb());
  out.set("passes", std::move(passes));

  if (args.trace) {
    JsonValue proc = JsonValue::object();
    proc.set("wall_s", wall);
    proc.set("cpu_s", used.user_cpu_seconds + used.system_cpu_seconds);
    proc.set("invol_ctx_switches", used.involuntary_ctx_switches);
    layers.set("proc", std::move(proc));
    layers.set("probes", layer_probes(p, spec.max_lambda, probe_model));
    out.set("layers", std::move(layers));
  }
  return failed;
}

}  // namespace perfbench
