// Solver-iteration and campaign-sample telemetry through a pluggable sink.
//
// Efron et al. frame LAR as a *path* of per-step correlations and residuals;
// the OMP/STAR/SOMP greedy loops have the same per-iteration shape.
// Each solver emits one SolverIterationEvent per step, cross-validation one
// CvFoldEvent per fold, and the campaign layer one CampaignSampleEvent per
// sample — all through a process-wide TelemetrySink that defaults to null.
//
//   auto ring = std::make_shared<obs::RingBufferSink>();
//   obs::set_telemetry_sink(ring);
//   ... run fits ...
//   for (const obs::TelemetryRecord& rec : ring->records()) ...
//
// Emission sites guard on telemetry_enabled() (one relaxed atomic load), so
// with no sink installed the solvers pay a branch per iteration — nothing
// else. Sinks must be thread-safe; the provided RingBufferSink and
// JsonlFileSink serialize internally with a mutex.
#pragma once

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "obs/json.hpp"
#include "util/common.hpp"
#include "util/errors.hpp"
#include "util/sync.hpp"

namespace rsm::obs {

/// One greedy-solver step (OMP Algorithm 1 steps 3–7 and analogues).
struct SolverIterationEvent {
  const char* solver = "";    // "OMP", "LAR", "STAR", "SOMP"
  Index step = 0;             // 0-based iteration index within this fit
  Index selected = -1;        // basis column entering the support (-1: none)
  Real max_correlation = 0;   // |G' r| of the winning column (solver's score)
  Real residual_norm = 0;     // ||r||_2 after the step
  Index active_count = 0;     // support size after the step
};

/// One cross-validation fold (Section IV-C).
struct CvFoldEvent {
  const char* solver = "";
  int fold = 0;
  Index path_steps = 0;   // steps the fold's path fit produced
  Index best_lambda = 0;  // argmin of this fold's error curve (1-based)
  Real best_rmse = 0;     // the curve value at that lambda
  bool skipped = false;   // degenerate fold excluded from the average
};

/// One campaign sample's final outcome (core/campaign.hpp).
struct CampaignSampleEvent {
  Index sample = -1;     // row index in the original sample matrix
  int attempts = 0;      // attempts consumed (1 = clean first try)
  bool succeeded = false;
  bool recovered = false;  // succeeded after at least one failed attempt
  ErrorCode code = ErrorCode::kOk;  // final classification (kOk on success)
};

using TelemetryRecord =
    std::variant<SolverIterationEvent, CvFoldEvent, CampaignSampleEvent>;

/// Receiver interface. Default implementations discard, so a sink overrides
/// only the event kinds it cares about.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void on_solver_iteration(const SolverIterationEvent&) {}
  virtual void on_cv_fold(const CvFoldEvent&) {}
  virtual void on_campaign_sample(const CampaignSampleEvent&) {}
};

/// Installs the process-wide sink; nullptr restores the default (disabled).
/// Returns the previously installed sink so scopes can restore it.
std::shared_ptr<TelemetrySink> set_telemetry_sink(
    std::shared_ptr<TelemetrySink> sink);

/// The currently installed sink (nullptr when disabled).
[[nodiscard]] std::shared_ptr<TelemetrySink> telemetry_sink();

namespace detail {
extern std::atomic<bool> g_telemetry_enabled;
}

/// Fast emission guard: true iff a sink is installed.
[[nodiscard]] inline bool telemetry_enabled() {
  return detail::g_telemetry_enabled.load(std::memory_order_relaxed);
}

/// Routes the event to the installed sink; no-ops when disabled. Callers on
/// hot paths should guard with telemetry_enabled() before building the
/// event.
void emit(const SolverIterationEvent& event);
void emit(const CvFoldEvent& event);
void emit(const CampaignSampleEvent& event);

/// Bounded in-memory sink: keeps the most recent `capacity` records (FIFO
/// eviction), counting what it dropped.
class RingBufferSink : public TelemetrySink {
 public:
  explicit RingBufferSink(std::size_t capacity = 1 << 16);

  void on_solver_iteration(const SolverIterationEvent& event) override;
  void on_cv_fold(const CvFoldEvent& event) override;
  void on_campaign_sample(const CampaignSampleEvent& event) override;

  /// Retained records, oldest first.
  [[nodiscard]] std::vector<TelemetryRecord> records() const;

  /// Records evicted because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const;

  void clear();

 private:
  void push(TelemetryRecord record);

  mutable Mutex mutex_{"obs.telemetry.ring", lock_rank::kTelemetryRing};
  std::size_t capacity_;
  // Index of the oldest record once saturated.
  std::size_t head_ RSM_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ RSM_GUARDED_BY(mutex_) = 0;
  std::vector<TelemetryRecord> ring_ RSM_GUARDED_BY(mutex_);
};

/// Appends one JSON object per event to a file — the JSONL interchange
/// format scripts/check_bench_json.py and notebook tooling consume. Every
/// line carries a "type" discriminator ("solver_iteration", "cv_fold",
/// "campaign_sample") plus the event's fields; flushed per line so a crash
/// loses at most the current event.
class JsonlFileSink : public TelemetrySink {
 public:
  /// Truncates and opens `path`; throws rsm::Error when unwritable.
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  void on_solver_iteration(const SolverIterationEvent& event) override;
  void on_cv_fold(const CvFoldEvent& event) override;
  void on_campaign_sample(const CampaignSampleEvent& event) override;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void write_line(const std::string& line);

  Mutex mutex_{"obs.telemetry.jsonl", lock_rank::kTelemetryJsonl};
  std::string path_;
  std::FILE* file_ RSM_PT_GUARDED_BY(mutex_) = nullptr;
};

/// One record as a JSON object with a "type" discriminator
/// ("solver_iteration", "cv_fold", "campaign_sample") plus the event's
/// fields — the shared shape of JSONL lines and embedded report records.
[[nodiscard]] JsonValue telemetry_record_value(const TelemetryRecord& record);

/// telemetry_record_value() serialized to one compact line.
[[nodiscard]] std::string telemetry_record_json(const TelemetryRecord& record);

}  // namespace rsm::obs
