// Common interface for deadline-constrained job admission controls and the
// trace driver that feeds them.
#pragma once

#include <string_view>
#include <vector>

#include "metrics/collector.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "support/hooks.hpp"
#include "trace/recorder.hpp"
#include "workload/job.hpp"

namespace librisk::core {

using metrics::Collector;
using workload::Job;

/// A cluster RMS policy: receives each job at its submission instant and is
/// responsible for eventually resolving it in the collector (reject, or
/// start + complete). Implementations drive their own executors off the
/// shared Simulator.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Called exactly once per job, at job.submit_time, after the collector
  /// has recorded the submission.
  virtual void on_job_submitted(const Job& job) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Placement detail of the most recent admission decision, for
  /// AdmissionEngine::submit's per-job outcome. Valid only while
  /// `job_id` matches the job just submitted — policies that queue instead
  /// of deciding at submission leave it untouched (the engine checks the id
  /// and reports such jobs as queued). Rejection *reasons* travel through
  /// the collector record, which survives later overwrites; this struct
  /// carries what the collector cannot: the node the job landed on and the
  /// tentative sigma its admission test saw.
  struct Decision {
    std::int64_t job_id = -1;
    std::int32_t node = -1;  ///< first selected node; -1 when none
    double sigma = -1.0;     ///< tentative sigma (Eq. 6); -1 when no sigma test ran
    /// Chosen-node admission margin (signed headroom of the decisive test,
    /// obs::NodeMargin convention); 0.0 when the policy computes none.
    double margin = 0.0;
    /// The admission went through a degraded-mode bend (core/overload.hpp):
    /// the job failed the normal test and a licensed mode admitted it
    /// anyway. The engine reports such jobs as Verdict::DegradedAdmit.
    bool degraded = false;
    /// The decision was parked by DeferToSalvage: no verdict yet, a salvage
    /// retry is scheduled. The engine reports Verdict::Deferred.
    bool deferred = false;
  };
  [[nodiscard]] const Decision& last_decision() const noexcept {
    return last_decision_;
  }

  /// Attaches the observation hooks (docs/TRACING.md, docs/OBSERVABILITY.md)
  /// in one shot: the trace recorder receives admission events, and a
  /// non-null telemetry makes the scheduler register its counters as pull
  /// metrics and contribute samplers via on_telemetry(). Call at most once,
  /// before the first submission; both hooks are optional and a null hook
  /// costs one branch per hook site.
  void attach(const Hooks& hooks) {
    trace_ = hooks.trace;
    telemetry_ = hooks.telemetry;
    profiler_ = hooks.telemetry != nullptr ? &hooks.telemetry->profiler() : nullptr;
    if (hooks.telemetry != nullptr) on_telemetry(*hooks.telemetry);
  }

 protected:
  Scheduler() = default;

  /// Registration hook: add pull metrics, series and samplers. Called once
  /// from attach() with a telemetry that outlives the run.
  virtual void on_telemetry(obs::Telemetry& telemetry) { (void)telemetry; }

  /// Records the placement of an accepted job for last_decision().
  void note_decision(std::int64_t job_id, std::int32_t node, double sigma,
                     double margin = 0.0, bool degraded = false) noexcept {
    last_decision_ = Decision{job_id, node, sigma, margin, degraded, false};
  }

  /// Records that DeferToSalvage parked `job_id` (no placement yet); the
  /// engine maps a pending job carrying this mark to Verdict::Deferred.
  void note_deferred(std::int64_t job_id) noexcept {
    last_decision_ = Decision{job_id, -1, -1.0, 0.0, false, true};
  }

  /// Borrowed, may be null; subclasses emit admission events through it.
  trace::Recorder* trace_ = nullptr;
  /// Borrowed, may be null.
  obs::Telemetry* telemetry_ = nullptr;
  /// Cached &telemetry_->profiler(), null when telemetry is absent — so
  /// ScopedPhase sites pay a single null check.
  obs::PhaseProfiler* profiler_ = nullptr;

 private:
  Decision last_decision_;
};

/// Batch driver: submits every job of a validated, submit-ordered trace and
/// drains the simulation to completion. A thin loop over
/// core::AdmissionEngine (engine.hpp) in borrowed mode — the engine copies
/// each job into its own storage, so the vector only needs to outlive the
/// call itself. `hooks.trace` receives a JobSubmitted event per arrival
/// (before the scheduler sees the job); `hooks.telemetry` is armed on the
/// simulator (metronome sampling + queue-depth gauge), the drain is timed
/// as the `run` phase, and a terminal sample is taken at end-of-run time.
/// The hooks must be the same ones already attached to the scheduler stack
/// (PolicyOptions::hooks wires both when the stack comes from the factory).
void run_trace(sim::Simulator& simulator, Scheduler& scheduler,
               Collector& collector, const std::vector<Job>& jobs,
               const Hooks& hooks = {});

}  // namespace librisk::core
