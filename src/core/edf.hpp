// Non-preemptive space-shared Earliest Deadline First (paper Section 4).
//
// Jobs queue at submission; whenever capacity frees or a job arrives, EDF
// selects the queued job with the earliest absolute deadline. Its admission
// control is *relaxed*: a job is rejected only when selected, if its
// deadline has expired or can no longer be met by its runtime estimate.
// If the selected job cannot start for lack of free processors, EDF waits
// for them (head-of-line blocking) — but a later-arriving job with an
// earlier deadline can displace the head during the wait, which is the
// "better selection choice" advantage the paper discusses. EDF-NoAC
// (admission control disabled) is the paper's Section 4 observation that
// EDF without admission control performs far worse.
#pragma once

#include <string>
#include <vector>

#include "cluster/spaceshared.hpp"
#include "core/libra.hpp"  // AdmissionStats (the shared stats shape)
#include "core/scheduler.hpp"

namespace librisk::core {

struct EdfConfig {
  /// When false, never reject: expired jobs run anyway and count as late.
  bool admission_control = true;
  /// EASY-style backfilling on top of EDF order (extension; the paper's EDF
  /// does not backfill): while the earliest-deadline job waits for
  /// processors, a later-deadline job may start if — by runtime estimates —
  /// it cannot delay the head's reservation.
  bool backfilling = false;
  /// Graceful-degradation catalog entry (core/overload.hpp). EDF's only
  /// rejection site is the dispatch-time deadline-feasibility test, so the
  /// only mode with something to bend is DowngradeQoS (evaluate feasibility
  /// against deadline x downgrade_factor while engaged); every other mode
  /// behaves exactly like HardReject here (docs/OVERLOAD.md support matrix).
  OverloadConfig overload;
};

class EdfScheduler final : public Scheduler {
 public:
  EdfScheduler(sim::Simulator& simulator, cluster::SpaceSharedExecutor& executor,
               Collector& collector, EdfConfig config, std::string name = "EDF");

  void on_job_submitted(const Job& job) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }

  /// Hot-path counters in the shared AdmissionStats shape. EDF has no node
  /// scan, so only submissions/accepted/rejections, the reason attribution
  /// and the deadline near-miss pair are populated. Rejections happen at
  /// dispatch (the relaxed admission control) and emit JobRejected; a normal
  /// acceptance is implicit in starting and emits no decision event, so
  /// obs::ExplainRecorder holds records for rejections and DowngradeQoS
  /// degraded admits (JobDegradedAdmit) only.
  [[nodiscard]] const AdmissionStats& admission_stats() const noexcept {
    return stats_;
  }

 private:
  void dispatch();
  void start_job(const Job& job);
  /// True when the job, started now on the fastest free nodes, could still
  /// meet its deadline according to its runtime estimate.
  [[nodiscard]] bool deadline_feasible(const Job& job) const;
  /// Signed headroom of that test (obs::NodeMargin convention):
  /// absolute_deadline - (now + best_runtime); the feasibility test passes
  /// iff margin >= -kTimeEpsilon (and the deadline has not expired).
  [[nodiscard]] double deadline_margin(const Job& job) const;
  /// EASY reservation for the waiting head (backfilling only).
  struct Reservation {
    sim::SimTime shadow_time = 0.0;
    int extra_nodes = 0;
  };
  [[nodiscard]] Reservation head_reservation(const Job& head) const;

  // ---- overload-catalog consult (core/overload.hpp) ----
  /// EDF's load signal: busy-processor fraction.
  [[nodiscard]] LoadSignal load_signal() const noexcept;
  /// DowngradeQoS consult at the dispatch rejection site: true when the
  /// selected job, infeasible at its submitted deadline, is feasible at the
  /// downgraded one — the job then keeps its granted extension (sticky in
  /// downgraded_deadline_) so later passes stay consistent even after the
  /// governor disengages.
  [[nodiscard]] bool try_degrade_head(const Job& job);

  sim::Simulator& sim_;
  cluster::SpaceSharedExecutor& executor_;
  Collector& collector_;
  EdfConfig config_;
  std::string name_;
  AdmissionStats stats_;
  std::vector<const Job*> queue_;
  /// Estimate-based completion times of running jobs (backfilling only).
  std::map<std::int64_t, sim::SimTime> estimated_finish_;
  /// Only DowngradeQoS has a license EDF can honor; every other mode keeps
  /// this false and the consult sites dead (byte-identity under HardReject).
  bool overload_enabled_ = false;
  OverloadGovernor governor_;
  /// Granted deadline extensions (job id -> effective absolute deadline);
  /// erased at start (with degraded-admit provenance) or final rejection.
  std::map<std::int64_t, sim::SimTime> downgraded_deadline_;
};

}  // namespace librisk::core
