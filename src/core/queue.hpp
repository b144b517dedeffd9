// Space-shared queue scheduling: the paper's EDF baseline (Section 4) and
// the batch-scheduling baselines beside it, as one scheduler.
//
// Jobs queue at submission; whenever capacity frees or a job arrives, the
// dispatcher selects the queue head — the earliest absolute deadline, or the
// earliest arrival — and starts it on free processors. If the head cannot
// start for lack of free processors the queue waits for them (head-of-line
// blocking), but under deadline order a later-arriving job with an earlier
// deadline can displace the head during the wait, which is the "better
// selection choice" advantage the paper discusses.
//
// The six space-shared policies differ only in QueueConfig (factory.cpp
// holds the Policy -> config table):
//   EDF       deadline order + dispatch admission (the paper's relaxed
//             admission control: reject a job only when it is selected, if
//             its deadline has expired or can no longer be met by its
//             runtime estimate)
//   EDF-NoAC  deadline order, no admission (the paper's Section 4 remark
//             that EDF without admission control performs far worse)
//   EDF-BF    EDF + backfilling (extension)
//   FCFS      arrival order, no admission
//   EASY      arrival order + backfilling (Mu'alem & Feitelson)
//   QoPS      deadline order + the submission-time slack test (Islam et
//             al., Cluster 2004 — the paper's related work [6])
//
// Every submission closes through Scheduler's decision step. A job is
// admitted when it starts, at dispatch — except under QoPS, whose
// submission test admits (or rejects) it on arrival; its later start then
// carries no second decision.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/spaceshared.hpp"
#include "core/overload.hpp"
#include "core/scheduler.hpp"

namespace librisk::core {

struct QueueConfig {
  enum class Order { Deadline, Arrival };
  /// Which queued job dispatch selects: earliest absolute deadline (ties on
  /// job id) or earliest arrival.
  Order order = Order::Deadline;
  /// The relaxed dispatch-time admission control: reject the selected job
  /// when its deadline has expired or its estimate, run on the fastest
  /// node from now, would miss it. Off: never reject at dispatch — expired
  /// jobs run anyway and count as late.
  bool dispatch_admission = true;
  /// EASY backfilling: while the head waits for processors, a later job (in
  /// queue order) may start if — by runtime estimates — it cannot delay the
  /// head's reservation.
  bool backfilling = false;
  /// QoPS's submission-time test (feasible_with), off when unset: admit
  /// only if a schedule exists, by estimates, in which every queued job and
  /// the newcomer finish within slack x deadline of submission. The slack
  /// (>= 1; exactly 1 enforces hard deadlines at admission) is the "soft
  /// deadline" feature the paper contrasts with its own hard-deadline
  /// focus; completion accounting still uses the hard deadline.
  std::optional<double> qops_slack;
  /// Graceful-degradation catalog entry (core/overload.hpp). The only
  /// rejection site with something to bend is the dispatch-time deadline
  /// test, so the only effective mode is DowngradeQoS (evaluate feasibility
  /// against deadline x downgrade_factor while engaged); every other mode
  /// behaves exactly like HardReject here (docs/OVERLOAD.md support matrix).
  OverloadConfig overload;
};

class QueueScheduler final : public Scheduler {
 public:
  QueueScheduler(sim::Simulator& simulator, cluster::SpaceSharedExecutor& executor,
                 Collector& collector, QueueConfig config, std::string name = "EDF");

  void on_job_submitted(const Job& job) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }
  [[nodiscard]] const QueueConfig& config() const noexcept { return config_; }

  /// The QoPS admission test, exposed for unit testing: simulates the
  /// deadline-order dispatch forward with estimates (running jobs release
  /// their nodes at their estimated completions, waiting jobs start when
  /// enough nodes are free) and answers whether every queued job plus
  /// `candidate` would finish within its slack-relaxed deadline.
  [[nodiscard]] bool feasible_with(const Job& candidate) const;

 private:
  void dispatch();
  /// Starts `job` on free nodes; admits it first unless the submission test
  /// already did (QoPS).
  void start_job(const Job& job);
  [[nodiscard]] double best_runtime(const Job& job) const noexcept {
    return job.scheduler_estimate / executor_.cluster().max_speed_factor();
  }
  /// True when the job, started now on the fastest free nodes, could still
  /// meet its deadline according to its runtime estimate.
  [[nodiscard]] bool deadline_feasible(const Job& job) const;
  /// Signed headroom of that test (obs::NodeMargin convention):
  /// absolute_deadline - (now + best_runtime); the feasibility test passes
  /// iff margin >= -kTimeEpsilon (and the deadline has not expired).
  [[nodiscard]] double deadline_margin(const Job& job) const;
  /// Node releases of the running jobs by estimated completion; an estimate
  /// that already expired is treated as "any moment now".
  struct Release {
    sim::SimTime time;
    int procs;
  };
  [[nodiscard]] std::vector<Release> releases() const;
  /// EASY reservation for the waiting head: its estimated start, and the
  /// free nodes beyond its need at that time (backfilling only).
  struct Reservation {
    sim::SimTime shadow_time = 0.0;
    int extra_nodes = 0;
  };
  [[nodiscard]] Reservation head_reservation(const Job& head) const;

  // ---- overload-catalog consult (core/overload.hpp) ----
  /// The load signal: busy-processor fraction.
  [[nodiscard]] LoadSignal load_signal() const noexcept;
  /// DowngradeQoS consult at the dispatch rejection site: true when the
  /// selected job, infeasible at its submitted deadline, is feasible at the
  /// downgraded one — the job then keeps its granted extension (sticky in
  /// downgraded_deadline_) so later passes stay consistent even after the
  /// governor disengages.
  [[nodiscard]] bool try_degrade_head(const Job& job);

  sim::Simulator& sim_;
  cluster::SpaceSharedExecutor& executor_;
  QueueConfig config_;
  std::string name_;
  /// Waiting jobs in arrival order.
  std::vector<const Job*> queue_;
  /// Estimate-based completion times of running jobs (job id -> time), the
  /// knowledge reservations and the QoPS test are built from.
  std::map<std::int64_t, sim::SimTime> estimated_finish_;
  /// Only DowngradeQoS under dispatch admission has a license to bend; every
  /// other configuration keeps this false and the consult sites dead
  /// (byte-identity under HardReject).
  bool overload_enabled_ = false;
  OverloadGovernor governor_;
  /// Granted deadline extensions (job id -> effective absolute deadline);
  /// erased at start (with degraded-admit provenance) or final rejection.
  std::map<std::int64_t, sim::SimTime> downgraded_deadline_;
};

}  // namespace librisk::core
