#include "core/edf.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/log.hpp"

namespace librisk::core {

EdfScheduler::EdfScheduler(sim::Simulator& simulator,
                           cluster::SpaceSharedExecutor& executor,
                           Collector& collector, EdfConfig config, std::string name)
    : sim_(simulator),
      executor_(executor),
      collector_(collector),
      config_(config),
      name_(std::move(name)) {
  governor_ = OverloadGovernor(config_.overload);
  // EDF's one rejection site tests deadline feasibility, so DowngradeQoS is
  // the only mode with a license to bend it; the rest reduce to HardReject.
  overload_enabled_ =
      governor_.enabled() && config_.overload.mode == DegradedMode::DowngradeQoS;
  executor_.set_completion_handler([this](const Job& job, sim::SimTime finish) {
    estimated_finish_.erase(job.id);
    collector_.record_completed(job, finish);
    dispatch();  // freed processors may admit the queue head
  });
  executor_.set_kill_handler([this](const Job& job, sim::SimTime when) {
    estimated_finish_.erase(job.id);
    collector_.record_killed(job, when);
    dispatch();
  });
}

bool EdfScheduler::deadline_feasible(const Job& job) const {
  const sim::SimTime now = sim_.now();
  if (now > job.absolute_deadline()) return false;  // deadline expired
  const double best_runtime =
      job.scheduler_estimate / executor_.cluster().max_speed_factor();
  return now + best_runtime <= job.absolute_deadline() + sim::kTimeEpsilon;
}

double EdfScheduler::deadline_margin(const Job& job) const {
  const double best_runtime =
      job.scheduler_estimate / executor_.cluster().max_speed_factor();
  return job.absolute_deadline() - (sim_.now() + best_runtime);
}

void EdfScheduler::on_job_submitted(const Job& job) {
  // The recorder arrives via attach() after construction; borrow it lazily.
  if (overload_enabled_) governor_.attach(trace_);
  ++stats_.submissions;
  // A request larger than the machine can never run; even EDF-NoAC must
  // reject it or the queue head would block forever.
  if (job.num_procs > executor_.cluster().size()) {
    ++stats_.rejections;
    ++stats_.rejected_no_suitable_node;
    collector_.record_rejected(job, sim_.now(), /*at_dispatch=*/false,
                               trace::RejectionReason::NoSuitableNode);
    if (trace_ != nullptr)
      trace_->job_rejected(sim_.now(), job.id,
                           trace::RejectionReason::NoSuitableNode, 0,
                           job.num_procs);
    return;
  }
  queue_.push_back(&job);
  dispatch();
}

void EdfScheduler::start_job(const Job& job) {
  ++stats_.accepted;
  if (overload_enabled_) {
    const auto it = downgraded_deadline_.find(job.id);
    if (it != downgraded_deadline_.end()) {
      // The job got here on a granted deadline extension: degraded-admit
      // provenance. The Job itself is untouched — it may simply finish late
      // and the collector judges it against the submitted deadline.
      ++stats_.degraded_admits;
      note_decision(job.id, /*node=*/-1, /*sigma=*/-1.0, /*margin=*/0.0,
                    /*degraded=*/true);
      if (trace_ != nullptr)
        trace_->job_degraded_admit(sim_.now(), job.id,
                                   trace::RejectionReason::DeadlineInfeasible,
                                   /*first_node=*/-1, /*sigma=*/-1.0,
                                   /*fit=*/0.0);
      downgraded_deadline_.erase(it);
    }
  }
  std::vector<cluster::NodeId> nodes = executor_.take_free_nodes(job.num_procs);
  double slowest = sim::kTimeInfinity;
  for (const cluster::NodeId n : nodes)
    slowest = std::min(slowest, executor_.cluster().speed_factor(n));
  collector_.record_started(job, sim_.now(), job.actual_runtime / slowest);
  if (config_.backfilling)
    estimated_finish_[job.id] = sim_.now() + job.scheduler_estimate / slowest;
  executor_.start(job, std::move(nodes));
}

EdfScheduler::Reservation EdfScheduler::head_reservation(const Job& head) const {
  const sim::SimTime now = sim_.now();
  struct Release {
    sim::SimTime time;
    int procs;
  };
  std::vector<Release> releases;
  releases.reserve(estimated_finish_.size());
  for (const auto& [id, finish] : estimated_finish_)
    releases.push_back(
        Release{std::max(finish, now), collector_.record(id).num_procs});
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) { return a.time < b.time; });

  int available = executor_.free_count();
  Reservation res;
  res.shadow_time = now;
  for (const Release& r : releases) {
    if (available >= head.num_procs) break;
    available += r.procs;
    res.shadow_time = r.time;
  }
  LIBRISK_CHECK(available >= head.num_procs,
                "reservation impossible: releases never free enough nodes");
  res.extra_nodes = available - head.num_procs;
  return res;
}

void EdfScheduler::dispatch() {
  for (;;) {
    if (queue_.empty()) return;
    // Select the earliest-absolute-deadline job (re-evaluated every pass, so
    // an earlier-deadline arrival can displace the waiting head).
    const auto deadline_before = [](const Job* a, const Job* b) {
      if (a->absolute_deadline() != b->absolute_deadline())
        return a->absolute_deadline() < b->absolute_deadline();
      return a->id < b->id;
    };
    const auto head = std::min_element(queue_.begin(), queue_.end(), deadline_before);
    const Job* job = *head;

    if (config_.admission_control && !deadline_feasible(*job) &&
        !(overload_enabled_ && try_degrade_head(*job))) {
      // The relaxed admission control: reject only at selection time. The
      // margin is the best-case-finish headroom (< 0 on this path); the
      // near-miss scale is the job's own deadline window.
      if (overload_enabled_) downgraded_deadline_.erase(job->id);
      ++stats_.rejections;
      ++stats_.rejected_deadline_infeasible;
      const double margin = deadline_margin(*job);
      const double deficit = -margin;
      if (deficit <= 0.05 * job->deadline) ++stats_.near_miss_deadline_5;
      if (deficit <= 0.10 * job->deadline) ++stats_.near_miss_deadline_10;
      collector_.record_rejected(*job, sim_.now(), /*at_dispatch=*/true,
                                 trace::RejectionReason::DeadlineInfeasible);
      if (trace_ != nullptr)
        trace_->job_rejected(sim_.now(), job->id,
                             trace::RejectionReason::DeadlineInfeasible, 0,
                             job->num_procs, margin);
      queue_.erase(head);
      LIBRISK_LOG(Debug) << name_ << ": rejected job " << job->id
                         << " at dispatch (deadline infeasible)";
      continue;
    }
    if (executor_.free_count() >= job->num_procs) {
      queue_.erase(head);
      start_job(*job);
      continue;
    }
    if (!config_.backfilling) return;  // plain EDF: head-of-line blocking

    // Backfill in deadline order: a later job may start now iff (by
    // estimates) it finishes before the head's reservation or fits on the
    // nodes the head will not need.
    const Reservation res = head_reservation(*job);
    std::vector<const Job*> ordered(queue_.begin(), queue_.end());
    std::sort(ordered.begin(), ordered.end(), deadline_before);
    bool progressed = false;
    for (const Job* candidate : ordered) {
      if (candidate == job) continue;
      if (executor_.free_count() < candidate->num_procs) continue;
      const double best_runtime =
          candidate->scheduler_estimate / executor_.cluster().max_speed_factor();
      const bool fits_window =
          sim_.now() + best_runtime <= res.shadow_time + sim::kTimeEpsilon;
      const bool fits_extra = candidate->num_procs <= res.extra_nodes;
      if (!fits_window && !fits_extra) continue;
      if (config_.admission_control && !deadline_feasible(*candidate)) continue;
      queue_.erase(std::find(queue_.begin(), queue_.end(), candidate));
      start_job(*candidate);
      progressed = true;
      break;
    }
    if (!progressed) return;
  }
}

LoadSignal EdfScheduler::load_signal() const noexcept {
  const int size = executor_.cluster().size();
  return LoadSignal{static_cast<double>(size - executor_.free_count()),
                    static_cast<double>(size)};
}

bool EdfScheduler::try_degrade_head(const Job& job) {
  const sim::SimTime now = sim_.now();
  governor_.evaluate(now, load_signal());
  stats_.overload_activations = governor_.activations();
  const auto it = downgraded_deadline_.find(job.id);
  const bool granted = it != downgraded_deadline_.end();
  // A fresh extension needs the governor engaged; a previously granted one
  // is sticky — later passes honor it even after the load drops, so the
  // job's fate never depends on when capacity happened to free up relative
  // to a disengagement (determinism stays trivial; fairness stays sane).
  if (!granted && !governor_.engaged()) return false;
  const sim::SimTime effective =
      granted ? it->second
              : job.submit_time +
                    job.deadline * governor_.config().downgrade_factor;
  if (now > effective) return false;
  const double best_runtime =
      job.scheduler_estimate / executor_.cluster().max_speed_factor();
  if (now + best_runtime > effective + sim::kTimeEpsilon) return false;
  if (!granted) downgraded_deadline_.emplace(job.id, effective);
  return true;
}

}  // namespace librisk::core
