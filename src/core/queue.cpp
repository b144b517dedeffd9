#include "core/queue.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace librisk::core {

namespace {
/// Deadline order: earliest absolute deadline first, job id breaking ties.
bool deadline_before(const Job* a, const Job* b) {
  if (a->absolute_deadline() != b->absolute_deadline())
    return a->absolute_deadline() < b->absolute_deadline();
  return a->id < b->id;
}
}  // namespace

QueueScheduler::QueueScheduler(sim::Simulator& simulator,
                               cluster::SpaceSharedExecutor& executor,
                               Collector& collector, QueueConfig config,
                               std::string name)
    : Scheduler(collector),
      sim_(simulator),
      executor_(executor),
      config_(config),
      name_(std::move(name)) {
  LIBRISK_CHECK(!config_.qops_slack || *config_.qops_slack >= 1.0,
                "slack factor must be at least 1");
  governor_ = OverloadGovernor(config_.overload);
  // The one rejection site a mode could bend is the dispatch-time deadline
  // test, so DowngradeQoS under dispatch admission is the only live license;
  // the rest reduce to HardReject.
  overload_enabled_ = governor_.enabled() && config_.dispatch_admission &&
                      config_.overload.mode == DegradedMode::DowngradeQoS;
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

bool QueueScheduler::deadline_feasible(const Job& job) const {
  const sim::SimTime now = sim_.now();
  if (now > job.absolute_deadline()) return false;  // deadline expired
  return now + best_runtime(job) <= job.absolute_deadline() + sim::kTimeEpsilon;
}

double QueueScheduler::deadline_margin(const Job& job) const {
  return job.absolute_deadline() - (sim_.now() + best_runtime(job));
}

void QueueScheduler::on_job_submitted(const Job& job) {
  // The recorder arrives via attach() after construction; borrow it lazily.
  if (overload_enabled_) governor_.attach(trace_);
  const sim::SimTime now = sim_.now();
  ++stats_.submissions;
  // A request larger than the machine can never run; even without admission
  // control it must be rejected or the queue head would block forever.
  if (job.num_procs > executor_.cluster().size()) {
    reject(job, now, trace::RejectionReason::NoSuitableNode, 0,
           /*at_dispatch=*/false, 0.0);
    return;
  }
  if (config_.qops_slack) {
    if (!feasible_with(job)) {
      reject(job, now, trace::RejectionReason::DeadlineInfeasible, 0,
             /*at_dispatch=*/false, 0.0);
      return;
    }
    // Decided before placement: no node, no margin.
    admit(job, now, /*node=*/-1, /*suitable=*/0, /*fit=*/0.0, /*sigma=*/-1.0,
          /*margin=*/0.0);
  }
  queue_.push_back(&job);
  dispatch();
}

void QueueScheduler::start_job(const Job& job) {
  const sim::SimTime now = sim_.now();
  const int free = executor_.free_count();
  std::vector<cluster::NodeId> nodes = executor_.take_free_nodes(job.num_procs);
  if (!config_.qops_slack) {
    double margin = config_.dispatch_admission ? deadline_margin(job) : 0.0;
    trace::RejectionReason bent = trace::RejectionReason::None;
    if (overload_enabled_) {
      const auto it = downgraded_deadline_.find(job.id);
      if (it != downgraded_deadline_.end()) {
        // The job got here on a granted deadline extension: degraded-admit
        // provenance, with the headroom the bent test saw. The Job itself is
        // untouched — it may simply finish late and the collector judges it
        // against the submitted deadline.
        bent = trace::RejectionReason::DeadlineInfeasible;
        margin = it->second - (now + best_runtime(job));
        downgraded_deadline_.erase(it);
      }
    }
    admit(job, now, nodes.front(), free, /*fit=*/0.0, /*sigma=*/-1.0, margin,
          bent);
  }
  double slowest = sim::kTimeInfinity;
  for (const cluster::NodeId n : nodes)
    slowest = std::min(slowest, executor_.cluster().speed_factor(n));
  collector_.record_started(job, now, job.actual_runtime / slowest);
  estimated_finish_[job.id] = now + job.scheduler_estimate / slowest;
  executor_.start(job, std::move(nodes));
}

std::vector<QueueScheduler::Release> QueueScheduler::releases() const {
  const sim::SimTime now = sim_.now();
  std::vector<Release> out;
  out.reserve(estimated_finish_.size());
  for (const auto& [id, finish] : estimated_finish_)
    out.push_back(Release{std::max(finish, now), collector_.record(id).num_procs});
  std::sort(out.begin(), out.end(),
            [](const Release& a, const Release& b) { return a.time < b.time; });
  return out;
}

QueueScheduler::Reservation QueueScheduler::head_reservation(const Job& head) const {
  int available = executor_.free_count();
  Reservation res;
  res.shadow_time = sim_.now();
  for (const Release& r : releases()) {
    if (available >= head.num_procs) break;
    available += r.procs;
    res.shadow_time = r.time;
  }
  LIBRISK_CHECK(available >= head.num_procs,
                "reservation impossible: releases never free enough nodes");
  res.extra_nodes = available - head.num_procs;
  return res;
}

bool QueueScheduler::feasible_with(const Job& candidate) const {
  const double slack = config_.qops_slack.value_or(1.0);
  std::vector<Release> pending_releases = releases();

  // Pending work in deadline order (the order the dispatcher will use).
  std::vector<const Job*> pending = queue_;
  pending.push_back(&candidate);
  std::sort(pending.begin(), pending.end(), deadline_before);

  // Forward-simulate the space-shared dispatch with estimates. Started
  // pending jobs are appended to the release list (kept sorted by a simple
  // insertion, sizes here are small).
  int free = executor_.free_count();
  sim::SimTime clock = sim_.now();
  std::size_t next_release = 0;
  for (const Job* job : pending) {
    while (free < job->num_procs) {
      if (next_release >= pending_releases.size()) return false;  // can never start
      clock = std::max(clock, pending_releases[next_release].time);
      free += pending_releases[next_release].procs;
      ++next_release;
    }
    const sim::SimTime finish = clock + best_runtime(*job);
    const double allowed = job->submit_time + slack * job->deadline;
    if (finish > allowed + sim::kTimeEpsilon) return false;
    free -= job->num_procs;
    const Release r{finish, job->num_procs};
    const auto pos = std::upper_bound(
        pending_releases.begin() + static_cast<std::ptrdiff_t>(next_release),
        pending_releases.end(), r,
        [](const Release& a, const Release& b) { return a.time < b.time; });
    pending_releases.insert(pos, r);
  }
  return true;
}

void QueueScheduler::dispatch() {
  const bool by_deadline = config_.order == QueueConfig::Order::Deadline;
  for (;;) {
    if (queue_.empty()) return;
    // Select the head (re-evaluated every pass, so under deadline order an
    // earlier-deadline arrival can displace the waiting head).
    const auto head = by_deadline
                          ? std::min_element(queue_.begin(), queue_.end(),
                                             deadline_before)
                          : queue_.begin();
    const Job* job = *head;

    if (config_.dispatch_admission && !deadline_feasible(*job) &&
        !(overload_enabled_ && try_degrade_head(*job))) {
      // The relaxed admission control: reject only at selection time. The
      // margin is the best-case-finish headroom (< 0 on this path); the
      // near-miss scale is the job's own deadline window.
      if (overload_enabled_) downgraded_deadline_.erase(job->id);
      const double margin = deadline_margin(*job);
      const double deficit = -margin;
      if (deficit <= 0.05 * job->deadline) ++stats_.near_miss_deadline_5;
      if (deficit <= 0.10 * job->deadline) ++stats_.near_miss_deadline_10;
      queue_.erase(head);
      reject(*job, sim_.now(), trace::RejectionReason::DeadlineInfeasible, 0,
             /*at_dispatch=*/true, margin);
      continue;
    }
    if (executor_.free_count() >= job->num_procs) {
      queue_.erase(head);
      start_job(*job);
      continue;
    }
    if (!config_.backfilling) return;  // head-of-line blocking

    // Backfill in queue order: a later job may start now iff (by estimates)
    // it finishes before the head's reservation or fits on the nodes the
    // head will not need.
    const Reservation res = head_reservation(*job);
    std::vector<const Job*> ordered(queue_.begin(), queue_.end());
    if (by_deadline) std::sort(ordered.begin(), ordered.end(), deadline_before);
    bool progressed = false;
    for (const Job* candidate : ordered) {
      if (candidate == job) continue;
      if (executor_.free_count() < candidate->num_procs) continue;
      const bool fits_window = sim_.now() + best_runtime(*candidate) <=
                               res.shadow_time + sim::kTimeEpsilon;
      const bool fits_extra = candidate->num_procs <= res.extra_nodes;
      if (!fits_window && !fits_extra) continue;
      if (config_.dispatch_admission && !deadline_feasible(*candidate)) continue;
      queue_.erase(std::find(queue_.begin(), queue_.end(), candidate));
      start_job(*candidate);
      progressed = true;
      break;
    }
    if (!progressed) return;
  }
}

LoadSignal QueueScheduler::load_signal() const noexcept {
  const int size = executor_.cluster().size();
  return LoadSignal{static_cast<double>(size - executor_.free_count()),
                    static_cast<double>(size)};
}

bool QueueScheduler::try_degrade_head(const Job& job) {
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
  if (now + best_runtime(job) > effective + sim::kTimeEpsilon) return false;
  if (!granted) downgraded_deadline_.emplace(job.id, effective);
  return true;
}

}  // namespace librisk::core
