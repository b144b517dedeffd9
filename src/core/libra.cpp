#include "core/libra.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "support/check.hpp"
#include "support/log.hpp"

namespace librisk::core {

LibraConfig LibraConfig::libra() {
  LibraConfig c;
  c.admission = Admission::TotalShare;
  c.selection = Selection::BestFit;
  c.estimate_kind = cluster::TimeSharedExecutor::EstimateKind::Raw;
  return c;
}

LibraConfig LibraConfig::libra_risk() {
  LibraConfig c;
  c.admission = Admission::ZeroRisk;
  c.selection = Selection::FirstFit;
  c.estimate_kind = cluster::TimeSharedExecutor::EstimateKind::Current;
  return c;
}

LibraScheduler::LibraScheduler(sim::Simulator& simulator,
                               cluster::TimeSharedExecutor& executor,
                               Collector& collector, LibraConfig config,
                               std::string name)
    : Scheduler(collector),
      sim_(simulator),
      executor_(executor),
      config_(config),
      name_(std::move(name)) {
  LIBRISK_CHECK(config_.capacity > 0.0, "node capacity must be positive");
  // The executor's cached risk aggregates reuse is sound only when the
  // admission test reads exactly what the executor folded: current-estimate
  // remaining work, CurrentRate completion prediction, and the same
  // deadline clamp on both sides (the factory guarantees clamp equality;
  // hand-built configs may not).
  use_aggregates_ =
      config_.admission == LibraConfig::Admission::ZeroRisk &&
      config_.risk.prediction == RiskConfig::Prediction::CurrentRate &&
      config_.estimate_kind ==
          cluster::TimeSharedExecutor::EstimateKind::Current &&
      config_.risk.deadline_clamp == executor_.config().deadline_clamp;
  if (config_.admission == LibraConfig::Admission::ZeroRisk) {
    scan_parts_ = use_aggregates_
                      ? (cluster::kStateCapacity | cluster::kStateRiskAggregates)
                      : cluster::kStateCapacity;
  } else {
    scan_parts_ =
        config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw
            ? cluster::kStateSharesRaw
            : cluster::kStateSharesCurrent;
  }
  // Overload-catalog governor (core/overload.hpp). Under the default
  // HardReject mode overload_enabled_ stays false and every consult site
  // below reduces to a dead branch — the byte-identity guarantee.
  governor_ = OverloadGovernor(config_.overload);
  overload_enabled_ = governor_.enabled();
  executor_.set_completion_handler(
      [this](const Job& job, sim::SimTime finish) {
        if (response_hist_ != nullptr)
          response_hist_->record(finish - job.submit_time);
        if (overload_enabled_) {
          resolve_overload(job, finish, /*killed=*/false);
          return;
        }
        collector_.record_completed(job, finish);
      });
  executor_.set_kill_handler([this](const Job& job, sim::SimTime when) {
    if (overload_enabled_) {
      resolve_overload(job, when, /*killed=*/true);
      return;
    }
    collector_.record_killed(job, when);
  });
}

double LibraScheduler::new_job_share(const Job& job, cluster::NodeId node) const {
  return cluster::required_share(job.scheduler_estimate, job.deadline,
                                 executor_.config().deadline_clamp,
                                 executor_.cluster().speed_factor(node));
}

bool LibraScheduler::node_suitable(cluster::NodeId node, const Job& job,
                                   double& fit) const {
  if (config_.legacy_path) return node_suitable_legacy(node, job, fit);
  const NodeRiskVerdict verdict =
      test_node(node, executor_.node_state(node, scan_parts_), normal_test(job));
  fit = verdict.total_share;
  return verdict.suitable;
}

trace::RejectionReason LibraScheduler::scan_reason() const noexcept {
  return config_.admission == LibraConfig::Admission::TotalShare
             ? trace::RejectionReason::ShareOverflow
             : trace::RejectionReason::RiskSigma;
}

NodeRiskInput LibraScheduler::risk_input(cluster::NodeId node,
                                         const cluster::NodeStateView& state) const {
  NodeRiskInput input;
  input.remaining_work =
      config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw
          ? state.remaining_raw
          : state.remaining_current;
  input.remaining_deadline = state.remaining_deadline;
  input.rate = state.rate;
  input.speed_factor = executor_.cluster().speed_factor(node);
  input.available_capacity = state.available_capacity;
  if (use_aggregates_) input.aggregates = &state.risk_current;
  return input;
}

NodeRiskVerdict LibraScheduler::share_test(cluster::NodeId node,
                                           const cluster::NodeStateView& state,
                                           const AdmissionTest& test) const {
  const double resident_total =
      config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw
          ? state.total_share_raw
          : state.total_share_current;
  NodeRiskVerdict verdict;  // sigma stays -1: Eq. 2 has none
  verdict.total_share =
      resident_total + cluster::required_share(
                           test.estimate, test.deadline,
                           executor_.config().deadline_clamp,
                           executor_.cluster().speed_factor(node));
  verdict.suitable = verdict.total_share <= config_.capacity + config_.tolerance;
  return verdict;
}

NodeRiskVerdict LibraScheduler::test_node(cluster::NodeId node,
                                          const cluster::NodeStateView& state,
                                          const AdmissionTest& test) const {
  if (config_.admission == LibraConfig::Admission::TotalShare)
    return share_test(node, state, test);
  // Eq. 4-6 through the batched kernel, as a batch of one.
  const NodeRiskInput input = risk_input(node, state);
  NodeRiskVerdict verdict;
  assess_nodes({&input, 1}, test.estimate, test.deadline, config_.risk,
               workspace_, {&verdict, 1});
  return verdict;
}

void LibraScheduler::select_prefix(int count) {
  // The legacy path stable_sorts candidates built in ascending node order,
  // so its result order is exactly (fit key, node id) — a strict total
  // order we can hand to the unstable partial-selection algorithms.
  const auto best = [](const Candidate& a, const Candidate& b) {
    return a.fit != b.fit ? a.fit > b.fit : a.node < b.node;
  };
  const auto worst = [](const Candidate& a, const Candidate& b) {
    return a.fit != b.fit ? a.fit < b.fit : a.node < b.node;
  };
  switch (config_.selection) {
    case LibraConfig::Selection::FirstFit:
      return;  // already in node order
    case LibraConfig::Selection::BestFit:
      if (static_cast<std::size_t>(count) < suitable_.size())
        std::nth_element(suitable_.begin(), suitable_.begin() + count,
                         suitable_.end(), best);
      std::sort(suitable_.begin(), suitable_.begin() + count, best);
      return;
    case LibraConfig::Selection::WorstFit:
      if (static_cast<std::size_t>(count) < suitable_.size())
        std::nth_element(suitable_.begin(), suitable_.begin() + count,
                         suitable_.end(), worst);
      std::sort(suitable_.begin(), suitable_.begin() + count, worst);
      return;
  }
}

void LibraScheduler::on_telemetry(obs::Telemetry& telemetry) {
  obs::Registry& reg = telemetry.registry();
  reg.counter_fn("admission_submissions", "jobs offered to the admission test",
                 [this] { return stats_.submissions; });
  reg.counter_fn("admission_accepted", "jobs accepted",
                 [this] { return stats_.accepted; });
  reg.counter_fn("admission_rejections", "jobs rejected",
                 [this] { return stats_.rejections; });
  reg.counter_fn("admission_nodes_scanned", "nodes examined for suitability",
                 [this] { return stats_.nodes_scanned; });
  reg.counter_fn("admission_assessments", "full share/risk evaluations run",
                 [this] { return stats_.assessments; });
  reg.counter_fn("admission_empty_node_skips",
                 "ZeroRisk empty-node fast-path hits",
                 [this] { return stats_.empty_node_skips; });
  reg.counter_fn("admission_early_exits",
                 "FirstFit scans stopped before the last node",
                 [this] { return stats_.early_exits; });
  reg.counter_fn("admission_batched_assessments",
                 "assessments served by the batched risk kernel",
                 [this] { return stats_.batched_assessments; });
  reg.counter_fn("admission_nodes_batch_skipped",
                 "nodes rejected by the batch sigma-spread bound",
                 [this] { return stats_.nodes_batch_skipped; });
  reg.counter_fn("admission_rejected_share_overflow",
                 "rejections: Eq. 2 total-share shortfall",
                 [this] { return stats_.rejected_share_overflow; });
  reg.counter_fn("admission_rejected_risk_sigma",
                 "rejections: sigma-test shortfall",
                 [this] { return stats_.rejected_risk_sigma; });
  reg.counter_fn("admission_rejected_no_suitable_node",
                 "rejections: needs more nodes than the cluster has",
                 [this] { return stats_.rejected_no_suitable_node; });
  reg.counter_fn("admission_near_miss_5pct",
                 "rejections within 5% margin of the decisive test",
                 [this] { return stats_.near_miss_5(); });
  reg.counter_fn("admission_near_miss_10pct",
                 "rejections within 10% margin of the decisive test",
                 [this] { return stats_.near_miss_10(); });
  reg.counter_fn("admission_degraded_admits",
                 "admissions via a degraded-mode bend",
                 [this] { return stats_.degraded_admits; });
  reg.counter_fn("admission_deferrals", "DeferToSalvage park events",
                 [this] { return stats_.deferrals; });
  reg.counter_fn("overload_activations",
                 "governor flips into degraded operation",
                 [this] { return stats_.overload_activations; });

  obs::HistogramConfig scan_cfg;
  scan_cfg.min_value = 1.0;
  scan_cfg.max_value = 1e6;
  scan_nodes_hist_ = &reg.histogram("admission_scan_nodes",
                                    "nodes scanned per submission", scan_cfg);
  response_hist_ = &reg.histogram("job_response_seconds",
                                  "submission-to-completion sim seconds");

  obs::Series& admission = telemetry.add_series(
      "admission",
      {"time", "submissions", "accepted", "rejections",
       "rejected_share_overflow", "rejected_risk_sigma",
       "rejected_no_suitable_node", "accept_rate"});
  telemetry.add_sampler([this, &admission](sim::SimTime now) {
    const double subs = static_cast<double>(stats_.submissions);
    admission.append(
        {now, subs, static_cast<double>(stats_.accepted),
         static_cast<double>(stats_.rejections),
         static_cast<double>(stats_.rejected_share_overflow),
         static_cast<double>(stats_.rejected_risk_sigma),
         static_cast<double>(stats_.rejected_no_suitable_node),
         subs > 0.0 ? static_cast<double>(stats_.accepted) / subs : 0.0});
  });

  obs::Series& nodes = telemetry.add_series(
      "nodes", {"time", "node", "residents", "share_raw", "share_current",
                "utilization", "sigma"});
  telemetry.add_sampler(
      [this, &nodes](sim::SimTime now) { sample_nodes(nodes, now); });
}

void LibraScheduler::sample_nodes(obs::Series& series, sim::SimTime now) const {
  // Pre-event observation: node_state() reads anchored lazy work at `now`
  // without settling, so sampling mutates nothing the decisions depend on
  // (the byte-identical-trace test pins this down). Sigma is the paper's
  // Eq. 6 delay deviation over the node's residents as currently known —
  // *tentative* in the sense that no new job is added.
  const int cluster_size = executor_.cluster().size();
  const bool raw =
      config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw;
  for (cluster::NodeId n = 0; n < cluster_size; ++n) {
    const cluster::NodeStateView& state = executor_.node_state(n);
    double sigma = 0.0;
    if (!state.empty()) {
      if (use_aggregates_ && state.risk_current.computed) {
        // The executor's fold is the same left-fold over the same resident
        // terms the scalar assessment would run, so the closed-form σ over
        // its power sums is bitwise the assessment's σ.
        sigma = sigma_from_sums(state.risk_current.dd_sum,
                                state.risk_current.dd_sum_sq, state.count());
      } else {
        workspace_.inputs.clear();
        for (std::size_t i = 0; i < state.count(); ++i)
          workspace_.inputs.push_back(RiskJobInput{
              raw ? state.remaining_raw[i] : state.remaining_current[i],
              state.remaining_deadline[i], state.rate[i]});
        const RiskAssessmentView assessment = assess_node(
            workspace_.inputs, config_.risk,
            executor_.cluster().speed_factor(n), state.available_capacity,
            workspace_);
        sigma = assessment.sigma;
      }
    }
    series.append({now, static_cast<double>(n),
                   static_cast<double>(state.count()), state.total_share_raw,
                   state.total_share_current,
                   std::min(1.0, state.total_share_current), sigma});
  }
}

double LibraScheduler::reject_job_margin(const Job& job, int suitable_count) {
  // Rebuild the failing-node deficits from the scan's per-node metrics. A
  // node failed its decisive test iff the metric exceeds the configured
  // tolerance band — the same comparison the scan ran — and an
  // unquantifiable shortfall (bound-skipped sigma, stored as +inf, or a
  // delay failure whose sigma passed) contributes no finite deficit, so
  // the near-miss counters undercount, never over.
  const bool share = config_.admission == LibraConfig::Admission::TotalShare;
  const double floor = share ? config_.capacity : config_.risk.sigma_threshold;
  const double tol = share ? config_.tolerance : config_.risk.tolerance;
  fail_deficit_.clear();
  for (const double metric : scan_metric_) {
    const double d = metric - floor;
    if (d > tol) fail_deficit_.push_back(d);
  }
  // The smallest per-node improvement that would have admitted the job:
  // it needed k = num_procs - suitable more suitable nodes, so the k-th
  // smallest failing-node deficit is decisive. nth_element scrambles
  // fail_deficit_, which is dead after this call.
  const int k = job.num_procs - suitable_count;
  double deficit = std::numeric_limits<double>::infinity();
  if (k >= 1 && static_cast<int>(fail_deficit_.size()) >= k) {
    std::nth_element(fail_deficit_.begin(), fail_deficit_.begin() + (k - 1),
                     fail_deficit_.end());
    deficit = fail_deficit_[static_cast<std::size_t>(k) - 1];
  }
  const double scale =
      share ? config_.capacity : std::max(config_.risk.sigma_threshold, 1.0);
  if (deficit <= 0.05 * scale)
    ++(share ? stats_.near_miss_share_5 : stats_.near_miss_sigma_5);
  if (deficit <= 0.10 * scale)
    ++(share ? stats_.near_miss_share_10 : stats_.near_miss_sigma_10);
  // A rejection's quantified deficit is strictly positive (it exceeded the
  // tolerance), so 0.0 unambiguously means "no margin computed".
  return std::isfinite(deficit) ? -deficit : 0.0;
}

void LibraScheduler::on_job_submitted(const Job& job) {
  obs::ScopedPhase phase(profiler_, obs::Phase::Admission);
  // The recorder arrives via attach() after construction, so the governor
  // borrows it lazily (cheap pointer store, degraded modes only).
  if (overload_enabled_) governor_.attach(trace_);
  if (config_.legacy_path) {
    submit_legacy(job);
    return;
  }
  submit_fast(job);
}

void LibraScheduler::submit_fast(const Job& job) {
  const sim::SimTime now = sim_.now();
  ++stats_.submissions;
  if (job.num_procs > executor_.cluster().size()) {
    reject(job, now, trace::RejectionReason::NoSuitableNode, 0,
           /*at_dispatch=*/false, 0.0);
    return;
  }
  // Overload consult #1: the per-submission governor pulse.
  if (overload_enabled_) pulse_governor(now);
  executor_.sync();

  scan(job, normal_test(job), now, /*first=*/true, suitable_, scan_metric_);
  if (static_cast<int>(suitable_.size()) >= job.num_procs) {
    admit(job, job, now, trace::RejectionReason::None);
    return;
  }
  // Overload consult #2: the shortfall site. An engaged degraded mode may
  // admit (QoS downgrade) or park (salvage deferral) the job instead; on
  // false the normal rejection below stands.
  if (overload_enabled_ && try_degraded(job, now)) return;
  const int suitable = static_cast<int>(suitable_.size());
  reject(job, now, scan_reason(), suitable, /*at_dispatch=*/false,
         reject_job_margin(job, suitable));
}

namespace {
/// Adaptive batch sizing for the ZeroRisk scan: start small so a FirstFit
/// hit in the cluster's head discards little speculative work, then double
/// toward the sweet spot for long rejection scans.
constexpr std::size_t kBatchChunkMin = 4;
constexpr std::size_t kBatchChunkMax = 64;
}  // namespace

void LibraScheduler::scan(const Job& job, const AdmissionTest& test,
                          sim::SimTime now, bool first,
                          std::vector<Candidate>& out,
                          std::vector<double>& metric) {
  const int cluster_size = executor_.cluster().size();
  const bool zero_risk = config_.admission == LibraConfig::Admission::ZeroRisk;
  const bool tracing = first && trace_ != nullptr && trace_->enabled();
  // FirstFit takes suitable nodes in node order, so the scan can stop at
  // num_procs hits: acceptance and the chosen sequence are already decided,
  // and a rejection (< num_procs suitable anywhere) still scans everything.
  const bool can_stop_early =
      first && config_.selection == LibraConfig::Selection::FirstFit;
  // The empty-node fast path's exact legacy condition: under it an empty
  // node's verdict counts as a skip, not an assessment.
  const bool empty_fast = config_.risk.rule == RiskConfig::Rule::SigmaOnly &&
                          0.0 <= config_.risk.sigma_threshold + config_.risk.tolerance;
  AssessNodesOptions options;
  // The σ-spread bound rejects without computing the exact σ the
  // node_evaluated event must carry, so it only arms when no live sink is
  // attached (decisions are identical either way — the bound is
  // conservative).
  options.allow_bound_skip = first && !tracing;

  out.clear();
  if (out.capacity() < static_cast<std::size_t>(cluster_size))
    out.reserve(static_cast<std::size_t>(cluster_size));
  metric.resize(static_cast<std::size_t>(cluster_size));
  const std::uint64_t scanned_before = stats_.nodes_scanned;
  std::size_t chunk = kBatchChunkMin;
  int batch_begin = 0;
  int batch_end = 0;
  for (cluster::NodeId n = 0; n < cluster_size; ++n) {
    ++stats_.nodes_scanned;
    NodeRiskVerdict verdict;
    if (zero_risk) {
      // ZeroRisk nodes are assessed a chunk at a time through the batched
      // kernel; counters fire per consumed node only, so a FirstFit stop
      // mid-chunk leaves the rest of the chunk uncounted.
      if (n == batch_end) {
        batch_begin = n;
        batch_end = std::min(n + static_cast<int>(chunk), cluster_size);
        chunk = std::min(chunk * 2, kBatchChunkMax);
        batch_inputs_.clear();
        for (cluster::NodeId m = batch_begin; m < batch_end; ++m)
          batch_inputs_.push_back(
              risk_input(m, executor_.node_state(m, scan_parts_)));
        batch_verdicts_.resize(batch_inputs_.size());
        assess_nodes(batch_inputs_, test.estimate, test.deadline, config_.risk,
                     workspace_, batch_verdicts_, options);
      }
      const auto i = static_cast<std::size_t>(n - batch_begin);
      verdict = batch_verdicts_[i];
      if (empty_fast && batch_inputs_[i].remaining_work.empty()) {
        ++stats_.empty_node_skips;
      } else if (verdict.bound_skipped) {
        ++stats_.nodes_batch_skipped;
      } else {
        ++stats_.assessments;
        ++stats_.batched_assessments;
      }
      // The reject-path deficit rebuild reads this: the sigma the test ran
      // on, or +inf for a bound-skipped node (shortfall unquantifiable —
      // near-miss counters then undercount, never over).
      metric[static_cast<std::size_t>(n)] =
          verdict.bound_skipped ? std::numeric_limits<double>::infinity()
                                : verdict.sigma;
    } else {
      verdict = share_test(n, executor_.node_state(n, scan_parts_), test);
      ++stats_.assessments;
      metric[static_cast<std::size_t>(n)] = verdict.total_share;
    }
    // kForbidAdmitPastEq2: a bent test may not admit past the Eq. 2
    // capacity, which the sigma-only rule does not test itself.
    const bool ok = verdict.suitable && !(verdict.total_share > test.share_cap);
    if (tracing)
      trace_->node_evaluated(now, job.id, n,
                             ok ? trace::RejectionReason::None : scan_reason(),
                             verdict.sigma, verdict.total_share,
                             node_margin(verdict.total_share, verdict.sigma));
    if (ok) {
      out.push_back(Candidate{n, verdict.total_share, verdict.sigma});
      if (can_stop_early && static_cast<int>(out.size()) == job.num_procs) {
        if (n + 1 < cluster_size) ++stats_.early_exits;
        break;
      }
    }
  }
  if (first && scan_nodes_hist_ != nullptr)
    scan_nodes_hist_->record(
        static_cast<double>(stats_.nodes_scanned - scanned_before));
}

void LibraScheduler::admit(const Job& job, const Job& run, sim::SimTime now,
                           trace::RejectionReason bent) {
  select_prefix(job.num_procs);
  std::vector<cluster::NodeId> chosen;
  chosen.reserve(job.num_procs);
  double slowest = sim::kTimeInfinity;
  for (int i = 0; i < job.num_procs; ++i) {
    chosen.push_back(suitable_[i].node);
    slowest = std::min(slowest, executor_.cluster().speed_factor(suitable_[i].node));
  }
  const Candidate& head = suitable_[0];
  Scheduler::admit(job, now, head.node, static_cast<int>(suitable_.size()),
                   head.fit, head.sigma, node_margin(head.fit, head.sigma),
                   bent);
  // `run` carries the deadline the executor paces against; its share is the
  // one the cluster actually bears, so it feeds the load signal.
  if (overload_enabled_) track_inflight(run, chosen);
  collector_.record_started(job, now, job.actual_runtime / slowest);
  executor_.start(run, std::move(chosen));
}

// ---- seed implementation (differential-testing reference) ----

RiskAssessment LibraScheduler::assess_with_job_legacy(cluster::NodeId node,
                                                      const Job& job) const {
  const sim::SimTime now = sim_.now();
  std::vector<RiskJobInput> inputs;
  const auto& resident = executor_.node_jobs(node);
  inputs.reserve(resident.size() + 1);
  const bool raw =
      config_.estimate_kind == cluster::TimeSharedExecutor::EstimateKind::Raw;
  for (const cluster::JobId id : resident) {
    const cluster::TaskView v = executor_.view(id);
    inputs.push_back(RiskJobInput{
        raw ? v.remaining_estimate_raw() : v.remaining_estimate_current(),
        v.remaining_deadline(now), v.rate});
  }
  // Algorithm 1, line 2: add the new job temporarily.
  inputs.push_back(RiskJobInput{job.scheduler_estimate, job.deadline,
                                RiskJobInput::kNewJob});
  return assess_node_legacy(inputs, config_.risk,
                            executor_.cluster().speed_factor(node),
                            executor_.node_available_capacity(node));
}

bool LibraScheduler::node_suitable_legacy(cluster::NodeId node, const Job& job,
                                          double& fit, double* sigma_out) const {
  switch (config_.admission) {
    case LibraConfig::Admission::TotalShare: {
      const double total =
          executor_.node_total_share(node, config_.estimate_kind) +
          new_job_share(job, node);
      fit = total;
      if (sigma_out != nullptr) *sigma_out = -1.0;  // no sigma in Eq. 2
      return total <= config_.capacity + config_.tolerance;
    }
    case LibraConfig::Admission::ZeroRisk: {
      const RiskAssessment assessment = assess_with_job_legacy(node, job);
      fit = assessment.total_share;
      if (sigma_out != nullptr) *sigma_out = assessment.sigma;
      return assessment.zero_risk(config_.risk);
    }
  }
  return false;
}

void LibraScheduler::submit_legacy(const Job& job) {
  const sim::SimTime now = sim_.now();
  ++stats_.submissions;
  if (job.num_procs > executor_.cluster().size()) {
    ++stats_.rejections;
    ++stats_.rejected_no_suitable_node;
    collector_.record_rejected(job, now, /*at_dispatch=*/false,
                               trace::RejectionReason::NoSuitableNode);
    if (trace_ != nullptr)
      trace_->job_rejected(now, job.id, trace::RejectionReason::NoSuitableNode,
                           0, job.num_procs);
    return;
  }
  // Overload consults mirror submit_fast exactly (the degraded helpers
  // themselves always run the fast arithmetic — bit-identical decisions per
  // tests/test_admission_equivalence, so the paths cannot diverge here).
  if (overload_enabled_) pulse_governor(now);
  executor_.sync();

  const bool tracing = trace_ != nullptr && trace_->enabled();
  std::vector<Candidate> suitable;
  suitable.reserve(executor_.cluster().size());
  // Decisive metric per node for the reject-path deficit rebuild. Legacy
  // never bound-skips, so the sigma itself is always the right record.
  const bool share_mode = config_.admission == LibraConfig::Admission::TotalShare;
  scan_metric_.resize(static_cast<std::size_t>(executor_.cluster().size()));
  const std::uint64_t scanned_before = stats_.nodes_scanned;
  for (cluster::NodeId n = 0; n < executor_.cluster().size(); ++n) {
    ++stats_.nodes_scanned;
    double fit = 0.0;
    double sigma = -1.0;
    const bool ok = node_suitable_legacy(n, job, fit, &sigma);
    scan_metric_[static_cast<std::size_t>(n)] = share_mode ? fit : sigma;
    if (tracing)
      trace_->node_evaluated(now, job.id, n,
                             ok ? trace::RejectionReason::None : scan_reason(),
                             sigma, fit, node_margin(fit, sigma));
    if (ok) suitable.push_back(Candidate{n, fit, sigma});
  }
  if (scan_nodes_hist_ != nullptr)
    scan_nodes_hist_->record(
        static_cast<double>(stats_.nodes_scanned - scanned_before));

  if (static_cast<int>(suitable.size()) < job.num_procs) {
    if (overload_enabled_ && try_degraded(job, now)) return;
    ++stats_.rejections;
    if (config_.admission == LibraConfig::Admission::TotalShare)
      ++stats_.rejected_share_overflow;
    else
      ++stats_.rejected_risk_sigma;
    const double margin =
        reject_job_margin(job, static_cast<int>(suitable.size()));
    collector_.record_rejected(job, now, /*at_dispatch=*/false, scan_reason());
    if (trace_ != nullptr)
      trace_->job_rejected(now, job.id, scan_reason(),
                           static_cast<int>(suitable.size()), job.num_procs,
                           margin);
    LIBRISK_LOG(Debug) << name_ << ": rejected job " << job.id << " ("
                       << suitable.size() << '/' << job.num_procs
                       << " suitable nodes)";
    return;
  }

  switch (config_.selection) {
    case LibraConfig::Selection::FirstFit:
      break;  // already in node order
    case LibraConfig::Selection::BestFit:
      // Fullest after acceptance first; node id breaks ties for determinism.
      std::stable_sort(suitable.begin(), suitable.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.fit > b.fit;
                       });
      break;
    case LibraConfig::Selection::WorstFit:
      std::stable_sort(suitable.begin(), suitable.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.fit < b.fit;
                       });
      break;
  }

  std::vector<cluster::NodeId> chosen;
  chosen.reserve(job.num_procs);
  double slowest = sim::kTimeInfinity;
  for (int i = 0; i < job.num_procs; ++i) {
    chosen.push_back(suitable[i].node);
    slowest = std::min(slowest, executor_.cluster().speed_factor(suitable[i].node));
  }
  ++stats_.accepted;
  const double margin = node_margin(suitable[0].fit, suitable[0].sigma);
  note_decision(job.id, suitable[0].node, suitable[0].sigma, margin);
  if (trace_ != nullptr)
    trace_->job_admitted(now, job.id, suitable[0].node,
                         static_cast<int>(suitable.size()), suitable[0].fit,
                         margin);
  if (overload_enabled_) track_inflight(job, chosen);
  collector_.record_started(job, now, job.actual_runtime / slowest);
  executor_.start(job, std::move(chosen));
}

// ---- overload-catalog consult sites (core/overload.hpp) ----
//
// Nothing below is reachable under HardReject (overload_enabled_ guards
// every entry), so the default configuration cannot touch this state.

void LibraScheduler::pulse_governor(sim::SimTime now) {
  governor_.evaluate(now, load_signal());
  stats_.overload_activations = governor_.activations();
}

bool LibraScheduler::try_degraded(const Job& job, sim::SimTime now) {
  if (!governor_.engaged()) return false;
  const OverloadConfig& oc = governor_.config();
  switch (oc.mode) {
    case DegradedMode::HardReject:
      return false;
    case DegradedMode::DeferToSalvage:
      static_assert(
          mode_allows(DegradedMode::DeferToSalvage, kForbidDelayedDecision));
      defer_job(job, now);
      return true;
    case DegradedMode::DowngradeQoS:
      static_assert(
          mode_allows(DegradedMode::DowngradeQoS, kForbidDeadlineRewrite));
      return rescan_and_admit(job, now, job.deadline * oc.downgrade_factor);
  }
  return false;
}

bool LibraScheduler::rescan_and_admit(const Job& job, sim::SimTime now,
                                      double deadline) {
  // The bend is an argument of the one production scan, so the re-scan
  // runs the exact arithmetic of the normal test. It fills its own buffers:
  // suitable_ and scan_metric_ still hold the normal scan's result, which
  // the rejection accounting (suitable count, near-miss margin) reads if
  // this bend fails.
  const AdmissionTest test{job.scheduler_estimate, deadline,
                           config_.capacity + config_.tolerance};
  scan(job, test, now, /*first=*/false, rescan_suitable_, rescan_metric_);
  if (static_cast<int>(rescan_suitable_.size()) < job.num_procs) return false;
  suitable_.swap(rescan_suitable_);
  // The executor borrows Job pointers until completion, so the
  // deadline-extended copy needs scheduler-owned stable storage; the
  // completion/kill handler restores the submitted deadline before the
  // collector judges lateness (resolve_overload).
  Job downgraded = job;
  downgraded.deadline = deadline;
  const auto [it, inserted] =
      downgraded_.try_emplace(job.id, DowngradedJob{downgraded, job.deadline});
  LIBRISK_CHECK(inserted, "job " << job.id << " downgraded twice");
  admit(job, it->second.job, now, scan_reason());
  return true;
}

void LibraScheduler::defer_job(const Job& job, sim::SimTime now) {
  // First park inserts; a re-park finds the entry and bumps the count. The
  // parked pointer targets the engine slab, which keeps a Pending job's
  // storage alive until it resolves — the same contract EDF's queue uses.
  const auto [it, inserted] = parked_.try_emplace(job.id, Parked{&job, 0});
  const int deferral = ++it->second.deferrals;
  ++stats_.deferrals;
  const sim::SimTime retry = now + governor_.config().defer_delay;
  note_deferred(job.id);
  if (trace_ != nullptr)
    trace_->job_deferred(now, job.id, scan_reason(), retry, deferral);
  const std::int64_t id = job.id;
  sim_.at(retry, sim::EventPriority::Arrival,
          [this, id] { retry_deferred(id); });
  LIBRISK_LOG(Debug) << name_ << ": deferred job " << job.id << " until "
                     << retry << " (deferral " << deferral << ")";
}

void LibraScheduler::retry_deferred(std::int64_t job_id) {
  const auto it = parked_.find(job_id);
  LIBRISK_CHECK(it != parked_.end(),
                "salvage retry for job " << job_id << " that is not parked");
  const Job& job = *it->second.job;
  const int deferrals = it->second.deferrals;
  const sim::SimTime now = sim_.now();
  obs::ScopedPhase phase(profiler_, obs::Phase::Admission);
  executor_.sync();
  // The retry re-runs the NORMAL test at full strictness — DeferToSalvage
  // is licensed to delay the decision (kForbidDelayedDecision cleared), not
  // to bend risk or deadline. Not a new submission: the submissions counter
  // already saw this job, so submissions == accepted + rejections holds at
  // the end (scan-effort counters do tick — the scan really ran).
  scan(job, normal_test(job), now, /*first=*/false, suitable_, scan_metric_);
  const int suitable = static_cast<int>(suitable_.size());
  if (suitable >= job.num_procs) {
    parked_.erase(it);  // the Job itself lives in the engine slab
    admit(job, job, now, scan_reason());
    return;
  }
  // Still short: re-park while the mode is engaged and the retry budget
  // lasts, otherwise this becomes the final, dispatch-time rejection.
  governor_.evaluate(now, load_signal());
  stats_.overload_activations = governor_.activations();
  if (governor_.engaged() && deferrals < governor_.config().max_deferrals) {
    defer_job(job, now);
    return;
  }
  parked_.erase(it);
  reject(job, now, scan_reason(), suitable, /*at_dispatch=*/true,
         reject_job_margin(job, suitable));
}

void LibraScheduler::track_inflight(const Job& job,
                                    const std::vector<cluster::NodeId>& nodes) {
  double total = 0.0;
  for (const cluster::NodeId n : nodes) total += new_job_share(job, n);
  inflight_share_ += total;
  inflight_contrib_.emplace(job.id, total);
}

void LibraScheduler::release_inflight(std::int64_t job_id) {
  const auto it = inflight_contrib_.find(job_id);
  if (it == inflight_contrib_.end()) return;
  inflight_share_ -= it->second;
  // Floating-point dust must not leave a phantom load behind an idle run.
  if (inflight_share_ < 1e-12) inflight_share_ = 0.0;
  inflight_contrib_.erase(it);
}

void LibraScheduler::resolve_overload(const Job& job, sim::SimTime when,
                                      bool killed) {
  release_inflight(job.id);
  const auto it = downgraded_.find(job.id);
  if (it == downgraded_.end()) {
    if (killed)
      collector_.record_killed(job, when);
    else
      collector_.record_completed(job, when);
    return;
  }
  // `job` aliases the map-owned degraded copy (the executor borrowed its
  // pointer). Restore the submitted deadline so the collector judges
  // lateness against the real QoS — the downgrade bought admission, not a
  // free pass on the fulfilled metric — then erase the entry last: the
  // alias dies with it.
  it->second.job.deadline = it->second.original_deadline;
  if (killed)
    collector_.record_killed(it->second.job, when);
  else
    collector_.record_completed(it->second.job, when);
  downgraded_.erase(it);
}

}  // namespace librisk::core
