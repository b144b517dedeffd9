#include "obs/explain.hpp"

#include <algorithm>
#include <sstream>

#include "support/table.hpp"

namespace librisk::obs {

ExplainRecorder::ExplainRecorder(ExplainConfig config) : config_(config) {}

bool ExplainRecorder::wanted(std::int64_t job_id) const noexcept {
  return config_.capacity > 0 &&
         (config_.only_job < 0 || job_id == config_.only_job);
}

void ExplainRecorder::write(const trace::Event& event) {
  using trace::EventKind;
  switch (event.kind) {
    case EventKind::JobSubmitted: {
      if (!wanted(event.job)) return;
      DecisionExplain& d = pending_[event.job] = DecisionExplain{};
      d.job_id = event.job;
      d.time = event.time;
      d.num_procs = event.node;  // JobSubmitted stores num_procs in `node`
      d.deadline = event.a;
      d.estimate = event.b;
      return;
    }
    case EventKind::NodeEvaluated:
      fold_node(event);
      return;
    case EventKind::JobDeferred:
      if (const auto it = pending_.find(event.job); it != pending_.end()) {
        it->second.nodes.clear();
        it->second.suitable = 0;
      }
      return;
    case EventKind::JobAdmitted:
    case EventKind::JobDegradedAdmit:
    case EventKind::JobRejected:
      decide(event);
      return;
    default:
      return;
  }
}

void ExplainRecorder::fold_node(const trace::Event& event) {
  const bool suitable = event.reason == trace::RejectionReason::None;
  // Extremes fold every sigma evaluation, retained or not: the stability
  // interval must certify the complete verdict sequence.
  const double sigma = event.a;
  if (sigma >= 0.0) {
    if (suitable) {
      extremes_.pass_max = std::max(extremes_.pass_max, sigma);
      ++extremes_.passes;
    } else if (event.reason == trace::RejectionReason::RiskSigma) {
      extremes_.fail_min = std::min(extremes_.fail_min, sigma);
      ++extremes_.fails;
    }
  }
  const auto it = pending_.find(event.job);
  if (it == pending_.end()) return;
  if (suitable) ++it->second.suitable;
  if (config_.keep_nodes)
    it->second.nodes.push_back(
        NodeMargin{event.node, suitable, event.reason, sigma, event.b,
                   event.margin});
}

void ExplainRecorder::decide(const trace::Event& event) {
  ++recorded_;
  const auto it = pending_.find(event.job);
  const bool accepted = event.kind != trace::EventKind::JobRejected;
  if (it == pending_.end() || (config_.only_rejections && accepted)) {
    if (it != pending_.end()) pending_.erase(it);
    ++dropped_;
    return;
  }
  DecisionExplain d = std::move(it->second);
  pending_.erase(it);
  d.time = event.time;
  d.accepted = accepted;
  d.reason = accepted ? trace::RejectionReason::None : event.reason;
  // JobAdmitted and JobRejected carry the scan's suitable count in `a`; a
  // JobDegradedAdmit's `a` is a sigma, so its count is the one folded from
  // the record's node events.
  if (event.kind != trace::EventKind::JobDegradedAdmit)
    d.suitable = static_cast<int>(event.a);
  d.chosen_node = event.node;
  d.margin = event.margin;
  ring_.push_back(std::move(d));
  while (ring_.size() > config_.capacity) {
    ring_.pop_front();
    ++dropped_;
  }
}

const DecisionExplain* ExplainRecorder::find(std::int64_t job_id) const noexcept {
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it)
    if (it->job_id == job_id) return &*it;
  return nullptr;
}

void ExplainRecorder::clear() {
  ring_.clear();
  pending_.clear();
  extremes_ = SigmaExtremes{};
  recorded_ = 0;
  dropped_ = 0;
}

double required_improvement(const DecisionExplain& d) noexcept {
  return d.accepted ? 0.0 : std::max(0.0, -d.margin);
}

std::string describe(const DecisionExplain& d) {
  std::ostringstream os;
  os << "job " << d.job_id << " @ t=" << d.time << "  (procs=" << d.num_procs
     << ", deadline=" << d.deadline << ", estimate=" << d.estimate << ")\n";
  if (d.accepted && d.chosen_node < 0) {
    // QoPS admits at submission, before the dispatcher places the job.
    os << "  ACCEPTED before placement (queued; no node test ran)\n";
  } else if (d.accepted) {
    os << "  ACCEPTED on node " << d.chosen_node << " (" << d.suitable
       << " suitable node(s); chosen-node margin " << d.margin << ")\n";
  } else {
    os << "  REJECTED: " << trace::to_string(d.reason) << " (" << d.suitable
       << '/' << d.num_procs << " suitable nodes; job margin " << d.margin
       << ")\n";
    const double need = required_improvement(d);
    if (need > 0.0)
      os << "  to admit: the decisive test needed " << need
         << " more headroom on " << (d.num_procs - d.suitable)
         << " more node(s)\n";
  }
  if (!d.nodes.empty()) {
    table::Table t({"node", "verdict", "test", "sigma", "share", "margin"});
    for (const NodeMargin& m : d.nodes) {
      t.add_row({std::to_string(m.node), m.suitable ? "ok" : "fail",
                 m.suitable ? "-" : std::string(trace::to_string(m.test)),
                 m.sigma >= 0.0 ? table::num(m.sigma, 4) : "-",
                 m.share >= 0.0 ? table::num(m.share, 4) : "-",
                 table::num(m.margin, 4)});
    }
    os << t.str();
  }
  return os.str();
}

}  // namespace librisk::obs
