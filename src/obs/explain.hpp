// Decision provenance: per-submission margin records (docs/OBSERVABILITY.md
// "Decision provenance & margins").
//
// The admission path decides with inequalities — total share vs capacity
// (Eq. 2), sigma vs the risk threshold (Eq. 6), best-case finish vs the
// deadline — and the trace events carry each test's signed *margin*. An
// ExplainRecorder is a trace::Sink that folds those events into one
// DecisionExplain record per decision: attached through a trace::Recorder
// (`Hooks::trace`) it records live, fed a `.lrt` file's events it records
// offline, and the two cannot disagree.
//
// The fold reads six event kinds and ignores the rest:
//   JobSubmitted      opens a pending record for the job (procs, deadline,
//                     estimate); pending records are kept per job id, so
//                     queueing policies with many undecided jobs fold too.
//   NodeEvaluated     appends a NodeMargin to the job's pending record and
//                     folds its sigma into the SigmaExtremes.
//   JobDeferred       clears the pending node list: a salvage retry scans
//                     again without emitting node events, so the record of
//                     the decision it reaches has no node table.
//   JobAdmitted       closes the record as an acceptance (suitable = a).
//   JobDegradedAdmit  closes it as an acceptance; suitable is the count of
//                     suitable nodes in the record (the normal test's — a
//                     bent re-scan's count is not in the trace).
//   JobRejected       closes it as a rejection (suitable = a).
// The record's time is the decision event's time. Every policy closes every
// submission with exactly one of the three decision events
// (core::Scheduler's decision step): the Libra family and QoPS at
// submission, the queueing policies (EDF family, FCFS, EASY) when the job
// starts or is rejected at dispatch — so a queued job's record stays
// pending until then, and none is left behind at the end of a run.
//
// Margin sign convention (shared with trace Event::margin, see
// docs/TRACING.md "Margins"): margin >= 0 means the test passed with that
// much slack, margin < 0 means it failed by that much.
//   TotalShare node:  capacity - total_share_after_acceptance
//   ZeroRisk node:    sigma_threshold - sigma   (tolerance excluded: the
//                     engine's test is sigma <= threshold + tolerance, so a
//                     node passes iff margin >= -tolerance)
//   Deadline test:    allowed_finish - best_case_finish (EDF and EDF-BF
//                     rejects and admits; a DowngradeQoS admit measures
//                     against the extended deadline). FCFS, EASY, EDF-NoAC
//                     and QoPS run no deadline test at start and carry 0.
//   Job-level reject: -(k-th smallest node deficit), k = num_procs -
//                     suitable_count — the smallest per-node improvement
//                     that would have yielded enough suitable nodes.
//
// The recorder also folds every sigma evaluation into running extremes
// (SigmaExtremes): the largest sigma that passed and the smallest that
// failed. Those two numbers certify a threshold interval on which *every*
// verdict — hence the whole decision trajectory — is invariant, which is
// what exp::sweep_sigma_thresholds exploits to recompute the paper's
// risk-knob curve from one run (docs/MODEL.md "threshold stability").
//
// Attached live it costs what tracing costs: exact sigmas (no batch
// spread-bound skip), which alters effort counters but never a decision.
// Single-threaded, like every sink.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"
#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace librisk::obs {

/// One candidate node's admission-test outcome inside one decision.
struct NodeMargin {
  std::int32_t node = -1;
  bool suitable = false;
  /// The failed test when !suitable; None when suitable.
  trace::RejectionReason test = trace::RejectionReason::None;
  /// Sigma the test saw; -1 when no sigma was computed (TotalShare).
  double sigma = -1.0;
  /// Eq. 2 fit key (total share after acceptance); -1 when not computed.
  double share = -1.0;
  /// Signed headroom of the decisive test (see header comment).
  double margin = 0.0;

  friend bool operator==(const NodeMargin&, const NodeMargin&) = default;
};

/// One admission decision with its full margin context.
struct DecisionExplain {
  std::int64_t job_id = -1;
  sim::SimTime time = 0.0;
  int num_procs = 1;
  double deadline = 0.0;  ///< relative deadline at submission
  double estimate = 0.0;  ///< scheduler runtime estimate at submission
  bool accepted = false;
  trace::RejectionReason reason = trace::RejectionReason::None;
  int suitable = 0;            ///< suitable nodes the scan found
  std::int32_t chosen_node = -1;  ///< first chosen node (accepts)
  /// Job-level signed margin: accepts carry the chosen node's headroom,
  /// rejects carry -(smallest improvement that would have admitted), see
  /// header comment. 0.0 when no margin applies (e.g. NoSuitableNode).
  double margin = 0.0;
  /// Per-node margins in scan order; empty for policies without a node
  /// scan (the space-shared family), for a decision a salvage retry
  /// reached, or when ExplainConfig::keep_nodes is off.
  std::vector<NodeMargin> nodes;

  friend bool operator==(const DecisionExplain&, const DecisionExplain&) = default;
};

/// Running extremes over every sigma evaluation a recorder observed. The
/// zero-risk test is sigma <= threshold + tolerance, monotone in sigma, so
/// all verdicts — and with them the whole deterministic decision trajectory
/// — are unchanged for any probe threshold T' with
///   pass_max <= T' + tolerance  and  !(fail_min <= T' + tolerance),
/// evaluated in the engine's own floating-point expressions (covers()).
struct SigmaExtremes {
  double pass_max = -std::numeric_limits<double>::infinity();
  double fail_min = std::numeric_limits<double>::infinity();
  std::uint64_t passes = 0;
  std::uint64_t fails = 0;

  /// True when every recorded sigma verdict is provably identical at
  /// `threshold` (same tolerance as the recorded run).
  [[nodiscard]] bool covers(double threshold, double tolerance) const noexcept {
    const bool passes_hold = passes == 0 || pass_max <= threshold + tolerance;
    const bool fails_hold = fails == 0 || !(fail_min <= threshold + tolerance);
    return passes_hold && fails_hold;
  }

  friend bool operator==(const SigmaExtremes&, const SigmaExtremes&) = default;
};

struct ExplainConfig {
  /// Decisions retained (ring; the oldest is dropped). 0 keeps nothing —
  /// extremes and counts are still maintained, which is all the
  /// counterfactual sweep needs.
  std::size_t capacity = 256;
  /// Retain only this job's decisions (-1 = all). Filters retention only;
  /// extremes always see every evaluation.
  std::int64_t only_job = -1;
  /// Retain only rejections.
  bool only_rejections = false;
  /// Keep the per-node margin vectors (the bulk of the memory).
  bool keep_nodes = true;
};

class ExplainRecorder final : public trace::Sink {
 public:
  explicit ExplainRecorder(ExplainConfig config = {});

  /// Folds one trace event (see header comment for the kinds it reads).
  void write(const trace::Event& event) override;

  [[nodiscard]] const ExplainConfig& config() const noexcept { return config_; }
  /// Retained decisions, oldest first.
  [[nodiscard]] const std::deque<DecisionExplain>& decisions() const noexcept {
    return ring_;
  }
  /// Most recent retained decision for `job_id`; nullptr when absent.
  [[nodiscard]] const DecisionExplain* find(std::int64_t job_id) const noexcept;
  [[nodiscard]] const SigmaExtremes& sigma_extremes() const noexcept {
    return extremes_;
  }
  /// Decisions offered for retention / dropped by capacity or filters. A
  /// decision whose JobSubmitted the recorder never saw counts as dropped.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  void clear();

 private:
  /// Whether a decision of `job_id` can be retained at all; pending records
  /// are kept only for those jobs.
  [[nodiscard]] bool wanted(std::int64_t job_id) const noexcept;
  void fold_node(const trace::Event& event);
  /// Closes the job's pending record with the decision `event`.
  void decide(const trace::Event& event);

  ExplainConfig config_;
  std::deque<DecisionExplain> ring_;
  /// Submitted, undecided jobs: the record each decision will close.
  std::unordered_map<std::int64_t, DecisionExplain> pending_;
  SigmaExtremes extremes_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The smallest per-node improvement that would have admitted a rejected
/// job (0.0 for accepted decisions): max(0, -margin) in the job-level
/// convention.
[[nodiscard]] double required_improvement(const DecisionExplain& d) noexcept;

/// Multi-line human rendering: verdict, job-level margin, what it would
/// have taken, and the per-node margin table (when retained). Shared by
/// `librisk-sim explain` and `trace explain`.
[[nodiscard]] std::string describe(const DecisionExplain& d);

}  // namespace librisk::obs
