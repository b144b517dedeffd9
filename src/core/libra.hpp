// Libra and LibraRisk: deadline-based proportional-share admission controls
// (paper Sections 3.1 and 3.3).
//
// Both run jobs on the time-shared proportional-share executor and decide
// accept/reject at submission. They differ in two dials (paper Section 3.3):
//
//   admission test per node:
//     TotalShare (Libra, Eq. 2): the node is suitable iff the sum of
//       raw-estimate-based shares, including the new job, fits in the node's
//       capacity. Jobs that have overrun their estimate contribute *zero*
//       share — this is the "idealistic assumption of accurate runtime
//       estimates" the paper criticises.
//     ZeroRisk (LibraRisk, Eq. 4-6 / Algorithm 1): the node is suitable iff
//       the risk of deadline delay is zero when the new job is temporarily
//       added, evaluated against the scheduler's *current* knowledge
//       (including overrun re-estimates).
//
//   node selection among suitable nodes:
//     BestFit (Libra): least capacity left after acceptance — saturate
//       nodes to their maximum.
//     FirstFit (LibraRisk, Algorithm 1): zero-risk nodes in node order.
//     WorstFit: most capacity left first (load-levelling ablation).
#pragma once

#include <limits>
#include <string>
#include <unordered_map>

#include "cluster/timeshared.hpp"
#include "core/overload.hpp"
#include "core/risk.hpp"
#include "core/scheduler.hpp"

namespace librisk::core {

struct LibraConfig {
  enum class Admission { TotalShare, ZeroRisk };
  enum class Selection { BestFit, FirstFit, WorstFit };

  Admission admission = Admission::TotalShare;
  Selection selection = Selection::BestFit;
  /// Share capacity of each node (1.0 = the whole processor).
  double capacity = 1.0;
  /// Which remaining-work estimate the admission test reads: the raw user
  /// estimate (Libra's Eq. 1) or the scheduler's current overrun-adjusted
  /// estimate. Libra defaults to Raw, LibraRisk to Current.
  cluster::TimeSharedExecutor::EstimateKind estimate_kind =
      cluster::TimeSharedExecutor::EstimateKind::Raw;
  /// Risk parameters (ZeroRisk admission only).
  RiskConfig risk;
  /// Numeric tolerance on the capacity test.
  double tolerance = 1e-9;
  /// Differential-testing escape hatch: route submissions through the seed
  /// implementation (full node scan, allocating risk assessment, full
  /// stable_sort selection) instead of the workspace/cached fast path. The
  /// two paths make bit-identical decisions — tests/test_admission_equivalence
  /// asserts it — so this exists only to keep that claim checkable.
  bool legacy_path = false;
  /// Graceful-degradation catalog entry (core/overload.hpp). HardReject —
  /// the default — reproduces the paper's behavior exactly; other modes
  /// bend the shortfall path while the load threshold is exceeded. The
  /// legacy path reaches the same overload helpers, so degraded re-scans
  /// and salvage retries always run the production scan (bit-identical to
  /// legacy per tests/test_admission_equivalence).
  OverloadConfig overload;

  /// The paper's Libra: total-share admission, best-fit, raw estimates.
  static LibraConfig libra();
  /// The paper's LibraRisk: zero-risk admission, node-order selection,
  /// overrun-aware estimates.
  static LibraConfig libra_risk();
};

class LibraScheduler final : public Scheduler {
 public:
  /// The executor's completion events feed the collector; the scheduler
  /// installs its own completion handler on `executor`.
  LibraScheduler(sim::Simulator& simulator, cluster::TimeSharedExecutor& executor,
                 Collector& collector, LibraConfig config, std::string name);

  void on_job_submitted(const Job& job) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  /// Decision introspection for tests: evaluates a node's suitability for a
  /// job right now without side effects. Returns the fit key used for
  /// selection via `fit` (total share after acceptance).
  [[nodiscard]] bool node_suitable(cluster::NodeId node, const Job& job,
                                   double& fit) const;

  [[nodiscard]] const LibraConfig& config() const noexcept { return config_; }

 protected:
  /// Registers admission counters as pull metrics, scan/response
  /// histograms, the cumulative "admission" series and the per-node
  /// "nodes" series (residents, shares, tentative sigma).
  void on_telemetry(obs::Telemetry& telemetry) override;

 private:
  struct Candidate {
    cluster::NodeId node;
    double fit;    // total share after acceptance; higher = fuller
    double sigma;  // sigma the suitability test saw (-1 for TotalShare)
  };
  /// What one node scan tests against: the candidate's estimate and
  /// deadline and the Eq. 2 share cap every candidate must respect (the
  /// ZeroRisk test always runs against config_.risk). A submission tests
  /// the job as submitted with no cap (normal_test); the DowngradeQoS bend
  /// passes its rewritten deadline plus the cap that kForbidAdmitPastEq2
  /// requires.
  struct AdmissionTest {
    double estimate;
    double deadline;
    double share_cap = std::numeric_limits<double>::infinity();
  };

  [[nodiscard]] static AdmissionTest normal_test(const Job& job) noexcept {
    return AdmissionTest{job.scheduler_estimate, job.deadline};
  }
  [[nodiscard]] double new_job_share(const Job& job, cluster::NodeId node) const;
  /// The reason a failed per-node scan (or a shortfall rejection) carries:
  /// the admission test that said no.
  [[nodiscard]] trace::RejectionReason scan_reason() const noexcept;
  /// The batched risk kernel's view of one node (the only place a
  /// NodeRiskInput is assembled).
  [[nodiscard]] NodeRiskInput risk_input(cluster::NodeId node,
                                         const cluster::NodeStateView& state) const;
  /// The per-node admission test, a pure function of the node's state:
  /// share_test (TotalShare) or Eq. 4-6 through assess_nodes as a batch of
  /// one (ZeroRisk). `total_share` is the fit key. Updates no counter;
  /// serves node_suitable(). The scan calls share_test directly and batches
  /// the ZeroRisk kernel over node chunks.
  [[nodiscard]] NodeRiskVerdict test_node(cluster::NodeId node,
                                          const cluster::NodeStateView& state,
                                          const AdmissionTest& test) const;
  /// Eq. 2: the node's resident shares plus the candidate's fit in the
  /// capacity (sigma stays -1).
  [[nodiscard]] NodeRiskVerdict share_test(cluster::NodeId node,
                                           const cluster::NodeStateView& state,
                                           const AdmissionTest& test) const;
  /// Signed headroom of the decisive admission test for a scanned node
  /// (obs::NodeMargin convention): TotalShare: capacity - fit;
  /// ZeroRisk: sigma_threshold - sigma.
  [[nodiscard]] double node_margin(double fit, double sigma) const noexcept {
    return config_.admission == LibraConfig::Admission::TotalShare
               ? config_.capacity - fit
               : config_.risk.sigma_threshold - sigma;
  }
  /// Shortfall-rejection bookkeeping: rebuilds the failing-node deficits
  /// from scan_metric_, takes the k-th smallest (k = num_procs -
  /// suitable_count — the smallest improvement that would have admitted),
  /// feeds the near-miss counters, and returns the job margin (-deficit;
  /// 0.0 when unquantifiable). Reject path only, so the scan loop stays
  /// store-only.
  [[nodiscard]] double reject_job_margin(const Job& job, int suitable_count);
  /// Orders the first `count` candidates of suitable_ exactly as the legacy
  /// full stable_sort would, without touching the rest.
  void select_prefix(int count);
  void submit_fast(const Job& job);
  /// The node scan behind every decision outside the seed path: tests each
  /// node in node order, appends the suitable ones to `out`, stores each
  /// scanned node's decisive metric in `metric[node]` (fit for TotalShare;
  /// sigma for ZeroRisk, +inf for a bound-skipped node), and does all the
  /// effort counting. Only a submission's first scan (`first`) emits
  /// node_evaluated events, stops early under FirstFit,
  /// arms the sigma-spread bound and feeds the scan histogram.
  void scan(const Job& job, const AdmissionTest& test, sim::SimTime now,
            bool first, std::vector<Candidate>& out, std::vector<double>& metric);
  /// Admits the job over the first num_procs candidates of suitable_ (after
  /// select_prefix) through Scheduler::admit. `bent` is
  /// RejectionReason::None for a normal admission, otherwise the test a
  /// degraded mode bent (degraded provenance: stats, Decision mark,
  /// JobDegradedAdmit event). `run` is the job the executor paces — the
  /// deadline-extended copy for DowngradeQoS, `job` otherwise.
  void admit(const Job& job, const Job& run, sim::SimTime now,
             trace::RejectionReason bent);

  // ---- overload-catalog consult sites (core/overload.hpp) ----
  // Every helper below is only reachable when a non-HardReject mode is
  // configured (overload_enabled_), so the default path stays byte-identical
  // to pre-catalog builds.

  /// The Libra-family load signal: admitted-but-unfinished share demand vs
  /// total share capacity (cluster size x per-node capacity).
  [[nodiscard]] LoadSignal load_signal() const noexcept {
    return LoadSignal{inflight_share_,
                      static_cast<double>(executor_.cluster().size()) *
                          config_.capacity};
  }
  /// Per-submission governor pulse: re-evaluates the catalog against the
  /// current load signal.
  void pulse_governor(sim::SimTime now);
  /// Shortfall consult: called when the normal scan came up short. Applies
  /// the engaged mode's bend (QoS downgrade or deferral); returns true when
  /// the job was admitted or parked, false to fall through to the normal
  /// reject path.
  [[nodiscard]] bool try_degraded(const Job& job, sim::SimTime now);
  /// DowngradeQoS: full-cluster re-scan against the rewritten `deadline`,
  /// with the Eq. 2 share cap enforced on every candidate (catalog flag
  /// kForbidAdmitPastEq2). Admits on success, bending the normal test.
  [[nodiscard]] bool rescan_and_admit(const Job& job, sim::SimTime now,
                                      double deadline);
  /// DeferToSalvage: parks the job and schedules its retry.
  void defer_job(const Job& job, sim::SimTime now);
  /// Salvage-lane retry: re-runs the NORMAL test (DeferToSalvage may bend
  /// neither risk nor deadline); re-parks or finally rejects at_dispatch.
  void retry_deferred(std::int64_t job_id);
  /// Inflight-share bookkeeping feeding load_signal().
  void track_inflight(const Job& job,
                      const std::vector<cluster::NodeId>& nodes);
  void release_inflight(std::int64_t job_id);
  /// Completion/kill epilogue under an enabled catalog: releases the
  /// inflight contribution and, for a DowngradeQoS job, restores the
  /// original deadline before the collector judges lateness.
  void resolve_overload(const Job& job, sim::SimTime when, bool killed);

  // Seed implementation, kept for differential testing (LibraConfig::legacy_path).
  [[nodiscard]] RiskAssessment assess_with_job_legacy(cluster::NodeId node,
                                                      const Job& job) const;
  [[nodiscard]] bool node_suitable_legacy(cluster::NodeId node, const Job& job,
                                          double& fit,
                                          double* sigma_out = nullptr) const;
  void submit_legacy(const Job& job);

  sim::Simulator& sim_;
  cluster::TimeSharedExecutor& executor_;
  const LibraConfig config_;
  std::string name_;
  /// Per-scheduler scratch for the admission scan (grow-only, reused every
  /// submission; mutable because node_suitable() is a const query).
  mutable RiskWorkspace workspace_;
  std::vector<Candidate> suitable_;
  /// Per-node decisive metric of the current scan, indexed by node: fit
  /// (TotalShare) or sigma (ZeroRisk; +inf for a bound-skipped node, whose
  /// shortfall is unquantifiable). One flat store per scanned node keeps
  /// the hot loop branch-free; a rejection — which always scans the whole
  /// cluster — rebuilds the failing-node deficits from it after the fact.
  std::vector<double> scan_metric_;
  /// Reject-path scratch for those rebuilt deficits (reused allocation).
  std::vector<double> fail_deficit_;
  /// Decided once at construction: whether the executor's cached
  /// ResidentRiskAggregates can stand in for the per-resident fold (ZeroRisk
  /// + CurrentRate + Current estimates + matching deadline clamps), and the
  /// minimal NodeStateParts the admission scan needs from node_state().
  bool use_aggregates_ = false;
  cluster::NodeStateParts scan_parts_ = cluster::kStateAll;
  /// Grow-only chunk buffers for the batched ZeroRisk scan.
  std::vector<NodeRiskInput> batch_inputs_;
  std::vector<NodeRiskVerdict> batch_verdicts_;

  // ---- overload-catalog state (all idle under HardReject) ----
  /// mode != HardReject, decided once at construction; every consult site
  /// guards on it so the default path never touches the state below.
  bool overload_enabled_ = false;
  OverloadGovernor governor_;
  /// Degraded re-scan scratch: rescan_and_admit scans into these so a
  /// failed bend leaves suitable_ and scan_metric_ (which the normal reject
  /// accounting reads) untouched; the candidates are swapped into suitable_
  /// on success only.
  std::vector<Candidate> rescan_suitable_;
  std::vector<double> rescan_metric_;
  /// Admitted-but-unfinished share demand (sum over running jobs of their
  /// admission-time share on every chosen node); the load signal numerator.
  double inflight_share_ = 0.0;
  std::unordered_map<std::int64_t, double> inflight_contrib_;
  /// DowngradeQoS: the executor borrows Job pointers until completion, so
  /// the deadline-extended copy needs stable scheduler-owned storage. The
  /// completion/kill handler restores `original_deadline` before the
  /// collector judges lateness, and erases the entry last (its `const Job&`
  /// parameter aliases the map-owned copy).
  struct DowngradedJob {
    Job job;
    double original_deadline;
  };
  std::unordered_map<std::int64_t, DowngradedJob> downgraded_;
  /// DeferToSalvage parking lot. The engine slab keeps a parked job's
  /// storage alive while it is Pending, same contract EDF's queue relies on.
  struct Parked {
    const Job* job;
    int deferrals;
  };
  std::unordered_map<std::int64_t, Parked> parked_;

  /// Telemetry-registered sinks (null when telemetry is not attached; the
  /// registry owns the histograms).
  obs::Histogram* scan_nodes_hist_ = nullptr;
  obs::Histogram* response_hist_ = nullptr;

  /// Per-node sampler body: residents/shares/tentative sigma per node.
  void sample_nodes(obs::Series& series, sim::SimTime now) const;
};

}  // namespace librisk::core
