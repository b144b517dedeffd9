// Decision provenance: the ExplainRecorder's fold of the trace event
// stream, its retention filters, and the guarantee that the records are a
// function of the trace — a run with the recorder as its sink decides as a
// run traced to a file, and its records equal those folded from that file,
// for every policy over many seeds.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/counterfactual.hpp"
#include "exp/scenario.hpp"
#include "obs/explain.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"

namespace librisk {
namespace {

exp::Scenario small_scenario(core::Policy policy, std::uint64_t seed) {
  exp::Scenario s;
  s.workload.trace.job_count = 200;
  s.nodes = 32;
  s.policy = policy;
  s.seed = seed;
  return s;
}

/// One run traced to `.lrt` bytes with margins on, and its result.
struct Recorded {
  std::string lrt;
  exp::ScenarioResult result;
};

Recorded record_lrt(core::Policy policy, std::uint64_t seed) {
  exp::Scenario s = small_scenario(policy, seed);
  std::ostringstream os;
  trace::BinarySink sink(os, {std::string(core::to_string(policy)), seed},
                         {.margins = true});
  trace::Recorder recorder(sink);
  s.options.hooks.trace = &recorder;
  Recorded out;
  out.result = exp::run_scenario(s);
  sink.close();
  out.lrt = os.str();
  return out;
}

// ---- the event fold ----

TEST(ExplainRecorder, RecordsAcceptAndRejectWithNodes) {
  obs::ExplainRecorder rec;
  trace::Recorder emit(rec);
  emit.job_submitted(10.0, 1, 2, 100.0, 50.0);
  emit.node_evaluated(10.0, 1, 0, trace::RejectionReason::None, 0.0, 0.4, 0.6);
  emit.node_evaluated(10.0, 1, 1, trace::RejectionReason::RiskSigma, 3.0, 0.9,
                      -3.0);
  emit.node_evaluated(10.0, 1, 2, trace::RejectionReason::None, 0.0, 0.5, 0.5);
  emit.job_admitted(10.0, 1, 0, 2, 0.4, 0.6);

  emit.job_submitted(20.0, 2, 1, 10.0, 50.0);
  emit.node_evaluated(20.0, 2, 0, trace::RejectionReason::RiskSigma, 2.0, 0.8,
                      -2.0);
  emit.job_rejected(20.0, 2, trace::RejectionReason::RiskSigma, 0, 1, -2.0);

  ASSERT_EQ(rec.decisions().size(), 2u);
  const obs::DecisionExplain& accept = rec.decisions()[0];
  EXPECT_TRUE(accept.accepted);
  EXPECT_EQ(accept.job_id, 1);
  EXPECT_EQ(accept.num_procs, 2);
  EXPECT_EQ(accept.deadline, 100.0);
  EXPECT_EQ(accept.estimate, 50.0);
  EXPECT_EQ(accept.chosen_node, 0);
  EXPECT_EQ(accept.suitable, 2);
  EXPECT_EQ(accept.margin, 0.6);
  ASSERT_EQ(accept.nodes.size(), 3u);
  EXPECT_EQ(accept.nodes[1].test, trace::RejectionReason::RiskSigma);
  EXPECT_EQ(accept.nodes[1].sigma, 3.0);
  EXPECT_EQ(accept.nodes[1].share, 0.9);
  EXPECT_EQ(obs::required_improvement(accept), 0.0);

  const obs::DecisionExplain& reject = rec.decisions()[1];
  EXPECT_FALSE(reject.accepted);
  EXPECT_EQ(reject.reason, trace::RejectionReason::RiskSigma);
  EXPECT_EQ(reject.chosen_node, -1);
  EXPECT_EQ(reject.margin, -2.0);
  EXPECT_EQ(obs::required_improvement(reject), 2.0);

  EXPECT_EQ(rec.find(2), &reject);
  EXPECT_EQ(rec.find(99), nullptr);
  EXPECT_EQ(rec.recorded(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);

  // Sigma extremes fold every evaluation, suitable or not.
  EXPECT_EQ(rec.sigma_extremes().passes, 2u);
  EXPECT_EQ(rec.sigma_extremes().fails, 2u);
  EXPECT_EQ(rec.sigma_extremes().pass_max, 0.0);
  EXPECT_EQ(rec.sigma_extremes().fail_min, 2.0);

  const std::string accept_text = obs::describe(accept);
  EXPECT_NE(accept_text.find("ACCEPTED"), std::string::npos);
  const std::string reject_text = obs::describe(reject);
  EXPECT_NE(reject_text.find("REJECTED"), std::string::npos);
  EXPECT_NE(reject_text.find("risk_sigma"), std::string::npos);

  rec.clear();
  EXPECT_TRUE(rec.decisions().empty());
  EXPECT_EQ(rec.sigma_extremes().passes, 0u);
}

TEST(ExplainRecorder, CapacityRingDropsOldest) {
  obs::ExplainRecorder rec(obs::ExplainConfig{.capacity = 2});
  trace::Recorder emit(rec);
  for (std::int64_t id = 1; id <= 5; ++id) {
    const auto t = static_cast<double>(id);
    emit.job_submitted(t, id, 1, 1.0, 1.0);
    emit.job_rejected(t, id, trace::RejectionReason::NoSuitableNode, 0, 1);
  }
  ASSERT_EQ(rec.decisions().size(), 2u);
  EXPECT_EQ(rec.decisions()[0].job_id, 4);
  EXPECT_EQ(rec.decisions()[1].job_id, 5);
  EXPECT_EQ(rec.recorded(), 5u);
  EXPECT_EQ(rec.dropped(), 3u);
}

TEST(ExplainRecorder, FiltersRetainButExtremesSeeEverything) {
  obs::ExplainConfig config;
  config.only_job = 2;
  config.only_rejections = true;
  obs::ExplainRecorder rec(config);
  trace::Recorder emit(rec);

  emit.job_submitted(1.0, 1, 1, 1.0, 1.0);  // wrong job
  emit.node_evaluated(1.0, 1, 0, trace::RejectionReason::RiskSigma, 5.0, 0.5,
                      -5.0);
  emit.job_rejected(1.0, 1, trace::RejectionReason::RiskSigma, 0, 1, -5.0);
  emit.job_submitted(2.0, 2, 1, 1.0, 1.0);  // right job, accepted -> filtered
  emit.node_evaluated(2.0, 2, 0, trace::RejectionReason::None, 0.25, 0.5, 0.75);
  emit.job_admitted(2.0, 2, 0, 1, 0.5, 0.75);
  emit.job_submitted(3.0, 2, 1, 1.0, 1.0);  // right job, rejected -> retained
  emit.job_rejected(3.0, 2, trace::RejectionReason::RiskSigma, 0, 1, -1.0);

  ASSERT_EQ(rec.decisions().size(), 1u);
  EXPECT_EQ(rec.decisions()[0].job_id, 2);
  EXPECT_FALSE(rec.decisions()[0].accepted);
  EXPECT_EQ(rec.recorded(), 3u);
  EXPECT_EQ(rec.dropped(), 2u);
  // The filters drop retention only — the extremes saw both sigmas.
  EXPECT_EQ(rec.sigma_extremes().fail_min, 5.0);
  EXPECT_EQ(rec.sigma_extremes().pass_max, 0.25);
}

TEST(ExplainRecorder, KeepNodesOffDropsNodeVectors) {
  obs::ExplainRecorder rec(obs::ExplainConfig{.keep_nodes = false});
  trace::Recorder emit(rec);
  emit.job_submitted(1.0, 1, 1, 1.0, 1.0);
  emit.node_evaluated(1.0, 1, 0, trace::RejectionReason::None, 0.0, 0.5, 0.5);
  emit.job_degraded_admit(1.0, 1, trace::RejectionReason::RiskSigma, 0, 0.0,
                          0.5, 0.5);
  ASSERT_EQ(rec.decisions().size(), 1u);
  EXPECT_TRUE(rec.decisions()[0].nodes.empty());
  EXPECT_EQ(rec.decisions()[0].suitable, 1);   // still counted
  EXPECT_EQ(rec.sigma_extremes().passes, 1u);  // still folded
}

TEST(ExplainRecorder, DeferralClearsNodesAndTheDecisionSetsTheTime) {
  // A salvage retry scans again without node events: its record holds the
  // submission's job data, the deciding event's time, and no node table.
  obs::ExplainRecorder rec;
  trace::Recorder emit(rec);
  emit.job_submitted(5.0, 7, 1, 40.0, 20.0);
  emit.node_evaluated(5.0, 7, 0, trace::RejectionReason::RiskSigma, 2.0, 0.7,
                      -2.0);
  emit.job_deferred(5.0, 7, trace::RejectionReason::RiskSigma, 15.0, 1);
  emit.job_deferred(15.0, 7, trace::RejectionReason::RiskSigma, 25.0, 2);
  emit.job_degraded_admit(25.0, 7, trace::RejectionReason::RiskSigma, 3, 0.0,
                          0.4, 1.0);
  ASSERT_EQ(rec.decisions().size(), 1u);
  const obs::DecisionExplain& d = rec.decisions()[0];
  EXPECT_EQ(d.time, 25.0);
  EXPECT_EQ(d.deadline, 40.0);
  EXPECT_EQ(d.estimate, 20.0);
  EXPECT_TRUE(d.accepted);
  EXPECT_EQ(d.reason, trace::RejectionReason::None);
  EXPECT_EQ(d.chosen_node, 3);
  EXPECT_EQ(d.suitable, 0);
  EXPECT_TRUE(d.nodes.empty());
  EXPECT_EQ(d.margin, 1.0);
  EXPECT_EQ(rec.sigma_extremes().fails, 1u);  // the first scan still counts
}

TEST(ExplainRecorder, InterleavedJobsFoldIntoTheirOwnRecords) {
  // Queueing policies hold several undecided jobs; node events and
  // decisions find their record by job id. A start is not a decision (the
  // queueing policies admit just before it), and a decision whose
  // submission was never seen is counted and dropped.
  obs::ExplainRecorder rec;
  trace::Recorder emit(rec);
  emit.job_submitted(1.0, 1, 1, 10.0, 5.0);
  emit.job_submitted(2.0, 2, 2, 20.0, 6.0);
  emit.job_submitted(3.0, 3, 1, 30.0, 7.0);
  emit.node_evaluated(4.0, 2, 1, trace::RejectionReason::None, -1.0, 0.5, 0.5);
  emit.job_admitted(4.0, 3, 0, 1, 0.0, 2.0);
  emit.job_started(4.0, 3, 0, 1, 7.0);
  emit.job_rejected(5.0, 1, trace::RejectionReason::DeadlineInfeasible, 0, 1,
                    -3.0);
  emit.job_admitted(6.0, 2, 1, 1, 0.5, 0.5);
  emit.job_started(6.0, 2, 1, 2, 6.0);
  emit.job_rejected(8.0, 9, trace::RejectionReason::NoSuitableNode, 0, 1);

  ASSERT_EQ(rec.decisions().size(), 3u);
  EXPECT_EQ(rec.decisions()[0].job_id, 3);
  EXPECT_TRUE(rec.decisions()[0].accepted);
  EXPECT_EQ(rec.decisions()[0].chosen_node, 0);
  EXPECT_EQ(rec.decisions()[0].margin, 2.0);
  EXPECT_EQ(rec.decisions()[1].job_id, 1);
  EXPECT_EQ(rec.decisions()[1].time, 5.0);
  EXPECT_EQ(rec.decisions()[1].margin, -3.0);
  EXPECT_TRUE(rec.decisions()[1].nodes.empty());
  EXPECT_EQ(rec.decisions()[2].job_id, 2);
  EXPECT_EQ(rec.decisions()[2].num_procs, 2);
  ASSERT_EQ(rec.decisions()[2].nodes.size(), 1u);
  EXPECT_EQ(rec.decisions()[2].nodes[0].node, 1);
  EXPECT_EQ(rec.recorded(), 4u);
  EXPECT_EQ(rec.dropped(), 1u);
  // Share-test nodes carry no sigma and leave the extremes alone.
  EXPECT_EQ(rec.sigma_extremes().passes, 0u);
}

// ---- the tentpole guarantee: provenance never changes a decision ----

TEST(ExplainProvenance, LiveRecordsMatchTheTraceAcrossPoliciesAndSeeds) {
  // A run with an ExplainRecorder as its sink decides exactly as a run
  // traced to a file, and its records are those folded from that file.
  for (const core::Policy policy : core::all_policies()) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const std::string label =
          std::string(core::to_string(policy)) + " seed " + std::to_string(seed);
      const Recorded file = record_lrt(policy, seed);
      ASSERT_FALSE(file.lrt.empty()) << label;
      const obs::ExplainConfig keep_all{.capacity = 100000};
      obs::ExplainRecorder offline(keep_all);
      std::istringstream in(file.lrt);
      for (const trace::Event& e : trace::read_lrt(in).events)
        offline.write(e);

      obs::ExplainRecorder live(keep_all);
      const exp::ScenarioResult r =
          exp::run_with_margins(small_scenario(policy, seed), live);
      ASSERT_EQ(r.outcomes.size(), file.result.outcomes.size()) << label;
      for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        const exp::JobOutcome& a = r.outcomes[i];
        const exp::JobOutcome& b = file.result.outcomes[i];
        ASSERT_TRUE(a.id == b.id && a.fate == b.fate && a.delay == b.delay &&
                    a.node == b.node && a.margin == b.margin)
            << label << ", job " << a.id;
      }
      EXPECT_TRUE(live.decisions() == offline.decisions()) << label;
      EXPECT_EQ(live.recorded(), offline.recorded()) << label;
      EXPECT_EQ(live.sigma_extremes(), offline.sigma_extremes()) << label;
    }
  }
}

TEST(ExplainProvenance, OutcomesAndSummaryUnchanged) {
  for (const core::Policy policy :
       {core::Policy::LibraRisk, core::Policy::Libra, core::Policy::Edf}) {
    const exp::ScenarioResult plain =
        exp::run_scenario(small_scenario(policy, 3));
    obs::ExplainRecorder rec;
    const exp::ScenarioResult explained =
        exp::run_with_margins(small_scenario(policy, 3), rec);

    EXPECT_EQ(plain.summary.accepted, explained.summary.accepted);
    EXPECT_EQ(plain.summary.fulfilled_pct, explained.summary.fulfilled_pct);
    EXPECT_EQ(plain.summary.avg_slowdown_fulfilled,
              explained.summary.avg_slowdown_fulfilled);
    ASSERT_EQ(plain.outcomes.size(), explained.outcomes.size());
    for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
      ASSERT_EQ(plain.outcomes[i].fate, explained.outcomes[i].fate);
      ASSERT_EQ(plain.outcomes[i].delay, explained.outcomes[i].delay);
    }
    EXPECT_GT(rec.recorded(), 0u) << core::to_string(policy);
  }
}

TEST(ExplainProvenance, RecordedDecisionsMatchOutcomes) {
  exp::Scenario s = small_scenario(core::Policy::LibraRisk, 7);
  obs::ExplainRecorder rec(obs::ExplainConfig{.capacity = 100000});
  const exp::ScenarioResult r = exp::run_with_margins(s, rec);

  ASSERT_EQ(rec.decisions().size(), r.outcomes.size());
  for (const obs::DecisionExplain& d : rec.decisions()) {
    const exp::JobOutcome* outcome = nullptr;
    for (const exp::JobOutcome& o : r.outcomes)
      if (o.id == d.job_id) outcome = &o;
    ASSERT_NE(outcome, nullptr) << "job " << d.job_id;
    const bool outcome_rejected =
        outcome->fate == metrics::JobFate::RejectedAtSubmit ||
        outcome->fate == metrics::JobFate::RejectedAtDispatch;
    EXPECT_EQ(d.accepted, !outcome_rejected) << "job " << d.job_id;
    if (!d.accepted) {
      EXPECT_EQ(d.reason, outcome->reason) << "job " << d.job_id;
      EXPECT_LE(d.margin, 0.0) << "job " << d.job_id;
    } else {
      EXPECT_EQ(d.chosen_node, outcome->node) << "job " << d.job_id;
      EXPECT_EQ(d.margin, outcome->margin) << "job " << d.job_id;
    }
  }
}

// ---- near-miss counters ----

TEST(ExplainNearMiss, CountersAreConsistent) {
  for (const core::Policy policy :
       {core::Policy::LibraRisk, core::Policy::Libra, core::Policy::Edf}) {
    const exp::ScenarioResult r =
        exp::run_scenario(small_scenario(policy, 11));
    const core::AdmissionStats& adm = r.admission;
    // 10% includes 5% by construction.
    EXPECT_GE(adm.near_miss_share_10, adm.near_miss_share_5);
    EXPECT_GE(adm.near_miss_sigma_10, adm.near_miss_sigma_5);
    EXPECT_GE(adm.near_miss_deadline_10, adm.near_miss_deadline_5);
    // Near-misses are rejections, so they cannot exceed the rejection count.
    EXPECT_LE(adm.near_miss_10(), adm.rejections) << core::to_string(policy);
  }
}

TEST(ExplainNearMiss, ExactWhenMarginsObserved) {
  // With explain attached the batch spread bound is disabled, so the sigma
  // near-miss counters are exact; detached they may undercount, never over.
  exp::Scenario s = small_scenario(core::Policy::LibraRisk, 11);
  const exp::ScenarioResult detached = exp::run_scenario(s);
  obs::ExplainRecorder rec(obs::ExplainConfig{.capacity = 0});
  const exp::ScenarioResult attached = exp::run_with_margins(s, rec);

  EXPECT_LE(detached.admission.near_miss_sigma_5,
            attached.admission.near_miss_sigma_5);
  EXPECT_LE(detached.admission.near_miss_sigma_10,
            attached.admission.near_miss_sigma_10);
  // Decisions are identical either way, so the rejection totals agree.
  EXPECT_EQ(detached.admission.rejections, attached.admission.rejections);
}

}  // namespace
}  // namespace librisk
