#include "core/libra.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/overload.hpp"
#include "exp/scenario.hpp"
#include "helpers.hpp"
#include "obs/explain.hpp"
#include "support/check.hpp"
#include "trace/recorder.hpp"
#include "workload/synthetic.hpp"

namespace librisk::core {
namespace {

using librisk::testing::JobBuilder;

struct Fixture {
  explicit Fixture(int nodes, LibraConfig config = LibraConfig::libra())
      : cluster(cluster::Cluster::homogeneous(nodes, 1.0)),
        executor(simulator, cluster),
        scheduler(simulator, executor, collector, config, "test") {}

  // Submits at current simulation time (mirrors what run_trace does).
  void submit(const workload::Job& job) {
    collector.record_submitted(job, simulator.now());
    scheduler.on_job_submitted(job);
  }

  sim::Simulator simulator;
  cluster::Cluster cluster;
  cluster::TimeSharedExecutor executor;
  metrics::Collector collector;
  LibraScheduler scheduler;
};

TEST(Libra, AcceptsFeasibleJobImmediately) {
  Fixture f(2);
  const workload::Job job = JobBuilder(1).set_runtime(100.0).deadline(400.0).build();
  f.submit(job);
  EXPECT_TRUE(f.executor.is_running(1));
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::Pending);  // running
  f.simulator.run();
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::FulfilledInTime);
}

TEST(Libra, RejectsEstimateInfeasibleJob) {
  Fixture f(2);
  // Estimated share = 300/100 = 3 > 1: no node can promise the deadline.
  const workload::Job job =
      JobBuilder(1).estimate(300.0).set_runtime(80.0).deadline(100.0).build();
  f.submit(job);
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtSubmit);
  EXPECT_FALSE(f.executor.is_running(1));
}

TEST(Libra, RejectsWhenClusterTooSmall) {
  Fixture f(2);
  const workload::Job job =
      JobBuilder(1).set_runtime(10.0).deadline(100.0).procs(3).build();
  f.submit(job);
  EXPECT_EQ(f.collector.record(1).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(Libra, EnforcesTotalShareOnEachNode) {
  Fixture f(1);
  // Each job demands 0.6 of the single node: first fits, second must not.
  const workload::Job a = JobBuilder(1).set_runtime(60.0).deadline(100.0).build();
  const workload::Job b = JobBuilder(2).set_runtime(60.0).deadline(100.0).build();
  f.submit(a);
  f.submit(b);
  EXPECT_TRUE(f.executor.is_running(1));
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtSubmit);
}

TEST(Libra, AcceptsUpToExactCapacity) {
  Fixture f(1);
  const workload::Job a = JobBuilder(1).set_runtime(60.0).deadline(100.0).build();
  const workload::Job b = JobBuilder(2).set_runtime(40.0).deadline(100.0).build();
  f.submit(a);
  f.submit(b);  // total share exactly 1.0
  EXPECT_TRUE(f.executor.is_running(1));
  EXPECT_TRUE(f.executor.is_running(2));
}

TEST(Libra, BestFitSaturatesFullerNodes) {
  Fixture f(2);
  // Load node selection is deterministic: first job can go anywhere (both
  // empty, fit keys equal, node order preserved by stable sort) -> node 0.
  const workload::Job a = JobBuilder(1).set_runtime(50.0).deadline(100.0).build();
  f.submit(a);
  ASSERT_EQ(f.executor.node_jobs(0).size(), 1u);
  // Next job fits on both; best fit chooses the fuller node 0.
  const workload::Job b = JobBuilder(2).set_runtime(30.0).deadline(100.0).build();
  f.submit(b);
  EXPECT_EQ(f.executor.node_jobs(0).size(), 2u);
  EXPECT_TRUE(f.executor.node_jobs(1).empty());
}

TEST(Libra, WorstFitSpreadsLoad) {
  LibraConfig config = LibraConfig::libra();
  config.selection = LibraConfig::Selection::WorstFit;
  Fixture f(2, config);
  const workload::Job a = JobBuilder(1).set_runtime(50.0).deadline(100.0).build();
  const workload::Job b = JobBuilder(2).set_runtime(30.0).deadline(100.0).build();
  f.submit(a);
  f.submit(b);
  EXPECT_EQ(f.executor.node_jobs(0).size(), 1u);
  EXPECT_EQ(f.executor.node_jobs(1).size(), 1u);
}

TEST(Libra, GangJobNeedsEnoughSuitableNodes) {
  Fixture f(3);
  // Saturate node 0 completely.
  const workload::Job hog = JobBuilder(1).set_runtime(100.0).deadline(100.0).build();
  f.submit(hog);
  // A 3-node gang job now only finds 2 suitable nodes.
  const workload::Job gang =
      JobBuilder(2).set_runtime(30.0).deadline(100.0).procs(3).build();
  f.submit(gang);
  EXPECT_EQ(f.collector.record(2).fate, metrics::JobFate::RejectedAtSubmit);
  // A 2-node gang fits.
  const workload::Job gang2 =
      JobBuilder(3).set_runtime(30.0).deadline(100.0).procs(2).build();
  f.submit(gang2);
  EXPECT_TRUE(f.executor.is_running(3));
}

TEST(Libra, BlindToOverrunJobs) {
  // The paper's criticism: once a job exhausts its (under)estimate, its
  // Eq. 1 share is zero and Libra believes the node is free.
  Fixture f(1);
  const workload::Job sneaky =
      JobBuilder(1).estimate(50.0).set_runtime(200.0).deadline(400.0).build();
  f.submit(sneaky);
  // Alone on a work-conserving node it runs at full speed: the estimate is
  // exhausted at t=50 but 100 reference-seconds of real work remain at 100.
  f.simulator.run_until(100.0);
  f.executor.sync();
  ASSERT_TRUE(f.executor.is_running(1));
  EXPECT_GT(f.executor.view(1).overrun_bumps, 0);

  double fit = 0.0;
  const workload::Job newcomer =
      JobBuilder(2).submit(100.0).set_runtime(50.0).deadline(200.0).build();
  EXPECT_TRUE(f.scheduler.node_suitable(0, newcomer, fit));  // blind accept
}

TEST(Libra, CapacityReleasedAfterCompletion) {
  Fixture f(1);
  const workload::Job a = JobBuilder(1).set_runtime(60.0).deadline(100.0).build();
  f.submit(a);
  f.simulator.run();  // a completes
  const workload::Job b = JobBuilder(2)
                              .submit(f.simulator.now())
                              .set_runtime(60.0)
                              .deadline(100.0)
                              .build();
  f.submit(b);
  EXPECT_TRUE(f.executor.is_running(2));
}

TEST(Libra, NodeSuitableLeavesAdmissionStatsUntouched) {
  // node_suitable() is introspection: it must not count as scan effort,
  // for either admission test and whether a node is empty or populated.
  for (const LibraConfig& config : {LibraConfig::libra(), LibraConfig::libra_risk()}) {
    Fixture f(3, config);
    const workload::Job a = JobBuilder(1).set_runtime(60.0).deadline(100.0).build();
    const workload::Job b = JobBuilder(2).set_runtime(30.0).deadline(200.0).build();
    f.submit(a);
    f.submit(b);
    f.executor.sync();
    const AdmissionStats before = f.scheduler.admission_stats();
    const workload::Job probe = JobBuilder(3).set_runtime(20.0).deadline(100.0).build();
    for (cluster::NodeId n = 0; n < 3; ++n) {
      double fit = 0.0;
      (void)f.scheduler.node_suitable(n, probe, fit);
      EXPECT_GT(fit, 0.0);
    }
    EXPECT_TRUE(f.scheduler.admission_stats() == before)
        << "admission " << static_cast<int>(config.admission);
  }
}

TEST(Libra, ExplainRecordsMatchFinalFateUnderEveryOverloadMode) {
  // One closed record per submission, whose verdict is the job's final
  // fate — also when DeferToSalvage parks a job and a later salvage retry
  // decides it.
  workload::PaperWorkloadConfig w;
  w.trace.job_count = 400;
  std::vector<workload::Job> jobs = workload::make_paper_workload(w, 1);
  workload::scale_interarrivals(jobs, 0.35);
  for (const Policy policy : {Policy::Libra, Policy::LibraRisk}) {
    for (const DegradedMode mode : all_degraded_modes()) {
      exp::Scenario s;
      s.nodes = 32;
      s.policy = policy;
      s.options.overload.mode = mode;
      obs::ExplainRecorder explain({.capacity = jobs.size()});
      trace::Recorder recorder(explain);
      s.options.hooks.trace = &recorder;
      const exp::ScenarioResult r = exp::run_jobs(s, jobs);
      const std::string label = std::string(to_string(policy)) + " " +
                                std::string(to_string(mode));
      EXPECT_EQ(explain.recorded(), r.admission.submissions) << label;
      ASSERT_EQ(explain.decisions().size(), jobs.size()) << label;
      for (const exp::JobOutcome& o : r.outcomes) {
        const obs::DecisionExplain* d = explain.find(o.id);
        ASSERT_NE(d, nullptr) << label << ", job " << o.id;
        const bool rejected = o.fate == metrics::JobFate::RejectedAtSubmit ||
                              o.fate == metrics::JobFate::RejectedAtDispatch;
        EXPECT_EQ(d->accepted, !rejected)
            << label << ", job " << o.id << " fate " << metrics::to_string(o.fate);
        if (rejected) {
          EXPECT_EQ(d->reason, o.reason) << label << ", job " << o.id;
        }
      }
    }
  }
}

TEST(LibraConfigTest, PresetsMatchPaper) {
  const LibraConfig libra = LibraConfig::libra();
  EXPECT_EQ(libra.admission, LibraConfig::Admission::TotalShare);
  EXPECT_EQ(libra.selection, LibraConfig::Selection::BestFit);
  EXPECT_EQ(libra.estimate_kind, cluster::TimeSharedExecutor::EstimateKind::Raw);

  const LibraConfig risk = LibraConfig::libra_risk();
  EXPECT_EQ(risk.admission, LibraConfig::Admission::ZeroRisk);
  EXPECT_EQ(risk.selection, LibraConfig::Selection::FirstFit);
  EXPECT_EQ(risk.estimate_kind, cluster::TimeSharedExecutor::EstimateKind::Current);
}

}  // namespace
}  // namespace librisk::core
