// Golden decision digests: every policy, over three checked-in SWF fixtures
// of the paper workload, at the paper's load and compressed past the knee
// (inter-arrivals x0.35), under every overload mode. Each run is reduced to
// fnv1a digests of
//
//   stats    — every AdmissionStats and RunSummary field plus each job's
//              outcome, from an unobserved run (the batch spread bound is
//              armed, so its skip counters are covered);
//   lrt      — the .lrt bytes, margins on, from a traced run;
//   explain  — every ExplainRecorder record, its counts and sigma extremes,
//              folded from those .lrt bytes read back;
//   observed — the stats digest of that traced run.
//
// and compared with tests/data/golden_digests.txt. The digests pin the
// decisions, the trace bytes and the counters of the admission paths, so a
// restructuring of them has to leave all three unchanged.
//
// Fixtures rather than synthesis: workload synthesis calls std::exp and
// std::log, whose last bits differ between libm builds; the simulation and
// admission code calls no transcendental libm function. Reading the jobs
// from SWF keeps the digests independent of the host's libm.
//
// A mismatching or missing entry fails with the line the run produced, in
// the golden file's format.
//
// A second check runs each configuration again with an ExplainRecorder as
// the live trace sink and requires the same stats as the file-traced run and
// the same records, counts and extremes as the fold of its .lrt bytes.
//
// A third folds each .lrt read-back for conservation: every submitted job
// reaches exactly one decision event, and every admitted job exactly one
// end (JobFinished or JobKilled).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/factory.hpp"
#include "core/overload.hpp"
#include "exp/scenario.hpp"
#include "obs/explain.hpp"
#include "support/rng.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "workload/job.hpp"
#include "workload/swf.hpp"

namespace librisk {
namespace {

constexpr const char* kFixtures[] = {"paper_seed1", "paper_seed2",
                                     "paper_seed3"};
constexpr double kHotScale = 0.35;

/// Byte accumulator for one digest: values are appended as their object
/// representation (doubles by bit pattern), then hashed once.
class Digest {
 public:
  template <typename T>
  Digest& add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    bytes_.append(raw, sizeof(T));
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return rng::fnv1a(bytes_); }

 private:
  std::string bytes_;
};

std::uint64_t stats_digest(const exp::ScenarioResult& r) {
  Digest d;
  const core::AdmissionStats& a = r.admission;
  d.add(a.submissions).add(a.accepted).add(a.rejections);
  d.add(a.nodes_scanned).add(a.assessments).add(a.empty_node_skips);
  d.add(a.early_exits).add(a.batched_assessments).add(a.nodes_batch_skipped);
  d.add(a.rejected_share_overflow).add(a.rejected_risk_sigma);
  d.add(a.rejected_no_suitable_node).add(a.rejected_deadline_infeasible);
  d.add(a.near_miss_share_5).add(a.near_miss_share_10);
  d.add(a.near_miss_sigma_5).add(a.near_miss_sigma_10);
  d.add(a.near_miss_deadline_5).add(a.near_miss_deadline_10);
  // The literal zero fills the slot of the retired ShedTail mode's
  // counter, which was 0 in every run of the remaining modes, so their
  // digests hash exactly as they did before its removal.
  d.add(a.degraded_admits).add(a.deferrals).add(std::uint64_t{0});
  d.add(a.overload_activations);
  const metrics::RunSummary& s = r.summary;
  d.add(s.submitted).add(s.accepted).add(s.rejected_at_submit);
  d.add(s.rejected_at_dispatch).add(s.fulfilled).add(s.completed_late);
  d.add(s.killed).add(s.fulfilled_pct).add(s.avg_slowdown_fulfilled);
  d.add(s.avg_slowdown_completed).add(s.avg_delay_late);
  d.add(s.p95_slowdown_fulfilled).add(s.max_delay);
  d.add(s.fulfilled_pct_high_urgency).add(s.fulfilled_pct_low_urgency);
  d.add(s.makespan).add(s.utilization);
  for (const exp::JobOutcome& o : r.outcomes) {
    d.add(o.id).add(o.fate).add(o.verdict).add(o.delay).add(o.slowdown);
    d.add(o.reason).add(o.node).add(o.sigma).add(o.margin);
  }
  return d.value();
}

std::uint64_t explain_digest(const obs::ExplainRecorder& rec) {
  Digest d;
  d.add(rec.recorded()).add(rec.dropped());
  const obs::SigmaExtremes& x = rec.sigma_extremes();
  d.add(x.pass_max).add(x.fail_min).add(x.passes).add(x.fails);
  for (const obs::DecisionExplain& e : rec.decisions()) {
    d.add(e.job_id).add(e.time).add(e.num_procs).add(e.deadline);
    d.add(e.estimate).add(e.accepted).add(e.reason).add(e.suitable);
    d.add(e.chosen_node).add(e.margin);
    for (const obs::NodeMargin& m : e.nodes) {
      d.add(m.node).add(m.suitable).add(m.test).add(m.sigma).add(m.share);
      d.add(m.margin);
    }
  }
  return d.value();
}

std::vector<workload::Job> load_fixture(const std::string& name, double scale) {
  std::vector<workload::Job> jobs = workload::swf::read_file(
      std::string(LIBRISK_TEST_DATA_DIR) + "/" + name + ".swf");
  if (scale != 1.0) workload::scale_interarrivals(jobs, scale);
  return jobs;
}

exp::Scenario scenario(core::Policy policy, core::DegradedMode mode) {
  exp::Scenario s;
  s.nodes = 32;
  s.policy = policy;
  s.options.overload.mode = mode;
  return s;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// The .lrt bytes (margins on) and result of one traced run.
struct Traced {
  std::string lrt;
  exp::ScenarioResult result;
};

Traced traced_run(core::Policy policy, core::DegradedMode mode,
                  const std::vector<workload::Job>& jobs) {
  exp::Scenario s = scenario(policy, mode);
  std::ostringstream lrt;
  trace::SinkOptions sink_options;
  sink_options.margins = true;
  sink_options.overload = mode != core::DegradedMode::HardReject;
  trace::BinarySink sink(lrt, {std::string(core::to_string(policy)), 1},
                         sink_options);
  trace::Recorder recorder(sink);
  s.options.hooks.trace = &recorder;
  Traced out;
  out.result = exp::run_jobs(s, jobs);
  sink.close();
  out.lrt = lrt.str();
  return out;
}

constexpr obs::ExplainConfig kKeepAll{.capacity = 1u << 20};

/// Feeds the events of .lrt bytes to `explain`.
void fold_lrt(const std::string& lrt, obs::ExplainRecorder& explain) {
  std::istringstream in(lrt);
  for (const trace::Event& e : trace::read_lrt(in).events) explain.write(e);
}

/// The golden file's line for one run (without the trailing newline).
std::string run_line(core::Policy policy, const std::string& fixture,
                     double scale, core::DegradedMode mode) {
  const std::vector<workload::Job> jobs = load_fixture(fixture, scale);

  const std::uint64_t stats = stats_digest(exp::run_jobs(scenario(policy, mode), jobs));
  const Traced traced = traced_run(policy, mode, jobs);
  obs::ExplainRecorder explain(kKeepAll);
  fold_lrt(traced.lrt, explain);

  std::ostringstream line;
  line << core::to_string(policy) << ' ' << fixture << ' '
       << (scale == 1.0 ? "paper" : "hot") << ' ' << core::to_string(mode)
       << ' ' << hex(stats) << ' ' << hex(rng::fnv1a(traced.lrt)) << ' '
       << hex(explain_digest(explain)) << ' ' << hex(stats_digest(traced.result));
  return line.str();
}

/// Golden lines keyed by their first four fields.
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> table = [] {
    std::map<std::string, std::string> t;
    std::ifstream in(std::string(LIBRISK_TEST_DATA_DIR) + "/golden_digests.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream is(line);
      std::string policy, fixture, load, mode;
      is >> policy >> fixture >> load >> mode;
      t[policy + ' ' + fixture + ' ' + load + ' ' + mode] = line;
    }
    return t;
  }();
  return table;
}

class GoldenDigests
    : public ::testing::TestWithParam<std::tuple<core::Policy, const char*>> {};

TEST_P(GoldenDigests, MatchCommitted) {
  const auto [policy, fixture] = GetParam();
  for (const double scale : {1.0, kHotScale}) {
    for (const core::DegradedMode mode : core::all_degraded_modes()) {
      const std::string actual = run_line(policy, fixture, scale, mode);
      std::istringstream is(actual);
      std::string p, f, l, m;
      is >> p >> f >> l >> m;
      const auto it = golden().find(p + ' ' + f + ' ' + l + ' ' + m);
      if (it == golden().end()) {
        ADD_FAILURE() << "no golden entry; run produced:\n" << actual;
        continue;
      }
      EXPECT_EQ(it->second, actual);
    }
  }
}

TEST_P(GoldenDigests, LiveExplainEqualsLrtFold) {
  const auto [policy, fixture] = GetParam();
  for (const double scale : {1.0, kHotScale}) {
    for (const core::DegradedMode mode : core::all_degraded_modes()) {
      const std::string label = std::string(core::to_string(policy)) + ' ' +
                                fixture + ' ' + (scale == 1.0 ? "paper" : "hot") +
                                ' ' + std::string(core::to_string(mode));
      const std::vector<workload::Job> jobs = load_fixture(fixture, scale);
      const Traced traced = traced_run(policy, mode, jobs);
      obs::ExplainRecorder offline(kKeepAll);
      fold_lrt(traced.lrt, offline);

      obs::ExplainRecorder live(kKeepAll);
      trace::Recorder recorder(live);
      exp::Scenario s = scenario(policy, mode);
      s.options.hooks.trace = &recorder;
      const exp::ScenarioResult r = exp::run_jobs(s, jobs);

      EXPECT_EQ(stats_digest(r), stats_digest(traced.result)) << label;
      EXPECT_TRUE(live.decisions() == offline.decisions()) << label;
      EXPECT_EQ(live.recorded(), offline.recorded()) << label;
      EXPECT_EQ(live.dropped(), offline.dropped()) << label;
      EXPECT_EQ(live.sigma_extremes(), offline.sigma_extremes()) << label;
    }
  }
}

/// The conservation fold over one trace's events. Every JobSubmitted gets
/// exactly one JobAdmitted, JobDegradedAdmit or JobRejected, after any
/// JobDeferred; every admitted job gets exactly one JobFinished or
/// JobKilled. Returns the first violation, or "" when the trace conserves.
std::string conservation_violation(const std::vector<trace::Event>& events) {
  enum class Stage { Submitted, Admitted, Rejected, Ended };
  std::unordered_map<std::int64_t, Stage> stage;
  const auto fail = [](const trace::Event& e, const char* what) {
    std::ostringstream os;
    os << "job " << e.job << ": " << trace::to_string(e.kind) << " at t="
       << e.time << ' ' << what;
    return os.str();
  };
  for (const trace::Event& e : events) {
    using trace::EventKind;
    switch (e.kind) {
      case EventKind::JobSubmitted:
        if (!stage.emplace(e.job, Stage::Submitted).second)
          return fail(e, "repeats a submission");
        break;
      case EventKind::JobDeferred:
      case EventKind::JobAdmitted:
      case EventKind::JobDegradedAdmit:
      case EventKind::JobRejected: {
        const auto it = stage.find(e.job);
        if (it == stage.end()) return fail(e, "precedes the submission");
        if (it->second != Stage::Submitted)
          return fail(e, "follows the job's decision");
        if (e.kind == EventKind::JobRejected)
          it->second = Stage::Rejected;
        else if (e.kind != EventKind::JobDeferred)
          it->second = Stage::Admitted;
        break;
      }
      case EventKind::JobFinished:
      case EventKind::JobKilled: {
        const auto it = stage.find(e.job);
        if (it == stage.end() || it->second != Stage::Admitted)
          return fail(e, "ends a job that is not admitted and running");
        it->second = Stage::Ended;
        break;
      }
      default:
        break;
    }
  }
  for (const auto& [job, at] : stage) {
    if (at == Stage::Submitted)
      return "job " + std::to_string(job) + " was submitted but never decided";
    if (at == Stage::Admitted)
      return "job " + std::to_string(job) + " was admitted but never ended";
  }
  return "";
}

TEST_P(GoldenDigests, LrtConservesEveryJob) {
  const auto [policy, fixture] = GetParam();
  for (const double scale : {1.0, kHotScale}) {
    for (const core::DegradedMode mode : core::all_degraded_modes()) {
      const std::string label = std::string(core::to_string(policy)) + ' ' +
                                fixture + ' ' + (scale == 1.0 ? "paper" : "hot") +
                                ' ' + std::string(core::to_string(mode));
      const Traced traced = traced_run(policy, mode, load_fixture(fixture, scale));
      std::istringstream in(traced.lrt);
      const trace::TraceData data = trace::read_lrt(in);
      EXPECT_EQ(conservation_violation(data.events), "") << label;
      std::size_t submitted = 0;
      for (const trace::Event& e : data.events)
        submitted += e.kind == trace::EventKind::JobSubmitted;
      EXPECT_EQ(submitted, traced.result.summary.submitted) << label;
    }
  }
}

std::string param_name(
    const ::testing::TestParamInfo<GoldenDigests::ParamType>& info) {
  std::string name = std::string(core::to_string(std::get<0>(info.param))) +
                     "_" + std::get<1>(info.param);
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, GoldenDigests,
    ::testing::Combine(::testing::ValuesIn(core::all_policies()),
                       ::testing::ValuesIn(kFixtures)),
    param_name);

}  // namespace
}  // namespace librisk
