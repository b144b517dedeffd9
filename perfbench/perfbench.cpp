// perfbench: the repository's admission benchmark.
//
// One process runs one workload for a fixed wall-clock budget and prints
// every metric by name with its unit; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. run.py builds this
// binary and forwards its arguments; README.md explains the workloads, the
// layer-to-end-to-end map and the noise findings behind the design:
//   - every timed metric is a mean over in-process repetitions that
//     follow one untimed warm-up repetition (a median of a few fast and
//     slow repetitions jumps between the two; the mean does not);
//   - no workload runs more threads than the host has CPUs;
//   - only one producer submits real jobs, so decisions stay exact;
//   - timings are never normalised by a host-speed calibration.
//
// Only public functions of workload, core (engine, gateway), federation and
// metrics are called, and the program only ever sees generated jobs.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/gateway.hpp"
#include "federation/federation.hpp"
#include "metrics/collector.hpp"
#include "workload/estimates.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace librisk;
using Clock = std::chrono::steady_clock;

constexpr double kSpecRating = 168.0;  // SDSC SP2 reference node rating
constexpr double kInaccuracyPct = 100.0;
constexpr int kSetupsPerSlot = 5;     // timed set-ups per CPU rotation slot, at least
constexpr double kSetupSeconds = 1.5;  // set-up rotations go on for at least this long

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Shortest decimal form that reads back as the same double.
std::string number(double v) {
  std::array<char, 64> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), res.ptr);
}

/// Mean over the non-empty groups of each group's median.
double mean_of_medians(const std::vector<std::vector<double>>& groups) {
  double sum = 0.0;
  int used = 0;
  for (const auto& v : groups)
    if (!v.empty()) {
      sum += median(v);
      ++used;
    }
  return used > 0 ? sum / used : 0.0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Mean over the non-empty groups of each group's mean.
double mean_of_means(const std::vector<std::vector<double>>& groups) {
  double sum = 0.0;
  int used = 0;
  for (const auto& v : groups)
    if (!v.empty()) {
      sum += mean(v);
      ++used;
    }
  return used > 0 ? sum / used : 0.0;
}

/// Nearest-rank percentile (q in (0, 100]) of a pooled sample.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(q / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

/// FNV-1a over the bytes of each value fed in.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

// ---------------------------------------------------------------------------
// Spans: recorded by this file around each public call, kept in memory,
// reduced to per-layer self time, and written out at the end.

enum Layer : std::uint8_t {
  kRep,  // one repetition: the end-to-end interval
  kProduce,  // gateway: producers running, from spawn to join
  kWorkloadNext,
  kEngineAdvance,
  kEngineSubmit,
  kEngineFinish,
  kMetricsSummary,
  kGatewaySubmitReal,
  kGatewaySubmitFlood,
  kGatewayClose,
  kFederationSubmit,
  kFederationFinish,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "rep",           "gateway.produce",     "workload.next",
    "engine.advance_to", "engine.submit",   "engine.finish",
    "metrics.summary", "gateway.submit.real", "gateway.submit.flood",
    "gateway.close", "federation.submit",   "federation.finish"};

/// Layers that only structure the trace; their self time is the part of a
/// repetition no layer span covers.
bool structural(Layer layer) { return layer == kRep || layer == kProduce; }

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t job = -1;     // job id, -1 for spans not tied to one job
  std::int32_t parent = -1;  // index in the same log, -1 for the root
  Layer layer = kRep;
  std::uint8_t thread = 0;
};

class SpanLog {
 public:
  std::int32_t add(Layer layer, std::int64_t start, std::int64_t end,
                   std::int32_t parent, std::int64_t job = -1) {
    spans_.push_back(Span{start, end, job, parent, layer, thread_});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void set_end(std::int32_t index, std::int64_t end) {
    spans_[static_cast<std::size_t>(index)].end = end;
  }
  void set_thread(std::uint8_t thread) { thread_ = thread; }
  void reserve(std::size_t n) { spans_.reserve(n); }
  /// Moves another thread's spans in; their roots get `parent`.
  void adopt(SpanLog& other, std::int32_t parent) {
    const auto base = static_cast<std::int32_t>(spans_.size());
    for (Span s : other.spans_) {
      s.parent = s.parent < 0 ? parent : s.parent + base;
      spans_.push_back(s);
    }
    other.spans_.clear();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
  std::uint8_t thread_ = 0;
};

/// Self time per layer, in ns: each span's duration minus the part of its
/// interval that the union of its children covers (children may overlap
/// when they run on different threads).
std::array<double, kLayerCount> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
  std::array<double, kLayerCount> self{};
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    iv.clear();
    for (std::int32_t c : children[i]) {
      const Span& s = spans[static_cast<std::size_t>(c)];
      const std::int64_t a = std::max(s.start, p.start);
      const std::int64_t b = std::min(s.end, p.end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (const auto& [a, b] : iv) {
      if (run_end < a) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[p.layer] += static_cast<double>(p.end - p.start - covered);
  }
  return self;
}

// ---------------------------------------------------------------------------
// Results of one repetition.

struct Counters {
  core::AdmissionStats adm;
  cluster::KernelStats kernel;
  std::uint64_t events = 0;
  std::uint64_t peak_live = 0;  // largest live-job set of any sub-run

  void add(const core::AdmissionEngine& engine) {
    const core::AdmissionStats a = engine.admission_stats();
    const cluster::KernelStats k = engine.kernel_stats();
    adm.nodes_scanned += a.nodes_scanned;
    adm.assessments += a.assessments;
    adm.nodes_batch_skipped += a.nodes_batch_skipped;
    adm.early_exits += a.early_exits;
    kernel.settles += k.settles;
    kernel.tasks_recomputed += k.tasks_recomputed;
    kernel.boundary_updates += k.boundary_updates;
    events += engine.events_processed();
  }
};

struct GatewayExtras {
  double queue_wait_p50_us = 0, queue_wait_p99_us = 0;
  double decide_p50_us = 0, decide_p99_us = 0;
  double queue_high_water = 0, fast_reject_pct = 0, drive_busy_pct = 0;
};

/// The paper's two metrics of one sub-run, compared with the batch
/// reference outside the timed window.
struct PaperResult {
  std::uint64_t fulfilled = 0;
  double avg_slowdown = 0.0;
};

struct RepResult {
  double wall_s = 0.0;          // sum of the sub-runs' timed windows
  std::uint64_t submitted = 0;  // jobs offered, flood included
  std::uint64_t resolved = 0;   // accounted fates plus gate sheds
  std::uint64_t real_jobs = 0;  // jobs of the generated workloads
  std::uint64_t failed = 0;
  std::uint64_t fulfilled = 0;
  double slowdown_sum = 0.0;
  double fulfilled_pct = 0.0;
  double avg_slowdown = 0.0;
  std::vector<PaperResult> subruns;
  std::uint64_t digest = 0;
  Counters counters;
  GatewayExtras gateway;
  double max_shard_routed_pct = 0.0;
  // Percentiles of this repetition's per-job submit latencies.
  double submit_p50_us = 0.0;
  double submit_p99_us = 0.0;
  double flood_p50_us = 0.0;
  std::size_t latency_samples = 0;
  std::size_t slot = 0;  // CPU rotation slot the repetition ran in
  std::vector<std::string> problems;  // failed output checks

  void end_subrun(const metrics::RunSummary& s, std::uint64_t peak_live) {
    fulfilled += s.fulfilled;
    slowdown_sum += s.avg_slowdown_fulfilled * static_cast<double>(s.fulfilled);
    subruns.push_back({s.fulfilled, s.avg_slowdown_fulfilled});
    counters.peak_live = std::max(counters.peak_live, peak_live);
  }
  /// Paper metrics over every real job of the repetition; gate-shed real
  /// jobs count as rejected.
  void end_rep(std::uint64_t rep_digest) {
    digest = rep_digest;
    fulfilled_pct = real_jobs > 0 ? 100.0 * static_cast<double>(fulfilled) /
                                        static_cast<double>(real_jobs)
                                  : 0.0;
    avg_slowdown = fulfilled > 0 ? slowdown_sum / static_cast<double>(fulfilled) : 0.0;
  }
};

/// Per-job latency samples of one repetition, in microseconds. The buffer
/// is allocated and touched once, up front, and reused, so the benchmark's
/// own memory does not depend on how many repetitions a host manages and
/// peak_rss_mb stays a property of the program.
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  Samples() {
    submit_us_.resize(kCapacity);
    submit_us_.clear();
  }
  void submit(double us) {
    if (submit_us_.size() < submit_us_.capacity()) submit_us_.push_back(us);
  }
  void flood(const std::vector<double>& us) {
    flood_us_.insert(flood_us_.end(), us.begin(), us.end());
  }
  void clear() {
    submit_us_.clear();
    flood_us_.clear();
  }
  std::vector<double>& submit_us() { return submit_us_; }
  std::vector<double>& flood_us() { return flood_us_; }

 private:
  std::vector<double> submit_us_;  // the public call returning the decision
  std::vector<double> flood_us_;   // gateway flood submits (traced reps only)
};

/// Checks every collector record holds exactly one terminal fate and folds
/// the per-job fates into `digest`. Returns the number of unresolved jobs.
std::uint64_t account(const metrics::Collector& collector, Digest& digest) {
  std::uint64_t unresolved = 0;
  for (const auto& [id, rec] : collector.records()) {
    if (rec.fate == metrics::JobFate::Pending) ++unresolved;
    digest.add(id);
    digest.add(rec.fate);
    digest.add(rec.reject_reason);
    digest.add(rec.start_time);
    digest.add(rec.finish_time);
  }
  return unresolved;
}

double us_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e3;
}

// ---------------------------------------------------------------------------
// Workloads. Each repetition runs kSubRuns independent paper-sized inputs
// (kPaperJobs jobs each, seeds derived from --seed) one after another on
// freshly built systems; construction sits between the timed windows. Eight
// independent inputs per repetition keep the workload's own seed-to-seed
// variation (fulfilled %, slowdown and per-job cost) small next to the
// bounds, which a single longer trace does not: its users and their
// estimate habits persist through the whole trace.

constexpr int kSubRuns = 8;
constexpr std::size_t kPaperJobs = 3000;

std::uint64_t sub_seed(std::uint64_t seed, int k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<workload::Job> paper_jobs(std::uint64_t seed) {
  workload::PaperWorkloadConfig config;
  config.trace.job_count = kPaperJobs;
  config.inaccuracy_pct = kInaccuracyPct;
  return workload::make_paper_workload(config, seed);
}

/// Batch reference: core::run_trace over the same jobs on a fresh stack.
PaperResult reference(const std::vector<workload::Job>& jobs, core::Policy policy,
                      int nodes) {
  sim::Simulator simulator;
  metrics::Collector collector;
  const cluster::Cluster cluster = cluster::Cluster::homogeneous(nodes, kSpecRating);
  const auto stack = core::make_scheduler(policy, simulator, cluster, collector);
  core::run_trace(simulator, stack->scheduler(), collector, jobs);
  const metrics::RunSummary s = collector.summarize();
  return {s.fulfilled, s.avg_slowdown_fulfilled};
}

void compare(const std::vector<PaperResult>& got, const std::vector<PaperResult>& want,
             const char* what, std::vector<std::string>& problems) {
  for (std::size_t k = 0; k < want.size(); ++k)
    if (k >= got.size() || got[k].fulfilled != want[k].fulfilled ||
        got[k].avg_slowdown != want[k].avg_slowdown)
      problems.push_back(std::string(what) + " differs from core::run_trace on sub-run " +
                         std::to_string(k));
}

/// One timed window of a single engine: advance_to + submit per job from
/// `next` (nullptr ends the stream), then finish and summary.
template <typename Next>
void drive_engine(core::AdmissionEngine& engine, Next&& next, SpanLog* trace,
                  Samples& samples, Digest& digest, RepResult& r) {
  const std::int64_t t0 = now_ns();
  const std::int32_t rep = trace ? trace->add(kRep, t0, t0, -1) : -1;
  std::uint64_t jobs = 0;
  for (;;) {
    const std::int64_t a = now_ns();
    const workload::Job* job = next();
    if (job == nullptr) break;
    const std::int64_t b = now_ns();
    engine.advance_to(job->submit_time);
    const std::int64_t c = trace ? now_ns() : 0;
    const core::AdmissionOutcome out = engine.submit(*job);
    const std::int64_t d = now_ns();
    samples.submit(us_between(b, d));
    if (trace) {
      trace->add(kWorkloadNext, a, b, rep, job->id);
      trace->add(kEngineAdvance, b, c, rep, job->id);
      trace->add(kEngineSubmit, c, d, rep, job->id);
    }
    digest.add(job->id);
    digest.add(out.verdict);
    digest.add(out.node);
    ++jobs;
  }
  const std::int64_t f0 = now_ns();
  engine.finish();
  const std::int64_t f1 = now_ns();
  const metrics::RunSummary summary = engine.summary();
  const std::int64_t t1 = now_ns();
  if (trace) {
    trace->add(kEngineFinish, f0, f1, rep);
    trace->add(kMetricsSummary, f1, t1, rep);
    trace->set_end(rep, t1);
  }
  r.wall_s += static_cast<double>(t1 - t0) / 1e9;
  r.submitted += jobs;
  r.real_jobs += jobs;
  const metrics::Collector& collector = engine.collector();
  r.resolved += collector.resolved_count();
  r.failed += account(collector, digest) +
              (jobs > collector.submitted_count() ? jobs - collector.submitted_count() : 0);
  r.counters.add(engine);
  r.end_subrun(summary, engine.peak_live_jobs());
}

std::unique_ptr<core::AdmissionEngine> make_engine(core::Policy policy, int nodes) {
  core::EngineConfig config;
  config.cluster = cluster::Cluster::homogeneous(nodes, kSpecRating);
  config.policy = policy;
  if (policy == core::Policy::Libra)
    config.options.selection_override = core::LibraConfig::Selection::BestFit;
  return core::make_engine(std::move(config));
}

/// Restricts the calling thread to `cpus`; negative entries (CPU list
/// unknown) make it a no-op.
void pin_to_set(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    if (cpu < 0) return;
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

void pin_to(int cpu) { pin_to_set({cpu}); }

class Workload {
 public:
  virtual ~Workload() = default;
  /// Places the threads of the next repetition for rotation slot `slot`.
  /// On a 4-vCPU host shared with other tenants, two of the vCPUs ran a
  /// single engine about 30 % faster than the other two for minutes at a
  /// time, and which two changed from run to run, so an unpinned run
  /// measured whichever CPU it landed on. Repetitions therefore rotate over
  /// every CPU, and the timed metrics average the per-CPU means. The
  /// default pins the calling thread, which runs a single-threaded workload.
  virtual void place(const std::vector<int>& cpus, std::size_t slot) {
    pin_to(cpus[slot % cpus.size()]);
  }
  /// Synthesises the inputs and builds the system once (set-up is timed
  /// by the caller; the built system is torn down untimed).
  virtual void setup() = 0;
  /// Runs one repetition: every sub-run on a freshly built system.
  /// `pool_barrier` selects the federation's alternate pass (shards
  /// stepped on the worker pool); other workloads ignore it.
  virtual RepResult run(SpanLog* trace, Samples& samples, bool pool_barrier) = 0;
  /// Checks outside the timed window against the batch reference.
  virtual void check(const RepResult& rep, std::vector<std::string>& problems) = 0;
  [[nodiscard]] virtual int threads() const { return 1; }
  [[nodiscard]] virtual bool has_pool_pass() const { return false; }
};

/// The paper's own experiment: LibraRisk on 128 nodes, streamed from SWF
/// files written in set-up, through SwfStream and advance_to/submit on one
/// thread.
class ReplayRisk128 final : public Workload {
 public:
  ReplayRisk128(std::uint64_t seed, const std::filesystem::path& work_dir) : seed_(seed) {
    for (int k = 0; k < kSubRuns; ++k)
      paths_.push_back((work_dir / ("replay-" + std::to_string(k) + ".swf")).string());
  }
  ~ReplayRisk128() override {
    for (const std::string& path : paths_) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  }

  void setup() override {
    for (int k = 0; k < kSubRuns; ++k)
      workload::swf::write_file(paths_[static_cast<std::size_t>(k)],
                                paper_jobs(sub_seed(seed_, k)));
    (void)make_engine(core::Policy::LibraRisk, kNodes);
  }

  RepResult run(SpanLog* trace, Samples& samples, bool) override {
    RepResult r;
    Digest digest;
    for (int k = 0; k < kSubRuns; ++k) {
      const auto engine = make_engine(core::Policy::LibraRisk, kNodes);
      // The SWF files carry each job's deadline (swf::write_file writes the
      // deadline notes by default), so only the inaccuracy is synthesised.
      workload::swf::SwfStream stream(paths_[static_cast<std::size_t>(k)]);
      std::vector<workload::Job> one(1);
      const auto next = [&]() -> const workload::Job* {
        if (!stream.next(one[0])) return nullptr;
        workload::apply_inaccuracy(one, kInaccuracyPct);
        return &one[0];
      };
      drive_engine(*engine, next, trace, samples, digest, r);
    }
    if (r.real_jobs != kSubRuns * kPaperJobs)
      r.problems.push_back("streams returned " + std::to_string(r.real_jobs) + " jobs");
    r.end_rep(digest.value());
    return r;
  }

  void check(const RepResult& rep, std::vector<std::string>& problems) override {
    // SWF stores whole seconds, so the reference replays the jobs as
    // streamed, not the synthesised ones.
    std::vector<PaperResult> want;
    for (const std::string& path : paths_) {
      std::vector<workload::Job> streamed;
      workload::swf::SwfStream stream(path);
      std::vector<workload::Job> one(1);
      while (stream.next(one[0])) {
        workload::apply_inaccuracy(one, kInaccuracyPct);
        streamed.push_back(one[0]);
      }
      want.push_back(reference(streamed, core::Policy::LibraRisk, kNodes));
    }
    compare(rep.subruns, want, "streamed replay", problems);
  }

 private:
  static constexpr int kNodes = 128;

  std::uint64_t seed_;
  std::vector<std::string> paths_;
};

/// Libra with BestFit on 1024 nodes at the paper's arrival rate: jobs are
/// materialised in set-up, so the admission scan dominates.
class LibraBestFit1024 final : public Workload {
 public:
  explicit LibraBestFit1024(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    inputs_.clear();
    for (int k = 0; k < kSubRuns; ++k) inputs_.push_back(paper_jobs(sub_seed(seed_, k)));
    (void)make_engine(core::Policy::Libra, kNodes);
  }

  RepResult run(SpanLog* trace, Samples& samples, bool) override {
    RepResult r;
    Digest digest;
    for (const std::vector<workload::Job>& jobs : inputs_) {
      const auto engine = make_engine(core::Policy::Libra, kNodes);
      std::size_t i = 0;
      workload::Job job;
      const auto next = [&]() -> const workload::Job* {
        if (i == jobs.size()) return nullptr;
        job = jobs[i++];
        return &job;
      };
      drive_engine(*engine, next, trace, samples, digest, r);
    }
    r.end_rep(digest.value());
    return r;
  }

  void check(const RepResult& rep, std::vector<std::string>& problems) override {
    std::vector<PaperResult> want;
    for (const std::vector<workload::Job>& jobs : inputs_)
      want.push_back(reference(jobs, core::Policy::Libra, kNodes));
    compare(rep.subruns, want, "materialised replay", problems);
  }

 private:
  static constexpr int kNodes = 1024;

  std::uint64_t seed_;
  std::vector<std::vector<workload::Job>> inputs_;
};

/// Libra on 128 nodes behind AdmissionGateway (audit_shed off). The calling
/// thread submits the real stream; the flood threads submit certifiably
/// hopeless jobs that contend on the gate's shared counters.
class GatewayLibra3p final : public Workload {
 public:
  /// `cpus`: the CPUs this process may use. With four or more, every
  /// thread gets its own CPU: the drive thread the last, the real producer
  /// the first, the floods the ones in between, all shifted by the
  /// rotation slot. Unpinned, which threads shared a core changed from run
  /// to run and with it the cost of the contended counters.
  GatewayLibra3p(std::uint64_t seed, std::vector<int> cpus)
      : seed_(seed), cpus_(std::move(cpus)),
        flood_threads_(std::min(2, static_cast<int>(cpus_.size()) - 2)) {}

  void place(const std::vector<int>&, std::size_t slot) override { slot_ = slot; }

  void setup() override {
    inputs_.clear();
    for (int k = 0; k < kSubRuns; ++k) inputs_.push_back(paper_jobs(sub_seed(seed_, k)));
    flood_.clear();
    flood_.reserve(kFloodPool);
    for (std::size_t i = 0; i < kFloodPool; ++i) {
      workload::Job job;
      job.id = 1'000'000'000 + static_cast<std::int64_t>(i);
      job.actual_runtime = job.user_estimate = job.scheduler_estimate = 3600.0;
      if (i % 2 == 0) {
        job.num_procs = kNodes + 1 + static_cast<int>(i % 7);  // C1
        job.deadline = 7200.0;
      } else {
        job.num_procs = 1 + static_cast<int>(i % 16);  // C2-share: share > 1
        job.deadline = 600.0 + static_cast<double>(i % 11);
      }
      flood_.push_back(job);
    }
    make(0)->close();
  }

  RepResult run(SpanLog* trace, Samples& samples, bool) override {
    RepResult r;
    Digest digest;
    std::optional<obs::Histogram> wait;
    std::optional<obs::Histogram> decide;
    std::uint64_t gate_submitted = 0;
    std::uint64_t gate_shed = 0;
    for (std::size_t k = 0; k < inputs_.size(); ++k) {
      const std::vector<workload::Job>& jobs = inputs_[k];
      const auto gw = make(k);
      run_one(*gw, jobs, trace, samples, digest, r);
      const core::GatewayStats gs = gw->stats();
      gate_submitted += gs.submitted;
      gate_shed += gs.fast_rejected;
      r.gateway.queue_high_water =
          std::max(r.gateway.queue_high_water, static_cast<double>(gs.queue_high_water));
      const obs::Histogram w = gw->flight().queue_wait_histogram();
      const obs::Histogram d = gw->flight().decide_histogram();
      if (wait) wait->merge(w); else wait = w;
      if (decide) decide->merge(d); else decide = d;
    }
    r.gateway.queue_wait_p50_us = wait->quantile(50.0) * 1e6;
    r.gateway.queue_wait_p99_us = wait->quantile(99.0) * 1e6;
    r.gateway.decide_p50_us = decide->quantile(50.0) * 1e6;
    r.gateway.decide_p99_us = decide->quantile(99.0) * 1e6;
    r.gateway.fast_reject_pct =
        100.0 * static_cast<double>(gate_shed) / static_cast<double>(gate_submitted);
    r.gateway.drive_busy_pct = 100.0 * decide->sum() / r.wall_s;
    r.end_rep(digest.value());
    return r;
  }

  void check(const RepResult& rep, std::vector<std::string>& problems) override {
    // Jobs shed at the gate never reach the engine (audit_shed is off), so
    // the reference replays the jobs the gate lets through. Replaying every
    // job differs slightly: a rejected arrival still steps the engine.
    const auto gw = make(0);
    std::vector<PaperResult> want;
    // Every real job, shed ones included: informational, not a check.
    std::uint64_t all_fulfilled = 0;
    double all_slowdown_sum = 0.0;
    for (const std::vector<workload::Job>& jobs : inputs_) {
      std::vector<workload::Job> passed;
      for (const workload::Job& job : jobs)
        if (!gw->fast_reject_reason(job)) passed.push_back(job);
      want.push_back(reference(passed, core::Policy::Libra, kNodes));
      const PaperResult all = reference(jobs, core::Policy::Libra, kNodes);
      all_fulfilled += all.fulfilled;
      all_slowdown_sum += all.avg_slowdown * static_cast<double>(all.fulfilled);
    }
    gw->close();
    compare(rep.subruns, want, "gateway real stream", problems);
    // Keeps the known difference visible (see the README): a rejected
    // arrival still steps the engine, so replaying the shed jobs too moves
    // later decisions slightly.
    std::printf("info: gateway vs core::run_trace over all real jobs: fulfilled %llu vs %llu "
                "(delta %lld), avg_slowdown %s vs %s\n",
                static_cast<unsigned long long>(rep.fulfilled),
                static_cast<unsigned long long>(all_fulfilled),
                static_cast<long long>(rep.fulfilled) - static_cast<long long>(all_fulfilled),
                number(rep.avg_slowdown).c_str(),
                number(all_fulfilled > 0 ? all_slowdown_sum / static_cast<double>(all_fulfilled)
                                         : 0.0).c_str());
  }

  [[nodiscard]] int threads() const override { return 2 + flood_threads_; }

 private:
  static constexpr int kNodes = 128;
  static constexpr std::size_t kFloodPool = 4096;
  static constexpr std::size_t kCacheLine = 64;
  static constexpr std::size_t kFloodPerThread = 25000;  // per sub-run

  [[nodiscard]] bool pinned() const { return cpus_.size() >= 4; }
  /// The CPU of thread `i` (0 = real producer, last = drive thread).
  [[nodiscard]] int cpu(std::size_t i) const { return cpus_[(i + slot_) % cpus_.size()]; }

  /// Frees a gateway built by make() at an offset inside its own block.
  struct Deleter {
    void* block = nullptr;
    void operator()(core::AdmissionGateway* gw) const {
      gw->~AdmissionGateway();
      ::operator delete(block, std::align_val_t{kCacheLine});
    }
  };
  using GatewayPtr = std::unique_ptr<core::AdmissionGateway, Deleter>;

  /// Builds the gateway of sub-run `sub_run`. The gateway's counters and
  /// queue fields carry no cache-line alignment of their own, so which of
  /// them share a line depended on where the heap put the object, and that
  /// followed the heap's history: the real producer's submit p50 read
  /// 0.33 µs in some repetitions and 0.6 µs in others, and mostly one or
  /// the other for a given seed. Each sub-run therefore builds its gateway
  /// at a different offset from a cache-line boundary, so every repetition
  /// measures the same mix of layouts.
  [[nodiscard]] GatewayPtr make(std::size_t sub_run) const {
    core::GatewayConfig config;
    config.engine.cluster = cluster::Cluster::homogeneous(kNodes, kSpecRating);
    config.engine.policy = core::Policy::Libra;
    config.audit_shed = false;
    // Room for the whole real stream: with the default 1024 slots the
    // producer blocks on every push once the queue fills, and whether a
    // push blocks then depends on thread wake-up latency, which made the
    // submit percentiles bimodal from run to run.
    config.queue_capacity = kPaperJobs;
    // The drive thread inherits the affinity of the thread that builds
    // the gateway.
    if (pinned()) pin_to(cpu(cpus_.size() - 1));
    void* block = ::operator new(sizeof(core::AdmissionGateway) + kCacheLine,
                                 std::align_val_t{kCacheLine});
    const std::size_t offset = sub_run * alignof(core::AdmissionGateway) % kCacheLine;
    core::AdmissionGateway* gw = nullptr;
    try {
      gw = new (static_cast<char*>(block) + offset) core::AdmissionGateway(std::move(config));
    } catch (...) {
      ::operator delete(block, std::align_val_t{kCacheLine});
      throw;
    }
    if (pinned()) pin_to(cpu(0));
    return GatewayPtr(gw, Deleter{block});
  }

  void run_one(core::AdmissionGateway& gw, const std::vector<workload::Job>& jobs,
               SpanLog* trace, Samples& samples, Digest& digest, RepResult& r) {
    const auto floods = static_cast<std::size_t>(flood_threads_);
    std::vector<SpanLog> flood_logs(floods);
    std::vector<std::vector<double>> flood_us(floods);
    std::vector<std::uint64_t> flood_bad(floods, 0);

    // The floods start together with the real stream: thread start-up
    // takes longer than the real producer needs for a whole input, so
    // without the start gate whether the real submits met the floods
    // changed from repetition to repetition, and the real producer's p99
    // with it (0.7 µs without contention, 1.1 µs with).
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(floods);
    for (std::size_t p = 0; p < floods; ++p) {
      threads.emplace_back([&, p] {
        if (pinned()) pin_to(cpu(p + 1));
        SpanLog& log = flood_logs[p];
        log.set_thread(static_cast<std::uint8_t>(p + 1));
        std::vector<double>& lat = flood_us[p];
        if (trace) {
          log.reserve(kFloodPerThread);
          lat.reserve(kFloodPerThread);
        }
        ready.fetch_add(1, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (std::size_t i = 0; i < kFloodPerThread; ++i) {
          const workload::Job& job = flood_[(i + p * 131) % flood_.size()];
          const std::int64_t a = trace ? now_ns() : 0;
          const core::SubmitStatus status = gw.submit(job);
          if (trace) {
            const std::int64_t b = now_ns();
            log.add(kGatewaySubmitFlood, a, b, -1, job.id);
            lat.push_back(us_between(a, b));
          }
          if (status != core::SubmitStatus::FastRejected) ++flood_bad[p];
        }
      });
    }
    while (ready.load(std::memory_order_acquire) < floods) std::this_thread::yield();
    const std::int64_t t0 = now_ns();
    const std::int32_t rep = trace ? trace->add(kRep, t0, t0, -1) : -1;
    const std::int32_t produce = trace ? trace->add(kProduce, t0, t0, rep) : -1;
    go.store(true, std::memory_order_release);
    std::uint64_t real_shed = 0;
    std::uint64_t closed = 0;
    workload::Job job;
    for (const workload::Job& source : jobs) {
      const std::int64_t a = now_ns();
      job = source;
      const std::int64_t b = now_ns();
      const core::SubmitStatus status = gw.submit(job);
      const std::int64_t c = now_ns();
      samples.submit(us_between(b, c));
      if (trace) {
        trace->add(kWorkloadNext, a, b, produce, job.id);
        trace->add(kGatewaySubmitReal, b, c, produce, job.id);
      }
      if (status == core::SubmitStatus::FastRejected) ++real_shed;
      if (status == core::SubmitStatus::Closed) ++closed;
    }
    for (std::thread& t : threads) t.join();
    const std::int64_t j = now_ns();
    gw.close();
    const std::int64_t k = now_ns();
    const metrics::RunSummary summary = gw.engine().summary();
    const std::int64_t t1 = now_ns();
    if (trace) {
      trace->set_end(produce, j);
      for (SpanLog& log : flood_logs) trace->adopt(log, produce);
      trace->add(kGatewayClose, j, k, rep);
      trace->add(kMetricsSummary, k, t1, rep);
      trace->set_end(rep, t1);
      for (const auto& lat : flood_us) samples.flood(lat);
    }
    r.wall_s += static_cast<double>(t1 - t0) / 1e9;

    // Conservation: every submitted job is a gate shed or reached the
    // engine, and every engine job has exactly one fate.
    const core::GatewayStats gs = gw.stats();
    const metrics::Collector& collector = gw.engine().collector();
    const std::uint64_t flood_total = kFloodPerThread * floods;
    std::uint64_t flood_misses = 0;
    for (std::uint64_t bad : flood_bad) flood_misses += bad;
    const std::uint64_t submitted = jobs.size() + flood_total;
    const std::uint64_t engine_jobs = collector.submitted_count();
    const std::uint64_t accounted = engine_jobs + gs.fast_rejected;
    r.real_jobs += jobs.size();
    r.submitted += submitted;
    r.resolved += collector.resolved_count() + gs.fast_rejected;
    r.failed += account(collector, digest) + closed + gs.audit_violations + flood_misses +
                (submitted > accounted ? submitted - accounted : 0);
    if (accounted != submitted || gs.submitted != submitted ||
        engine_jobs != jobs.size() - real_shed || gs.fast_rejected != flood_total + real_shed)
      r.problems.push_back("gateway conservation: submitted " + std::to_string(submitted) +
                           ", engine " + std::to_string(engine_jobs) + ", shed " +
                           std::to_string(gs.fast_rejected));
    if (gs.audit_violations != 0) r.problems.push_back("gateway audit violations");
    if (closed != 0) r.problems.push_back("gateway returned Closed to a producer");
    digest.add(real_shed);
    r.counters.add(gw.engine());
    r.end_subrun(summary, gw.engine().peak_live_jobs());
  }

  std::uint64_t seed_;
  std::vector<int> cpus_;
  int flood_threads_;
  std::size_t slot_ = 0;
  std::vector<std::vector<workload::Job>> inputs_;
  std::vector<workload::Job> flood_;
};

/// Four LibraRisk × 128-node shards behind LeastRisk routing, arrivals
/// compressed 4× so each shard carries the paper's load. Timed passes step
/// the shards inline on the caller's thread (the FederationConfig default);
/// a traced run adds passes on a pool of nproc − 1 workers behind the
/// per-job route barrier. With the pool in the timed passes, 3 of 10 runs
/// on a shared 4-vCPU host read a p99 of 0.2–0.9 ms instead of ~150 µs: a
/// worker that loses its CPU to another tenant stalls every job's barrier.
class FederationRisk4x128 final : public Workload {
 public:
  FederationRisk4x128(std::uint64_t seed, int workers) : seed_(seed), workers_(workers) {}

  void setup() override {
    inputs_.clear();
    for (int k = 0; k < kSubRuns; ++k) {
      inputs_.push_back(paper_jobs(sub_seed(seed_, k)));
      workload::scale_interarrivals(inputs_.back(), 1.0 / kShards);
    }
    (void)make(0, false);
  }

  RepResult run(SpanLog* trace, Samples& samples, bool pool_barrier) override {
    RepResult r;
    Digest digest;
    std::vector<std::uint64_t> routed(kShards, 0);
    for (std::size_t s = 0; s < inputs_.size(); ++s) {
      const auto fed = make(static_cast<int>(s), pool_barrier);
      const std::vector<workload::Job>& jobs = inputs_[s];
      const std::int64_t t0 = now_ns();
      const std::int32_t rep = trace ? trace->add(kRep, t0, t0, -1) : -1;
      workload::Job job;
      for (const workload::Job& source : jobs) {
        const std::int64_t a = now_ns();
        job = source;
        const std::int64_t b = now_ns();
        const federation::RouteResult out = fed->submit(job);
        const std::int64_t c = now_ns();
        samples.submit(us_between(b, c));
        if (trace) {
          trace->add(kWorkloadNext, a, b, rep, job.id);
          trace->add(kFederationSubmit, b, c, rep, job.id);
        }
        digest.add(job.id);
        digest.add(out.shard);
        digest.add(out.outcome.verdict);
        digest.add(out.outcome.node);
      }
      const std::int64_t f0 = now_ns();
      fed->finish();
      const std::int64_t f1 = now_ns();
      const federation::FederationSummary summary = fed->summary();
      const std::int64_t t1 = now_ns();
      if (trace) {
        trace->add(kFederationFinish, f0, f1, rep);
        trace->add(kMetricsSummary, f1, t1, rep);
        trace->set_end(rep, t1);
      }
      r.wall_s += static_cast<double>(t1 - t0) / 1e9;
      r.submitted += jobs.size();
      r.real_jobs += jobs.size();
      // Conservation per shard and in total.
      std::uint64_t engine_jobs = 0;
      std::uint64_t peak_live = 0;
      for (std::size_t k = 0; k < fed->shard_count(); ++k) {
        const core::AdmissionEngine& engine = fed->engine(k);
        const metrics::Collector& collector = engine.collector();
        r.failed += account(collector, digest);
        r.resolved += collector.resolved_count();
        engine_jobs += collector.submitted_count();
        routed[k] += summary.shards[k].routed;
        peak_live += engine.peak_live_jobs();
        if (summary.shards[k].routed != collector.submitted_count())
          r.problems.push_back("shard " + std::to_string(k) + " routed " +
                               std::to_string(summary.shards[k].routed) + " but recorded " +
                               std::to_string(collector.submitted_count()));
        r.counters.add(engine);
      }
      if (engine_jobs != jobs.size() || summary.routed != jobs.size())
        r.problems.push_back("federation conservation: submitted " +
                             std::to_string(jobs.size()) + ", routed " +
                             std::to_string(summary.routed));
      r.failed += jobs.size() > engine_jobs ? jobs.size() - engine_jobs : 0;
      r.end_subrun(summary.total, peak_live);
    }
    r.max_shard_routed_pct = 100.0 *
                             static_cast<double>(*std::max_element(routed.begin(), routed.end())) /
                             static_cast<double>(r.submitted);
    r.end_rep(digest.value());
    return r;
  }

  void check(const RepResult&, std::vector<std::string>&) override {}
  void place(const std::vector<int>& cpus, std::size_t slot) override {
    cpus_ = cpus;
    slot_ = slot;
    Workload::place(cpus, slot);
  }
  [[nodiscard]] int threads() const override { return 1 + workers_; }
  [[nodiscard]] bool has_pool_pass() const override { return true; }

 private:
  static constexpr int kShards = 4;
  static constexpr int kNodes = 128;

  [[nodiscard]] std::unique_ptr<federation::Federation> make(int sub_run,
                                                             bool pool_barrier) const {
    federation::FederationConfig config;
    config.route = federation::RoutePolicy::LeastRisk;
    config.route_seed = sub_seed(seed_, sub_run);
    config.threads = pool_barrier ? static_cast<std::size_t>(workers_) : 1;
    for (int k = 0; k < kShards; ++k) {
      federation::ShardConfig shard;
      shard.engine.cluster = cluster::Cluster::homogeneous(kNodes, kSpecRating);
      shard.engine.policy = core::Policy::LibraRisk;
      config.shards.push_back(std::move(shard));
    }
    if (!pool_barrier) return std::make_unique<federation::Federation>(std::move(config));
    // The pool threads inherit the affinity of the thread that builds the
    // federation: widen it to every CPU for the build, then pin again.
    pin_to_set(cpus_);
    auto fed = std::make_unique<federation::Federation>(std::move(config));
    if (!cpus_.empty()) pin_to(cpus_[slot_ % cpus_.size()]);
    return fed;
  }

  std::uint64_t seed_;
  int workers_;
  std::vector<std::vector<workload::Job>> inputs_;
  std::vector<int> cpus_;  // set by place()
  std::size_t slot_ = 0;
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool exact;  // deterministic for a seed: steadiness demands equality
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(-1);  // unknown: never pin
  return cpus;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  std::array<char, 32> buf{};
  std::strftime(buf.data(), buf.size(), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf.data();
}

std::string host_name() {
  std::array<char, 256> buf{};
  if (gethostname(buf.data(), buf.size() - 1) != 0) return "unknown";
  return buf.data();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir = ".";
  std::filesystem::path spans = "spans.jsonl";
  std::string commit = "unknown";
};

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args, const std::vector<int>& cpu_list) {
  const int cpus = static_cast<int>(cpu_list.size());
  if (args.workload == "replay-risk-128")
    return std::make_unique<ReplayRisk128>(args.seed, args.work_dir);
  if (args.workload == "libra-bestfit-1024")
    return std::make_unique<LibraBestFit1024>(args.seed);
  if (args.workload == "gateway-libra-3p") {
    if (cpus < 2) throw std::invalid_argument("gateway-libra-3p needs 2 CPUs");
    return std::make_unique<GatewayLibra3p>(args.seed, cpu_list);
  }
  if (args.workload == "federation-risk-4x128")
    return std::make_unique<FederationRisk4x128>(args.seed, std::max(1, cpus - 1));
  throw std::invalid_argument("unknown workload " + args.workload);
}

/// Per-layer view of the traced repetitions.
struct TracedRep {
  RepResult result;
  std::array<double, kLayerCount> self_ns{};
};

std::size_t slot_of(const RepResult& r) { return r.slot; }
std::size_t slot_of(const TracedRep& t) { return t.result.slot; }

void write_spans(const std::filesystem::path& path, const SpanLog& log) {
  std::ofstream out(path);
  const std::int64_t origin = log.spans().empty() ? 0 : log.spans().front().start;
  for (const Span& s : log.spans())
    out << "{\"layer\":\"" << kLayerNames[s.layer] << "\",\"thread\":" << int(s.thread)
        << ",\"job\":" << s.job << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start - origin << ",\"end_ns\":" << s.end - origin
        << "}\n";
}

int run(const Args& args) {
  const std::vector<int> cpu_list = allowed_cpus();
  const int cpus = static_cast<int>(cpu_list.size());
  const auto wl = make_workload(args, cpu_list);

  // Set-up: input synthesis plus system construction. Set-ups rotate over
  // the CPUs like the timed repetitions (see Workload::place), and setup_s
  // is the mean of the per-CPU medians: unpinned, a run's set-ups measured
  // whichever CPU the process started on. Whole rotations repeat for at
  // least kSetupSeconds, so a cheap set-up gets more samples per CPU.
  const std::size_t slots = cpu_list.size();
  std::size_t setup_reps = 0;
  std::vector<std::vector<double>> setup_by_slot(slots);
  const std::int64_t setup_end = now_ns() + static_cast<std::int64_t>(kSetupSeconds * 1e9);
  for (int round = 0; round < kSetupsPerSlot || now_ns() < setup_end; ++round)
    for (std::size_t slot = 0; slot < slots; ++slot, ++setup_reps) {
      wl->place(cpu_list, slot);
      const std::int64_t a = now_ns();
      wl->setup();
      setup_by_slot[slot].push_back(static_cast<double>(now_ns() - a) / 1e9);
    }

  wl->place(cpu_list, 0);
  Samples samples;
  RepResult reference = wl->run(nullptr, samples, false);
  reference.latency_samples = samples.submit_us().size();
  std::vector<std::string> problems = reference.problems;
  wl->check(reference, problems);

  // Timed repetitions. A traced run alternates untraced, traced and (for
  // the federation) untraced pool-barrier repetitions, so the trace overhead
  // and the barrier cost are differences measured in one process.
  std::vector<RepResult> plain;
  std::vector<TracedRep> traced;
  std::vector<RepResult> pooled;
  SpanLog log;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  const auto problem = [&](const std::string& what) {
    if (std::find(problems.begin(), problems.end(), what) == problems.end())
      problems.push_back(what);
  };
  // Runs one repetition and folds its accounting in. An exception fails
  // every job of the repetition; the run goes on so the result is printed.
  const auto attempt = [&](std::vector<RepResult>& into, SpanLog* trace,
                           bool pool_barrier, std::size_t slot) {
    RepResult r;
    samples.clear();
    try {
      r = wl->run(trace, samples, pool_barrier);
      r.latency_samples = samples.submit_us().size();
      r.submit_p50_us = percentile(samples.submit_us(), 50.0);
      r.submit_p99_us = percentile(samples.submit_us(), 99.0);
      r.flood_p50_us = percentile(samples.flood_us(), 50.0);
    } catch (const std::exception& e) {
      problem(std::string("exception: ") + e.what());
      attempted += reference.submitted;
      failed += reference.submitted;
      return false;
    }
    r.slot = slot;
    attempted += r.submitted;
    failed += r.failed;
    for (const std::string& p : r.problems) problem(p);
    if (r.digest != reference.digest) {
      problem("decision digest differs between repetitions");
      failed += r.submitted;
    }
    into.push_back(std::move(r));
    return true;
  };
  std::vector<RepResult> traced_results;
  const std::size_t min_reps = std::max<std::size_t>(5, 2 * slots);
  for (std::size_t n = 0; n < min_reps || now_ns() < deadline; ++n) {
    const std::size_t slot = n % slots;
    wl->place(cpu_list, slot);
    if (!attempt(plain, nullptr, false, slot) || !args.trace) continue;
    log.clear();
    if (attempt(traced_results, &log, false, slot))
      traced.push_back({traced_results.back(), self_times(log.spans())});
    if (wl->has_pool_pass()) attempt(pooled, nullptr, true, slot);
  }
  if (plain.empty()) throw std::runtime_error("no repetition completed");
  if (failed > 0) problem("jobs without exactly one accounted fate");

  std::vector<Metric> metrics;
  // Mean over the repetitions of each rotation slot, averaged over the
  // slots (see Workload::place).
  const auto per_rep = [&](const auto& reps, auto fn) {
    std::vector<std::vector<double>> by_slot(slots);
    for (const auto& r : reps) by_slot[slot_of(r)].push_back(fn(r));
    return mean_of_means(by_slot);
  };
  const RepResult& first = plain.front();
  const double jobs = static_cast<double>(first.real_jobs);
  const auto jobs_per_s = [](const RepResult& r) {
    return static_cast<double>(r.resolved) / r.wall_s;
  };
  if (!args.trace) {
    metrics.push_back({"jobs_per_s", per_rep(plain, jobs_per_s), "1/s", false});
    metrics.push_back({"submit_p50_us", per_rep(plain, [](const RepResult& r) { return r.submit_p50_us; }), "us", false});
    metrics.push_back({"submit_p99_us", per_rep(plain, [](const RepResult& r) { return r.submit_p99_us; }), "us", false});
    metrics.push_back({"fulfilled_pct", first.fulfilled_pct, "%", true});
    metrics.push_back({"avg_slowdown", first.avg_slowdown, "ratio", true});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", false});
    metrics.push_back({"setup_s", mean_of_medians(setup_by_slot), "s", false});
  } else {
    const auto layer_us = [&](Layer layer) {
      return per_rep(traced, [&](const TracedRep& t) { return t.self_ns[layer] / 1e3 / jobs; });
    };
    const auto layer_total = [&](Layer layer, double scale) {
      return per_rep(traced, [&](const TracedRep& t) { return t.self_ns[layer] / scale; });
    };
    const Counters& c = first.counters;
    const auto per_job = [&](std::uint64_t n) { return static_cast<double>(n) / jobs; };
    const bool gateway = args.workload == "gateway-libra-3p";
    const bool fed = wl->has_pool_pass();
    const Layer finish = gateway ? kGatewayClose : fed ? kFederationFinish : kEngineFinish;
    metrics.push_back({"workload.next_us_per_job", layer_us(kWorkloadNext), "us", false});
    metrics.push_back({"engine.advance_us_per_job", layer_us(kEngineAdvance), "us", false});
    metrics.push_back({"engine.submit_us_per_job", layer_us(kEngineSubmit), "us", false});
    metrics.push_back({"engine.finish_ms", layer_total(finish, 1e6), "ms", false});
    metrics.push_back({"metrics.summary_us", layer_total(kMetricsSummary, 1e3), "us", false});
    metrics.push_back({"engine.peak_live_jobs", static_cast<double>(c.peak_live), "count", true});
    metrics.push_back({"kernel.settles_per_job", per_job(c.kernel.settles), "count", true});
    metrics.push_back({"kernel.tasks_recomputed_per_job", per_job(c.kernel.tasks_recomputed), "count", true});
    metrics.push_back({"kernel.boundary_updates_per_job", per_job(c.kernel.boundary_updates), "count", true});
    metrics.push_back({"sim.events_per_job", per_job(c.events), "count", true});
    metrics.push_back({"admission.nodes_scanned_per_job", per_job(c.adm.nodes_scanned), "count", true});
    metrics.push_back({"admission.assessments_per_job", per_job(c.adm.assessments), "count", true});
    metrics.push_back({"admission.batch_skipped_per_job", per_job(c.adm.nodes_batch_skipped), "count", true});
    metrics.push_back({"admission.early_exits_per_job", per_job(c.adm.early_exits), "count", true});
    const auto gw = [&](auto fn) { return gateway ? per_rep(traced, fn) : 0.0; };
    metrics.push_back({"gateway.flood_submit_p50_us", gw([](const TracedRep& t) { return t.result.flood_p50_us; }), "us", false});
    metrics.push_back({"gateway.real_submit_p50_us", gw([](const TracedRep& t) { return t.result.submit_p50_us; }), "us", false});
    metrics.push_back({"gateway.queue_wait_p50_us", gw([](const TracedRep& t) { return t.result.gateway.queue_wait_p50_us; }), "us", false});
    metrics.push_back({"gateway.queue_wait_p99_us", gw([](const TracedRep& t) { return t.result.gateway.queue_wait_p99_us; }), "us", false});
    metrics.push_back({"gateway.decide_p50_us", gw([](const TracedRep& t) { return t.result.gateway.decide_p50_us; }), "us", false});
    metrics.push_back({"gateway.decide_p99_us", gw([](const TracedRep& t) { return t.result.gateway.decide_p99_us; }), "us", false});
    metrics.push_back({"gateway.queue_high_water", gw([](const TracedRep& t) { return t.result.gateway.queue_high_water; }), "count", false});
    metrics.push_back({"gateway.fast_reject_pct", first.gateway.fast_reject_pct, "%", true});
    metrics.push_back({"gateway.drive_busy_pct", gw([](const TracedRep& t) { return t.result.gateway.drive_busy_pct; }), "%", false});
    metrics.push_back({"gateway.close_ms", gateway ? layer_total(kGatewayClose, 1e6) : 0.0, "ms", false});
    metrics.push_back({"federation.submit_us_per_job", layer_us(kFederationSubmit), "us", false});
    const double barrier =
        fed ? (per_rep(pooled, [](const RepResult& r) { return r.wall_s; }) -
               per_rep(plain, [](const RepResult& r) { return r.wall_s; })) *
                  1e6 / jobs
            : 0.0;
    metrics.push_back({"federation.barrier_us_per_job", barrier, "us", false});
    metrics.push_back({"federation.max_shard_routed_pct", first.max_shard_routed_pct, "%", true});
    metrics.push_back({"federation.finish_ms", fed ? layer_total(kFederationFinish, 1e6) : 0.0, "ms", false});
    const double unattributed = per_rep(traced, [](const TracedRep& t) {
      double rest = 0.0;
      for (int l = 0; l < kLayerCount; ++l)
        if (structural(static_cast<Layer>(l))) rest += t.self_ns[l];
      return 100.0 * rest / (t.result.wall_s * 1e9);
    });
    metrics.push_back({"unattributed_pct", unattributed, "%", false});
    const double traced_rate = per_rep(traced, [&](const TracedRep& t) { return jobs_per_s(t.result); });
    const double plain_rate = per_rep(plain, jobs_per_s);
    metrics.push_back({"trace_overhead_pct", 100.0 * (plain_rate - traced_rate) / plain_rate, "%", false});

    std::printf("per-layer self time, mean over %zu traced repetitions:\n", traced.size());
    for (int l = 0; l < kLayerCount; ++l) {
      const double ms = layer_total(static_cast<Layer>(l), 1e6);
      if (ms > 0.0) std::printf("  %-22s %12.3f ms\n", kLayerNames[static_cast<std::size_t>(l)], ms);
    }
    write_spans(args.spans, log);
    std::printf("spans of the last traced repetition: %s\n", args.spans.c_str());
  }

  const double failed_pct =
      attempted > 0 ? 100.0 * static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  std::string exact;
  for (const Metric& m : metrics)
    if (m.exact) exact += (exact.empty() ? "" : ",") + json_string(m.name);
  std::printf(
      "context: {\"host\":%s,\"nproc\":%d,\"threads\":%d,\"compiler\":%s,"
      "\"flags\":%s,\"build_type\":%s,\"commit\":%s,\"workload\":%s,"
      "\"seed\":%llu,\"seconds\":%s,\"trace\":%d,\"repetitions\":%zu,"
      "\"traced_repetitions\":%zu,\"cpu_rotation_slots\":%zu,\"latency_samples_per_repetition\":%zu,\"setup_repetitions\":%zu,"
      "\"date\":%s,\"exact_metrics\":[%s]}\n",
      json_string(host_name()).c_str(), cpus, wl->threads(), json_string(PERFBENCH_CXX_ID).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(args.commit).c_str(), json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), number(args.seconds).c_str(),
      args.trace ? 1 : 0, plain.size(), traced.size(), slots, reference.latency_samples,
      setup_reps, json_string(utc_now()).c_str(), exact.c_str());
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::vector<double> rates;
    for (const RepResult& r : plain)
      if (r.slot == slot) rates.push_back(jobs_per_s(r));
    if (rates.empty()) continue;
    std::sort(rates.begin(), rates.end());
    std::printf("jobs_per_s in rotation slot %zu over %zu repetitions: min %s median %s max %s\n",
                slot, rates.size(), number(rates.front()).c_str(),
                number(median(rates)).c_str(), number(rates.back()).c_str());
  }
  for (const Metric& m : metrics)
    std::printf("%-36s %16s %s%s\n", m.name.c_str(), number(m.value).c_str(), m.unit.c_str(),
                m.exact ? "  (exact)" : "");
  std::printf("%-36s %16s %%\n", "failed_pct", number(failed_pct).c_str());
  for (const std::string& p : problems) std::printf("check failed: %s\n", p.c_str());

  const bool correct = problems.empty() && failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
