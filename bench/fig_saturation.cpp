// Saturation figure: what each graceful-degradation mode buys past the
// load knee, as a paired comparison against hard rejection.
//
// The λ-sweep compresses the paper workload's inter-arrival gaps
// (workload::scale_interarrivals — the same transform behind the CLI's
// --load-scale) so offered load climbs from the paper's operating point
// into saturation. At each point every core::DegradedMode of the overload
// catalog (docs/OVERLOAD.md) runs under LibraRisk, Libra and EDF on the
// same jobs as the hard-reject baseline, seed by seed, so each mode's
// effect is a paired difference: Δfulfilled % and ΔCaR95 of slowdown,
// each with the paired p-value of stats::compare_paired. The
// sharp-threshold literature (arXiv:0912.3852, arXiv:0707.4600) predicts
// that past the knee no admission bend adds capacity; the figure measures
// how close each mode comes.
//
// Results go to BENCH_overload.json (--out overrides); EXPERIMENTS.md
// "Saturation and graceful degradation" carries the narrative. --quick
// shrinks the sweep for the bench-smoke ctest label and the CI figure-smoke
// job.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/overload.hpp"
#include "metrics/car.hpp"
#include "support/cli.hpp"
#include "support/significance.hpp"
#include "support/table.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace librisk;

constexpr int kNodes = 128;
constexpr double kRating = 168.0;
constexpr core::Policy kPolicies[] = {core::Policy::LibraRisk,
                                      core::Policy::Libra, core::Policy::Edf};

/// One run's measurements.
struct Sample {
  double fulfilled_pct = 0.0;
  double rejected_pct = 0.0;
  double degraded_pct = 0.0;   ///< degraded admits / submissions
  double deferred_pct = 0.0;   ///< salvage-lane parks / submissions
  double activations = 0.0;    ///< governor disengaged->engaged flips
  double car95_slowdown = 0.0; ///< CaR(95%) over completed-job slowdown
  double utilization = 0.0;
  double seconds = 0.0;
};

/// One (load scale, policy, mode) cell: per-seed means plus the paired
/// comparison against the same cell's hard-reject runs.
struct Row {
  double load_scale = 1.0;
  std::string policy;
  std::string mode;
  Sample mean;
  stats::PairedComparison fulfilled;  ///< mode - hard-reject, fulfilled %
  stats::PairedComparison car95;      ///< mode - hard-reject, CaR95
};

Sample run_once(const std::vector<workload::Job>& jobs, core::Policy policy,
                core::DegradedMode mode) {
  const auto start = std::chrono::steady_clock::now();
  core::EngineConfig config;
  config.cluster = cluster::Cluster::homogeneous(kNodes, kRating);
  config.policy = policy;
  config.options.overload.mode = mode;
  const std::unique_ptr<core::AdmissionEngine> engine =
      core::make_engine(std::move(config));
  for (const workload::Job& job : jobs) engine->submit(job);
  engine->finish();
  const auto stop = std::chrono::steady_clock::now();

  const metrics::RunSummary s = engine->summary();
  const core::AdmissionStats adm = engine->admission_stats();
  const double submitted = static_cast<double>(s.submitted);
  Sample out;
  out.fulfilled_pct = s.fulfilled_pct;
  out.rejected_pct = 100.0 *
                     static_cast<double>(s.rejected_at_submit +
                                         s.rejected_at_dispatch) /
                     submitted;
  out.degraded_pct =
      100.0 * static_cast<double>(adm.degraded_admits) / submitted;
  out.deferred_pct = 100.0 * static_cast<double>(adm.deferrals) / submitted;
  out.activations = static_cast<double>(adm.overload_activations);
  out.car95_slowdown =
      metrics::computation_at_risk(engine->collector(),
                                   metrics::CarMeasure::Slowdown, 95.0)
          .at_risk;
  if (engine->now() > 0.0)
    out.utilization = engine->busy_node_seconds() /
                      (static_cast<double>(kNodes) * engine->now());
  out.seconds = std::chrono::duration<double>(stop - start).count();
  return out;
}

Sample mean_of(const std::vector<Sample>& samples) {
  Sample m;
  for (const Sample& s : samples) {
    m.fulfilled_pct += s.fulfilled_pct;
    m.rejected_pct += s.rejected_pct;
    m.degraded_pct += s.degraded_pct;
    m.deferred_pct += s.deferred_pct;
    m.activations += s.activations;
    m.car95_slowdown += s.car95_slowdown;
    m.utilization += s.utilization;
    m.seconds += s.seconds;
  }
  const double n = static_cast<double>(samples.size());
  m.fulfilled_pct /= n;
  m.rejected_pct /= n;
  m.degraded_pct /= n;
  m.deferred_pct /= n;
  m.activations /= n;
  m.car95_slowdown /= n;
  m.utilization /= n;
  m.seconds /= n;
  return m;
}

std::vector<double> column(const std::vector<Sample>& samples,
                           double Sample::*field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.*field);
  return out;
}

/// Row name for scripts/bench_diff.py matching:
/// "scale0.35/LibraRisk/downgrade-qos".
std::string row_name(const Row& r) {
  return "scale" + table::num(r.load_scale, 2) + "/" + r.policy + "/" + r.mode;
}

void write_json(const std::string& path, int job_count,
                const std::vector<std::uint64_t>& seeds,
                const std::vector<Row>& rows) {
  std::ofstream os(path);
  os << "{\n"
     << " \"note\": \"Regenerated by build/bench/fig_saturation; see "
        "EXPERIMENTS.md 'Saturation and graceful degradation' for the "
        "narrative. Paper workload with inter-arrival gaps scaled by "
        "load_scale (< 1 = hotter), 128 nodes at SPEC 168, each "
        "overload-catalog mode under each policy; means over the listed "
        "seeds. d_fulfilled_pp and d_car95 are mean paired differences "
        "(mode - hard-reject, same jobs per seed) with their paired "
        "p-values.\",\n"
     << " \"context\": {\n"
     << "  \"nodes\": " << kNodes << ",\n"
     << "  \"jobs\": " << job_count << ",\n"
     << "  \"seeds\": [";
  for (std::size_t i = 0; i < seeds.size(); ++i)
    os << seeds[i] << (i + 1 < seeds.size() ? ", " : "");
  os << "],\n"
     << "  \"policies\": [";
  for (std::size_t i = 0; i < std::size(kPolicies); ++i)
    os << '"' << core::to_string(kPolicies[i]) << '"'
       << (i + 1 < std::size(kPolicies) ? ", " : "");
  os << "]\n"
     << " },\n"
     << " \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "  {\"name\": \"" << row_name(r) << "\", \"load_scale\": "
       << r.load_scale << ", \"policy\": \"" << r.policy << "\", \"mode\": \""
       << r.mode << "\", \"fulfilled_pct\": " << r.mean.fulfilled_pct
       << ", \"rejected_pct\": " << r.mean.rejected_pct
       << ", \"degraded_pct\": " << r.mean.degraded_pct
       << ", \"deferred_pct\": " << r.mean.deferred_pct
       << ", \"activations\": " << r.mean.activations
       << ", \"car95_slowdown\": " << r.mean.car95_slowdown
       << ", \"d_fulfilled_pp\": " << r.fulfilled.mean_difference
       << ", \"p_fulfilled\": " << r.fulfilled.p_value
       << ", \"d_car95\": " << r.car95.mean_difference
       << ", \"p_car95\": " << r.car95.p_value
       << ", \"utilization\": " << r.mean.utilization
       << ", \"seconds\": " << r.mean.seconds << "}"
       << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  os << " ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  cli::Parser parser("fig_saturation",
                     "degraded modes vs hard-reject across the load knee");
  auto& quick_opt = parser.add<bool>(
      "quick", "smoke mode: small trace, three seeds, two load scales", false);
  auto& out_opt = parser.add<std::string>("out", "JSON output path",
                                          "BENCH_overload.json");
  parser.parse(argc, argv);

  const int job_count = quick_opt.value ? 400 : 2000;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= (quick_opt.value ? 3u : 20u); ++seed)
    seeds.push_back(seed);
  const std::vector<double> load_scales =
      quick_opt.value ? std::vector<double>{1.0, 0.35}
                      : std::vector<double>{1.0, 0.6, 0.35, 0.2};

  table::Table table({"scale", "policy", "mode", "fulfilled%", "dFul(pp)",
                      "p", "CaR95", "dCaR95", "p", "rejected%", "degraded%",
                      "deferred%", "activations", "sec/run"});
  std::vector<Row> rows;
  for (const double scale : load_scales) {
    // One job stream per seed, shared by every policy and mode at this
    // scale: the pairing is over identical jobs.
    std::vector<std::vector<workload::Job>> streams;
    for (const std::uint64_t seed : seeds) {
      workload::PaperWorkloadConfig w;
      w.trace.job_count = static_cast<std::size_t>(job_count);
      streams.push_back(workload::make_paper_workload(w, seed));
      workload::scale_interarrivals(streams.back(), scale);
    }
    for (const core::Policy policy : kPolicies) {
      std::vector<Sample> baseline;
      for (const auto& jobs : streams)
        baseline.push_back(
            run_once(jobs, policy, core::DegradedMode::HardReject));
      for (const core::ModeSpec& entry : core::kOverloadCatalog) {
        std::vector<Sample> samples;
        if (entry.mode == core::DegradedMode::HardReject) {
          samples = baseline;
        } else {
          for (const auto& jobs : streams)
            samples.push_back(run_once(jobs, policy, entry.mode));
        }
        Row row;
        row.load_scale = scale;
        row.policy = std::string(core::to_string(policy));
        row.mode = std::string(entry.name);
        row.mean = mean_of(samples);
        row.fulfilled = stats::compare_paired(
            column(samples, &Sample::fulfilled_pct),
            column(baseline, &Sample::fulfilled_pct));
        row.car95 = stats::compare_paired(
            column(samples, &Sample::car95_slowdown),
            column(baseline, &Sample::car95_slowdown));
        table.add_row({table::num(row.load_scale, 2), row.policy, row.mode,
                       table::pct(row.mean.fulfilled_pct),
                       table::num(row.fulfilled.mean_difference, 2),
                       table::num(row.fulfilled.p_value, 3),
                       table::num(row.mean.car95_slowdown, 2),
                       table::num(row.car95.mean_difference, 3),
                       table::num(row.car95.p_value, 3),
                       table::pct(row.mean.rejected_pct),
                       table::pct(row.mean.degraded_pct),
                       table::pct(row.mean.deferred_pct),
                       table::num(row.mean.activations, 1),
                       table::num(row.mean.seconds, 3)});
        rows.push_back(std::move(row));
      }
    }
    table.add_rule();
  }
  std::cout << table.str() << '\n';
  write_json(out_opt.value, job_count, seeds, rows);
  std::cout << "written to " << out_opt.value << '\n';
  return 0;
}
