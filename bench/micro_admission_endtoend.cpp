// Microbenchmark M4: whole-trace admission throughput, fast path vs the
// preserved seed path (PolicyOptions::legacy_admission), as the cluster
// grows. Admission is O(nodes) per submission, so this is where the
// workspace + NodeStateView cache + selection early-exit pay off — the
// paper's 128-node cluster is the small end.
//
// One iteration = a full SDSC SP2 simulation (workload generation
// included). The `accepted` and `nodes_scanned` counters come from one
// untimed seed-1 run's AdmissionStats, so they are exact, identical across
// runs, and equal between a fast row and its legacy row when both do the
// same decision work.
#include <benchmark/benchmark.h>

#include "exp/scenario.hpp"

namespace {

using namespace librisk;

void run_admission(benchmark::State& state, core::Policy policy, bool legacy) {
  exp::Scenario scenario;
  scenario.workload.trace.job_count = 3000;
  scenario.nodes = static_cast<int>(state.range(0));
  scenario.policy = policy;
  scenario.options.legacy_admission = legacy;
  scenario.seed = 1;
  const core::AdmissionStats counted = exp::run_scenario(scenario).admission;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    scenario.seed = seed++;
    const exp::ScenarioResult result = exp::run_scenario(scenario);
    benchmark::DoNotOptimize(result.summary.fulfilled_pct);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * scenario.workload.trace.job_count));
  state.counters["accepted"] =
      benchmark::Counter(static_cast<double>(counted.accepted));
  state.counters["nodes_scanned"] =
      benchmark::Counter(static_cast<double>(counted.nodes_scanned));
}

void BM_AdmissionEndToEnd_LibraRisk(benchmark::State& state) {
  run_admission(state, core::Policy::LibraRisk, false);
}
void BM_AdmissionEndToEnd_LibraRiskLegacy(benchmark::State& state) {
  run_admission(state, core::Policy::LibraRisk, true);
}
void BM_AdmissionEndToEnd_Libra(benchmark::State& state) {
  run_admission(state, core::Policy::Libra, false);
}
void BM_AdmissionEndToEnd_LibraLegacy(benchmark::State& state) {
  run_admission(state, core::Policy::Libra, true);
}

BENCHMARK(BM_AdmissionEndToEnd_LibraRisk)
    ->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdmissionEndToEnd_LibraRiskLegacy)
    ->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdmissionEndToEnd_Libra)
    ->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdmissionEndToEnd_LibraLegacy)
    ->Arg(128)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
