#include "tools/commands.hpp"
#include "tools/common.hpp"

#include <gtest/gtest.h>

#include "core/factory.hpp"

#include <fstream>
#include <sstream>

namespace librisk::tool {
namespace {

struct ToolResult {
  int exit_code;
  std::string out;
  std::string err;
};

ToolResult run_tool(const std::string& command, std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_command(command, args, out, err);
  return ToolResult{code, out.str(), err.str()};
}

TEST(Tool, UsageListsEveryCommand) {
  const std::string u = usage();
  for (const char* cmd :
       {"run", "compare", "sweep", "workload", "replay", "trace", "metrics"})
    EXPECT_NE(u.find(cmd), std::string::npos) << cmd;
}

TEST(Tool, UnknownCommandFails) {
  const ToolResult r = run_tool("frobnicate", {});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Tool, MainEntryHandlesHelpAndMissingArgs) {
  std::ostringstream out, err;
  const char* help_argv[] = {"librisk-sim", "--help"};
  EXPECT_EQ(main_entry(2, help_argv, out, err), 0);
  EXPECT_NE(out.str().find("Commands"), std::string::npos);

  const char* bare_argv[] = {"librisk-sim"};
  EXPECT_EQ(main_entry(1, bare_argv, out, err), 2);
}

TEST(Tool, RunPrintsSummary) {
  const ToolResult r =
      run_tool("run", {"--jobs", "300", "--nodes", "32", "--policy", "Libra"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("== Libra =="), std::string::npos);
  EXPECT_NE(r.out.find("fulfilled %"), std::string::npos);
  EXPECT_NE(r.out.find("submitted"), std::string::npos);
}

TEST(Tool, RunRejectsBadFlagsAndPolicy) {
  EXPECT_EQ(run_tool("run", {"--bogus", "1"}).exit_code, 2);
  EXPECT_EQ(run_tool("run", {"--policy", "Nope"}).exit_code, 1);
  EXPECT_EQ(run_tool("run", {"--model", "weird"}).exit_code, 2);
}

TEST(Tool, RunWithGanttAndCar) {
  const ToolResult r = run_tool(
      "run", {"--jobs", "60", "--nodes", "8", "--policy", "LibraRisk",
              "--gantt", "--gantt-width", "40", "--car"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("node 0"), std::string::npos);
  EXPECT_NE(r.out.find("Computation-at-Risk"), std::string::npos);
}

TEST(Tool, RunSupportsLublinModelAndPredictor) {
  const ToolResult r = run_tool(
      "run", {"--jobs", "300", "--nodes", "32", "--model", "lublin", "--predictor"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("fulfilled %"), std::string::npos);
}

TEST(Tool, ComparePrintsEveryPolicyRow) {
  const ToolResult r = run_tool("compare", {"--jobs", "300", "--nodes", "32"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  for (const core::Policy p : core::all_policies())
    EXPECT_NE(r.out.find(std::string(core::to_string(p))), std::string::npos)
        << core::to_string(p);
}

TEST(Tool, SweepPrintsSeriesAndCsv) {
  const std::string csv_path = ::testing::TempDir() + "/tool_sweep.csv";
  const ToolResult r = run_tool(
      "sweep", {"--axis", "inaccuracy", "--jobs", "200", "--nodes", "16",
                "--seeds", "1", "--csv", csv_path});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("jobs with deadlines fulfilled"), std::string::npos);
  EXPECT_NE(r.out.find("LibraRisk"), std::string::npos);
  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_NE(header.find("figure,x,policy"), std::string::npos);
}

TEST(Tool, SweepValidatesAxis) {
  EXPECT_EQ(run_tool("sweep", {"--axis", "nonsense"}).exit_code, 2);
}

TEST(Tool, WorkloadWritesSwfThatReplayReads) {
  const std::string swf_path = ::testing::TempDir() + "/tool_trace.swf";
  const ToolResult gen = run_tool(
      "workload", {"--jobs", "200", "--out", swf_path, "--deadlines=false"});
  EXPECT_EQ(gen.exit_code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote 200 jobs"), std::string::npos);

  const ToolResult replay = run_tool(
      "replay", {"--trace", swf_path, "--nodes", "32", "--last", "150"});
  EXPECT_EQ(replay.exit_code, 0) << replay.err;
  EXPECT_NE(replay.out.find("jobs: 150"), std::string::npos);
  EXPECT_NE(replay.out.find("LibraRisk"), std::string::npos);
}

TEST(Tool, ConfigFileDrivesRun) {
  const std::string path = ::testing::TempDir() + "/tool_config.json";
  {
    std::ofstream out(path);
    out << R"({"jobs": 250, "nodes": 24, "policy": "Libra", "inaccuracy": 0})";
  }
  const ToolResult r = run_tool("run", {"--config", path});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("== Libra =="), std::string::npos);
  EXPECT_NE(r.out.find("250"), std::string::npos);  // submitted count
}

TEST(Tool, ExplicitFlagsOverrideConfig) {
  const std::string path = ::testing::TempDir() + "/tool_config2.json";
  {
    std::ofstream out(path);
    out << R"({"jobs": 250, "nodes": 24, "policy": "Libra"})";
  }
  const ToolResult r =
      run_tool("run", {"--config", path, "--policy", "EDF", "--jobs", "100"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("== EDF =="), std::string::npos);
  EXPECT_NE(r.out.find("100"), std::string::npos);
}

TEST(Tool, RepositoryExampleConfigParses) {
  const ToolResult r =
      run_tool("run", {"--config", "configs/example.json", "--jobs", "200",
                       "--nodes", "16"});
  // Depending on the test working directory the file may not resolve; both
  // a clean run and a clean file-not-found error are acceptable here — what
  // must not happen is a crash or a malformed-JSON error.
  if (r.exit_code == 0) {
    EXPECT_NE(r.out.find("fulfilled %"), std::string::npos);
  } else {
    EXPECT_NE(r.err.find("cannot open"), std::string::npos) << r.err;
  }
}

TEST(Tool, MalformedConfigFails) {
  const std::string path = ::testing::TempDir() + "/tool_bad.json";
  {
    std::ofstream out(path);
    out << "{ definitely not json";
  }
  const ToolResult r = run_tool("run", {"--config", path});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("JSON error"), std::string::npos) << r.err;
}

TEST(Tool, RetiredOverloadModesRejectedAtTheEdge) {
  // shed-tail and relax-sigma left the catalog: both the flag and the JSON
  // key must fail cleanly, and the error names the modes that remain.
  for (const std::string mode : {"shed-tail", "relax-sigma"}) {
    for (const char* command : {"run", "replay"}) {
      const ToolResult flag = run_tool(command, {"--overload-mode", mode});
      EXPECT_EQ(flag.exit_code, 2) << command << ' ' << mode;
      EXPECT_NE(flag.err.find("unknown degraded mode: " + mode),
                std::string::npos)
          << flag.err;
      EXPECT_NE(flag.err.find("hard-reject, defer-to-salvage, downgrade-qos"),
                std::string::npos)
          << flag.err;
    }
    const std::string path =
        ::testing::TempDir() + "/tool_retired_" + mode + ".json";
    {
      std::ofstream out(path);
      out << R"({"jobs": 50, "nodes": 8, "overload_mode": ")" << mode
          << R"("})";
    }
    const ToolResult json = run_tool("run", {"--config", path});
    EXPECT_EQ(json.exit_code, 2) << mode;
    EXPECT_NE(json.err.find("unknown degraded mode: " + mode),
              std::string::npos)
        << json.err;
  }
  // The help text lists the catalog, not the retired names.
  const std::string help = overload_mode_help();
  EXPECT_NE(help.find("hard-reject | defer-to-salvage | downgrade-qos"),
            std::string::npos)
      << help;
  EXPECT_EQ(help.find("shed-tail"), std::string::npos);
}

TEST(Tool, RunWithTelemetryExportsMatchSummary) {
  const std::string dir = ::testing::TempDir() + "/tool_telemetry";
  const ToolResult r = run_tool(
      "run", {"--jobs", "200", "--nodes", "32", "--policy", "LibraRisk",
              "--telemetry-out", dir, "--telemetry-period", "600", "--profile"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("Metrics:"), std::string::npos);
  EXPECT_NE(r.out.find("admission_accepted"), std::string::npos);
  EXPECT_NE(r.out.find("Phase profile"), std::string::npos);
  EXPECT_NE(r.out.find("telemetry written to"), std::string::npos);
  for (const char* name : {"/admission.csv", "/nodes.csv", "/metrics.txt"}) {
    std::ifstream f(dir + name);
    EXPECT_TRUE(f.good()) << name;
  }
}

TEST(Tool, MetricsRendersTableAndOpenMetrics) {
  const ToolResult table = run_tool(
      "metrics", {"--jobs", "150", "--nodes", "16", "--policy", "LibraRisk"});
  EXPECT_EQ(table.exit_code, 0) << table.err;
  EXPECT_NE(table.out.find("admission_submissions"), std::string::npos);
  EXPECT_NE(table.out.find("kernel_settles"), std::string::npos);
  EXPECT_NE(table.out.find("histogram"), std::string::npos);

  const ToolResult om = run_tool(
      "metrics", {"--jobs", "150", "--nodes", "16", "--format", "openmetrics"});
  EXPECT_EQ(om.exit_code, 0) << om.err;
  EXPECT_NE(om.out.find("# TYPE admission_submissions counter"),
            std::string::npos);
  EXPECT_NE(om.out.find("admission_submissions_total 150"), std::string::npos);
  EXPECT_NE(om.out.find("# EOF"), std::string::npos);

  EXPECT_EQ(run_tool("metrics", {"--format", "yaml"}).exit_code, 2);
}

TEST(Tool, ReplayRequiresTrace) {
  const ToolResult r = run_tool("replay", {});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("--trace"), std::string::npos);
}

TEST(Tool, ReplayMissingFileFails) {
  const ToolResult r = run_tool("replay", {"--trace", "/no/such/file.swf"});
  EXPECT_EQ(r.exit_code, 1);
}

}  // namespace
}  // namespace librisk::tool
