// Tests for the harness: platform factory, validator, system monitor,
// benchmark core, report generator, results database.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/random.h"
#include "common/temp_dir.h"
#include "harness/core.h"
#include "harness/monitor.h"
#include "harness/platform.h"
#include "harness/report.h"
#include "harness/validator.h"

namespace gly::harness {
namespace {

Graph RandomUndirected(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

// ---------------------------------------------------------------- platform

TEST(PlatformFactoryTest, CreatesAllRegisteredPlatforms) {
  for (const std::string& name : RegisteredPlatforms()) {
    auto platform = MakePlatform(name, Config());
    ASSERT_TRUE(platform.ok()) << name;
  }
}

TEST(PlatformFactoryTest, RejectsUnknown) {
  EXPECT_TRUE(MakePlatform("flink", Config()).status().IsNotFound());
}

TEST(PlatformTest, RunWithoutLoadFails) {
  auto platform = MakePlatform("giraph", Config());
  ASSERT_TRUE(platform.ok());
  EXPECT_FALSE((*platform)->Run(AlgorithmKind::kBfs, {}).ok());
}

TEST(PlatformTest, EachPlatformRunsBfsCorrectly) {
  Graph g = RandomUndirected(120, 300, 51);
  AlgorithmParams params;
  params.bfs.source = 0;
  for (const std::string& name : RegisteredPlatforms()) {
    auto platform = MakePlatform(name, Config());
    ASSERT_TRUE(platform.ok()) << name;
    ASSERT_TRUE((*platform)->LoadGraph(g, "test").ok()) << name;
    auto out = (*platform)->Run(AlgorithmKind::kBfs, params);
    ASSERT_TRUE(out.ok()) << name << ": " << out.status().ToString();
    EXPECT_TRUE(
        ValidateOutput(g, AlgorithmKind::kBfs, params, *out).ok())
        << name;
    EXPECT_FALSE((*platform)->LastRunMetrics().empty()) << name;
    (*platform)->UnloadGraph();
  }
}

// --------------------------------------------------------------- validator

TEST(ValidatorTest, AcceptsCorrectOutput) {
  Graph g = RandomUndirected(50, 120, 52);
  AlgorithmParams params;
  auto expected = ref::Run(g, AlgorithmKind::kConn, params);
  EXPECT_TRUE(
      ValidateOutput(g, AlgorithmKind::kConn, params, expected).ok());
}

TEST(ValidatorTest, RejectsCorruptedVertexValues) {
  Graph g = RandomUndirected(50, 120, 53);
  AlgorithmParams params;
  auto out = ref::Run(g, AlgorithmKind::kConn, params);
  out.vertex_values[7] += 1;
  Status s = ValidateOutput(g, AlgorithmKind::kConn, params, out);
  EXPECT_TRUE(s.IsValidationFailed());
  EXPECT_NE(s.message().find("vertex 7"), std::string::npos);
}

TEST(ValidatorTest, RejectsSizeMismatch) {
  Graph g = RandomUndirected(50, 120, 54);
  AlgorithmParams params;
  auto out = ref::Run(g, AlgorithmKind::kBfs, params);
  out.vertex_values.pop_back();
  EXPECT_TRUE(ValidateOutput(g, AlgorithmKind::kBfs, params, out)
                  .IsValidationFailed());
}

TEST(ValidatorTest, StatsToleranceAllowsSummationNoise) {
  Graph g = RandomUndirected(50, 120, 55);
  AlgorithmParams params;
  auto out = ref::Run(g, AlgorithmKind::kStats, params);
  out.stats.mean_local_clustering *= 1.0 + 1e-9;
  EXPECT_TRUE(ValidateOutput(g, AlgorithmKind::kStats, params, out).ok());
  out.stats.mean_local_clustering += 0.1;
  EXPECT_TRUE(ValidateOutput(g, AlgorithmKind::kStats, params, out)
                  .IsValidationFailed());
}

TEST(ValidatorTest, RejectsEvoEdgeDifference) {
  Graph g = RandomUndirected(50, 120, 56);
  AlgorithmParams params;
  auto out = ref::Run(g, AlgorithmKind::kEvo, params);
  out.new_edges.Add(51, 0);
  EXPECT_TRUE(ValidateOutput(g, AlgorithmKind::kEvo, params, out)
                  .IsValidationFailed());
}

// ----------------------------------------------------------------- monitor

TEST(SystemMonitorTest, ReadsProcCounters) {
  EXPECT_GT(SystemMonitor::CurrentRssBytes(), 1u << 20);
  double cpu1 = SystemMonitor::CurrentCpuSeconds();
  // Burn a little CPU.
  volatile double x = 0;
  for (int i = 0; i < 20000000; ++i) x = x + i;
  (void)x;
  double cpu2 = SystemMonitor::CurrentCpuSeconds();
  EXPECT_GE(cpu2, cpu1);
}

TEST(SystemMonitorTest, SamplesDuringWindow) {
  SystemMonitor monitor(0.01);
  monitor.Start();
  // Generous window: under heavy parallel test load the sampler thread can
  // be starved, so only a conservative sample count is asserted.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ResourceSummary summary = monitor.Stop();
  EXPECT_GE(summary.samples, 2u);
  EXPECT_GT(summary.peak_rss_bytes, 0u);
  EXPECT_GT(summary.wall_seconds, 0.1);
}

// -------------------------------------------------------------------- core

TEST(BenchmarkCoreTest, RunsFullMatrixWithValidation) {
  Graph g = RandomUndirected(80, 200, 57);
  RunSpec spec;
  spec.platforms = {"giraph", "neo4j"};
  spec.datasets.push_back({"toy", &g, {}});
  spec.algorithms = {AlgorithmKind::kBfs, AlgorithmKind::kConn};
  spec.monitor = false;
  size_t callbacks = 0;
  auto results = RunBenchmark(spec, [&callbacks](const BenchmarkResult&) {
    ++callbacks;
  });
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  EXPECT_EQ(callbacks, 4u);
  for (const BenchmarkResult& r : *results) {
    EXPECT_TRUE(r.status.ok()) << r.platform;
    EXPECT_TRUE(r.validation.ok()) << r.platform;
    EXPECT_GT(r.runtime_seconds, 0.0);
    EXPECT_GT(r.teps, 0.0);
  }
}

TEST(BenchmarkCoreTest, ValidationIsExplicitlyUntestedWhenNotRun) {
  // validate = false must be distinguishable from "validation passed":
  // the result carries the dedicated untested state, which is neither OK
  // nor a validation failure.
  Graph g = RandomUndirected(80, 200, 59);
  RunSpec spec;
  spec.platforms = {"reference"};
  spec.datasets.push_back({"toy", &g, {}});
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.monitor = false;
  spec.validate = false;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.validation.IsUntested());
  EXPECT_FALSE(r.validation.ok());
  EXPECT_FALSE(r.validation.IsValidationFailed());
  // A default-constructed result is untested too, not silently "passed".
  EXPECT_TRUE(BenchmarkResult{}.validation.IsUntested());
}

TEST(BenchmarkCoreTest, RecordsSingleAttemptOnCleanRuns) {
  Graph g = RandomUndirected(80, 200, 60);
  RunSpec spec;
  spec.platforms = {"reference"};
  spec.datasets.push_back({"toy", &g, {}});
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.monitor = false;
  spec.max_attempts = 3;  // headroom must not inflate the count
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.injected_faults, 0u);
  EXPECT_TRUE(r.validation.ok());
}

TEST(BenchmarkCoreTest, ReportsFailuresAsResults) {
  Graph g = RandomUndirected(2000, 6000, 58);
  RunSpec spec;
  spec.platforms = {"graphx"};
  Config config;
  config.SetInt("graphx.memory_budget_mb", 1);  // guaranteed failure
  spec.platform_config = config;
  spec.datasets.push_back({"big", &g, {}});
  spec.algorithms = {AlgorithmKind::kConn};
  spec.monitor = false;
  spec.validate = false;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_TRUE((*results)[0].status.IsResourceExhausted());
}

TEST(BenchmarkCoreTest, RejectsEmptySpec) {
  EXPECT_FALSE(RunBenchmark(RunSpec{}).ok());
}

TEST(BenchmarkCoreTest, ReorderedDatasetValidatesInOriginalIds) {
  Graph g = RandomUndirected(120, 400, 61);
  ReorderedGraph reordered = g.ReorderByDegree();
  RunSpec spec;
  spec.platforms = {"giraph", "neo4j"};
  DatasetSpec dataset;
  dataset.name = "toy_reordered";
  dataset.graph = &reordered.graph;
  dataset.original = &g;
  dataset.new_to_old = &reordered.perm.new_to_old;
  dataset.old_to_new = &reordered.perm.old_to_new;
  dataset.params.bfs.source = 17;  // original-id space
  spec.datasets.push_back(dataset);
  spec.algorithms = {AlgorithmKind::kBfs, AlgorithmKind::kConn,
                     AlgorithmKind::kPr};
  spec.monitor = false;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 6u);
  for (const BenchmarkResult& r : *results) {
    EXPECT_TRUE(r.status.ok()) << r.platform << "/"
                               << AlgorithmKindName(r.algorithm);
    EXPECT_TRUE(r.validation.ok())
        << r.platform << "/" << AlgorithmKindName(r.algorithm) << ": "
        << r.validation.ToString();
  }
}

TEST(BenchmarkCoreTest, ReorderedDatasetRefusesIdSeededAlgorithms) {
  // CD and EVO seed their dynamics with vertex ids: on a reordered dataset
  // the cell must be *recorded* as InvalidArgument, not silently run.
  Graph g = RandomUndirected(60, 150, 62);
  ReorderedGraph reordered = g.ReorderByDegree();
  RunSpec spec;
  spec.platforms = {"reference"};
  DatasetSpec dataset;
  dataset.name = "toy_reordered";
  dataset.graph = &reordered.graph;
  dataset.original = &g;
  dataset.new_to_old = &reordered.perm.new_to_old;
  dataset.old_to_new = &reordered.perm.old_to_new;
  spec.datasets.push_back(dataset);
  spec.algorithms = {AlgorithmKind::kCd, AlgorithmKind::kEvo,
                     AlgorithmKind::kBfs};
  spec.monitor = false;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_TRUE((*results)[0].status.IsInvalidArgument());
  EXPECT_TRUE((*results)[1].status.IsInvalidArgument());
  EXPECT_TRUE((*results)[2].status.ok());
  EXPECT_TRUE((*results)[2].validation.ok());
}

TEST(BenchmarkCoreTest, RejectsReorderedDatasetWithBrokenPermutation) {
  Graph g = RandomUndirected(30, 60, 63);
  ReorderedGraph reordered = g.ReorderByDegree();
  std::vector<VertexId> short_perm(g.num_vertices() - 1);
  RunSpec spec;
  spec.platforms = {"reference"};
  DatasetSpec dataset;
  dataset.name = "broken";
  dataset.graph = &reordered.graph;
  dataset.original = &g;
  dataset.new_to_old = &short_perm;
  dataset.old_to_new = &reordered.perm.old_to_new;
  spec.datasets.push_back(dataset);
  spec.algorithms = {AlgorithmKind::kBfs};
  EXPECT_TRUE(RunBenchmark(spec).status().IsInvalidArgument());
}

// ------------------------------------------------------------------ report

std::vector<BenchmarkResult> FakeResults() {
  BenchmarkResult ok;
  ok.platform = "giraph";
  ok.graph = "g500";
  ok.algorithm = AlgorithmKind::kBfs;
  ok.runtime_seconds = 86.0;
  ok.teps = 1.6e7;
  ok.traversed_edges = 1000;
  BenchmarkResult failed;
  failed.platform = "graphx";
  failed.graph = "g500";
  failed.algorithm = AlgorithmKind::kBfs;
  failed.status = Status::ResourceExhausted("oom");
  return {ok, failed};
}

TEST(ReportTest, RuntimeTableMarksFailures) {
  std::string table = RenderRuntimeTable(FakeResults());
  EXPECT_NE(table.find("BFS"), std::string::npos);
  EXPECT_NE(table.find("g500/giraph"), std::string::npos);
  // "Missing values indicate failures."
  EXPECT_NE(table.find(" -"), std::string::npos);
}

TEST(ReportTest, TepsTable) {
  std::string table = RenderTepsTable(FakeResults(), AlgorithmKind::kBfs);
  EXPECT_NE(table.find("kTEPS"), std::string::npos);
  EXPECT_NE(table.find("16000"), std::string::npos);
}

TEST(ReportTest, FullReportIncludesConfigAndDetails) {
  Config config;
  config.Set("platforms", "giraph,graphx");
  std::string report = RenderFullReport(config, FakeResults());
  EXPECT_NE(report.find("platforms = giraph,graphx"), std::string::npos);
  EXPECT_NE(report.find("resource-exhausted"), std::string::npos);
}

TEST(ReportTest, CsvAndJsonlOutputs) {
  auto dir = TempDir::Create("gly-report");
  ASSERT_TRUE(dir.ok());
  auto results = FakeResults();
  ASSERT_TRUE(WriteResultsCsv(results, dir->File("r.csv")).ok());
  ASSERT_TRUE(AppendResultsDatabase(results, dir->File("db.jsonl")).ok());
  ASSERT_TRUE(AppendResultsDatabase(results, dir->File("db.jsonl")).ok());
  std::ifstream csv(dir->File("r.csv"));
  std::string line;
  int csv_lines = 0;
  while (std::getline(csv, line)) ++csv_lines;
  EXPECT_EQ(csv_lines, 3);  // header + 2 rows
  std::ifstream db(dir->File("db.jsonl"));
  int db_lines = 0;
  while (std::getline(db, line)) ++db_lines;
  EXPECT_EQ(db_lines, 4);  // appended twice
}

TEST(ReportTest, JsonEscapesSpecials) {
  BenchmarkResult r;
  r.platform = "giraph";
  r.graph = "we\"ird\ngraph";
  r.algorithm = AlgorithmKind::kCd;
  std::string json = ResultToJson(r);
  EXPECT_NE(json.find("we\\\"ird\\ngraph"), std::string::npos);
}

TEST(ReportTest, EveryFieldIsPinnedByteForByte) {
  // Every field non-default, the volatile ones the golden test masks
  // included, and commas, quotes and newlines in every free-form string.
  BenchmarkResult r;
  r.platform = "gi,raph";
  r.graph = "snb \"big\"\nv2";
  r.algorithm = AlgorithmKind::kPr;
  r.status = Status::Timeout("deadline, \"hit\"\nagain");
  r.validation = Status::ValidationFailed("mismatch");
  r.runtime_seconds = 1.2345678;
  r.load_seconds = 0.25;
  r.traversed_edges = 123456789012ull;
  r.teps = 98765.4321;
  r.output_checksum = 4000000000u;
  r.attempts = 3;
  r.timed_out = true;
  r.cancelled = true;
  r.stalled = true;
  r.cancel_reason = "dead,line \"x\"";
  r.cancel_join_seconds = 0.0625;
  r.injected_faults = 7;
  r.resumed = true;
  r.recoveries = 2;
  r.supersteps_replayed = 5;
  r.trace_spans = 42;
  r.top_phases = "harness.run:1.500000;\"q\",x";
  r.critical_path_seconds = 1.75;
  r.resources.peak_rss_bytes = 1073741824;
  r.resources.cpu_utilization = 0.875;
  r.platform_metrics["odd,\"key\""] = "line\nbreak";
  r.platform_metrics["supersteps"] = "17";

  // JSON: teps at %.1f, the other doubles at %.6f.
  EXPECT_EQ(
      ResultToJson(r),
      R"({"platform":"gi,raph","graph":"snb \"big\"\nv2","algorithm":"PR",)"
      R"("status":"timeout","validation":"validation-failed",)"
      R"("runtime_s":1.234568,"load_s":0.250000,)"
      R"("traversed_edges":123456789012,"teps":98765.4,)"
      R"("output_checksum":4000000000,"attempts":3,"timed_out":true,)"
      R"("cancelled":true,"stalled":true,"cancel_reason":"dead,line \"x\"",)"
      R"("cancel_join_s":0.062500,"injected_faults":7,"resumed":true,)"
      R"("recoveries":2,"supersteps_replayed":5,"peak_rss_bytes":1073741824,)"
      R"("trace_spans":42,"top_phases":"harness.run:1.500000;\"q\",x",)"
      R"("critical_path_s":1.750000,)"
      R"("metrics":{"odd,\"key\"":"line\nbreak","supersteps":"17"}})");

  // CSV: doubles at %.6g, booleans as 0/1, RFC 4180 quoting.
  auto dir = TempDir::Create("gly-report");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(WriteResultsCsv({r}, dir->File("r.csv")).ok());
  std::ifstream csv(dir->File("r.csv"));
  std::string written((std::istreambuf_iterator<char>(csv)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written,
            "platform,graph,algorithm,status,status_detail,validation,"
            "runtime_s,load_s,traversed_edges,teps,output_checksum,attempts,"
            "timed_out,cancelled,stalled,cancel_reason,cancel_join_s,"
            "injected_faults,resumed,recoveries,supersteps_replayed,"
            "peak_rss_bytes,cpu_utilization,trace_spans,top_phases,"
            "critical_path_s\n"
            "\"gi,raph\",\"snb \"\"big\"\"\nv2\",PR,timeout,"
            "\"deadline, \"\"hit\"\"\nagain\",validation-failed,1.23457,0.25,"
            "123456789012,98765.4,4000000000,3,1,1,1,\"dead,line \"\"x\"\"\","
            "0.0625,7,1,2,5,1073741824,0.875,42,"
            "\"harness.run:1.500000;\"\"q\"\",x\",1.75\n");
}

}  // namespace
}  // namespace gly::harness
