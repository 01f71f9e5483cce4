// Integration suite for the observability layer (`ctest -L
// observability`): BFS and PR on an rmat-8 graph through all four
// platform engines with a trace directory set. Asserts the exported
// artifacts are a valid Chrome-trace document with well-formed span
// nesting, that per-cell traces and schema-versioned metrics come out,
// that Pregel's per-superstep spans agree with the engine's reported
// superstep count — and that all of it holds under an injected fault with
// a retry.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/temp_dir.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "datagen/rmat.h"
#include "harness/core.h"
#include "harness/run_config.h"

namespace gly::harness {
namespace {

Graph Rmat8() {
  datagen::RmatConfig config;
  config.scale = 8;
  config.edge_factor = 8;
  config.seed = 1;
  ThreadPool pool(2);
  EdgeList edges = datagen::RmatGenerator(config).Generate(&pool).ValueOrDie();
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const std::vector<std::string> kAllPlatforms = {"giraph", "graphx",
                                                "mapreduce", "neo4j"};

RunSpec MatrixSpec(const Graph* graph) {
  RunSpec spec;
  spec.platforms = kAllPlatforms;
  DatasetSpec dataset;
  dataset.name = "rmat8";
  dataset.graph = graph;
  dataset.params.pr.iterations = 5;
  spec.datasets.push_back(dataset);
  spec.algorithms = {AlgorithmKind::kBfs, AlgorithmKind::kPr};
  spec.monitor = false;
  return spec;
}

// Events of one name/phase in a window (e.g. every pregel.superstep 'E').
size_t CountEvents(const std::vector<trace::TraceEvent>& events,
                   std::string_view name, char phase) {
  return static_cast<size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const trace::TraceEvent& e) {
                      return e.name == name && e.phase == phase;
                    }));
}

// ------------------------------------------------- the full 4x2 matrix

TEST(ObservabilityTest, MatrixEmitsValidArtifactsOnEveryEngine) {
  auto dir = TempDir::Create("gly-obs");
  ASSERT_TRUE(dir.ok());
  Graph g = Rmat8();
  RunSpec spec = MatrixSpec(&g);
  spec.trace_dir = dir->File("trace");

  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), kAllPlatforms.size() * 2);
  for (const BenchmarkResult& r : *results) {
    EXPECT_TRUE(r.status.ok()) << r.platform;
    EXPECT_TRUE(r.validation.ok()) << r.platform;
    // Every cell carries its span count and top phases.
    EXPECT_GT(r.trace_spans, 0u) << r.platform;
    EXPECT_FALSE(r.top_phases.empty()) << r.platform;

    // ... and its own per-cell trace, independently valid.
    std::string cell_file = spec.trace_dir + "/trace-" + r.platform + "-" +
                            r.graph + "-" + AlgorithmKindName(r.algorithm) +
                            ".json";
    ASSERT_TRUE(std::filesystem::exists(cell_file)) << cell_file;
    auto cell_check = trace::ValidateChromeTraceJson(ReadFileOrDie(cell_file));
    ASSERT_TRUE(cell_check.ok()) << cell_file << ": "
                                 << cell_check.status().ToString();
    EXPECT_GT(cell_check->completed_spans, 0u) << cell_file;
  }

  // The run-wide trace is valid and fully closed: every B has its E.
  std::string run_trace = ReadFileOrDie(spec.trace_dir + "/trace.json");
  auto check = trace::ValidateChromeTraceJson(run_trace);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->unmatched_begins, 0u);
  EXPECT_GT(check->completed_spans, 0u);
  // Each engine family contributed its own spans to the timeline.
  EXPECT_NE(run_trace.find("\"pregel.superstep\""), std::string::npos);
  EXPECT_NE(run_trace.find("\"mapreduce.job\""), std::string::npos);
  EXPECT_NE(run_trace.find("\"dataflow.materialize\""), std::string::npos);
  EXPECT_NE(run_trace.find("\"graphdb.bulk_import\""), std::string::npos);

  // The metrics export parses against its schema and reflects the run:
  // one harness.cells tick per cell, and every engine family reported.
  auto parsed = metrics::Registry::FromJsonl(
      ReadFileOrDie(spec.trace_dir + "/metrics.jsonl"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->count("harness.cells"));
  EXPECT_EQ(parsed->at("harness.cells").counter, results->size());
  ASSERT_TRUE(parsed->count("pregel.supersteps"));
  EXPECT_GT(parsed->at("pregel.supersteps").counter, 0u);
  ASSERT_TRUE(parsed->count("pregel.messages_sent"));
  EXPECT_GT(parsed->at("pregel.messages_sent").counter, 0u);
  ASSERT_TRUE(parsed->count("mapreduce.jobs"));
  EXPECT_GT(parsed->at("mapreduce.jobs").counter, 0u);
  ASSERT_TRUE(parsed->count("dataflow.datasets_materialized"));
  EXPECT_GT(parsed->at("dataflow.datasets_materialized").counter, 0u);
}

// ----------------------------------- superstep spans == superstep count

TEST(ObservabilityTest, SuperstepSpanCountMatchesReportedSupersteps) {
  Graph g = Rmat8();
  trace::FakeClock clock(0, 7);  // deterministic, distinct timestamps
  trace::Tracer tracer(&clock);
  metrics::Registry registry;

  RunSpec spec = MatrixSpec(&g);
  spec.platforms = {"giraph"};
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.tracer = &tracer;
  spec.metrics = &registry;

  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const BenchmarkResult& r = (*results)[0];
  ASSERT_TRUE(r.status.ok());
  ASSERT_TRUE(r.platform_metrics.count("supersteps"));
  size_t reported = std::stoul(r.platform_metrics.at("supersteps"));

  std::vector<trace::TraceEvent> events = tracer.Snapshot();
  EXPECT_EQ(CountEvents(events, "pregel.superstep", 'E'), reported);
  // The registry agrees with the platform's own report.
  EXPECT_EQ(registry.Snapshot().at("pregel.supersteps").counter, reported);
  // Deterministic schedule + fake clock => well-formed, closed trace.
  auto check = trace::CheckWellFormed(events);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->unmatched_begins, 0u);
}

// ------------------------------------------- fault + retry stays valid

TEST(ObservabilityTest, InjectedFaultAndRetryKeepTraceValid) {
  auto dir = TempDir::Create("gly-obs");
  ASSERT_TRUE(dir.ok());
  Graph g = Rmat8();
  trace::Tracer tracer;
  metrics::Registry registry;

  fault::FaultPlan plan(0xFEED);
  plan.Add({.site = "pregel.run.start", .kind = fault::FaultKind::kCrash,
            .probability = 1.0, .max_triggers = 1});

  RunSpec spec = MatrixSpec(&g);
  spec.platforms = {"giraph"};
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.trace_dir = dir->File("trace");
  spec.tracer = &tracer;
  spec.metrics = &registry;
  spec.fault_plan = &plan;
  spec.max_attempts = 2;

  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();  // retry succeeded
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.injected_faults, 1u);

  std::vector<trace::TraceEvent> events = tracer.Snapshot();
  // The fault and the retry both left their marks on the timeline.
  EXPECT_EQ(CountEvents(events, "fault.injected", 'i'), 1u);
  EXPECT_EQ(CountEvents(events, "harness.retry", 'i'), 1u);
  // Two run attempts, each a closed span.
  EXPECT_EQ(CountEvents(events, "harness.run", 'B'), 2u);
  EXPECT_EQ(CountEvents(events, "harness.run", 'E'), 2u);

  // Superstep spans are per *attempt*; the successful (last) attempt's
  // count must equal the engine's reported superstep total.
  ASSERT_TRUE(r.platform_metrics.count("supersteps"));
  size_t reported = std::stoul(r.platform_metrics.at("supersteps"));
  size_t last_run_begin = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].name == "harness.run" && events[i].phase == 'B') {
      last_run_begin = i;
    }
  }
  std::vector<trace::TraceEvent> last_attempt(
      events.begin() + static_cast<ptrdiff_t>(last_run_begin), events.end());
  EXPECT_EQ(CountEvents(last_attempt, "pregel.superstep", 'E'), reported);

  // The exported artifacts survive the fault path intact.
  auto check = trace::ValidateChromeTraceJson(
      ReadFileOrDie(spec.trace_dir + "/trace.json"));
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->unmatched_begins, 0u);
  auto parsed = metrics::Registry::FromJsonl(
      ReadFileOrDie(spec.trace_dir + "/metrics.jsonl"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("harness.retries").counter, 1u);
}

// ------------------------------------------------ config-level plumbing

TEST(ObservabilityTest, TraceDirConfigKeyCapturesEtlSpans) {
  // Through RunFromConfig (what `graphalytics_run --trace-dir` hits): the
  // tracer is installed before the graphs are built, so the run-wide trace
  // includes the ETL phase, not just the benchmark cells.
  auto dir = TempDir::Create("gly-obs");
  ASSERT_TRUE(dir.ok());
  Config config = *Config::Parse(
      "graphs = r\n"
      "graph.r.source = rmat\n"
      "graph.r.scale = 8\n"
      "graph.r.edge_factor = 8\n"
      "platforms = giraph\n"
      "algorithms = bfs\n"
      "monitor = false\n"
      "etl.threads = 2\n");
  config.Set("trace.dir", dir->File("trace"));

  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_TRUE(out->results[0].status.ok());
  EXPECT_GT(out->results[0].trace_spans, 0u);

  std::string json = ReadFileOrDie(dir->File("trace") + "/trace.json");
  auto check = trace::ValidateChromeTraceJson(json);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->unmatched_begins, 0u);
  EXPECT_NE(json.find("\"harness.etl\""), std::string::npos);
  EXPECT_NE(json.find("\"etl.csr_build\""), std::string::npos);
  EXPECT_NE(json.find("\"harness.cell\""), std::string::npos);
}

TEST(ObservabilityTest, TracingOffRecordsNothing) {
  Graph g = Rmat8();
  RunSpec spec = MatrixSpec(&g);
  spec.platforms = {"giraph"};
  spec.algorithms = {AlgorithmKind::kBfs};
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ((*results)[0].trace_spans, 0u);
  EXPECT_TRUE((*results)[0].top_phases.empty());
}

}  // namespace
}  // namespace gly::harness
