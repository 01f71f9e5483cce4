// Differential robustness tests: every platform runs under injected
// worker crashes, transient I/O errors, and stalls, and the harness must
// (a) record every cell's outcome — never hang, never kill the process —
// and (b) recover to a clean, validated result when the fault is
// transient or the plan is removed. This is the testable form of the
// paper's "Missing values indicate failures".

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/temp_dir.h"
#include "common/trace.h"
#include "common/trace_analysis.h"
#include "harness/core.h"
#include "harness/report.h"
#include "harness/validator.h"
#include "pregel/algorithms.h"
#include "pregel/engine.h"

namespace gly::harness {
namespace {

#ifdef GLY_DISABLE_FAULT_POINTS

TEST(RobustnessTest, FaultPointsCompiledOut) {
  GTEST_SKIP() << "built with GLY_FAULT_POINTS=OFF; engine fault sites are "
                  "no-ops, so the robustness scenarios cannot run";
}

#else

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

// All fault sites of one platform ("pregel.*" etc.).
std::string SitePrefix(const std::string& platform) {
  if (platform == "giraph") return "pregel.*";
  if (platform == "graphx") return "dataflow.*";
  if (platform == "mapreduce") return "mapreduce.*";
  if (platform == "neo4j") return "graphdb.*";
  return "*";
}

const std::vector<std::string> kFaultablePlatforms = {"giraph", "graphx",
                                                      "mapreduce", "neo4j"};

RunSpec BaseSpec(const Graph* graph, const std::string& platform) {
  RunSpec spec;
  spec.platforms = {platform};
  spec.datasets.push_back({"toy", graph, {}});
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.monitor = false;
  return spec;
}

// ---------------------------------------------------- crashes are recorded

TEST(RobustnessTest, InjectedCrashIsARecordedFailureOnEveryPlatform) {
  Graph g = RandomUndirected(100, 250, 71);
  for (const std::string& platform : kFaultablePlatforms) {
    fault::FaultPlan plan(0xC0FFEE);
    plan.Add({.site = SitePrefix(platform), .kind = fault::FaultKind::kCrash,
              .probability = 1.0});
    RunSpec spec = BaseSpec(&g, platform);
    spec.fault_plan = &plan;
    auto results = RunBenchmark(spec);
    // The harness survives and reports the cell as failed.
    ASSERT_TRUE(results.ok()) << platform;
    ASSERT_EQ(results->size(), 1u) << platform;
    const BenchmarkResult& r = (*results)[0];
    EXPECT_FALSE(r.status.ok()) << platform;
    EXPECT_TRUE(r.validation.IsUntested()) << platform;
    EXPECT_GT(plan.TotalTriggered(), 0u) << platform;
  }
}

TEST(RobustnessTest, TransientIOErrorIsRetryableOnEveryPlatform) {
  Graph g = RandomUndirected(100, 250, 72);
  for (const std::string& platform : kFaultablePlatforms) {
    fault::FaultPlan plan(0xBEEF);
    plan.Add({.site = SitePrefix(platform),
              .kind = fault::FaultKind::kIOError, .max_triggers = 1});
    RunSpec spec = BaseSpec(&g, platform);
    spec.fault_plan = &plan;
    spec.max_attempts = 3;
    auto results = RunBenchmark(spec);
    ASSERT_TRUE(results.ok()) << platform;
    const BenchmarkResult& r = (*results)[0];
    // One transient fault, bounded retry: the cell ends up clean and the
    // fault-free re-execution validates against the reference.
    EXPECT_TRUE(r.status.ok()) << platform << ": " << r.status.ToString();
    EXPECT_TRUE(r.validation.ok()) << platform << ": "
                                   << r.validation.ToString();
    EXPECT_EQ(plan.TotalTriggered(), 1u) << platform;
  }
}

TEST(RobustnessTest, RetryCountsAreRecorded) {
  // giraph's pregel.run.start is hit exactly once per execution attempt,
  // so a single transient crash there pins attempts == 2.
  Graph g = RandomUndirected(100, 250, 73);
  fault::FaultPlan plan(0xAB);
  plan.Add({.site = "pregel.run.start", .kind = fault::FaultKind::kCrash,
            .max_triggers = 1});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.max_attempts = 3;
  spec.retry_backoff_s = 0.001;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.validation.ok());
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.injected_faults, 1u);
}

TEST(RobustnessTest, RetriesAreBounded) {
  // A permanent crash must consume exactly max_attempts, then surface.
  Graph g = RandomUndirected(100, 250, 74);
  fault::FaultPlan plan(0xAC);
  plan.Add({.site = "pregel.run.start", .kind = fault::FaultKind::kCrash});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.max_attempts = 3;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.IsInternal());
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.injected_faults, 3u);
}

// ----------------------------------------------------------------- timeouts

TEST(RobustnessTest, StalledCellTimesOutAndIsRecorded) {
  Graph g = RandomUndirected(100, 250, 75);
  fault::FaultPlan plan(0xAD);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .delay_seconds = 0.6});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.cell_timeout_s = 0.15;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.IsTimeout()) << r.status.ToString();
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_TRUE(r.validation.IsUntested());
}

TEST(RobustnessTest, TimeoutRetryRecoversWhenStallIsTransient) {
  Graph g = RandomUndirected(100, 250, 76);
  fault::FaultPlan plan(0xAE);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .max_triggers = 1,
            .delay_seconds = 0.6});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.cell_timeout_s = 0.15;
  spec.max_attempts = 2;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.validation.ok());
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_FALSE(r.timed_out);  // the recorded (final) attempt was clean
}

// ------------------------------------------------------------ message loss

TEST(RobustnessTest, DroppedMessagesCorruptResultsAndValidationCatchesIt) {
  // Message loss must not hang or crash the engine; it yields a wrong
  // answer that the Output Validator flags — the silent-failure mode the
  // differential harness exists to catch.
  Graph g = RandomUndirected(100, 250, 77);
  fault::FaultPlan plan(0xAF);
  plan.Add({.site = "pregel.message.deliver",
            .kind = fault::FaultKind::kDrop, .probability = 0.9});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(plan.TriggeredCount("pregel.message.deliver"), 0u);
  EXPECT_TRUE(r.validation.IsValidationFailed()) << r.validation.ToString();
}

// ------------------------------------------- superstep checkpoint recovery

// A path graph: CONN label propagation needs ~N supersteps to converge,
// giving faults room to strike long after checkpoints exist.
Graph PathGraph(VertexId n) {
  EdgeList edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.Add(v, v + 1);
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

TEST(CheckpointRecoveryTest, PregelReplaysOnlyFromTheLastCheckpoint) {
  Graph g = PathGraph(60);

  pregel::EngineConfig config;
  config.num_workers = 2;
  pregel::RunStats clean_stats;
  auto baseline = pregel::RunConn(pregel::Engine(config), g, &clean_stats);
  ASSERT_TRUE(baseline.ok());

  auto dir = TempDir::Create("gly-ckpt-recovery");
  ASSERT_TRUE(dir.ok());
  config.checkpoint.interval = 8;
  config.checkpoint.directory = dir->path();

  // Crash at the superstep-20 barrier: the engine must roll back to the
  // superstep-16 checkpoint and replay 4 supersteps, not start over.
  fault::FaultPlan plan(0xD1);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kCrash, .skip_hits = 20,
            .max_triggers = 1});
  fault::ScopedFaultPlan active(&plan);

  pregel::RunStats stats;
  auto recovered = pregel::RunConn(pregel::Engine(config), g, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(plan.TotalTriggered(), 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.checkpoints_written, 0u);
  EXPECT_EQ(stats.supersteps_replayed, 4u);
  EXPECT_LT(stats.supersteps_replayed, stats.supersteps);
  // The recovered run is indistinguishable from the fault-free one.
  EXPECT_EQ(stats.supersteps, clean_stats.supersteps);
  EXPECT_EQ(recovered->vertex_values, baseline->vertex_values);
}

TEST(CheckpointRecoveryTest, FailedCheckpointWriteFallsBackToPreviousOne) {
  Graph g = PathGraph(60);
  auto dir = TempDir::Create("gly-ckpt-recovery");
  ASSERT_TRUE(dir.ok());
  pregel::EngineConfig config;
  config.num_workers = 2;
  config.checkpoint.interval = 4;
  config.checkpoint.directory = dir->path();

  // The second checkpoint write (superstep 8) crashes mid-write; the crash
  // at the superstep-10 barrier must fall back to the still-valid
  // superstep-4 checkpoint — 6 supersteps replayed, correct output.
  fault::FaultPlan plan(0xD2);
  plan.Add({.site = "checkpoint.write", .kind = fault::FaultKind::kCrash,
            .skip_hits = 1, .max_triggers = 1});
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kCrash, .skip_hits = 10,
            .max_triggers = 1});
  fault::ScopedFaultPlan active(&plan);

  pregel::RunStats stats;
  auto out = pregel::RunConn(pregel::Engine(config), g, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.checkpoint_failures, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.supersteps_replayed, 6u);

  pregel::EngineConfig clean;
  clean.num_workers = 2;
  auto baseline = pregel::RunConn(pregel::Engine(clean), g, nullptr);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(out->vertex_values, baseline->vertex_values);
}

TEST(CheckpointRecoveryTest, RecoveriesAreBoundedByPolicy) {
  // A permanent barrier crash exhausts max_recoveries, then surfaces.
  Graph g = PathGraph(40);
  auto dir = TempDir::Create("gly-ckpt-recovery");
  ASSERT_TRUE(dir.ok());
  pregel::EngineConfig config;
  config.num_workers = 2;
  config.checkpoint.interval = 2;
  config.checkpoint.directory = dir->path();
  config.checkpoint.max_recoveries = 2;

  fault::FaultPlan plan(0xD3);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kCrash, .skip_hits = 4});
  fault::ScopedFaultPlan active(&plan);

  auto out = pregel::RunConn(pregel::Engine(config), g, nullptr);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInternal());
  // The barrier re-crashed on every replay: the initial crash plus one per
  // permitted recovery reached the site before the policy gave up.
  EXPECT_EQ(plan.TriggeredCount("pregel.superstep.barrier"), 3u);
}

TEST(CheckpointRecoveryTest, HarnessCellRecoversWithoutConsumingARetry) {
  // The engine absorbs a mid-run worker crash via rollback: the harness
  // sees one clean attempt, with the recovery surfaced in the metrics.
  Graph g = RandomUndirected(100, 250, 79);
  fault::FaultPlan plan(0xD4);
  plan.Add({.site = "pregel.worker.compute",
            .kind = fault::FaultKind::kCrash, .skip_hits = 8,
            .max_triggers = 1});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.algorithms = {AlgorithmKind::kConn};
  spec.platform_config.SetInt("giraph.checkpoint_interval", 1);
  spec.fault_plan = &plan;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.validation.ok()) << r.validation.ToString();
  EXPECT_EQ(r.attempts, 1u);  // recovered inside the engine, not by retry
  EXPECT_GE(r.recoveries, 1u);
  EXPECT_EQ(plan.TotalTriggered(), 1u);
}

TEST(CheckpointRecoveryTest, MapReduceRetrySkipsTheCompletedMapStage) {
  // A crash in the reduce phase fails the attempt, but the map stage's
  // manifest survives: the retry restores spills instead of re-mapping.
  Graph g = RandomUndirected(100, 250, 80);
  fault::FaultPlan plan(0xD5);
  plan.Add({.site = "mapreduce.reduce.task",
            .kind = fault::FaultKind::kCrash, .max_triggers = 1});
  RunSpec spec = BaseSpec(&g, "mapreduce");
  spec.platform_config.SetBool("mapreduce.checkpointing", true);
  spec.fault_plan = &plan;
  spec.max_attempts = 2;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.validation.ok()) << r.validation.ToString();
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_GE(r.recoveries, 1u) << "map stage was re-executed, not restored";
}

TEST(CheckpointRecoveryTest, FailedCellDoesNotReportThePreviousCellsMetrics) {
  // BFS recovers from one worker crash; every CONN attempt then crashes at
  // its start. The platform still holds BFS's metrics, and the failed CONN
  // row must not inherit them (nor count BFS's recovery a second time).
  Graph g = RandomUndirected(100, 250, 83);
  fault::FaultPlan plan(0xD6);
  plan.Add({.site = "pregel.worker.compute",
            .kind = fault::FaultKind::kCrash, .skip_hits = 8,
            .max_triggers = 1});
  plan.Add({.site = "pregel.run.start", .kind = fault::FaultKind::kCrash,
            .skip_hits = 1});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.algorithms = {AlgorithmKind::kBfs, AlgorithmKind::kConn};
  spec.platform_config.SetInt("giraph.checkpoint_interval", 1);
  spec.fault_plan = &plan;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  const BenchmarkResult& bfs = (*results)[0];
  ASSERT_TRUE(bfs.status.ok()) << bfs.status.ToString();
  EXPECT_EQ(bfs.recoveries, 1u);
  EXPECT_FALSE(bfs.platform_metrics.empty());
  const BenchmarkResult& conn = (*results)[1];
  EXPECT_TRUE(conn.status.IsInternal()) << conn.status.ToString();
  EXPECT_TRUE(conn.platform_metrics.empty());
  EXPECT_EQ(conn.recoveries, 0u);
  EXPECT_EQ(conn.supersteps_replayed, 0u);
}

// ------------------------------------------------------- resumable matrices

TEST(ResumeTest, ResultJsonRoundTrips) {
  BenchmarkResult r;
  r.platform = "giraph";
  r.graph = "toy \"quoted\"\nname";
  r.algorithm = AlgorithmKind::kBfs;
  r.validation = Status::OK();
  r.runtime_seconds = 1.5;
  r.load_seconds = 0.25;
  r.traversed_edges = 1234;
  r.teps = 822.7;
  r.output_checksum = 0xDEADBEEF;
  r.attempts = 2;
  r.timed_out = true;
  r.cancelled = true;
  r.stalled = true;
  r.cancel_reason = "deadline, \"late\"";
  r.cancel_join_seconds = 0.125;
  r.injected_faults = 3;
  r.resumed = true;
  r.recoveries = 1;
  r.supersteps_replayed = 4;
  r.resources.peak_rss_bytes = 1 << 20;
  r.trace_spans = 9;
  r.top_phases = "harness.run:0.500000;pregel.superstep:0.250000";
  r.critical_path_seconds = 0.75;
  r.platform_metrics["supersteps"] = "17";
  r.platform_metrics["odd\"key"] = "value with spaces";

  // Every field the JSON line carries survives the round trip.
  auto parsed = ResultFromJson(ResultToJson(r));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(ResultToJson(*parsed), ResultToJson(r));
  EXPECT_TRUE(parsed->status.ok());
  EXPECT_TRUE(parsed->validation.ok());

  // Failure codes round-trip too (messages intentionally don't).
  r.status = Status::Timeout("cell exceeded budget");
  r.validation = Status::Untested("validation not run");
  parsed = ResultFromJson(ResultToJson(r));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->status.IsTimeout());
  EXPECT_TRUE(parsed->validation.IsUntested());

  EXPECT_FALSE(ResultFromJson("not json at all").ok());
  EXPECT_FALSE(ResultFromJson("{\"platform\":\"x\"}").ok());

  // Only the cell key and the two codes are required: a line written
  // before the other fields existed still resumes, and unknown keys are
  // ignored. A known key holding the wrong type is corruption.
  const std::string minimal =
      R"({"platform":"giraph","graph":"g","algorithm":"BFS",)"
      R"("status":"ok","validation":"ok","future":[1,{"x":null}])";
  parsed = ResultFromJson(minimal + "}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->algorithm, AlgorithmKind::kBfs);
  EXPECT_EQ(parsed->output_checksum, 0u);
  EXPECT_TRUE(parsed->platform_metrics.empty());
  EXPECT_FALSE(ResultFromJson(minimal + R"(,"attempts":"two"})").ok());
  EXPECT_FALSE(ResultFromJson(minimal + R"(,"output_checksum":4294967296})")
                   .ok());
}

TEST(ResumeTest, ResumeReExecutesOnlyUnfinishedCells) {
  Graph g = RandomUndirected(100, 300, 81);
  auto dir = TempDir::Create("gly-resume");
  ASSERT_TRUE(dir.ok());

  RunSpec spec;
  spec.platforms = {"giraph", "reference"};
  spec.datasets.push_back({"toy", &g, {}});
  spec.algorithms = {AlgorithmKind::kBfs, AlgorithmKind::kConn};
  spec.monitor = false;
  spec.journal_path = dir->File("journal.jsonl");

  // Run 1 ("killed" matrix): giraph crashes permanently, so its two cells
  // journal as failures; the reference cells journal as validated.
  fault::FaultPlan plan(0xE1);
  plan.Add({.site = "pregel.run.start", .kind = fault::FaultKind::kCrash});
  spec.fault_plan = &plan;
  auto first = RunBenchmark(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 4u);

  // Run 2: fault gone, resume on. Only the failed giraph cells execute.
  spec.fault_plan = nullptr;
  spec.resume = true;
  size_t executed = 0;
  auto second = RunBenchmark(spec, [&executed](const BenchmarkResult& r) {
    if (!r.resumed) ++executed;
  });
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 4u);
  EXPECT_EQ(executed, 2u);
  for (const BenchmarkResult& r : *second) {
    EXPECT_TRUE(r.status.ok()) << r.platform;
    EXPECT_TRUE(r.validation.ok()) << r.platform;
    EXPECT_EQ(r.resumed, r.platform == "reference") << r.platform;
  }

  // Run 3: everything is journaled clean now — nothing re-executes.
  executed = 0;
  auto third = RunBenchmark(spec, [&executed](const BenchmarkResult& r) {
    if (!r.resumed) ++executed;
  });
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(executed, 0u);
  for (const BenchmarkResult& r : *third) {
    EXPECT_TRUE(r.resumed) << r.platform;
    EXPECT_TRUE(r.status.ok()) << r.platform;
  }

  // Without resume, the journal restarts and the full matrix re-executes.
  spec.resume = false;
  auto fourth = RunBenchmark(spec);
  ASSERT_TRUE(fourth.ok());
  for (const BenchmarkResult& r : *fourth) EXPECT_FALSE(r.resumed);
}

TEST(ResumeTest, FailedValidationIsNotReused) {
  // A cell that ran but validated INVALID (here: message loss corrupted
  // the answer) must be re-executed on resume, not trusted.
  Graph g = RandomUndirected(100, 250, 82);
  auto dir = TempDir::Create("gly-resume");
  ASSERT_TRUE(dir.ok());

  RunSpec spec = BaseSpec(&g, "giraph");
  spec.journal_path = dir->File("journal.jsonl");
  fault::FaultPlan plan(0xE2);
  plan.Add({.site = "pregel.message.deliver",
            .kind = fault::FaultKind::kDrop, .probability = 0.9});
  spec.fault_plan = &plan;
  auto first = RunBenchmark(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first)[0].status.ok());
  ASSERT_TRUE((*first)[0].validation.IsValidationFailed());

  spec.fault_plan = nullptr;
  spec.resume = true;
  auto second = RunBenchmark(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE((*second)[0].resumed);
  EXPECT_TRUE((*second)[0].status.ok());
  EXPECT_TRUE((*second)[0].validation.ok());
}

// ------------------------------------------------ cooperative cancellation

// Live threads of this process (Linux: one /proc/self/task entry each).
size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(CancellationTest, StallWatchdogCancelsSilentCellWithoutWallClockTimeout) {
  Graph g = RandomUndirected(100, 250, 79);
  fault::FaultPlan plan(0xB0);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .delay_seconds = 0.8});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  // No wall-clock timeout at all: only the heartbeat watchdog is armed.
  spec.stall_timeout_s = 0.2;
  metrics::Registry registry;
  spec.metrics = &registry;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.IsTimeout()) << r.status.ToString();
  EXPECT_TRUE(r.cancelled);
  EXPECT_TRUE(r.stalled);
  EXPECT_FALSE(r.timed_out);  // the wall-clock deadline never fired
  EXPECT_EQ(r.cancel_reason, "stall");
  // The stall delay is well inside the grace window, so the attempt was
  // joined, not abandoned.
  EXPECT_LT(r.cancel_join_seconds, spec.cancel_grace_s);
  EXPECT_TRUE(r.validation.IsUntested());
  auto snapshot = registry.Snapshot();
  EXPECT_GE(snapshot.at("harness.cancels").counter, 1u);
  EXPECT_GE(snapshot.at("harness.cancel_joins").counter, 1u);
}

TEST(CancellationTest, CancelledAttemptIsJoinedAndNoThreadOutlivesTheCell) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task unavailable; cannot count threads";
  }
  Graph g = RandomUndirected(100, 250, 80);
  // Warm up lazily-created runtime threads before taking the baseline:
  // TSan spawns a persistent background thread on the first
  // pthread_create of the process, which would otherwise show up as a
  // "leak" the harness never caused.
  std::thread([] {}).join();
  const size_t baseline = ThreadCount();
  fault::FaultPlan plan(0xB1);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .delay_seconds = 0.6});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.cell_timeout_s = 0.15;
  metrics::Registry registry;
  spec.metrics = &registry;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.cancel_reason, "deadline");
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("harness.cancel_joins").counter, 1u);
  // The failure counter is created on first use; a clean join never
  // touches it.
  EXPECT_EQ(snapshot.count("harness.cancel_join_failures"), 0u);
  // The timed-out attempt was cooperatively joined, not detached: the
  // process thread count returns to its pre-run baseline (bounded wait —
  // platform teardown after RunBenchmark returns is not instantaneous).
  Stopwatch watch;
  while (ThreadCount() > baseline && watch.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(ThreadCount(), baseline);
}

TEST(CancellationTest, AttemptPastGraceIsAbandonedAndTheRetryReloads) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task unavailable; cannot count threads";
  }
  Graph g = RandomUndirected(100, 250, 84);
  std::thread([] {}).join();  // see the test above
  const size_t baseline = ThreadCount();
  // The stall (0.6 s) outlasts the deadline plus the grace window (0.15 +
  // 0.3 s), so the first attempt is abandoned and the retry runs on a
  // rebuilt, reloaded platform. It ends inside the post-matrix drain
  // (0.15 + 2 x 0.3 s), so RunBenchmark still joins the abandoned thread
  // through its future before returning.
  fault::FaultPlan plan(0xB3);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .max_triggers = 1,
            .delay_seconds = 0.6});
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.fault_plan = &plan;
  spec.cell_timeout_s = 0.15;
  spec.cancel_grace_s = 0.3;
  spec.max_attempts = 2;
  metrics::Registry registry;
  trace::Tracer tracer;
  spec.metrics = &registry;
  spec.tracer = &tracer;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  const BenchmarkResult& r = (*results)[0];
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.validation.ok()) << r.validation.ToString();
  EXPECT_EQ(r.attempts, 2u);
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("harness.cancel_join_failures").counter, 1u);
  EXPECT_EQ(snapshot.count("harness.cancel_joins"), 0u);
  // The group load and the reload before the retry each open a span.
  size_t load_spans = 0;
  for (const trace::TraceEvent& event : tracer.Snapshot()) {
    if (event.name == "harness.load" && event.phase == 'B') ++load_spans;
  }
  EXPECT_EQ(load_spans, 2u);
  Stopwatch watch;
  while (ThreadCount() > baseline && watch.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(ThreadCount(), baseline);
}

TEST(CancellationTest, HarnessStopCancelsInFlightCellAndSkipsRemainingCells) {
  Graph g = RandomUndirected(100, 250, 81);
  // Giraph (first platform) stalls at every barrier, giving the stop
  // signal a wide window to land mid-cell.
  fault::FaultPlan plan(0xB2);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .delay_seconds = 0.5});
  CancelToken stop;
  RunSpec spec;
  spec.platforms = kFaultablePlatforms;
  spec.datasets.push_back({"toy", &g, {}});
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.monitor = false;
  spec.fault_plan = &plan;
  spec.stop = &stop;  // supervision armed by the stop token alone
  spec.max_attempts = 3;
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.Cancel(CancelReason::kHarnessStop, "user interrupt");
  });
  auto results = RunBenchmark(spec);
  stopper.join();
  ASSERT_TRUE(results.ok());
  // The in-flight giraph cell is recorded as cancelled; the other three
  // platforms are skipped entirely, not recorded as failures.
  ASSERT_EQ(results->size(), 1u);
  const BenchmarkResult& r = (*results)[0];
  EXPECT_EQ(r.platform, "giraph");
  EXPECT_TRUE(r.status.IsCancelled()) << r.status.ToString();
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.cancel_reason, "harness_stop");
  EXPECT_FALSE(r.timed_out);
  // A harness stop is final — the retry policy must not burn attempts.
  EXPECT_EQ(r.attempts, 1u);
}

TEST(CancellationTest, PreArmedStopRunsNothing) {
  Graph g = RandomUndirected(100, 250, 82);
  CancelToken stop;
  stop.Cancel(CancelReason::kHarnessStop, "stopped before start");
  RunSpec spec = BaseSpec(&g, "giraph");
  spec.stop = &stop;
  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

// ----------------------------------------- the full matrix, faults enabled

TEST(RobustnessTest, FullMatrixUnderFaultsCompletesEveryCellThenRunsClean) {
  Graph g = RandomUndirected(100, 300, 78);
  RunSpec spec;
  spec.platforms = {"giraph", "graphx", "mapreduce", "neo4j", "reference"};
  spec.datasets.push_back({"toy", &g, {}});
  spec.algorithms = {AlgorithmKind::kStats, AlgorithmKind::kBfs,
                     AlgorithmKind::kConn};
  spec.monitor = false;
  spec.cell_timeout_s = 1.0;
  spec.max_attempts = 2;
  spec.retry_backoff_s = 0.001;
  // Recovery machinery on: Pregel checkpoints and MapReduce manifests may
  // absorb some injected crashes before the retry policy even sees them.
  spec.platform_config.SetInt("giraph.checkpoint_interval", 2);
  spec.platform_config.SetBool("mapreduce.checkpointing", true);

  // Fixed seed: crashes sprinkled over every site, plus one guaranteed
  // stall at the second pregel barrier that must trip the cell timeout.
  fault::FaultPlan plan(0x5EED);
  plan.Add({.site = "pregel.superstep.barrier",
            .kind = fault::FaultKind::kStall, .skip_hits = 1,
            .max_triggers = 1, .delay_seconds = 3.0});
  plan.Add({.site = "*", .kind = fault::FaultKind::kCrash,
            .probability = 0.01});
  spec.fault_plan = &plan;

  size_t callbacks = 0;
  auto faulty = RunBenchmark(spec, [&callbacks](const BenchmarkResult&) {
    ++callbacks;
  });
  // Every cell is reported — status recorded, no hang, no process abort.
  ASSERT_TRUE(faulty.ok());
  ASSERT_EQ(faulty->size(), 15u);
  EXPECT_EQ(callbacks, 15u);
  for (const BenchmarkResult& r : *faulty) {
    EXPECT_LE(r.attempts, 2u) << r.platform;
    if (r.status.ok()) {
      // Whatever survived the fault storm must still be correct.
      EXPECT_TRUE(r.validation.ok())
          << r.platform << "/" << AlgorithmKindName(r.algorithm) << ": "
          << r.validation.ToString();
    }
  }
  EXPECT_GT(plan.TotalTriggered(), 0u);
  // The deterministic stall fired (the crash rule may add more triggers at
  // the same site), so the timeout path ran.
  EXPECT_GE(plan.TriggeredCount("pregel.superstep.barrier"), 1u);

  // Re-run with faults disabled: the same matrix validates clean.
  spec.fault_plan = nullptr;
  auto clean = RunBenchmark(spec);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->size(), 15u);
  for (const BenchmarkResult& r : *clean) {
    EXPECT_TRUE(r.status.ok())
        << r.platform << "/" << AlgorithmKindName(r.algorithm) << ": "
        << r.status.ToString();
    EXPECT_TRUE(r.validation.ok())
        << r.platform << "/" << AlgorithmKindName(r.algorithm) << ": "
        << r.validation.ToString();
  }
}

#endif  // GLY_DISABLE_FAULT_POINTS

// ------------------------------------------- artifact readers, untrusted

std::string ReadTestData(const std::string& name) {
  std::ifstream in(std::string(GLY_TESTS_DIR) + "/data/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << name;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The journal as LoadJournal reads it: every non-empty line must decode.
Status ReadJournal(const std::string& text) {
  for (const std::string& line : Split(text, '\n')) {
    if (!line.empty()) GLY_RETURN_NOT_OK(ResultFromJson(line).status());
  }
  return Status::OK();
}

// The four artifact readers, each with a committed sample of its input.
struct ArtifactReader {
  const char* fixture;  ///< under tests/data/
  bool jsonl;           ///< one record per line (else one document)
  std::function<Status(const std::string&)> read;
};

const ArtifactReader kReaders[] = {
    {"sample_trace.json", false,
     [](const std::string& text) {
       return trace::ValidateChromeTraceJson(text).status();
     }},
    {"sample_metrics.jsonl", true,
     [](const std::string& text) {
       return metrics::Registry::FromJsonl(text).status();
     }},
    {"sample_profile.json", false,
     [](const std::string& text) {
       return trace::ParseProfileJson(text).status();
     }},
    {"golden/journal.jsonl", true, ReadJournal},
};

// A torn journal line — any strict prefix of one ResultToJson line — must
// be rejected: read back as a cell, --resume would reuse it as finished
// (SealTornJournalTail's contract).
TEST(ResumeTest, EveryStrictPrefixOfAJournalLineIsRejected) {
  BenchmarkResult r;
  r.platform = "graphx";
  r.graph = "snb-1000";
  r.algorithm = AlgorithmKind::kPr;
  r.validation = Status::OK();
  r.runtime_seconds = 12.345678;
  r.load_seconds = 0.5;
  r.traversed_edges = 4096;
  r.teps = 331.8;
  r.output_checksum = 0xDEADBEEF;
  r.attempts = 3;
  r.cancel_reason = "stall";
  r.cancel_join_seconds = 0.25;
  r.injected_faults = 2;
  r.recoveries = 1;
  r.supersteps_replayed = 7;
  r.resources.peak_rss_bytes = 123456789;
  r.trace_spans = 1024;
  r.top_phases = "harness.run:1.5;pregel.superstep:0.9";
  r.critical_path_seconds = 1.75;
  r.platform_metrics["supersteps"] = "17";
  r.platform_metrics["messages"] = "123456";
  std::vector<std::string> lines = {ResultToJson(r)};
  for (const std::string& line :
       Split(ReadTestData("golden/journal.jsonl"), '\n')) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    ASSERT_TRUE(ResultFromJson(line).ok()) << line;
    size_t accepted = 0;
    std::string example;
    for (size_t n = 0; n < line.size(); ++n) {
      if (!ResultFromJson(line.substr(0, n)).ok()) continue;
      if (accepted++ == 0) example = line.substr(0, n);
    }
    EXPECT_EQ(accepted, 0u) << "of " << line.size()
                            << " strict prefixes; e.g. " << example;
  }
}

TEST(ArtifactReaderTest, DeepNestingIsAnErrorInEveryReader) {
  const std::string open = "{\"x\":" + std::string(1000000, '[');
  const std::string closed = open + std::string(1000000, ']') + "}";
  for (const std::string* doc : {&open, &closed}) {
    for (const ArtifactReader& reader : kReaders) {
      EXPECT_TRUE(reader.read(*doc).IsInvalidArgument()) << reader.fixture;
    }
    EXPECT_TRUE(trace::ParseChromeTraceJson(*doc).status().IsInvalidArgument());
  }
}

// Seeded byte mutations (flip, insert, delete, truncate) of every committed
// sample, run through its reader: each mutant yields a value or an error,
// never a crash or a hang. A truncation that cuts into a record must be an
// error — a torn write never reads back as data.
TEST(ArtifactReaderTest, ByteMutationsYieldAValueOrAnError) {
  constexpr int kMutantsPerReader = 400;
  const std::string kInteresting = "{}[]\",:\\-+.eE0123456789 \n\tu";
  for (const ArtifactReader& reader : kReaders) {
    const std::string original = ReadTestData(reader.fixture);
    ASSERT_FALSE(original.empty());
    ASSERT_TRUE(reader.read(original).ok()) << reader.fixture;
    Rng rng(0x5EED);
    size_t accepted = 0;
    for (int i = 0; i < kMutantsPerReader; ++i) {
      std::string mutant = original;
      size_t pos = rng.Next() % mutant.size();
      switch (i % 4) {
        case 0:
          mutant[pos] =
              static_cast<char>(mutant[pos] ^ (1 << (rng.Next() % 8)));
          break;
        case 1:
          mutant.insert(pos, 1,
                        rng.Next() % 2 == 0
                            ? kInteresting[rng.Next() % kInteresting.size()]
                            : static_cast<char>(rng.Next() % 256));
          break;
        case 2:
          mutant.erase(pos, 1);
          break;
        case 3:
          mutant.resize(pos);
          break;
      }
      Status status = reader.read(mutant);
      if (status.ok()) ++accepted;
      if (i % 4 != 3 || pos == 0) continue;
      bool torn = reader.jsonl
                      ? mutant.back() != '\n' && original[pos] != '\n'
                      : !Trim(std::string_view(original).substr(pos)).empty();
      EXPECT_TRUE(!torn || !status.ok())
          << reader.fixture << " cut at byte " << pos << " read back";
    }
    // The sweep reaches past the first byte: some mutants still decode.
    EXPECT_GT(accepted, 0u) << reader.fixture;
  }
}

}  // namespace
}  // namespace gly::harness
