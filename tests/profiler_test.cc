// Profiling & resource-attribution suite (`ctest -L observability`,
// DESIGN.md §14): the sampling profiler's fold invariant, the SIGPROF
// sampler under real multi-threaded load (TSan-covered via the
// observability label), hardware-counter span attribution with its
// getrusage fallback, critical-path analytics under a FakeClock, the
// profile.json round trip — and the full harness pipeline: a `--profile
// full` BFS+PR matrix across all four engines with an injected
// FakeSampler, whose per-cell profile.json artifacts must obey
// critical-path ≤ cell wall time and folded-count == emitted-sample
// invariants. Also pins the un-gated per-cell trace export under
// `--jobs 4`.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/perf_counters.h"
#include "common/profiler.h"
#include "common/temp_dir.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "common/trace_analysis.h"
#include "datagen/rmat.h"
#include "harness/core.h"

namespace gly {
namespace {

using harness::BenchmarkResult;
using harness::DatasetSpec;
using harness::ProfileMode;
using harness::RunSpec;
using harness::RunBenchmark;

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

uint64_t SumFoldedCounts(const prof::FoldedProfile& folded) {
  uint64_t total = 0;
  for (const auto& [stack, count] : folded.stacks) total += count;
  return total;
}

// ----------------------------------------------------------- fold layer

TEST(ProfilerTest, FoldedCountsMatchEmittedSamples) {
  prof::FakeSampler sampler;
  sampler.AddSample({"main", "RunBenchmark", "Bfs"}, "harness.run", 3);
  sampler.AddSample({"main", "RunBenchmark", "PageRank"}, "harness.run", 2);
  sampler.AddSample({"main", "LoadGraph"}, "harness.load");

  prof::CpuProfiler::Options options;
  options.sampler = &sampler;
  prof::CpuProfiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  prof::FoldedProfile folded = profiler.Collect();
  profiler.Stop();

  // The invariant the acceptance criteria names: everything the sampler
  // emitted is accounted for in the folded counts, nothing lost or forged.
  EXPECT_EQ(folded.samples, sampler.emitted_samples());
  EXPECT_EQ(SumFoldedCounts(folded), sampler.emitted_samples());
  EXPECT_EQ(folded.samples, 6u);
  // Phase label is the outermost frame; frames join root-first.
  EXPECT_EQ(folded.stacks.at("harness.run;main;RunBenchmark;Bfs"), 3u);
  EXPECT_EQ(folded.stacks.at("harness.load;main;LoadGraph"), 1u);
}

TEST(ProfilerTest, FoldSanitizesFoldedSyntaxBreakers) {
  prof::FakeSampler sampler;
  sampler.AddSample({"operator; new", "a b"}, "");
  prof::CpuProfiler::Options options;
  options.sampler = &sampler;
  prof::CpuProfiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  prof::FoldedProfile folded = profiler.Collect();
  profiler.Stop();
  // ';' would split the stack, ' ' would end it before the count.
  ASSERT_EQ(folded.stacks.size(), 1u);
  const std::string& stack = folded.stacks.begin()->first;
  EXPECT_EQ(stack, "operator:_new;a_b");
  std::string folded_text = folded.ToFolded();
  EXPECT_EQ(folded_text, "operator:_new;a_b 1\n");
}

TEST(ProfilerTest, FoldedProfileMergeAccumulates) {
  prof::FoldedProfile a;
  a.stacks["x;y"] = 2;
  a.samples = 2;
  prof::FoldedProfile b;
  b.stacks["x;y"] = 3;
  b.stacks["x;z"] = 1;
  b.samples = 4;
  b.dropped = 5;
  a.Merge(b);
  EXPECT_EQ(a.stacks.at("x;y"), 5u);
  EXPECT_EQ(a.stacks.at("x;z"), 1u);
  EXPECT_EQ(a.samples, 6u);
  EXPECT_EQ(a.dropped, 5u);
  EXPECT_EQ(SumFoldedCounts(a), a.samples);
}

TEST(ProfilerTest, CollectWindowsPartitionTheSampleStream) {
  // Per-cell attribution drains between cells: two Collect() windows see
  // disjoint samples whose counts still sum to the emitted total.
  prof::FakeSampler sampler;
  prof::CpuProfiler::Options options;
  options.sampler = &sampler;
  prof::CpuProfiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  sampler.AddSample({"cell_one"}, "harness.run", 4);
  prof::FoldedProfile first = profiler.Collect();
  sampler.AddSample({"cell_two"}, "harness.run", 2);
  prof::FoldedProfile second = profiler.Collect();
  profiler.Stop();
  EXPECT_EQ(first.samples, 4u);
  EXPECT_EQ(second.samples, 2u);
  EXPECT_EQ(first.samples + second.samples, sampler.emitted_samples());
  EXPECT_EQ(second.stacks.count("harness.run;cell_one"), 0u);
}

// ------------------------------------------------- real SIGPROF sampler

// Burns CPU across threads while the signal sampler runs; TSan covers this
// via the observability label in the CI sanitizer stage. The assertions
// are structural (counts reconcile, frames non-empty) rather than about
// sample volume, which is load- and kernel-dependent.
TEST(ProfilerTest, SignalSamplerStressReconcilesCounts) {
  prof::SignalSampler sampler(/*ring_slots=*/1024);
  Status started = sampler.Start(/*interval_us=*/500);
  ASSERT_TRUE(started.ok()) << started.ToString();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sink{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&] {
      uint64_t local = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        local = local * 2862933555777941757ULL + 3037000493ULL;
        if ((local & 0xfffff) == 0) sink += local;
      }
      sink += local;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  stop.store(true);
  for (std::thread& t : workers) t.join();
  sampler.Stop();

  std::vector<prof::StackSample> samples = sampler.Drain();
  uint64_t drained = 0;
  for (const prof::StackSample& s : samples) {
    drained += s.count;
    EXPECT_FALSE(s.frames.empty());
  }
  EXPECT_EQ(drained, sampler.emitted_samples());
  // After Stop, a second drain finds nothing: the stream was consumed.
  EXPECT_TRUE(sampler.Drain().empty());
  prof::FoldedProfile folded = prof::FoldSamples(samples);
  EXPECT_EQ(folded.samples, sampler.emitted_samples());
  EXPECT_EQ(SumFoldedCounts(folded), folded.samples);
}

TEST(ProfilerTest, SignalSamplerIsProcessWideSingleton) {
  prof::SignalSampler first;
  ASSERT_TRUE(first.Start(2000).ok());
  prof::SignalSampler second;
  EXPECT_FALSE(second.Start(2000).ok());
  first.Stop();
  // The slot frees on Stop: a later sampler may claim it.
  prof::SignalSampler third;
  EXPECT_TRUE(third.Start(2000).ok());
  third.Stop();
}

TEST(ProfilerTest, ProfilePhaseNestsAndRestores) {
  EXPECT_EQ(prof::CurrentProfilePhase(), nullptr);
  {
    prof::ScopedProfilePhase outer("harness.load");
    EXPECT_STREQ(prof::CurrentProfilePhase(), "harness.load");
    {
      prof::ScopedProfilePhase inner("harness.run");
      EXPECT_STREQ(prof::CurrentProfilePhase(), "harness.run");
    }
    EXPECT_STREQ(prof::CurrentProfilePhase(), "harness.load");
  }
  EXPECT_EQ(prof::CurrentProfilePhase(), nullptr);
}

// ------------------------------------------------------ span counters

TEST(PerfCountersTest, OpenNeverFailsAndReadsAdvance) {
  auto counters = perf::PerfCounters::Open();
  ASSERT_NE(counters, nullptr);
  perf::Reading begin = counters->Read();
  // Burn some CPU so task clock (perf) or utime (fallback) advances.
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 0.5;
  perf::Reading end = counters->Read();
  perf::CounterDelta delta = counters->Delta(begin, end);
  EXPECT_EQ(delta.fallback, counters->fallback());
  if (!counters->fallback()) {
    EXPECT_GT(delta.cycles + delta.instructions, 0u);
  }
}

TEST(PerfCountersTest, SpanCountersAttachAttributesToSpanEnd) {
  trace::FakeClock clock(0, 5);
  trace::Tracer tracer(&clock);
  auto counters = perf::PerfCounters::Open();
  {
    trace::ScopedTracer active(&tracer);
    perf::ScopedPerfCounters installed(counters.get());
    trace::TraceSpan span("pregel.superstep", "pregel");
    perf::SpanCounters span_counters(&span);
    volatile uint64_t x = 0;
    for (int i = 0; i < 100000; ++i) x = x + i;
  }
  std::vector<trace::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const trace::TraceEvent& end = events[1];
  ASSERT_EQ(end.phase, 'E');
  bool saw_mode = false;
  bool saw_task_clock = false;
  for (const auto& [key, value] : end.args) {
    if (key == "counters") {
      saw_mode = true;
      EXPECT_TRUE(value == "perf" || value == "fallback") << value;
    }
    if (key == "task_clock_ms") saw_task_clock = true;
  }
  EXPECT_TRUE(saw_mode);
  EXPECT_TRUE(saw_task_clock);
}

TEST(PerfCountersTest, SpanCountersAreFreeWhenNothingInstalled) {
  // No active counters: the span ends with no counter attributes.
  trace::Tracer tracer;
  trace::ScopedTracer active(&tracer);
  {
    trace::TraceSpan span("x", "test");
    perf::SpanCounters span_counters(&span);
  }
  std::vector<trace::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[1].args.empty());
}

// -------------------------------------------------- critical-path math

// Builds a deterministic forest on a FakeClock:
//   root [0, 100ms] with children a [10, 40ms] and b [50, 90ms];
//   b has child c [60, 80ms].
std::vector<trace::TraceEvent> ForestEvents() {
  trace::FakeClock clock(0, 0);
  trace::Tracer tracer(&clock);
  trace::ScopedTracer active(&tracer);
  uint64_t now = 0;
  auto at = [&](uint64_t micros, auto&& fn) {
    clock.Advance(micros - now);
    now = micros;
    fn();
  };
  at(0, [&] { tracer.Begin("root", "t"); });
  at(10000, [&] { tracer.Begin("a", "t"); });
  at(40000, [&] { tracer.End("a", "t"); });
  at(50000, [&] { tracer.Begin("b", "t"); });
  at(60000, [&] { tracer.Begin("c", "t"); });
  at(80000, [&] { tracer.End("c", "t"); });
  at(90000, [&] { tracer.End("b", "t"); });
  at(100000, [&] { tracer.End("root", "t"); });
  return tracer.Snapshot();
}

TEST(TraceAnalysisTest, CriticalPathDescendsLongestChildren) {
  trace::TraceAnalysis analysis = trace::AnalyzeTrace(ForestEvents());
  EXPECT_EQ(analysis.root, "root");
  EXPECT_EQ(analysis.completed_spans, 4u);
  EXPECT_NEAR(analysis.wall_seconds, 0.1, 1e-9);
  // Path: root(self .03) -> b(self .02) -> c(self .02); a is off-path.
  ASSERT_EQ(analysis.critical_path.size(), 3u);
  EXPECT_EQ(analysis.critical_path[0].name, "root");
  EXPECT_EQ(analysis.critical_path[1].name, "b");
  EXPECT_EQ(analysis.critical_path[2].name, "c");
  EXPECT_NEAR(analysis.critical_path[0].self_seconds, 0.03, 1e-9);
  EXPECT_NEAR(analysis.critical_path_seconds, 0.07, 1e-9);
  // The structural guarantee: never exceeds the root span's duration.
  EXPECT_LE(analysis.critical_path_seconds,
            analysis.critical_path[0].span_seconds + 1e-12);
}

TEST(TraceAnalysisTest, NamedRootAndSelfTimeTable) {
  trace::AnalyzeOptions options;
  options.root = "b";
  options.top_k = 2;
  trace::TraceAnalysis analysis = trace::AnalyzeTrace(ForestEvents(), options);
  EXPECT_EQ(analysis.root, "b");
  ASSERT_EQ(analysis.critical_path.size(), 2u);
  EXPECT_NEAR(analysis.critical_path_seconds, 0.04, 1e-9);
  // Self-time table truncates to top_k, descending.
  ASSERT_EQ(analysis.self_time.size(), 2u);
  EXPECT_GE(analysis.self_time[0].self_seconds,
            analysis.self_time[1].self_seconds);
}

TEST(TraceAnalysisTest, TolaratesUnmatchedFragmentsAndEmptyWindows) {
  trace::TraceAnalysis empty = trace::AnalyzeTrace({});
  EXPECT_EQ(empty.completed_spans, 0u);
  EXPECT_EQ(empty.critical_path_seconds, 0.0);

  // A dangling Begin contributes nothing but breaks nothing.
  trace::FakeClock clock(0, 0);
  trace::Tracer tracer(&clock);
  trace::ScopedTracer active(&tracer);
  tracer.Begin("done", "t");
  clock.Advance(4000);
  tracer.End("done", "t");
  clock.Advance(1000);
  tracer.Begin("dangling", "t");  // never closed
  trace::TraceAnalysis analysis = trace::AnalyzeTrace(tracer.Snapshot());
  EXPECT_EQ(analysis.completed_spans, 1u);
  EXPECT_EQ(analysis.root, "done");
}

TEST(TraceAnalysisTest, ProfileJsonRoundTrips) {
  trace::TraceAnalysis analysis = trace::AnalyzeTrace(ForestEvents());
  trace::SamplerSummary sampler;
  sampler.mode = "fake";
  sampler.interval_us = 2000;
  sampler.samples = 6;
  sampler.dropped = 1;
  std::vector<std::string> folded = {"harness.run;main;Bfs 4",
                                     "harness.run;main;Pr 2"};
  std::string json = trace::ProfileJson(analysis, sampler, folded);
  EXPECT_NE(json.find("\"kind\":\"gly.profile\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);

  auto parsed = trace::ParseProfileJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NEAR(parsed->wall_seconds, analysis.wall_seconds, 1e-9);
  EXPECT_NEAR(parsed->critical_path_seconds, analysis.critical_path_seconds,
              1e-9);
  EXPECT_EQ(parsed->root, "root");
  EXPECT_EQ(parsed->completed_spans, 4u);
  ASSERT_EQ(parsed->critical_path.size(), 3u);
  EXPECT_EQ(parsed->critical_path[1].name, "b");
  EXPECT_NEAR(parsed->critical_path[1].self_seconds, 0.02, 1e-9);
  EXPECT_EQ(parsed->sampler.mode, "fake");
  EXPECT_EQ(parsed->sampler.samples, 6u);
  EXPECT_EQ(parsed->sampler.dropped, 1u);
  EXPECT_EQ(parsed->folded, folded);
  EXPECT_FALSE(parsed->workers.empty());
  EXPECT_FALSE(parsed->self_time.empty());

  EXPECT_FALSE(trace::ParseProfileJson("{}").ok());
  EXPECT_FALSE(trace::ParseProfileJson("not json").ok());
}

// Folded lines and span names holding '"' or '\\' come back unescaped.
TEST(TraceAnalysisTest, ProfileJsonRoundTripsEscapes) {
  trace::TraceAnalysis analysis;
  analysis.root = "root \"quoted\"";
  trace::SelfTimeEntry entry;
  entry.name = "ns\\Fn<\"x\">";
  analysis.self_time.push_back(entry);
  std::vector<std::string> folded = {"main;ns\\Fn<\"x\"> 3",
                                     "tab\there;ctl\x01 1"};
  auto parsed = trace::ParseProfileJson(
      trace::ProfileJson(analysis, trace::SamplerSummary{}, folded));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->root, analysis.root);
  ASSERT_EQ(parsed->self_time.size(), 1u);
  EXPECT_EQ(parsed->self_time[0].name, entry.name);
  EXPECT_EQ(parsed->folded, folded);
}

// The reader depends on the JSON, not on ProfileJson's line layout.
TEST(TraceAnalysisTest, ParseProfileJsonReadsAnyLayout) {
  const std::string sample =
      ReadFileOrDie(std::string(GLY_TESTS_DIR) + "/data/sample_profile.json");
  std::string one_line = sample;
  std::erase(one_line, '\n');
  auto want = trace::ParseProfileJson(sample);
  auto got = trace::ParseProfileJson(one_line);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->wall_seconds, want->wall_seconds);
  EXPECT_EQ(got->critical_path_seconds, want->critical_path_seconds);
  EXPECT_EQ(got->root, want->root);
  EXPECT_EQ(got->completed_spans, want->completed_spans);
  ASSERT_EQ(got->critical_path.size(), want->critical_path.size());
  for (size_t i = 0; i < want->critical_path.size(); ++i) {
    EXPECT_EQ(got->critical_path[i].name, want->critical_path[i].name);
    EXPECT_EQ(got->critical_path[i].tid, want->critical_path[i].tid);
    EXPECT_EQ(got->critical_path[i].span_seconds,
              want->critical_path[i].span_seconds);
    EXPECT_EQ(got->critical_path[i].self_seconds,
              want->critical_path[i].self_seconds);
  }
  ASSERT_EQ(got->workers.size(), want->workers.size());
  for (size_t i = 0; i < want->workers.size(); ++i) {
    EXPECT_EQ(got->workers[i].tid, want->workers[i].tid);
    EXPECT_EQ(got->workers[i].busy_seconds, want->workers[i].busy_seconds);
    EXPECT_EQ(got->workers[i].idle_seconds, want->workers[i].idle_seconds);
    EXPECT_EQ(got->workers[i].utilization, want->workers[i].utilization);
  }
  ASSERT_EQ(got->self_time.size(), want->self_time.size());
  for (size_t i = 0; i < want->self_time.size(); ++i) {
    EXPECT_EQ(got->self_time[i].name, want->self_time[i].name);
    EXPECT_EQ(got->self_time[i].self_seconds, want->self_time[i].self_seconds);
    EXPECT_EQ(got->self_time[i].count, want->self_time[i].count);
  }
  EXPECT_EQ(got->sampler.mode, want->sampler.mode);
  EXPECT_EQ(got->sampler.interval_us, want->sampler.interval_us);
  EXPECT_EQ(got->sampler.samples, want->sampler.samples);
  EXPECT_EQ(got->sampler.dropped, want->sampler.dropped);
  EXPECT_EQ(got->folded, want->folded);
  EXPECT_EQ(want->self_time.size(), 10u);  // the sample is fully read
}

// ------------------------------------------------ harness, full profile

Graph Rmat8() {
  datagen::RmatConfig config;
  config.scale = 8;
  config.edge_factor = 8;
  config.seed = 1;
  ThreadPool pool(2);
  EdgeList edges = datagen::RmatGenerator(config).Generate(&pool).ValueOrDie();
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

const std::vector<std::string> kAllPlatforms = {"giraph", "graphx",
                                                "mapreduce", "neo4j"};

RunSpec ProfiledMatrixSpec(const Graph* graph) {
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

TEST(ProfilerHarnessTest, ProfiledMatrixEmitsBoundedProfilesOnEveryEngine) {
  auto dir = TempDir::Create("gly-prof");
  ASSERT_TRUE(dir.ok());
  Graph g = Rmat8();
  RunSpec spec = ProfiledMatrixSpec(&g);
  spec.trace_dir = dir->File("trace");
  prof::FakeSampler sampler;
  sampler.AddSample({"main", "RunBenchmark"}, "harness.run", 5);
  sampler.AddSample({"main", "LoadGraph"}, "harness.load", 2);
  spec.profile.mode = ProfileMode::kFull;
  spec.profile.sampler = &sampler;

  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), kAllPlatforms.size() * 2);

  for (const BenchmarkResult& r : *results) {
    ASSERT_TRUE(r.status.ok()) << r.platform;
    // Every cell computed a critical path bounded by its wall clock.
    EXPECT_GT(r.critical_path_seconds, 0.0) << r.platform;
    EXPECT_LE(r.critical_path_seconds, r.runtime_seconds + r.load_seconds +
                                           1.0)
        << r.platform;

    std::string stem =
        r.platform + "-" + r.graph + "-" + AlgorithmKindName(r.algorithm);
    std::string profile_path = spec.trace_dir + "/profile-" + stem + ".json";
    ASSERT_TRUE(std::filesystem::exists(profile_path)) << profile_path;
    auto profile = trace::ParseProfileJson(ReadFileOrDie(profile_path));
    ASSERT_TRUE(profile.ok()) << profile_path << ": "
                              << profile.status().ToString();
    // The acceptance invariant: critical path through the cell's span
    // forest never exceeds the cell's wall-clock window.
    EXPECT_EQ(profile->root, "harness.cell") << profile_path;
    EXPECT_LE(profile->critical_path_seconds, profile->wall_seconds + 1e-9)
        << profile_path;
    EXPECT_NEAR(profile->critical_path_seconds, r.critical_path_seconds,
                1e-9)
        << profile_path;
    EXPECT_GT(profile->completed_spans, 0u) << profile_path;
    // Folded counts reconcile with the per-cell sampler window.
    uint64_t folded_total = 0;
    for (const std::string& line : profile->folded) {
      size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      folded_total += std::stoull(line.substr(space + 1));
    }
    EXPECT_EQ(folded_total, profile->sampler.samples) << profile_path;

    // The per-cell trace window carries counter-attributed span ends.
    std::string cell_trace =
        ReadFileOrDie(spec.trace_dir + "/trace-" + stem + ".json");
    auto events = trace::ParseChromeTraceJson(cell_trace);
    ASSERT_TRUE(events.ok()) << events.status().ToString();
    size_t counter_spans = 0;
    for (const trace::TraceEvent& e : *events) {
      if (e.phase != 'E') continue;
      for (const auto& [key, value] : e.args) {
        if (key == "counters") {
          ++counter_spans;
          EXPECT_TRUE(value == "perf" || value == "fallback") << e.name;
        }
      }
    }
    EXPECT_GT(counter_spans, 0u) << stem;
  }

  // The injected sampler ran and was torn down.
  EXPECT_FALSE(sampler.started());
  EXPECT_GT(sampler.emitted_samples(), 0u);

  // Run-wide artifacts: profile.json accounts for every emitted sample.
  std::string run_profile_path = spec.trace_dir + "/profile.json";
  ASSERT_TRUE(std::filesystem::exists(run_profile_path));
  auto run_profile = trace::ParseProfileJson(ReadFileOrDie(run_profile_path));
  ASSERT_TRUE(run_profile.ok()) << run_profile.status().ToString();
  EXPECT_EQ(run_profile->sampler.mode, "fake");
  EXPECT_EQ(run_profile->sampler.samples, sampler.emitted_samples());
  EXPECT_LE(run_profile->critical_path_seconds,
            run_profile->wall_seconds + 1e-9);
  uint64_t run_folded_total = 0;
  for (const std::string& line : run_profile->folded) {
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    run_folded_total += std::stoull(line.substr(space + 1));
  }
  EXPECT_EQ(run_folded_total, sampler.emitted_samples());
  EXPECT_TRUE(
      std::filesystem::exists(spec.trace_dir + "/profile.folded"));
}

TEST(ProfilerHarnessTest, CountersModeNeedsNoSamplerAndStillBounds) {
  auto dir = TempDir::Create("gly-prof-counters");
  ASSERT_TRUE(dir.ok());
  Graph g = Rmat8();
  RunSpec spec = ProfiledMatrixSpec(&g);
  spec.platforms = {"giraph"};
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.trace_dir = dir->File("trace");
  spec.profile.mode = ProfileMode::kCounters;

  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_GT(results->front().critical_path_seconds, 0.0);

  std::string profile_path =
      spec.trace_dir + "/profile-giraph-rmat8-BFS.json";
  auto profile = trace::ParseProfileJson(ReadFileOrDie(profile_path));
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->sampler.mode, "off");
  EXPECT_EQ(profile->sampler.samples, 0u);
  EXPECT_TRUE(profile->folded.empty());
  EXPECT_LE(profile->critical_path_seconds, profile->wall_seconds + 1e-9);
}

// --------------------------------------- per-cell traces under --jobs N

TEST(ProfilerHarnessTest, PerCellTracesAreValidUnderConcurrentScheduler) {
  auto dir = TempDir::Create("gly-prof-jobs");
  ASSERT_TRUE(dir.ok());
  Graph g = Rmat8();
  RunSpec spec = ProfiledMatrixSpec(&g);
  spec.trace_dir = dir->File("trace");
  spec.jobs = 4;
  spec.profile.mode = ProfileMode::kCounters;

  auto results = RunBenchmark(spec);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), kAllPlatforms.size() * 2);

  for (const BenchmarkResult& r : *results) {
    ASSERT_TRUE(r.status.ok()) << r.platform;
    std::string stem =
        r.platform + "-" + r.graph + "-" + AlgorithmKindName(r.algorithm);

    // The satellite this pins: per-cell traces are valid with jobs > 1 —
    // each cell's window contains only its own, fully closed spans.
    std::string cell_path = spec.trace_dir + "/trace-" + stem + ".json";
    ASSERT_TRUE(std::filesystem::exists(cell_path)) << cell_path;
    std::string cell_trace = ReadFileOrDie(cell_path);
    auto check = trace::ValidateChromeTraceJson(cell_trace);
    ASSERT_TRUE(check.ok()) << cell_path << ": "
                            << check.status().ToString();
    EXPECT_EQ(check->unmatched_begins, 0u) << cell_path;
    EXPECT_GT(check->completed_spans, 0u) << cell_path;
    // The window is the cell's own: exactly one harness.cell envelope,
    // no spans from any other platform's engine.
    EXPECT_NE(cell_trace.find("\"harness.cell\""), std::string::npos)
        << cell_path;
    if (r.platform == "giraph") {
      EXPECT_EQ(cell_trace.find("\"mapreduce.job\""), std::string::npos)
          << cell_path;
    }
    if (r.platform == "mapreduce") {
      EXPECT_EQ(cell_trace.find("\"pregel.superstep\""), std::string::npos)
          << cell_path;
    }

    // Per-cell critical paths stay exact under the scheduler.
    std::string profile_path = spec.trace_dir + "/profile-" + stem + ".json";
    auto profile = trace::ParseProfileJson(ReadFileOrDie(profile_path));
    ASSERT_TRUE(profile.ok()) << profile_path << ": "
                              << profile.status().ToString();
    EXPECT_LE(profile->critical_path_seconds, profile->wall_seconds + 1e-9)
        << profile_path;
  }

  // The merged run-wide trace stays fully closed too.
  auto run_check =
      trace::ValidateChromeTraceJson(ReadFileOrDie(spec.trace_dir +
                                                   "/trace.json"));
  ASSERT_TRUE(run_check.ok()) << run_check.status().ToString();
  EXPECT_EQ(run_check->unmatched_begins, 0u);
}

}  // namespace
}  // namespace gly
