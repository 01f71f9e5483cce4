// Hot-path golden pins (`ctest -L hotpath`, DESIGN.md §13).
//
// The pooled hot paths — arena outboxes with sender-side combining in
// Pregel, recycled partition buffers and the radix shuffle in dataflow, the
// lock-striped clock page cache in graphdb — replaced per-superstep heap
// containers, per-record appends and a single-mutex cache under an
// exact-equivalence contract: results must be *bit-identical* to what the
// replaced code produced, across thread counts, under injected faults, and
// through mid-superstep cancellation. The replaced code is gone; what it
// produced on this suite's workload is frozen below as golden rows
// (harness::OutputChecksum — the checksum a journal records — plus the
// engine's computation-shape counters), and every test checks the single
// remaining path against them. ci.sh runs the suite under both ASan and
// TSan.
//
// The rows were produced by the heap paths (EngineConfig::num_threads and
// ContextConfig::num_partitions as in each row, everything else default)
// before they were deleted; the graphdb rows by the per-record page-cache
// lookups that page cursors replaced; the MapReduce rows by the per-
// algorithm mapper, reducer and combiner classes that one vertex-program
// shape replaced (spill, shuffle and output byte counts included). A
// mismatch prints the actual row in table syntax; regenerate a row only for
// a deliberate change of results.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/temp_dir.h"
#include "dataflow/algorithms.h"
#include "graphdb/algorithms.h"
#include "graphdb/page_cache.h"
#include "graphdb/store.h"
#include "harness/validator.h"
#include "mapreduce/graph_jobs.h"
#include "pregel/algorithms.h"

namespace gly {
namespace {

// Power-law-ish random graph, big enough for several BFS supersteps and
// real eviction/shuffle pressure, small enough for a TSan run.
Graph TestGraph() {
  static const Graph g = [] {
    const VertexId n = 600;
    EdgeList edges(n);
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
      // Square one endpoint toward low ids to create hubs (skew is what
      // stresses per-worker compute and the combining accumulator).
      VertexId a = static_cast<VertexId>(
          rng.NextBounded(n) * rng.NextBounded(n) / n);
      VertexId b = static_cast<VertexId>(rng.NextBounded(n));
      if (a != b) edges.Add(a, b);
    }
    edges.DeduplicateAndDropLoops();
    return GraphBuilder::Undirected(edges).ValueOrDie();
  }();
  return g;
}

AlgorithmParams TestParams() {
  AlgorithmParams params;
  params.bfs.source = 1;  // a hub under the skewed generator
  params.pr = PrParams{/*iterations=*/8, /*damping=*/0.85};
  params.cd.max_iterations = 6;
  return params;
}

std::string KindEnum(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kBfs: return "AlgorithmKind::kBfs";
    case AlgorithmKind::kConn: return "AlgorithmKind::kConn";
    case AlgorithmKind::kPr: return "AlgorithmKind::kPr";
    case AlgorithmKind::kCd: return "AlgorithmKind::kCd";
    case AlgorithmKind::kStats: return "AlgorithmKind::kStats";
    case AlgorithmKind::kEvo: return "AlgorithmKind::kEvo";
    default: return std::string(AlgorithmKindName(kind));
  }
}

// ------------------------------------------------------------------ Pregel

// One frozen Pregel run: output checksum plus the computation shape (equal
// superstep and message counts mean the combiner emitted the same message
// stream, not just the same answer).
struct PregelRow {
  AlgorithmKind kind;
  uint32_t threads;
  uint32_t checksum;
  uint64_t traversed_edges;
  uint32_t supersteps;
  uint64_t total_messages;
  bool operator==(const PregelRow&) const = default;
};

std::string ToString(const PregelRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{%s, %u, 0x%08xu, %lluu, %u, %lluu}",
                KindEnum(r.kind).c_str(), r.threads, r.checksum,
                static_cast<unsigned long long>(r.traversed_edges),
                r.supersteps,
                static_cast<unsigned long long>(r.total_messages));
  return buf;
}

constexpr PregelRow kPregelGolden[] = {
    {AlgorithmKind::kBfs, 1, 0xd7882d3du, 5443u, 5, 5443u},
    {AlgorithmKind::kBfs, 2, 0xd7882d3du, 5443u, 5, 5443u},
    {AlgorithmKind::kBfs, 8, 0xd7882d3du, 5443u, 5, 5443u},
    {AlgorithmKind::kConn, 1, 0x284d4c20u, 12212u, 5, 12212u},
    {AlgorithmKind::kConn, 2, 0x284d4c20u, 12212u, 5, 12212u},
    {AlgorithmKind::kConn, 8, 0x284d4c20u, 12212u, 5, 12212u},
    {AlgorithmKind::kPr, 1, 0x134d0defu, 31624u, 9, 31624u},
    {AlgorithmKind::kPr, 2, 0x134d0defu, 31624u, 9, 31624u},
    {AlgorithmKind::kPr, 8, 0x134d0defu, 31624u, 9, 31624u},
    {AlgorithmKind::kCd, 1, 0x284d4c20u, 58440u, 7, 58440u},
    {AlgorithmKind::kCd, 2, 0x284d4c20u, 58440u, 7, 58440u},
    {AlgorithmKind::kCd, 8, 0x284d4c20u, 58440u, 7, 58440u},
};

pregel::EngineConfig PregelConfig(uint32_t threads) {
  pregel::EngineConfig config;
  config.num_workers = 8;
  config.num_threads = threads;
  return config;
}

PregelRow RunPregelRow(const pregel::EngineConfig& config, AlgorithmKind kind) {
  PregelRow row{kind, config.num_threads, 0, 0, 0, 0};
  pregel::RunStats stats;
  pregel::Engine engine(config);
  auto out = pregel::RunAlgorithm(engine, TestGraph(), kind, TestParams(),
                                  &stats);
  EXPECT_TRUE(out.ok()) << KindEnum(kind) << ": " << out.status().ToString();
  if (!out.ok()) return row;
  row.checksum = harness::OutputChecksum(*out);
  row.traversed_edges = out->traversed_edges;
  row.supersteps = stats.supersteps;
  row.total_messages = stats.total_messages;
  return row;
}

TEST(PregelHotpathParity, PooledMatchesLegacyAcrossThreadCounts) {
  for (const PregelRow& golden : kPregelGolden) {
    const PregelRow actual =
        RunPregelRow(PregelConfig(golden.threads), golden.kind);
    EXPECT_EQ(actual, golden) << "actual row: " << ToString(actual);
  }
}

// A seeded drop plan at one thread: the i-th hit of pregel.message.deliver
// is the i-th delivered message, so the dropped set — and thus the output
// and the trigger count — pins the exact delivery stream.
struct DropRow {
  AlgorithmKind kind;
  uint32_t checksum;
  uint64_t traversed_edges;
  uint64_t dropped;
  bool operator==(const DropRow&) const = default;
};

std::string ToString(const DropRow& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{%s, 0x%08xu, %lluu, %lluu}",
                KindEnum(r.kind).c_str(), r.checksum,
                static_cast<unsigned long long>(r.traversed_edges),
                static_cast<unsigned long long>(r.dropped));
  return buf;
}

constexpr DropRow kDropGolden[] = {
    {AlgorithmKind::kBfs, 0xde5e5b8du, 4556u, 1492u},
    {AlgorithmKind::kConn, 0x284d4c20u, 9673u, 3189u},
};

TEST(PregelHotpathParity, IdenticalUnderDeterministicMessageDrops) {
  for (const DropRow& golden : kDropGolden) {
    fault::FaultPlan plan(/*seed=*/1234);
    plan.Add({.site = "pregel.message.deliver",
              .kind = fault::FaultKind::kDrop,
              .probability = 0.25});
    fault::ScopedFaultPlan active(&plan);
    pregel::Engine engine(PregelConfig(1));
    auto out = pregel::RunAlgorithm(engine, TestGraph(), golden.kind,
                                    TestParams());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const DropRow actual{golden.kind, harness::OutputChecksum(*out),
                         out->traversed_edges,
                         plan.TriggeredCount("pregel.message.deliver")};
    EXPECT_EQ(actual, golden) << "actual row: " << ToString(actual);
  }
}

TEST(PregelHotpathParity, SameFailureStatusUnderWorkerCrash) {
  // A journal records a failed cell's status: an injected worker crash
  // must surface as Internal at every thread count.
  for (uint32_t threads : {1u, 2u, 8u}) {
    fault::FaultPlan plan(/*seed=*/99);
    plan.Add({.site = "pregel.worker.compute",
              .kind = fault::FaultKind::kCrash,
              .skip_hits = 2,
              .max_triggers = 1});
    fault::ScopedFaultPlan active(&plan);
    pregel::Engine engine(PregelConfig(threads));
    auto out = pregel::RunAlgorithm(engine, TestGraph(), AlgorithmKind::kBfs,
                                    TestParams());
    EXPECT_FALSE(out.ok()) << threads << " threads";
    EXPECT_TRUE(out.status().IsInternal())
        << threads << " threads: " << out.status().ToString();
  }
}

TEST(PregelHotpathParity, MidSuperstepCancellationStopsRun) {
  // A stall injected at a worker's compute fault point holds the run
  // mid-superstep while another thread arms the deadline token; the arenas
  // must not skip a cancellation poll, so the run unwinds with Timeout.
  fault::FaultPlan plan(/*seed=*/5);
  plan.Add({.site = "pregel.worker.compute",
            .kind = fault::FaultKind::kStall,
            .skip_hits = 1,
            .max_triggers = 2,
            .delay_seconds = 0.4});
  fault::ScopedFaultPlan active(&plan);
  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel(CancelReason::kDeadline, "mid-superstep deadline");
  });
  pregel::EngineConfig config = PregelConfig(2);
  config.cancel = &token;
  AlgorithmParams params = TestParams();
  params.cancel = &token;
  pregel::Engine engine(config);
  auto out = pregel::RunAlgorithm(engine, TestGraph(), AlgorithmKind::kPr,
                                  params);
  canceller.join();
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsTimeout()) << out.status().ToString();
}

// Votes every vertex to halt and cancels `token` on the 100th Compute call
// of superstep 0.
class CancelOnHundredthCall
    : public pregel::VertexProgram<uint32_t, uint32_t> {
 public:
  explicit CancelOnHundredthCall(CancelToken* token) : token_(token) {}
  uint32_t Init(const Graph&, VertexId) override { return 0; }
  void Compute(Context& ctx, std::span<const uint32_t>) override {
    if (++calls == 100 && ctx.superstep() == 0) {
      token_->Cancel(CancelReason::kDeadline, "100th compute call");
    }
    ctx.VoteToHalt();
  }
  uint64_t calls = 0;  // one engine thread: no synchronization needed

 private:
  CancelToken* token_;
};

TEST(PregelHotpathParity, CancellationPollsWithinAWorkersVertexList) {
  // One worker on one thread owns all 3 x 4096 + 1 vertices, so only the
  // poll every 4096 vertices of a worker's list stops compute before the
  // list ends.
  const Graph g = GraphBuilder::Undirected(EdgeList(3 * 4096 + 1)).ValueOrDie();
  CancelToken token;
  CancelOnHundredthCall program(&token);
  pregel::EngineConfig config;
  config.num_workers = 1;
  config.num_threads = 1;
  config.cancel = &token;
  auto out = pregel::Engine(config).Run(g, &program);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsTimeout()) << out.status().ToString();
  EXPECT_NE(out.status().message().find(token.ToStatus().message()),
            std::string::npos)
      << out.status().ToString();
  EXPECT_LE(program.calls, 100u + 4096u);
}

// ---------------------------------------------------------------- Dataflow

// One frozen dataflow run. PR's checksum differs by partition count: the
// per-vertex sums fold in partition order, which the partition count sets.
struct DataflowRow {
  AlgorithmKind kind;
  uint32_t partitions;
  uint32_t checksum;
  uint64_t traversed_edges;
  uint64_t datasets_materialized;
  uint64_t shuffle_bytes;
  bool operator==(const DataflowRow&) const = default;
};

std::string ToString(const DataflowRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{%s, %u, 0x%08xu, %lluu, %lluu, %lluu}",
                KindEnum(r.kind).c_str(), r.partitions, r.checksum,
                static_cast<unsigned long long>(r.traversed_edges),
                static_cast<unsigned long long>(r.datasets_materialized),
                static_cast<unsigned long long>(r.shuffle_bytes));
  return buf;
}

constexpr DataflowRow kDataflowGolden[] = {
    {AlgorithmKind::kBfs, 1, 0xd7882d3du, 3189u, 8u, 0u},
    {AlgorithmKind::kBfs, 2, 0xd7882d3du, 3189u, 8u, 0u},
    {AlgorithmKind::kBfs, 8, 0xd7882d3du, 3189u, 8u, 0u},
    {AlgorithmKind::kConn, 1, 0x284d4c20u, 2171u, 27u, 0u},
    {AlgorithmKind::kConn, 2, 0x284d4c20u, 2171u, 27u, 228304u},
    {AlgorithmKind::kConn, 8, 0x284d4c20u, 2171u, 27u, 397584u},
    {AlgorithmKind::kPr, 1, 0xc50b1a93u, 4800u, 42u, 0u},
    {AlgorithmKind::kPr, 2, 0x2bb19a4au, 4800u, 42u, 634880u},
    {AlgorithmKind::kPr, 8, 0x585996c9u, 4800u, 42u, 1104896u},
    {AlgorithmKind::kCd, 1, 0x284d4c20u, 3600u, 32u, 0u},
    {AlgorithmKind::kCd, 2, 0x284d4c20u, 3600u, 32u, 952320u},
    {AlgorithmKind::kCd, 8, 0x284d4c20u, 3600u, 32u, 1657344u},
};

TEST(DataflowHotpathParity, PooledMatchesLegacyAcrossPartitionCounts) {
  for (const DataflowRow& golden : kDataflowGolden) {
    dataflow::ContextConfig config;
    config.num_partitions = golden.partitions;
    config.num_threads = golden.partitions;
    dataflow::ContextStats stats;
    auto out = dataflow::RunAlgorithm(config, TestGraph(), golden.kind,
                                      TestParams(), &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const DataflowRow actual{golden.kind,
                             golden.partitions,
                             harness::OutputChecksum(*out),
                             out->traversed_edges,
                             stats.datasets_materialized,
                             stats.shuffle_bytes};
    EXPECT_EQ(actual, golden) << "actual row: " << ToString(actual);
  }
}

TEST(DataflowHotpathParity, SameFailureStatusUnderShuffleFault) {
  fault::FaultPlan plan(/*seed=*/17);
  plan.Add({.site = "dataflow.shuffle",
            .kind = fault::FaultKind::kIOError,
            .skip_hits = 1,
            .max_triggers = 1});
  fault::ScopedFaultPlan active(&plan);
  dataflow::ContextConfig config;
  config.num_partitions = 4;
  auto out = dataflow::RunAlgorithm(config, TestGraph(), AlgorithmKind::kConn,
                                    TestParams());
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsIOError()) << out.status().ToString();
}

TEST(DataflowHotpathParity, CancellationStopsPooledRuns) {
  AlgorithmParams params = TestParams();
  fault::FaultPlan plan(/*seed=*/5);
  plan.Add({.site = "dataflow.materialize",
            .kind = fault::FaultKind::kStall,
            .skip_hits = 2,
            .max_triggers = 2,
            .delay_seconds = 0.4});
  fault::ScopedFaultPlan active(&plan);
  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel(CancelReason::kDeadline, "dataflow deadline");
  });
  dataflow::ContextConfig config;
  config.num_partitions = 4;
  config.cancel = &token;
  params.cancel = &token;
  auto out = dataflow::RunAlgorithm(config, TestGraph(), AlgorithmKind::kPr,
                                    params);
  canceller.join();
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsTimeout()) << out.status().ToString();
}

// --------------------------------------------------------------- MapReduce

// One frozen MapReduce chain: the output checksum plus the chain's job
// count and disk volumes. Equal byte counts mean every job spilled,
// shuffled and wrote back the same records: the per-iteration rewrite of
// the whole graph state that sets MapReduce's Figure 4 runtimes. PR, STATS
// and EVO checksums differ between 1 and 3 workers: floats fold in merge
// order, and EVO's new edges are read back in part-file order.
struct MapReduceRow {
  AlgorithmKind kind;
  uint32_t workers;
  uint32_t checksum;
  uint64_t traversed_edges;
  uint32_t jobs_run;
  uint64_t spill_bytes;
  uint64_t shuffle_bytes;
  uint64_t output_bytes;
  bool operator==(const MapReduceRow&) const = default;
};

std::string ToString(const MapReduceRow& r) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "{%s, %u, 0x%08xu, %lluu, %u, %lluu, %lluu, %lluu}",
                KindEnum(r.kind).c_str(), r.workers, r.checksum,
                static_cast<unsigned long long>(r.traversed_edges),
                r.jobs_run, static_cast<unsigned long long>(r.spill_bytes),
                static_cast<unsigned long long>(r.shuffle_bytes),
                static_cast<unsigned long long>(r.output_bytes));
  return buf;
}

constexpr MapReduceRow kMapReduceGolden[] = {
    {AlgorithmKind::kBfs, 1, 0xd7882d3du, 9740u, 4, 352056u, 352056u, 244640u},
    {AlgorithmKind::kBfs, 3, 0xd7882d3du, 9740u, 4, 339470u, 339470u, 244640u},
    {AlgorithmKind::kConn, 1, 0x284d4c20u, 28035u, 4, 501870u, 501870u,
     244640u},
    {AlgorithmKind::kConn, 3, 0x284d4c20u, 28035u, 4, 414783u, 414783u,
     244640u},
    {AlgorithmKind::kPr, 1, 0x79117549u, 77920u, 8, 1184352u, 1184352u,
     489280u},
    {AlgorithmKind::kPr, 3, 0xf3da9479u, 77920u, 8, 900993u, 900993u, 489280u},
    {AlgorithmKind::kCd, 1, 0x284d4c20u, 58440u, 6, 2061720u, 2061720u,
     366960u},
    {AlgorithmKind::kCd, 3, 0x284d4c20u, 58440u, 6, 2061720u, 2061720u,
     366960u},
    {AlgorithmKind::kStats, 1, 0x7cd40f4fu, 9740u, 2, 1182865u, 1182865u,
     61189u},
    {AlgorithmKind::kStats, 3, 0x14c54d65u, 9740u, 2, 1182923u, 1182923u,
     61189u},
    {AlgorithmKind::kEvo, 1, 0xd48838d0u, 22u, 1, 638u, 638u, 638u},
    {AlgorithmKind::kEvo, 3, 0x7851d192u, 22u, 1, 638u, 638u, 638u},
};

TEST(MapReduceHotpathParity, ChainsMatchFrozenRows) {
  AlgorithmParams params = TestParams();
  params.evo.num_new_vertices = 16;
  for (const MapReduceRow& golden : kMapReduceGolden) {
    auto dir = TempDir::Create("gly-hotpath-mr");
    ASSERT_TRUE(dir.ok());
    // A 64 KiB sort buffer spills several runs per (mapper, reducer) pair,
    // so every spill also runs the combiner.
    mapreduce::PlatformConfig config;
    config.job.num_mappers = golden.workers;
    config.job.num_reducers = golden.workers;
    config.job.sort_buffer_bytes = 64 << 10;
    config.job.scratch_dir = dir->path() + "/scratch";
    config.work_dir = dir->path() + "/work";
    mapreduce::ChainStats stats;
    auto out = mapreduce::RunAlgorithm(config, TestGraph(), golden.kind,
                                       params, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const MapReduceRow actual{golden.kind,
                              golden.workers,
                              harness::OutputChecksum(*out),
                              out->traversed_edges,
                              stats.jobs_run,
                              stats.total_spill_bytes,
                              stats.total_shuffle_bytes,
                              stats.total_output_bytes};
    EXPECT_EQ(actual, golden) << "actual row: " << ToString(actual);
  }
}

// ----------------------------------------------------------------- Graphdb

// Opens a store under `dir` with a `cache_bytes` page cache and
// bulk-imports TestGraph() into it.
std::unique_ptr<graphdb::GraphStore> ImportedStore(const TempDir& dir,
                                                   uint64_t cache_bytes) {
  graphdb::StoreConfig config;
  config.directory = dir.path() + "/store";
  config.page_cache_bytes = cache_bytes;
  auto store = graphdb::GraphStore::Open(config).ValueOrDie();
  GLY_CHECK_OK(store->BulkImport(TestGraph().ToEdgeList()));
  return store;
}

// A 64 KiB cache is 8 pages in 8 one-frame shards: far below the ~160 KiB
// store, so walks keep evicting.
constexpr uint64_t kSmallCache = 64 << 10;

TEST(GraphdbHotpathParity, ShardCountDoesNotChangeResults) {
  // The 8-shard cache runs under real eviction pressure; the golden
  // checksum was produced by the single-mutex (1-shard) cache on the same
  // store.
  constexpr uint32_t kGoldenChecksum = 0xd7882d3du;
  const Graph g = TestGraph();
  auto dir = TempDir::Create("gly-hotpath-db");
  ASSERT_TRUE(dir.ok());
  auto store = ImportedStore(*dir, kSmallCache);
  graphdb::DbRunStats stats;
  auto out = graphdb::RunAlgorithmOnStore(store.get(), g.undirected(),
                                          /*memory_budget_bytes=*/0,
                                          AlgorithmKind::kBfs, TestParams(),
                                          &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(harness::OutputChecksum(*out), kGoldenChecksum);
  EXPECT_EQ(out->traversed_edges, 9740u);
  EXPECT_GT(stats.cache.evictions, 0u);
}

// Cumulative page-cache counters of one store.
struct CacheCounts {
  uint64_t hits;
  uint64_t misses;
  uint64_t evictions;
  uint64_t writebacks;
  bool operator==(const CacheCounts&) const = default;
};

CacheCounts CountsOf(const graphdb::PageCacheStats& stats) {
  return {stats.hits, stats.misses, stats.evictions, stats.writebacks};
}

// One frozen graph-database run on a freshly imported store: the output,
// and the cache counters after BulkImport and after the run. Equal counters
// mean every record access still costs exactly one hit or one miss and the
// clock evicts and writes back the same frames, whatever a cursor holds.
struct GraphdbRow {
  AlgorithmKind kind;
  uint64_t cache_kib;
  uint32_t checksum;
  uint64_t traversed_edges;
  CacheCounts after_import;
  CacheCounts after_run;
  bool operator==(const GraphdbRow&) const = default;
};

std::string ToString(const CacheCounts& c) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{%lluu, %lluu, %lluu, %lluu}",
                static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses),
                static_cast<unsigned long long>(c.evictions),
                static_cast<unsigned long long>(c.writebacks));
  return buf;
}

std::string ToString(const GraphdbRow& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "{%s, %lluu, 0x%08xu, %lluu, %s, %s}",
                KindEnum(r.kind).c_str(),
                static_cast<unsigned long long>(r.cache_kib), r.checksum,
                static_cast<unsigned long long>(r.traversed_edges),
                ToString(r.after_import).c_str(),
                ToString(r.after_run).c_str());
  return buf;
}

// 64 KiB rows run under eviction pressure; 65536 KiB is StoreConfig's
// default cache, which holds the whole store.
constexpr GraphdbRow kGraphdbGolden[] = {
    {AlgorithmKind::kBfs, 64u, 0xd7882d3du, 9740u,
     {5448u, 24u, 16u, 23u}, {12463u, 3349u, 3341u, 23u}},
    {AlgorithmKind::kConn, 64u, 0x284d4c20u, 9740u,
     {5448u, 24u, 16u, 23u}, {12495u, 3317u, 3309u, 23u}},
    {AlgorithmKind::kPr, 64u, 0xc50b1a93u, 77920u,
     {5448u, 24u, 16u, 23u}, {70262u, 28270u, 28262u, 23u}},
    {AlgorithmKind::kCd, 64u, 0x284d4c20u, 58440u,
     {5448u, 24u, 16u, 23u}, {48656u, 18856u, 18848u, 23u}},
    {AlgorithmKind::kStats, 64u, 0x7cd40f4fu, 219544u,
     {5448u, 24u, 16u, 23u}, {183573u, 51783u, 51775u, 23u}},
    {AlgorithmKind::kEvo, 64u, 0xd48838d0u, 72u,
     {5448u, 24u, 16u, 23u}, {5495u, 54u, 46u, 23u}},
    {AlgorithmKind::kBfs, 65536u, 0xd7882d3du, 9740u,
     {5449u, 23u, 0u, 23u}, {15789u, 23u, 0u, 23u}},
    {AlgorithmKind::kConn, 65536u, 0x284d4c20u, 9740u,
     {5449u, 23u, 0u, 23u}, {15789u, 23u, 0u, 23u}},
    {AlgorithmKind::kPr, 65536u, 0xc50b1a93u, 77920u,
     {5449u, 23u, 0u, 23u}, {98509u, 23u, 0u, 23u}},
    {AlgorithmKind::kCd, 65536u, 0x284d4c20u, 58440u,
     {5449u, 23u, 0u, 23u}, {67489u, 23u, 0u, 23u}},
    {AlgorithmKind::kStats, 65536u, 0x7cd40f4fu, 219544u,
     {5449u, 23u, 0u, 23u}, {235333u, 23u, 0u, 23u}},
    {AlgorithmKind::kEvo, 65536u, 0xd48838d0u, 72u,
     {5449u, 23u, 0u, 23u}, {5526u, 23u, 0u, 23u}},
};

TEST(GraphdbHotpathParity, CursorsMatchPerRecordLookups) {
  const Graph g = TestGraph();
  for (const GraphdbRow& golden : kGraphdbGolden) {
    auto dir = TempDir::Create("gly-hotpath-db");
    ASSERT_TRUE(dir.ok());
    auto store = ImportedStore(*dir, golden.cache_kib << 10);
    GraphdbRow actual{golden.kind, golden.cache_kib, 0, 0,
                      CountsOf(store->cache_stats()), {}};
    auto out = graphdb::RunAlgorithmOnStore(store.get(), g.undirected(),
                                            /*memory_budget_bytes=*/0,
                                            golden.kind, TestParams());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    actual.checksum = harness::OutputChecksum(*out);
    actual.traversed_edges = out->traversed_edges;
    actual.after_run = CountsOf(store->cache_stats());
    EXPECT_EQ(actual, golden) << "actual row: " << ToString(actual);
  }
}

TEST(GraphdbHotpathParity, FailedReadDuringEvoIsAStatus) {
  // EVO's burn reads neighbourhoods through a callback; a read failure
  // inside it must come back as the run's Status (a failed cell), not
  // abort the process.
  auto dir = TempDir::Create("gly-hotpath-db");
  ASSERT_TRUE(dir.ok());
  auto store = ImportedStore(*dir, kSmallCache);
  fault::FaultPlan plan(/*seed=*/1);
  plan.Add({.site = "graphdb.pagecache.read",
            .kind = fault::FaultKind::kCrash,
            .max_triggers = 1});
  fault::ScopedFaultPlan active(&plan);
  auto out = graphdb::RunAlgorithmOnStore(store.get(), /*undirected=*/true,
                                          /*memory_budget_bytes=*/0,
                                          AlgorithmKind::kEvo, TestParams());
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInternal()) << out.status().ToString();
  EXPECT_EQ(plan.TriggeredCount("graphdb.pagecache.read"), 1u);
}

// Runs `fn` on a helper thread and waits for it. A shard lock left held
// would block `fn` for ever; aborting with a message turns that deadlock
// into a failure instead of a hung suite.
void MustFinish(const char* what, const std::function<void()>& fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread helper([&] {
    fn();
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "%s did not return: a shard lock was left held\n",
                 what);
    std::abort();
  }
  helper.join();
}

// A node's chain-walk result in ascending order, as the CSR lists it.
Result<std::vector<VertexId>> SortedNeighbors(graphdb::GraphStore& store,
                                              VertexId v) {
  std::vector<VertexId> nbrs;
  GLY_RETURN_NOT_OK(store.CollectNeighbors(v, /*outgoing_only=*/false, &nbrs));
  std::sort(nbrs.begin(), nbrs.end());
  return nbrs;
}

std::vector<VertexId> CsrNeighbors(const Graph& g, VertexId v) {
  auto span = g.OutNeighbors(v);
  return {span.begin(), span.end()};
}

TEST(PageCursorHotpath, ConcurrentChainWalksMatchCsr) {
  // 8 threads walk every node's chain, each through its own cursors, on
  // one store whose cache is far below the store: cursors keep crossing
  // shards while other threads evict frames under them.
  const Graph g = TestGraph();
  const VertexId n = g.num_vertices();
  auto dir = TempDir::Create("gly-hotpath-cursor");
  ASSERT_TRUE(dir.ok());
  auto store = ImportedStore(*dir, kSmallCache);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> walkers;
  for (uint32_t t = 0; t < 8; ++t) {
    walkers.emplace_back([&, t] {
      for (VertexId i = 0; i < n; ++i) {
        const VertexId v = (i + t * (n / 8)) % n;  // staggered starts
        auto nbrs = SortedNeighbors(*store, v);
        if (!nbrs.ok() || *nbrs != CsrNeighbors(g, v)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& w : walkers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(store->cache_stats().evictions, 0u);
}

TEST(PageCursorHotpath, FailedSeekHoldsNoLock) {
  // One shard, so every page shares the lock a failed cursor could leak.
  auto dir = TempDir::Create("gly-hotpath-cursor");
  ASSERT_TRUE(dir.ok());
  graphdb::PageCache cache(2 * graphdb::kPageSize, /*shards=*/1);
  auto file = cache.OpenFile(dir->File("cursor.db"));
  ASSERT_TRUE(file.ok());
  for (uint64_t p = 0; p < 4; ++p) {
    const uint64_t value = p * 7;
    ASSERT_TRUE(
        cache.Write(*file, p * graphdb::kPageSize, &value, sizeof(value))
            .ok());
  }
  ASSERT_TRUE(cache.Flush().ok());  // pages 2 and 3 stay resident
  graphdb::PageCache::Cursor cursor(cache);
  uint64_t value = 0;
  ASSERT_TRUE(
      cursor.Read(*file, 3 * graphdb::kPageSize, &value, sizeof(value)).ok());
  EXPECT_TRUE(cursor.holds_page());
  {
    fault::FaultPlan plan(/*seed=*/3);
    plan.Add({.site = "graphdb.pagecache.read",
              .kind = fault::FaultKind::kCrash,
              .max_triggers = 1});
    fault::ScopedFaultPlan active(&plan);
    const Status s = cursor.Read(*file, 0, &value, sizeof(value));  // miss
    EXPECT_TRUE(s.IsInternal()) << s.ToString();
    EXPECT_EQ(plan.TriggeredCount("graphdb.pagecache.read"), 1u);
  }
  EXPECT_FALSE(cursor.holds_page());
  // With the failed cursor still alive, another thread reads the page that
  // failed and flushes the whole cache.
  MustFinish("Read and Flush after a failed Seek", [&] {
    uint64_t page0 = 1;
    EXPECT_TRUE(cache.Read(*file, 0, &page0, sizeof(page0)).ok());
    EXPECT_EQ(page0, 0u);
    EXPECT_TRUE(cache.Flush().ok());
  });
  // The failed cursor itself is usable again.
  ASSERT_TRUE(
      cursor.Read(*file, graphdb::kPageSize, &value, sizeof(value)).ok());
  EXPECT_EQ(value, 7u);
}

TEST(PageCursorHotpath, StoreRecoversFromAFailedChainWalk) {
  // Node 1 is a hub whose chain spans most relationship pages, so walking
  // it through the 8-page cache misses; the first miss fails.
  const Graph g = TestGraph();
  auto dir = TempDir::Create("gly-hotpath-cursor");
  ASSERT_TRUE(dir.ok());
  auto store = ImportedStore(*dir, kSmallCache);
  fault::FaultPlan plan(/*seed=*/4);
  plan.Add({.site = "graphdb.pagecache.read",
            .kind = fault::FaultKind::kCrash,
            .max_triggers = 1});
  fault::ScopedFaultPlan active(&plan);
  const Status failed = SortedNeighbors(*store, 1).status();
  EXPECT_TRUE(failed.IsInternal()) << failed.ToString();
  ASSERT_EQ(plan.TriggeredCount("graphdb.pagecache.read"), 1u);
  // The same walk crosses the shard whose lookup failed.
  MustFinish("CollectNeighbors and Checkpoint after a failed walk", [&] {
    auto again = SortedNeighbors(*store, 1);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(*again, CsrNeighbors(g, 1));
    EXPECT_TRUE(store->Checkpoint().ok());
  });
}

TEST(PageCursorHotpath, CancelledImportLeavesNoShardLocked) {
  // A stall on the import's third page fault holds BulkImport mid-loop
  // while another thread arms the token; the import returns at its next
  // poll (record 4096), and its cursor must have let go of every shard.
  auto dir = TempDir::Create("gly-hotpath-cursor");
  ASSERT_TRUE(dir.ok());
  graphdb::StoreConfig config;
  config.directory = dir->path() + "/store";
  config.page_cache_bytes = kSmallCache;
  auto store = graphdb::GraphStore::Open(config);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  fault::FaultPlan plan(/*seed=*/5);
  plan.Add({.site = "graphdb.pagecache.read",
            .kind = fault::FaultKind::kStall,
            .skip_hits = 2,
            .max_triggers = 1,
            .delay_seconds = 0.4});
  fault::ScopedFaultPlan active(&plan);
  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel(CancelReason::kDeadline, "import deadline");
  });
  const Status s = (*store)->BulkImport(TestGraph().ToEdgeList(), &token);
  canceller.join();
  EXPECT_TRUE(s.IsTimeout()) << s.ToString();
  EXPECT_EQ(plan.TriggeredCount("graphdb.pagecache.read"), 1u);
  // stats() and Checkpoint's Flush lock every shard in turn.
  MustFinish("stats and Checkpoint after a cancelled import", [&] {
    EXPECT_GT((*store)->cache_stats().misses, 3u);
    EXPECT_TRUE((*store)->Checkpoint().ok());
  });
}

TEST(PageCacheHotpath, ConcurrentReadersSeeConsistentPages) {
  // 8 reader threads hammer a cache whose capacity (16 pages) is far below
  // the 64-page working set, so the clock sweep runs concurrently with the
  // lookups. Every page carries a seeded pattern; any torn read, lost
  // writeback, or cross-shard aliasing surfaces as a payload mismatch (and
  // under TSan, as a race).
  auto dir = TempDir::Create("gly-hotpath-cache");
  ASSERT_TRUE(dir.ok());
  constexpr uint32_t kPages = 64;
  auto fill = [](uint32_t page, char* buf) {
    Rng rng(1000 + page);
    for (size_t i = 0; i < graphdb::kPageSize; ++i) {
      buf[i] = static_cast<char>(rng.NextBounded(256));
    }
  };
  graphdb::PageCache cache(16 * graphdb::kPageSize, /*shards=*/8);
  EXPECT_EQ(cache.shard_count(), 8u);
  auto file = cache.OpenFile(dir->File("hammer.db"));
  ASSERT_TRUE(file.ok());
  std::vector<char> page(graphdb::kPageSize);
  for (uint32_t p = 0; p < kPages; ++p) {
    fill(p, page.data());
    ASSERT_TRUE(cache
                    .Write(*file, uint64_t{p} * graphdb::kPageSize,
                           page.data(), page.size())
                    .ok());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t);
      std::vector<char> got(graphdb::kPageSize);
      std::vector<char> want(graphdb::kPageSize);
      for (int i = 0; i < 400; ++i) {
        const uint32_t p = static_cast<uint32_t>(rng.NextBounded(kPages));
        if (!cache.Read(*file, uint64_t{p} * graphdb::kPageSize, got.data(),
                        got.size())
                 .ok() ||
            (fill(p, want.data()), got != want)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  const graphdb::PageCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);  // working set really exceeded capacity
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(cache.resident_pages(), cache.capacity_pages());
  // After the dust settles the file must hold every pattern byte-for-byte.
  ASSERT_TRUE(cache.Flush().ok());
  std::vector<char> want(graphdb::kPageSize);
  for (uint32_t p = 0; p < kPages; ++p) {
    fill(p, want.data());
    ASSERT_TRUE(cache
                    .Read(*file, uint64_t{p} * graphdb::kPageSize, page.data(),
                          page.size())
                    .ok());
    EXPECT_EQ(page, want) << "page " << p;
  }
}

TEST(PageCacheHotpath, ShardCountClampsToCapacity) {
  // An explicit shard count never exceeds the page budget (every shard
  // owns at least one frame) and 0 selects the auto policy.
  graphdb::PageCache tiny(4 * graphdb::kPageSize, /*shards=*/16);
  EXPECT_LE(tiny.shard_count(), 4u);
  EXPECT_GE(tiny.shard_count(), 1u);
  graphdb::PageCache auto_cache(64 * graphdb::kPageSize);
  EXPECT_EQ(auto_cache.shard_count(), 8u);
  graphdb::PageCache one_page(1);  // rounds up to one page, one shard
  EXPECT_EQ(one_page.shard_count(), 1u);
  EXPECT_EQ(one_page.capacity_pages(), 1u);
}

}  // namespace
}  // namespace gly
