// Tests for the Pregel/BSP engine and its algorithm implementations.

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "datagen/rmat.h"
#include "graph/graph.h"
#include "harness/validator.h"
#include "pregel/algorithms.h"
#include "pregel/engine.h"
#include "ref/algorithms.h"

namespace gly::pregel {
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

Engine DefaultEngine() {
  EngineConfig config;
  config.num_workers = 4;
  config.num_threads = 4;
  return Engine(config);
}

// ----------------------------------------------------------------- engine

// A trivial program: every vertex floods its value once, then halts.
struct FloodProgram : VertexProgram<int64_t, int64_t> {
  int64_t Init(const Graph&, VertexId v) override { return v; }
  void Compute(Context& ctx, std::span<const int64_t> messages) override {
    if (ctx.superstep() == 0) ctx.SendToNeighbors(ctx.value());
    for (int64_t m : messages) ctx.value() += m;
    ctx.VoteToHalt();
  }
};

TEST(PregelEngineTest, TerminatesWhenAllHalt) {
  Graph g = RandomUndirected(50, 100, 3);
  FloodProgram program;
  auto run = DefaultEngine().Run(g, &program);
  ASSERT_TRUE(run.ok());
  EXPECT_LE(run->stats.supersteps, 3u);
  EXPECT_GT(run->stats.total_messages, 0u);
}

TEST(PregelEngineTest, StatsArePerSuperstep) {
  Graph g = RandomUndirected(50, 100, 4);
  FloodProgram program;
  auto run = DefaultEngine().Run(g, &program);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stats.per_superstep.size(), run->stats.supersteps);
  EXPECT_EQ(run->stats.per_superstep[0].active_vertices, 50u);
}

TEST(PregelEngineTest, MemoryBudgetFailsRun) {
  Graph g = RandomUndirected(1000, 5000, 5);
  EngineConfig config;
  config.num_workers = 4;
  config.memory_budget_bytes = 1024;  // absurdly small
  Engine engine(config);
  auto result = RunBfs(engine, g, BfsParams{0});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(PregelEngineTest, BalancedPartitioningMatchesHashOutputs) {
  Graph g = RandomUndirected(250, 800, 18);
  AlgorithmParams params;
  params.cd = CdParams{4, 0.05};
  EngineConfig hash_config;
  hash_config.num_workers = 6;
  EngineConfig balanced_config = hash_config;
  balanced_config.partitioning = PartitioningPolicy::kBalanced;
  for (AlgorithmKind kind : {AlgorithmKind::kBfs, AlgorithmKind::kConn,
                             AlgorithmKind::kCd}) {
    auto a = RunAlgorithm(Engine(hash_config), g, kind, params);
    auto b = RunAlgorithm(Engine(balanced_config), g, kind, params);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->vertex_values, b->vertex_values) << AlgorithmKindName(kind);
  }
}

TEST(PregelEngineTest, MaxSuperstepsBoundsRun) {
  // A long path needs ~500 supersteps for CONN; the cap must stop it early.
  EdgeList edges;
  for (VertexId v = 0; v + 1 < 500; ++v) edges.Add(v, v + 1);
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  EngineConfig config;
  config.num_workers = 2;
  config.max_supersteps = 3;
  RunStats stats;
  auto out = RunConn(Engine(config), g, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.supersteps, 3u);
}

// A program exercising all three aggregator kinds: every vertex
// contributes its id once in superstep 0.
struct AggregatingProgram : VertexProgram<int64_t, int64_t> {
  int64_t Init(const Graph&, VertexId v) override { return v; }
  void Compute(Context& ctx, std::span<const int64_t>) override {
    if (ctx.superstep() == 0) {
      double v = static_cast<double>(ctx.vertex());
      ctx.AggregateValue("sum", v);
      ctx.AggregateValue("min", v);
      ctx.AggregateValue("max", v);
      return;  // stay active one more superstep to read the results
    }
    // Superstep 1: aggregates from superstep 0 are visible.
    ctx.value() = static_cast<int64_t>(ctx.GetAggregate("sum"));
    ctx.VoteToHalt();
  }
  void RegisterAggregators(Aggregators* aggregators) const override {
    aggregators->Register("sum", Aggregators::Kind::kSum);
    aggregators->Register("min", Aggregators::Kind::kMin);
    aggregators->Register("max", Aggregators::Kind::kMax);
  }
};

TEST(PregelEngineTest, AggregatorsCombineAcrossWorkers) {
  Graph g = RandomUndirected(100, 200, 15);
  AggregatingProgram program;
  auto run = DefaultEngine().Run(g, &program);
  ASSERT_TRUE(run.ok());
  // Sum of ids 0..99 = 4950, visible to every vertex in superstep 1
  // regardless of which worker aggregated it (the per-worker partials must
  // merge across all 4 workers).
  for (int64_t v : run->values) EXPECT_EQ(v, 4950);
  // Epoch semantics: the caller-facing values are those of the epoch after
  // the final superstep; nothing contributed in superstep 1, so they roll
  // to the identities.
  EXPECT_DOUBLE_EQ(run->aggregators.Get("sum"), 0.0);
  EXPECT_TRUE(std::isinf(run->aggregators.Get("min")));
}

TEST(PregelEngineTest, UnregisteredAggregatorIsDropped) {
  Graph g = RandomUndirected(20, 40, 16);
  struct Rogue : VertexProgram<int64_t, int64_t> {
    int64_t Init(const Graph&, VertexId v) override { return v; }
    void Compute(Context& ctx, std::span<const int64_t>) override {
      ctx.AggregateValue("nope", 1.0);
      ctx.VoteToHalt();
    }
  } program;
  auto run = DefaultEngine().Run(g, &program);
  ASSERT_TRUE(run.ok());
  EXPECT_DOUBLE_EQ(run->aggregators.Get("nope"), 0.0);
}

TEST(PregelEngineTest, BfsFrontierAggregatorSumsToReached) {
  Graph g = RandomUndirected(200, 600, 17);
  // The BFS program aggregates newly discovered vertices per superstep;
  // run stats expose per-superstep values only via the final epoch, so
  // check the invariant against the output instead: final frontier is 0
  // (converged) and distances mark every reached vertex.
  BfsParams params{0};
  auto out = RunBfs(DefaultEngine(), g, params);
  ASSERT_TRUE(out.ok());
  size_t reached = 0;
  for (int64_t d : out->vertex_values) {
    if (d != kUnreachable) ++reached;
  }
  EXPECT_GT(reached, 1u);
}

// ------------------------------------------------------------- algorithms

TEST(PregelAlgorithmsTest, BfsMatchesReference) {
  Graph g = RandomUndirected(300, 900, 7);
  BfsParams params{0};
  auto out = RunBfs(DefaultEngine(), g, params);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kBfs, {params, {}, {}, {}}, *out)
          .ok());
}

TEST(PregelAlgorithmsTest, BfsOnDirectedGraph) {
  EdgeList edges;
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(100));
    VertexId b = static_cast<VertexId>(rng.NextBounded(100));
    if (a != b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  AlgorithmParams params;
  params.bfs.source = 3;
  auto out = RunBfs(DefaultEngine(), g, params.bfs);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kBfs, params, *out).ok());
}

TEST(PregelAlgorithmsTest, ConnMatchesReferenceIncludingDirected) {
  Graph g = RandomUndirected(300, 500, 9);  // several components
  auto out = RunConn(DefaultEngine(), g);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kConn, {}, *out).ok());

  EdgeList directed_edges;
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(150));
    VertexId b = static_cast<VertexId>(rng.NextBounded(150));
    if (a != b) directed_edges.Add(a, b);
  }
  Graph dg = GraphBuilder::Directed(directed_edges).ValueOrDie();
  auto dout = RunConn(DefaultEngine(), dg);
  ASSERT_TRUE(dout.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(dg, AlgorithmKind::kConn, {}, *dout).ok());
}

TEST(PregelAlgorithmsTest, CdMatchesReference) {
  Graph g = RandomUndirected(200, 600, 11);
  AlgorithmParams params;
  params.cd = CdParams{6, 0.05};
  auto out = RunCd(DefaultEngine(), g, params.cd);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kCd, params, *out).ok());
}

TEST(PregelAlgorithmsTest, StatsMatchesReference) {
  Graph g = RandomUndirected(200, 600, 12);
  auto out = RunStatsAlgorithm(DefaultEngine(), g);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kStats, {}, *out).ok());
}

TEST(PregelAlgorithmsTest, EvoMatchesReference) {
  Graph g = RandomUndirected(200, 600, 13);
  AlgorithmParams params;
  params.evo.num_new_vertices = 10;
  auto out = RunEvo(DefaultEngine(), g, params.evo);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kEvo, params, *out).ok());
}

TEST(PregelAlgorithmsTest, DeterministicAcrossWorkerCounts) {
  Graph g = RandomUndirected(300, 900, 14);
  AlgorithmParams params;
  params.cd = CdParams{5, 0.05};
  EngineConfig c1;
  c1.num_workers = 1;
  c1.num_threads = 1;
  EngineConfig c2;
  c2.num_workers = 8;
  c2.num_threads = 8;
  for (AlgorithmKind kind : {AlgorithmKind::kBfs, AlgorithmKind::kConn,
                             AlgorithmKind::kCd}) {
    auto a = RunAlgorithm(Engine(c1), g, kind, params);
    auto b = RunAlgorithm(Engine(c2), g, kind, params);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->vertex_values, b->vertex_values) << AlgorithmKindName(kind);
  }
}

TEST(PregelAlgorithmsTest, CombinerReducesMessages) {
  // The ablation_network experiment's mechanism: the min combiner must
  // reduce delivered messages on a graph with many parallel paths.
  datagen::RmatConfig rmat;
  rmat.scale = 10;
  rmat.edge_factor = 8;
  auto edges = datagen::RmatGenerator(rmat).Generate(nullptr);
  ASSERT_TRUE(edges.ok());
  Graph g = GraphBuilder::Undirected(*edges).ValueOrDie();
  RunStats with;
  RunStats without;
  auto a = RunBfs(DefaultEngine(), g, BfsParams{0}, &with);
  auto b = RunBfsNoCombiner(DefaultEngine(), g, BfsParams{0}, &without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->vertex_values, b->vertex_values);
  EXPECT_LT(with.total_messages, without.total_messages);
  EXPECT_LT(with.total_cross_worker_bytes, without.total_cross_worker_bytes);
}

TEST(PregelEngineTest, DenseDeliveryMatchesSparseBitIdentically) {
  // The dense-frontier fast path folds combined messages engine-side; its
  // outputs must be indistinguishable from classic sparse delivery — for
  // BFS/CONN (integers) and PR (floats, where fold order matters).
  datagen::RmatConfig rmat;
  rmat.scale = 10;
  rmat.edge_factor = 8;
  auto edges = datagen::RmatGenerator(rmat).Generate(nullptr);
  ASSERT_TRUE(edges.ok());
  Graph g = GraphBuilder::Undirected(*edges).ValueOrDie();

  EngineConfig classic;
  classic.num_workers = 4;
  classic.num_threads = 4;
  classic.dense_frontier_threshold = 0.0;  // force sparse delivery
  EngineConfig dense = classic;
  dense.dense_frontier_threshold = 0.01;  // densify almost immediately

  AlgorithmParams params;
  params.pr = PrParams{8, 0.85};
  for (AlgorithmKind kind :
       {AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kPr}) {
    RunStats classic_stats;
    RunStats dense_stats;
    auto a = RunAlgorithm(Engine(classic), g, kind, params, &classic_stats);
    auto b = RunAlgorithm(Engine(dense), g, kind, params, &dense_stats);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->vertex_values, b->vertex_values) << AlgorithmKindName(kind);
    // Bit-identical, not approximately equal: the engine folds combined
    // messages in exactly the sparse push order.
    EXPECT_EQ(a->vertex_scores, b->vertex_scores) << AlgorithmKindName(kind);
    EXPECT_EQ(classic_stats.dense_supersteps, 0u);
    EXPECT_GT(dense_stats.dense_supersteps, 0u) << AlgorithmKindName(kind);
  }
}

TEST(PregelEngineTest, DenseDeliveryRequiresACombiner) {
  // CD registers no combiner (the adoption rule needs the full message
  // multiset), so even an aggressive threshold must keep it sparse.
  Graph g = RandomUndirected(300, 900, 21);
  EngineConfig config;
  config.num_workers = 4;
  config.num_threads = 4;
  config.dense_frontier_threshold = 0.01;
  RunStats stats;
  AlgorithmParams params;
  params.cd = CdParams{5, 0.05};
  auto out = RunAlgorithm(Engine(config), g, AlgorithmKind::kCd, params,
                          &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(stats.dense_supersteps, 0u);
}

TEST(PregelAlgorithmsTest, SkewTraceShowsConvergingTail) {
  // CONN on a long path: later supersteps touch fewer active vertices —
  // the "skewed execution intensity" choke point signature.
  EdgeList edges;
  for (VertexId v = 0; v + 1 < 500; ++v) edges.Add(v, v + 1);
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  RunStats stats;
  auto out = RunConn(DefaultEngine(), g, &stats);
  ASSERT_TRUE(out.ok());
  ASSERT_GT(stats.per_superstep.size(), 3u);
  EXPECT_LT(stats.per_superstep.back().active_vertices,
            stats.per_superstep[1].active_vertices);
}

}  // namespace
}  // namespace gly::pregel
