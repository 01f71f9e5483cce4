// AtomicBitset unit tests (the dataflow BFS's visited set) and the graph
// shapes the direction-optimizing BFS must survive: a star that forces a
// bottom-up level, and the Graph::Validate regression cases (empty graphs,
// long isolated tails, self-loops). Dataflow's BFS runs against ref::Bfs.

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "dataflow/algorithms.h"
#include "graph/graph.h"
#include "ref/algorithms.h"

namespace gly {
namespace {

AlgorithmOutput DataflowBfs(const Graph& graph, VertexId source) {
  dataflow::ContextConfig config;
  config.num_partitions = 4;
  config.num_threads = 4;
  AlgorithmParams params;
  params.bfs.source = source;
  auto out = dataflow::RunAlgorithm(config, graph, AlgorithmKind::kBfs, params);
  out.status().Check();
  return std::move(out).ValueOrDie();
}

// ------------------------------------------------------------ AtomicBitset

TEST(AtomicBitsetTest, SetTestAndCount) {
  AtomicBitset bits(130);  // spans three words, last one partial
  EXPECT_EQ(bits.Count(), 0u);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_FALSE(bits.Test(128));
  EXPECT_EQ(bits.Count(), 4u);
  bits.Reset();
  EXPECT_EQ(bits.Count(), 0u);
  EXPECT_FALSE(bits.Test(63));
}

TEST(AtomicBitsetTest, TestAndSetReportsTheWinner) {
  AtomicBitset bits(64);
  EXPECT_TRUE(bits.TestAndSet(17));
  EXPECT_FALSE(bits.TestAndSet(17));
  EXPECT_TRUE(bits.Test(17));
  EXPECT_EQ(bits.Count(), 1u);
}

TEST(AtomicBitsetTest, ConcurrentTestAndSetElectsOneWinnerPerBit) {
  constexpr size_t kBits = 4096;
  constexpr int kThreads = 8;
  AtomicBitset bits(kBits);
  std::vector<uint64_t> wins(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bits, &wins, t] {
      for (size_t i = 0; i < kBits; ++i) {
        if (bits.TestAndSet(i)) ++wins[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bits.Count(), kBits);
  EXPECT_EQ(std::accumulate(wins.begin(), wins.end(), uint64_t{0}), kBits);
}

// ----------------------------------------- star graphs and Graph::Validate

// A star's first BFS level is (n-1)/n of the graph, far past 1/alpha of
// the unexplored edges, so the level runs bottom-up: each leaf stops at
// its one parent, half the probes of the queue BFS.
TEST(FrontierTest, StarGraphForcesDenseAndKernelsAgree) {
  constexpr VertexId kLeaves = 4096;
  EdgeList edges;
  for (VertexId v = 1; v <= kLeaves; ++v) edges.Add(0, v);
  Graph star = GraphBuilder::Undirected(edges).ValueOrDie();
  ASSERT_TRUE(star.Validate().ok());

  AlgorithmOutput naive = ref::Bfs(star, BfsParams{0});
  AlgorithmOutput out = DataflowBfs(star, 0);
  EXPECT_EQ(out.vertex_values, naive.vertex_values);
  EXPECT_EQ(out.traversed_edges, kLeaves);
  EXPECT_EQ(naive.traversed_edges, 2 * kLeaves);
}

TEST(GraphValidateTest, EmptyGraphValidates) {
  Graph g = GraphBuilder::Undirected(EdgeList()).ValueOrDie();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_TRUE(g.Validate().ok());
  // Traversals over the empty graph are total no-ops, not crashes.
  EXPECT_TRUE(DataflowBfs(g, 0).vertex_values.empty());
  EXPECT_TRUE(ref::Bfs(g, BfsParams{}).vertex_values.empty());
}

TEST(GraphValidateTest, TrailingIsolatedVerticesValidate) {
  // num_vertices far beyond the max endpoint id: the adjacency arrays have
  // a long all-empty tail that Validate and the kernels must both accept.
  EdgeList edges(5000);
  edges.Add(0, 1);
  edges.Add(1, 2);
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  ASSERT_EQ(g.num_vertices(), 5000u);
  EXPECT_TRUE(g.Validate().ok());
  AlgorithmOutput out = DataflowBfs(g, 0);
  EXPECT_EQ(out.vertex_values, ref::Bfs(g, BfsParams{0}).vertex_values);
  EXPECT_EQ(out.vertex_values[2], 2);
  for (VertexId v = 3; v < 5000; ++v) {
    ASSERT_EQ(out.vertex_values[v], kUnreachable) << v;
  }
}

TEST(GraphValidateTest, SelfLoopGraphValidatesAndTraverses) {
  EdgeList edges;
  edges.Add(0, 0);
  edges.Add(0, 1);
  edges.Add(2, 2);  // the builder drops loops, leaving vertex 2 isolated
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  EXPECT_TRUE(g.Validate().ok());
  AlgorithmOutput naive = ref::Bfs(g, BfsParams{0});
  AlgorithmOutput diropt = DataflowBfs(g, 0);
  EXPECT_EQ(diropt.vertex_values, naive.vertex_values);
  EXPECT_EQ(diropt.vertex_values[1], 1);
  EXPECT_EQ(diropt.vertex_values[2], kUnreachable);
}

}  // namespace
}  // namespace gly
