// Unit tests for the reference algorithm implementations — the gold
// standard every platform is validated against.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "ref/algorithms.h"

namespace gly {
namespace {

Graph MakeUndirected(std::initializer_list<std::pair<VertexId, VertexId>> es,
                     VertexId n = 0) {
  EdgeList edges(n);
  for (auto [a, b] : es) edges.Add(a, b);
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

TEST(AlgorithmKindTest, ParseAndName) {
  EXPECT_EQ(*ParseAlgorithmKind("bfs"), AlgorithmKind::kBfs);
  EXPECT_EQ(*ParseAlgorithmKind("STATS"), AlgorithmKind::kStats);
  EXPECT_EQ(*ParseAlgorithmKind("Conn"), AlgorithmKind::kConn);
  EXPECT_FALSE(ParseAlgorithmKind("pagerank").ok());
  EXPECT_EQ(AlgorithmKindName(AlgorithmKind::kEvo), "EVO");
}

// -------------------------------------------------------------------- BFS

TEST(RefBfsTest, PathGraphDistances) {
  Graph g = MakeUndirected({{0, 1}, {1, 2}, {2, 3}});
  auto out = ref::Bfs(g, BfsParams{0});
  EXPECT_EQ(out.vertex_values, (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_GT(out.traversed_edges, 0u);
}

TEST(RefBfsTest, DisconnectedIsUnreachable) {
  Graph g = MakeUndirected({{0, 1}, {2, 3}});
  auto out = ref::Bfs(g, BfsParams{0});
  EXPECT_EQ(out.vertex_values[2], kUnreachable);
  EXPECT_EQ(out.vertex_values[3], kUnreachable);
}

TEST(RefBfsTest, DirectedRespectsOrientation) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(2, 0);
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  auto out = ref::Bfs(g, BfsParams{1});
  EXPECT_EQ(out.vertex_values[1], 0);
  EXPECT_EQ(out.vertex_values[2], 1);
  EXPECT_EQ(out.vertex_values[0], 2);
}

TEST(RefBfsTest, SourceOutOfRangeYieldsAllUnreachable) {
  Graph g = MakeUndirected({{0, 1}});
  auto out = ref::Bfs(g, BfsParams{99});
  for (int64_t v : out.vertex_values) EXPECT_EQ(v, kUnreachable);
}

// ------------------------------------------------- BFS direction policy

TEST(BfsDirectionPolicyTest, HysteresisSwitchesAndSnapsBack) {
  BfsDirectionPolicy policy(/*num_vertices=*/1000);
  // Small frontier relative to unexplored edges: stay top-down.
  EXPECT_FALSE(policy.UseBottomUp(10, 50, 10000));
  // Frontier degree crosses unexplored/alpha: switch bottom-up.
  EXPECT_TRUE(policy.UseBottomUp(200, 2000, 10000));
  // Hysteresis: stays bottom-up while the frontier is still wide.
  EXPECT_TRUE(policy.UseBottomUp(500, 100, 8000));
  // Frontier shrinks below n/beta vertices: snap back top-down.
  EXPECT_FALSE(policy.UseBottomUp(50, 100, 8000));

  // GAP's thresholds exactly. alpha = 15: 1000 frontier edges against
  // 15000 unexplored is not yet past 1/alpha, 1001 is. beta = 18: 100 of
  // 1800 vertices is not below n/beta, 99 is.
  BfsDirectionPolicy edge(/*num_vertices=*/1800);
  EXPECT_FALSE(edge.UseBottomUp(1, 1000, 15000));
  EXPECT_TRUE(edge.UseBottomUp(1, 1001, 15000));
  EXPECT_TRUE(edge.UseBottomUp(100, 0, 0));
  EXPECT_FALSE(edge.UseBottomUp(99, 0, 0));
}

// ------------------------------------------------------------------- CONN

TEST(RefConnTest, TwoComponents) {
  Graph g = MakeUndirected({{0, 1}, {1, 2}, {3, 4}});
  auto out = ref::Conn(g);
  EXPECT_EQ(out.vertex_values, (std::vector<int64_t>{0, 0, 0, 3, 3}));
}

TEST(RefConnTest, IsolatedVerticesAreOwnComponents) {
  Graph g = MakeUndirected({{0, 1}}, /*n=*/4);
  auto out = ref::Conn(g);
  EXPECT_EQ(out.vertex_values[2], 2);
  EXPECT_EQ(out.vertex_values[3], 3);
}

TEST(RefConnTest, DirectedUsesWeakConnectivity) {
  EdgeList edges;
  edges.Add(1, 0);  // only in-edge into 0
  edges.Add(1, 2);
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  auto out = ref::Conn(g);
  EXPECT_EQ(out.vertex_values, (std::vector<int64_t>{0, 0, 0}));
}

// --------------------------------------------------------------------- CD

TEST(RefCdTest, TwoCliquesSeparate) {
  // Two 4-cliques joined by one bridge edge: LPA should give each clique
  // one dominant label, and the labels should differ.
  EdgeList edges;
  for (VertexId a = 0; a < 4; ++a) {
    for (VertexId b = a + 1; b < 4; ++b) edges.Add(a, b);
  }
  for (VertexId a = 4; a < 8; ++a) {
    for (VertexId b = a + 1; b < 8; ++b) edges.Add(a, b);
  }
  edges.Add(3, 4);
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  auto out = ref::Cd(g, CdParams{10, 0.05});
  std::set<int64_t> left(out.vertex_values.begin(),
                         out.vertex_values.begin() + 4);
  std::set<int64_t> right(out.vertex_values.begin() + 4,
                          out.vertex_values.end());
  EXPECT_EQ(left.size(), 1u) << "left clique not converged";
  EXPECT_EQ(right.size(), 1u) << "right clique not converged";
  EXPECT_NE(*left.begin(), *right.begin());
}

TEST(RefCdTest, ZeroIterationsKeepsInitialLabels) {
  Graph g = MakeUndirected({{0, 1}, {1, 2}});
  auto out = ref::Cd(g, CdParams{0, 0.05});
  EXPECT_EQ(out.vertex_values, (std::vector<int64_t>{0, 1, 2}));
}

TEST(RefCdTest, DeterministicAcrossRuns) {
  EdgeList edges;
  Rng rng(61);
  for (int i = 0; i < 300; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(60));
    VertexId b = static_cast<VertexId>(rng.NextBounded(60));
    if (a != b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  auto a = ref::Cd(g, CdParams{8, 0.05});
  auto b = ref::Cd(g, CdParams{8, 0.05});
  EXPECT_EQ(a.vertex_values, b.vertex_values);
}

TEST(CdAdoptLabelTest, PicksHighestScoreSum) {
  std::vector<LabelScore> incoming = {
      {1, 0.5}, {1, 0.4}, {2, 0.8}};
  LabelScore adopted = CdAdoptLabel(incoming, 0.05);
  EXPECT_EQ(adopted.label, 1);                 // 0.9 > 0.8
  EXPECT_NEAR(adopted.score, 0.45, 1e-12);     // max(0.5) - 0.05
}

TEST(CdAdoptLabelTest, TieBreaksToSmallerLabel) {
  std::vector<LabelScore> incoming = {{5, 1.0}, {3, 1.0}};
  LabelScore adopted = CdAdoptLabel(incoming, 0.0);
  EXPECT_EQ(adopted.label, 3);
}

/// The adoption rule as it was written with two per-label maps, kept here
/// as the oracle the sorting rule must match bit for bit.
LabelScore MapCdAdoptLabel(const std::vector<LabelScore>& neighbor_labels,
                           double hop_attenuation) {
  std::map<int64_t, double> sums;
  std::map<int64_t, double> max_score;
  for (const LabelScore& ls : neighbor_labels) {
    sums[ls.label] += ls.score;
    auto it = max_score.find(ls.label);
    if (it == max_score.end() || ls.score > it->second) {
      max_score[ls.label] = ls.score;
    }
  }
  int64_t best_label = 0;
  double best_sum = -1.0;
  for (const auto& [label, sum] : sums) {
    if (sum > best_sum + 1e-12 ||
        (std::abs(sum - best_sum) <= 1e-12 && label < best_label)) {
      best_sum = sum;
      best_label = label;
    }
  }
  double score = std::max(0.0, max_score[best_label] - hop_attenuation);
  return LabelScore{best_label, score};
}

/// A seeded neighbor list of `degree` entries. Labels come from a small
/// range so that they collide. Scores come from one of three pools: a few
/// exact values whose sums tie bit for bit or within rounding (0.1 + 0.2
/// against 0.3), one value jittered by multiples of 1e-13 (sums that differ
/// but tie within the rule's 1e-12), or uniform doubles.
std::vector<LabelScore> RandomNeighborList(Rng& rng, size_t degree) {
  static constexpr double kExact[] = {1.0, 0.95, 0.9, 0.5, 0.3,
                                      0.2, 0.1, 0.05, 0.0};
  static constexpr uint64_t kLabelRanges[] = {1, 2, 3, 8, 32, 1000};
  const uint64_t label_range = kLabelRanges[rng.NextBounded(6)];
  const int64_t label_base = static_cast<int64_t>(rng.NextBounded(1000000));
  const uint64_t pool = rng.NextBounded(3);
  std::vector<LabelScore> list(degree);
  for (LabelScore& ls : list) {
    ls.label = label_base + static_cast<int64_t>(rng.NextBounded(label_range));
    if (pool == 0) {
      ls.score = kExact[rng.NextBounded(std::size(kExact))];
    } else if (pool == 1) {
      ls.score = 0.5 + static_cast<double>(rng.NextInRange(-5, 5)) * 1e-13;
    } else {
      ls.score = rng.NextDouble();
    }
  }
  return list;
}

TEST(CdAdoptLabelTest, MatchesTheMapRuleBitForBit) {
  // 10,000 lists, degrees log-uniform over 0..5,000 (both ends forced).
  Rng rng(0xCDCD);
  for (int i = 0; i < 10000; ++i) {
    const size_t degree =
        i == 0   ? 0
        : i == 1 ? 5000
                 : static_cast<size_t>(
                       std::exp(rng.NextDouble() * std::log(5001.0))) -
                       1;
    const std::vector<LabelScore> list = RandomNeighborList(rng, degree);
    const double hop = i % 2 == 0 ? 0.05 : 0.0;
    const LabelScore want = MapCdAdoptLabel(list, hop);
    std::vector<LabelScore> sorted = list;
    const LabelScore got = CdAdoptLabel(sorted, hop);
    ASSERT_EQ(got.label, want.label) << "list " << i << ", degree " << degree;
    ASSERT_EQ(std::bit_cast<uint64_t>(got.score),
              std::bit_cast<uint64_t>(want.score))
        << "list " << i << ", degree " << degree << ": " << got.score
        << " vs " << want.score;
  }
}

// -------------------------------------------------------------------- EVO

TEST(RefEvoTest, NewVerticesConnectToBurnedSets) {
  EdgeList edges;
  for (VertexId a = 0; a < 20; ++a) edges.Add(a, (a + 1) % 20);
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  EvoParams params;
  params.num_new_vertices = 5;
  auto out = ref::Evo(g, params);
  EXPECT_EQ(out.new_edges.num_vertices(), 25u);
  // Every new edge starts at a new vertex and lands on an original one.
  for (const Edge& e : out.new_edges.edges()) {
    EXPECT_GE(e.src, 20u);
    EXPECT_LT(e.dst, 20u);
  }
  // Every new vertex has at least its ambassador edge.
  std::set<VertexId> sources;
  for (const Edge& e : out.new_edges.edges()) sources.insert(e.src);
  EXPECT_EQ(sources.size(), 5u);
}

TEST(RefEvoTest, DeterministicForSeed) {
  EdgeList edges;
  Rng rng(67);
  for (int i = 0; i < 200; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(50));
    VertexId b = static_cast<VertexId>(rng.NextBounded(50));
    if (a != b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  EvoParams params;
  params.num_new_vertices = 8;
  auto a = ref::Evo(g, params);
  auto b = ref::Evo(g, params);
  EXPECT_EQ(a.new_edges.edges(), b.new_edges.edges());
  params.seed = 123456;
  auto c = ref::Evo(g, params);
  EXPECT_NE(a.new_edges.edges(), c.new_edges.edges());
}

TEST(RefEvoTest, RespectsBurnCaps) {
  // Complete graph: without caps a fire could burn everything.
  EdgeList edges;
  for (VertexId a = 0; a < 30; ++a) {
    for (VertexId b = a + 1; b < 30; ++b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  EvoParams params;
  params.num_new_vertices = 3;
  params.p_forward = 0.95;
  params.max_burned = 10;
  auto out = ref::Evo(g, params);
  std::map<VertexId, int> per_fire;
  for (const Edge& e : out.new_edges.edges()) ++per_fire[e.src];
  for (const auto& [src, count] : per_fire) EXPECT_LE(count, 10);
}

// --------------------------------------------------------------------- PR

TEST(RefPrTest, SymmetricPairSplitsEvenly) {
  // Two vertices joined by one undirected edge: by symmetry both ranks are
  // 0.5 at every iteration.
  Graph g = MakeUndirected({{0, 1}});
  auto out = ref::Pr(g, PrParams{10, 0.85});
  ASSERT_EQ(out.vertex_scores.size(), 2u);
  EXPECT_NEAR(out.vertex_scores[0], 0.5, 1e-12);
  EXPECT_NEAR(out.vertex_scores[1], 0.5, 1e-12);
}

TEST(RefPrTest, HubOutranksLeaves) {
  Graph g = MakeUndirected({{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  auto out = ref::Pr(g, PrParams{20, 0.85});
  for (VertexId v = 1; v < 5; ++v) {
    EXPECT_GT(out.vertex_scores[0], out.vertex_scores[v]);
  }
}

TEST(RefPrTest, IsolatedVertexGetsBaseRank) {
  Graph g = MakeUndirected({{0, 1}}, /*n=*/3);
  auto out = ref::Pr(g, PrParams{5, 0.85});
  EXPECT_NEAR(out.vertex_scores[2], (1.0 - 0.85) / 3.0, 1e-12);
}

TEST(RefPrTest, DirectedChainAccumulatesAtSink) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  auto out = ref::Pr(g, PrParams{30, 0.85});
  EXPECT_GT(out.vertex_scores[2], out.vertex_scores[1]);
  EXPECT_GT(out.vertex_scores[1], out.vertex_scores[0]);
}

TEST(RefPrTest, RanksSumToAtMostOne) {
  // With leak-at-dangling semantics the total rank never exceeds 1.
  EdgeList edges;
  Rng rng(71);
  for (int i = 0; i < 300; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(80));
    VertexId b = static_cast<VertexId>(rng.NextBounded(80));
    if (a != b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  auto out = ref::Pr(g, PrParams{15, 0.85});
  double sum = 0.0;
  for (double r : out.vertex_scores) sum += r;
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_GT(sum, 0.1);
}

TEST(RefPrTest, ZeroIterationsIsUniform) {
  Graph g = MakeUndirected({{0, 1}, {1, 2}});
  auto out = ref::Pr(g, PrParams{0, 0.85});
  for (double r : out.vertex_scores) EXPECT_NEAR(r, 1.0 / 3.0, 1e-12);
}

// ------------------------------------------------------------------ STATS

TEST(RefStatsTest, CountsAndClustering) {
  Graph g = MakeUndirected({{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  auto out = ref::Stats(g);
  EXPECT_EQ(out.stats.num_vertices, 4u);
  EXPECT_EQ(out.stats.num_edges, 4u);
  EXPECT_NEAR(out.stats.mean_local_clustering, (1 + 1 + 1.0 / 3 + 0) / 4,
              1e-12);
}

TEST(RefRunTest, DispatchesAllKinds) {
  Graph g = MakeUndirected({{0, 1}, {1, 2}, {2, 0}});
  AlgorithmParams params;
  for (AlgorithmKind kind :
       {AlgorithmKind::kStats, AlgorithmKind::kBfs, AlgorithmKind::kConn,
        AlgorithmKind::kCd, AlgorithmKind::kEvo, AlgorithmKind::kPr}) {
    auto out = ref::Run(g, kind, params);
    // Any run must account some traversal work.
    EXPECT_GT(out.traversed_edges, 0u) << AlgorithmKindName(kind);
  }
}

}  // namespace
}  // namespace gly
