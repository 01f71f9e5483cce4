// Cross-platform conformance: every (platform × algorithm × graph family)
// cell must produce output identical to the reference implementation —
// the property the paper's Output Validator enforces, swept here with
// parameterized tests.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "columnstore/edge_table.h"
#include "columnstore/transitive.h"
#include "datagen/rmat.h"
#include "datagen/social_datagen.h"
#include "harness/platform.h"
#include "harness/validator.h"
#include "ref/algorithms.h"

namespace gly {
namespace {

enum class GraphFamily { kSocial, kRmat, kPath, kDisconnected };

std::string FamilyName(GraphFamily family) {
  switch (family) {
    case GraphFamily::kSocial: return "social";
    case GraphFamily::kRmat: return "rmat";
    case GraphFamily::kPath: return "path";
    case GraphFamily::kDisconnected: return "disconnected";
  }
  return "?";
}

// Builds one representative graph per family (cached across tests).
const Graph& GraphFor(GraphFamily family) {
  static const Graph social = [] {
    datagen::SocialDatagenConfig config;
    config.num_persons = 400;
    config.degree_spec = "geometric:p=0.25";
    config.window_size = 64;
    config.seed = 7;
    auto result = datagen::SocialDatagen(config).Generate(nullptr);
    return GraphBuilder::Undirected(result->edges).ValueOrDie();
  }();
  static const Graph rmat = [] {
    datagen::RmatConfig config;
    config.scale = 8;
    config.edge_factor = 6;
    auto edges = datagen::RmatGenerator(config).Generate(nullptr);
    return GraphBuilder::Undirected(*edges).ValueOrDie();
  }();
  static const Graph path = [] {
    EdgeList edges;
    for (VertexId v = 0; v + 1 < 60; ++v) edges.Add(v, v + 1);
    return GraphBuilder::Undirected(edges).ValueOrDie();
  }();
  static const Graph disconnected = [] {
    EdgeList edges(100);  // trailing isolated vertices
    Rng rng(9);
    for (int c = 0; c < 4; ++c) {
      for (int i = 0; i < 40; ++i) {
        VertexId a = static_cast<VertexId>(c * 20 + rng.NextBounded(20));
        VertexId b = static_cast<VertexId>(c * 20 + rng.NextBounded(20));
        if (a != b) edges.Add(a, b);
      }
    }
    return GraphBuilder::Undirected(edges).ValueOrDie();
  }();
  switch (family) {
    case GraphFamily::kSocial: return social;
    case GraphFamily::kRmat: return rmat;
    case GraphFamily::kPath: return path;
    case GraphFamily::kDisconnected: return disconnected;
  }
  return path;
}

using ConformanceParam =
    std::tuple<std::string /*platform*/, AlgorithmKind, GraphFamily>;

class ConformanceTest : public ::testing::TestWithParam<ConformanceParam> {};

TEST_P(ConformanceTest, MatchesReference) {
  const auto& [platform_name, algorithm, family] = GetParam();
  const Graph& graph = GraphFor(family);
  AlgorithmParams params;
  params.bfs.source = 0;
  params.cd = CdParams{4, 0.05};
  params.evo.num_new_vertices = 5;

  auto platform = harness::MakePlatform(platform_name, Config());
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE((*platform)->LoadGraph(graph, FamilyName(family)).ok());
  auto out = (*platform)->Run(algorithm, params);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  Status validation =
      harness::ValidateOutput(graph, algorithm, params, *out);
  EXPECT_TRUE(validation.ok()) << validation.ToString();
}

std::string ParamName(
    const ::testing::TestParamInfo<ConformanceParam>& info) {
  const auto& [platform, algorithm, family] = info.param;
  return platform + "_" + AlgorithmKindName(algorithm) + "_" +
         FamilyName(family);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, ConformanceTest,
    ::testing::Combine(
        ::testing::Values("giraph", "graphx", "mapreduce", "neo4j"),
        ::testing::Values(AlgorithmKind::kStats, AlgorithmKind::kBfs,
                          AlgorithmKind::kConn, AlgorithmKind::kCd,
                          AlgorithmKind::kEvo, AlgorithmKind::kPr),
        ::testing::Values(GraphFamily::kSocial, GraphFamily::kRmat,
                          GraphFamily::kPath, GraphFamily::kDisconnected)),
    ParamName);

// BFS from several sources: platforms must agree with the reference for
// any source, including sources inside small components.
class BfsSourceSweepTest
    : public ::testing::TestWithParam<std::tuple<std::string, VertexId>> {};

TEST_P(BfsSourceSweepTest, MatchesReference) {
  const auto& [platform_name, source] = GetParam();
  const Graph& graph = GraphFor(GraphFamily::kDisconnected);
  AlgorithmParams params;
  params.bfs.source = source;
  auto platform = harness::MakePlatform(platform_name, Config());
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE((*platform)->LoadGraph(graph, "sweep").ok());
  auto out = (*platform)->Run(AlgorithmKind::kBfs, params);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(
      harness::ValidateOutput(graph, AlgorithmKind::kBfs, params, *out).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sources, BfsSourceSweepTest,
    ::testing::Combine(::testing::Values("giraph", "graphx", "mapreduce",
                                         "neo4j"),
                       ::testing::Values(VertexId{0}, VertexId{33},
                                         VertexId{77})),
    [](const ::testing::TestParamInfo<std::tuple<std::string, VertexId>>&
           info) {
      return std::get<0>(info.param) + "_src" +
             std::to_string(std::get<1>(info.param));
    });

// Seeded cross-platform differential sweep: platforms are compared against
// EACH OTHER, not just against the reference. For each generator seed,
// every pair of platforms must produce bit-identical vertex values (BFS,
// CONN) and matching STATS — any divergence localizes a platform bug even
// if the reference validator happened to miss it.
class DifferentialSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialSweepTest, PlatformsAgreePairwiseOnSeededRmat) {
  datagen::RmatConfig config;
  config.scale = 7;
  config.edge_factor = 4;
  config.seed = GetParam();
  auto edges = datagen::RmatGenerator(config).Generate(nullptr);
  ASSERT_TRUE(edges.ok());
  Graph graph = GraphBuilder::Undirected(*edges).ValueOrDie();

  const std::vector<std::string> platforms = {"giraph", "graphx",
                                              "mapreduce", "neo4j"};
  AlgorithmParams params;
  params.bfs.source = 0;
  for (AlgorithmKind algorithm :
       {AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kStats}) {
    std::vector<AlgorithmOutput> outputs;
    for (const std::string& name : platforms) {
      auto platform = harness::MakePlatform(name, Config());
      ASSERT_TRUE(platform.ok()) << name;
      ASSERT_TRUE((*platform)->LoadGraph(graph, "diff").ok()) << name;
      auto out = (*platform)->Run(algorithm, params);
      ASSERT_TRUE(out.ok()) << name << "/" << AlgorithmKindName(algorithm)
                            << ": " << out.status().ToString();
      outputs.push_back(std::move(*out));
    }
    for (size_t i = 1; i < outputs.size(); ++i) {
      SCOPED_TRACE(platforms[0] + " vs " + platforms[i] + " on " +
                   AlgorithmKindName(algorithm) + ", rmat seed " +
                   std::to_string(config.seed));
      EXPECT_EQ(outputs[0].vertex_values, outputs[i].vertex_values);
      EXPECT_EQ(outputs[0].stats.num_vertices, outputs[i].stats.num_vertices);
      EXPECT_EQ(outputs[0].stats.num_edges, outputs[i].stats.num_edges);
      // Clustering coefficient: summation order may differ per platform.
      EXPECT_NEAR(outputs[0].stats.mean_local_clustering,
                  outputs[i].stats.mean_local_clustering, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RmatSeeds, DifferentialSweepTest,
                         ::testing::Values(11u, 23u, 47u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ------------------------------------------------------------------------
// Kernel conformance: each engine's own kernels must be invisible in every
// output. Each engine runs BFS, CONN, and PR on R-MAT graphs at scales
// 8/12/14 plus a social-datagen graph with its defaults (`_opt`), and
// giraph runs them once more with `dense_frontier_threshold = 0`, its
// sparse reference delivery (`_classic`). Every run is compared
// per-vertex against the reference implementation — exactly for the
// integer-valued kernels, within a tight tolerance for PageRank, whose
// summation order legitimately differs across engines.

enum class KernelGraph { kRmat8, kRmat12, kRmat14, kSocial };

std::string KernelGraphName(KernelGraph which) {
  switch (which) {
    case KernelGraph::kRmat8: return "rmat8";
    case KernelGraph::kRmat12: return "rmat12";
    case KernelGraph::kRmat14: return "rmat14";
    case KernelGraph::kSocial: return "social2k";
  }
  return "?";
}

Graph MakeRmatGraph(uint32_t scale, uint32_t edge_factor) {
  datagen::RmatConfig config;
  config.scale = scale;
  config.edge_factor = edge_factor;
  config.seed = 1;
  auto edges = datagen::RmatGenerator(config).Generate(nullptr);
  edges.status().Check();
  return GraphBuilder::Undirected(*edges).ValueOrDie();
}

const Graph& KernelGraphFor(KernelGraph which) {
  static const Graph rmat8 = MakeRmatGraph(8, 6);
  static const Graph rmat12 = MakeRmatGraph(12, 8);
  static const Graph rmat14 = MakeRmatGraph(14, 8);
  static const Graph social = [] {
    datagen::SocialDatagenConfig config;
    config.num_persons = 2000;
    config.degree_spec = "geometric:p=0.25";
    config.window_size = 128;
    config.seed = 21;
    auto result = datagen::SocialDatagen(config).Generate(nullptr);
    return GraphBuilder::Undirected(result->edges).ValueOrDie();
  }();
  switch (which) {
    case KernelGraph::kRmat8: return rmat8;
    case KernelGraph::kRmat12: return rmat12;
    case KernelGraph::kRmat14: return rmat14;
    case KernelGraph::kSocial: return social;
  }
  return rmat8;
}

// R-MAT leaves some vertex ids edge-less; BFS from the max-degree vertex
// traverses the giant component, which is what makes the dense-frontier
// path actually fire in the optimized configuration.
VertexId MaxDegreeVertex(const Graph& graph) {
  VertexId best = 0;
  for (VertexId v = 1; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) > graph.Degree(best)) best = v;
  }
  return best;
}

using KernelParam = std::tuple<std::string /*platform*/, AlgorithmKind,
                               KernelGraph, bool /*optimized*/>;

class KernelConformanceTest : public ::testing::TestWithParam<KernelParam> {};

TEST_P(KernelConformanceTest, MatchesReferencePerVertex) {
  const auto& [platform_name, algorithm, which, optimized] = GetParam();
  const Graph& graph = KernelGraphFor(which);

  AlgorithmParams params;
  params.bfs.source = MaxDegreeVertex(graph);
  params.pr = PrParams{10, 0.85};

  Config config;
  if (!optimized) {
    // Force the classic path: sparse message delivery.
    config.SetDouble("dense_frontier_threshold", 0.0);
  }

  auto platform = harness::MakePlatform(platform_name, config);
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE((*platform)->LoadGraph(graph, KernelGraphName(which)).ok());
  auto out = (*platform)->Run(algorithm, params);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // ref::Run's BFS is always the naive queue implementation — the gold
  // standard stays independent of the kernels under test.
  AlgorithmOutput expected = ref::Run(graph, algorithm, params);
  if (algorithm == AlgorithmKind::kPr) {
    ASSERT_EQ(out->vertex_scores.size(), expected.vertex_scores.size());
    for (size_t v = 0; v < expected.vertex_scores.size(); ++v) {
      ASSERT_NEAR(out->vertex_scores[v], expected.vertex_scores[v], 1e-9)
          << "vertex " << v;
    }
  } else {
    EXPECT_EQ(out->vertex_values, expected.vertex_values);
  }
  Status validation = harness::ValidateOutput(graph, algorithm, params, *out);
  EXPECT_TRUE(validation.ok()) << validation.ToString();
}

std::string KernelParamName(
    const ::testing::TestParamInfo<KernelParam>& info) {
  const auto& [platform, algorithm, which, optimized] = info.param;
  return platform + "_" + AlgorithmKindName(algorithm) + "_" +
         KernelGraphName(which) + (optimized ? "_opt" : "_classic");
}

// Only giraph reads dense_frontier_threshold, so only giraph has a
// `_classic` configuration to run.
std::vector<KernelParam> KernelParams() {
  std::vector<KernelParam> params;
  for (const char* platform : {"giraph", "graphx", "mapreduce", "neo4j"}) {
    for (AlgorithmKind algorithm :
         {AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kPr}) {
      for (KernelGraph which : {KernelGraph::kRmat8, KernelGraph::kRmat12,
                                KernelGraph::kRmat14, KernelGraph::kSocial}) {
        params.emplace_back(platform, algorithm, which, true);
        if (std::string(platform) == "giraph") {
          params.emplace_back(platform, algorithm, which, false);
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelConformanceTest,
                         ::testing::ValuesIn(KernelParams()), KernelParamName);

// ------------------------------------------------------------------------
// Reorder conformance: every engine, run on the degree-reordered graph with
// id-valued parameters translated into the new space, must — after mapping
// its output back through the permutation — match the reference run on the
// ORIGINAL graph per vertex. This is the graph.reorder = degree contract:
// relabeling is an engine-side locality optimization, invisible in results.

using ReorderParam =
    std::tuple<std::string /*platform*/, AlgorithmKind, KernelGraph>;

class ReorderConformanceTest : public ::testing::TestWithParam<ReorderParam> {
};

const ReorderedGraph& ReorderedKernelGraphFor(KernelGraph which) {
  static const ReorderedGraph rmat8 =
      KernelGraphFor(KernelGraph::kRmat8).ReorderByDegree();
  static const ReorderedGraph rmat12 =
      KernelGraphFor(KernelGraph::kRmat12).ReorderByDegree();
  static const ReorderedGraph rmat14 =
      KernelGraphFor(KernelGraph::kRmat14).ReorderByDegree();
  static const ReorderedGraph social =
      KernelGraphFor(KernelGraph::kSocial).ReorderByDegree();
  switch (which) {
    case KernelGraph::kRmat8: return rmat8;
    case KernelGraph::kRmat12: return rmat12;
    case KernelGraph::kRmat14: return rmat14;
    case KernelGraph::kSocial: return social;
  }
  return rmat8;
}

TEST_P(ReorderConformanceTest, MappedBackOutputMatchesReference) {
  const auto& [platform_name, algorithm, which] = GetParam();
  const Graph& original = KernelGraphFor(which);
  const ReorderedGraph& reordered = ReorderedKernelGraphFor(which);
  ASSERT_TRUE(harness::RelabelingInvariant(algorithm));

  AlgorithmParams params;  // original-id space
  params.bfs.source = MaxDegreeVertex(original);
  params.pr = PrParams{10, 0.85};
  AlgorithmParams run_params = params;  // reordered-id space
  run_params.bfs.source = reordered.perm.old_to_new[params.bfs.source];

  auto platform = harness::MakePlatform(platform_name, Config());
  ASSERT_TRUE(platform.ok());
  ASSERT_TRUE((*platform)
                  ->LoadGraph(reordered.graph,
                              KernelGraphName(which) + "_reordered")
                  .ok());
  auto out = (*platform)->Run(algorithm, run_params);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  AlgorithmOutput mapped = harness::MapOutputToOriginalIds(
      algorithm, reordered.perm.new_to_old, std::move(*out));
  AlgorithmOutput expected = ref::Run(original, algorithm, params);
  if (algorithm == AlgorithmKind::kPr) {
    ASSERT_EQ(mapped.vertex_scores.size(), expected.vertex_scores.size());
    for (size_t v = 0; v < expected.vertex_scores.size(); ++v) {
      ASSERT_NEAR(mapped.vertex_scores[v], expected.vertex_scores[v], 1e-9)
          << "vertex " << v;
    }
  } else {
    EXPECT_EQ(mapped.vertex_values, expected.vertex_values);
  }
  Status validation =
      harness::ValidateOutput(original, algorithm, params, mapped);
  EXPECT_TRUE(validation.ok()) << validation.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Reordered, ReorderConformanceTest,
    ::testing::Combine(
        ::testing::Values("giraph", "graphx", "mapreduce", "neo4j"),
        ::testing::Values(AlgorithmKind::kBfs, AlgorithmKind::kConn,
                          AlgorithmKind::kPr),
        ::testing::Values(KernelGraph::kRmat8, KernelGraph::kRmat12,
                          KernelGraph::kRmat14, KernelGraph::kSocial)),
    [](const ::testing::TestParamInfo<ReorderParam>& info) {
      return std::get<0>(info.param) + "_" +
             AlgorithmKindName(std::get<1>(info.param)) + "_" +
             KernelGraphName(std::get<2>(info.param));
    });

// The column-store engine exposes reachability (not per-vertex levels), so
// its conformance check compares the transitive count against the set of
// vertices the reference BFS reaches — the ground truth every engine's
// BFS is validated against.
class ColumnstoreReachabilityTest
    : public ::testing::TestWithParam<KernelGraph> {};

TEST_P(ColumnstoreReachabilityTest, TransitiveCountMatchesDirOptBfs) {
  const Graph& graph = KernelGraphFor(GetParam());
  const VertexId source = MaxDegreeVertex(graph);

  // Re-materialize the undirected adjacency as a directed edge table (both
  // directions present), so the columnstore walks the same topology.
  EdgeList edges(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (VertexId w : graph.OutNeighbors(v)) edges.Add(v, w);
  }
  auto table = columnstore::EdgeTable::Build(edges);
  ASSERT_TRUE(table.ok());

  BfsParams params;
  params.source = source;
  AlgorithmOutput levels = ref::Bfs(graph, params);
  uint64_t reachable = 0;
  for (int64_t d : levels.vertex_values) {
    if (d != kUnreachable && d > 0) ++reachable;
  }

  columnstore::TransitiveConfig config;
  config.num_partitions = 4;
  auto profile = columnstore::TransitiveCount(*table, source, config);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->distinct_reached, reachable);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ColumnstoreReachabilityTest,
    ::testing::Values(KernelGraph::kRmat8, KernelGraph::kRmat12,
                      KernelGraph::kRmat14, KernelGraph::kSocial),
    [](const ::testing::TestParamInfo<KernelGraph>& info) {
      return KernelGraphName(info.param);
    });

}  // namespace
}  // namespace gly
