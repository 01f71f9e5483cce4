// Unit and property tests for the datagen module: degree plugins, the
// social generator (determinism, distribution fidelity, correlation),
// rewiring (degree preservation, target convergence), R-MAT, the
// single/cluster runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common/stopwatch.h"

#include "analysis/degree_distribution.h"
#include "analysis/metrics.h"
#include "common/temp_dir.h"
#include "datagen/degree_plugin.h"
#include "datagen/rewire.h"
#include "datagen/rmat.h"
#include "datagen/runner.h"
#include "datagen/social_datagen.h"
#include "graph/graph.h"

namespace gly::datagen {
namespace {

// ---------------------------------------------------------------- plugins

TEST(DegreePluginTest, FactoryParsesSpecs) {
  EXPECT_TRUE(MakeDegreePlugin("zeta:alpha=1.7").ok());
  EXPECT_TRUE(MakeDegreePlugin("geometric:p=0.12").ok());
  EXPECT_TRUE(MakeDegreePlugin("weibull:shape=0.8,scale=20").ok());
  EXPECT_TRUE(MakeDegreePlugin("poisson:lambda=10").ok());
  EXPECT_TRUE(MakeDegreePlugin("facebook").ok());
  EXPECT_TRUE(MakeDegreePlugin("facebook:mean=25").ok());
}

TEST(DegreePluginTest, FactoryRejectsBadSpecs) {
  EXPECT_FALSE(MakeDegreePlugin("unknown:x=1").ok());
  EXPECT_FALSE(MakeDegreePlugin("zeta:alpha=0.9").ok());   // needs alpha > 1
  EXPECT_FALSE(MakeDegreePlugin("geometric:p=1.5").ok());
  EXPECT_FALSE(MakeDegreePlugin("poisson:lambda=-2").ok());
  EXPECT_FALSE(MakeDegreePlugin("zeta").ok());             // missing param
  // Unknown argument names and malformed values name the spec and the
  // argument instead of falling back to the family's default.
  const std::pair<const char*, const char*> bad[] = {
      {"facebook:mean=abc", "mean"},     {"facebook:maen=20", "maen"},
      {"zeta:alpha=1.7,max=1O", "max"},  {"zeta:alpha=1.7,mx=5", "mx"},
      {"geometric:p=0.1,q=2", "q"},      {"weibull:shape=0.8,scale=2x", "scale"},
      {"poisson:lambda=ten", "lambda"},
  };
  for (const auto& [spec, arg] : bad) {
    Status status = MakeDegreePlugin(spec).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << spec << ": " << status.ToString();
    EXPECT_NE(status.message().find(spec), std::string::npos) << status.ToString();
    EXPECT_NE(status.message().find(arg), std::string::npos) << status.ToString();
  }
}

TEST(DegreePluginTest, SampledMeansMatchDeclaredMeans) {
  Rng rng(71);
  for (const char* spec :
       {"geometric:p=0.2", "poisson:lambda=7", "facebook:mean=20",
        "zeta:alpha=2.5"}) {
    auto plugin = MakeDegreePlugin(spec);
    ASSERT_TRUE(plugin.ok()) << spec;
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>((*plugin)->Sample(rng));
    }
    double mean = sum / n;
    EXPECT_NEAR(mean, (*plugin)->MeanDegree(),
                (*plugin)->MeanDegree() * 0.1)
        << spec;
  }
}

TEST(DegreePluginTest, EmpiricalReproducesHistogram) {
  Histogram observed;
  observed.Add(1, 700);
  observed.Add(5, 200);
  observed.Add(50, 100);
  auto plugin = EmpiricalDegreePlugin::FromHistogram(observed);
  ASSERT_TRUE(plugin.ok());
  Rng rng(73);
  Histogram sampled;
  for (int i = 0; i < 100000; ++i) sampled.Add(plugin->Sample(rng));
  EXPECT_NEAR(static_cast<double>(sampled.CountOf(1)) / 100000, 0.7, 0.01);
  EXPECT_NEAR(static_cast<double>(sampled.CountOf(5)) / 100000, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(sampled.CountOf(50)) / 100000, 0.1, 0.01);
}

TEST(DegreePluginTest, EmpiricalRejectsEmpty) {
  Histogram empty;
  EXPECT_FALSE(EmpiricalDegreePlugin::FromHistogram(empty).ok());
  Histogram only_zero;
  only_zero.Add(0, 10);
  EXPECT_FALSE(EmpiricalDegreePlugin::FromHistogram(only_zero).ok());
}

// ---------------------------------------------------------- SocialDatagen

SocialDatagenConfig SmallConfig(const std::string& spec = "geometric:p=0.2") {
  SocialDatagenConfig config;
  config.num_persons = 5000;
  config.degree_spec = spec;
  config.window_size = 256;
  config.seed = 42;
  return config;
}

TEST(SocialDatagenTest, ValidatesConfig) {
  SocialDatagenConfig bad = SmallConfig();
  bad.num_persons = 1;
  EXPECT_FALSE(SocialDatagen(bad).Validate().ok());
  bad = SmallConfig();
  bad.university_fraction = 0.9;
  bad.interest_fraction = 0.9;
  EXPECT_FALSE(SocialDatagen(bad).Validate().ok());
  bad = SmallConfig();
  bad.degree_spec = "nope";
  EXPECT_FALSE(SocialDatagen(bad).Validate().ok());
  EXPECT_TRUE(SocialDatagen(SmallConfig()).Validate().ok());
}

TEST(SocialDatagenTest, DeterministicAcrossThreadCounts) {
  // The paper requires Datagen to be deterministic; our implementation must
  // produce the identical edge set no matter how many threads execute it.
  SocialDatagen gen(SmallConfig());
  auto serial = gen.Generate(nullptr);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool2(2);
  auto parallel2 = gen.Generate(&pool2);
  ASSERT_TRUE(parallel2.ok());
  ThreadPool pool8(8);
  auto parallel8 = gen.Generate(&pool8);
  ASSERT_TRUE(parallel8.ok());
  EXPECT_EQ(serial->edges.edges(), parallel2->edges.edges());
  EXPECT_EQ(serial->edges.edges(), parallel8->edges.edges());
}

TEST(SocialDatagenTest, SeedChangesOutput) {
  SocialDatagenConfig config = SmallConfig();
  auto a = SocialDatagen(config).Generate(nullptr);
  config.seed = 777;
  auto b = SocialDatagen(config).Generate(nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->edges.edges(), b->edges.edges());
}

TEST(SocialDatagenTest, MeanDegreeTracksPlugin) {
  auto result = SocialDatagen(SmallConfig("geometric:p=0.2")).Generate(nullptr);
  ASSERT_TRUE(result.ok());
  // Mean degree ~= plugin mean (5.0); dedup/self-pair losses allowed.
  double mean_degree = 2.0 * static_cast<double>(result->edges.num_edges()) /
                       static_cast<double>(result->edges.num_vertices());
  EXPECT_NEAR(mean_degree, 5.0, 0.8);
}

// Figure 1's property: Datagen "can reliably reproduce these two
// distributions". We assert it quantitatively: fitting the generated
// graph's degrees recovers the plugin's parameter, and the plugin's family
// outranks every other single-parameter family. (The 2-parameter Weibull
// may shade the winner by flexibility; the paper itself observes that the
// best-fitting model can differ from the generating shape.)
size_t RankOfFamily(const std::vector<ModelFit>& fits,
                    const std::string& family) {
  for (size_t i = 0; i < fits.size(); ++i) {
    if (fits[i].model_description.find(family) != std::string::npos) return i;
  }
  return fits.size();
}

TEST(SocialDatagenTest, ZetaPluginReproducesZeta) {
  SocialDatagenConfig config = SmallConfig("zeta:alpha=1.7,max=1000");
  config.num_persons = 20000;
  auto result = SocialDatagen(config).Generate(nullptr);
  ASSERT_TRUE(result.ok());
  Graph g = GraphBuilder::Undirected(result->edges).ValueOrDie();
  Histogram degrees = DegreeHistogram(g);
  auto fits = FitAllModels(degrees);
  EXPECT_LT(RankOfFamily(fits, "zeta"), RankOfFamily(fits, "geometric"));
  EXPECT_LT(RankOfFamily(fits, "zeta"), RankOfFamily(fits, "poisson"));
  ZetaModel fitted = ZetaModel::Fit(degrees);
  EXPECT_NEAR(fitted.alpha(), 1.7, 0.1);
}

TEST(SocialDatagenTest, GeometricPluginReproducesGeometric) {
  SocialDatagenConfig config = SmallConfig("geometric:p=0.12");
  config.num_persons = 20000;
  config.window_size = 256;
  auto result = SocialDatagen(config).Generate(nullptr);
  ASSERT_TRUE(result.ok());
  Graph g = GraphBuilder::Undirected(result->edges).ValueOrDie();
  Histogram degrees = DegreeHistogram(g);
  auto fits = FitAllModels(degrees);
  EXPECT_LT(RankOfFamily(fits, "geometric"), RankOfFamily(fits, "zeta"));
  EXPECT_LT(RankOfFamily(fits, "geometric"), RankOfFamily(fits, "poisson"));
  GeometricModel fitted = GeometricModel::Fit(degrees);
  EXPECT_NEAR(fitted.p(), 0.12, 0.015);
}

TEST(SocialDatagenTest, AttributesAreCorrelated) {
  SocialDatagen gen(SmallConfig());
  auto persons = gen.GeneratePersons(nullptr);
  // University is location-correlated: for ~90% of persons,
  // university / universities_per_location == location.
  const auto& config = gen.config();
  size_t matching = 0;
  for (const Person& p : persons) {
    if (p.university / config.universities_per_location == p.location) {
      ++matching;
    }
  }
  double fraction = static_cast<double>(matching) / persons.size();
  EXPECT_GT(fraction, 0.8);
  EXPECT_LT(fraction, 0.99);
}

TEST(SocialDatagenTest, CorrelatedEdgesShareAttributes) {
  // Edges from the university pass connect similar persons; overall, linked
  // pairs must share universities far more often than random pairs would.
  SocialDatagenConfig config = SmallConfig();
  config.num_persons = 4000;
  config.window_size = 64;  // tight window -> strong attribute correlation
  auto result = SocialDatagen(config).Generate(nullptr);
  ASSERT_TRUE(result.ok());
  size_t same_univ = 0;
  for (const Edge& e : result->edges.edges()) {
    if (result->persons[e.src].university == result->persons[e.dst].university) {
      ++same_univ;
    }
  }
  double fraction =
      static_cast<double>(same_univ) / result->edges.num_edges();
  // Baseline: the same-university probability of uniformly random pairs
  // (includes the popularity skew). The correlated pass must beat it by a
  // wide margin.
  Rng rng(103);
  size_t random_same = 0;
  const size_t trials = 200000;
  for (size_t i = 0; i < trials; ++i) {
    const Person& a =
        result->persons[rng.NextBounded(result->persons.size())];
    const Person& b =
        result->persons[rng.NextBounded(result->persons.size())];
    if (a.university == b.university) ++random_same;
  }
  double baseline = static_cast<double>(random_same) / trials;
  EXPECT_GT(fraction, 3.0 * baseline)
      << "correlated fraction " << fraction << " vs baseline " << baseline;
}

TEST(SocialDatagenTest, ClusteringInDatagenRange) {
  // Paper: "The current output of Datagen has an average clustering
  // coefficient of about 0.1".  Ours is window-based too; assert the same
  // order of magnitude (well above an Erdos-Renyi graph of equal density).
  SocialDatagenConfig config = SmallConfig("geometric:p=0.1");
  config.num_persons = 3000;
  auto result = SocialDatagen(config).Generate(nullptr);
  ASSERT_TRUE(result.ok());
  Graph g = GraphBuilder::Undirected(result->edges).ValueOrDie();
  double cc = AverageClusteringCoefficient(g);
  double er_cc = 2.0 * static_cast<double>(g.num_edges()) /
                 (static_cast<double>(g.num_vertices()) *
                  static_cast<double>(g.num_vertices() - 1));
  EXPECT_GT(cc, 5 * er_cc);
}

// ------------------------------------------------------------------ rewire

EdgeList RandomEdges(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  edges.DeduplicateAndDropLoops();
  return edges;
}

std::vector<uint64_t> SortedDegrees(const EdgeList& edges) {
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  std::vector<uint64_t> degrees;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    degrees.push_back(g.Degree(v));
  }
  std::sort(degrees.begin(), degrees.end());
  return degrees;
}

TEST(RewireTest, PreservesDegreeSequence) {
  EdgeList input = RandomEdges(200, 600, 79);
  RewireConfig config;
  config.target_clustering = 0.3;
  config.clustering_weight = 1.0;
  config.max_iterations = 20000;
  RewireStats stats;
  auto result = GraphRewirer(config).Rewire(input, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SortedDegrees(input), SortedDegrees(*result));
  EXPECT_GT(stats.accepted_swaps, 0u);
}

TEST(RewireTest, RaisesClusteringTowardTarget) {
  EdgeList input = RandomEdges(300, 1200, 83);
  Graph before = GraphBuilder::Undirected(input).ValueOrDie();
  double cc_before = GlobalClusteringCoefficient(before);
  RewireConfig config;
  config.target_clustering = 0.25;
  config.clustering_weight = 1.0;
  config.max_iterations = 60000;
  RewireStats stats;
  auto result = GraphRewirer(config).Rewire(input, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.final_clustering, cc_before + 0.05);
  EXPECT_LE(std::abs(stats.final_clustering - 0.25),
            std::abs(cc_before - 0.25));
}

TEST(RewireTest, DrivesAssortativitySign) {
  EdgeList input = RandomEdges(300, 1200, 89);
  for (double target : {0.3, -0.3}) {
    RewireConfig config;
    config.target_assortativity = target;
    config.assortativity_weight = 1.0;
    config.max_iterations = 60000;
    RewireStats stats;
    auto result = GraphRewirer(config).Rewire(input, &stats);
    ASSERT_TRUE(result.ok());
    if (target > 0) {
      EXPECT_GT(stats.final_assortativity, 0.1);
    } else {
      EXPECT_LT(stats.final_assortativity, -0.1);
    }
  }
}

TEST(RewireTest, StatsMatchIndependentMetrics) {
  EdgeList input = RandomEdges(150, 500, 97);
  RewireConfig config;
  config.target_clustering = 0.2;
  config.clustering_weight = 1.0;
  config.max_iterations = 10000;
  RewireStats stats;
  auto result = GraphRewirer(config).Rewire(input, &stats);
  ASSERT_TRUE(result.ok());
  Graph g = GraphBuilder::Undirected(*result).ValueOrDie();
  EXPECT_NEAR(GlobalClusteringCoefficient(g), stats.final_clustering, 1e-9);
  EXPECT_NEAR(DegreeAssortativity(g), stats.final_assortativity, 1e-9);
}

TEST(RewireTest, DeterministicForSeed) {
  EdgeList input = RandomEdges(100, 300, 101);
  RewireConfig config;
  config.target_clustering = 0.3;
  config.clustering_weight = 1.0;
  config.max_iterations = 5000;
  auto a = GraphRewirer(config).Rewire(input);
  auto b = GraphRewirer(config).Rewire(input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->edges(), b->edges());
}

TEST(RewireTest, TinyInputsAreSafe) {
  EdgeList one;
  one.Add(0, 1);
  RewireConfig config;
  config.target_clustering = 0.5;
  config.clustering_weight = 1.0;
  auto result = GraphRewirer(config).Rewire(one);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_edges(), 1u);
}

// -------------------------------------------------------------------- rmat

TEST(RmatTest, GeneratesRequestedCounts) {
  RmatConfig config;
  config.scale = 10;
  config.edge_factor = 8;
  auto edges = RmatGenerator(config).Generate(nullptr);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->num_edges(), (1u << 10) * 8u);
  EXPECT_LE(edges->num_vertices(), 1u << 10);
}

TEST(RmatTest, DeterministicAcrossThreadCounts) {
  RmatConfig config;
  config.scale = 12;
  config.edge_factor = 8;
  auto serial = RmatGenerator(config).Generate(nullptr);
  ThreadPool pool(6);
  auto parallel = RmatGenerator(config).Generate(&pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->edges(), parallel->edges());
}

TEST(RmatTest, SkewedDegreeDistribution) {
  RmatConfig config;
  config.scale = 12;
  config.edge_factor = 16;
  config.permute_vertices = false;
  auto edges = RmatGenerator(config).Generate(nullptr);
  ASSERT_TRUE(edges.ok());
  Graph g = GraphBuilder::Directed(*edges, {.dedup = false}).ValueOrDie();
  // R-MAT with a=0.57 concentrates edges: the top-degree vertex should far
  // exceed the mean degree.
  uint64_t max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.OutDegree(v));
  }
  EXPECT_GT(max_deg, 10 * config.edge_factor);
}

TEST(RmatTest, ValidatesParameters) {
  RmatConfig config;
  config.a = 0.9;
  config.b = 0.2;  // sums > 1
  EXPECT_FALSE(RmatGenerator(config).Generate(nullptr).ok());
  config = RmatConfig{};
  config.scale = 0;
  EXPECT_FALSE(RmatGenerator(config).Generate(nullptr).ok());
}

// ------------------------------------------------------------------ runner

TEST(DatagenRunnerTest, WritesPartFiles) {
  auto dir = TempDir::Create("gly-datagen");
  ASSERT_TRUE(dir.ok());
  DatagenRunConfig config;
  config.datagen = SmallConfig();
  config.datagen.num_persons = 2000;
  config.mode = RunMode::kCluster;
  config.num_nodes = 3;
  config.threads_per_node = 2;
  config.disk_mib_per_s = 0;  // unthrottled for the unit test
  config.cluster_phase_overhead_s = 0.0;
  config.output_dir = dir->File("out");
  auto result = RunDatagenJob(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_edges, 0u);
  EXPECT_GT(result->bytes_written, 0u);
  int parts = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(config.output_dir)) {
    (void)entry;
    ++parts;
  }
  EXPECT_EQ(parts, 3);
}

TEST(DatagenRunnerTest, ClusterOverheadCharged) {
  auto dir = TempDir::Create("gly-datagen");
  ASSERT_TRUE(dir.ok());
  DatagenRunConfig config;
  config.datagen = SmallConfig();
  config.datagen.num_persons = 500;
  config.mode = RunMode::kCluster;
  config.num_nodes = 2;
  config.cluster_phase_overhead_s = 0.05;
  config.num_phases = 2;
  config.disk_mib_per_s = 0;
  config.output_dir = dir->File("out");
  auto result = RunDatagenJob(config);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->overhead_seconds, 0.1, 1e-9);
  EXPECT_GE(result->wall_seconds, 0.1);
}

TEST(DiskThrottleTest, LimitsThroughput) {
  DiskThrottle throttle(10.0);  // 10 MiB/s
  Stopwatch watch;
  // 2 MiB should take ~0.2 s.
  for (int i = 0; i < 32; ++i) throttle.Consume(64 * 1024);
  double elapsed = watch.ElapsedSeconds();
  EXPECT_GT(elapsed, 0.15);
  EXPECT_LT(elapsed, 1.0);
}

}  // namespace
}  // namespace gly::datagen
