// Tests for the config-driven benchmark workflow (§2.3's user steps).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/temp_dir.h"
#include "graph/io.h"
#include "harness/run_config.h"

namespace gly::harness {
namespace {

Config BaseConfig() {
  Config config = *Config::Parse(
      "graphs = tiny\n"
      "graph.tiny.source = datagen\n"
      "graph.tiny.persons = 500\n"
      "graph.tiny.degree_spec = geometric:p=0.3\n"
      "graph.tiny.seed = 7\n"
      "platforms = reference\n"
      "algorithms = bfs, conn\n"
      "monitor = false\n");
  return config;
}

TEST(RunConfigTest, RunsDatagenWorkflow) {
  auto out = RunFromConfig(BaseConfig());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), 2u);
  for (const auto& r : out->results) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_TRUE(r.validation.ok());
  }
  EXPECT_NE(out->report_text.find("BFS"), std::string::npos);
}

TEST(RunConfigTest, RmatSourceAndAllAlgorithms) {
  Config config = *Config::Parse(
      "graphs = r\n"
      "graph.r.source = rmat\n"
      "graph.r.scale = 8\n"
      "graph.r.edge_factor = 4\n"
      "platforms = reference\n"
      "algorithms = all\n"
      "monitor = false\n");
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->results.size(), 5u);  // all five algorithms
}

TEST(RunConfigTest, FileSourceRoundTrip) {
  auto dir = TempDir::Create("gly-runcfg");
  ASSERT_TRUE(dir.ok());
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(2, 3);
  ASSERT_TRUE(WriteEdgeListText(edges, dir->File("g.e")).ok());
  Config config = *Config::Parse(
      "graphs = mine\n"
      "graph.mine.source = file\n"
      "platforms = reference\n"
      "algorithms = bfs\n"
      "monitor = false\n");
  config.Set("graph.mine.path", dir->File("g.e"));
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->results[0].status.ok());
}

TEST(RunConfigTest, WritesReportFiles) {
  auto dir = TempDir::Create("gly-runcfg");
  ASSERT_TRUE(dir.ok());
  Config config = BaseConfig();
  config.Set("report.dir", dir->File("report"));
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(dir->File("report") + "/report.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir->File("report") + "/results.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir->File("report") + "/results.jsonl"));
}

TEST(RunConfigTest, RejectsBadConfigs) {
  EXPECT_FALSE(RunFromConfig(Config()).ok());  // no graphs

  Config bad_source = BaseConfig();
  bad_source.Set("graph.tiny.source", "hdfs");
  EXPECT_TRUE(RunFromConfig(bad_source).status().IsInvalidArgument());

  Config bad_algo = BaseConfig();
  bad_algo.Set("algorithms", "pagerank");
  EXPECT_TRUE(RunFromConfig(bad_algo).status().IsInvalidArgument());

  Config bad_platform = BaseConfig();
  bad_platform.Set("platforms", "flink");
  EXPECT_TRUE(RunFromConfig(bad_platform).status().IsNotFound());

  Config missing_file = BaseConfig();
  missing_file.Set("graph.tiny.source", "file");
  missing_file.Set("graph.tiny.path", "/no/such/file.e");
  EXPECT_FALSE(RunFromConfig(missing_file).ok());
}

TEST(RunConfigTest, EtlThreadsKnobKeepsResultsIdentical) {
  // Same workflow, serial vs parallel ETL: every cell must still validate,
  // and the file-sourced dataset must parse to the same graph.
  auto dir = TempDir::Create("gly-runcfg");
  ASSERT_TRUE(dir.ok());
  EdgeList edges;
  for (VertexId v = 0; v + 1 < 200; ++v) edges.Add(v, v + 1);
  for (VertexId v = 0; v < 200; v += 7) edges.Add(v, (v * 3) % 200);
  ASSERT_TRUE(WriteEdgeListText(edges, dir->File("g.e")).ok());
  Config config = *Config::Parse(
      "graphs = mine\n"
      "graph.mine.source = file\n"
      "platforms = reference\n"
      "algorithms = bfs, conn\n"
      "monitor = false\n");
  config.Set("graph.mine.path", dir->File("g.e"));

  for (const char* threads : {"1", "4", "0"}) {  // 0 = hardware threads
    config.Set("etl.threads", threads);
    auto out = RunFromConfig(config);
    ASSERT_TRUE(out.ok()) << "etl.threads=" << threads << ": "
                          << out.status().ToString();
    for (const auto& r : out->results) {
      EXPECT_TRUE(r.status.ok()) << "etl.threads=" << threads;
      EXPECT_TRUE(r.validation.ok()) << "etl.threads=" << threads;
    }
  }
}

TEST(RunConfigTest, ReorderKnobValidatesInOriginalIds) {
  Config config = BaseConfig();
  config.Set("graph.reorder", "degree");
  config.Set("algorithms", "bfs, conn, pr");
  config.SetInt("graph.tiny.bfs_source", 42);
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), 3u);
  for (const auto& r : out->results) {
    EXPECT_TRUE(r.status.ok()) << AlgorithmKindName(r.algorithm);
    // Validation recomputes against the ORIGINAL graph with original-id
    // params; passing means the reordered run was mapped back correctly.
    EXPECT_TRUE(r.validation.ok())
        << AlgorithmKindName(r.algorithm) << ": " << r.validation.ToString();
  }
}

TEST(RunConfigTest, ReorderRefusesIdSeededAlgorithms) {
  Config config = BaseConfig();
  config.Set("graph.reorder", "degree");
  config.Set("algorithms", "cd, bfs");
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), 2u);
  EXPECT_TRUE(out->results[0].status.IsInvalidArgument());
  EXPECT_TRUE(out->results[1].status.ok());
}

TEST(RunConfigTest, PerGraphReorderOverride) {
  // Global degree reorder, overridden back to none for the one dataset:
  // CD must then run (and validate) normally.
  Config config = BaseConfig();
  config.Set("graph.reorder", "degree");
  config.Set("graph.tiny.reorder", "none");
  config.Set("algorithms", "cd");
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->results[0].status.ok());
  EXPECT_TRUE(out->results[0].validation.ok());
}

TEST(RunConfigTest, RejectsUnknownReorderValue) {
  Config config = BaseConfig();
  config.Set("graph.reorder", "random");
  EXPECT_TRUE(RunFromConfig(config).status().IsInvalidArgument());
}

// A set bfs_source must parse and name a vertex: a wrapped or
// out-of-range id would otherwise run (and validate) a BFS from another
// vertex or from none.
TEST(RunConfigTest, BfsSourceMustBeAVertexOfTheGraph) {
  Config config = *Config::Parse(
      "graphs = g\n"
      "graph.g.source = rmat\n"
      "graph.g.scale = 6\n"
      "graph.g.edge_factor = 4\n"
      "platforms = reference\n"
      "algorithms = bfs\n"
      "monitor = false\n");
  for (const char* bad : {"64", "4294967297", "abc"}) {
    config.Set("graph.g.bfs_source", bad);
    Status status = RunFromConfig(config).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << bad << ": " << status.ToString();
    EXPECT_NE(status.message().find("graph.g.bfs_source"), std::string::npos)
        << status.ToString();
  }
  config.Set("graph.g.bfs_source", "63");
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), 1u);
  EXPECT_TRUE(out->results[0].status.ok());
  EXPECT_TRUE(out->results[0].validation.ok());
}

// A set supervision key must parse: a fallback to the default would run
// `timeout_s = 0.005s` with no deadline at all.
TEST(RunConfigTest, SupervisionKeysMustParse) {
  const std::pair<const char*, const char*> bad[] = {
      {"timeout_s", "0.005s"},       {"stall_timeout_s", "1m"},
      {"cancel_grace_s", "five"},    {"max_attempts", "-1"},
      {"retry_backoff_s", ""},       {"harness.jobs", "four"},
      {"harness.memory_budget_mb", "1.5"},
      {"max_attempts", "4294967296"},
  };
  for (const auto& [key, value] : bad) {
    Config config = BaseConfig();
    config.Set(key, value);
    Status status = RunFromConfig(config).status();
    EXPECT_TRUE(status.IsInvalidArgument())
        << key << " = " << value << ": " << status.ToString();
    EXPECT_NE(status.message().find(key), std::string::npos)
        << status.ToString();
  }
  Config config = BaseConfig();
  config.Set("timeout_s", "0.005");
  config.Set("harness.jobs", "2");
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->results.size(), 2u);
}

// The common platform keys: an unset key keeps its default, but a set one
// must parse and fit, or the open phase's platform probe fails the run and
// names the scoped key. A silent fallback ran `graphx.memory_budget_mb =
// 1MB` with no budget at all.
TEST(RunConfigTest, PlatformKeysMustParse) {
  const std::pair<const char*, const char*> bad[] = {
      {"graphx.memory_budget_mb", "1MB"},
      {"graphx.memory_budget_mb", "17592186044416"},  // 2^44 MiB
      {"graphx.workers", "4294967296"},
      {"graphx.threads", "two"},
      {"reference.workers", "-1"},
  };
  for (const auto& [key, value] : bad) {
    Config config = BaseConfig();
    config.Set("platforms", "reference, graphx");
    config.Set(key, value);
    Status status = RunFromConfig(config).status();
    EXPECT_TRUE(status.IsInvalidArgument())
        << key << " = " << value << ": " << status.ToString();
    EXPECT_NE(status.message().find(key), std::string::npos)
        << status.ToString();
  }
  // A budget that parses is enforced: 1 MiB fails GraphX CD on R-MAT 10,
  // while the unset keys of the reference platform keep their defaults.
  Config config = *Config::Parse(
      "graphs = r\n"
      "graph.r.source = rmat\n"
      "graph.r.scale = 10\n"
      "platforms = reference, graphx\n"
      "algorithms = cd\n"
      "graphx.memory_budget_mb = 1\n"
      "graphx.workers = 2\n"
      "graphx.threads = 1\n"
      "monitor = false\n");
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), 2u);
  for (const auto& r : out->results) {
    if (r.platform == "graphx") {
      EXPECT_TRUE(r.status.IsResourceExhausted()) << r.status.ToString();
    } else {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    }
  }
}

TEST(RunConfigTest, BfsSourcePerGraph) {
  Config config = BaseConfig();
  config.SetInt("graph.tiny.bfs_source", 42);
  config.Set("algorithms", "bfs");
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok());
  // Validation passing implies the harness really used source 42 (the
  // validator recomputes with the same params).
  EXPECT_TRUE(out->results[0].validation.ok());
}

}  // namespace
}  // namespace gly::harness
