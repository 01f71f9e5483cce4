// Tests for the config-driven benchmark workflow (§2.3's user steps).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/string_util.h"
#include "common/temp_dir.h"
#include "graph/io.h"
#include "graph/graph.h"
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
  EXPECT_TRUE(RunFromConfig(bad_platform).status().IsInvalidArgument());

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

// Supervision keys that parse run: a 5 ms deadline on two scheduler slots.
TEST(RunConfigTest, SupervisionKeysMustParse) {
  Config config = BaseConfig();
  config.Set("timeout_s", "0.005");
  config.Set("harness.jobs", "2");
  auto out = RunFromConfig(config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->results.size(), 2u);
}

// The common platform keys reach the adapter: a 1 MiB budget fails GraphX
// CD on R-MAT 10, while the unset keys of the reference platform keep their
// defaults.
TEST(RunConfigTest, PlatformKeysMustParse) {
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

// The only dataset is a missing file, so a run whose keys all pass the
// schema fails on that file; any other failure came before ETL.
Config MissingFileConfig() {
  return *Config::Parse(
      "graphs = g\n"
      "graph.g.source = file\n"
      "graph.g.path = /no/such/file.e\n"
      "platforms = reference\n"
      "algorithms = bfs\n"
      "monitor = false\n");
}

// Every schema row with its `*` bound: a dataset `*` to `other`, which
// `graphs` does not list, and a platform `*` to each registered platform.
std::vector<std::pair<std::string, const KeySpec*>> SchemaKeys() {
  std::vector<std::pair<std::string, const KeySpec*>> keys;
  for (const KeySpec& row : ConfigSchema()) {
    std::string name(row.name);
    const size_t star = name.find('*');
    if (star == std::string::npos) {
      keys.emplace_back(name, &row);
    } else if (star == 0) {
      for (const std::string& platform : RegisteredPlatforms()) {
        keys.emplace_back(platform + name.substr(1), &row);
      }
    } else {
      keys.emplace_back(name.replace(star, 1, "other"), &row);
    }
  }
  return keys;
}

// Each key takes a valid value, and fails the run before any graph is built
// with a malformed or out-of-range value (where its type has one) or a
// one-letter misspelling, naming the key as written; a misspelling also
// names the key it is nearest to.
TEST(RunConfigTest, SchemaRejectsMalformedAndMisspelledKeys) {
  auto dir = TempDir::Create("gly-runcfg");
  ASSERT_TRUE(dir.ok());
  const std::vector<std::pair<std::string, const KeySpec*>> keys = SchemaKeys();
  ASSERT_EQ(keys.size(), 66u);  // 54 rows; 3 of them for each of 5 platforms
  for (const auto& [key, row] : keys) {
    std::string valid;
    std::vector<std::string> bad;
    switch (row->type) {
      case KeyType::kString:
        valid = dir->File("x");
        break;
      case KeyType::kList:
        // Items are trimmed, and names match in any case.
        valid = key == "graphs"      ? "g"
                : key == "platforms" ? " Reference, giraph"
                                     : "BFS, conn ";
        if (key != "graphs") bad = {"bogus"};
        break;
      case KeyType::kEnum:
        valid = std::string(Trim(Split(row->values, '|')[0]));
        bad = {"bogus"};
        break;
      case KeyType::kUint32:
        valid = "1";
        bad = {"1O", "4294967296"};
        break;
      case KeyType::kUint64:
        valid = "1";
        bad = {"-3", "18446744073709551616"};
        break;
      case KeyType::kDouble:
        valid = "0.5";
        bad = {"2ms"};
        break;
      case KeyType::kBool:
        valid = "false";
        bad = {"maybe"};
        break;
      case KeyType::kMib:
        valid = "1";
        bad = {"1MB", "17592186044416"};  // 2^44 MiB: << 20 wraps
        break;
    }
    Config config = MissingFileConfig();
    config.Set(key, valid);
    Status status = RunFromConfig(config).status();
    EXPECT_NE(status.message().find("/no/such/file"), std::string::npos)
        << key << " = " << valid << ": " << status.ToString();
    for (const std::string& value : bad) {
      config.Set(key, value);
      status = RunFromConfig(config).status();
      EXPECT_TRUE(status.IsInvalidArgument())
          << key << " = " << value << ": " << status.ToString();
      EXPECT_NE(status.message().find(key + ": "), std::string::npos)
          << key << " = " << value << ": " << status.ToString();
    }
    const std::string misspelled = key.substr(0, key.size() - 1);
    config = MissingFileConfig();
    config.Set(misspelled, valid);
    status = RunFromConfig(config).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << misspelled << ": " << status.ToString();
    EXPECT_NE(status.message().find(misspelled + ": unknown key (did you mean " +
                                    key + "?)"),
              std::string::npos)
        << status.ToString();
  }
}

// RunBenchmark callers that build RunSpec::platform_config themselves get
// the same check when the platforms are opened.
TEST(RunConfigTest, PlatformConfigKeysAreCheckedAtOpen) {
  EdgeList edges;
  edges.Add(0, 1);
  Graph graph = GraphBuilder::Undirected(edges).ValueOrDie();
  RunSpec spec;
  spec.platforms = {"reference", "giraph"};
  spec.platform_config.SetInt("giraph.wokers", 3);
  spec.datasets.push_back({"g", &graph, {}});
  spec.algorithms = {AlgorithmKind::kBfs};
  spec.monitor = false;
  Status status = RunBenchmark(spec).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find(
                "giraph.wokers: unknown key (did you mean giraph.workers?)"),
            std::string::npos)
      << status.ToString();
}

// README.md's key table documents exactly the schema's keys.
TEST(RunConfigTest, ReadmeKeyTableMatchesSchema) {
  std::ifstream in(GLY_TESTS_DIR "/../README.md");
  ASSERT_TRUE(in) << "cannot read README.md";
  std::stringstream text;
  text << in.rdbuf();
  const std::string readme = text.str();
  const size_t begin = readme.find("\n## Configuration keys\n");
  ASSERT_NE(begin, std::string::npos);
  const size_t end = readme.find("\n## ", begin + 1);
  std::set<std::string> documented;
  std::istringstream section(readme.substr(begin, end - begin));
  for (std::string line; std::getline(section, line);) {
    if (line.starts_with("| `")) {
      documented.insert(line.substr(3, line.find('`', 3) - 3));
    }
  }
  std::set<std::string> declared;
  for (const KeySpec& spec : ConfigSchema()) declared.emplace(spec.name);
  EXPECT_EQ(documented, declared);
}

}  // namespace
}  // namespace gly::harness
