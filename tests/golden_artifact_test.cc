// Golden end-to-end artifact test: one fixed-seed single-cell benchmark
// run through RunFromConfig, compared byte-for-byte against committed
// golden copies of the three report artifacts (journal.jsonl, results.csv,
// results.jsonl) with the timing/host-dependent fields masked out.
//
// This pins the *whole* artifact pipeline — config parsing, dataset
// generation, the scheduler-backed harness, validation, journaling, CSV
// and JSONL rendering — so an accidental schema change, field reorder, or
// nondeterminism in any layer shows up as a readable diff.
//
// Regenerate after an intentional schema change:
//
//   GLY_REGEN_GOLDEN=1 ./golden_artifact_test
//
// which rewrites tests/data/golden/ in the source tree (commit the diff).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "common/temp_dir.h"
#include "harness/report.h"
#include "harness/run_config.h"

namespace gly::harness {
namespace {

// The run is deterministic modulo wall-clock and machine-load effects;
// exactly the fields the result schema flags volatile carry them.
// Everything else — statuses, validation, traversed edges, output
// checksums, attempts, metrics — must match the goldens bit-for-bit.
const std::vector<std::string> kVolatileFields = VolatileResultFields();

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot read " << path;
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

/// Replaces the value of every volatile numeric field with `0`.
std::string MaskJsonl(const std::string& text) {
  static const std::regex volatile_field(
      "\"(" + Join(kVolatileFields, "|") + ")\":[-+0-9.eE]+");
  return std::regex_replace(text, volatile_field, "\"$1\":0");
}

/// Masks volatile columns by *name*: the header row is parsed, the
/// positions of the timing columns located, and those fields replaced —
/// so the golden survives column additions elsewhere and fails loudly
/// (header mismatch) on schema changes, never silently.
std::string MaskCsv(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  CsvWriter csv(&out);
  std::string line;
  std::vector<size_t> volatile_cols;
  bool header = true;
  while (std::getline(in, line)) {
    std::vector<std::string> fields = ParseCsvLine(line);
    if (header) {
      header = false;
      for (size_t i = 0; i < fields.size(); ++i) {
        for (const std::string& name : kVolatileFields) {
          if (fields[i] == name) volatile_cols.push_back(i);
        }
      }
      EXPECT_EQ(volatile_cols.size(), kVolatileFields.size())
          << "results.csv header no longer names every timing column";
    } else {
      for (size_t col : volatile_cols) {
        if (col < fields.size()) fields[col] = "0";
      }
    }
    csv.WriteRow(fields);
  }
  return out.str();
}

TEST(GoldenArtifactTest, SingleCellRunMatchesCommittedArtifacts) {
  auto tmp = TempDir::Create("golden-artifact");
  ASSERT_TRUE(tmp.ok());
  const std::string report_dir = tmp->File("report");

  // Fixed-seed R-MAT, reference platform, BFS: the cheapest cell that
  // still exercises dataset generation, the scheduler path, validation,
  // checksumming, and all three artifact writers.
  auto config = Config::Parse(
      "graphs = golden\n"
      "graph.golden.source = rmat\n"
      "graph.golden.scale = 8\n"
      "graph.golden.edge_factor = 16\n"
      "graph.golden.seed = 7\n"
      "graph.golden.bfs_source = 0\n"
      "platforms = reference\n"
      "algorithms = bfs\n"
      "validate = true\n"
      "monitor = false\n"
      "report.dir = " +
      report_dir + "\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  auto run = RunFromConfig(*config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->results.size(), 1u);
  ASSERT_TRUE(run->results[0].status.ok());
  ASSERT_TRUE(run->results[0].validation.ok());

  struct Artifact {
    const char* name;
    std::string (*mask)(const std::string&);
  };
  const Artifact artifacts[] = {{"journal.jsonl", MaskJsonl},
                                {"results.csv", MaskCsv},
                                {"results.jsonl", MaskJsonl}};
  const std::string golden_dir = std::string(GLY_TESTS_DIR) + "/data/golden";

  if (std::getenv("GLY_REGEN_GOLDEN") != nullptr) {
    for (const Artifact& a : artifacts) {
      std::ofstream out(golden_dir + "/" + a.name);
      ASSERT_TRUE(out.good()) << golden_dir;
      out << a.mask(ReadFile(report_dir + "/" + a.name));
    }
    GTEST_SKIP() << "goldens regenerated into " << golden_dir
                 << " — review and commit the diff";
  }

  for (const Artifact& a : artifacts) {
    SCOPED_TRACE(a.name);
    EXPECT_EQ(a.mask(ReadFile(report_dir + "/" + a.name)),
              ReadFile(golden_dir + "/" + a.name));
  }
}

}  // namespace
}  // namespace gly::harness
