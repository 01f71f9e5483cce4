// ETL golden pins: the chunked text parser and the counting CSR builder
// must reproduce, byte for byte, what the serial parser and the
// sort-based builder produced before they were deleted — same edges in the
// same order, same vertex bound, same CSR arrays, and (for malformed input)
// the same `file:line:`-prefixed error message — with no pool (the inline
// path) and on 1-, 2- and 8-thread pools. This suite sweeps R-MAT graphs at
// scales 8/12/14, a social-datagen graph, and every parse policy, and builds
// degenerate CSR row-block cuts on 1 to 8 threads against the inline build.
// Labeled `ingest`: ci.sh also runs it under ASan and TSan.
//
// The golden rows were produced by the serial paths (ReadEdgeListText with
// no pool, GraphBuilder's sort-based build) on exactly these inputs. A
// mismatch prints the actual row in table syntax; regenerate a row only for
// a deliberate change of results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/cancellation.h"
#include "common/crc32.h"
#include "common/temp_dir.h"
#include "common/threadpool.h"
#include "datagen/rmat.h"
#include "datagen/social_datagen.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "harness/validator.h"
#include "ref/algorithms.h"

namespace gly {
namespace {

enum class ParityGraph { kRmat8, kRmat12, kRmat14, kSocial };

std::string ParityGraphName(ParityGraph which) {
  switch (which) {
    case ParityGraph::kRmat8: return "rmat8";
    case ParityGraph::kRmat12: return "rmat12";
    case ParityGraph::kRmat14: return "rmat14";
    case ParityGraph::kSocial: return "social";
  }
  return "?";
}

// The raw (pre-policy) edge lists: duplicates and self-loops left in, so
// the drop_* policies actually have work to do.
const EdgeList& ParityEdges(ParityGraph which) {
  static const EdgeList rmat8 = [] {
    datagen::RmatConfig config;
    config.scale = 8;
    config.edge_factor = 6;
    config.seed = 5;
    return datagen::RmatGenerator(config).Generate(nullptr).ValueOrDie();
  }();
  static const EdgeList rmat12 = [] {
    datagen::RmatConfig config;
    config.scale = 12;
    config.edge_factor = 8;
    config.seed = 5;
    return datagen::RmatGenerator(config).Generate(nullptr).ValueOrDie();
  }();
  static const EdgeList rmat14 = [] {
    datagen::RmatConfig config;
    config.scale = 14;
    config.edge_factor = 8;
    config.seed = 5;
    return datagen::RmatGenerator(config).Generate(nullptr).ValueOrDie();
  }();
  static const EdgeList social = [] {
    datagen::SocialDatagenConfig config;
    config.num_persons = 2000;
    config.degree_spec = "geometric:p=0.25";
    config.window_size = 128;
    config.seed = 21;
    return datagen::SocialDatagen(config)
        .Generate(nullptr)
        .ValueOrDie()
        .edges;
  }();
  switch (which) {
    case ParityGraph::kRmat8: return rmat8;
    case ParityGraph::kRmat12: return rmat12;
    case ParityGraph::kRmat14: return rmat14;
    case ParityGraph::kSocial: return social;
  }
  return rmat8;
}

enum class ParsePolicy { kDefault, kDropLoops, kDropDuplicates, kDropBoth };

std::string PolicyName(ParsePolicy policy) {
  switch (policy) {
    case ParsePolicy::kDefault: return "default";
    case ParsePolicy::kDropLoops: return "droploops";
    case ParsePolicy::kDropDuplicates: return "dropdups";
    case ParsePolicy::kDropBoth: return "dropboth";
  }
  return "?";
}

EdgeListParseOptions MakePolicy(ParsePolicy policy) {
  EdgeListParseOptions options;
  options.drop_self_loops = policy == ParsePolicy::kDropLoops ||
                            policy == ParsePolicy::kDropBoth;
  options.drop_duplicates = policy == ParsePolicy::kDropDuplicates ||
                            policy == ParsePolicy::kDropBoth;
  return options;
}

// A pool of `threads` workers, or none for 0 (the inline path).
class MaybePool {
 public:
  explicit MaybePool(size_t threads) {
    if (threads > 0) pool_.emplace(threads);
  }
  ThreadPool* get() { return pool_ ? &*pool_ : nullptr; }

 private:
  std::optional<ThreadPool> pool_;
};

std::string PoolName(size_t threads) {
  return threads == 0 ? "nopool" : "t" + std::to_string(threads);
}

// ------------------------------------------------------------- golden rows

// One frozen parse: the vertex bound, the edge count and the CRC32C of the
// edge array as the serial parser returned it.
struct ParseRow {
  ParityGraph graph;
  ParsePolicy policy;
  VertexId num_vertices;
  uint64_t num_edges;
  uint32_t edges_crc;
  bool operator==(const ParseRow&) const = default;
};

constexpr ParseRow kParseGolden[] = {
    {ParityGraph::kRmat8, ParsePolicy::kDefault, 255, 1536u, 0x9079f3e3u},
    {ParityGraph::kRmat8, ParsePolicy::kDropLoops, 255, 1499u, 0xb34eacc1u},
    {ParityGraph::kRmat8, ParsePolicy::kDropDuplicates, 255, 1173u,
     0xdcb5871du},
    {ParityGraph::kRmat8, ParsePolicy::kDropBoth, 255, 1160u, 0x6009d031u},
    {ParityGraph::kRmat12, ParsePolicy::kDefault, 4096, 32768u, 0x473a5fcau},
    {ParityGraph::kRmat12, ParsePolicy::kDropLoops, 4096, 32660u, 0x6596ad67u},
    {ParityGraph::kRmat12, ParsePolicy::kDropDuplicates, 4096, 28525u,
     0x91283be7u},
    {ParityGraph::kRmat12, ParsePolicy::kDropBoth, 4096, 28482u, 0x77e62559u},
    {ParityGraph::kRmat14, ParsePolicy::kDefault, 16383, 131072u, 0x79fca0e2u},
    {ParityGraph::kRmat14, ParsePolicy::kDropLoops, 16383, 130911u,
     0x7627e6a2u},
    {ParityGraph::kRmat14, ParsePolicy::kDropDuplicates, 16383, 119950u,
     0x3848d9f3u},
    {ParityGraph::kRmat14, ParsePolicy::kDropBoth, 16383, 119893u, 0xb308a5c0u},
    {ParityGraph::kSocial, ParsePolicy::kDefault, 1999, 3867u, 0x3206520eu},
    {ParityGraph::kSocial, ParsePolicy::kDropLoops, 1999, 3867u, 0x3206520eu},
    {ParityGraph::kSocial, ParsePolicy::kDropDuplicates, 1999, 3867u,
     0x3206520eu},
    {ParityGraph::kSocial, ParsePolicy::kDropBoth, 1999, 3867u, 0x3206520eu},
};

enum class BuildKind { kUndirected, kDirectedDedup, kDirectedRaw };

// One frozen CSR build: the vertex count, the adjacency-entry count and the
// CRC32C of the out-rows and in-rows (RowsCrc) the sort-based build made.
struct BuildRow {
  ParityGraph graph;
  BuildKind kind;
  VertexId num_vertices;
  uint64_t num_adjacency_entries;
  uint32_t out_crc;
  uint32_t in_crc;
  bool operator==(const BuildRow&) const = default;
};

constexpr BuildRow kBuildGolden[] = {
    {ParityGraph::kRmat8, BuildKind::kUndirected, 256, 2052u,
     0x5c290c22u, 0x5c290c22u},
    {ParityGraph::kRmat8, BuildKind::kDirectedDedup, 256, 1160u,
     0x7c141cf5u, 0x008b921cu},
    {ParityGraph::kRmat8, BuildKind::kDirectedRaw, 256, 1536u,
     0x6788c6deu, 0xe54be30fu},
    {ParityGraph::kRmat12, BuildKind::kUndirected, 4096, 52996u,
     0x6f303d9fu, 0x6f303d9fu},
    {ParityGraph::kRmat12, BuildKind::kDirectedDedup, 4096, 28482u,
     0x28c1d683u, 0x308f2cdau},
    {ParityGraph::kRmat12, BuildKind::kDirectedRaw, 4096, 32768u,
     0xca549396u, 0x4c4620e6u},
    {ParityGraph::kRmat14, BuildKind::kUndirected, 16384, 227936u,
     0xee22d41au, 0xee22d41au},
    {ParityGraph::kRmat14, BuildKind::kDirectedDedup, 16384, 119893u,
     0xf8902b9eu, 0xda61cd27u},
    {ParityGraph::kRmat14, BuildKind::kDirectedRaw, 16384, 131072u,
     0x90bbbc01u, 0x7e72eea4u},
    {ParityGraph::kSocial, BuildKind::kUndirected, 2000, 7734u,
     0x266de552u, 0x266de552u},
    {ParityGraph::kSocial, BuildKind::kDirectedDedup, 2000, 3867u,
     0xdff2fd62u, 0xb783649fu},
    {ParityGraph::kSocial, BuildKind::kDirectedRaw, 2000, 3867u,
     0xdff2fd62u, 0xb783649fu},
};

const char* GraphEnum(ParityGraph which) {
  switch (which) {
    case ParityGraph::kRmat8: return "ParityGraph::kRmat8";
    case ParityGraph::kRmat12: return "ParityGraph::kRmat12";
    case ParityGraph::kRmat14: return "ParityGraph::kRmat14";
    case ParityGraph::kSocial: return "ParityGraph::kSocial";
  }
  return "?";
}

const char* PolicyEnum(ParsePolicy policy) {
  switch (policy) {
    case ParsePolicy::kDefault: return "ParsePolicy::kDefault";
    case ParsePolicy::kDropLoops: return "ParsePolicy::kDropLoops";
    case ParsePolicy::kDropDuplicates: return "ParsePolicy::kDropDuplicates";
    case ParsePolicy::kDropBoth: return "ParsePolicy::kDropBoth";
  }
  return "?";
}

const char* KindEnum(BuildKind kind) {
  switch (kind) {
    case BuildKind::kUndirected: return "BuildKind::kUndirected";
    case BuildKind::kDirectedDedup: return "BuildKind::kDirectedDedup";
    case BuildKind::kDirectedRaw: return "BuildKind::kDirectedRaw";
  }
  return "?";
}

std::string ToString(const ParseRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{%s, %s, %u, %lluu, 0x%08xu}",
                GraphEnum(r.graph), PolicyEnum(r.policy), r.num_vertices,
                static_cast<unsigned long long>(r.num_edges), r.edges_crc);
  return buf;
}

std::string ToString(const BuildRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{%s, %s, %u, %lluu, 0x%08xu, 0x%08xu}",
                GraphEnum(r.graph), KindEnum(r.kind), r.num_vertices,
                static_cast<unsigned long long>(r.num_adjacency_entries),
                r.out_crc, r.in_crc);
  return buf;
}

ParseRow ParseGolden(ParityGraph graph, ParsePolicy policy) {
  for (const ParseRow& row : kParseGolden) {
    if (row.graph == graph && row.policy == policy) return row;
  }
  ADD_FAILURE() << "no golden parse row";
  return {};
}

BuildRow BuildGolden(ParityGraph graph, BuildKind kind) {
  for (const BuildRow& row : kBuildGolden) {
    if (row.graph == graph && row.kind == kind) return row;
  }
  ADD_FAILURE() << "no golden build row";
  return {};
}

ParseRow ActualParseRow(ParityGraph graph, ParsePolicy policy,
                        const EdgeList& edges) {
  return {graph, policy, edges.num_vertices(), edges.num_edges(),
          Crc32c(edges.edges().data(), edges.num_edges() * sizeof(Edge))};
}

// CRC32C over every row in vertex order, each folded as its uint64 length
// followed by its targets: pins the offsets and the target array together.
uint32_t RowsCrc(const Graph& g, bool out) {
  uint32_t state = kCrc32cInit;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto row = out ? g.OutNeighbors(v) : g.InNeighbors(v);
    const uint64_t degree = row.size();
    state = Crc32cUpdate(state, &degree, sizeof(degree));
    state = Crc32cUpdate(state, row.data(), row.size() * sizeof(VertexId));
  }
  return Crc32cFinalize(state);
}

BuildRow ActualBuildRow(ParityGraph graph, BuildKind kind, const Graph& g) {
  return {graph,         kind, g.num_vertices(), g.num_adjacency_entries(),
          RowsCrc(g, true), RowsCrc(g, false)};
}

Result<Graph> Build(const EdgeList& edges, BuildKind kind, ThreadPool* pool) {
  CsrBuildOptions options;
  options.pool = pool;
  if (kind == BuildKind::kUndirected) {
    return GraphBuilder::Undirected(edges, options);
  }
  options.dedup = kind == BuildKind::kDirectedDedup;
  return GraphBuilder::Directed(edges, options);
}

// ------------------------------------------------------------ parse parity

using ParseParityParam = std::tuple<ParityGraph, ParsePolicy, size_t>;

class ParseParityTest : public ::testing::TestWithParam<ParseParityParam> {};

TEST_P(ParseParityTest, ParallelParseIsByteIdenticalToSerial) {
  const auto& [which, policy, threads] = GetParam();
  auto dir = TempDir::Create("etl_parity");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->File(ParityGraphName(which) + ".e");
  ASSERT_TRUE(WriteEdgeListText(ParityEdges(which), path).ok());

  MaybePool pool(threads);
  auto parsed =
      ReadEdgeListText(path, MakePolicy(policy), {.pool = pool.get()});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ParseRow actual = ActualParseRow(which, policy, *parsed);
  EXPECT_EQ(actual, ParseGolden(which, policy))
      << "actual row: " << ToString(actual);
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, ParseParityTest,
    ::testing::Combine(
        ::testing::Values(ParityGraph::kRmat8, ParityGraph::kRmat12,
                          ParityGraph::kRmat14, ParityGraph::kSocial),
        ::testing::Values(ParsePolicy::kDefault, ParsePolicy::kDropLoops,
                          ParsePolicy::kDropDuplicates,
                          ParsePolicy::kDropBoth),
        ::testing::Values(size_t{0}, size_t{1}, size_t{2}, size_t{8})),
    [](const ::testing::TestParamInfo<ParseParityParam>& info) {
      return ParityGraphName(std::get<0>(info.param)) + "_" +
             PolicyName(std::get<1>(info.param)) + "_" +
             PoolName(std::get<2>(info.param));
    });

TEST(ParseParityTest, VertexFileParityAndIsolatedVertices) {
  auto dir = TempDir::Create("etl_parity");
  ASSERT_TRUE(dir.ok());
  const EdgeList& edges = ParityEdges(ParityGraph::kRmat8);
  std::string prefix = dir->File("withv");
  ASSERT_TRUE(WriteEdgeListText(edges, prefix + ".e").ok());
  {
    std::ofstream v(prefix + ".v");
    for (VertexId id = 0; id < edges.num_vertices() + 5; ++id) {
      v << id << "\n";
    }
  }
  const ParseRow golden =
      ParseGolden(ParityGraph::kRmat8, ParsePolicy::kDefault);
  for (size_t threads : {size_t{0}, size_t{8}}) {
    SCOPED_TRACE(PoolName(threads));
    MaybePool pool(threads);
    auto read = ReadGraphalyticsDataset(prefix, {}, {.pool = pool.get()});
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->num_vertices(), edges.num_vertices() + 5);
    EXPECT_EQ(read->num_edges(), golden.num_edges);
    EXPECT_EQ(Crc32c(read->edges().data(), read->num_edges() * sizeof(Edge)),
              golden.edges_crc);
  }
}

// ----------------------------------------------------- error-message parity

// Writes `lines` joined by '\n' and returns the parse status on `pool`.
Status ParseStatus(const TempDir& dir, const std::string& name,
                   const std::vector<std::string>& lines,
                   const EdgeListParseOptions& options, ThreadPool* pool) {
  std::string path = dir.File(name);
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << "\n";
  out.close();
  return ReadEdgeListText(path, options, {.pool = pool}).status();
}

// The serial parser's messages, as `<path>` + suffix.
TEST(ParseErrorParityTest, MalformedLineMessagesMatchSerial) {
  auto dir = TempDir::Create("etl_parity");
  ASSERT_TRUE(dir.ok());
  struct Case {
    std::vector<std::string> lines;
    std::string message_suffix;
  };
  const std::vector<Case> cases = {
      {{"0 1", "1 2", "2 x"}, ":3: cannot parse uint64: 'x'"},
      {{"0 1", "5", "1 2"}, ":2: expected 'src dst'"},
      {{"0 1", "", "1 2", "3"}, ":4: expected 'src dst'"},
      {{"junk"}, ":1: expected 'src dst'"},
      {{"0 1", "1 2x"}, ":2: cannot parse uint64: '2x'"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string name = "err" + std::to_string(i) + ".e";
    for (size_t threads : {size_t{0}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("case " + std::to_string(i) + " " + PoolName(threads));
      MaybePool pool(threads);
      Status s = ParseStatus(*dir, name, cases[i].lines,
                             EdgeListParseOptions{}, pool.get());
      EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
      EXPECT_EQ(s.message(), dir->File(name) + cases[i].message_suffix);
    }
  }
}

TEST(ParseErrorParityTest, VertexIdLimitMessagesMatchSerial) {
  auto dir = TempDir::Create("etl_parity");
  ASSERT_TRUE(dir.ok());
  EdgeListParseOptions options;
  options.max_vertex_id = 10;
  std::vector<std::string> lines = {"0 1", "3 9", "2 11", "0 2"};
  for (size_t threads : {size_t{0}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(PoolName(threads));
    MaybePool pool(threads);
    Status s = ParseStatus(*dir, "limit.e", lines, options, pool.get());
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_EQ(s.message(),
              dir->File("limit.e") + ":3: vertex id 11 exceeds limit 10");
  }
}

TEST(ParseErrorParityTest, EarliestErrorLineWinsAcrossChunks) {
  // A file long enough that 8 threads split it into many chunks, with two
  // errors in different chunks: every path must report the earlier one.
  auto dir = TempDir::Create("etl_parity");
  ASSERT_TRUE(dir.ok());
  std::vector<std::string> lines;
  lines.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    lines.push_back(std::to_string(i % 64) + " " + std::to_string(i % 97));
  }
  lines[15000] = "late bad line";
  lines[4321] = "early bad line";
  for (size_t threads : {size_t{0}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(PoolName(threads));
    MaybePool pool(threads);
    Status s = ParseStatus(*dir, "multi.e", lines, EdgeListParseOptions{},
                           pool.get());
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_EQ(s.message(),
              dir->File("multi.e") + ":4322: cannot parse uint64: 'early'");
  }
}

// A `.v` error names its file and line, as every `.e` error does.
TEST(ParseErrorParityTest, VertexFileMessagesNameTheLine) {
  auto dir = TempDir::Create("etl_parity");
  ASSERT_TRUE(dir.ok());
  struct Case {
    std::string text;
    std::string message_suffix;
  };
  const std::vector<Case> cases = {
      {"0\n1\nxyz\n3\n", ":3: cannot parse uint64: 'xyz'"},
      {"0\n# ids\n\n 7 8 \n", ":4: cannot parse uint64: '7 8'"},
      {"0\n4294967295", ":2: vertex id too large"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const std::string path = dir->File("err" + std::to_string(i) + ".v");
    std::ofstream(path) << cases[i].text;
    EdgeList edges;
    Status s = ApplyVertexFile(path, &edges);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_EQ(s.message(), path + cases[i].message_suffix);
  }
}

// ------------------------------------------------------------ build parity

using BuildParityParam = std::tuple<ParityGraph, size_t>;

class BuildParityTest : public ::testing::TestWithParam<BuildParityParam> {};

TEST_P(BuildParityTest, ParallelCsrBuildIsByteIdenticalToSerial) {
  const auto& [which, threads] = GetParam();
  MaybePool pool(threads);
  for (BuildKind kind : {BuildKind::kUndirected, BuildKind::kDirectedDedup,
                         BuildKind::kDirectedRaw}) {
    SCOPED_TRACE(KindEnum(kind));
    auto built = Build(ParityEdges(which), kind, pool.get());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE(built->Validate().ok());
    const BuildRow actual = ActualBuildRow(which, kind, *built);
    EXPECT_EQ(actual, BuildGolden(which, kind))
        << "actual row: " << ToString(actual);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, BuildParityTest,
    ::testing::Combine(
        ::testing::Values(ParityGraph::kRmat8, ParityGraph::kRmat12,
                          ParityGraph::kRmat14, ParityGraph::kSocial),
        ::testing::Values(size_t{0}, size_t{1}, size_t{2}, size_t{8})),
    [](const ::testing::TestParamInfo<BuildParityParam>& info) {
      return ParityGraphName(std::get<0>(info.param)) + "_" +
             PoolName(std::get<1>(info.param));
    });

// ------------------------------------------------------- block-cut edges

// Graphs where the CSR build's row blocks degenerate. The star's hub holds
// most of the directed out-entries and about half of the undirected ones,
// so the blocks around it are empty; 0 and 1 vertices leave fewer rows
// than blocks; trailing isolated vertices make blocks of empty rows;
// repeated edges and self-loops send the deduped directed build through
// its in-side scatter from the out-CSR.
enum class CutGraph { kStar, kEmpty, kOneVertex, kTrailingIsolated,
                      kDirectedDuplicates };

EdgeList CutEdges(CutGraph which) {
  EdgeList edges;
  switch (which) {
    case CutGraph::kStar:
      for (VertexId v = 0; v < 1000; ++v) {
        if (v != 600) edges.Add(600, v);
      }
      for (VertexId v = 0; v < 20; ++v) edges.Add(v, v + 1);
      break;
    case CutGraph::kEmpty:
      break;
    case CutGraph::kOneVertex:
      edges.Add(0, 0);
      edges.Add(0, 0);
      break;
    case CutGraph::kTrailingIsolated:
      edges = EdgeList(5000);
      for (VertexId v = 0; v < 300; ++v) edges.Add(v % 64, (v * 7 + 3) % 64);
      break;
    case CutGraph::kDirectedDuplicates:
      for (VertexId v = 0; v < 2000; ++v) {
        const VertexId src = (v * 13) % 300;
        const VertexId dst = (v * 29 + 1) % 300;
        edges.Add(src, dst);
        if (v % 3 == 0) edges.Add(src, dst);
        if (v % 7 == 0) edges.Add(src, src);
      }
      break;
  }
  return edges;
}

std::string CutGraphName(CutGraph which) {
  switch (which) {
    case CutGraph::kStar: return "star";
    case CutGraph::kEmpty: return "empty";
    case CutGraph::kOneVertex: return "one_vertex";
    case CutGraph::kTrailingIsolated: return "trailing_isolated";
    case CutGraph::kDirectedDuplicates: return "directed_duplicates";
  }
  return "?";
}

// Row for row, both sides: equal rows mean equal offsets and targets.
void ExpectSameArrays(const Graph& actual, const Graph& expected) {
  ASSERT_EQ(actual.num_vertices(), expected.num_vertices());
  EXPECT_EQ(actual.num_edges(), expected.num_edges());
  EXPECT_EQ(actual.num_adjacency_entries(), expected.num_adjacency_entries());
  for (VertexId v = 0; v < expected.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(actual.OutNeighbors(v),
                                   expected.OutNeighbors(v)))
        << "out-row " << v;
    EXPECT_TRUE(std::ranges::equal(actual.InNeighbors(v),
                                   expected.InNeighbors(v)))
        << "in-row " << v;
  }
}

// A directed graph's in-rows are its out-rows transposed, each ascending.
void ExpectInRowsTransposeOutRows(const Graph& g) {
  std::vector<std::vector<VertexId>> in_rows(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.OutNeighbors(v)) in_rows[w].push_back(v);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(g.InNeighbors(v), in_rows[v]))
        << "in-row " << v;
  }
}

class BlockCutTest : public ::testing::TestWithParam<CutGraph> {};

TEST_P(BlockCutTest, PooledBuildsMatchTheInlineBuild) {
  const EdgeList edges = CutEdges(GetParam());
  for (BuildKind kind : {BuildKind::kUndirected, BuildKind::kDirectedDedup,
                         BuildKind::kDirectedRaw}) {
    SCOPED_TRACE(KindEnum(kind));
    auto inline_build = Build(edges, kind, nullptr);
    ASSERT_TRUE(inline_build.ok()) << inline_build.status().ToString();
    ASSERT_TRUE(inline_build->Validate().ok());
    EXPECT_EQ(inline_build->num_vertices(), edges.num_vertices());
    if (kind != BuildKind::kUndirected) {
      ExpectInRowsTransposeOutRows(*inline_build);
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      SCOPED_TRACE(PoolName(threads));
      MaybePool pool(threads);
      auto pooled = Build(edges, kind, pool.get());
      ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
      ExpectSameArrays(*pooled, *inline_build);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Degenerate, BlockCutTest,
    ::testing::Values(CutGraph::kStar, CutGraph::kEmpty, CutGraph::kOneVertex,
                      CutGraph::kTrailingIsolated,
                      CutGraph::kDirectedDuplicates),
    [](const ::testing::TestParamInfo<CutGraph>& info) {
      return CutGraphName(info.param);
    });

// --------------------------------------------- end-to-end pipeline parity

TEST(EtlPipelineParityTest, FileToGraphMatchesSerialAtEveryStage) {
  auto dir = TempDir::Create("etl_parity");
  ASSERT_TRUE(dir.ok());
  const EdgeList& edges = ParityEdges(ParityGraph::kRmat12);
  std::string path = dir->File("pipeline.e");
  ASSERT_TRUE(WriteEdgeListText(edges, path).ok());

  // The parsed list has the generator's edges and vertex bound, so the
  // graph built from it must match the generator list's build row.
  for (size_t threads : {size_t{0}, size_t{8}}) {
    SCOPED_TRACE(PoolName(threads));
    MaybePool pool(threads);
    auto parsed = ReadEdgeListText(path, {}, {.pool = pool.get()});
    ASSERT_TRUE(parsed.ok());
    const ParseRow parse_row = ActualParseRow(
        ParityGraph::kRmat12, ParsePolicy::kDefault, *parsed);
    EXPECT_EQ(parse_row,
              ParseGolden(ParityGraph::kRmat12, ParsePolicy::kDefault))
        << "actual row: " << ToString(parse_row);
    auto built = Build(*parsed, BuildKind::kUndirected, pool.get());
    ASSERT_TRUE(built.ok());
    const BuildRow build_row =
        ActualBuildRow(ParityGraph::kRmat12, BuildKind::kUndirected, *built);
    EXPECT_EQ(build_row,
              BuildGolden(ParityGraph::kRmat12, BuildKind::kUndirected))
        << "actual row: " << ToString(build_row);
  }
}

// ------------------------------------------------- inline-path edge cases

TEST(EtlInlineTest, NullPoolEdgeCases) {
  auto dir = TempDir::Create("etl_parity");
  ASSERT_TRUE(dir.ok());
  auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream out(dir->File(name));
    out << text;
    return dir->File(name);
  };

  {
    SCOPED_TRACE("empty edge list");
    auto parsed = ReadEdgeListText(write("empty.e", ""));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->num_vertices(), 0u);
    EXPECT_EQ(parsed->num_edges(), 0u);
    for (BuildKind kind : {BuildKind::kUndirected, BuildKind::kDirectedDedup,
                           BuildKind::kDirectedRaw}) {
      auto built = Build(*parsed, kind, nullptr);
      ASSERT_TRUE(built.ok());
      EXPECT_EQ(built->num_vertices(), 0u);
      EXPECT_EQ(built->num_adjacency_entries(), 0u);
      EXPECT_TRUE(built->Validate().ok());
    }
  }
  {
    SCOPED_TRACE("only self-loops");
    auto parsed = ReadEdgeListText(write("loops.e", "3 3\n5 5\n3 3\n"));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->num_vertices(), 6u);
    EXPECT_EQ(parsed->num_edges(), 3u);
    for (BuildKind kind : {BuildKind::kUndirected, BuildKind::kDirectedDedup}) {
      auto built = Build(*parsed, kind, nullptr);
      ASSERT_TRUE(built.ok());
      EXPECT_EQ(built->num_vertices(), 6u);
      EXPECT_EQ(built->num_adjacency_entries(), 0u);
      EXPECT_TRUE(built->Validate().ok());
    }
    auto raw = Build(*parsed, BuildKind::kDirectedRaw, nullptr);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(raw->num_adjacency_entries(), 3u);
    EXPECT_EQ(std::vector<VertexId>(raw->OutNeighbors(3).begin(),
                                    raw->OutNeighbors(3).end()),
              (std::vector<VertexId>{3, 3}));
    EXPECT_TRUE(raw->Validate().ok());
  }
  {
    SCOPED_TRACE(".v-only isolated high-id vertex");
    write("iso.e", "0 1\n");
    write("iso.v", "0\n1\n1000\n");
    auto parsed = ReadGraphalyticsDataset(dir->File("iso"));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->num_vertices(), 1001u);
    auto built = Build(*parsed, BuildKind::kUndirected, nullptr);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built->num_vertices(), 1001u);
    EXPECT_EQ(built->num_edges(), 1u);
    EXPECT_EQ(built->Degree(1000), 0u);
    EXPECT_TRUE(built->Validate().ok());
  }
  {
    SCOPED_TRACE("pre-cancelled token");
    CancelToken token;
    token.Cancel(CancelReason::kDeadline, "budget spent");
    const Status expected = token.ToStatus();
    const std::string path = write("cancel.e", "0 1\n1 2\n");
    Status parsed = ReadEdgeListText(path, {}, {.cancel = &token}).status();
    EXPECT_EQ(parsed.code(), expected.code());
    EXPECT_EQ(parsed.message(), expected.message());
    const EdgeList& edges = ParityEdges(ParityGraph::kRmat8);
    for (Result<Graph> built :
         {GraphBuilder::Undirected(edges, {.cancel = &token}),
          GraphBuilder::Directed(edges, {.cancel = &token})}) {
      EXPECT_EQ(built.status().code(), expected.code());
      EXPECT_EQ(built.status().message(), expected.message());
    }
  }
}

// ------------------------------------------------------- reorder + map-back

TEST(ReorderOutputTest, BfsConnPrMapBackToOriginalIds) {
  const EdgeList& edges = ParityEdges(ParityGraph::kRmat8);
  Graph graph = GraphBuilder::Undirected(edges).ValueOrDie();
  ReorderedGraph reordered = graph.ReorderByDegree();
  ASSERT_TRUE(reordered.graph.Validate().ok());

  AlgorithmParams params;
  params.bfs.source = 3;
  params.pr = PrParams{10, 0.85};
  AlgorithmParams mapped_params = params;
  mapped_params.bfs.source = reordered.perm.old_to_new[params.bfs.source];

  for (AlgorithmKind kind : {AlgorithmKind::kBfs, AlgorithmKind::kConn,
                             AlgorithmKind::kPr, AlgorithmKind::kStats}) {
    SCOPED_TRACE(AlgorithmKindName(kind));
    ASSERT_TRUE(harness::RelabelingInvariant(kind));
    AlgorithmOutput on_reordered =
        ref::Run(reordered.graph, kind, mapped_params);
    AlgorithmOutput mapped = harness::MapOutputToOriginalIds(
        kind, reordered.perm.new_to_old, std::move(on_reordered));
    Status validation =
        harness::ValidateOutput(graph, kind, params, mapped);
    EXPECT_TRUE(validation.ok()) << validation.ToString();
  }
  EXPECT_FALSE(harness::RelabelingInvariant(AlgorithmKind::kCd));
  EXPECT_FALSE(harness::RelabelingInvariant(AlgorithmKind::kEvo));
}

TEST(ReorderOutputTest, ConnLabelsAreSmallestOriginalIdPerComponent) {
  // Two components: {0,1,2} and {3,4}. Degree reordering relabels them;
  // after map-back, every vertex's label must be its component's smallest
  // ORIGINAL id — exactly the reference convention.
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(0, 2);
  edges.Add(3, 4);
  Graph graph = GraphBuilder::Undirected(edges).ValueOrDie();
  ReorderedGraph reordered = graph.ReorderByDegree();
  AlgorithmOutput out = ref::Run(reordered.graph, AlgorithmKind::kConn, {});
  AlgorithmOutput mapped = harness::MapOutputToOriginalIds(
      AlgorithmKind::kConn, reordered.perm.new_to_old, std::move(out));
  std::vector<int64_t> expected = {0, 0, 0, 3, 3};
  EXPECT_EQ(mapped.vertex_values, expected);
}

}  // namespace
}  // namespace gly
