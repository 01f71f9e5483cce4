// Unit tests for the graph module: edge lists, CSR construction, I/O,
// partitioners.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>

#include "common/temp_dir.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/partition.h"

namespace gly {
namespace {

EdgeList TriangleWithTail() {
  // 0-1, 1-2, 2-0 triangle plus 2-3 tail.
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(2, 0);
  edges.Add(2, 3);
  return edges;
}

TEST(EdgeListTest, TracksVertexBound) {
  EdgeList edges;
  edges.Add(3, 9);
  EXPECT_EQ(edges.num_vertices(), 10u);
  edges.Add(11, 2);
  EXPECT_EQ(edges.num_vertices(), 12u);
  EXPECT_EQ(edges.num_edges(), 2u);
}

TEST(EdgeListTest, DeduplicateDropsLoopsAndRepeats) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(0, 1);
  edges.Add(1, 1);  // loop
  edges.Add(1, 0);  // distinct orientation is kept
  edges.DeduplicateAndDropLoops();
  EXPECT_EQ(edges.num_edges(), 2u);
}

TEST(EdgeListTest, AppendMergesBounds) {
  EdgeList a;
  a.Add(0, 1);
  EdgeList b(50);
  b.Add(2, 3);
  a.Append(b);
  EXPECT_EQ(a.num_edges(), 2u);
  EXPECT_EQ(a.num_vertices(), 50u);
}

TEST(GraphBuilderTest, DirectedAdjacency) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(2, 1);
  auto g = GraphBuilder::Directed(edges);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->undirected());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_EQ(g->OutDegree(0), 2u);
  EXPECT_EQ(g->InDegree(1), 2u);
  EXPECT_EQ(g->OutDegree(1), 0u);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_FALSE(g->HasEdge(1, 0));
  EXPECT_TRUE(g->Validate().ok());
}

TEST(GraphBuilderTest, UndirectedMirrorsEdges) {
  auto g = GraphBuilder::Undirected(TriangleWithTail());
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->undirected());
  EXPECT_EQ(g->num_vertices(), 4u);
  EXPECT_EQ(g->num_edges(), 4u);
  EXPECT_EQ(g->num_adjacency_entries(), 8u);
  EXPECT_EQ(g->Degree(2), 3u);
  EXPECT_TRUE(g->HasEdge(1, 0));
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->Validate().ok());
}

TEST(GraphBuilderTest, UndirectedMergesBothOrientations) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 0);  // same undirected edge
  auto g = GraphBuilder::Undirected(edges);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
}

TEST(GraphBuilderTest, DirectedKeepsDuplicatesWhenAsked) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(0, 1);
  auto g = GraphBuilder::Directed(edges, {.dedup = false});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphBuilderTest, EmptyGraph) {
  EdgeList edges(5);
  auto g = GraphBuilder::Undirected(edges);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 5u);
  EXPECT_EQ(g->num_edges(), 0u);
  EXPECT_TRUE(g->Validate().ok());
}

TEST(GraphTest, AdjacencyIsSorted) {
  EdgeList edges;
  edges.Add(0, 3);
  edges.Add(0, 1);
  edges.Add(0, 2);
  auto g = GraphBuilder::Directed(edges);
  ASSERT_TRUE(g.ok());
  auto nbrs = g->OutNeighbors(0);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(nbrs[2], 3u);
}

TEST(GraphTest, ToEdgeListRoundTripsUndirected) {
  auto g = GraphBuilder::Undirected(TriangleWithTail());
  ASSERT_TRUE(g.ok());
  EdgeList out = g->ToEdgeList();
  EXPECT_EQ(out.num_edges(), g->num_edges());
  auto g2 = GraphBuilder::Undirected(out);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->num_adjacency_entries(), g->num_adjacency_entries());
}

TEST(GraphTest, MemoryBytesPositive) {
  auto g = GraphBuilder::Undirected(TriangleWithTail());
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g->MemoryBytes(), 0u);
}

// --------------------------------------------------------------------- IO

TEST(GraphIoTest, TextRoundTrip) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  EdgeList edges = TriangleWithTail();
  ASSERT_TRUE(WriteEdgeListText(edges, dir->File("g.e")).ok());
  auto read = ReadEdgeListText(dir->File("g.e"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_edges(), edges.num_edges());
  EXPECT_EQ(read->edges(), edges.edges());
}

TEST(GraphIoTest, TextSkipsComments) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  std::ofstream(dir->File("g.e")) << "# header\n0 1\n\n2 3\n";
  auto read = ReadEdgeListText(dir->File("g.e"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_edges(), 2u);
}

TEST(GraphIoTest, TextRejectsMalformed) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  std::ofstream(dir->File("bad.e")) << "0\n";
  EXPECT_FALSE(ReadEdgeListText(dir->File("bad.e")).ok());
  std::ofstream(dir->File("bad2.e")) << "0 xyz\n";
  EXPECT_FALSE(ReadEdgeListText(dir->File("bad2.e")).ok());
}

TEST(GraphIoTest, MalformedInputCorpusIsRejectedWithLocation) {
  // Each corpus entry is one way real edge dumps go wrong; every one must
  // be rejected with an error naming the file and (1-based) line.
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  struct Case {
    const char* name;
    const char* content;
    const char* bad_line;  // "<line_no>" expected in the error message
  };
  const Case corpus[] = {
      {"truncated.e", "0 1\n2\n", "2"},                // line cut mid-edge
      {"nonnumeric.e", "0 1\nfoo bar\n", "2"},         // words, not ids
      {"negative.e", "0 1\n-3 4\n", "2"},              // negative id
      {"float.e", "0 1\n2.5 3\n", "2"},                // fractional id
      {"overflow.e", "99999999999999999999 1\n", "1"}, // > uint64
      {"too_large.e", "0 1\n4294967295 2\n", "2"},     // == kInvalidVertex
      {"trailing.e", "0 1\n2 3x\n", "2"},              // trailing garbage
  };
  for (const Case& c : corpus) {
    std::ofstream(dir->File(c.name)) << c.content;
    auto read = ReadEdgeListText(dir->File(c.name));
    ASSERT_FALSE(read.ok()) << c.name;
    EXPECT_NE(read.status().message().find(c.name), std::string::npos)
        << c.name << ": " << read.status().ToString();
    EXPECT_NE(read.status().message().find(std::string(":") + c.bad_line),
              std::string::npos)
        << c.name << ": " << read.status().ToString();
  }
}

TEST(GraphIoTest, ParseOptionsDropSelfLoopsAndDuplicates) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  std::ofstream(dir->File("messy.e")) << "0 1\n1 1\n0 1\n2 0\n2 2\n0 1\n";

  // Default: everything kept verbatim.
  auto verbatim = ReadEdgeListText(dir->File("messy.e"));
  ASSERT_TRUE(verbatim.ok());
  EXPECT_EQ(verbatim->num_edges(), 6u);

  EdgeListParseOptions drop_loops;
  drop_loops.drop_self_loops = true;
  auto no_loops = ReadEdgeListText(dir->File("messy.e"), drop_loops);
  ASSERT_TRUE(no_loops.ok());
  EXPECT_EQ(no_loops->num_edges(), 4u);

  EdgeListParseOptions drop_both;
  drop_both.drop_self_loops = true;
  drop_both.drop_duplicates = true;
  auto clean = ReadEdgeListText(dir->File("messy.e"), drop_both);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->num_edges(), 2u);  // {0 1, 2 0}
  EXPECT_EQ(clean->num_vertices(), 3u);
}

TEST(GraphIoTest, ParseOptionsEnforceVertexIdLimit) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  std::ofstream(dir->File("wide.e")) << "0 1\n5000 2\n";
  EdgeListParseOptions bounded;
  bounded.max_vertex_id = 100;
  auto read = ReadEdgeListText(dir->File("wide.e"), bounded);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsInvalidArgument());
  EXPECT_NE(read.status().message().find(":2"), std::string::npos)
      << read.status().ToString();
}

TEST(GraphIoTest, BinaryRejectsEdgeCountBeyondFileSize) {
  // A corrupt header must not turn into a multi-gigabyte allocation.
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  EdgeList edges = TriangleWithTail();
  ASSERT_TRUE(WriteEdgeListBinary(edges, dir->File("g.bin")).ok());
  // Corrupt the edge-count field (bytes 16..24) to a huge value.
  std::fstream f(dir->File("g.bin"),
                 std::ios::binary | std::ios::in | std::ios::out);
  uint64_t huge = uint64_t{1} << 40;
  f.seekp(16);
  f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  f.close();
  auto read = ReadEdgeListBinary(dir->File("g.bin"));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
}

TEST(GraphIoTest, BinaryRoundTrip) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  EdgeList edges = TriangleWithTail();
  ASSERT_TRUE(WriteEdgeListBinary(edges, dir->File("g.bin")).ok());
  auto read = ReadEdgeListBinary(dir->File("g.bin"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->edges(), edges.edges());
  EXPECT_EQ(read->num_vertices(), edges.num_vertices());
}

TEST(GraphIoTest, BinaryRejectsBadMagic) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  std::ofstream(dir->File("junk.bin"), std::ios::binary) << "NOTMAGIC123456";
  EXPECT_FALSE(ReadEdgeListBinary(dir->File("junk.bin")).ok());
}

TEST(GraphIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadEdgeListText("/nonexistent/g.e").status().IsIOError());
  EXPECT_TRUE(ReadEdgeListBinary("/nonexistent/g.bin").status().IsIOError());
}

TEST(GraphIoTest, VertexFileCoversIsolatedVertices) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  EdgeList edges;
  edges.Add(0, 1);
  // Graphalytics dataset: .e file plus a .v listing vertices 0..4
  // (2, 3, 4 are isolated).
  ASSERT_TRUE(WriteEdgeListText(edges, dir->File("g.e")).ok());
  std::ofstream(dir->File("g.v")) << "0\n1\n2\n3\n4\n";
  auto read = ReadGraphalyticsDataset(dir->File("g"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_vertices(), 5u);
  EXPECT_EQ(read->num_edges(), 1u);
  auto g = GraphBuilder::Undirected(*read);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->Degree(4), 0u);
}

TEST(GraphIoTest, DatasetWithoutVertexFileInfersFromEdges) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  EdgeList edges = TriangleWithTail();
  ASSERT_TRUE(WriteEdgeListText(edges, dir->File("g.e")).ok());
  auto read = ReadGraphalyticsDataset(dir->File("g"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_vertices(), 4u);
}

TEST(GraphIoTest, VertexFileRoundTrip) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  EdgeList edges(7);
  edges.Add(0, 1);
  ASSERT_TRUE(WriteVertexFile(edges, dir->File("g.v")).ok());
  EdgeList fresh;
  fresh.Add(0, 1);
  ASSERT_TRUE(ApplyVertexFile(dir->File("g.v"), &fresh).ok());
  EXPECT_EQ(fresh.num_vertices(), 7u);
}

TEST(GraphIoTest, VertexFileRejectsGarbage) {
  auto dir = TempDir::Create("gly-io");
  ASSERT_TRUE(dir.ok());
  std::ofstream(dir->File("bad.v")) << "0\nxyz\n";
  EdgeList edges;
  EXPECT_FALSE(ApplyVertexFile(dir->File("bad.v"), &edges).ok());
}

// ------------------------------------------------------------- Partition

TEST(PartitionTest, HashCoversAllPartitions) {
  HashPartitioner p(4);
  std::set<uint32_t> seen;
  for (VertexId v = 0; v < 1000; ++v) {
    uint32_t part = p.PartitionOf(v);
    EXPECT_LT(part, 4u);
    seen.insert(part);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(PartitionTest, RangeIsContiguous) {
  RangePartitioner p(100, 4);
  EXPECT_EQ(p.PartitionOf(0), 0u);
  EXPECT_EQ(p.PartitionOf(99), 3u);
  for (VertexId v = 1; v < 100; ++v) {
    EXPECT_GE(p.PartitionOf(v), p.PartitionOf(v - 1));
  }
}

TEST(PartitionTest, BalancedEdgePartitionerBalancesLoad) {
  // Star graph: hub 0 with 99 spokes. Hash partitioning is balanced by
  // vertex count but wildly imbalanced by edges; the greedy partitioner
  // should spread the load.
  EdgeList edges;
  for (VertexId v = 1; v < 100; ++v) edges.Add(0, v);
  auto g = GraphBuilder::Undirected(edges);
  ASSERT_TRUE(g.ok());
  BalancedEdgePartitioner balanced(*g, 4);
  EXPECT_LT(LoadImbalance(*g, balanced), 2.0);
}

// --------------------------------------------------------- ReorderByDegree

TEST(ReorderTest, StarHubBecomesVertexZero) {
  // Star: hub 7 with 9 spokes. Degree-descending relabeling must move the
  // hub to new id 0.
  EdgeList edges;
  for (VertexId v = 0; v < 10; ++v) {
    if (v != 7) edges.Add(7, v);
  }
  auto g = GraphBuilder::Undirected(edges);
  ASSERT_TRUE(g.ok());
  ReorderedGraph r = g->ReorderByDegree();
  ASSERT_TRUE(r.graph.Validate().ok());
  EXPECT_EQ(r.perm.old_to_new[7], 0u);
  EXPECT_EQ(r.perm.new_to_old[0], 7u);
  EXPECT_EQ(r.graph.OutDegree(0), 9u);
  // Spokes tie at degree 1: ties break by ascending original id.
  EXPECT_EQ(r.perm.new_to_old[1], 0u);
  EXPECT_EQ(r.perm.new_to_old[2], 1u);
}

TEST(ReorderTest, PermutationIsABijectionAndDegreesDescend) {
  EdgeList edges;
  for (VertexId v = 1; v < 40; ++v) edges.Add(v % 7, v);
  auto g = GraphBuilder::Undirected(edges);
  ASSERT_TRUE(g.ok());
  ReorderedGraph r = g->ReorderByDegree();
  ASSERT_EQ(r.perm.old_to_new.size(), g->num_vertices());
  ASSERT_EQ(r.perm.new_to_old.size(), g->num_vertices());
  std::set<VertexId> seen;
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    EXPECT_EQ(r.perm.old_to_new[r.perm.new_to_old[v]], v);
    seen.insert(r.perm.new_to_old[v]);
  }
  EXPECT_EQ(seen.size(), g->num_vertices());
  for (VertexId v = 1; v < r.graph.num_vertices(); ++v) {
    EXPECT_GE(r.graph.OutDegree(v - 1), r.graph.OutDegree(v));
  }
}

TEST(ReorderTest, RelabeledGraphPreservesStructure) {
  auto g = GraphBuilder::Undirected(TriangleWithTail());
  ASSERT_TRUE(g.ok());
  ReorderedGraph r = g->ReorderByDegree();
  ASSERT_TRUE(r.graph.Validate().ok());
  EXPECT_EQ(r.graph.num_vertices(), g->num_vertices());
  EXPECT_EQ(r.graph.num_edges(), g->num_edges());
  // Every original edge exists under the new labels and vice versa.
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    for (VertexId w : g->OutNeighbors(v)) {
      EXPECT_TRUE(
          r.graph.HasEdge(r.perm.old_to_new[v], r.perm.old_to_new[w]));
    }
    EXPECT_EQ(r.graph.OutDegree(r.perm.old_to_new[v]), g->OutDegree(v));
  }
}

TEST(ReorderTest, DirectedGraphKeepsBothSides) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(3, 0);
  edges.Add(2, 1);
  auto g = GraphBuilder::Directed(edges);
  ASSERT_TRUE(g.ok());
  ReorderedGraph r = g->ReorderByDegree();
  ASSERT_TRUE(r.graph.Validate().ok());
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    EXPECT_EQ(r.graph.OutDegree(r.perm.old_to_new[v]), g->OutDegree(v));
    EXPECT_EQ(r.graph.InDegree(r.perm.old_to_new[v]), g->InDegree(v));
  }
  EXPECT_TRUE(r.graph.HasEdge(r.perm.old_to_new[3], r.perm.old_to_new[0]));
  EXPECT_FALSE(r.graph.HasEdge(r.perm.old_to_new[0], r.perm.old_to_new[3]));
}

TEST(ReorderTest, EmptyGraphYieldsEmptyPermutation) {
  Graph g;
  ReorderedGraph r = g.ReorderByDegree();
  EXPECT_EQ(r.graph.num_vertices(), 0u);
  EXPECT_TRUE(r.perm.old_to_new.empty());
  EXPECT_TRUE(r.perm.new_to_old.empty());
}

TEST(ReorderTest, PoolAndSerialAgree) {
  EdgeList edges;
  for (VertexId v = 1; v < 200; ++v) edges.Add(v % 13, (v * 7) % 200);
  auto g = GraphBuilder::Undirected(edges);
  ASSERT_TRUE(g.ok());
  ReorderedGraph serial = g->ReorderByDegree();
  ThreadPool pool(4);
  ReorderedGraph parallel = g->ReorderByDegree(&pool);
  EXPECT_EQ(serial.perm.old_to_new, parallel.perm.old_to_new);
  for (VertexId v = 0; v < serial.graph.num_vertices(); ++v) {
    auto a = serial.graph.OutNeighbors(v);
    auto b = parallel.graph.OutNeighbors(v);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST(PartitionTest, CutRatioBounds) {
  auto g = GraphBuilder::Undirected(TriangleWithTail());
  ASSERT_TRUE(g.ok());
  HashPartitioner hash(4);
  double cut = EdgeCutRatio(*g, hash);
  EXPECT_GE(cut, 0.0);
  EXPECT_LE(cut, 1.0);
  // Single partition has no cut.
  HashPartitioner one(1);
  EXPECT_DOUBLE_EQ(EdgeCutRatio(*g, one), 0.0);
}

}  // namespace
}  // namespace gly
