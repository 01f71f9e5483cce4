// Tests for the column store: bit packing, block encodings, the edge
// table, the partitioned hash set, and the transitive-closure operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "columnstore/column.h"
#include "columnstore/edge_table.h"
#include "columnstore/transitive.h"
#include "common/random.h"
#include "graph/graph.h"
#include "ref/algorithms.h"

namespace gly::columnstore {
namespace {

// ------------------------------------------------------------- bit packing

TEST(BitPackTest, RoundTripsAllWidths) {
  Rng rng(3);
  for (uint32_t width = 0; width <= 32; ++width) {
    std::vector<uint32_t> values(999);
    uint64_t mask = width >= 32 ? ~0u : ((1ULL << width) - 1);
    for (auto& v : values) {
      v = static_cast<uint32_t>(rng.Next() & mask);
    }
    std::vector<uint64_t> packed;
    BitPack(values.data(), values.size(), width, &packed);
    std::vector<uint32_t> out(values.size());
    BitUnpack(packed.data(), out.size(), width, out.data());
    EXPECT_EQ(out, values) << "width " << width;
  }
}

TEST(BitPackTest, BitsFor) {
  EXPECT_EQ(BitsFor(0), 0u);
  EXPECT_EQ(BitsFor(1), 1u);
  EXPECT_EQ(BitsFor(255), 8u);
  EXPECT_EQ(BitsFor(256), 9u);
  EXPECT_EQ(BitsFor(~0u), 32u);
}

// ----------------------------------------------------------------- columns

TEST(ColumnTest, RoundTripsRandomData) {
  Rng rng(5);
  std::vector<uint32_t> values(10000);
  for (auto& v : values) v = static_cast<uint32_t>(rng.Next());
  Column col = Column::Encode(values);
  EXPECT_EQ(col.size(), values.size());
  std::vector<uint32_t> all;
  col.ReadRange(0, col.size(), &all);
  EXPECT_EQ(all, values);
  std::vector<uint32_t> range;
  col.ReadRange(100, 5000, &range);
  EXPECT_TRUE(std::equal(range.begin(), range.end(), values.begin() + 100));
}

TEST(ColumnTest, ConstantBlocksUseRle) {
  std::vector<uint32_t> values(5000, 42);
  Column col = Column::Encode(values);
  EXPECT_GT(col.encoding_histogram()[static_cast<size_t>(Encoding::kRle)], 0u);
  EXPECT_LT(col.compressed_bytes(), col.raw_bytes() / 10);
  std::vector<uint32_t> row;
  col.ReadRange(4321, 4322, &row);
  EXPECT_EQ(row, (std::vector<uint32_t>{42}));
}

TEST(ColumnTest, SortedDataUsesDeltaAndCompresses) {
  std::vector<uint32_t> values;
  Rng rng(7);
  uint32_t acc = 0;
  for (int i = 0; i < 20000; ++i) {
    acc += static_cast<uint32_t>(rng.NextBounded(4));
    values.push_back(acc);
  }
  Column col = Column::Encode(values);
  EXPECT_GT(
      col.encoding_histogram()[static_cast<size_t>(Encoding::kDeltaFor)], 0u);
  EXPECT_LT(col.compressed_bytes(), col.raw_bytes() / 4);
  std::vector<uint32_t> all;
  col.ReadRange(0, values.size(), &all);
  EXPECT_EQ(all, values);
}

TEST(ColumnTest, SmallRangeDataUsesFor) {
  std::vector<uint32_t> values;
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    values.push_back(1000000 + static_cast<uint32_t>(rng.NextBounded(100)));
  }
  Column col = Column::Encode(values);
  EXPECT_GT(col.encoding_histogram()[static_cast<size_t>(Encoding::kFor)],
            0u);
  EXPECT_LT(col.compressed_bytes(), col.raw_bytes() / 3);
}

TEST(ColumnTest, CountsBlockDecodes) {
  std::vector<uint32_t> values(3 * kBlockSize, 1);
  Column col = Column::Encode(values);
  std::vector<uint32_t> out;
  col.DecodeBlockContaining(0, &out);
  col.DecodeBlockContaining(kBlockSize, &out);
  EXPECT_EQ(col.block_decodes(), 2u);
}

TEST(ColumnTest, EmptyColumn) {
  Column col = Column::Encode({});
  EXPECT_EQ(col.size(), 0u);
  std::vector<uint32_t> out;
  col.ReadRange(0, 0, &out);
  EXPECT_TRUE(out.empty());
}

// --------------------------------------------------------------- EdgeTable

TEST(EdgeTableTest, OutEdgesMatchCsr) {
  EdgeList edges;
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(300));
    VertexId b = static_cast<VertexId>(rng.NextBounded(300));
    if (a != b) edges.Add(a, b);
  }
  edges.DeduplicateAndDropLoops();
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  auto table = EdgeTable::Build(edges);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), edges.num_edges());
  LookupStats stats;
  std::vector<uint32_t> out;
  for (VertexId v = 0; v < 300; v += 17) {
    table->OutEdges(v, &out, &stats);
    auto expected_span = g.OutNeighbors(v);
    std::vector<uint32_t> expected(expected_span.begin(), expected_span.end());
    EXPECT_EQ(out, expected) << "vertex " << v;
  }
  EXPECT_GT(stats.random_lookups, 0u);
}

TEST(EdgeTableTest, CompressesRealisticEdges) {
  EdgeList edges;
  Rng rng(13);
  for (int i = 0; i < 100000; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(5000));
    VertexId b = static_cast<VertexId>(rng.NextBounded(5000));
    if (a != b) edges.Add(a, b);
  }
  auto table = EdgeTable::Build(edges);
  ASSERT_TRUE(table.ok());
  // The sorted from column delta-compresses well; overall ratio < 60%.
  EXPECT_LT(table->compressed_bytes(), table->raw_bytes() * 6 / 10);
}

// ----------------------------------------------------------- VertexHashSet

TEST(VertexHashSetTest, InsertAndContains) {
  VertexHashSet set(4);
  EXPECT_TRUE(set.Insert(10));
  EXPECT_FALSE(set.Insert(10));  // already contained
  EXPECT_TRUE(set.Insert(20));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Insert(30));  // not contained before
  EXPECT_EQ(set.size(), 3u);
}

TEST(VertexHashSetTest, GrowsUnderLoad) {
  VertexHashSet set(4);
  Rng rng(17);
  std::set<uint32_t> reference;
  for (int i = 0; i < 10000; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.NextBounded(20000));
    EXPECT_EQ(set.Insert(v), reference.insert(v).second);
  }
  EXPECT_EQ(set.size(), reference.size());
  // Every value survived the growths: inserting it again adds nothing.
  for (uint32_t v : reference) EXPECT_FALSE(set.Insert(v));
  EXPECT_EQ(set.size(), reference.size());
}

// -------------------------------------------------------------- transitive

TEST(TransitiveTest, CountsReachableVertices) {
  // Compare against reference BFS reachability.
  EdgeList edges;
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(1000));
    VertexId b = static_cast<VertexId>(rng.NextBounded(1000));
    if (a != b) edges.Add(a, b);
  }
  edges.DeduplicateAndDropLoops();
  auto table = EdgeTable::Build(edges);
  ASSERT_TRUE(table.ok());
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  auto ref_out = ref::Bfs(g, BfsParams{420});
  uint64_t expected = 0;
  for (int64_t d : ref_out.vertex_values) {
    if (d != kUnreachable && d > 0) ++expected;
  }
  TransitiveConfig config;
  config.num_partitions = 4;
  auto profile = TransitiveCount(*table, 420, config);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->distinct_reached, expected);
  EXPECT_GT(profile->random_lookups, 0u);
  EXPECT_GT(profile->edge_endpoints_visited, 0u);
  EXPECT_GT(profile->mteps, 0.0);
}

TEST(TransitiveTest, ProfileFractionsSumToOne) {
  EdgeList edges;
  Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(2000));
    VertexId b = static_cast<VertexId>(rng.NextBounded(2000));
    if (a != b) edges.Add(a, b);
  }
  auto table = EdgeTable::Build(edges);
  ASSERT_TRUE(table.ok());
  auto profile = TransitiveCount(*table, 0, TransitiveConfig{});
  ASSERT_TRUE(profile.ok());
  double total = profile->hash_fraction + profile->exchange_fraction +
                 profile->column_fraction;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(TransitiveTest, DeterministicAcrossPartitionCounts) {
  EdgeList edges;
  Rng rng(29);
  for (int i = 0; i < 3000; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(500));
    VertexId b = static_cast<VertexId>(rng.NextBounded(500));
    if (a != b) edges.Add(a, b);
  }
  auto table = EdgeTable::Build(edges);
  ASSERT_TRUE(table.ok());
  TransitiveConfig one;
  one.num_partitions = 1;
  TransitiveConfig eight;
  eight.num_partitions = 8;
  auto a = TransitiveCount(*table, 7, one);
  auto b = TransitiveCount(*table, 7, eight);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->distinct_reached, b->distinct_reached);
  EXPECT_EQ(a->edge_endpoints_visited, b->edge_endpoints_visited);
}

TEST(TransitiveTest, RejectsBadSource) {
  EdgeList edges;
  edges.Add(0, 1);
  auto table = EdgeTable::Build(edges);
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(TransitiveCount(*table, 100, TransitiveConfig{}).ok());
}

TEST(TransitiveTest, IsolatedSourceReachesNothing) {
  EdgeList edges(10);
  edges.Add(0, 1);
  auto table = EdgeTable::Build(edges);
  ASSERT_TRUE(table.ok());
  auto profile = TransitiveCount(*table, 5, TransitiveConfig{});
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->distinct_reached, 0u);
}

}  // namespace
}  // namespace gly::columnstore
