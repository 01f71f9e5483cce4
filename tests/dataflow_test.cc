// Tests for the dataflow (GraphX-like) engine: dataset transformations,
// shuffles/joins, memory accounting and lineage, and the algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "dataflow/algorithms.h"
#include "dataflow/dataset.h"
#include "dataflow/graph.h"
#include "harness/validator.h"

namespace gly::dataflow {
namespace {

ContextConfig SmallContext() {
  ContextConfig config;
  config.num_partitions = 4;
  config.num_threads = 4;
  return config;
}

Graph MakeUndirected(std::initializer_list<std::pair<VertexId, VertexId>> es,
                     VertexId n = 0) {
  EdgeList edges(n);
  for (auto [a, b] : es) edges.Add(a, b);
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

Graph RandomUndirected(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

// ---------------------------------------------------------------- datasets

TEST(DatasetTest, ParallelizeAndCollect) {
  Context ctx(SmallContext());
  std::vector<int> data = {1, 2, 3, 4, 5};
  auto ds = ctx.Parallelize(data);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->Count(), 5u);
  auto collected = ds->Collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, data);
}

TEST(DatasetTest, MapAndFilter) {
  Context ctx(SmallContext());
  std::vector<int> data;
  for (int i = 0; i < 100; ++i) data.push_back(i);
  auto ds = ctx.Parallelize(data);
  ASSERT_TRUE(ds.ok());
  auto doubled = ctx.Map<int>(*ds, [](int x) { return x * 2; });
  ASSERT_TRUE(doubled.ok());
  auto small = ctx.Filter(*doubled, [](int x) { return x < 10; });
  ASSERT_TRUE(small.ok());
  auto collected = small->Collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(DatasetTest, FlatMap) {
  Context ctx(SmallContext());
  auto ds = ctx.Parallelize(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(ds.ok());
  auto expanded = ctx.FlatMap<int>(*ds, [](int x) {
    return std::vector<int>(static_cast<size_t>(x), x);
  });
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->Count(), 6u);  // 1 + 2 + 3
}

TEST(DatasetTest, ReduceByKeySums) {
  Context ctx(SmallContext());
  std::vector<std::pair<uint64_t, int>> data;
  for (int i = 0; i < 100; ++i) data.emplace_back(i % 7, 1);
  auto ds = ctx.ParallelizeByKey(std::move(data));
  ASSERT_TRUE(ds.ok());
  auto reduced = ctx.ReduceByKey(*ds, [](int a, int b) { return a + b; });
  ASSERT_TRUE(reduced.ok());
  auto collected = reduced->Collect();
  EXPECT_EQ(collected.size(), 7u);
  int total = 0;
  for (const auto& [k, v] : collected) total += v;
  EXPECT_EQ(total, 100);
}

// A value that counts its own copies; moves are free.
struct CopyCounted {
  static inline std::atomic<uint64_t> copies{0};
  int value = 0;
  CopyCounted() = default;
  explicit CopyCounted(int v) : value(v) {}
  CopyCounted(const CopyCounted& other) : value(other.value) {
    copies.fetch_add(1, std::memory_order_relaxed);
  }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(const CopyCounted& other) {
    value = other.value;
    copies.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
};

// The fold contract: the accumulator reaches the combiner as an rvalue, so
// an appending combiner folds a key's n one-element values with O(n)
// copies, not the n^2/2 of copying the accumulator on every fold. Key 7
// takes the flat-accumulator fold; key 2^40 is beyond its domain cap and
// takes the hash-map fallback, which moves its folded values out.
TEST(DatasetTest, ReduceByKeyFoldsListsInLinearCopies) {
  using List = std::vector<CopyCounted>;
  constexpr int kValues = 2000;
  for (const auto& [key, copies_per_value] :
       {std::pair<uint64_t, uint64_t>{7, 2}, {uint64_t{1} << 40, 2}}) {
    Context ctx(SmallContext());
    std::vector<std::pair<uint64_t, List>> data;
    for (int i = 0; i < kValues; ++i) {
      data.emplace_back(key, List{});
      data.back().second.emplace_back(i);
    }
    auto ds = ctx.ParallelizeByKey(std::move(data));
    ASSERT_TRUE(ds.ok());
    CopyCounted::copies = 0;
    // One copy per value in the shuffle, one as the fold appends it.
    auto reduced = ctx.ReduceByKey(*ds, [](List a, const List& b) {
      a.insert(a.end(), b.begin(), b.end());
      return a;
    });
    ASSERT_TRUE(reduced.ok());
    EXPECT_LE(CopyCounted::copies.load(), copies_per_value * kValues)
        << "key " << key;
    ASSERT_EQ(reduced->Count(), 1u);
    const List folded = reduced->Collect()[0].second;
    ASSERT_EQ(folded.size(), static_cast<size_t>(kValues));
    for (int i = 0; i < kValues; ++i) EXPECT_EQ(folded[i].value, i);
  }
}

TEST(DatasetTest, LeftJoinFindsMatches) {
  Context ctx(SmallContext());
  std::vector<std::pair<uint64_t, int>> left = {{1, 10}, {2, 20}, {3, 30}};
  std::vector<std::pair<uint64_t, int>> right = {{2, 200}, {3, 300}};
  auto l = ctx.ParallelizeByKey(std::move(left));
  auto r = ctx.ParallelizeByKey(std::move(right));
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(r.ok());
  auto joined = ctx.LeftJoin<std::pair<uint64_t, int>>(
      *l, *r, [](uint64_t k, const int& a, const int* b) {
        return std::make_pair(k, b != nullptr ? a + *b : a);
      });
  ASSERT_TRUE(joined.ok());
  auto collected = joined->Collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected,
            (std::vector<std::pair<uint64_t, int>>{{1, 10}, {2, 220},
                                                   {3, 330}}));
}

TEST(DatasetTest, ShuffleCoPartitions) {
  Context ctx(SmallContext());
  std::vector<std::pair<uint64_t, int>> data;
  for (uint64_t i = 0; i < 64; ++i) data.emplace_back(i, 0);
  auto ds = ctx.Parallelize(data);  // NOT key-partitioned
  ASSERT_TRUE(ds.ok());
  auto shuffled = ctx.Shuffle(*ds);
  ASSERT_TRUE(shuffled.ok());
  for (size_t p = 0; p < shuffled->num_partitions(); ++p) {
    for (const auto& [k, v] : shuffled->partition(p)) {
      EXPECT_EQ(ctx.PartitionOf(k), p);
    }
  }
  EXPECT_GT(ctx.stats().shuffle_bytes, 0u);
}

TEST(DatasetTest, MemoryBudgetAborts) {
  ContextConfig config = SmallContext();
  config.memory_budget_bytes = 128;  // tiny
  Context ctx(config);
  std::vector<int> data(10000, 1);
  auto ds = ctx.Parallelize(data);
  ASSERT_FALSE(ds.ok());
  EXPECT_TRUE(ds.status().IsResourceExhausted());
}

TEST(DatasetTest, DroppedDatasetReleasesBudget) {
  ContextConfig config = SmallContext();
  config.memory_budget_bytes = 1 << 20;
  config.object_overhead_factor = 1.0;
  Context ctx(config);
  {
    auto ds = ctx.Parallelize(std::vector<int>(1000, 7));
    ASSERT_TRUE(ds.ok());
    EXPECT_GT(ctx.budget().used(), 0u);
  }
  EXPECT_EQ(ctx.budget().used(), 0u);
}

TEST(DatasetTest, ObjectOverheadFactorCharged) {
  ContextConfig config = SmallContext();
  config.object_overhead_factor = 3.0;
  Context ctx(config);
  auto ds = ctx.Parallelize(std::vector<int>(1000, 7));
  ASSERT_TRUE(ds.ok());
  EXPECT_GE(ctx.budget().used(), 3u * 1000u * sizeof(int));
}

// ------------------------------------------------------------ CD messages

// A LabelScoreList or std::vector<LabelScore> as comparable pairs.
template <typename List>
std::vector<std::pair<int64_t, double>> Pairs(const List& list) {
  std::vector<std::pair<int64_t, double>> out;
  for (const LabelScore& pair : list) out.emplace_back(pair.label, pair.score);
  return out;
}

LabelScoreList ListOf(int64_t first, int64_t count) {
  LabelScoreList list;
  for (int64_t i = first; i < first + count; ++i) {
    list.Append(LabelScoreList(LabelScore{i, 0.5 * static_cast<double>(i)}));
  }
  return list;
}

bool StoredInside(const LabelScoreList& list) {
  const auto* self = reinterpret_cast<const char*>(&list);
  const auto* data = reinterpret_cast<const char*>(list.begin());
  return data >= self && data < self + sizeof(LabelScoreList);
}

TEST(LabelScoreListTest, CopyMoveAndSelfAssignment) {
  const LabelScoreList one(LabelScore{4, 0.25});
  const LabelScoreList many = ListOf(10, 5);
  const auto one_pairs = Pairs(one);
  const auto many_pairs = Pairs(many);

  LabelScoreList copy_one(one);
  LabelScoreList copy_many(many);
  EXPECT_EQ(Pairs(copy_one), one_pairs);
  EXPECT_EQ(Pairs(copy_many), many_pairs);
  EXPECT_NE(copy_many.begin(), many.begin());

  // Copy-assignment across storage kinds, both ways.
  copy_one = many;
  copy_many = one;
  EXPECT_EQ(Pairs(copy_one), many_pairs);
  EXPECT_EQ(Pairs(copy_many), one_pairs);

  // Moves hand the heap storage over and leave the source empty.
  LabelScoreList source = ListOf(10, 5);
  const LabelScore* storage = source.begin();
  LabelScoreList moved(std::move(source));
  EXPECT_EQ(moved.begin(), storage);
  EXPECT_EQ(Pairs(moved), many_pairs);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  source = one;  // a moved-from list is reusable
  EXPECT_EQ(Pairs(source), one_pairs);
  moved = std::move(source);  // frees the heap storage it held
  EXPECT_EQ(Pairs(moved), one_pairs);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)

  // Self-assignment keeps the contents, inline or on the heap.
  LabelScoreList self_one(one);
  LabelScoreList self_many(many);
  LabelScoreList& alias_one = self_one;
  LabelScoreList& alias_many = self_many;
  self_one = alias_one;
  self_many = alias_many;
  EXPECT_EQ(Pairs(self_one), one_pairs);
  EXPECT_EQ(Pairs(self_many), many_pairs);
  self_one = std::move(alias_one);
  self_many = std::move(alias_many);
  EXPECT_EQ(Pairs(self_one), one_pairs);
  EXPECT_EQ(Pairs(self_many), many_pairs);
}

TEST(LabelScoreListTest, AppendKeepsOrderAcrossInlineAndHeap) {
  LabelScoreList list;
  list.Append(LabelScoreList());
  EXPECT_TRUE(list.empty());
  std::vector<LabelScore> expected;
  for (int64_t i = 0; i < 100; ++i) {
    const LabelScore pair{i * 7 % 13, static_cast<double>(i)};
    list.Append(LabelScoreList(pair));  // i == 1 leaves the inline slot
    expected.push_back(pair);
    ASSERT_EQ(Pairs(list), Pairs(expected)) << "after " << i + 1;
  }
  // Heap to heap, and a list appended to itself.
  const LabelScoreList tail = ListOf(500, 40);
  list.Append(tail);
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(Pairs(list), Pairs(expected));
  list.Append(list);
  const std::vector<LabelScore> once = expected;
  expected.insert(expected.end(), once.begin(), once.end());
  EXPECT_EQ(Pairs(list), Pairs(expected));
}

TEST(LabelScoreListTest, OneElementListLivesInline) {
  static_assert(sizeof(LabelScoreList) == sizeof(std::vector<LabelScore>));
  const LabelScoreList sent(LabelScore{3, 1.0});
  EXPECT_TRUE(StoredInside(sent));
  const LabelScoreList copied(sent);
  EXPECT_TRUE(StoredInside(copied));
  LabelScoreList assigned;
  assigned = sent;
  EXPECT_TRUE(StoredInside(assigned));
  LabelScoreList moved(LabelScoreList(LabelScore{5, 2.0}));
  EXPECT_TRUE(StoredInside(moved));
  EXPECT_FALSE(StoredInside(ListOf(0, 2)));
}

// CD's combiner over LabelScoreList folds to the same sequences as over
// std::vector<LabelScore>, on the flat fold (keys 0..9) and on the hash
// fallback (keys offset by 2^40). Key k receives k + 1 messages, so key 0
// keeps its single message inline.
TEST(LabelScoreListTest, ReduceByKeyMatchesVectorLists) {
  for (const uint64_t offset : {uint64_t{0}, uint64_t{1} << 40}) {
    Context ctx(SmallContext());
    std::vector<std::pair<uint64_t, LabelScoreList>> lists;
    std::vector<std::pair<uint64_t, std::vector<LabelScore>>> vectors;
    int64_t label = 0;
    for (uint64_t round = 0; round < 10; ++round) {
      for (uint64_t k = round; k < 10; ++k) {
        const LabelScore pair{label, 0.25 * static_cast<double>(label)};
        ++label;
        lists.emplace_back(offset + k, LabelScoreList(pair));
        vectors.emplace_back(offset + k, std::vector<LabelScore>{pair});
      }
    }
    auto list_ds = ctx.ParallelizeByKey(std::move(lists));
    auto vector_ds = ctx.ParallelizeByKey(std::move(vectors));
    ASSERT_TRUE(list_ds.ok());
    ASSERT_TRUE(vector_ds.ok());
    auto folded_lists = ctx.ReduceByKey(
        *list_ds, [](LabelScoreList a, const LabelScoreList& b) {
          a.Append(b);
          return a;
        });
    auto folded_vectors = ctx.ReduceByKey(
        *vector_ds,
        [](std::vector<LabelScore> a, const std::vector<LabelScore>& b) {
          a.insert(a.end(), b.begin(), b.end());
          return a;
        });
    ASSERT_TRUE(folded_lists.ok());
    ASSERT_TRUE(folded_vectors.ok());
    std::map<uint64_t, std::vector<std::pair<int64_t, double>>> from_lists;
    std::map<uint64_t, std::vector<std::pair<int64_t, double>>> from_vectors;
    for (const auto& [k, v] : folded_lists->Collect()) {
      from_lists[k] = Pairs(v);
    }
    for (const auto& [k, v] : folded_vectors->Collect()) {
      from_vectors[k] = Pairs(v);
    }
    ASSERT_EQ(from_lists.size(), 10u) << "offset " << offset;
    EXPECT_EQ(from_lists, from_vectors) << "offset " << offset;
    EXPECT_EQ(from_lists[offset + 9].size(), 10u);
  }
}

// -------------------------------------------------------------- algorithms

// Dataflow's BFS is the one direction-optimizing kernel; every input must
// give ref::Bfs's levels. The four shapes (path, islands, a 500-leaf star,
// a random graph) and the three sources of the 300-vertex graph each take
// at least one bottom-up level.
TEST(DataflowAlgorithmsTest, BfsMatchesReference) {
  std::vector<std::pair<Graph, VertexId>> inputs;
  inputs.emplace_back(RandomUndirected(200, 600, 31), 1);
  for (VertexId source : {VertexId{0}, VertexId{42}, VertexId{299}}) {
    inputs.emplace_back(RandomUndirected(300, 1200, 35), source);
  }
  inputs.emplace_back(MakeUndirected({{0, 1}, {1, 2}, {2, 3}}), 0);  // path
  inputs.emplace_back(MakeUndirected({{0, 1}, {2, 3}}, /*n=*/6), 0);
  EdgeList star;
  for (VertexId v = 1; v <= 500; ++v) star.Add(0, v);
  inputs.emplace_back(GraphBuilder::Undirected(star).ValueOrDie(), 0);
  EdgeList random(400);
  Rng rng(17);
  for (int i = 0; i < 1500; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(400));
    VertexId b = static_cast<VertexId>(rng.NextBounded(400));
    if (a != b) random.Add(a, b);
  }
  inputs.emplace_back(GraphBuilder::Undirected(random).ValueOrDie(), 0);

  for (size_t i = 0; i < inputs.size(); ++i) {
    const auto& [g, source] = inputs[i];
    AlgorithmParams params;
    params.bfs.source = source;
    auto out = RunAlgorithm(SmallContext(), g, AlgorithmKind::kBfs, params);
    ASSERT_TRUE(out.ok()) << "input " << i;
    EXPECT_EQ(out->vertex_values, ref::Bfs(g, params.bfs).vertex_values)
        << "input " << i;
    EXPECT_GT(out->traversed_edges, 0u) << "input " << i;
    EXPECT_TRUE(
        harness::ValidateOutput(g, AlgorithmKind::kBfs, params, *out).ok())
        << "input " << i;
  }
}

TEST(DataflowAlgorithmsTest, DirectedBottomUpProbesInNeighbors) {
  // On a directed 4-cycle the first level already goes bottom-up (the
  // source's one out-edge is more than 1/alpha of the 3 unexplored ones),
  // so each level is found through in-neighbors.
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(2, 3);
  edges.Add(3, 0);
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  AlgorithmParams params;
  params.bfs.source = 1;
  auto out = RunAlgorithm(SmallContext(), g, AlgorithmKind::kBfs, params);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->vertex_values, ref::Bfs(g, params.bfs).vertex_values);
}

TEST(DataflowAlgorithmsTest, SourceOutOfRangeYieldsAllUnreachable) {
  Graph g = MakeUndirected({{0, 1}});
  AlgorithmParams params;
  params.bfs.source = 99;
  auto out = RunAlgorithm(SmallContext(), g, AlgorithmKind::kBfs, params);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->vertex_values.size(), 2u);
  for (int64_t v : out->vertex_values) EXPECT_EQ(v, kUnreachable);
}

TEST(DataflowAlgorithmsTest, BottomUpExaminesFewerEdgesOnHubFlood) {
  // The kernel's payoff: on a hub flood the bottom-up level stops at each
  // leaf's first parent (the hub) instead of expanding every edge, which
  // the queue BFS of the reference does.
  EdgeList edges;
  for (VertexId v = 1; v <= 2000; ++v) edges.Add(0, v);
  for (VertexId v = 1; v < 2000; ++v) edges.Add(v, v + 1);  // leaf ring
  Graph g = GraphBuilder::Undirected(edges).ValueOrDie();
  AlgorithmParams params;
  auto out = RunAlgorithm(SmallContext(), g, AlgorithmKind::kBfs, params);
  ASSERT_TRUE(out.ok());
  AlgorithmOutput naive = ref::Bfs(g, params.bfs);
  EXPECT_EQ(out->vertex_values, naive.vertex_values);
  EXPECT_EQ(out->traversed_edges, 2000u);
  EXPECT_EQ(naive.traversed_edges, 7998u);
}

// A zero partition count runs as one partition instead of dividing by
// zero when records are hashed to partitions.
TEST(DataflowAlgorithmsTest, ZeroPartitionsRunAsOne) {
  Graph g = RandomUndirected(200, 600, 38);
  ContextConfig config = SmallContext();
  config.num_partitions = 0;
  AlgorithmParams params;
  params.bfs.source = 3;
  for (AlgorithmKind kind : {AlgorithmKind::kBfs, AlgorithmKind::kConn}) {
    auto out = RunAlgorithm(config, g, kind, params);
    ASSERT_TRUE(out.ok()) << AlgorithmKindName(kind);
    EXPECT_EQ(out->vertex_values, ref::Run(g, kind, params).vertex_values)
        << AlgorithmKindName(kind);
  }
}

TEST(DataflowAlgorithmsTest, ConnMatchesReference) {
  Graph g = RandomUndirected(200, 350, 32);
  auto out = RunAlgorithm(SmallContext(), g, AlgorithmKind::kConn, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kConn, {}, *out).ok());
}

TEST(DataflowAlgorithmsTest, CdMatchesReference) {
  Graph g = RandomUndirected(150, 450, 33);
  AlgorithmParams params;
  params.cd = CdParams{5, 0.05};
  auto out = RunAlgorithm(SmallContext(), g, AlgorithmKind::kCd, params);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kCd, params, *out).ok());
}

TEST(DataflowAlgorithmsTest, StatsMatchesReference) {
  Graph g = RandomUndirected(150, 450, 34);
  auto out = RunAlgorithm(SmallContext(), g, AlgorithmKind::kStats, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kStats, {}, *out).ok());
}

TEST(DataflowAlgorithmsTest, EvoMatchesReference) {
  Graph g = RandomUndirected(150, 450, 35);
  AlgorithmParams params;
  params.evo.num_new_vertices = 6;
  auto out = RunAlgorithm(SmallContext(), g, AlgorithmKind::kEvo, params);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kEvo, params, *out).ok());
}

TEST(DataflowAlgorithmsTest, FailsOnBudgetGiraphSurvives) {
  // The Figure 4 memory story: with the same budget, the dataflow engine's
  // immutable re-materialization exhausts memory on a graph the leaner
  // engines handle. ~50 KiB of CSR with a 400 KiB budget: dataflow fails.
  Graph g = RandomUndirected(2000, 6000, 36);
  ContextConfig config = SmallContext();
  config.memory_budget_bytes = 400 << 10;
  auto out = RunAlgorithm(config, g, AlgorithmKind::kConn, {});
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted());
}

TEST(DataflowAlgorithmsTest, StatsReportMaterializations) {
  Graph g = RandomUndirected(100, 300, 37);
  ContextStats stats;
  auto out = RunAlgorithm(SmallContext(), g, AlgorithmKind::kConn, {}, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_GT(stats.datasets_materialized, 5u);
  EXPECT_GT(stats.bytes_materialized, 0u);
  EXPECT_GT(stats.join_probe_rows, 0u);
}

}  // namespace
}  // namespace gly::dataflow
