// Tests for the graph database: page cache, record store (bulk import,
// chain walks, reopening), traversal, and the algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/temp_dir.h"
#include "graphdb/algorithms.h"
#include "graphdb/page_cache.h"
#include "graphdb/store.h"
#include "graphdb/traversal.h"
#include "harness/validator.h"

namespace gly::graphdb {
namespace {

Graph RandomUndirected(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  edges.DeduplicateAndDropLoops();
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

// The directed graph of `edges`, as the store imports it.
Graph Directed(const EdgeList& edges) {
  return GraphBuilder::Directed(edges).ValueOrDie();
}

// A fresh store under `dir`, bulk-imported from `graph`.
std::unique_ptr<GraphStore> ImportedStore(
    const TempDir& dir, const Graph& graph,
    uint64_t page_cache_bytes = StoreConfig{}.page_cache_bytes) {
  StoreConfig config;
  config.directory = dir.File("store");
  config.page_cache_bytes = page_cache_bytes;
  auto store = GraphStore::Open(config);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return nullptr;
  Status imported = (*store)->BulkImport(graph);
  EXPECT_TRUE(imported.ok()) << imported.ToString();
  return std::move(*store);
}

// `node`'s neighbors across `direction`, ascending.
std::vector<VertexId> SortedNeighbors(const GraphStore& store, VertexId node,
                                      Direction direction) {
  PageCache::Cursor cursor = store.ReadCursor();
  std::vector<VertexId> nbrs;
  Status walked = store.CollectNeighbors(node, direction, cursor, &nbrs);
  EXPECT_TRUE(walked.ok()) << walked.ToString();
  std::sort(nbrs.begin(), nbrs.end());
  return nbrs;
}

std::vector<VertexId> CsrNeighbors(const Graph& g, VertexId v) {
  auto span = g.OutNeighbors(v);
  return {span.begin(), span.end()};
}

// --------------------------------------------------------------- PageCache

TEST(PageCacheTest, ReadBeyondEofIsZeros) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  PageCache cache(1 << 20);
  auto file = cache.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file.ok());
  char buf[16];
  ASSERT_TRUE(cache.Read(*file, 1 << 16, buf, sizeof(buf)).ok());
  for (char c : buf) EXPECT_EQ(c, 0);
}

TEST(PageCacheTest, WriteReadRoundTrip) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  PageCache cache(1 << 20);
  auto file = cache.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file.ok());
  const char data[] = "hello page cache";
  ASSERT_TRUE(cache.Write(*file, 12345, data, sizeof(data)).ok());
  char buf[sizeof(data)];
  ASSERT_TRUE(cache.Read(*file, 12345, buf, sizeof(buf)).ok());
  EXPECT_STREQ(buf, data);
}

TEST(PageCacheTest, CrossPageBoundaryAccess) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  PageCache cache(1 << 20);
  auto file = cache.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file.ok());
  std::vector<char> data(kPageSize, 'x');
  ASSERT_TRUE(
      cache.Write(*file, kPageSize - 100, data.data(), data.size()).ok());
  std::vector<char> buf(data.size());
  ASSERT_TRUE(
      cache.Read(*file, kPageSize - 100, buf.data(), buf.size()).ok());
  EXPECT_EQ(buf, data);
}

TEST(PageCacheTest, EvictsAndWritesBackUnderPressure) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  {
    PageCache cache(4 * kPageSize);  // 4-page cache
    auto file = cache.OpenFile(dir->File("a.db"));
    ASSERT_TRUE(file.ok());
    // Write 32 pages: forces eviction with writeback.
    for (uint64_t p = 0; p < 32; ++p) {
      uint64_t value = p * 7;
      ASSERT_TRUE(
          cache.Write(*file, p * kPageSize, &value, sizeof(value)).ok());
    }
    const PageCacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.misses - stats.evictions, 4u);  // resident pages
    // Read everything back through the same (small) cache.
    for (uint64_t p = 0; p < 32; ++p) {
      uint64_t value = 0;
      ASSERT_TRUE(
          cache.Read(*file, p * kPageSize, &value, sizeof(value)).ok());
      EXPECT_EQ(value, p * 7);
    }
    ASSERT_TRUE(cache.Flush().ok());
  }
  // And through a fresh cache (data durably on disk).
  PageCache cache2(1 << 20);
  auto file2 = cache2.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file2.ok());
  uint64_t value = 0;
  ASSERT_TRUE(cache2.Read(*file2, 5 * kPageSize, &value, sizeof(value)).ok());
  EXPECT_EQ(value, 35u);
}

TEST(PageCacheTest, HitRateImprovesOnRepeatedAccess) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  PageCache cache(1 << 20);
  auto file = cache.OpenFile(dir->File("a.db"));
  ASSERT_TRUE(file.ok());
  char buf[8];
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache.Read(*file, 0, buf, sizeof(buf)).ok());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 99u);
}

TEST(PageCacheTest, LockFreeReadsNeverSeeAnotherPagesBytes) {
  // A 4-frame cache over a 64-page file in which every 8-byte word of page
  // p holds p. Reader threads read single words, 4-word records and whole
  // pages through their own cursors, mostly from a hot set larger than the
  // cache, so their misses keep evicting and refilling frames under the
  // others' lock-free copies. A copy that overlapped a refill must fail its
  // sequence check and be settled under the lock: every word read must be
  // its own page's stamp, and every read one hit or one miss.
  constexpr uint64_t kPages = 64;
  constexpr uint64_t kWords = kPageSize / sizeof(uint64_t);
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  PageCache cache(4 * kPageSize, /*shards=*/2);
  auto file = cache.OpenFile(dir->File("stamps.db"));
  ASSERT_TRUE(file.ok());
  std::vector<uint64_t> stamps(kWords);
  for (uint64_t p = 0; p < kPages; ++p) {
    std::fill(stamps.begin(), stamps.end(), p);
    ASSERT_TRUE(
        cache.Write(*file, p * kPageSize, stamps.data(), kPageSize).ok());
  }
  ASSERT_TRUE(cache.Flush().ok());
  const PageCacheStats before = cache.stats();
  constexpr uint32_t kThreads = 4;
  constexpr int kReads = 20000;
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> accesses{0};
  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      PageCache::Cursor cursor(cache);
      std::vector<uint64_t> got(kWords);
      for (int i = 0; i < kReads; ++i) {
        const uint64_t p = rng.NextBounded(8) == 0 ? rng.NextBounded(kPages)
                                                   : rng.NextBounded(6);
        const size_t n = i % 3 == 0 ? 1 : i % 3 == 1 ? 4 : kWords;
        const uint64_t w = rng.NextBounded(kWords - n + 1);
        if (!cursor.Read(*file, p * kPageSize + w * sizeof(uint64_t),
                         got.data(), n * sizeof(uint64_t))
                 .ok()) {
          failed.fetch_add(1);
          continue;
        }
        accesses.fetch_add(1);
        for (size_t k = 0; k < n; ++k) {
          if (got[k] != p) wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  const PageCacheStats after = cache.stats();
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            accesses.load());
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GT(after.evictions, before.evictions);
}

// ------------------------------------------------------------------- store

TEST(GraphStoreTest, BulkImportAndNeighbors) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(1, 2);
  auto store = ImportedStore(*dir, Directed(edges));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->node_count(), 3u);
  EXPECT_EQ(store->relationship_count(), 3u);
  EXPECT_EQ(SortedNeighbors(*store, 0, Direction::kBoth),
            (std::vector<VertexId>{1, 2}));
  // 2 has only incoming relationships.
  EXPECT_TRUE(SortedNeighbors(*store, 2, Direction::kOutgoing).empty());
  EXPECT_EQ(SortedNeighbors(*store, 2, Direction::kIncoming),
            (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(SortedNeighbors(*store, 2, Direction::kBoth).size(), 2u);
}

TEST(GraphStoreTest, ReopenReadsBackImportedStore) {
  // BulkImport's flush fsyncs every store file; a store reopened through a
  // fresh cache must read the same counts and chains from disk.
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(400, 1600, 42);
  {
    auto store = ImportedStore(*dir, g);
    ASSERT_NE(store, nullptr);
  }
  StoreConfig config;
  config.directory = dir->File("store");
  auto store = GraphStore::Open(config);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->node_count(), g.num_vertices());
  EXPECT_EQ((*store)->relationship_count(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(SortedNeighbors(**store, v, Direction::kBoth), CsrNeighbors(g, v))
        << "vertex " << v;
  }
  // The loaded counts mark the store as imported.
  EXPECT_TRUE((*store)->BulkImport(g).IsInvalidArgument());
}

TEST(GraphStoreTest, WorksWithTinyPageCache) {
  // Store much larger than the cache: pure eviction traffic, still correct.
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(500, 2000, 41);
  auto store = ImportedStore(*dir, g, 4 * kPageSize);
  ASSERT_NE(store, nullptr);
  // Spot-check neighborhoods against the CSR graph.
  for (VertexId v = 0; v < 500; v += 37) {
    EXPECT_EQ(SortedNeighbors(*store, v, Direction::kBoth), CsrNeighbors(g, v))
        << "vertex " << v;
  }
  EXPECT_GT(store->cache_stats().evictions, 0u);
}

// --------------------------------------------------------------- traversal

TEST(TraversalTest, BfsOrderDepths) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(2, 3);
  auto store = ImportedStore(*dir, Directed(edges));
  ASSERT_NE(store, nullptr);
  std::vector<uint32_t> depth(4, 99);
  TraversalStats stats;
  ASSERT_TRUE(Traverse(
                  store.get(), 0, Direction::kBoth,
                  [&depth](VertexId v, uint32_t d) { depth[v] = d; },
                  /*cancel=*/nullptr, &stats)
                  .ok());
  EXPECT_EQ(depth, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(stats.nodes_visited, 4u);
  EXPECT_EQ(stats.max_depth, 3u);
  // Outgoing only: 2 reaches 3, and nothing reaches back.
  std::vector<VertexId> reached;
  ASSERT_TRUE(Traverse(store.get(), 2, Direction::kOutgoing,
                       [&reached](VertexId v, uint32_t) { reached.push_back(v); })
                  .ok());
  EXPECT_EQ(reached, (std::vector<VertexId>{2, 3}));
}

TEST(TraversalTest, CancelStopsTheWalkWithinOnePollBatch) {
  // A 20000-node path, all reachable from node 0. The visitor cancels the
  // token at visit 5000; the walk must return the token's Status within
  // the next 1024 visits, and must have heartbeat while it made progress.
  constexpr VertexId kNodes = 20000;
  constexpr uint64_t kCancelAt = 5000;
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  EdgeList edges(kNodes);
  for (VertexId v = 0; v + 1 < kNodes; ++v) edges.Add(v, v + 1);
  auto store = ImportedStore(*dir, Directed(edges));
  ASSERT_NE(store, nullptr);
  CancelToken token;
  uint64_t visits = 0;
  uint64_t heartbeats_at_cancel = 0;
  const Status s = Traverse(
      store.get(), 0, Direction::kBoth,
      [&](VertexId, uint32_t) {
        if (++visits == kCancelAt) {
          heartbeats_at_cancel = token.heartbeats();
          token.Cancel(CancelReason::kDeadline, "traversal deadline");
        }
      },
      &token);
  EXPECT_TRUE(s.IsTimeout()) << s.ToString();
  EXPECT_GE(visits, kCancelAt);
  EXPECT_LE(visits, kCancelAt + 1024);
  EXPECT_GE(heartbeats_at_cancel, 4u);
}

TEST(TraversalTest, RejectsBadSeed) {
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  EdgeList edges;
  edges.Add(0, 1);
  auto store = ImportedStore(*dir, Directed(edges));
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(Traverse(store.get(), 5, Direction::kBoth,
                       [](VertexId, uint32_t) {})
                  .IsInvalidArgument());
}

// -------------------------------------------------------------- algorithms

// Imports `g` into a fresh store under `dir` and runs `kind` on it.
Result<AlgorithmOutput> RunOnImportedStore(const TempDir& dir, const Graph& g,
                                           AlgorithmKind kind,
                                           const AlgorithmParams& params,
                                           uint64_t memory_budget_bytes = 0) {
  auto store = ImportedStore(dir, g);
  if (store == nullptr) return Status::Internal("import failed");
  return RunAlgorithmOnStore(store.get(), g.undirected(), memory_budget_bytes,
                             kind, params);
}

TEST(GraphDbAlgorithmsTest, AllAlgorithmsMatchReference) {
  Graph g = RandomUndirected(150, 450, 43);
  AlgorithmParams params;
  params.bfs.source = 4;
  params.cd = CdParams{4, 0.05};
  params.evo.num_new_vertices = 6;
  for (AlgorithmKind kind :
       {AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kCd,
        AlgorithmKind::kStats, AlgorithmKind::kEvo}) {
    auto dir = TempDir::Create("gly-db");
    ASSERT_TRUE(dir.ok());
    auto out = RunOnImportedStore(*dir, g, kind, params);
    ASSERT_TRUE(out.ok()) << AlgorithmKindName(kind) << ": "
                          << out.status().ToString();
    EXPECT_TRUE(harness::ValidateOutput(g, kind, params, *out).ok())
        << AlgorithmKindName(kind);
  }
}

TEST(GraphDbAlgorithmsTest, FailsWhenGraphExceedsMemory) {
  Graph g = RandomUndirected(2000, 8000, 44);
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  // 10 KiB: the store can't fit.
  auto out = RunOnImportedStore(*dir, g, AlgorithmKind::kBfs, {}, 10 << 10);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted());
}

TEST(GraphDbAlgorithmsTest, DirectedBfs) {
  EdgeList edges;
  Rng rng(45);
  for (int i = 0; i < 300; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(80));
    VertexId b = static_cast<VertexId>(rng.NextBounded(80));
    if (a != b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  AlgorithmParams params;
  params.bfs.source = 0;
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  auto out = RunOnImportedStore(*dir, g, AlgorithmKind::kBfs, params);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kBfs, params, *out).ok());
}

// A run reports its own page-cache traffic: neither the import nor an
// earlier run on the same store is in it.
TEST(GraphDbAlgorithmsTest, CacheStatsCountOneRun) {
  Graph g = RandomUndirected(2000, 8000, 46);
  auto dir = TempDir::Create("gly-db");
  ASSERT_TRUE(dir.ok());
  auto store = ImportedStore(*dir, g);
  ASSERT_NE(store, nullptr);
  AlgorithmParams params;
  params.bfs.source = 0;
  DbRunStats first;
  DbRunStats second;
  ASSERT_TRUE(RunAlgorithmOnStore(store.get(), g.undirected(), 0,
                                  AlgorithmKind::kBfs, params, &first)
                  .ok());
  ASSERT_TRUE(RunAlgorithmOnStore(store.get(), g.undirected(), 0,
                                  AlgorithmKind::kBfs, params, &second)
                  .ok());
  EXPECT_GT(first.cache.hits + first.cache.misses, 0u);
  EXPECT_EQ(second.cache.hits + second.cache.misses,
            first.cache.hits + first.cache.misses);
}

}  // namespace
}  // namespace gly::graphdb
