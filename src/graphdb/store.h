// GraphStore: Neo4j-style record storage, imported once in bulk and then
// only read.
//
// Layout mirrors Neo4j's native store:
//   nodes.db — fixed 16-byte node records:
//       [first_rel: u64][first_prop: u64, reserved]
//   rels.db  — fixed 32-byte relationship records:
//       [src: u32][dst: u32][src_next: u64][dst_next: u64][in_use+pad: u64]
//   meta.db  — the node and relationship counts.
// Relationship records are shared by both endpoints and threaded onto two
// intrusive linked lists (src chain and dst chain), as in Neo4j's
// relationship chains; traversing a node's relationships walks its chain,
// choosing the next pointer by which endpoint matches.
//
// As in the Graphalytics Neo4j driver, the graph is loaded once by the
// platform's loading method (BulkImport, like neo4j-admin import), which
// writes every record, flushes the page cache and fsyncs each file; the
// algorithms then only read. The store has no write transactions, so it
// keeps no write-ahead log.
//
// All access goes through the PageCache. BulkImport reads the CSR rows
// directly (no edge-list copy) and stages records one page at a time, so
// each 8 KiB page costs one PageCache::Write; CollectNeighbors walks a
// chain through one PageCache::Cursor, so consecutive records on a page
// cost one cache lookup, and chain walks read resident pages without a
// lock.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "graph/graph.h"
#include "graphdb/page_cache.h"

namespace gly::graphdb {

/// Sentinel for "end of chain".
inline constexpr uint64_t kNilRecord = ~0ULL;

/// Store configuration.
struct StoreConfig {
  std::string directory;            ///< store files live here (required)
  /// Page cache size; the cache splits it into min(8, capacity pages)
  /// lock-striped shards.
  uint64_t page_cache_bytes = 64ULL << 20;
};

/// Which of a node's relationships a chain walk follows.
enum class Direction { kOutgoing, kIncoming, kBoth };

/// The embedded graph database.
class GraphStore {
 public:
  /// Opens (creating if empty) a store and reads its counts.
  static Result<std::unique_ptr<GraphStore>> Open(const StoreConfig& config);

  /// Bulk-imports `graph` into an empty store (the Graphalytics "dataset
  /// loading method"). Nodes are [0, num_vertices). Each logical edge
  /// becomes one relationship record, in row order: rows ascending, each
  /// row's targets ascending, and on an undirected graph only the entries
  /// with target >= row (Graph::ToEdgeList's order). `cancel` (optional) is
  /// polled every 4096 records; a cancelled import returns the token's
  /// Status and leaves the store un-checkpointed (discard it).
  Status BulkImport(const Graph& graph, const CancelToken* cancel = nullptr);

  uint64_t node_count() const { return node_count_; }
  uint64_t relationship_count() const { return rel_count_; }

  /// A page cursor for one thread's chain walks. Reusing it across walks
  /// adds its hits to cache_stats() once, when it is destroyed.
  PageCache::Cursor ReadCursor() const { return PageCache::Cursor(*cache_); }

  /// Collects the neighbors of `node` across the relationships `direction`
  /// selects, in chain order (newest relationship first), by walking its
  /// chain through `cursor`. Threads may call it concurrently, each with
  /// its own cursor.
  Status CollectNeighbors(VertexId node, Direction direction,
                          PageCache::Cursor& cursor,
                          std::vector<VertexId>* out) const;

  /// Writes every dirty page back and fsyncs the store files.
  Status Checkpoint();

  /// Aggregated snapshot across the cache's shards.
  PageCacheStats cache_stats() const { return cache_->stats(); }

  /// Total store bytes (the "graph larger than memory" check).
  uint64_t store_bytes() const;

 private:
  GraphStore() = default;

  Status LoadCounts();
  Status SaveCounts();

  static constexpr size_t kNodeRecordSize = 16;
  static constexpr size_t kRelRecordSize = 32;

  std::unique_ptr<PageCache> cache_;
  uint32_t nodes_file_ = 0;
  uint32_t rels_file_ = 0;
  uint32_t meta_file_ = 0;
  uint64_t node_count_ = 0;
  uint64_t rel_count_ = 0;
};

}  // namespace gly::graphdb
