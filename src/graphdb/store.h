// GraphStore: Neo4j-style record storage.
//
// Layout mirrors Neo4j's native store:
//   nodes.db — fixed 16-byte node records:
//       [first_rel: u64][first_prop: u64]
//   rels.db  — fixed 32-byte relationship records:
//       [src: u32][dst: u32][src_next: u64][dst_next: u64][in_use+pad: u64]
//   props.db — fixed 24-byte property records:
//       [key_id: u32][pad: u32][value: i64][next: u64]
// Relationship records are shared by both endpoints and threaded onto two
// intrusive linked lists (src chain and dst chain), as in Neo4j's
// relationship chains; traversing a node's relationships walks its chain,
// choosing the next pointer by which endpoint matches. Deletion unlinks the
// record from both chains and tombstones it (in_use = 0); record ids are
// never reused.
//
// All access goes through the PageCache. The two record-streaming paths —
// BulkImport writing records in id order and CollectNeighbors walking a
// chain — go through one PageCache::Cursor, so consecutive records on a
// page cost one cache lookup, and chain walks read resident pages without
// a lock; every other access is a one-shot Read/Write.
// Mutations go through Transactions whose commits are WAL-journaled (see
// wal.h); Recover() replays the log.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "graph/edge_list.h"
#include "graphdb/page_cache.h"
#include "graphdb/wal.h"

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
  /// Opens (creating if empty) a store and replays the WAL.
  static Result<std::unique_ptr<GraphStore>> Open(const StoreConfig& config);

  /// Bulk-imports an edge list into an empty store (the Graphalytics
  /// "dataset loading method"). Nodes are [0, num_vertices). Each input
  /// edge becomes one relationship record. `cancel` (optional) is polled
  /// every few thousand records; a cancelled import returns the token's
  /// Status and leaves the store un-checkpointed (discard it).
  Status BulkImport(const EdgeList& edges, const CancelToken* cancel = nullptr);

  uint64_t node_count() const { return node_count_; }
  /// Live relationships (created minus deleted).
  uint64_t relationship_count() const { return rel_count_ - rel_deleted_; }

  /// A page cursor for one thread's chain walks. Reusing it across walks
  /// adds its hits to cache_stats() once, when it is destroyed.
  PageCache::Cursor ReadCursor() const { return PageCache::Cursor(*cache_); }

  /// Collects the neighbors of `node` across the relationships `direction`
  /// selects, in chain order (newest relationship first), by walking its
  /// chain through `cursor`. Threads may call it concurrently, each with
  /// its own cursor, while no transaction commits.
  Status CollectNeighbors(VertexId node, Direction direction,
                          PageCache::Cursor& cursor,
                          std::vector<VertexId>* out) const;

  /// As above through a cursor of its own: outgoing relationships when
  /// `outgoing_only`, else both directions.
  Status CollectNeighbors(VertexId node, bool outgoing_only,
                          std::vector<VertexId>* out);

  // ------------------------------------------------------------ mutations

  /// A write transaction. Mutations are buffered; Commit() journals them to
  /// the WAL and applies them to the store. Destroying an uncommitted
  /// transaction discards it (rollback).
  class Transaction {
   public:
    /// Creates a node; returns its id.
    Result<VertexId> CreateNode();

    /// Creates a relationship between existing nodes; returns its id.
    Result<uint64_t> CreateRelationship(VertexId src, VertexId dst);

    /// Sets an integer property on a node.
    Status SetNodeProperty(VertexId node, uint32_t key_id, int64_t value);

    /// Deletes a relationship: unlinks it from both endpoints' chains and
    /// tombstones the record (ids are not reused). NotFound if already
    /// deleted or never created.
    Status DeleteRelationship(uint64_t rel_id);

    /// Journals and applies all buffered changes.
    Status Commit();

   private:
    friend class GraphStore;
    explicit Transaction(GraphStore* store) : store_(store) {}

    // Buffered page images: read-your-writes within the transaction.
    Result<std::string> ReadShadow(uint32_t file_id, uint64_t offset,
                                   size_t len);
    void WriteShadow(uint32_t file_id, uint64_t offset, const void* data,
                     size_t len);

    /// Unlinks `rel_id` from `node`'s relationship chain.
    Status UnlinkFromChain(VertexId node, uint64_t rel_id);

    GraphStore* store_;
    std::vector<WalChange> changes_;
    uint64_t new_node_count_;
    uint64_t new_rel_count_;
    uint64_t new_prop_count_;
    uint64_t new_rel_deleted_;
    bool committed_ = false;
  };

  /// Begins a write transaction (single-writer store).
  Transaction Begin();

  /// Reads an integer node property; NotFound if absent.
  Result<int64_t> GetNodeProperty(VertexId node, uint32_t key_id);

  /// Flushes the page cache and truncates the WAL.
  Status Checkpoint();

  /// Aggregated snapshot across the cache's shards.
  PageCacheStats cache_stats() const { return cache_->stats(); }

  /// WAL entries replayed when this store was opened.
  uint64_t wal_entries_recovered() const { return wal_entries_recovered_; }
  /// Torn WAL tail bytes truncated when this store was opened.
  uint64_t wal_bytes_truncated() const { return wal_bytes_truncated_; }

  /// Total store bytes (the "graph larger than memory" check).
  uint64_t store_bytes() const;

 private:
  GraphStore() = default;

  Status LoadCounts();
  Status SaveCounts();
  Status Recover();

  static constexpr size_t kNodeRecordSize = 16;
  static constexpr size_t kRelRecordSize = 32;
  static constexpr size_t kPropRecordSize = 24;

  std::unique_ptr<PageCache> cache_;
  std::unique_ptr<Wal> wal_;
  uint32_t nodes_file_ = 0;
  uint32_t rels_file_ = 0;
  uint32_t props_file_ = 0;
  uint32_t meta_file_ = 0;
  uint64_t node_count_ = 0;
  uint64_t rel_count_ = 0;   // allocation high-water mark (ids not reused)
  uint64_t prop_count_ = 0;
  uint64_t rel_deleted_ = 0;
  uint64_t wal_entries_recovered_ = 0;
  uint64_t wal_bytes_truncated_ = 0;
};

}  // namespace gly::graphdb
