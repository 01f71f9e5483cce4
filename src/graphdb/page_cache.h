// PageCache: fixed-size-page buffer cache over store files.
//
// The graphdb substrate mirrors Neo4j's storage architecture: record files
// accessed through a page cache. The cache capacity is the knob that makes
// the paper's observation mechanistic — "Neo4j is not able to process
// graphs larger than the memory of a single machine, but its performance is
// generally the best" — a store that fits is all cache hits; one that does
// not thrashes or (in the harness's strict mode) refuses the workload.
//
// The cache is split into N lock-striped shards (DESIGN.md §13): pages hash
// to a shard by (file, page), each shard owns `capacity / N` frames guarded
// by its own mutex and evicted with a second-chance clock sweep. Lookups on
// different shards never contend; a try_lock miss on a shard is counted in
// `shard_contention` (surfaced as `graphdb.pagecache.shard_contention`).
// WAL and checkpoint semantics are unchanged: Flush() still writes back
// every dirty page and fsyncs before the WAL truncates.
//
// Every access goes through a PageCache::Cursor, which holds one page
// across consecutive accesses (Read and Write are one-shot cursors), so a
// record walk that stays on a page pays one lookup for the page, not one
// per record, while each record access still counts one hit or one miss.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace gly::graphdb {

/// Page size in bytes (Neo4j uses 8 KiB).
inline constexpr size_t kPageSize = 8192;

/// Cache statistics (aggregated across shards).
struct PageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  /// Times a lookup found its shard's mutex held by another thread.
  uint64_t shard_contention = 0;
};

/// Sharded clock page cache shared by all store files of one database.
/// Concurrent readers on distinct shards proceed in parallel; the store's
/// single-writer discipline (like the benchmarked embedded Neo4j) still
/// serializes mutations above this layer.
class PageCache {
 public:
  /// `capacity_bytes` is rounded down to whole pages (minimum 1 page).
  /// `shards` = 0 picks min(8, capacity_pages); an explicit count is
  /// clamped so every shard owns at least one frame and the summed frame
  /// budget never exceeds the page capacity.
  explicit PageCache(uint64_t capacity_bytes, uint32_t shards = 0);
  ~PageCache();

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  class Cursor;

  /// Registers a backing file; returns its file id. Creates the file if
  /// missing.
  Result<uint32_t> OpenFile(const std::string& path);

  /// Reads `len` bytes at `offset` of file `file_id` into `out` through the
  /// cache. Reads beyond EOF yield zero bytes (fresh pages).
  Status Read(uint32_t file_id, uint64_t offset, void* out, size_t len);

  /// Writes `len` bytes at `offset` through the cache (marks pages dirty).
  Status Write(uint32_t file_id, uint64_t offset, const void* data,
               size_t len);

  /// Writes all dirty pages back and fsyncs the files.
  Status Flush();

  /// Aggregated snapshot across shards (locks each shard briefly).
  PageCacheStats stats() const;
  size_t capacity_pages() const { return capacity_pages_; }
  /// Resident pages summed across shards.
  size_t resident_pages() const;
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }

 private:
  struct PageKey {
    uint32_t file_id;
    uint64_t page_no;
    bool operator==(const PageKey& o) const {
      return file_id == o.file_id && page_no == o.page_no;
    }
  };
  struct PageKeyHash {
    size_t operator()(const PageKey& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.file_id) << 48) ^
                                   k.page_no);
    }
  };
  /// One cache frame: a page image plus the clock's second-chance bit.
  struct Frame {
    PageKey key{0, 0};
    std::vector<char> data;
    bool in_use = false;
    bool dirty = false;
    bool referenced = false;
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Frame> frames;                            // fixed frame pool
    std::vector<size_t> free_slots;                       // never-used frames
    std::unordered_map<PageKey, size_t, PageKeyHash> index;  // key -> frame
    size_t clock_hand = 0;
    size_t resident = 0;
    PageCacheStats stats;  // guarded by mu (except shard_contention)
    mutable std::atomic<uint64_t> contention{0};
  };

  Shard& ShardFor(const PageKey& key) {
    return shards_[PageKeyHash()(key) % shards_.size()];
  }

  /// Locks `shard`, counting a blocked acquisition into its contention tally.
  static std::unique_lock<std::mutex> LockShard(const Shard& shard);

  /// Returns the frame holding (file_id, page_no), faulting it in — and
  /// running the clock sweep — as needed. Caller holds the shard lock.
  Result<Frame*> GetFrame(Shard& shard, uint32_t file_id, uint64_t page_no);
  Status EvictClock(Shard& shard, size_t* slot_out);
  Status WritebackFrame(Frame& frame, PageCacheStats* stats);

  size_t capacity_pages_;
  std::vector<Shard> shards_;
  mutable std::mutex files_mu_;
  std::vector<int> fds_;            // file descriptors by file id
  std::vector<std::string> paths_;  // for error messages
};

/// A page cursor: holds one page — its shard's lock and frame — across
/// consecutive accesses, the way Neo4j's storage engine walks records.
/// An access to the page the cursor holds counts a hit and does nothing
/// else (no lock, no index lookup). An access to any other page releases
/// the held shard, locks the target shard and looks the page up exactly as
/// a one-shot Read/Write does (hit/miss and clock accounting, eviction,
/// the `graphdb.pagecache.read` fault point), so every access still counts
/// one hit or one miss and a cursor never holds two shard locks. An access
/// that fails leaves the cursor holding nothing. Destroying the cursor
/// releases its page.
///
/// The one rule a cursor adds: while a cursor holds a page, its thread
/// makes no other call into the same PageCache — no Read, Write, Flush,
/// stats() or second cursor — because a call that needs the held shard
/// would deadlock. Cursors on different threads may share a cache.
class PageCache::Cursor {
 public:
  explicit Cursor(PageCache& cache) : cache_(&cache) {}

  /// Reads `len` bytes at `offset` of file `file_id` into `out`, holding
  /// the last page touched. Reads beyond EOF yield zero bytes.
  Status Read(uint32_t file_id, uint64_t offset, void* out, size_t len);

  /// Writes `len` bytes at `offset` (marks the pages dirty), holding the
  /// last page touched.
  Status Write(uint32_t file_id, uint64_t offset, const void* data,
               size_t len);

  /// True while the cursor holds a page, and so its shard's lock.
  bool holds_page() const { return lock_.owns_lock(); }

 private:
  /// Positions the cursor on (file_id, page_no).
  Status Seek(uint32_t file_id, uint64_t page_no);

  PageCache* cache_;
  std::unique_lock<std::mutex> lock_;  // the held shard's lock, if any
  Shard* shard_ = nullptr;             // the shard lock_ guards
  Frame* frame_ = nullptr;             // the held page, if any
};

}  // namespace gly::graphdb
