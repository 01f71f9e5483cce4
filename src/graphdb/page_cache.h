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
// to a shard by (file, page), each shard owns `capacity / N` frames and
// evicts with a second-chance clock sweep. Reading a resident page takes no
// lock: a lock-free index maps (file, page) to a frame, and a per-frame
// sequence number, odd while the frame changes, validates the copy (a
// seqlock). The shard's mutex is taken only for misses, eviction, writes
// and Flush(), and for a read whose optimistic copy failed; a try_lock miss
// is counted in `shard_contention` (surfaced as
// `graphdb.pagecache.shard_contention`). No path holds one shard's lock
// while it takes another's, except Flush(), which takes them all in index
// order.
//
// Only the store's bulk import dirties pages, one Write per page. Flush()
// writes the dirty pages back in (file, page) order, each run of
// consecutive pages with one pwritev, and fsyncs every file; an eviction
// writes its dirty victim back the same way, as a one-page run.
//
// Every page a Read, Write or PageCache::Cursor touches counts exactly one
// hit or one miss.

#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
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
  /// Times a locked access found its shard's mutex held by another thread.
  uint64_t shard_contention = 0;
};

/// Sharded clock page cache shared by all store files of one database.
/// Readers copy resident pages without a lock and so never contend; misses
/// lock only their own shard. The store's one writer, its bulk import,
/// runs before any reader.
class PageCache {
 public:
  /// `capacity_bytes` is rounded down to whole pages (minimum 1 page, at
  /// most 2^32 - 2, so a frame's index entry fits 32 bits).
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

  /// Writes `len` bytes at `offset` through the cache and marks the pages
  /// dirty. Each page is one step: lock its shard, fault the page in, store
  /// the bytes inside a write section, unlock. A failed step returns with
  /// no lock held.
  Status Write(uint32_t file_id, uint64_t offset, const void* data,
               size_t len);

  /// Writes every dirty page back in (file, page) order, each run of
  /// consecutive pages with one pwritev of up to IOV_MAX pages, then fsyncs
  /// every file. Holds every shard's lock while it writes. A failed run
  /// leaves its pages dirty for the next Flush.
  Status Flush();

  /// Aggregated snapshot across shards (locks each shard briefly). A live
  /// cursor's lock-free hits are added when it is destroyed.
  PageCacheStats stats() const;
  size_t capacity_pages() const { return capacity_pages_; }
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }

 private:
  struct PageKey {
    uint32_t file_id;
    uint64_t page_no;
    auto operator<=>(const PageKey&) const = default;  // file order
  };
  struct PageKeyHash {
    size_t operator()(const PageKey& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.file_id) << 48) ^
                                   k.page_no);
    }
  };
  /// One cache frame. Its key and page bytes change only under the shard
  /// lock and inside a write section (`seq` odd), so a reader that sees the
  /// same even `seq` before and after its copy read one page image whole.
  /// The bytes are loaded and stored as atomic words wherever a lock-free
  /// reader may copy them.
  struct Frame {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> page_no{0};
    std::atomic<uint32_t> file{0};  // file id + 1; 0 = holds no page
    std::atomic<bool> referenced{false};  // the clock's second chance
    bool dirty = false;                   // guarded by the shard lock
    std::unique_ptr<uint64_t[]> words;    // allocated at the first fault

    bool Holds(const PageKey& key) const;
    /// Copies `len` bytes at `in_page` into `dst`; true if the frame held
    /// `key`, unchanged, for the whole copy (else `dst` is discarded).
    bool TryCopy(const PageKey& key, size_t in_page, char* dst,
                 size_t len) const;
    /// A write section, under the shard lock: BeginWrite, then the key
    /// (SetKey) and bytes (StoreBytes), then EndWrite.
    void BeginWrite();
    void SetKey(uint32_t file_plus_one, uint64_t page);
    void StoreBytes(size_t offset, const char* src, size_t len);
    void EndWrite();
  };
  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<Frame[]> frames;  // fixed frame pool
    size_t num_frames = 0;
    size_t never_used = 0;            // frames [never_used, num_frames)
    std::vector<size_t> free_slots;   // frames freed by a failed fault
    /// Lock-free index: open addressing with linear probing, entries are
    /// frame slot + 1 (0 = empty). Changed under `mu`; read without it.
    std::unique_ptr<std::atomic<uint32_t>[]> index;
    size_t index_mask = 0;
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

  /// Lock-free lookup: a frame that held `key` when the index was read, or
  /// null. The caller validates what it copies (Frame::seq); a null result
  /// may also mean the index was changing, and is settled under the lock.
  static Frame* Lookup(const Shard& shard, const PageKey& key);
  static void IndexInsert(Shard& shard, const PageKey& key, size_t slot);
  static void IndexErase(Shard& shard, const PageKey& key, size_t slot);

  /// Returns the frame holding (file_id, page_no), faulting it in — and
  /// running the clock sweep — as needed. Caller holds the shard lock.
  Result<Frame*> GetFrame(Shard& shard, uint32_t file_id, uint64_t page_no);
  /// Reads page `page_no` of `file_id` into `frame`, a frame no index
  /// entry points to, and makes it that page's frame.
  Status FillFrame(Frame& frame, uint32_t file_id, uint64_t page_no);
  Status EvictClock(Shard& shard, size_t* slot_out);

  /// A dirty frame to write back, with the shard whose stats count it.
  struct DirtyPage {
    PageKey key;
    Frame* frame;
    Shard* shard;
  };
  /// The one write-back path: writes `count` (at most IOV_MAX) dirty
  /// pages, consecutive pages of one file, with one pwritev. Flush() passes
  /// each run of its sorted dirty pages, an eviction its one victim. The
  /// writeback fault point runs once per page; a fault on a page writes the
  /// pages before it and returns the fault.
  Status Writeback(const DirtyPage* run, size_t count);

  int FdOf(uint32_t file_id) const;
  /// The IOError of a failed `call` on `file_id`; the file's path is
  /// copied only here, for the message.
  Status FileError(const char* call, uint32_t file_id, int err) const;

  size_t capacity_pages_;
  std::vector<Shard> shards_;
  mutable std::mutex files_mu_;
  std::vector<int> fds_;            // file descriptors by file id
  std::vector<std::string> paths_;  // for error messages
  /// Hits of lock-free reads, added by each cursor when it is destroyed.
  std::atomic<uint64_t> lock_free_hits_{0};
};

/// A read cursor, the way Neo4j's storage engine walks records.
///
/// A read copies from the resident frame without a lock: the cursor
/// remembers the frame it read last, so a walk that stays on a page skips
/// even the index lookup. When the page is not resident, or the frame
/// changed during the copy, the read takes the shard lock and looks the
/// page up as a one-shot Read does (hit/miss and clock accounting,
/// eviction, the `graphdb.pagecache.read` fault point), then lets the lock
/// go. So every access counts exactly one hit or one miss, and a cursor
/// never holds a lock between calls. Cursors on different threads may share
/// a cache. A cursor is used by one thread at a time and must not outlive
/// its cache.
class PageCache::Cursor {
 public:
  explicit Cursor(PageCache& cache) : cache_(&cache) {}
  ~Cursor();

  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  /// Reads `len` bytes at `offset` of file `file_id` into `out`. Reads
  /// beyond EOF yield zero bytes.
  Status Read(uint32_t file_id, uint64_t offset, void* out, size_t len);

 private:
  /// Copies one page's bytes: lock-free if it can, else under the lock.
  Status ReadInPage(const PageKey& key, size_t in_page, char* dst,
                    size_t len);

  PageCache* cache_;
  Frame* frame_ = nullptr;       // the page read last
  uint64_t lock_free_hits_ = 0;  // not yet added to the cache's count
};

}  // namespace gly::graphdb
