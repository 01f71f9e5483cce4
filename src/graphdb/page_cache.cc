#include "graphdb/page_cache.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <climits>
#include <cstring>
#include <limits>

#include "common/fault_injection.h"
#include "common/macros.h"

namespace gly::graphdb {

namespace {

constexpr size_t kWordsPerPage = kPageSize / sizeof(uint64_t);
// The most pages one pwritev writes back.
constexpr size_t kMaxRunPages = IOV_MAX;

size_t ShardCountFor(size_t capacity_pages, uint32_t requested) {
  size_t count = requested == 0 ? std::min<size_t>(8, capacity_pages)
                                : static_cast<size_t>(requested);
  // Every shard owns at least one frame, and the summed frame budget never
  // exceeds the page capacity (a 4-page cache stays 4 pages however many
  // shards were asked for).
  return std::clamp<size_t>(count, 1, capacity_pages);
}

// Reads one page at `at` into `buf`; bytes beyond EOF read as zeros. False
// (with errno set) if the pread failed.
bool ReadPage(int fd, off_t at, void* buf) {
  const ssize_t n = ::pread(fd, buf, kPageSize, at);
  if (n < 0) return false;
  std::memset(static_cast<char*>(buf) + n, 0,
              kPageSize - static_cast<size_t>(n));
  return true;
}

// A key's first index position. The shard was picked from the low bits of
// the same hash, so the position mixes all of them.
size_t Home(size_t hash, size_t mask) {
  uint64_t h = hash;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & mask;
}

}  // namespace

// ------------------------------------------------------ the frame seqlock
//
// Frame bytes that a lock-free reader may copy are loaded and stored as
// atomic words. Acquire loads keep a reader's copy before its second read
// of `seq`, and release stores keep a writer's odd `seq` before its key and
// bytes, without a standalone fence (which the thread sanitizer does not
// model); on x86 both are plain moves.

bool PageCache::Frame::Holds(const PageKey& key) const {
  return page_no.load(std::memory_order_acquire) == key.page_no &&
         file.load(std::memory_order_acquire) == key.file_id + 1;
}

bool PageCache::Frame::TryCopy(const PageKey& key, size_t in_page,
                               char* dst, size_t len) const {
  const uint64_t before = seq.load(std::memory_order_acquire);
  if ((before & 1) != 0 || !Holds(key)) return false;
  size_t word = in_page / sizeof(uint64_t);
  size_t skip = in_page % sizeof(uint64_t);
  while (len > 0) {
    const uint64_t value =
        std::atomic_ref<uint64_t>(words[word]).load(std::memory_order_acquire);
    const size_t n = std::min(len, sizeof(uint64_t) - skip);
    std::memcpy(dst, reinterpret_cast<const char*>(&value) + skip, n);
    dst += n;
    len -= n;
    skip = 0;
    ++word;
  }
  return seq.load(std::memory_order_relaxed) == before;
}

void PageCache::Frame::BeginWrite() {
  seq.store(seq.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
}

void PageCache::Frame::SetKey(uint32_t file_plus_one, uint64_t page) {
  page_no.store(page, std::memory_order_release);
  file.store(file_plus_one, std::memory_order_release);
}

// The shard lock makes this the only store to the frame, so a partly
// covered word can be read, merged and stored back.
void PageCache::Frame::StoreBytes(size_t offset, const char* src,
                                  size_t len) {
  size_t word = offset / sizeof(uint64_t);
  size_t skip = offset % sizeof(uint64_t);
  while (len > 0) {
    std::atomic_ref<uint64_t> target(words[word]);
    const size_t n = std::min(len, sizeof(uint64_t) - skip);
    uint64_t value =
        n == sizeof(uint64_t) ? 0 : target.load(std::memory_order_relaxed);
    std::memcpy(reinterpret_cast<char*>(&value) + skip, src, n);
    target.store(value, std::memory_order_release);
    src += n;
    len -= n;
    skip = 0;
    ++word;
  }
}

void PageCache::Frame::EndWrite() {
  seq.store(seq.load(std::memory_order_relaxed) + 1,
            std::memory_order_release);
}

// ------------------------------------------------------------------ cache

PageCache::PageCache(uint64_t capacity_bytes, uint32_t shards)
    : capacity_pages_(std::clamp<uint64_t>(
          capacity_bytes / kPageSize, 1,
          std::numeric_limits<uint32_t>::max() - 1)),  // index entries: u32
      shards_(ShardCountFor(capacity_pages_, shards)) {
  const size_t base = capacity_pages_ / shards_.size();
  const size_t extra = capacity_pages_ % shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    shard.num_frames = base + (i < extra ? 1 : 0);
    shard.frames = std::make_unique<Frame[]>(shard.num_frames);
    // At most half full, so probe runs stay short.
    const size_t index_size = std::bit_ceil(2 * shard.num_frames);
    shard.index = std::make_unique<std::atomic<uint32_t>[]>(index_size);
    shard.index_mask = index_size - 1;
  }
}

PageCache::~PageCache() {
  // Best effort: write back and close.
  Status s = Flush();
  (void)s;
  std::lock_guard<std::mutex> lock(files_mu_);
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

Result<uint32_t> PageCache::OpenFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  std::lock_guard<std::mutex> lock(files_mu_);
  fds_.push_back(fd);
  paths_.push_back(path);
  return static_cast<uint32_t>(fds_.size() - 1);
}

int PageCache::FdOf(uint32_t file_id) const {
  std::lock_guard<std::mutex> lock(files_mu_);
  return fds_[file_id];
}

Status PageCache::FileError(const char* call, uint32_t file_id,
                            int err) const {
  std::lock_guard<std::mutex> lock(files_mu_);
  return Status::IOError(std::string(call) + "(" + paths_[file_id] +
                         "): " + std::strerror(err));
}

std::unique_lock<std::mutex> PageCache::LockShard(const Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.contention.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

PageCache::Frame* PageCache::Lookup(const Shard& shard, const PageKey& key) {
  const size_t mask = shard.index_mask;
  size_t i = Home(PageKeyHash()(key), mask);
  for (size_t probes = 0; probes <= mask; ++probes, i = (i + 1) & mask) {
    const uint32_t entry = shard.index[i].load(std::memory_order_acquire);
    if (entry == 0) return nullptr;
    Frame& frame = shard.frames[entry - 1];
    if (frame.Holds(key)) return &frame;
  }
  return nullptr;
}

void PageCache::IndexInsert(Shard& shard, const PageKey& key, size_t slot) {
  const size_t mask = shard.index_mask;
  size_t i = Home(PageKeyHash()(key), mask);
  while (shard.index[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & mask;
  }
  shard.index[i].store(static_cast<uint32_t>(slot + 1),
                       std::memory_order_release);
}

void PageCache::IndexErase(Shard& shard, const PageKey& key, size_t slot) {
  const size_t mask = shard.index_mask;
  size_t hole = Home(PageKeyHash()(key), mask);
  while (shard.index[hole].load(std::memory_order_relaxed) != slot + 1) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: each later entry of the probe run whose home
  // lies at or before the hole moves into it, so every key stays reachable
  // from its home without tombstones. A reader racing the shift may miss an
  // entry, and then settles the page under the lock.
  for (size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
    const uint32_t entry = shard.index[j].load(std::memory_order_relaxed);
    if (entry == 0) break;
    const Frame& frame = shard.frames[entry - 1];
    const PageKey moved{frame.file.load(std::memory_order_relaxed) - 1,
                        frame.page_no.load(std::memory_order_relaxed)};
    const size_t home = Home(PageKeyHash()(moved), mask);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      shard.index[hole].store(entry, std::memory_order_release);
      hole = j;
    }
  }
  shard.index[hole].store(0, std::memory_order_release);
}

Result<PageCache::Frame*> PageCache::GetFrame(Shard& shard, uint32_t file_id,
                                              uint64_t page_no) {
  const PageKey key{file_id, page_no};
  if (Frame* frame = Lookup(shard, key)) {
    ++shard.stats.hits;
    frame->referenced.store(true, std::memory_order_relaxed);
    return frame;
  }
  ++shard.stats.misses;
  // Injected transient read error / slow disk on the miss path.
  GLY_FAULT_POINT("graphdb.pagecache.read");
  size_t slot;
  if (!shard.free_slots.empty()) {
    slot = shard.free_slots.back();
    shard.free_slots.pop_back();
  } else if (shard.never_used < shard.num_frames) {
    slot = shard.never_used++;  // the first faults fill slot 0 upward
  } else {
    GLY_RETURN_NOT_OK(EvictClock(shard, &slot));
  }
  Frame& frame = shard.frames[slot];
  Status filled = FillFrame(frame, file_id, page_no);
  if (!filled.ok()) {
    shard.free_slots.push_back(slot);
    return filled;
  }
  frame.dirty = false;
  frame.referenced.store(true, std::memory_order_relaxed);
  IndexInsert(shard, key, slot);
  ++shard.resident;
  return &frame;
}

Status PageCache::FillFrame(Frame& frame, uint32_t file_id, uint64_t page_no) {
  // No reader has seen a fresh frame, so the page is read straight into it.
  // A lock-free reader may still be copying an evicted page out of a used
  // one: stage the new page and store it word by word inside the write
  // section.
  const bool fresh = frame.words == nullptr;
  if (fresh) {
    frame.words = std::make_unique_for_overwrite<uint64_t[]>(kWordsPerPage);
  }
  alignas(uint64_t) char staged[kPageSize];
  if (!ReadPage(FdOf(file_id), static_cast<off_t>(page_no * kPageSize),
                fresh ? static_cast<void*>(frame.words.get()) : staged)) {
    return FileError("pread", file_id, errno);
  }
  frame.BeginWrite();
  if (!fresh) frame.StoreBytes(0, staged, kPageSize);
  frame.SetKey(file_id + 1, page_no);
  frame.EndWrite();
  return Status::OK();
}

Status PageCache::EvictClock(Shard& shard, size_t* slot_out) {
  const size_t n = shard.num_frames;
  if (shard.resident == 0) {
    return Status::Internal("page cache shard empty during evict");
  }
  // One full sweep clears every second-chance bit, so two sweeps always
  // find a victim.
  for (size_t step = 0; step < 2 * n + 1; ++step) {
    const size_t slot = shard.clock_hand;
    shard.clock_hand = (shard.clock_hand + 1) % n;
    Frame& frame = shard.frames[slot];
    const uint32_t file = frame.file.load(std::memory_order_relaxed);
    if (file == 0) continue;
    if (frame.referenced.load(std::memory_order_relaxed)) {
      frame.referenced.store(false, std::memory_order_relaxed);
      continue;
    }
    const PageKey key{file - 1, frame.page_no.load(std::memory_order_relaxed)};
    if (frame.dirty) {
      const DirtyPage victim{key, &frame, &shard};
      GLY_RETURN_NOT_OK(Writeback(&victim, 1));
    }
    frame.BeginWrite();
    frame.SetKey(0, 0);
    frame.EndWrite();
    IndexErase(shard, key, slot);
    --shard.resident;
    ++shard.stats.evictions;
    *slot_out = slot;
    return Status::OK();
  }
  return Status::Internal("page cache clock sweep found no victim");
}

Status PageCache::Writeback(const DirtyPage* run, size_t count) {
  size_t ready = 0;
  Status fault = Status::OK();
  for (; ready < count; ++ready) {
    fault = fault::CheckPoint("graphdb.pagecache.writeback");
    if (!fault.ok()) break;
  }
  if (ready == 0) return fault;
  std::array<iovec, kMaxRunPages> iov;
  for (size_t i = 0; i < ready; ++i) {
    iov[i] = {run[i].frame->words.get(), kPageSize};
  }
  const uint32_t file_id = run[0].key.file_id;
  const ssize_t n =
      ::pwritev(FdOf(file_id), iov.data(), static_cast<int>(ready),
                static_cast<off_t>(run[0].key.page_no * kPageSize));
  if (n != static_cast<ssize_t>(ready * kPageSize)) {
    return FileError("pwritev", file_id, errno);
  }
  for (size_t i = 0; i < ready; ++i) {
    run[i].frame->dirty = false;
    ++run[i].shard->stats.writebacks;
  }
  return fault;
}

Status PageCache::Read(uint32_t file_id, uint64_t offset, void* out,
                       size_t len) {
  return Cursor(*this).Read(file_id, offset, out, len);
}

Status PageCache::Write(uint32_t file_id, uint64_t offset, const void* data,
                        size_t len) {
  const char* src = static_cast<const char*>(data);
  while (len > 0) {
    const PageKey key{file_id, offset / kPageSize};
    const size_t in_page = static_cast<size_t>(offset % kPageSize);
    const size_t chunk = std::min(len, kPageSize - in_page);
    Shard& shard = ShardFor(key);
    std::unique_lock<std::mutex> lock = LockShard(shard);
    GLY_ASSIGN_OR_RETURN(Frame* frame, GetFrame(shard, file_id, key.page_no));
    frame->BeginWrite();
    frame->StoreBytes(in_page, src, chunk);
    frame->EndWrite();
    frame->dirty = true;
    src += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::OK();
}

PageCache::Cursor::~Cursor() {
  if (lock_free_hits_ != 0) {
    cache_->lock_free_hits_.fetch_add(lock_free_hits_,
                                      std::memory_order_relaxed);
  }
}

Status PageCache::Cursor::ReadInPage(const PageKey& key, size_t in_page,
                                     char* dst, size_t len) {
  Frame* frame = frame_;
  if (frame == nullptr || !frame->TryCopy(key, in_page, dst, len)) {
    frame = Lookup(cache_->ShardFor(key), key);
    if (frame != nullptr && !frame->TryCopy(key, in_page, dst, len)) {
      frame = nullptr;
    }
  }
  if (frame != nullptr) {
    if (!frame->referenced.load(std::memory_order_relaxed)) {
      frame->referenced.store(true, std::memory_order_relaxed);
    }
    ++lock_free_hits_;
    frame_ = frame;
    return Status::OK();
  }
  // Not resident, or it changed under the copy: settle it under the lock.
  frame_ = nullptr;
  Shard& shard = cache_->ShardFor(key);
  std::unique_lock<std::mutex> lock = LockShard(shard);
  GLY_ASSIGN_OR_RETURN(frame,
                       cache_->GetFrame(shard, key.file_id, key.page_no));
  std::memcpy(dst, reinterpret_cast<const char*>(frame->words.get()) + in_page,
              len);  // no store races a copy under the lock
  frame_ = frame;
  return Status::OK();
}

Status PageCache::Cursor::Read(uint32_t file_id, uint64_t offset, void* out,
                               size_t len) {
  char* dst = static_cast<char*>(out);
  while (len > 0) {
    const size_t in_page = static_cast<size_t>(offset % kPageSize);
    const size_t chunk = std::min(len, kPageSize - in_page);
    GLY_RETURN_NOT_OK(
        ReadInPage(PageKey{file_id, offset / kPageSize}, in_page, dst, chunk));
    dst += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::OK();
}

Status PageCache::Flush() {
  {
    // Every other path holds at most one shard lock, so taking them all in
    // index order cannot deadlock.
    std::vector<std::unique_lock<std::mutex>> locks;
    for (const Shard& shard : shards_) locks.push_back(LockShard(shard));
    std::vector<DirtyPage> dirty;
    for (Shard& shard : shards_) {
      for (size_t slot = 0; slot < shard.never_used; ++slot) {
        Frame& frame = shard.frames[slot];
        const uint32_t file = frame.file.load(std::memory_order_relaxed);
        if (file != 0 && frame.dirty) {
          dirty.push_back(
              {{file - 1, frame.page_no.load(std::memory_order_relaxed)},
               &frame, &shard});
        }
      }
    }
    std::sort(dirty.begin(), dirty.end(),
              [](const DirtyPage& a, const DirtyPage& b) {
                return a.key < b.key;
              });
    for (size_t begin = 0, end; begin < dirty.size(); begin = end) {
      end = begin + 1;
      while (end < dirty.size() && end - begin < kMaxRunPages &&
             dirty[end].key.file_id == dirty[begin].key.file_id &&
             dirty[end].key.page_no == dirty[end - 1].key.page_no + 1) {
        ++end;
      }
      GLY_RETURN_NOT_OK(Writeback(&dirty[begin], end - begin));
    }
  }
  std::lock_guard<std::mutex> lock(files_mu_);
  for (int fd : fds_) {
    if (fd >= 0 && ::fsync(fd) != 0) {
      return Status::IOError(std::string("fsync: ") + std::strerror(errno));
    }
  }
  return Status::OK();
}

PageCacheStats PageCache::stats() const {
  PageCacheStats out;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    out.hits += shard.stats.hits;
    out.misses += shard.stats.misses;
    out.evictions += shard.stats.evictions;
    out.writebacks += shard.stats.writebacks;
    out.shard_contention +=
        shard.contention.load(std::memory_order_relaxed);
  }
  out.hits += lock_free_hits_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace gly::graphdb
