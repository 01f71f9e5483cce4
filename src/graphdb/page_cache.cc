#include "graphdb/page_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fault_injection.h"
#include "common/macros.h"

namespace gly::graphdb {

namespace {

size_t ShardCountFor(size_t capacity_pages, uint32_t requested) {
  size_t count = requested == 0 ? std::min<size_t>(8, capacity_pages)
                                : static_cast<size_t>(requested);
  // Every shard owns at least one frame, and the summed frame budget never
  // exceeds the page capacity (a 4-page cache stays 4 pages however many
  // shards were asked for).
  return std::clamp<size_t>(count, 1, capacity_pages);
}

}  // namespace

PageCache::PageCache(uint64_t capacity_bytes, uint32_t shards)
    : capacity_pages_(std::max<uint64_t>(1, capacity_bytes / kPageSize)),
      shards_(ShardCountFor(capacity_pages_, shards)) {
  const size_t base = capacity_pages_ / shards_.size();
  const size_t extra = capacity_pages_ % shards_.size();
  for (size_t i = 0; i < shards_.size(); ++i) {
    const size_t cap = base + (i < extra ? 1 : 0);
    Shard& shard = shards_[i];
    shard.frames.resize(cap);
    shard.free_slots.reserve(cap);
    // Descending so the first faults fill slot 0 upward.
    for (size_t j = cap; j-- > 0;) shard.free_slots.push_back(j);
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

std::unique_lock<std::mutex> PageCache::LockShard(const Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard.contention.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

Result<PageCache::Frame*> PageCache::GetFrame(Shard& shard, uint32_t file_id,
                                              uint64_t page_no) {
  const PageKey key{file_id, page_no};
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    ++shard.stats.hits;
    Frame& frame = shard.frames[it->second];
    frame.referenced = true;  // second chance for the clock sweep
    return &frame;
  }
  ++shard.stats.misses;
  // Injected transient read error / slow disk on the miss path.
  GLY_FAULT_POINT("graphdb.pagecache.read");
  size_t slot;
  if (!shard.free_slots.empty()) {
    slot = shard.free_slots.back();
    shard.free_slots.pop_back();
  } else {
    GLY_RETURN_NOT_OK(EvictClock(shard, &slot));
  }
  Frame& frame = shard.frames[slot];
  frame.data.assign(kPageSize, 0);  // reuses the evicted frame's buffer
  int fd;
  std::string path;
  {
    std::lock_guard<std::mutex> files_lock(files_mu_);
    fd = fds_[file_id];
    path = paths_[file_id];
  }
  ssize_t n = ::pread(fd, frame.data.data(), kPageSize,
                      static_cast<off_t>(page_no * kPageSize));
  if (n < 0) {
    shard.free_slots.push_back(slot);
    return Status::IOError("pread(" + path + "): " + std::strerror(errno));
  }
  frame.key = key;
  frame.in_use = true;
  frame.dirty = false;
  frame.referenced = true;
  shard.index.emplace(key, slot);
  ++shard.resident;
  return &frame;
}

Status PageCache::EvictClock(Shard& shard, size_t* slot_out) {
  const size_t n = shard.frames.size();
  if (shard.resident == 0) {
    return Status::Internal("page cache shard empty during evict");
  }
  // One full sweep clears every second-chance bit, so two sweeps always
  // find a victim.
  for (size_t step = 0; step < 2 * n + 1; ++step) {
    const size_t slot = shard.clock_hand;
    shard.clock_hand = (shard.clock_hand + 1) % n;
    Frame& frame = shard.frames[slot];
    if (!frame.in_use) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    if (frame.dirty) {
      GLY_RETURN_NOT_OK(WritebackFrame(frame, &shard.stats));
    }
    shard.index.erase(frame.key);
    frame.in_use = false;
    --shard.resident;
    ++shard.stats.evictions;
    *slot_out = slot;
    return Status::OK();
  }
  return Status::Internal("page cache clock sweep found no victim");
}

Status PageCache::WritebackFrame(Frame& frame, PageCacheStats* stats) {
  GLY_FAULT_POINT("graphdb.pagecache.writeback");
  int fd;
  std::string path;
  {
    std::lock_guard<std::mutex> files_lock(files_mu_);
    fd = fds_[frame.key.file_id];
    path = paths_[frame.key.file_id];
  }
  ssize_t n = ::pwrite(fd, frame.data.data(), kPageSize,
                       static_cast<off_t>(frame.key.page_no * kPageSize));
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IOError("pwrite(" + path + "): " + std::strerror(errno));
  }
  frame.dirty = false;
  ++stats->writebacks;
  return Status::OK();
}

Status PageCache::Read(uint32_t file_id, uint64_t offset, void* out,
                       size_t len) {
  return Cursor(*this).Read(file_id, offset, out, len);
}

Status PageCache::Write(uint32_t file_id, uint64_t offset, const void* data,
                        size_t len) {
  return Cursor(*this).Write(file_id, offset, data, len);
}

Status PageCache::Cursor::Seek(uint32_t file_id, uint64_t page_no) {
  const PageKey key{file_id, page_no};
  if (frame_ != nullptr && frame_->key == key) {
    // The held frame cannot have been evicted (we hold its shard), and its
    // second-chance bit is still set from the access that faulted it in.
    ++shard_->stats.hits;
    return Status::OK();
  }
  frame_ = nullptr;
  Shard& shard = cache_->ShardFor(key);
  if (shard_ != &shard) {
    if (lock_.owns_lock()) lock_.unlock();  // never hold two shard locks
    lock_ = LockShard(shard);
    shard_ = &shard;
  }
  Result<Frame*> frame = cache_->GetFrame(shard, file_id, page_no);
  if (!frame.ok()) {
    lock_.unlock();
    shard_ = nullptr;
    return frame.status();
  }
  frame_ = *frame;
  return Status::OK();
}

Status PageCache::Cursor::Read(uint32_t file_id, uint64_t offset, void* out,
                               size_t len) {
  char* dst = static_cast<char*>(out);
  while (len > 0) {
    const size_t in_page = static_cast<size_t>(offset % kPageSize);
    const size_t chunk = std::min(len, kPageSize - in_page);
    GLY_RETURN_NOT_OK(Seek(file_id, offset / kPageSize));
    std::memcpy(dst, frame_->data.data() + in_page, chunk);
    dst += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::OK();
}

Status PageCache::Cursor::Write(uint32_t file_id, uint64_t offset,
                                const void* data, size_t len) {
  const char* src = static_cast<const char*>(data);
  while (len > 0) {
    const size_t in_page = static_cast<size_t>(offset % kPageSize);
    const size_t chunk = std::min(len, kPageSize - in_page);
    GLY_RETURN_NOT_OK(Seek(file_id, offset / kPageSize));
    std::memcpy(frame_->data.data() + in_page, src, chunk);
    frame_->dirty = true;
    src += chunk;
    offset += chunk;
    len -= chunk;
  }
  return Status::OK();
}

Status PageCache::Flush() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    for (Frame& frame : shard.frames) {
      if (frame.in_use && frame.dirty) {
        GLY_RETURN_NOT_OK(WritebackFrame(frame, &shard.stats));
      }
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
  return out;
}

size_t PageCache::resident_pages() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::unique_lock<std::mutex> lock = LockShard(shard);
    total += shard.resident;
  }
  return total;
}

}  // namespace gly::graphdb
