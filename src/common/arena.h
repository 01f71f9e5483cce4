// Recycled-buffer primitives for the engine hot paths (the "arena" layer
// of the hot-path memory model, DESIGN.md §13).
//
// The paper's choke-point analysis (§2.1) blames per-superstep heap
// allocation and map-based message routing for most of the gap between
// the Pregel/dataflow engines and the hardware bound; Virtuoso's win in
// the same study comes from contiguous columnar access. These helpers let
// the engines keep every message/shuffle buffer flat and recycled:
//
//   * VectorPool<T>     — acquire/release std::vector<T> buffers whose
//                         capacity survives recycling, with byte telemetry
//                         reported into a shared PoolGroupStats.
//   * FlatAccumulator<V>— an epoch-tagged dense [key -> value] array: O(1)
//                         first-touch detection without clearing between
//                         epochs, the allocation-free replacement for
//                         per-round std::unordered_map / sort-and-fold.
//   * PoolGroupStats    — atomic held/peak byte accounting shared by the
//                         pools of one engine run (surfaced as
//                         `pregel.outbox_bytes_peak` /
//                         `dataflow.shuffle_bytes_pooled`).
//
// Lifetimes: pools and accumulators are owned by one engine activation
// (an Engine::Run frame or a dataflow Context); buffers recycle across
// supersteps/operators inside that activation and are released when it
// unwinds — including on cancellation, which exits through the normal
// return path.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gly::arena {

/// Atomic held/peak byte accounting for a group of pools (one engine run).
/// Add/Sub are thread-safe; peak() is a monotonic high-water mark.
class PoolGroupStats {
 public:
  void Add(uint64_t bytes);
  void Sub(uint64_t bytes);
  uint64_t held() const { return held_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> held_{0};
  std::atomic<uint64_t> peak_{0};
};

/// Pool of std::vector<T> buffers. Release() keeps the vector's capacity
/// alive for the next Acquire(), so steady-state operation performs no
/// heap traffic. Not thread-safe: each pool belongs to one owner (the
/// engines use one pool per run/context, touched only between parallel
/// phases).
template <typename T>
class VectorPool {
 public:
  explicit VectorPool(PoolGroupStats* stats = nullptr) : stats_(stats) {}
  VectorPool(const VectorPool&) = delete;
  VectorPool& operator=(const VectorPool&) = delete;
  ~VectorPool() { Clear(); }

  /// Returns an empty vector, reusing a recycled buffer when available.
  std::vector<T> Acquire() {
    if (free_.empty()) return {};
    std::vector<T> v = std::move(free_.back());
    free_.pop_back();
    Account(-static_cast<int64_t>(Bytes(v)));
    v.clear();
    return v;
  }

  /// Recycles `v`'s storage. The contained elements are destroyed (clear),
  /// the capacity is kept.
  void Release(std::vector<T>&& v) {
    if (v.capacity() == 0) return;
    v.clear();
    Account(static_cast<int64_t>(Bytes(v)));
    free_.push_back(std::move(v));
  }

  /// Frees every recycled buffer (end-of-run / cancellation unwind).
  void Clear() {
    for (auto& v : free_) Account(-static_cast<int64_t>(Bytes(v)));
    free_.clear();
    free_.shrink_to_fit();
  }

  size_t free_buffers() const { return free_.size(); }

  /// Bytes currently held by recycled (idle) buffers.
  uint64_t held_bytes() const {
    uint64_t total = 0;
    for (const auto& v : free_) total += Bytes(v);
    return total;
  }

 private:
  static uint64_t Bytes(const std::vector<T>& v) {
    return static_cast<uint64_t>(v.capacity()) * sizeof(T);
  }
  void Account(int64_t delta) {
    if (stats_ == nullptr || delta == 0) return;
    if (delta > 0) {
      stats_->Add(static_cast<uint64_t>(delta));
    } else {
      stats_->Sub(static_cast<uint64_t>(-delta));
    }
  }

  std::vector<std::vector<T>> free_;
  PoolGroupStats* stats_;
};

/// Epoch-tagged dense accumulator: a flat [key -> value] array over keys
/// in [0, size) where "is this key live this round" is one integer
/// compare, and starting a new round is O(1) (no clearing). The touched
/// list records first-touch order, so callers can iterate live keys —
/// either in encounter order or sorted — without scanning the whole
/// domain. 64-bit epochs never wrap in practice.
template <typename V>
class FlatAccumulator {
 public:
  /// Grows the key domain to at least `n` (values of new slots are
  /// default-constructed; they only become visible after mark()).
  void EnsureDomain(size_t n) {
    if (tags_.size() < n) {
      tags_.resize(n, 0);
      slots_.resize(n);
    }
  }

  /// Starts a new accumulation round; every key becomes un-touched.
  void NewEpoch() {
    ++epoch_;
    touched_.clear();
  }

  bool touched(size_t key) const { return tags_[key] == epoch_; }

  /// Marks `key` live this epoch and records it in the touched list.
  /// Call once per key per epoch (guarded by touched()).
  V& mark(size_t key) {
    tags_[key] = epoch_;
    touched_.push_back(key);
    return slots_[key];
  }

  V& slot(size_t key) { return slots_[key]; }
  const V& slot(size_t key) const { return slots_[key]; }

  /// Keys marked this epoch, in first-touch order (mutable so callers may
  /// sort it when deterministic ascending order is required).
  std::vector<size_t>& touched_keys() { return touched_; }

  uint64_t held_bytes() const {
    return static_cast<uint64_t>(tags_.capacity()) * sizeof(uint64_t) +
           static_cast<uint64_t>(slots_.capacity()) * sizeof(V) +
           static_cast<uint64_t>(touched_.capacity()) * sizeof(size_t);
  }

 private:
  std::vector<uint64_t> tags_;
  std::vector<V> slots_;
  std::vector<size_t> touched_;
  uint64_t epoch_ = 0;
};

}  // namespace gly::arena
