// AtomicBitset: a fixed-size dense bitmap whose bits can be set
// concurrently from many threads.
//
// The dataflow BFS uses it for its visited set: `TestAndSet` is a single
// `fetch_or`, so parallel top-down expansions discover each vertex
// exactly once without locks. Reads during a concurrent write phase are
// relaxed — callers separate "fill" and "scan" phases with their own
// barriers (a thread-pool join is one).

#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace gly {

class AtomicBitset {
 public:
  explicit AtomicBitset(size_t num_bits)
      : num_words_((num_bits + 63) / 64),
        words_(num_words_ ? new std::atomic<uint64_t>[num_words_] : nullptr) {
    Reset();
  }

  AtomicBitset(const AtomicBitset&) = delete;
  AtomicBitset& operator=(const AtomicBitset&) = delete;

  bool Test(size_t i) const {
    return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1;
  }

  void Set(size_t i) {
    words_[i >> 6].fetch_or(1ULL << (i & 63), std::memory_order_relaxed);
  }

  /// Atomically sets bit `i`; returns true iff this call flipped it 0 -> 1
  /// (i.e. the caller "won" the vertex).
  bool TestAndSet(size_t i) {
    const uint64_t mask = 1ULL << (i & 63);
    return (words_[i >> 6].fetch_or(mask, std::memory_order_relaxed) &
            mask) == 0;
  }

  /// Clears every bit.
  void Reset() {
    for (size_t w = 0; w < num_words_; ++w) {
      words_[w].store(0, std::memory_order_relaxed);
    }
  }

  /// Population count over the whole bitmap.
  uint64_t Count() const {
    uint64_t count = 0;
    for (size_t w = 0; w < num_words_; ++w) {
      count += std::popcount(words_[w].load(std::memory_order_relaxed));
    }
    return count;
  }

 private:
  size_t num_words_ = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> words_;
};

}  // namespace gly
