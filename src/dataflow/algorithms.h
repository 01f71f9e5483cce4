// The five Graphalytics algorithms on the dataflow (GraphX-like) engine.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "dataflow/dataset.h"
#include "ref/algorithms.h"

namespace gly::dataflow {

/// Runs `kind` on `graph` in a fresh Context built from `config`.
/// `stats_out` (optional) receives the engine statistics of the run.
Result<AlgorithmOutput> RunAlgorithm(const ContextConfig& config,
                                     const Graph& graph, AlgorithmKind kind,
                                     const AlgorithmParams& params,
                                     ContextStats* stats_out = nullptr);

/// CD's message: the (label, score) pairs sent to one vertex, in order.
/// Every edge sends a one-element list, and Filter and Shuffle each copy
/// it, so the first element lives inline and only a list folded from two
/// or more messages goes to the heap. The list is exactly the
/// size of the std::vector<LabelScore> it replaces: the engine charges its
/// budget, shuffle bytes and pools by sizeof(element), so every modeled
/// byte stays the same (DESIGN.md §13).
class LabelScoreList {
 public:
  LabelScoreList() = default;
  explicit LabelScoreList(LabelScore first) : inline_(first), size_(1) {}
  LabelScoreList(const LabelScoreList& other) { Assign(other); }
  LabelScoreList(LabelScoreList&& other) noexcept { Steal(other); }
  LabelScoreList& operator=(const LabelScoreList& other) {
    if (this != &other) Assign(other);
    return *this;
  }
  LabelScoreList& operator=(LabelScoreList&& other) noexcept {
    if (this != &other) {
      Free();
      Steal(other);
    }
    return *this;
  }
  ~LabelScoreList() { Free(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const LabelScore* begin() const { return on_heap() ? heap_ : &inline_; }
  const LabelScore* end() const { return begin() + size_; }

  /// Appends `other`'s elements after this list's; the heap storage grows
  /// geometrically, so a fold of n one-element lists copies O(n) pairs.
  void Append(const LabelScoreList& other) {
    const uint64_t size = uint64_t{size_} + other.size_;
    if (size > capacity_) Grow(size);
    std::copy(other.begin(), other.end(), data() + size_);
    size_ = static_cast<uint32_t>(size);
  }

 private:
  bool on_heap() const { return capacity_ > 1; }
  LabelScore* data() { return on_heap() ? heap_ : &inline_; }

  void Assign(const LabelScoreList& other) {
    size_ = 0;  // nothing to keep if the storage must grow
    if (other.size_ > capacity_) Grow(other.size_);
    std::copy(other.begin(), other.end(), data());
    size_ = other.size_;
  }
  // Takes `other`'s elements and leaves it empty and inline. `*this` holds
  // no heap storage on entry.
  void Steal(LabelScoreList& other) {
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      inline_ = other.inline_;
    }
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.inline_ = LabelScore{};
    other.size_ = 0;
    other.capacity_ = 1;
  }
  /// Moves the elements to heap storage of at least `min_capacity` (> 1)
  /// pairs, and at least twice the current capacity.
  void Grow(uint64_t min_capacity);
  void Free() {
    if (on_heap()) std::allocator<LabelScore>().deallocate(heap_, capacity_);
  }

  union {
    LabelScore inline_{};  // capacity_ == 1
    LabelScore* heap_;     // capacity_ > 1
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = 1;
};
static_assert(sizeof(LabelScoreList) == sizeof(std::vector<LabelScore>),
              "the budget, shuffle and pool bytes are sizeof-based");

}  // namespace gly::dataflow
