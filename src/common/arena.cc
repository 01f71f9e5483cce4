#include "common/arena.h"

namespace gly::arena {

void PoolGroupStats::Add(uint64_t bytes) {
  uint64_t now =
      held_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void PoolGroupStats::Sub(uint64_t bytes) {
  held_.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace gly::arena
