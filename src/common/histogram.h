// Histogram: integer-valued frequency histogram with summary statistics.
//
// Used for degree distributions (Figure 1), per-superstep work skew traces,
// and System Monitor samples.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace gly {

/// Exact frequency histogram over non-negative integer observations.
class Histogram {
 public:
  void Add(uint64_t value, uint64_t count = 1);

  uint64_t total_count() const { return total_; }
  uint64_t CountOf(uint64_t value) const;

  /// Mean of all observations (0 when empty).
  double Mean() const;

  uint64_t Max() const;

  /// All (value, count) pairs in increasing value order.
  std::vector<std::pair<uint64_t, uint64_t>> Items() const;

 private:
  std::map<uint64_t, uint64_t> counts_;
  uint64_t total_ = 0;
  double sum_ = 0.0;
};

}  // namespace gly
