#include "common/histogram.h"

namespace gly {

void Histogram::Add(uint64_t value, uint64_t count) {
  counts_[value] += count;
  total_ += count;
  sum_ += static_cast<double>(value) * static_cast<double>(count);
}

uint64_t Histogram::CountOf(uint64_t value) const {
  auto it = counts_.find(value);
  return it == counts_.end() ? 0 : it->second;
}

double Histogram::Mean() const {
  return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

uint64_t Histogram::Max() const {
  return counts_.empty() ? 0 : counts_.rbegin()->first;
}

std::vector<std::pair<uint64_t, uint64_t>> Histogram::Items() const {
  return {counts_.begin(), counts_.end()};
}

}  // namespace gly
