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

uint64_t Histogram::Percentile(double p) const {
  if (total_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint64_t threshold = static_cast<uint64_t>(p * static_cast<double>(total_));
  uint64_t running = 0;
  for (const auto& [value, count] : counts_) {
    running += count;
    if (running >= threshold) return value;
  }
  return counts_.rbegin()->first;
}

uint64_t Histogram::Min() const {
  return counts_.empty() ? 0 : counts_.begin()->first;
}

uint64_t Histogram::Max() const {
  return counts_.empty() ? 0 : counts_.rbegin()->first;
}

std::vector<std::pair<uint64_t, uint64_t>> Histogram::Items() const {
  return {counts_.begin(), counts_.end()};
}

}  // namespace gly
