#include "columnstore/transitive.h"

#include <algorithm>
#include <atomic>

#include "common/stopwatch.h"

namespace gly::columnstore {

VertexHashSet::VertexHashSet(size_t initial_capacity) {
  size_t cap = 16;
  while (cap < initial_capacity) cap <<= 1;
  slots_.assign(cap, kEmpty);
}

void VertexHashSet::Grow() {
  std::vector<uint32_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, kEmpty);
  size_ = 0;
  for (uint32_t v : old) {
    if (v != kEmpty) Insert(v);
  }
}

bool VertexHashSet::Insert(uint32_t v) {
  if ((size_ + 1) * 10 >= slots_.size() * 7) Grow();
  size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(Hash(v) >> 33) & mask;
  for (;;) {
    ++probes_;
    if (slots_[i] == kEmpty) {
      slots_[i] = v;
      ++size_;
      return true;
    }
    if (slots_[i] == v) return false;
    i = (i + 1) & mask;
  }
}

namespace {

uint32_t PartitionOf(uint32_t v, uint32_t parts) {
  uint64_t h = (static_cast<uint64_t>(v) + 1) * 0xD1B54A32D192ED03ULL;
  return static_cast<uint32_t>((h >> 33) % parts);
}

}  // namespace

Result<TransitiveProfile> TransitiveCount(const EdgeTable& table,
                                          VertexId source,
                                          const TransitiveConfig& config) {
  if (source >= table.num_vertices()) {
    return Status::InvalidArgument("source vertex out of range");
  }
  const uint32_t parts = std::max(1u, config.num_partitions);
  ThreadPool pool(parts);
  Stopwatch total;

  // Partitioned visited/border state: one hash set + border vector per
  // partition, touched only by its owning thread.
  std::vector<VertexHashSet> visited(parts);
  std::vector<std::vector<uint32_t>> border(parts);
  border[PartitionOf(source, parts)].push_back(source);
  visited[PartitionOf(source, parts)].Insert(source);

  // Per-partition operator timers and lookup stats.
  std::vector<double> column_time(parts, 0.0);
  std::vector<double> exchange_time(parts, 0.0);
  std::vector<double> hash_time(parts, 0.0);
  std::vector<LookupStats> lookups(parts);

  TransitiveProfile profile;

  bool any_border = true;
  while (any_border) {
    ++profile.waves;
    // Stage 1+2 (parallel per partition): column lookups over the border,
    // exchange split of the targets.
    std::vector<std::vector<std::vector<uint32_t>>> outgoing(
        parts, std::vector<std::vector<uint32_t>>(parts));
    std::vector<std::future<void>> tasks;
    for (uint32_t p = 0; p < parts; ++p) {
      tasks.push_back(pool.Submit([&, p] {
        std::vector<uint32_t> targets;
        std::vector<uint32_t> batch_targets;
        const auto& b = border[p];
        for (size_t i = 0; i < b.size(); i += config.vector_size) {
          size_t end = std::min(b.size(), i + config.vector_size);
          // Column access: vectored out-edge lookups.
          Stopwatch col_watch;
          batch_targets.clear();
          for (size_t j = i; j < end; ++j) {
            std::vector<uint32_t> out;
            table.OutEdges(b[j], &out, &lookups[p]);
            batch_targets.insert(batch_targets.end(), out.begin(), out.end());
          }
          column_time[p] += col_watch.ElapsedSeconds();

          // Exchange: split the batch by target partition.
          Stopwatch ex_watch;
          for (uint32_t t : batch_targets) {
            outgoing[p][PartitionOf(t, parts)].push_back(t);
          }
          exchange_time[p] += ex_watch.ElapsedSeconds();
        }
      }));
    }
    for (auto& t : tasks) t.get();

    // Barrier, then stage 3 (parallel per destination partition): record
    // the new border in the partitioned hash table.
    std::vector<std::future<uint64_t>> hash_tasks;
    for (uint32_t p = 0; p < parts; ++p) {
      hash_tasks.push_back(pool.Submit([&, p]() -> uint64_t {
        Stopwatch hash_watch;
        std::vector<uint32_t> new_border;
        for (uint32_t src_part = 0; src_part < parts; ++src_part) {
          for (uint32_t t : outgoing[src_part][p]) {
            if (visited[p].Insert(t)) new_border.push_back(t);
          }
        }
        border[p] = std::move(new_border);
        hash_time[p] += hash_watch.ElapsedSeconds();
        return border[p].size();
      }));
    }
    uint64_t new_border_total = 0;
    for (auto& t : hash_tasks) new_border_total += t.get();
    any_border = new_border_total > 0;
  }

  profile.seconds = total.ElapsedSeconds();
  for (uint32_t p = 0; p < parts; ++p) {
    profile.random_lookups += lookups[p].random_lookups;
    profile.edge_endpoints_visited += lookups[p].edge_endpoints_visited;
    profile.distinct_reached += visited[p].size();
  }
  profile.distinct_reached -= 1;  // the source itself is not counted
  double op_total = 0.0;
  double col = 0.0;
  double ex = 0.0;
  double hash = 0.0;
  for (uint32_t p = 0; p < parts; ++p) {
    col += column_time[p];
    ex += exchange_time[p];
    hash += hash_time[p];
  }
  op_total = col + ex + hash;
  if (op_total > 0.0) {
    profile.column_fraction = col / op_total;
    profile.exchange_fraction = ex / op_total;
    profile.hash_fraction = hash / op_total;
  }
  if (profile.seconds > 0.0) {
    profile.mteps = static_cast<double>(profile.edge_endpoints_visited) /
                    profile.seconds / 1e6;
  }
  return profile;
}

}  // namespace gly::columnstore
