// The Virtuoso transitive-traversal operator (§3.4).
//
// Reproduces the execution strategy the paper describes verbatim: "The
// state of the computation is kept in a partitioned hash table, with one
// thread reading/writing each partition, with an exchange operator between
// the lookup of outbound edges and the recording of the new border, as the
// source and target of any edge most often fall in a different partition."
//
// Per BFS wave, each partition thread
//   1. column access — looks up the outbound edges of its border vertices
//      (random lookups + block decodes on the compressed edge table);
//   2. exchange      — hash-splits the resulting targets into per-partition
//      vectors ("get partition hash of a vector, split into per partition
//      vectors by hash");
//   3. hash table    — after the wave barrier, probes/inserts its incoming
//      targets into its partition of the border hash table.
// Per-operator wall time is accumulated so the bench can report the CPU
// profile split the paper gives (33% hash table / 10% exchange / 57%
// column access).

#pragma once

#include <cstdint>
#include <vector>

#include "columnstore/edge_table.h"
#include "common/result.h"
#include "common/threadpool.h"

namespace gly::columnstore {

/// Operator configuration.
struct TransitiveConfig {
  uint32_t num_partitions = 8;  ///< hash-table partitions == worker threads
  uint32_t vector_size = 1024;  ///< vectored-execution batch size
};

/// Execution profile of one transitive query (the §3.4 numbers).
struct TransitiveProfile {
  uint64_t distinct_reached = 0;   ///< count(*) result (excludes the source)
  uint64_t random_lookups = 0;     ///< per-vertex out-edge lookups
  uint64_t edge_endpoints_visited = 0;
  uint64_t waves = 0;              ///< BFS depth reached
  double seconds = 0.0;
  double mteps = 0.0;              ///< edge endpoints / second / 1e6
  /// Fraction of measured operator time per stage (sums to ~1).
  double hash_fraction = 0.0;
  double exchange_fraction = 0.0;
  double column_fraction = 0.0;
};

/// Open-addressing hash set over vertex ids (one partition of the border
/// hash table). Linear probing, power-of-two capacity, grows at 0.7 load.
class VertexHashSet {
 public:
  explicit VertexHashSet(size_t initial_capacity = 1024);

  /// Inserts `v`; returns true if newly inserted.
  bool Insert(uint32_t v);

  size_t size() const { return size_; }
  uint64_t probes() const { return probes_; }

 private:
  void Grow();
  static uint64_t Hash(uint32_t v) {
    return (static_cast<uint64_t>(v) + 1) * 0x9E3779B97F4A7C15ULL;
  }

  std::vector<uint32_t> slots_;  // kEmpty == empty
  size_t size_ = 0;
  uint64_t probes_ = 0;
  static constexpr uint32_t kEmpty = ~0u;
};

/// Runs the transitive reachability count from `source`:
/// `select count(*) ... where spe_from = source` with t_distinct semantics.
Result<TransitiveProfile> TransitiveCount(const EdgeTable& table,
                                          VertexId source,
                                          const TransitiveConfig& config);

}  // namespace gly::columnstore
