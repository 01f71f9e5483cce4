// The five Graphalytics algorithms on the graph database — the "Neo4j"
// platform.
//
// Algorithms run embedded against the record store through the traversal
// framework and neighbor reads, with per-algorithm state in memory — the
// way the Graphalytics Neo4j driver implements them. BFS and CONN run the
// serial traversal framework. PR, CD, STATS and EVO split their per-vertex
// loops across worker threads, each walking chains through its own page
// cursor (lock-free reads of resident pages); every output is bit-identical
// at every thread count. PR is a gather over ascending in-neighbours, which
// sums in the order a scatter over ascending sources would. The platform is
// single-machine: it pays no distribution overhead (fastest on graphs it
// can hold) but refuses workloads whose store + state exceed its memory
// budget, reproducing "Neo4j is not able to process graphs larger than the
// memory of a single machine".

#pragma once

#include <string>

#include "graphdb/store.h"
#include "ref/algorithms.h"

namespace gly::graphdb {

/// Platform configuration.
struct DbPlatformConfig {
  std::string store_dir;                     ///< store location (required)
  uint64_t page_cache_bytes = 256ULL << 20;  ///< cache sizing
  uint64_t memory_budget_bytes = 0;          ///< 0 = unlimited
};

/// Per-run statistics.
struct DbRunStats {
  uint64_t relationships_expanded = 0;
  PageCacheStats cache;
};

/// Imports `graph` into a fresh store under `config.store_dir` and runs
/// `kind`. Fails with ResourceExhausted when the graph does not fit the
/// memory budget.
Result<AlgorithmOutput> RunAlgorithm(const DbPlatformConfig& config,
                                     const Graph& graph, AlgorithmKind kind,
                                     const AlgorithmParams& params,
                                     DbRunStats* stats_out = nullptr);

/// Variant reusing an already-imported store (the import cost is ETL,
/// which the paper's runtime metric excludes). PR, CD, STATS and EVO run
/// their vertex loops on `num_threads` workers (0 = all cores; 1 runs them
/// on the caller). No transaction may commit during the run.
Result<AlgorithmOutput> RunAlgorithmOnStore(GraphStore* store,
                                            bool graph_is_undirected,
                                            uint64_t memory_budget_bytes,
                                            AlgorithmKind kind,
                                            const AlgorithmParams& params,
                                            DbRunStats* stats_out = nullptr,
                                            uint32_t num_threads = 1);

}  // namespace gly::graphdb
