// The five Graphalytics algorithms on the graph database — the "Neo4j"
// platform.
//
// Algorithms run embedded against the record store through the traversal
// framework and neighbor reads, with per-algorithm state in memory — the
// way the Graphalytics Neo4j driver implements them. The platform is
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
/// which the paper's runtime metric excludes).
Result<AlgorithmOutput> RunAlgorithmOnStore(GraphStore* store,
                                            bool graph_is_undirected,
                                            uint64_t memory_budget_bytes,
                                            AlgorithmKind kind,
                                            const AlgorithmParams& params,
                                            DbRunStats* stats_out = nullptr);

}  // namespace gly::graphdb
