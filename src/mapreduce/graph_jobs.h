// The five Graphalytics algorithms as chained MapReduce jobs.
//
// Each iterative algorithm follows the canonical Hadoop pattern the paper's
// MapReduce driver uses: the whole graph state (vertex state + adjacency)
// is a record file; every iteration is one MapReduce job that
//   map:    re-emits each vertex's graph record and emits messages to
//           neighbors,
//   reduce: joins messages with the graph record and produces the next
//           state file.
// The complete graph is therefore read from and written back to disk every
// iteration — the structural reason MapReduce trails the in-memory
// platforms by 1-2 orders of magnitude in Figure 4 while never running out
// of memory ("MapReduce does not need to keep graph data in memory during
// processing and thus does not crash even when processing the largest
// workload").
//
// BFS, CONN, CD, PR and STATS' clustering-coefficient job are each one
// vertex program (graph_jobs.cc) run by the same mapper, reducer and
// combiner; they differ only in the message a vertex sends, how messages
// fold, and how the reducer updates the vertex.
//
// EVO uses the Hadoop distributed-cache idiom: the immutable graph is
// shipped to every mapper as a side file, fires are the mapped records.

#pragma once

#include <string>

#include "mapreduce/job.h"
#include "ref/algorithms.h"

namespace gly::mapreduce {

/// MapReduce platform configuration.
struct PlatformConfig {
  JobConfig job;          ///< mappers/reducers/sort buffer/scratch
  std::string work_dir;   ///< iteration state directory (required)
};

/// Aggregate statistics across a whole algorithm run (all chained jobs).
struct ChainStats {
  uint32_t jobs_run = 0;
  uint64_t total_spill_bytes = 0;
  uint64_t total_shuffle_bytes = 0;
  uint64_t total_output_bytes = 0;
  /// Jobs whose map phase was skipped by restoring a spill manifest (see
  /// JobConfig::checkpoint_map_stage).
  uint32_t map_stages_recovered = 0;
};

/// Runs `kind` on `graph`. Output semantics match ref/algorithms.h.
Result<AlgorithmOutput> RunAlgorithm(const PlatformConfig& config,
                                     const Graph& graph, AlgorithmKind kind,
                                     const AlgorithmParams& params,
                                     ChainStats* stats_out = nullptr);

}  // namespace gly::mapreduce
