// Mini MapReduce engine — the "Hadoop MapReduce" substrate.
//
// Executes jobs the way Hadoop does, including the property that dominates
// its Figure 4 runtimes: *all intermediate data is materialized on disk*.
// A job runs in three phases:
//
//   map     — mappers (parallel) consume input splits and emit (key, value)
//             pairs into per-reducer sort buffers; when a buffer exceeds
//             `sort_buffer_bytes` it is sorted and spilled to a run file
//             (optionally combined first);
//   shuffle — each reducer k-way-merges the sorted run files addressed to
//             it (real file reads);
//   reduce  — grouped (key, [values]) pairs are reduced and the output is
//             written to part files, which become the next job's input.
//
// Iterative graph algorithms chain jobs through the driver in
// graph_jobs.h; every iteration re-reads and rewrites the entire graph
// state through the filesystem — the mechanistic source of the 1-2 orders
// of magnitude MapReduce-vs-Giraph gap the paper reports, as opposed to a
// tuned constant.
//
// Counters mirror Hadoop counters and drive convergence checks.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/threadpool.h"
#include "mapreduce/record.h"

namespace gly::mapreduce {

/// Shared named counters (Hadoop-counter-like). Thread-safe.
class Counters {
 public:
  void Increment(const std::string& name, uint64_t delta = 1);
  uint64_t Get(const std::string& name) const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> values_;
};

/// Receives emitted records in map/combine/reduce functions.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(uint64_t key, const std::string& value) = 0;
};

/// User map function: input record -> emitted records.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void Map(const Record& input, Emitter* out, Counters* counters) = 0;
};

/// User reduce function: (key, grouped values) -> emitted records.
/// Also used as the optional combiner.
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Reduce(uint64_t key, const std::vector<std::string>& values,
                      Emitter* out, Counters* counters) = 0;
};

/// Job configuration.
struct JobConfig {
  uint32_t num_mappers = 4;
  uint32_t num_reducers = 4;

  /// Per-mapper-per-reducer sort buffer; exceeding it spills a sorted run.
  uint64_t sort_buffer_bytes = 8ULL << 20;

  /// Scratch directory for spills and shuffle files (required).
  std::string scratch_dir;

  /// Simulated per-job startup latency (seconds): Hadoop's job submission,
  /// scheduling, and task-container spawning overhead, paid by every job in
  /// an iterative chain. A large part of why "MapReduce can be two orders
  /// of magnitude slower than Giraph and GraphX". 0 disables.
  double job_startup_s = 0.0;

  /// Map-stage checkpointing: after the map phase, persist a manifest of
  /// the completed spill runs (atomic + checksummed, see common/checkpoint)
  /// into the output directory, and keep the runs there rather than in the
  /// shared scratch. A re-run of the same job (same inputs, mappers,
  /// reducers, output_dir) that previously crashed during shuffle/reduce
  /// then skips the map phase and re-runs only reduce. The manifest and
  /// runs are deleted when the job completes.
  bool checkpoint_map_stage = false;

  /// Cooperative cancellation (null = unsupervised). Polled at job start,
  /// between map splits (and every few thousand records within one),
  /// and between reduce groups; map/reduce tasks bump the token's progress
  /// heartbeat as they complete. A cancelled job fails with the token's
  /// Status (Timeout/Cancelled); partially written outputs are cleaned the
  /// same way a failed task attempt's are.
  CancelToken* cancel = nullptr;
};

/// Phase timing and volume statistics of one job.
struct JobStats {
  uint64_t input_records = 0;
  uint64_t map_output_records = 0;
  uint64_t combined_records = 0;   // records after combiner
  uint64_t spill_bytes = 0;        // bytes written to run files
  uint64_t shuffle_bytes = 0;      // bytes read back during merge
  uint64_t output_bytes = 0;
  double map_seconds = 0.0;
  uint32_t spill_files = 0;
  /// True when the map phase was skipped by restoring a spill manifest
  /// left by a crashed prior run (map-phase fields reflect the original
  /// execution).
  bool map_stage_recovered = false;
};

/// Factory types: one Mapper/Reducer instance per parallel task.
using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

/// One MapReduce job.
class Job {
 public:
  Job(JobConfig config, MapperFactory mapper_factory,
      ReducerFactory reducer_factory,
      ReducerFactory combiner_factory = nullptr);

  /// Runs the job: reads `input_paths` record files, writes
  /// `num_reducers` part files named part-NNNNN into `output_dir`.
  /// Returns the output part file paths.
  Result<std::vector<std::string>> Run(
      const std::vector<std::string>& input_paths,
      const std::string& output_dir, ThreadPool* pool, Counters* counters,
      JobStats* stats_out = nullptr);

 private:
  JobConfig config_;
  MapperFactory mapper_factory_;
  ReducerFactory reducer_factory_;
  ReducerFactory combiner_factory_;
};

}  // namespace gly::mapreduce
