// Config-driven benchmark execution — the paper's user workflow (§2.3):
// "Add graphs ... Configure the platform ... Choose the workload ... Run
// the benchmark. Graphalytics includes a Unix shell script that triggers
// the execution of the benchmark. After the execution completes, the
// benchmark report is available in the local file system."
//
// RunFromConfig is that workflow as a library call (the
// tools/graphalytics_run CLI is a thin wrapper). Properties dialect:
//
//   # datasets
//   graphs = snb, g500
//   graph.snb.source = datagen            # datagen | rmat | file
//   graph.snb.persons = 10000
//   graph.snb.degree_spec = facebook:mean=18
//   graph.snb.seed = 42
//   graph.snb.bfs_source = 0
//   graph.g500.source = rmat
//   graph.g500.scale = 12
//   graph.g500.edge_factor = 16
//   # graph.mine.source = file
//   # graph.mine.path = /data/mine.e      # .e text or .bin binary
//
//   # platforms (any registered name; keys pass through to the adapter)
//   platforms = giraph, neo4j
//   giraph.workers = 8
//   neo4j.memory_budget_mb = 256
//
//   # workload ("all" or a subset)
//   algorithms = bfs, conn, stats
//   cd.max_iterations = 10
//   evo.new_vertices = 32
//
//   # ETL (see DESIGN.md §8, "ETL performance")
//   etl.threads = 8                   # parallel parse + CSR build (0 = all
//                                     # hardware threads, 1 = no pool)
//   graph.reorder = degree            # degree | none: relabel hubs-first;
//   graph.snb.reorder = none          # per-graph override. Outputs and
//                                     # validation stay in original ids;
//                                     # CD/EVO cells are refused (recorded).
//
//   # outputs
//   report.dir = graphalytics-report
//   validate = true
//   monitor = true
//
//   # robustness (see DESIGN.md, "Recovery model" and §11)
//   timeout_s = 60                    # per-cell wall clock (0 = none)
//   stall_timeout_s = 10              # cancel when the progress heartbeat
//                                     # stops advancing (0 = off)
//   cancel_grace_s = 5                # join window for a cancelled attempt
//   max_attempts = 3                  # bounded retry of transient failures
//   giraph.checkpoint_interval = 4    # Pregel checkpoint every N supersteps
//   mapreduce.checkpointing = true    # persist map-stage manifests
//   resume = true                     # reuse finished cells from the journal
//   journal = run/journal.jsonl       # default: <report.dir>/journal.jsonl
//
//   # concurrent scheduling (see DESIGN.md §12)
//   harness.jobs = 4                  # max cells in flight (1 = serial)
//   harness.memory_budget_mb = 2048   # admission budget for concurrent
//                                     # graph loads (0 = no limit)

#pragma once

#include <string>

#include "common/config.h"
#include "harness/core.h"

namespace gly::harness {

/// Outcome of a config-driven run.
struct ConfigRunOutput {
  std::vector<BenchmarkResult> results;
  std::string report_text;     ///< full rendered report
  std::string report_dir;      ///< where files were written ("" if disabled)
  SchedulerStats scheduler;    ///< cell-scheduler summary (see RunSpec::jobs)
};

/// Executes the workflow described by `config`. Writes report.txt,
/// results.csv, and appends results.jsonl under `report.dir` when set.
/// `stop` (optional) is a harness-level stop token: arm it — e.g. from a
/// SIGINT handler; CancelToken::Cancel(reason) is async-signal-safe — and
/// the in-flight cell is cooperatively cancelled, remaining cells are
/// skipped, and the journal/report reflect what completed.
Result<ConfigRunOutput> RunFromConfig(const Config& config,
                                      const CancelToken* stop = nullptr);

}  // namespace gly::harness
