// BenchmarkCore — Figure 2's "Benchmark Core": "implements the benchmark
// harness that binds together Graphalytics."
//
// Runs the configured (platform × graph × algorithm) matrix: per cell it
// loads the dataset (ETL, untimed), executes the algorithm under the
// System Monitor, validates the output, and produces a BenchmarkResult.
// "By default, Graphalytics runs all the algorithms implemented on all
// configured graphs" — RunSpec mirrors the paper's run definition.
//
// Robustness: a cell that crashes, errors, or hangs must degrade to a
// *recorded* failure — the paper's "Missing values indicate failures" —
// never poison the rest of the matrix. RunSpec therefore carries a
// per-cell wall-clock timeout and a bounded retry policy with exponential
// backoff, and an optional fault::FaultPlan injects deterministic faults
// into the platform engines for testing exactly those paths.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/config.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/trace.h"

namespace gly::prof {
class Sampler;
}  // namespace gly::prof
#include "harness/monitor.h"
#include "harness/platform.h"
#include "harness/scheduler.h"
#include "harness/validator.h"

namespace gly::harness {

/// What the profiling layer (DESIGN.md §14) collects during a run.
enum class ProfileMode {
  kOff,       ///< no profiling (the default)
  kCounters,  ///< hardware-counter deltas on spans (perf or fallback)
  kSampler,   ///< sampling CPU profiler → folded stacks
  kFull,      ///< counters + sampler
};

struct ProfileOptions {
  ProfileMode mode = ProfileMode::kOff;
  /// Sampling interval in microseconds of CPU time (500 Hz default).
  uint64_t sample_interval_us = 2000;
  /// Injected sampler (e.g. prof::FakeSampler) for deterministic tests;
  /// not owned. Null = the harness owns a real SignalSampler.
  prof::Sampler* sampler = nullptr;
};

/// One dataset in the run.
///
/// Reordered datasets (graph.reorder = degree): `graph` is the
/// degree-relabeled graph the platforms execute on, `original` the
/// pre-reorder graph, and the permutation arrays map between the two id
/// spaces (`new_to_old[new_id] == original_id`). `params` stays in
/// *original* ids — the harness translates id-valued parameters (the BFS
/// source) into the reordered space, maps each output back through
/// `MapOutputToOriginalIds`, and validates against `original`, so every
/// recorded result speaks original vertex ids. Algorithms that are not
/// relabeling-invariant (CD, EVO) are refused on reordered datasets with a
/// recorded per-cell failure. All three reorder fields are null for plain
/// datasets.
struct DatasetSpec {
  std::string name;
  const Graph* graph = nullptr;
  AlgorithmParams params;  ///< per-graph parameters (BFS source, seeds...)
  const Graph* original = nullptr;
  const std::vector<VertexId>* new_to_old = nullptr;
  const std::vector<VertexId>* old_to_new = nullptr;
};

/// The run definition.
struct RunSpec {
  std::vector<std::string> platforms;       ///< platform names
  Config platform_config;                   ///< keys: <platform>.<option>
  std::vector<DatasetSpec> datasets;
  std::vector<AlgorithmKind> algorithms;
  bool validate = true;
  bool monitor = true;

  /// Per-cell wall-clock timeout (0 = none). A cell that exceeds it is
  /// cooperatively cancelled (CancelReason::kDeadline through
  /// AlgorithmParams::cancel), recorded as kTimeout, and its attempt thread
  /// joined within `cancel_grace_s`. Only an attempt that ignores the token
  /// past the grace window is abandoned on a background thread (with the
  /// platform instance rebuilt before any retry) — the pre-cancellation
  /// behaviour, kept as the never-hangs backstop.
  double cell_timeout_s = 0.0;

  /// Stall watchdog (0 = off): cancel the attempt when its progress
  /// heartbeat (CancelToken::Heartbeat, bumped by every engine per
  /// superstep / job / operator / iteration / import batch) stops
  /// advancing for this long. Catches livelock and stalls long before a
  /// generous `cell_timeout_s` would, and catches them even with no
  /// wall-clock timeout configured at all.
  double stall_timeout_s = 0.0;

  /// How long a cancelled attempt gets to observe the token, unwind, and
  /// be joined before the harness falls back to abandoning it; also how
  /// long RunBenchmark waits, after the matrix completes, for abandoned
  /// attempts to finish in the background.
  double cancel_grace_s = 5.0;

  /// Optional harness-level stop token (e.g. armed by a SIGINT handler —
  /// CancelToken::Cancel(reason) is async-signal-safe). When it fires, the
  /// in-flight attempt is cancelled with kHarnessStop (final, not
  /// retried), remaining cells are skipped, and backoff/drain waits wake
  /// immediately. The harness only reads it; the caller owns it.
  const CancelToken* stop = nullptr;

  /// Bounded retry: total attempts per cell (>= 1). Only transient
  /// failures (timeout, internal/crash, I/O, resource exhaustion) are
  /// retried; the LDBC spec's "validated re-execution".
  uint32_t max_attempts = 1;

  /// Base delay before the first retry; doubles each further retry
  /// (exponential backoff). 0 = retry immediately.
  double retry_backoff_s = 0.0;

  /// Optional deterministic fault plan, installed (scoped) for the whole
  /// run. Faults triggered during a cell are counted in its result.
  fault::FaultPlan* fault_plan = nullptr;

  /// Completion journal (JSONL, one line per finished cell, flushed as each
  /// cell completes). Empty = no journaling. With `resume` set, cells whose
  /// last journal entry succeeded (status ok, and validation ok when the
  /// spec validates) are reused from the journal instead of re-executed;
  /// everything else — failed, unvalidated, or never-run cells — runs
  /// normally and is re-journaled. Without `resume` the journal is
  /// truncated at the start of the run.
  std::string journal_path;
  bool resume = false;

  /// Observability (see DESIGN.md §10). With `trace_dir` set, the run
  /// emits a run-wide `trace.json` (Chrome trace-event format), one
  /// `trace-<platform>-<graph>-<algorithm>.json` per cell, a run-wide
  /// `profile.json` (critical path / utilization / self time, schema v1),
  /// one `profile-<cell>.json` per cell, and a schema-versioned
  /// `metrics.jsonl` into that directory, and each result carries its span
  /// count, top phase durations, and critical-path seconds. Per-cell
  /// artifacts are valid at any `jobs`: each in-flight cell records into
  /// its own child tracer (thread-local override, propagated into engine
  /// pools), merged back into the run-wide trace when the cell completes.
  /// `tracer` / `metrics` may be supplied by the caller (e.g. with a fake
  /// clock for golden tests); when null and `trace_dir` is set,
  /// RunBenchmark owns its own. All three empty/null (the default)
  /// disables tracing entirely — spans throughout the engines then cost
  /// one atomic load each.
  ///
  /// Caveat (same as caller-owned graphs): a caller-supplied tracer or
  /// registry must outlive attempts abandoned on timeout, i.e. live past
  /// the `cancel_grace_s` drain. Events an abandoned attempt records
  /// after its cell was summarized stay in the (kept-alive) child tracer
  /// and are dropped, never a use-after-free.
  std::string trace_dir;
  trace::Tracer* tracer = nullptr;
  metrics::Registry* metrics = nullptr;

  /// Profiling (DESIGN.md §14): sampling CPU profiler and/or hardware
  /// counters attached to spans. Artifacts land in `trace_dir` (profile
  /// modes other than kOff require tracing to be on to be useful — the
  /// launcher defaults a trace dir when `--profile` is given). Per-cell
  /// folded stacks are attributed exactly at jobs == 1; under jobs > 1
  /// samples are reported run-wide only (the interval timer is a process
  /// resource), while per-cell critical paths stay exact at any jobs.
  ProfileOptions profile;

  /// Concurrent scheduling (see DESIGN.md §12). `jobs` is the maximum
  /// number of cells in flight; 1 (the default) reproduces the serial
  /// execution order exactly. Cells sharing a (platform, dataset) pair run
  /// mutually exclusively on one reference-counted graph load; concurrency
  /// comes from distinct pairs.
  ///
  /// Caveats at jobs > 1 — everything else (journal contents, statuses,
  /// validation, per-cell trace files, retry/backoff, stall detection,
  /// stop, resume) is equivalent to the serial run: per-cell
  /// `injected_faults` attribution is approximate (the plan's trigger
  /// counter is process-global), and per-cell folded stacks from the
  /// sampling profiler are reported run-wide only.
  uint32_t jobs = 1;

  /// Admission budget for concurrently loaded graphs, in MiB (0 = no
  /// limit). A (platform, dataset) load is admitted only when its
  /// estimated footprint fits the remaining budget; oversubscribed loads
  /// queue rather than OOM, and a load bigger than the whole budget runs
  /// alone once everything else drained — admission delays cells, it never
  /// fails them.
  uint64_t sched_memory_budget_mb = 0;

  /// When non-null, receives the scheduler's aggregate stats (admissions,
  /// cache hits, queueing, peak concurrency, wall clock) for the run.
  SchedulerStats* scheduler_stats = nullptr;
};

/// Outcome of one (platform, graph, algorithm) cell.
struct BenchmarkResult {
  std::string platform;
  std::string graph;
  AlgorithmKind algorithm = AlgorithmKind::kStats;
  Status status;                 ///< OK, ResourceExhausted (failure), ...
  /// Validation outcome. Defaults to kUntested ("validation not run"), so
  /// a passing check (OK) is distinguishable from one that never ran
  /// (spec.validate == false, or the cell failed before producing output).
  Status validation = Status::Untested("validation not run");
  double runtime_seconds = 0.0;  ///< "job submission to result availability"
  double load_seconds = 0.0;     ///< ETL (reported separately, not runtime)
  uint64_t traversed_edges = 0;
  double teps = 0.0;             ///< traversed edges per second
  /// CRC32C fingerprint of the produced output in original vertex ids
  /// (harness::OutputChecksum); 0 when the cell failed before producing
  /// output. Lets the differential scheduler test assert concurrent and
  /// serial runs computed byte-identical answers, not merely same-status.
  uint32_t output_checksum = 0;
  uint32_t attempts = 0;         ///< execution attempts consumed (>= 1)
  bool timed_out = false;        ///< final attempt hit cell_timeout_s
  /// Final attempt was cooperatively cancelled (deadline, stall, or
  /// harness stop); `cancel_reason` names why ("deadline" | "stall" |
  /// "harness_stop", empty when not cancelled).
  bool cancelled = false;
  bool stalled = false;          ///< cancellation was the stall watchdog's
  std::string cancel_reason;
  /// Seconds the harness waited (within cancel_grace_s) for the final
  /// cancelled attempt to unwind and join; 0 when never cancelled.
  double cancel_join_seconds = 0.0;
  uint64_t injected_faults = 0;  ///< faults the plan triggered in this cell
  bool resumed = false;          ///< reused from the journal, not re-executed
  /// Checkpoint recoveries inside the platform during this cell (Pregel
  /// rollback-replays + MapReduce map stages restored from a manifest).
  uint64_t recoveries = 0;
  uint64_t supersteps_replayed = 0;  ///< Pregel supersteps re-executed
  /// Observability (0/empty when tracing is off): completed trace spans
  /// recorded during this cell, and the top-3 phases by total duration as
  /// "name:seconds" pairs joined with ';'.
  uint64_t trace_spans = 0;
  std::string top_phases;
  /// Critical path through the cell's span tree, rooted at its
  /// harness.cell envelope (trace analysis, DESIGN.md §14); by
  /// construction never exceeds the envelope's wall-clock duration. 0
  /// when tracing is off.
  double critical_path_seconds = 0.0;
  ResourceSummary resources;
  std::map<std::string, std::string> platform_metrics;
};

/// Callback invoked after each cell (progress reporting).
using ResultCallback = std::function<void(const BenchmarkResult&)>;

/// Executes the run and returns all results (one per matrix cell, failures
/// included — "Missing values indicate failures").
Result<std::vector<BenchmarkResult>> RunBenchmark(
    const RunSpec& spec, const ResultCallback& on_result = nullptr);

}  // namespace gly::harness
