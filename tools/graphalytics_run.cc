// graphalytics_run — the benchmark launcher.
//
// "Run the benchmark. Graphalytics includes a Unix shell script that
// triggers the execution of the benchmark. After the execution completes,
// the benchmark report is available in the local file system." (§2.3)
//
//   $ graphalytics_run benchmark.properties
//   $ graphalytics_run --resume benchmark.properties      # continue a run
//   $ graphalytics_run --jobs 4 benchmark.properties      # concurrent cells
//   $ graphalytics_run --example > benchmark.properties   # starter config
//
// --resume re-reads the completion journal (<report.dir>/journal.jsonl by
// default) and re-executes only the cells that did not finish cleanly —
// the rest are reported from the journal, marked "resumed".
//
// --jobs N runs up to N matrix cells concurrently (DESIGN.md §12): cells
// sharing a (platform, graph) pair reuse one loaded graph, admission is
// gated on `harness.memory_budget_mb`, and the journal stays equivalent to
// a serial run's. Equal to setting `harness.jobs = N` in the config.
//
// README.md's "Configuration keys" table lists every key.

#include <csignal>
#include <cstdio>
#include <cstring>

#include "common/cancellation.h"
#include "common/config.h"
#include "harness/run_config.h"

namespace {

// SIGINT arms this token; the harness cancels the in-flight cell with
// kHarnessStop, journals what finished, and returns. CancelToken::Cancel
// (reason-only overload) is async-signal-safe: one compare_exchange on an
// atomic, no locks, no allocation.
gly::CancelToken g_stop;

extern "C" void HandleSigint(int /*sig*/) {
  g_stop.Cancel(gly::CancelReason::kHarnessStop);
}

const char kExampleConfig[] = R"(# graphalytics_run starter configuration
graphs = snb, g500
graph.snb.source = datagen
graph.snb.persons = 10000
graph.snb.degree_spec = facebook:mean=18
graph.snb.seed = 42
graph.snb.bfs_source = 0
graph.g500.source = rmat
graph.g500.scale = 12
graph.g500.edge_factor = 16

platforms = giraph, graphx, mapreduce, neo4j, reference
giraph.workers = 8
graphx.workers = 8
neo4j.memory_budget_mb = 256

algorithms = all
cd.max_iterations = 10
evo.new_vertices = 16

report.dir = graphalytics-report
validate = true
monitor = true

# Observability (see DESIGN.md, "Observability model"): set a directory (or
# pass --trace-dir) to export trace.json — open it in chrome://tracing or
# https://ui.perfetto.dev — plus metrics.jsonl and one trace-<cell>.json
# per benchmark cell (valid at any --jobs level). Off by default; the
# disabled hot path is one atomic load per would-be span.
# trace.dir = graphalytics-report/trace

# Profiling (see DESIGN.md §14): profile.mode attaches hardware counters
# (IPC, cache/branch miss rates — getrusage fallback when perf_event_open
# is unavailable) to trace spans and/or runs a sampling CPU profiler whose
# folded stacks are written per cell. Artifacts: profile.json (critical
# path, worker utilization, top self-time) + profile.folded next to
# trace.json. Also reachable as --profile [mode] on the command line.
# profile.mode: off | counters | sampler | full
# profile.mode = off
# profile.interval_us: sampling period for sampler/full
# profile.interval_us = 2000

# ETL (see DESIGN.md, "ETL performance"): parallel parse + CSR build, and
# optional degree-descending relabeling for traversal locality. Outputs and
# validation always speak original vertex ids; CD/EVO cells are refused on
# reordered graphs (recorded failures) because their dynamics are id-seeded.
# etl.threads: 1 = no pool, 0 = all hardware threads
etl.threads = 1
# graph.reorder: degree | none (per-graph: graph.<name>.reorder)
graph.reorder = none

# Robustness: per-cell wall-clock timeout (0 = none), bounded retry with
# exponential backoff. A timed-out or crashed cell is recorded as a
# failure ("missing value") instead of aborting the run. Timed-out cells
# are cooperatively cancelled and their attempt thread joined within
# cancel_grace_s; stall_timeout_s cancels a cell whose progress heartbeat
# (superstep / job / operator / import batch) stops advancing, catching
# livelock even without a wall-clock timeout. Ctrl-C cancels the in-flight
# cell the same way and journals what finished.
timeout_s = 0
# stall_timeout_s = 0 turns the stall watchdog off
stall_timeout_s = 0
cancel_grace_s = 5
max_attempts = 1
retry_backoff_s = 0.5

# Recovery (see DESIGN.md, "Recovery model"):
#  - giraph.checkpoint_interval = 4: Pregel checkpoint every 4 supersteps
#  - mapreduce.checkpointing = true: persist map-stage spill manifests
#  - resume = true, or pass --resume on the command line
# Per-cell completion is journaled to <report.dir>/journal.jsonl (override
# with `journal = path`); with resume, finished cells are not re-executed.

# Concurrent scheduling (see DESIGN.md §12): run up to harness.jobs matrix
# cells in flight (or pass --jobs). Cells on the same (platform, graph)
# share one loaded graph; a new load is admitted only when its estimated
# footprint fits harness.memory_budget_mb (0 = no limit) — oversubscribed
# loads queue instead of OOMing. The journal, statuses, and validation are
# equivalent to a serial run's.
harness.jobs = 1
harness.memory_budget_mb = 0
)";

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--resume] [--jobs N] [--trace-dir <dir>] "
               "[--profile [mode]] <benchmark.properties>\n"
               "       %s --example   # print a starter configuration\n"
               "  --resume           reuse cells already journaled as "
               "finished\n"
               "  --jobs N           run up to N matrix cells concurrently\n"
               "                     (harness.jobs; 1 = serial)\n"
               "  --trace-dir <dir>  write trace.json (Chrome tracing) and\n"
               "                     metrics.jsonl per run, plus one\n"
               "                     trace-<cell>.json per benchmark cell\n"
               "                     (valid at any --jobs level)\n"
               "  --profile [mode]   profile the run: counters | sampler |\n"
               "                     full (default full). Writes profile.json\n"
               "                     + folded stacks next to the traces and\n"
               "                     attaches counter deltas to spans\n",
               argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  bool resume = false;
  const char* trace_dir = nullptr;
  const char* jobs = nullptr;
  const char* profile_mode = nullptr;
  const char* config_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--example") == 0) {
      std::fputs(kExampleConfig, stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) {
        PrintUsage(argv[0]);
        return 2;
      }
      jobs = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      if (i + 1 >= argc) {
        PrintUsage(argv[0]);
        return 2;
      }
      trace_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      // Optional value: bare --profile means the full pipeline.
      if (i + 1 < argc && argv[i + 1][0] != '-' &&
          (std::strcmp(argv[i + 1], "off") == 0 ||
           std::strcmp(argv[i + 1], "counters") == 0 ||
           std::strcmp(argv[i + 1], "sampler") == 0 ||
           std::strcmp(argv[i + 1], "full") == 0)) {
        profile_mode = argv[++i];
      } else {
        profile_mode = "full";
      }
    } else if (config_path == nullptr) {
      config_path = argv[i];
    } else {
      PrintUsage(argv[0]);
      return 2;
    }
  }
  if (config_path == nullptr) {
    PrintUsage(argv[0]);
    return 2;
  }
  auto config = gly::Config::LoadFile(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  if (resume) config->SetBool("resume", true);
  if (jobs != nullptr) config->Set("harness.jobs", jobs);
  if (trace_dir != nullptr) config->Set("trace.dir", trace_dir);
  if (profile_mode != nullptr) config->Set("profile.mode", profile_mode);
  std::signal(SIGINT, HandleSigint);
  auto run = gly::harness::RunFromConfig(*config, &g_stop);
  if (!run.ok()) {
    std::fprintf(stderr, "benchmark error: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  std::fputs(run->report_text.c_str(), stdout);

  // Robustness summary on stderr: which cells were retried, timed out,
  // resumed from the journal, or recovered from a checkpoint.
  unsigned long long retried = 0, timed_out = 0, failed = 0, resumed = 0;
  unsigned long long cancelled = 0, stalled = 0;
  unsigned long long recoveries = 0;
  for (const auto& r : run->results) {
    if (r.attempts > 1) ++retried;
    if (r.timed_out) ++timed_out;
    if (r.cancelled) ++cancelled;
    if (r.stalled) ++stalled;
    if (!r.status.ok()) ++failed;
    if (r.resumed) ++resumed;
    recoveries += r.recoveries;
  }
  // Scheduler summary on stderr whenever concurrency was requested — the
  // logged evidence that a --jobs run actually overlapped cells (peak
  // in-flight, graph-cache hits, queueing) and its wall clock.
  if (run->scheduler.jobs > 1) {
    std::fprintf(stderr, "scheduler: %s\n",
                 gly::harness::SchedulerSummary(run->scheduler).c_str());
  }
  if (retried + timed_out + failed + cancelled > 0) {
    std::fprintf(stderr,
                 "robustness: %llu cell(s) failed, %llu retried, "
                 "%llu timed out, %llu cancelled (%llu by the stall "
                 "watchdog; see report details)\n",
                 failed, retried, timed_out, cancelled, stalled);
  }
  if (gly::Cancelled(&g_stop)) {
    std::fprintf(stderr,
                 "interrupted: run stopped by SIGINT; finished cells are "
                 "journaled — rerun with --resume to continue\n");
  }
  if (resumed + recoveries > 0) {
    std::fprintf(stderr,
                 "recovery: %llu cell(s) resumed from journal, "
                 "%llu checkpoint recoveries\n",
                 resumed, recoveries);
  }

  if (!run->report_dir.empty()) {
    std::printf("\nreport written to %s/ (report.txt, results.csv, "
                "results.jsonl)\n",
                run->report_dir.c_str());
  }
  // Exit code reflects validation: any INVALID cell fails the run. Cells
  // whose validation never ran (validate = false, or the cell failed
  // before producing output) are reported as "untested", not as failures.
  for (const auto& r : run->results) {
    if (r.validation.IsValidationFailed()) return 3;
  }
  return 0;
}
