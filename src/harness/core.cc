#include "harness/core.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "common/perf_counters.h"
#include "common/profiler.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace_analysis.h"
#include "harness/report.h"
#include "harness/scheduler.h"

namespace gly::harness {

namespace {

/// Failures worth re-executing: transient by construction (injected
/// faults, worker crashes, timeouts, I/O hiccups) or possibly so
/// (resource exhaustion under concurrent load). Spec errors
/// (InvalidArgument, NotImplemented, ...) re-fail identically, so they
/// are not retried.
bool IsRetryable(const Status& status) {
  return status.IsTimeout() || status.IsInternal() || status.IsIOError() ||
         status.IsResourceExhausted();
}

/// State shared with the runner thread of one attempt (every attempt is
/// supervised). Its cancellation token lives here: the supervision loop
/// arms it (deadline / stall / harness stop) and the engines poll it
/// through AlgorithmParams::cancel. The thread holds its own shared_ptr,
/// so in the fallback case — an attempt that ignores the token past the
/// grace window and is abandoned — it can finish in the background,
/// touching only this state and the platform it owns, long after the
/// harness has rebuilt the platform and moved on.
struct AttemptState {
  std::shared_ptr<Platform> platform;
  AlgorithmKind algorithm = AlgorithmKind::kStats;
  AlgorithmParams params;
  CancelToken cancel;
  /// The cell's child tracer, held here so an abandoned attempt can keep
  /// recording into live storage after the harness summarized the cell
  /// and moved on (those late events are dropped, never a dangling write).
  std::shared_ptr<trace::Tracer> cell_tracer;
  Result<AlgorithmOutput> run = Status::Internal("attempt never finished");
  std::promise<void> done;
};

/// Supervision poll slice: how often the watchdog loop, retry backoff, and
/// abandoned-attempt drain re-check their conditions. Small enough that a
/// stop request feels immediate; large enough to cost nothing.
constexpr std::chrono::milliseconds kSuperviseSlice(10);

/// Backoff/housekeeping sleep that wakes early when the harness-level stop
/// token fires (so Ctrl-C never waits out an exponential backoff).
void InterruptibleSleep(double seconds, const CancelToken* stop) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(std::max(0.0, seconds)));
  while (std::chrono::steady_clock::now() < deadline) {
    if (Cancelled(stop)) return;
    const auto remaining = deadline - std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
        remaining, kSuperviseSlice));
  }
}

std::string CellKey(const std::string& platform, const std::string& graph,
                    AlgorithmKind algorithm) {
  return platform + "/" + graph + "/" + AlgorithmKindName(algorithm);
}

/// A journaled cell can replace re-execution only if it finished cleanly:
/// status OK, and validation either passed or was (matching the spec)
/// deliberately not run. Anything else re-executes.
bool ReusableFromJournal(const RunSpec& spec, const BenchmarkResult& cell) {
  if (!cell.status.ok()) return false;
  if (cell.validation.ok()) return true;
  return !spec.validate && cell.validation.IsUntested();
}

/// A run killed mid-append (the chaos driver's SIGKILL) can leave a torn
/// final line with no trailing newline. Appending to it as-is would glue
/// the next entry onto the fragment, corrupting that entry too. Sealing
/// terminates the partial line so it parses as one malformed (skipped)
/// line and the lost cell simply re-executes.
void SealTornJournalTail(const std::string& path) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!file) return;  // no journal yet: nothing to seal
  file.seekg(0, std::ios::end);
  if (file.tellg() == std::streampos(0)) return;
  file.seekg(-1, std::ios::end);
  char last = '\n';
  file.get(last);
  if (last != '\n') {
    file.clear();
    file.seekp(0, std::ios::end);
    file.put('\n');
  }
}

/// Loads the completion journal, keeping the last entry per cell.
/// Malformed lines (e.g. a torn tail from a killed run) are skipped, not
/// fatal — resume must work exactly after a crash.
std::map<std::string, BenchmarkResult> LoadJournal(const std::string& path) {
  std::map<std::string, BenchmarkResult> cells;
  std::ifstream file(path);
  if (!file) return cells;  // no journal yet: nothing to resume
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    Result<BenchmarkResult> parsed = ResultFromJson(line);
    if (!parsed.ok()) {
      GLY_LOG_WARN << "journal: skipping malformed line: "
                   << parsed.status().ToString();
      continue;
    }
    std::string key =
        CellKey(parsed->platform, parsed->graph, parsed->algorithm);
    cells.insert_or_assign(key, std::move(parsed).ValueOrDie());
  }
  return cells;
}

/// Reads a numeric platform metric ("recoveries", ...); 0 when absent.
uint64_t MetricValue(const std::map<std::string, std::string>& metrics,
                     const std::string& key) {
  auto it = metrics.find(key);
  if (it == metrics.end()) return 0;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Writes one artifact file under the trace dir, warning (not failing) on
/// I/O errors — observability output never fails a run.
void WriteTraceArtifact(const std::string& trace_dir, const std::string& file,
                        const std::string& contents) {
  std::ofstream out(std::filesystem::path(trace_dir) / file,
                    std::ios::binary | std::ios::trunc);
  out << contents;
  if (!out) {
    GLY_LOG_WARN << "trace: cannot write artifact " << file;
  }
}

/// Folds the cell's trace window into its result (span count + top-3
/// phases by total duration, the cell envelope itself excluded) and, when
/// a trace dir is set, writes the window as a per-cell Chrome trace. The
/// window is the full snapshot of the cell's child tracer, so it is exact
/// at any jobs.
void SummarizeCellTrace(const std::vector<trace::TraceEvent>& window,
                        const std::string& trace_dir,
                        BenchmarkResult* result) {
  std::vector<trace::PhaseTotal> phases = trace::AggregateSpans(window);
  std::vector<std::string> top;
  for (const trace::PhaseTotal& phase : phases) {
    if (phase.name == "harness.cell") continue;
    result->trace_spans += phase.count;
    if (top.size() < 3) {
      top.push_back(StringPrintf("%s:%.6f", phase.name.c_str(),
                                 phase.seconds));
    }
  }
  result->top_phases = Join(top, ";");
  if (!trace_dir.empty()) {
    std::string file = "trace-" + result->platform + "-" + result->graph +
                       "-" + AlgorithmKindName(result->algorithm) + ".json";
    WriteTraceArtifact(trace_dir, file, trace::ChromeTraceJson(window));
  }
}

/// Trace analysis of one cell's window: records the critical path (rooted
/// at the harness.cell envelope) on the result and, when a trace dir is
/// set, writes profile-<cell>.json (plus its folded stacks when per-cell
/// sampling was attributed).
void WriteCellProfile(const std::vector<trace::TraceEvent>& window,
                      const std::string& trace_dir,
                      const trace::SamplerSummary& sampler,
                      const prof::FoldedProfile& folded,
                      BenchmarkResult* result) {
  trace::AnalyzeOptions options;
  options.root = "harness.cell";
  trace::TraceAnalysis analysis = trace::AnalyzeTrace(window, options);
  result->critical_path_seconds = analysis.critical_path_seconds;
  if (trace_dir.empty()) return;
  std::string stem = result->platform + "-" + result->graph + "-" +
                     AlgorithmKindName(result->algorithm);
  WriteTraceArtifact(trace_dir, "profile-" + stem + ".json",
                     trace::ProfileJson(analysis, sampler, folded.ToLines()));
  if (sampler.mode != "off") {
    WriteTraceArtifact(trace_dir, "profile-" + stem + ".folded",
                       folded.ToFolded());
  }
}

/// One scheduler group: a shared (platform, dataset) graph load. The
/// platform instance, its load outcome, and the id-translated execution
/// parameters live here; items of the group run mutually exclusively, so
/// no lock is needed — the scheduler IS the lock.
struct GroupState {
  std::string platform_name;
  const DatasetSpec* dataset = nullptr;
  AlgorithmParams run_params;  ///< dataset.params, BFS source translated
  std::shared_ptr<Platform> platform;
  Status load_status;
  double load_seconds = 0.0;
};

/// One scheduler item: a matrix cell, pointing at its group and its slot
/// in the (matrix-ordered) result vector.
struct CellRef {
  size_t slot = 0;
  size_t group = 0;
  AlgorithmKind algorithm = AlgorithmKind::kStats;
};

}  // namespace

Result<std::vector<BenchmarkResult>> RunBenchmark(const RunSpec& spec,
                                                  const ResultCallback& on_result) {
  if (spec.platforms.empty()) {
    return Status::InvalidArgument("run spec has no platforms");
  }
  if (spec.datasets.empty()) {
    return Status::InvalidArgument("run spec has no datasets");
  }
  if (spec.algorithms.empty()) {
    return Status::InvalidArgument("run spec has no algorithms");
  }
  for (const DatasetSpec& ds : spec.datasets) {
    if (ds.graph == nullptr) {
      return Status::InvalidArgument("dataset '" + ds.name + "' has no graph");
    }
    if (ds.original != nullptr) {
      if (ds.new_to_old == nullptr || ds.old_to_new == nullptr ||
          ds.new_to_old->size() != ds.graph->num_vertices() ||
          ds.old_to_new->size() != ds.graph->num_vertices() ||
          ds.original->num_vertices() != ds.graph->num_vertices()) {
        return Status::InvalidArgument(
            "reordered dataset '" + ds.name +
            "' needs a permutation covering every vertex");
      }
    }
  }

  const uint32_t max_attempts = std::max(1u, spec.max_attempts);
  const uint32_t jobs = std::max(1u, spec.jobs);
  std::optional<fault::ScopedFaultPlan> fault_scope;
  if (spec.fault_plan != nullptr) fault_scope.emplace(spec.fault_plan);

  // Observability: install the tracer/registry for the whole run (the
  // engines pick them up through ActiveTracer()/ActiveRegistry(), no
  // plumbing). Owned instances are declared before the scoped installers
  // so the scopes are torn down first — an abandoned attempt that outlives
  // the grace drain then records nothing instead of touching freed state.
  std::optional<trace::Tracer> owned_tracer;
  std::optional<metrics::Registry> owned_registry;
  trace::Tracer* tracer = spec.tracer;
  metrics::Registry* registry = spec.metrics;
  if (!spec.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spec.trace_dir, ec);
    if (ec) {
      return Status::IOError("cannot create trace dir " + spec.trace_dir +
                             ": " + ec.message());
    }
    if (tracer == nullptr) tracer = &owned_tracer.emplace();
    if (registry == nullptr) registry = &owned_registry.emplace();
  }
  std::optional<trace::ScopedTracer> trace_scope;
  std::optional<metrics::ScopedRegistry> metrics_scope;
  if (tracer != nullptr) trace_scope.emplace(tracer);
  if (registry != nullptr) metrics_scope.emplace(registry);

  // Profiling (DESIGN.md §14). Counters are opened before the scheduler
  // spawns any worker or attempt thread: perf events inherit only into
  // threads created after the open. The sampling profiler is process-wide
  // (one interval timer); per-cell sample attribution happens by draining
  // at cell boundaries, which is exact only at jobs == 1 — otherwise all
  // samples land in the run-wide folded profile.
  const bool counters_on = spec.profile.mode == ProfileMode::kCounters ||
                           spec.profile.mode == ProfileMode::kFull;
  const bool sampler_on = spec.profile.mode == ProfileMode::kSampler ||
                          spec.profile.mode == ProfileMode::kFull;
  std::unique_ptr<perf::PerfCounters> counters;
  std::optional<perf::ScopedPerfCounters> counters_scope;
  if (counters_on) {
    counters = perf::PerfCounters::Open();
    counters_scope.emplace(counters.get());
  }
  std::optional<prof::CpuProfiler> profiler;
  prof::FoldedProfile run_folded;
  std::mutex profile_mu;  // guards profiler drains + run_folded merges
  if (sampler_on) {
    prof::CpuProfiler::Options profiler_options;
    profiler_options.interval_us = std::max<uint64_t>(
        1, spec.profile.sample_interval_us);
    profiler_options.sampler = spec.profile.sampler;
    profiler.emplace(profiler_options);
    Status started = profiler->Start();
    if (!started.ok()) {
      GLY_LOG_WARN << "profiler: " << started.ToString()
                   << " (sampling disabled for this run)";
      profiler.reset();
    }
  }
  const bool per_cell_samples = profiler.has_value() && jobs == 1;

  // Completion journal: with `resume`, cells already journaled as finished
  // are reused; without it the journal restarts from scratch. Newly
  // executed cells are appended (and flushed) as they complete, so a run
  // killed mid-matrix leaves a valid journal behind.
  std::map<std::string, BenchmarkResult> journal_cells;
  std::ofstream journal;
  if (!spec.journal_path.empty()) {
    if (spec.resume) {
      SealTornJournalTail(spec.journal_path);
      journal_cells = LoadJournal(spec.journal_path);
    }
    journal.open(spec.journal_path,
                 spec.resume ? std::ios::app : std::ios::trunc);
    if (!journal) {
      return Status::IOError("cannot open journal " + spec.journal_path);
    }
  }

  // Fail fast on unbuildable platforms (unknown name, bad config) — the
  // serial loop's whole-run error, checked before any cell executes. The
  // scheduler builds its own instance per (platform, dataset) group.
  for (const std::string& platform_name : spec.platforms) {
    GLY_ASSIGN_OR_RETURN(std::unique_ptr<Platform> probe,
                         MakePlatform(platform_name,
                                      spec.platform_config.Scoped(platform_name)));
    (void)probe;
  }

  // Build the matrix in registration order — the scheduler claims items in
  // this order, so jobs = 1 is exactly the old serial execution. A group is
  // one shared (platform, dataset) graph load. Cells resumed from the
  // journal are emitted up front and never scheduled; a dataset whose cells
  // all resumed is never loaded at all.
  CellScheduler::Options sched_options;
  sched_options.jobs = jobs;
  sched_options.memory_budget_bytes = spec.sched_memory_budget_mb << 20;
  sched_options.stop = spec.stop;
  CellScheduler scheduler(sched_options);
  std::vector<GroupState> groups;
  std::vector<CellRef> cells;
  std::vector<std::optional<BenchmarkResult>> slots(
      spec.platforms.size() * spec.datasets.size() * spec.algorithms.size());

  std::mutex emit_mu;
  auto emit = [&](size_t slot, BenchmarkResult result) {
    std::lock_guard<std::mutex> lock(emit_mu);
    if (journal.is_open() && !result.resumed) {
      journal << ResultToJson(result) << '\n';
      journal.flush();
    }
    slots[slot] = std::move(result);
    if (on_result) on_result(*slots[slot]);
  };

  size_t slot = 0;
  const bool stopped_before_start = Cancelled(spec.stop);
  for (const std::string& platform_name : spec.platforms) {
    for (const DatasetSpec& dataset : spec.datasets) {
      auto make_group = [&]() -> size_t {
        GroupState group;
        group.platform_name = platform_name;
        group.dataset = &dataset;
        group.run_params = dataset.params;
        // `dataset.params` speaks original vertex ids; on a reordered
        // dataset the BFS source must be translated into the id space the
        // platform actually runs in.
        if (dataset.original != nullptr &&
            dataset.params.bfs.source < dataset.old_to_new->size()) {
          group.run_params.bfs.source =
              (*dataset.old_to_new)[dataset.params.bfs.source];
        }
        groups.push_back(std::move(group));
        return scheduler.AddGroup(dataset.graph->MemoryBytes());
      };
      size_t group_id = static_cast<size_t>(-1);
      for (AlgorithmKind algorithm : spec.algorithms) {
        const size_t cell_slot = slot++;
        auto it = journal_cells.find(
            CellKey(platform_name, dataset.name, algorithm));
        if (it != journal_cells.end() &&
            ReusableFromJournal(spec, it->second)) {
          if (!stopped_before_start) {
            BenchmarkResult cached = it->second;
            cached.resumed = true;
            emit(cell_slot, std::move(cached));
          }
          continue;
        }
        if (group_id == static_cast<size_t>(-1)) {
          group_id = make_group();
        }
        CellRef cell;
        cell.slot = cell_slot;
        cell.group = group_id;
        cell.algorithm = algorithm;
        // Item ids are assigned densely in AddItem order, so cells[item]
        // is this cell by construction.
        scheduler.AddItem(group_id,
                          CellKey(platform_name, dataset.name, algorithm));
        cells.push_back(cell);
      }
    }
  }

  // Attempts abandoned on timeout; drained (bounded) before returning so
  // orphan threads do not normally outlive caller-owned graphs.
  std::mutex abandoned_mu;
  std::vector<std::future<void>> abandoned;

  auto make_group_platform = [&](GroupState& g) -> Status {
    GLY_ASSIGN_OR_RETURN(
        std::unique_ptr<Platform> fresh,
        MakePlatform(g.platform_name,
                     spec.platform_config.Scoped(g.platform_name)));
    g.platform = std::move(fresh);
    // Loads (untimed, outside AlgorithmParams) still honour a harness
    // stop — this is how Ctrl-C interrupts a multi-minute bulk import.
    g.platform->SetCancelToken(spec.stop);
    return Status::OK();
  };

  // Group load: platform instance + ETL, once per admitted group; not part
  // of the runtime metric. Transient load failures (e.g. injected I/O
  // errors) get the same bounded retry as cells; a failed load is recorded
  // on every cell of the group, never thrown.
  auto load_group = [&](size_t group_id) {
    GroupState& g = groups[group_id];
    prof::ScopedProfilePhase profile_phase("harness.load");
    g.load_status = make_group_platform(g);
    if (!g.load_status.ok()) return;
    Stopwatch load_watch;
    {
      trace::TraceSpan load_span("harness.load", "harness");
      perf::SpanCounters load_counters(&load_span);
      load_span.SetAttribute("platform", g.platform_name);
      load_span.SetAttribute("graph", g.dataset->name);
      uint32_t load_attempts = 0;
      for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
        load_attempts = attempt;
        g.load_status =
            g.platform->LoadGraph(*g.dataset->graph, g.dataset->name);
        if (g.load_status.ok() || !IsRetryable(g.load_status) ||
            attempt == max_attempts || Cancelled(spec.stop)) {
          break;
        }
        InterruptibleSleep(
            spec.retry_backoff_s *
                static_cast<double>(1ull << std::min(attempt - 1, 20u)),
            spec.stop);
      }
      load_span.SetAttribute("attempts", uint64_t{load_attempts});
      load_span.SetAttribute("ok", g.load_status.ok() ? "true" : "false");
    }
    g.load_seconds = load_watch.ElapsedSeconds();
  };

  // Cell execution: the per-cell watchdog/retry machinery, unchanged from
  // the serial loop, operating on the cell's group state (which the
  // scheduler guarantees is not shared with any concurrent cell).
  auto run_cell = [&](size_t item_id) {
    const CellRef& cell = cells[item_id];
    GroupState& g = groups[cell.group];
    const DatasetSpec& dataset = *g.dataset;
    const AlgorithmKind algorithm = cell.algorithm;

    BenchmarkResult result;
    result.platform = g.platform_name;
    result.graph = dataset.name;
    result.algorithm = algorithm;
    result.load_seconds = g.load_seconds;

    prof::ScopedProfilePhase profile_phase("harness.run");

    // The cell records into its own child tracer (sharing the run
    // tracer's clock), installed as this thread's override and propagated
    // into engine pools by ThreadPool::Submit — so the window is exactly
    // this cell's events at any jobs. It is summarized, written as the
    // per-cell trace/profile, and merged back into the run-wide tracer
    // once the envelope closes.
    std::shared_ptr<trace::Tracer> cell_tracer;
    std::optional<trace::ScopedThreadTracer> cell_scope;
    if (tracer != nullptr) {
      cell_tracer = std::make_shared<trace::Tracer>(tracer->clock());
      cell_scope.emplace(cell_tracer.get());
    }

    // Per-cell sample attribution (jobs == 1 only): samples still queued
    // from between cells are flushed to the run-wide profile, so the
    // cell-end drain contains exactly this cell's samples.
    uint64_t dropped_before = 0;
    if (per_cell_samples) {
      std::lock_guard<std::mutex> lock(profile_mu);
      run_folded.Merge(profiler->Collect());
      dropped_before = profiler->dropped_samples();
    }
    {
    trace::TraceSpan cell_span("harness.cell", "harness");
    cell_span.SetAttribute("platform", g.platform_name);
    cell_span.SetAttribute("graph", dataset.name);
    cell_span.SetAttribute("algorithm", AlgorithmKindName(algorithm));
    metrics::AddCounter("harness.cells");

    // CD and EVO seed their dynamics with vertex ids: running them on a
    // relabeled graph is a different computation whose output cannot be
    // mapped back. Refuse the cell — recorded, never silent.
    if (dataset.original != nullptr && !RelabelingInvariant(algorithm)) {
      result.status = Status::InvalidArgument(
          StringPrintf("%s is not relabeling-invariant; rerun with "
                       "graph.reorder = none",
                       AlgorithmKindName(algorithm).c_str()));
    } else if (!g.load_status.ok()) {
      result.status = g.load_status.WithPrefix("load");
    } else {
    const uint64_t faults_before =
        spec.fault_plan != nullptr ? spec.fault_plan->TotalTriggered() : 0;

    for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
      result.attempts = attempt;
      result.timed_out = false;
      result.cancelled = false;
      result.stalled = false;
      result.cancel_reason.clear();
      result.cancel_join_seconds = 0.0;

      // A prior attempt was abandoned: rebuild the platform and
      // re-run ETL before this attempt.
      if (g.platform == nullptr) {
        Status rebuilt = make_group_platform(g);
        if (rebuilt.ok()) {
          rebuilt = g.platform->LoadGraph(*dataset.graph, dataset.name);
        }
        if (!rebuilt.ok()) {
          result.status = rebuilt.WithPrefix("reload after timeout");
          g.platform.reset();
          break;
        }
      }

      SystemMonitor monitor;
      if (spec.monitor) monitor.Start();
      Stopwatch run_watch;
      Result<AlgorithmOutput> run = Status::Internal("cell never ran");
      {
        trace::TraceSpan run_span("harness.run", "harness");
        perf::SpanCounters run_counters(&run_span);
        run_span.SetAttribute("attempt", uint64_t{attempt});
        auto state = std::make_shared<AttemptState>();
        state->platform = g.platform;
        state->algorithm = algorithm;
        state->params = g.run_params;
        state->params.cancel = &state->cancel;
        state->cell_tracer = cell_tracer;
        std::future<void> done = state->done.get_future();
        std::thread runner([state] {
          // The runner is a fresh thread: re-install the cell's tracer
          // override so the attempt (and pools it submits to) records
          // into the cell's window.
          trace::ScopedThreadTracer tracer_scope(state->cell_tracer.get());
          state->run = state->platform->Run(state->algorithm, state->params);
          state->done.set_value();
        });

        // Watchdog loop: slice-wait on the attempt, arming its token
        // on the first condition that fires — harness stop, the
        // wall-clock deadline, or a stalled progress heartbeat.
        const Deadline cell_deadline =
            spec.cell_timeout_s > 0.0 ? Deadline::After(spec.cell_timeout_s)
                                      : Deadline::Never();
        uint64_t last_beats = state->cancel.heartbeats();
        Stopwatch stall_watch;
        CancelReason why = CancelReason::kNone;
        for (;;) {
          if (done.wait_for(kSuperviseSlice) ==
              std::future_status::ready) {
            break;
          }
          if (Cancelled(spec.stop)) {
            why = CancelReason::kHarnessStop;
            state->cancel.Cancel(why, "harness stop requested");
            break;
          }
          if (cell_deadline.expired()) {
            why = CancelReason::kDeadline;
            state->cancel.Cancel(
                why, StringPrintf("cell exceeded %.3fs wall-clock budget",
                                  spec.cell_timeout_s));
            break;
          }
          if (spec.stall_timeout_s > 0.0) {
            const uint64_t beats = state->cancel.heartbeats();
            if (beats != last_beats) {
              last_beats = beats;
              stall_watch = Stopwatch();
            } else if (stall_watch.ElapsedSeconds() >=
                       spec.stall_timeout_s) {
              why = CancelReason::kStall;
              state->cancel.Cancel(
                  why, StringPrintf(
                           "no progress heartbeat for %.3fs (stall "
                           "watchdog)",
                           spec.stall_timeout_s));
              break;
            }
          }
        }

        if (why == CancelReason::kNone) {
          runner.join();
          run = std::move(state->run);
        } else {
          // Grace join: the engines poll the token at bounded-work
          // intervals, so a cooperative attempt unwinds (releasing
          // budget charges, closing spans) and joins well within the
          // grace window — no thread outlives the cell.
          result.cancelled = true;
          result.cancel_reason = CancelReasonName(why);
          result.timed_out = why == CancelReason::kDeadline;
          result.stalled = why == CancelReason::kStall;
          metrics::AddCounter("harness.cancels");
          if (why == CancelReason::kDeadline) {
            metrics::AddCounter("harness.timeouts");
          }
          trace::Instant(
              "harness.cancel", "harness",
              {{"reason", CancelReasonName(why)},
               {"platform", g.platform_name},
               {"graph", dataset.name},
               {"algorithm", AlgorithmKindName(algorithm)}});
          Stopwatch join_watch;
          const bool joined =
              done.wait_for(std::chrono::duration<double>(std::max(
                  0.0, spec.cancel_grace_s))) ==
              std::future_status::ready;
          result.cancel_join_seconds = join_watch.ElapsedSeconds();
          run_span.SetAttribute("cancelled", CancelReasonName(why));
          if (result.timed_out) {
            run_span.SetAttribute("timed_out", "true");
          }
          if (joined) {
            runner.join();
            // The cancelled verdict stands even if the attempt raced
            // to completion during the grace window: the cell blew
            // its budget (or the harness is stopping) either way.
            run = state->cancel.ToStatus();
            metrics::AddCounter("harness.cancel_joins");
            // The platform unwound cooperatively: keep it (and its
            // loaded graph) for the retry instead of rebuilding.
          } else {
            // Wedged past the grace window (e.g. stuck in a blocking
            // syscall the token cannot interrupt): fall back to the
            // abandon path so the matrix never hangs.
            runner.detach();
            run = state->cancel.ToStatus().WithPrefix(
                StringPrintf("attempt ignored cancellation for %.3fs",
                             spec.cancel_grace_s));
            metrics::AddCounter("harness.cancel_join_failures");
            {
              std::lock_guard<std::mutex> lock(abandoned_mu);
              abandoned.push_back(std::move(done));
            }
            g.platform.reset();
          }
        }
        run_span.SetAttribute("ok", run.ok() ? "true" : "false");
      }
      result.runtime_seconds = run_watch.ElapsedSeconds();
      if (spec.monitor) result.resources = monitor.Stop();
      if (g.platform != nullptr) {
        result.platform_metrics = g.platform->LastRunMetrics();
      }

      if (run.ok()) {
        result.status = Status::OK();
        result.traversed_edges = run->traversed_edges;
        result.teps = result.runtime_seconds > 0.0
                          ? static_cast<double>(run->traversed_edges) /
                                result.runtime_seconds
                          : 0.0;
        // The recorded answer speaks original vertex ids: reordered
        // outputs are mapped back before both the checksum and the
        // validation, so a reordered run and a plain run that computed
        // the same answer fingerprint identically.
        const AlgorithmOutput* answer = &*run;
        AlgorithmOutput mapped;
        if (dataset.original != nullptr) {
          mapped = MapOutputToOriginalIds(algorithm, *dataset.new_to_old,
                                          *run);
          answer = &mapped;
        }
        result.output_checksum = OutputChecksum(*answer);
        if (spec.validate) {
          prof::ScopedProfilePhase validate_phase("harness.validate");
          trace::TraceSpan validate_span("harness.validate", "harness");
          perf::SpanCounters validate_counters(&validate_span);
          // Reordered datasets validate in original vertex ids against
          // the original graph, so a reordered run and a plain run
          // answer to the same reference output.
          const Graph& expected_on =
              dataset.original != nullptr ? *dataset.original : *dataset.graph;
          result.validation = ValidateOutput(expected_on, algorithm,
                                             dataset.params, *answer);
          if (!result.validation.ok()) {
            GLY_LOG_ERROR << g.platform_name << "/" << dataset.name << "/"
                          << AlgorithmKindName(algorithm) << " validation: "
                          << result.validation.ToString();
          }
        }
        break;
      }

      result.status = run.status();
      GLY_LOG_WARN << g.platform_name << "/" << dataset.name << "/"
                   << AlgorithmKindName(algorithm) << " attempt "
                   << attempt << "/" << max_attempts
                   << " failed: " << run.status().ToString();
      if (attempt == max_attempts || !IsRetryable(result.status) ||
          Cancelled(spec.stop)) {
        break;
      }
      double backoff =
          spec.retry_backoff_s *
          static_cast<double>(1ull << std::min(attempt - 1, 20u));
      metrics::AddCounter("harness.retries");
      trace::Instant("harness.retry", "harness",
                     {{"attempt", std::to_string(attempt)},
                      {"backoff_s", StringPrintf("%.3f", backoff)}});
      InterruptibleSleep(backoff, spec.stop);
    }

    // Per-cell fault attribution via the plan's global trigger counter;
    // exact at jobs == 1, approximate when concurrent cells trigger
    // faults in the same window.
    result.injected_faults =
        spec.fault_plan != nullptr
            ? spec.fault_plan->TotalTriggered() - faults_before
            : 0;
    // Checkpoint/recovery counters surface through platform metrics
    // (Pregel rollback-replays and MapReduce map-stage restores).
    result.recoveries =
        MetricValue(result.platform_metrics, "recoveries") +
        MetricValue(result.platform_metrics, "map_stages_recovered");
    result.supersteps_replayed =
        MetricValue(result.platform_metrics, "supersteps_replayed");
    }  // retry loop (else branch of the refusal checks)
    }  // harness.cell envelope
    if (cell_tracer != nullptr) {
      // Close the override first so nothing this thread does below lands
      // in the cell window, then summarize/analyze it and merge it back
      // into the run-wide trace (events are appended contiguously, with
      // child tids remapped to fresh run-level tids).
      cell_scope.reset();
      std::vector<trace::TraceEvent> window = cell_tracer->Snapshot();
      SummarizeCellTrace(window, spec.trace_dir, &result);
      trace::SamplerSummary sampler_summary;
      prof::FoldedProfile cell_folded;
      if (per_cell_samples) {
        std::lock_guard<std::mutex> lock(profile_mu);
        cell_folded = profiler->Collect();
        run_folded.Merge(cell_folded);
        cell_folded.dropped = profiler->dropped_samples() - dropped_before;
        sampler_summary.mode = profiler->mode();
        sampler_summary.interval_us = profiler->interval_us();
        sampler_summary.samples = cell_folded.samples;
        sampler_summary.dropped = cell_folded.dropped;
      }
      WriteCellProfile(window, spec.trace_dir, sampler_summary, cell_folded,
                       &result);
      tracer->MergeEvents(std::move(window));
    }
    emit(cell.slot, std::move(result));
  };

  // Last cell of a group done (or skipped on stop): unload its graph.
  auto retire_group = [&](size_t group_id) {
    GroupState& g = groups[group_id];
    if (g.platform != nullptr) g.platform->UnloadGraph();
    g.platform.reset();
  };

  SchedulerStats stats = scheduler.Run(load_group, run_cell, retire_group);
  if (spec.scheduler_stats != nullptr) *spec.scheduler_stats = stats;

  // Bounded drain: give abandoned attempts a grace window to finish (they
  // are sleeping in a stalled site or finishing a slow superstep). If one
  // is genuinely wedged we still return — the matrix never hangs. The wait
  // re-checks its own deadline on every slice (a wait_until return is not
  // proof of readiness — timeouts and spurious returns look identical) and
  // wakes immediately when the harness-level stop token fires, so Ctrl-C
  // never hangs on the drain.
  if (!abandoned.empty()) {
    const Deadline drain_deadline =
        Deadline::After(std::max(0.0, spec.cancel_grace_s));
    for (std::future<void>& done : abandoned) {
      for (;;) {
        if (done.wait_for(kSuperviseSlice) == std::future_status::ready) break;
        if (drain_deadline.expired() || Cancelled(spec.stop)) break;
      }
    }
  }

  // Stop sampling and fold the tail (samples taken after the last cell
  // completed); the run-wide profile then accounts for every sample the
  // ring accepted, with drops reported from the sampler's own counter.
  if (profiler.has_value()) {
    std::lock_guard<std::mutex> lock(profile_mu);
    profiler->Stop();
    run_folded.Merge(profiler->Collect());
    run_folded.dropped = profiler->dropped_samples();
    metrics::AddCounter("profiler.samples", run_folded.samples);
    metrics::AddCounter("profiler.dropped", run_folded.dropped);
  }

  // Run-wide observability artifacts (after the drain, so spans from
  // abandoned-but-finished attempts are included).
  if (!spec.trace_dir.empty()) {
    std::filesystem::path dir(spec.trace_dir);
    if (tracer != nullptr) {
      Status written = tracer->WriteTo((dir / "trace.json").string());
      if (!written.ok()) {
        GLY_LOG_WARN << "trace: " << written.ToString();
      }
      // Run-wide profile.json: critical path over the whole span forest
      // (longest top-level span as root), per-worker utilization, top-K
      // self time, plus the run-wide folded stacks.
      trace::TraceAnalysis analysis = trace::AnalyzeTrace(tracer->Snapshot());
      trace::SamplerSummary sampler_summary;
      if (profiler.has_value()) {
        sampler_summary.mode = profiler->mode();
        sampler_summary.interval_us = profiler->interval_us();
        sampler_summary.samples = run_folded.samples;
        sampler_summary.dropped = run_folded.dropped;
      }
      WriteTraceArtifact(
          spec.trace_dir, "profile.json",
          trace::ProfileJson(analysis, sampler_summary, run_folded.ToLines()));
      if (profiler.has_value()) {
        WriteTraceArtifact(spec.trace_dir, "profile.folded",
                           run_folded.ToFolded());
      }
    }
    if (registry != nullptr) {
      Status written = registry->WriteTo((dir / "metrics.jsonl").string());
      if (!written.ok()) {
        GLY_LOG_WARN << "metrics: " << written.ToString();
      }
    }
  }

  // Results in matrix order; cells skipped on stop leave no result, same
  // as the serial loop breaking out of its nests.
  std::vector<BenchmarkResult> results;
  results.reserve(slots.size());
  for (std::optional<BenchmarkResult>& filled : slots) {
    if (filled.has_value()) results.push_back(*std::move(filled));
  }
  return results;
}

}  // namespace gly::harness