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

/// Exponential backoff after failed attempt `attempt` (1-based): the
/// spec's base delay, doubled for each earlier failure.
double BackoffSeconds(double base_seconds, uint32_t attempt) {
  return base_seconds * static_cast<double>(1ull << std::min(attempt - 1, 20u));
}

std::string CellKey(const std::string& platform, const std::string& graph,
                    AlgorithmKind algorithm) {
  return platform + "/" + graph + "/" + AlgorithmKindName(algorithm);
}

/// A journaled cell can replace re-execution only if it finished cleanly
/// and, when the spec validates, its validation actually ran.
bool ReusableFromJournal(const RunSpec& spec, const BenchmarkResult& cell) {
  return FinishedCleanly(cell) && (cell.validation.ok() || !spec.validate);
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
/// Malformed lines — anything that is not one complete JSON object, e.g. a
/// torn tail from a killed run — are skipped, not fatal: resume must work
/// exactly after a crash.
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

/// One cell in flight: its group (its own while the cell runs), its
/// child tracer (null when tracing is off), and the result it fills in.
struct CellRun {
  GroupState& group;
  AlgorithmKind algorithm;
  std::shared_ptr<trace::Tracer> tracer;
  BenchmarkResult result;
};

/// The spec checks made before anything starts: a matrix with no rows, a
/// dataset with no graph, or a reordering without a full permutation.
Status CheckSpec(const RunSpec& spec) {
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
  return Status::OK();
}

/// Why a cell cannot run at all; OK when it can. CD and EVO seed their
/// dynamics with vertex ids: running them on a relabeled graph is a
/// different computation whose output cannot be mapped back. A failed
/// group load fails every cell of the group. Recorded, never silent.
Status Refusal(const GroupState& g, AlgorithmKind algorithm) {
  if (g.dataset->original != nullptr && !RelabelingInvariant(algorithm)) {
    return Status::InvalidArgument(
        StringPrintf("%s is not relabeling-invariant; rerun with "
                     "graph.reorder = none",
                     AlgorithmKindName(algorithm).c_str()));
  }
  if (!g.load_status.ok()) return g.load_status.WithPrefix("load");
  return Status::OK();
}

/// One RunBenchmark call, in named phases. Open installs observability,
/// opens the journal, probes the platforms and builds the matrix (emitting
/// resumed cells). The scheduler then calls LoadGroup once per admitted
/// group, RunCell once per cell and RetireGroup once per loaded group.
/// Close drains abandoned attempts and writes the run-wide artifacts.
class BenchmarkRun {
 public:
  BenchmarkRun(const RunSpec& spec, const ResultCallback& on_result)
      : spec_(spec), on_result_(on_result) {}

  Result<std::vector<BenchmarkResult>> Run() {
    GLY_RETURN_NOT_OK(Open());
    SchedulerStats stats = scheduler_.Run(
        [this](size_t group) { LoadGroup(group); },
        [this](size_t item) { RunCell(item); },
        [this](size_t group) { RetireGroup(group); });
    if (spec_.scheduler_stats != nullptr) *spec_.scheduler_stats = stats;
    return Close();
  }

 private:
  // ---------------------------------------------------------------- Open

  Status Open() {
    if (spec_.fault_plan != nullptr) fault_scope_.emplace(spec_.fault_plan);
    GLY_RETURN_NOT_OK(OpenObservability());
    OpenProfiling();
    GLY_RETURN_NOT_OK(OpenJournal());
    // Fail fast on unbuildable platforms (unknown name, bad config) — the
    // serial loop's whole-run error, checked before any cell executes. The
    // scheduler builds its own instance per (platform, dataset) group.
    for (const std::string& platform_name : spec_.platforms) {
      GLY_ASSIGN_OR_RETURN(
          std::unique_ptr<Platform> probe,
          MakePlatform(platform_name,
                       spec_.platform_config.Scoped(platform_name)));
      (void)probe;
    }
    BuildMatrix();
    return Status::OK();
  }

  Status OpenObservability() {
    tracer_ = spec_.tracer;
    registry_ = spec_.metrics;
    if (!spec_.trace_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(spec_.trace_dir, ec);
      if (ec) {
        return Status::IOError("cannot create trace dir " + spec_.trace_dir +
                               ": " + ec.message());
      }
      if (tracer_ == nullptr) tracer_ = &owned_tracer_.emplace();
      if (registry_ == nullptr) registry_ = &owned_registry_.emplace();
    }
    if (tracer_ != nullptr) trace_scope_.emplace(tracer_);
    if (registry_ != nullptr) metrics_scope_.emplace(registry_);
    return Status::OK();
  }

  // Profiling (DESIGN.md §14). Counters are opened before the scheduler
  // spawns any worker or attempt thread: perf events inherit only into
  // threads created after the open. The sampling profiler is process-wide
  // (one interval timer); per-cell sample attribution happens by draining at
  // cell boundaries, which is exact only at jobs == 1 — otherwise all
  // samples land in the run-wide folded profile.
  void OpenProfiling() {
    const ProfileMode mode = spec_.profile.mode;
    if (mode == ProfileMode::kCounters || mode == ProfileMode::kFull) {
      counters_ = perf::PerfCounters::Open();
      counters_scope_.emplace(counters_.get());
    }
    if (mode == ProfileMode::kSampler || mode == ProfileMode::kFull) {
      prof::CpuProfiler::Options profiler_options;
      profiler_options.interval_us =
          std::max<uint64_t>(1, spec_.profile.sample_interval_us);
      profiler_options.sampler = spec_.profile.sampler;
      profiler_.emplace(profiler_options);
      Status started = profiler_->Start();
      if (!started.ok()) {
        GLY_LOG_WARN << "profiler: " << started.ToString()
                     << " (sampling disabled for this run)";
        profiler_.reset();
      }
    }
    per_cell_samples_ = profiler_.has_value() && jobs_ == 1;
  }

  // Completion journal: with `resume`, cells already journaled as finished
  // are reused; without it the journal restarts from scratch. Newly executed
  // cells are appended (and flushed) as they complete, so a run killed
  // mid-matrix leaves a valid journal behind.
  Status OpenJournal() {
    if (spec_.journal_path.empty()) return Status::OK();
    if (spec_.resume) {
      SealTornJournalTail(spec_.journal_path);
      journal_cells_ = LoadJournal(spec_.journal_path);
    }
    journal_.open(spec_.journal_path,
                  spec_.resume ? std::ios::app : std::ios::trunc);
    if (!journal_) {
      return Status::IOError("cannot open journal " + spec_.journal_path);
    }
    return Status::OK();
  }

  // Builds the matrix in registration order — the scheduler claims items in
  // this order, so jobs = 1 is exactly the old serial execution. Cells
  // resumed from the journal are emitted up front and never scheduled; a
  // dataset whose cells all resumed is never loaded at all.
  void BuildMatrix() {
    constexpr size_t kNoGroup = static_cast<size_t>(-1);
    slots_.resize(spec_.platforms.size() * spec_.datasets.size() *
                  spec_.algorithms.size());
    size_t slot = 0;
    const bool stopped_before_start = Cancelled(spec_.stop);
    for (const std::string& platform_name : spec_.platforms) {
      for (const DatasetSpec& dataset : spec_.datasets) {
        size_t group_id = kNoGroup;
        for (AlgorithmKind algorithm : spec_.algorithms) {
          const size_t cell_slot = slot++;
          const std::string key =
              CellKey(platform_name, dataset.name, algorithm);
          auto it = journal_cells_.find(key);
          if (it != journal_cells_.end() &&
              ReusableFromJournal(spec_, it->second)) {
            if (!stopped_before_start) {
              BenchmarkResult cached = it->second;
              cached.resumed = true;
              Emit(cell_slot, std::move(cached));
            }
            continue;
          }
          if (group_id == kNoGroup) group_id = AddGroup(platform_name, dataset);
          // Item ids are assigned densely in AddItem order, so cells_[item]
          // is this cell by construction.
          scheduler_.AddItem(group_id, key);
          cells_.push_back({cell_slot, group_id, algorithm});
        }
      }
    }
  }

  // A group is one shared (platform, dataset) graph load.
  size_t AddGroup(const std::string& platform_name,
                  const DatasetSpec& dataset) {
    GroupState group;
    group.platform_name = platform_name;
    group.dataset = &dataset;
    group.run_params = dataset.params;
    // `dataset.params` speaks original vertex ids; on a reordered dataset the
    // BFS source must be translated into the id space the platform actually
    // runs in.
    if (dataset.original != nullptr &&
        dataset.params.bfs.source < dataset.old_to_new->size()) {
      group.run_params.bfs.source =
          (*dataset.old_to_new)[dataset.params.bfs.source];
    }
    groups_.push_back(std::move(group));
    return scheduler_.AddGroup(dataset.graph->MemoryBytes());
  }

  void Emit(size_t slot, BenchmarkResult result) {
    std::lock_guard<std::mutex> lock(emit_mu_);
    if (journal_.is_open() && !result.resumed) {
      journal_ << ResultToJson(result) << '\n';
      journal_.flush();
    }
    slots_[slot] = std::move(result);
    if (on_result_) on_result_(*slots_[slot]);
  }

  // ---------------------------------------------------------------- Load

  // Group load: platform instance + ETL, once per admitted group; not part
  // of the runtime metric. A failed load is recorded on every cell of the
  // group, never thrown.
  void LoadGroup(size_t group_id) {
    GroupState& g = groups_[group_id];
    prof::ScopedProfilePhase profile_phase("harness.load");
    g.load_status = LoadPlatform(g, &g.load_seconds);
  }

  // Builds the group's platform and loads its graph inside a harness.load
  // span. Transient load failures (e.g. injected I/O errors) get the same
  // bounded retry as cells. The group load and the reload after an abandoned
  // attempt both come here; `load_seconds` (nullable) receives the load's
  // wall time, the platform's construction excluded.
  Status LoadPlatform(GroupState& g, double* load_seconds) {
    GLY_ASSIGN_OR_RETURN(
        std::unique_ptr<Platform> fresh,
        MakePlatform(g.platform_name,
                     spec_.platform_config.Scoped(g.platform_name)));
    g.platform = std::move(fresh);
    // Loads (untimed, outside AlgorithmParams) still honour a harness stop —
    // this is how Ctrl-C interrupts a multi-minute bulk import.
    g.platform->SetCancelToken(spec_.stop);
    Stopwatch load_watch;
    Status status;
    {
      trace::TraceSpan load_span("harness.load", "harness");
      perf::SpanCounters load_counters(&load_span);
      load_span.SetAttribute("platform", g.platform_name);
      load_span.SetAttribute("graph", g.dataset->name);
      uint32_t load_attempts = 0;
      for (uint32_t attempt = 1; attempt <= max_attempts_; ++attempt) {
        load_attempts = attempt;
        status = g.platform->LoadGraph(*g.dataset->graph, g.dataset->name);
        if (status.ok() || !IsRetryable(status) || attempt == max_attempts_ ||
            Cancelled(spec_.stop)) {
          break;
        }
        InterruptibleSleep(BackoffSeconds(spec_.retry_backoff_s, attempt),
                           spec_.stop);
      }
      load_span.SetAttribute("attempts", uint64_t{load_attempts});
      load_span.SetAttribute("ok", status.ok() ? "true" : "false");
    }
    if (load_seconds != nullptr) *load_seconds = load_watch.ElapsedSeconds();
    return status;
  }

  // ---------------------------------------------------------------- Cell

  // One cell: the refusal checks and the attempt loop inside its
  // harness.cell envelope, then its trace epilogue and journal emit. The
  // scheduler guarantees no concurrent cell shares the group state.
  void RunCell(size_t item_id) {
    const CellRef& ref = cells_[item_id];
    CellRun cell{groups_[ref.group], ref.algorithm, nullptr, {}};
    BenchmarkResult& result = cell.result;
    result.platform = cell.group.platform_name;
    result.graph = cell.group.dataset->name;
    result.algorithm = cell.algorithm;
    result.load_seconds = cell.group.load_seconds;

    prof::ScopedProfilePhase profile_phase("harness.run");

    // The cell records into its own child tracer (sharing the run tracer's
    // clock), installed as this thread's override and propagated into engine
    // pools by ThreadPool::Submit — so the window is exactly this cell's
    // events at any jobs.
    std::optional<trace::ScopedThreadTracer> cell_scope;
    if (tracer_ != nullptr) {
      cell.tracer = std::make_shared<trace::Tracer>(tracer_->clock());
      cell_scope.emplace(cell.tracer.get());
    }
    const uint64_t dropped_before = StartCellSamples();
    {
      trace::TraceSpan cell_span("harness.cell", "harness");
      cell_span.SetAttribute("platform", result.platform);
      cell_span.SetAttribute("graph", result.graph);
      cell_span.SetAttribute("algorithm", AlgorithmKindName(cell.algorithm));
      metrics::AddCounter("harness.cells");
      result.status = Refusal(cell.group, cell.algorithm);
      if (result.status.ok()) RunAttempts(cell);
    }
    if (cell.tracer != nullptr) {
      // Close the override first so nothing this thread does below lands in
      // the cell window.
      cell_scope.reset();
      FinishCellTrace(cell, dropped_before);
    }
    Emit(ref.slot, std::move(result));
  }

  // The attempt loop: bounded retry of transient failures with exponential
  // backoff. A platform dropped by an abandoned attempt is rebuilt and
  // reloaded before the next one.
  void RunAttempts(CellRun& cell) {
    BenchmarkResult& result = cell.result;
    const uint64_t faults_before =
        spec_.fault_plan != nullptr ? spec_.fault_plan->TotalTriggered() : 0;
    for (uint32_t attempt = 1; attempt <= max_attempts_; ++attempt) {
      result.attempts = attempt;
      result.timed_out = false;
      result.cancelled = false;
      result.stalled = false;
      result.cancel_reason.clear();
      result.cancel_join_seconds = 0.0;
      if (cell.group.platform == nullptr) {
        Status reloaded = LoadPlatform(cell.group, nullptr);
        if (!reloaded.ok()) {
          result.status = reloaded.WithPrefix("reload after timeout");
          cell.group.platform.reset();
          break;
        }
      }
      Result<AlgorithmOutput> run = RunAttempt(cell, attempt);
      if (run.ok()) {
        // Platforms replace their metrics only when a Run succeeds, so only
        // now are they this cell's.
        result.platform_metrics = cell.group.platform->LastRunMetrics();
        RecordAnswer(cell, *run);
        break;
      }
      result.status = run.status();
      GLY_LOG_WARN << result.platform << "/" << result.graph << "/"
                   << AlgorithmKindName(cell.algorithm) << " attempt "
                   << attempt << "/" << max_attempts_
                   << " failed: " << run.status().ToString();
      if (attempt == max_attempts_ || !IsRetryable(result.status) ||
          Cancelled(spec_.stop)) {
        break;
      }
      const double backoff = BackoffSeconds(spec_.retry_backoff_s, attempt);
      metrics::AddCounter("harness.retries");
      trace::Instant("harness.retry", "harness",
                     {{"attempt", std::to_string(attempt)},
                      {"backoff_s", StringPrintf("%.3f", backoff)}});
      InterruptibleSleep(backoff, spec_.stop);
    }
    // Per-cell fault attribution via the plan's global trigger counter;
    // exact at jobs == 1, approximate when concurrent cells trigger faults in
    // the same window.
    result.injected_faults =
        spec_.fault_plan != nullptr
            ? spec_.fault_plan->TotalTriggered() - faults_before
            : 0;
    // Checkpoint/recovery counters surface through platform metrics (Pregel
    // rollback-replays and MapReduce map-stage restores).
    result.recoveries = MetricValue(result.platform_metrics, "recoveries") +
                        MetricValue(result.platform_metrics,
                                    "map_stages_recovered");
    result.supersteps_replayed =
        MetricValue(result.platform_metrics, "supersteps_replayed");
  }

  // One supervised attempt: the platform runs on a runner thread of its own
  // while this thread watches it (every attempt is supervised).
  Result<AlgorithmOutput> RunAttempt(CellRun& cell, uint32_t attempt) {
    SystemMonitor monitor;
    if (spec_.monitor) monitor.Start();
    Stopwatch run_watch;
    Result<AlgorithmOutput> run = Status::Internal("cell never ran");
    {
      trace::TraceSpan run_span("harness.run", "harness");
      perf::SpanCounters run_counters(&run_span);
      run_span.SetAttribute("attempt", uint64_t{attempt});
      auto state = std::make_shared<AttemptState>();
      state->platform = cell.group.platform;
      state->algorithm = cell.algorithm;
      state->params = cell.group.run_params;
      state->params.cancel = &state->cancel;
      state->cell_tracer = cell.tracer;
      std::future<void> done = state->done.get_future();
      std::thread runner([state] {
        // The runner is a fresh thread: re-install the cell's tracer override
        // so the attempt (and pools it submits to) records into the cell's
        // window.
        trace::ScopedThreadTracer tracer_scope(state->cell_tracer.get());
        state->run = state->platform->Run(state->algorithm, state->params);
        state->done.set_value();
      });
      const CancelReason why = Watch(state->cancel, done);
      if (why == CancelReason::kNone) {
        runner.join();
        run = std::move(state->run);
      } else {
        run = JoinOrAbandon(cell, why, *state, runner, std::move(done),
                            run_span);
      }
      run_span.SetAttribute("ok", run.ok() ? "true" : "false");
    }
    cell.result.runtime_seconds = run_watch.ElapsedSeconds();
    if (spec_.monitor) cell.result.resources = monitor.Stop();
    return run;
  }

  // Watchdog: slice-waits on the attempt, arming its token on the first
  // condition that fires — harness stop, the wall-clock deadline, or a
  // stalled progress heartbeat. kNone means the attempt finished.
  CancelReason Watch(CancelToken& cancel, std::future<void>& done) const {
    const Deadline cell_deadline = spec_.cell_timeout_s > 0.0
                                       ? Deadline::After(spec_.cell_timeout_s)
                                       : Deadline::Never();
    uint64_t last_beats = cancel.heartbeats();
    Stopwatch stall_watch;
    for (;;) {
      if (done.wait_for(kSuperviseSlice) == std::future_status::ready) {
        return CancelReason::kNone;
      }
      if (Cancelled(spec_.stop)) {
        cancel.Cancel(CancelReason::kHarnessStop, "harness stop requested");
        return CancelReason::kHarnessStop;
      }
      if (cell_deadline.expired()) {
        cancel.Cancel(CancelReason::kDeadline,
                      StringPrintf("cell exceeded %.3fs wall-clock budget",
                                   spec_.cell_timeout_s));
        return CancelReason::kDeadline;
      }
      if (spec_.stall_timeout_s <= 0.0) continue;
      const uint64_t beats = cancel.heartbeats();
      if (beats != last_beats) {
        last_beats = beats;
        stall_watch = Stopwatch();
      } else if (stall_watch.ElapsedSeconds() >= spec_.stall_timeout_s) {
        cancel.Cancel(CancelReason::kStall,
                      StringPrintf("no progress heartbeat for %.3fs (stall "
                                   "watchdog)",
                                   spec_.stall_timeout_s));
        return CancelReason::kStall;
      }
    }
  }

  // Grace join of a cancelled attempt: the engines poll the token at
  // bounded-work intervals, so a cooperative attempt unwinds (releasing
  // budget charges, closing spans) and joins well within the grace window —
  // no thread outlives the cell. One wedged past the window (e.g. stuck in a
  // blocking syscall the token cannot interrupt) is abandoned so the matrix
  // never hangs: detached, its future kept for the post-matrix drain, and
  // its platform dropped so the next attempt rebuilds and reloads.
  Result<AlgorithmOutput> JoinOrAbandon(
      CellRun& cell, CancelReason why, AttemptState& state, std::thread& runner,
      std::future<void> done, trace::TraceSpan& run_span) {
    BenchmarkResult& result = cell.result;
    result.cancelled = true;
    result.cancel_reason = CancelReasonName(why);
    result.timed_out = why == CancelReason::kDeadline;
    result.stalled = why == CancelReason::kStall;
    metrics::AddCounter("harness.cancels");
    if (why == CancelReason::kDeadline) metrics::AddCounter("harness.timeouts");
    trace::Instant("harness.cancel", "harness",
                   {{"reason", CancelReasonName(why)},
                    {"platform", result.platform},
                    {"graph", result.graph},
                    {"algorithm", AlgorithmKindName(cell.algorithm)}});
    Stopwatch join_watch;
    const bool joined =
        done.wait_for(std::chrono::duration<double>(
            std::max(0.0, spec_.cancel_grace_s))) == std::future_status::ready;
    result.cancel_join_seconds = join_watch.ElapsedSeconds();
    run_span.SetAttribute("cancelled", CancelReasonName(why));
    if (result.timed_out) run_span.SetAttribute("timed_out", "true");
    if (joined) {
      runner.join();
      // The cancelled verdict stands even if the attempt raced to completion
      // during the grace window: the cell blew its budget (or the harness is
      // stopping) either way. The platform unwound cooperatively, so it (and
      // its loaded graph) is kept for the retry.
      metrics::AddCounter("harness.cancel_joins");
      return state.cancel.ToStatus();
    }
    runner.detach();
    metrics::AddCounter("harness.cancel_join_failures");
    {
      std::lock_guard<std::mutex> lock(abandoned_mu_);
      abandoned_.push_back(std::move(done));
    }
    cell.group.platform.reset();
    return state.cancel.ToStatus().WithPrefix(StringPrintf(
        "attempt ignored cancellation for %.3fs", spec_.cancel_grace_s));
  }

  // Records a successful attempt's answer. The recorded answer speaks
  // original vertex ids: reordered outputs are mapped back before both the
  // checksum and the validation, so a reordered run and a plain run that
  // computed the same answer fingerprint identically and validate against
  // the same reference output, on the original graph.
  void RecordAnswer(CellRun& cell, const AlgorithmOutput& output) {
    BenchmarkResult& result = cell.result;
    const DatasetSpec& dataset = *cell.group.dataset;
    result.status = Status::OK();
    result.traversed_edges = output.traversed_edges;
    result.teps = result.runtime_seconds > 0.0
                      ? static_cast<double>(output.traversed_edges) /
                            result.runtime_seconds
                      : 0.0;
    const AlgorithmOutput* answer = &output;
    AlgorithmOutput mapped;
    if (dataset.original != nullptr) {
      mapped = MapOutputToOriginalIds(cell.algorithm, *dataset.new_to_old,
                                      output);
      answer = &mapped;
    }
    result.output_checksum = OutputChecksum(*answer);
    if (!spec_.validate) return;
    prof::ScopedProfilePhase validate_phase("harness.validate");
    trace::TraceSpan validate_span("harness.validate", "harness");
    perf::SpanCounters validate_counters(&validate_span);
    const Graph& expected_on =
        dataset.original != nullptr ? *dataset.original : *dataset.graph;
    result.validation =
        ValidateOutput(expected_on, cell.algorithm, dataset.params, *answer);
    if (!result.validation.ok()) {
      GLY_LOG_ERROR << result.platform << "/" << result.graph << "/"
                    << AlgorithmKindName(cell.algorithm)
                    << " validation: " << result.validation.ToString();
    }
  }

  // Per-cell sample attribution (jobs == 1 only): samples still queued from
  // between cells are flushed to the run-wide profile, so the cell-end drain
  // contains exactly this cell's samples. Returns the drop count so far.
  uint64_t StartCellSamples() {
    if (!per_cell_samples_) return 0;
    std::lock_guard<std::mutex> lock(profile_mu_);
    run_folded_.Merge(profiler_->Collect());
    return profiler_->dropped_samples();
  }

  // The cell's trace epilogue: summarize and analyze its window, write the
  // per-cell trace and profile, and merge the window back into the run-wide
  // trace (events appended contiguously, child tids remapped to fresh
  // run-level tids).
  void FinishCellTrace(CellRun& cell, uint64_t dropped_before) {
    std::vector<trace::TraceEvent> window = cell.tracer->Snapshot();
    SummarizeCellTrace(window, spec_.trace_dir, &cell.result);
    prof::FoldedProfile cell_folded;
    if (per_cell_samples_) {
      std::lock_guard<std::mutex> lock(profile_mu_);
      cell_folded = profiler_->Collect();
      run_folded_.Merge(cell_folded);
      cell_folded.dropped = profiler_->dropped_samples() - dropped_before;
    }
    WriteCellProfile(window, spec_.trace_dir,
                     SamplerSummaryOf(cell_folded, per_cell_samples_),
                     cell_folded, &cell.result);
    tracer_->MergeEvents(std::move(window));
  }

  // What the sampler contributed to `folded`; mode "off" unless `sampled`.
  trace::SamplerSummary SamplerSummaryOf(const prof::FoldedProfile& folded,
                                         bool sampled) const {
    if (!sampled) return {};
    return {.mode = profiler_->mode(),
            .interval_us = profiler_->interval_us(),
            .samples = folded.samples,
            .dropped = folded.dropped};
  }

  // --------------------------------------------------------------- Close

  // Last cell of a group done (or skipped on stop): unload its graph.
  void RetireGroup(size_t group_id) {
    GroupState& g = groups_[group_id];
    if (g.platform != nullptr) g.platform->UnloadGraph();
    g.platform.reset();
  }

  std::vector<BenchmarkResult> Close() {
    DrainAbandoned();
    // Stop sampling and fold the tail (samples taken after the last cell
    // completed); the run-wide profile then accounts for every sample the
    // ring accepted, with drops reported from the sampler's own counter.
    if (profiler_.has_value()) {
      std::lock_guard<std::mutex> lock(profile_mu_);
      profiler_->Stop();
      run_folded_.Merge(profiler_->Collect());
      run_folded_.dropped = profiler_->dropped_samples();
      metrics::AddCounter("profiler.samples", run_folded_.samples);
      metrics::AddCounter("profiler.dropped", run_folded_.dropped);
    }
    WriteRunArtifacts();
    // Results in matrix order; cells skipped on stop leave no result, same
    // as the serial loop breaking out of its nests.
    std::vector<BenchmarkResult> results;
    results.reserve(slots_.size());
    for (std::optional<BenchmarkResult>& filled : slots_) {
      if (filled.has_value()) results.push_back(*std::move(filled));
    }
    return results;
  }

  // Bounded drain: give abandoned attempts a grace window to finish (they
  // are sleeping in a stalled site or finishing a slow superstep). If one is
  // genuinely wedged we still return — the matrix never hangs. The wait
  // re-checks its own deadline on every slice (a wait_until return is not
  // proof of readiness — timeouts and spurious returns look identical) and
  // wakes immediately when the harness-level stop token fires, so Ctrl-C
  // never hangs on the drain.
  void DrainAbandoned() {
    if (abandoned_.empty()) return;
    const Deadline drain_deadline =
        Deadline::After(std::max(0.0, spec_.cancel_grace_s));
    for (std::future<void>& done : abandoned_) {
      for (;;) {
        if (done.wait_for(kSuperviseSlice) == std::future_status::ready) break;
        if (drain_deadline.expired() || Cancelled(spec_.stop)) break;
      }
    }
  }

  // Run-wide observability artifacts (after the drain, so spans from
  // abandoned-but-finished attempts are included).
  void WriteRunArtifacts() {
    if (spec_.trace_dir.empty()) return;
    std::filesystem::path dir(spec_.trace_dir);
    if (tracer_ != nullptr) {
      Status written = tracer_->WriteTo((dir / "trace.json").string());
      if (!written.ok()) {
        GLY_LOG_WARN << "trace: " << written.ToString();
      }
      // Run-wide profile.json: critical path over the whole span forest
      // (longest top-level span as root), per-worker utilization, top-K self
      // time, plus the run-wide folded stacks.
      trace::TraceAnalysis analysis = trace::AnalyzeTrace(tracer_->Snapshot());
      trace::SamplerSummary sampler =
          SamplerSummaryOf(run_folded_, profiler_.has_value());
      WriteTraceArtifact(
          spec_.trace_dir, "profile.json",
          trace::ProfileJson(analysis, sampler, run_folded_.ToLines()));
      if (profiler_.has_value()) {
        WriteTraceArtifact(spec_.trace_dir, "profile.folded",
                           run_folded_.ToFolded());
      }
    }
    if (registry_ != nullptr) {
      Status written = registry_->WriteTo((dir / "metrics.jsonl").string());
      if (!written.ok()) {
        GLY_LOG_WARN << "metrics: " << written.ToString();
      }
    }
  }

  const RunSpec& spec_;
  const ResultCallback& on_result_;
  const uint32_t max_attempts_ = std::max(1u, spec_.max_attempts);
  const uint32_t jobs_ = std::max(1u, spec_.jobs);
  std::optional<fault::ScopedFaultPlan> fault_scope_;

  // Observability: the tracer/registry installed for the whole run (the
  // engines pick them up through ActiveTracer()/ActiveRegistry(), no
  // plumbing). Owned instances are declared before the scoped installers
  // so the scopes are torn down first — an abandoned attempt that outlives
  // the grace drain then records nothing instead of touching freed state.
  std::optional<trace::Tracer> owned_tracer_;
  std::optional<metrics::Registry> owned_registry_;
  trace::Tracer* tracer_ = nullptr;
  metrics::Registry* registry_ = nullptr;
  std::optional<trace::ScopedTracer> trace_scope_;
  std::optional<metrics::ScopedRegistry> metrics_scope_;

  std::unique_ptr<perf::PerfCounters> counters_;
  std::optional<perf::ScopedPerfCounters> counters_scope_;
  std::optional<prof::CpuProfiler> profiler_;
  prof::FoldedProfile run_folded_;
  std::mutex profile_mu_;  // guards profiler drains + run_folded_ merges
  bool per_cell_samples_ = false;

  std::map<std::string, BenchmarkResult> journal_cells_;
  std::ofstream journal_;

  CellScheduler scheduler_{CellScheduler::Options{
      .jobs = jobs_,
      .memory_budget_bytes = spec_.sched_memory_budget_mb << 20,
      .stop = spec_.stop}};
  std::vector<GroupState> groups_;
  std::vector<CellRef> cells_;
  std::vector<std::optional<BenchmarkResult>> slots_;
  std::mutex emit_mu_;

  // Attempts abandoned on timeout; drained (bounded) before returning so
  // orphan threads do not normally outlive caller-owned graphs.
  std::mutex abandoned_mu_;
  std::vector<std::future<void>> abandoned_;
};

}  // namespace

bool FinishedCleanly(const BenchmarkResult& cell) {
  return cell.status.ok() &&
         (cell.validation.ok() || cell.validation.IsUntested());
}

Result<std::vector<BenchmarkResult>> RunBenchmark(
    const RunSpec& spec, const ResultCallback& on_result) {
  GLY_RETURN_NOT_OK(CheckSpec(spec));
  return BenchmarkRun(spec, on_result).Run();
}

}  // namespace gly::harness
