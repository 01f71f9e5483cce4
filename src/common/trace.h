// Structured tracing — the observability half of Figure 2's System
// Monitor. The paper's monitor samples coarse resource usage; it cannot
// say *where* a run spent its time. This layer can: engines and the
// harness open hierarchical spans (RAII TraceSpan) around their phases —
// harness etl/load/run/validate, Pregel supersteps, MapReduce stages,
// dataflow operators, graph-database import — and the collected events
// export as Chrome trace-event JSON (`chrome://tracing`, Perfetto), so a
// regressed benchmark cell carries its own per-phase timeline.
//
// Activation mirrors common/fault_injection.h: a Tracer is installed
// process-globally and scoped (ScopedTracer); with none installed a span
// is one relaxed atomic load, so tracing is free when off (the default).
// The clock is injectable: tests drive a FakeClock, making whole traces
// deterministic and golden-testable — observability output is a tested
// contract, not best-effort logging.
//
//   trace::Tracer tracer;                      // steady clock
//   {
//     trace::ScopedTracer active(&tracer);
//     trace::TraceSpan span("pregel.superstep", "pregel");
//     span.SetAttribute("active", uint64_t{42});
//     ...
//   }                                          // span closed, tracer restored
//   tracer.WriteTo("trace.json");              // open in chrome://tracing

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"

namespace gly::trace {

/// Time source for a Tracer. Injectable so traces can be deterministic.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic microseconds. The origin is the clock's own epoch; only
  /// differences and ordering matter.
  virtual uint64_t NowMicros() = 0;
};

/// Monotonic wall clock; epoch = construction time, so traces start near 0.
class SteadyClock final : public Clock {
 public:
  SteadyClock();
  uint64_t NowMicros() override;

 private:
  uint64_t epoch_micros_ = 0;
};

/// Deterministic test clock. Starts at `start_micros`; every read advances
/// it by `tick_micros` (so consecutive events get distinct, reproducible
/// timestamps) and Advance() jumps it explicitly. Thread-safe.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(uint64_t start_micros = 0, uint64_t tick_micros = 0)
      : now_(start_micros), tick_(tick_micros) {}

  uint64_t NowMicros() override {
    return now_.fetch_add(tick_, std::memory_order_relaxed);
  }

  void Advance(uint64_t micros) {
    now_.fetch_add(micros, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_;
  const uint64_t tick_;
};

/// One attribute on an event ("args" in the Chrome trace format).
using TraceArg = std::pair<std::string, std::string>;

/// One trace event. Phases: 'B' span begin, 'E' span end (arguments ride
/// on the E event), 'i' instant.
struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'i';
  uint64_t ts_micros = 0;
  uint32_t tid = 0;  ///< virtual thread id (first-use order, starts at 1)
  std::vector<TraceArg> args;
};

/// Total duration of one span name across a set of events (matched B/E
/// pairs), used for the report's "top phases" columns.
struct PhaseTotal {
  std::string name;
  double seconds = 0.0;
  uint64_t count = 0;  ///< completed spans with this name
};

/// Well-formedness summary of an event stream (per-thread B/E nesting).
struct TraceCheck {
  size_t events = 0;
  size_t completed_spans = 0;   ///< matched B/E pairs
  size_t unmatched_begins = 0;  ///< spans still open at the end
  size_t max_depth = 0;         ///< deepest nesting over all threads
};

/// Thread-safe event collector. Threads are mapped to small stable virtual
/// ids in first-use order, so a trace produced by a deterministic schedule
/// is itself deterministic.
class Tracer {
 public:
  /// `clock` may be null: the tracer then owns a SteadyClock.
  explicit Tracer(Clock* clock = nullptr);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(std::string_view name, std::string_view category);
  void End(std::string_view name, std::string_view category,
           std::vector<TraceArg> args = {});
  void Instant(std::string_view name, std::string_view category,
               std::vector<TraceArg> args = {});

  /// Number of events recorded so far (monotonic; callers use it to slice
  /// per-cell windows out of a run-wide trace).
  size_t event_count() const;

  std::vector<TraceEvent> Snapshot() const;
  /// Events with index >= `first` at snapshot time.
  std::vector<TraceEvent> SnapshotSince(size_t first) const;

  /// Full trace as a Chrome trace-event JSON document.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`.
  Status WriteTo(const std::string& path) const;

  /// The clock events are stamped with (never null). Lets a child tracer
  /// share its parent's clock so merged timelines stay comparable.
  Clock* clock() const { return clock_; }

  /// Appends events recorded by another tracer (typically a per-cell child
  /// tracer, see ScopedThreadTracer). Each distinct incoming tid is mapped
  /// to a fresh virtual tid of this tracer, so per-thread B/E nesting in
  /// the merged stream stays valid even when both tracers saw the same OS
  /// thread. Events are appended contiguously in their original order.
  void MergeEvents(std::vector<TraceEvent> events);

 private:
  uint32_t TidOfCurrentThread();

  Clock* clock_;
  std::unique_ptr<SteadyClock> owned_clock_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::vector<std::pair<std::thread::id, uint32_t>> tids_;
  uint32_t next_tid_ = 1;  ///< next virtual tid (shared by threads + merges)
};

/// Renders any event list as a Chrome trace-event JSON document
/// (one event per line; `{"traceEvents":[...]}` with schema metadata).
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

/// Parses+validates a Chrome trace-event JSON document produced by
/// ChromeTraceJson (or any structurally equivalent one): top-level object
/// with a "traceEvents" array whose elements carry name/ph/ts/pid/tid,
/// and whose B/E events nest correctly per thread. Returns the check
/// summary or an error naming the first violation.
Result<TraceCheck> ValidateChromeTraceJson(std::string_view json);

/// Per-thread B/E nesting check over raw events (an E must close the most
/// recent open B of its thread, matched by name). Returns an error on a
/// mismatched E; unmatched B's are merely counted (a window sliced out of
/// a live trace can end mid-span).
Result<TraceCheck> CheckWellFormed(const std::vector<TraceEvent>& events);

/// Parses a Chrome trace-event JSON document back into its event list
/// (name/ph/ts/tid and string-valued args are recovered; other fields are
/// validated structurally and dropped). This is the read side used by the
/// post-run trace analyzer (common/trace_analysis.h).
Result<std::vector<TraceEvent>> ParseChromeTraceJson(std::string_view json);

/// Aggregates matched B/E pairs by span name, descending by total time.
std::vector<PhaseTotal> AggregateSpans(const std::vector<TraceEvent>& events);

namespace internal {
extern std::atomic<Tracer*> g_active_tracer;
extern thread_local Tracer* tls_tracer;
}  // namespace internal

/// The tracer spans write to, or nullptr (the common, fast case). A
/// thread-local override (ScopedThreadTracer) wins over the process-global
/// tracer: the harness gives every in-flight cell its own child tracer, so
/// `--trace-dir` under `--jobs N` still writes valid per-cell traces.
inline Tracer* ActiveTracer() {
  if (internal::tls_tracer != nullptr) return internal::tls_tracer;
  return internal::g_active_tracer.load(std::memory_order_acquire);
}

/// RAII installation of a process-global tracer; restores the previously
/// installed tracer (usually none) on destruction.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer* tracer)
      : previous_(internal::g_active_tracer.exchange(
            tracer, std::memory_order_acq_rel)) {}
  ~ScopedTracer() {
    internal::g_active_tracer.store(previous_, std::memory_order_release);
  }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

 private:
  Tracer* previous_;
};

/// RAII installation of a *thread-local* tracer override; restores the
/// previous override on destruction. Installing nullptr removes the
/// override (spans fall back to the process-global tracer). ThreadPool
/// propagates the submitter's effective tracer into pool workers, so a
/// cell's parallel work lands in the cell's own tracer.
class ScopedThreadTracer {
 public:
  explicit ScopedThreadTracer(Tracer* tracer)
      : previous_(internal::tls_tracer) {
    internal::tls_tracer = tracer;
  }
  ~ScopedThreadTracer() { internal::tls_tracer = previous_; }
  ScopedThreadTracer(const ScopedThreadTracer&) = delete;
  ScopedThreadTracer& operator=(const ScopedThreadTracer&) = delete;

 private:
  Tracer* previous_;
};

/// RAII span against the tracer active at construction (a tracer swapped
/// mid-span still receives this span's E, keeping B/E matched). With no
/// active tracer the span is inert: one atomic load, no allocation.
class TraceSpan {
 public:
  TraceSpan(std::string_view name, std::string_view category)
      : tracer_(ActiveTracer()) {
    if (tracer_ == nullptr) return;
    name_ = name;
    category_ = category;
    tracer_->Begin(name_, category_);
  }

  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(name_, category_, std::move(args_));
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an attribute, reported on the span's end event.
  void SetAttribute(std::string_view key, std::string value) {
    if (tracer_ != nullptr) args_.emplace_back(std::string(key),
                                               std::move(value));
  }
  void SetAttribute(std::string_view key, const char* value) {
    SetAttribute(key, std::string(value));
  }
  void SetAttribute(std::string_view key, uint64_t value) {
    SetAttribute(key, std::to_string(value));
  }

  bool enabled() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  std::string name_;
  std::string category_;
  std::vector<TraceArg> args_;
};

/// Emits an instant event on the active tracer (no-op when none).
inline void Instant(std::string_view name, std::string_view category,
                    std::vector<TraceArg> args = {}) {
  if (Tracer* tracer = ActiveTracer()) {
    tracer->Instant(name, category, std::move(args));
  }
}

}  // namespace gly::trace
