// Process-wide metrics registry — the counting half of the observability
// layer (trace.h holds the timeline half). Engines increment named
// counters (`pregel.messages_sent`) and set gauges; the harness snapshots
// the registry per run and exports it as schema-versioned `metrics.jsonl`
// (v1, like bench_util.h's bench JSON).
//
// Hot-path cost: a Counter::Add is one relaxed atomic fetch_add on a
// pointer obtained once; with no registry installed the inline helpers
// (AddCounter/SetGauge) are a single relaxed atomic load.
// Activation follows the same scoped-global pattern as trace.h and
// fault_injection.h: install with ScopedRegistry, and instrumented code
// needs no plumbing.
//
// Naming convention (see DESIGN.md §10): dotted lowercase
// `<component>.<subsystem>.<metric>`, e.g. `dataflow.shuffle_bytes`.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace gly::metrics {

/// Monotonic counter. Add() is lock-free; safe from any thread.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins gauge for point-in-time values (queue depth, rss).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// One metric in a registry snapshot.
struct MetricValue {
  enum class Type { kCounter, kGauge };
  Type type = Type::kCounter;
  uint64_t counter = 0;
  double gauge = 0.0;
};

/// Named metric registry. Get* return stable pointers (the registry owns
/// the metrics and never removes them), so callers may cache them across
/// the registry's lifetime. All methods are thread-safe.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create-on-first-use lookups. Names are expected to be unique across
  /// metric types; reusing one name for two types makes the snapshot keep
  /// only one of them (the counter).
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);

  /// Current values of every metric, keyed by name (sorted — map).
  std::map<std::string, MetricValue> Snapshot() const;

  /// Serializes Snapshot() as metrics.jsonl: a schema header line
  /// `{"schema_version":1,"kind":"gly.metrics"}` followed by one line per
  /// metric in name order. See DESIGN.md §10 for the line schema.
  std::string ToJsonl() const;

  /// Parses a ToJsonl() document back into a snapshot (for the round-trip
  /// test and for external tools). Each line goes through json::Parse.
  /// The header must have kind "gly.metrics" and an integer
  /// schema_version >= 1; unknown keys are ignored, and an unknown metric
  /// type is an error under version 1 and skipped under later versions.
  static Result<std::map<std::string, MetricValue>> FromJsonl(
      std::string_view text);

  /// Writes ToJsonl() to `path`.
  Status WriteTo(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

namespace internal {
extern std::atomic<Registry*> g_active_registry;
}  // namespace internal

/// The registry the inline helpers write to, or nullptr.
inline Registry* ActiveRegistry() {
  return internal::g_active_registry.load(std::memory_order_acquire);
}

/// RAII installation of a process-global registry (mirrors ScopedTracer).
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry* registry)
      : previous_(internal::g_active_registry.exchange(
            registry, std::memory_order_acq_rel)) {}
  ~ScopedRegistry() {
    internal::g_active_registry.store(previous_, std::memory_order_release);
  }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* previous_;
};

/// Increments `name` on the active registry; no-op when none installed.
inline void AddCounter(std::string_view name, uint64_t delta = 1) {
  if (Registry* r = ActiveRegistry()) r->GetCounter(name)->Add(delta);
}

/// Sets gauge `name` on the active registry; no-op when none installed.
inline void SetGauge(std::string_view name, double value) {
  if (Registry* r = ActiveRegistry()) r->GetGauge(name)->Set(value);
}

}  // namespace gly::metrics
