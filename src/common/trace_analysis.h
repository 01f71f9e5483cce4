// Post-run trace analytics (DESIGN.md §14): turns a span forest (the
// events a Tracer collected, or a trace.json read back from disk) into
// the three answers perf triage actually needs —
//
//   * the critical path: starting from a root span, repeatedly descend
//     into the longest child, charging each visited span its *self* time
//     (duration minus children). Children nest within their parent on one
//     thread, so the total is provably ≤ the root span's duration;
//   * per-worker (per-tid) busy/idle utilization over the trace window,
//     which shows whether `--jobs N` actually overlapped work;
//   * a top-K self-time table across all spans — the "where did the time
//     go" summary that pairs with the sampler's folded stacks.
//
// The result serializes as profile.json (schema v1, kind "gly.profile"),
// written next to trace.json and validated by scripts/validate_trace.py.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/trace.h"

namespace gly::trace {

/// One hop of the critical path, root first.
struct CriticalPathStep {
  std::string name;
  uint32_t tid = 0;
  double span_seconds = 0.0;  ///< full duration of this span
  double self_seconds = 0.0;  ///< duration minus children (what it's charged)
};

/// Busy/idle split for one virtual thread over the trace window.
struct WorkerUtilization {
  uint32_t tid = 0;
  double busy_seconds = 0.0;  ///< Σ top-level span durations on this tid
  double idle_seconds = 0.0;
  double utilization = 0.0;   ///< busy / window wall time
};

/// Aggregated self time for one span name.
struct SelfTimeEntry {
  std::string name;
  double self_seconds = 0.0;
  uint64_t count = 0;  ///< completed spans with this name
};

struct TraceAnalysis {
  double wall_seconds = 0.0;           ///< last event ts − first event ts
  double critical_path_seconds = 0.0;  ///< Σ self over the critical path
  std::string root;                    ///< name of the chosen root span
  size_t completed_spans = 0;
  std::vector<CriticalPathStep> critical_path;
  std::vector<WorkerUtilization> workers;
  std::vector<SelfTimeEntry> self_time;  ///< descending, truncated to top-K
};

struct AnalyzeOptions {
  size_t top_k = 10;  ///< self-time table size (0 = unbounded)
  /// Root span name for the critical path; the longest completed span with
  /// this name wins. Empty = the longest completed top-level span.
  std::string root;
};

/// Analyzes a raw event window. Ill-formed fragments (unmatched B/E) are
/// tolerated: only matched pairs contribute.
TraceAnalysis AnalyzeTrace(const std::vector<TraceEvent>& events,
                           const AnalyzeOptions& options = {});

/// Sampler provenance recorded in profile.json.
struct SamplerSummary {
  std::string mode = "off";  ///< "signal", "fake", "off"
  uint64_t interval_us = 0;
  uint64_t samples = 0;  ///< == Σ folded counts (validated)
  uint64_t dropped = 0;
};

/// Renders profile.json (schema v1, kind "gly.profile"). `folded_lines`
/// are "frame;frame count" lines from prof::FoldedProfile::ToLines().
std::string ProfileJson(const TraceAnalysis& analysis,
                        const SamplerSummary& sampler,
                        const std::vector<std::string>& folded_lines);

/// Parsed profile.json — the read side for tools/results_query,
/// tools/trace_analyze --reparse, and tests.
struct ProfileSummary {
  double wall_seconds = 0.0;
  double critical_path_seconds = 0.0;
  std::string root;
  size_t completed_spans = 0;
  std::vector<CriticalPathStep> critical_path;
  std::vector<WorkerUtilization> workers;
  std::vector<SelfTimeEntry> self_time;
  SamplerSummary sampler;
  std::vector<std::string> folded;
};

/// Reads profile.json through json::Parse, in any layout: kind must be
/// "gly.profile" and schema_version >= 1; unknown keys are ignored.
Result<ProfileSummary> ParseProfileJson(std::string_view json);

}  // namespace gly::trace
