// trace_analyze — post-run trace analytics (DESIGN.md §14).
//
// Reads a Chrome-tracing trace.json the harness exported, rebuilds the
// span forest, and computes the critical path, per-worker utilization,
// and the top-K self-time table. Output is profile.json (schema v1) on
// stdout or to a file, or a human-readable summary:
//
//   $ trace_analyze report/trace/trace.json                 # human summary
//   $ trace_analyze report/trace/trace.json --json          # profile.json
//   $ trace_analyze report/trace/trace.json --out profile.json
//   $ trace_analyze report/trace/trace-giraph-g500-BFS.json --root harness.cell
//   $ trace_analyze report/trace/trace.json --top-k 5
//
// This is the offline twin of what a `--profile` run computes inline: the
// same AnalyzeTrace pass, applicable to any trace.json you still have even
// if the run itself was not profiled.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/trace_analysis.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> [--root NAME] [--top-k K] "
               "[--json] [--out <profile.json>]\n"
               "  --root NAME  critical-path root span name (default: the\n"
               "               longest top-level span)\n"
               "  --top-k K    self-time table size (default 10, 0 = all)\n"
               "  --json       print profile.json instead of the summary\n"
               "  --out FILE   write profile.json to FILE (implies summary\n"
               "               on stdout)\n",
               argv0);
}

void PrintSummary(const gly::trace::TraceAnalysis& analysis) {
  std::printf("wall:           %.4f s over %zu completed spans\n",
              analysis.wall_seconds, analysis.completed_spans);
  std::printf("critical path:  %.4f s from root \"%s\"\n",
              analysis.critical_path_seconds, analysis.root.c_str());
  for (size_t i = 0; i < analysis.critical_path.size(); ++i) {
    const auto& step = analysis.critical_path[i];
    std::printf("  %*s%-32s tid=%u span=%.4fs self=%.4fs\n", (int)(2 * i),
                "", step.name.c_str(), step.tid, step.span_seconds,
                step.self_seconds);
  }
  if (!analysis.workers.empty()) {
    std::printf("workers:\n");
    for (const auto& w : analysis.workers) {
      std::printf("  tid=%-4u busy=%.4fs idle=%.4fs util=%.0f%%\n", w.tid,
                  w.busy_seconds, w.idle_seconds, w.utilization * 100.0);
    }
  }
  if (!analysis.self_time.empty()) {
    std::printf("top self time:\n");
    for (const auto& entry : analysis.self_time) {
      std::printf("  %-32s %12.4f s  x%llu\n", entry.name.c_str(),
                  entry.self_seconds, (unsigned long long)entry.count);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  const char* out_path = nullptr;
  bool emit_json = false;
  gly::trace::AnalyzeOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      options.root = argv[++i];
    } else if (std::strcmp(argv[i], "--top-k") == 0 && i + 1 < argc) {
      options.top_k = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      emit_json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (trace_path == nullptr && argv[i][0] != '-') {
      trace_path = argv[i];
    } else {
      PrintUsage(argv[0]);
      return 2;
    }
  }
  if (trace_path == nullptr) {
    PrintUsage(argv[0]);
    return 2;
  }

  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", trace_path);
    return 1;
  }
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto events = gly::trace::ParseChromeTraceJson(json);
  if (!events.ok()) {
    std::fprintf(stderr, "%s: %s\n", trace_path,
                 events.status().ToString().c_str());
    return 1;
  }

  gly::trace::TraceAnalysis analysis =
      gly::trace::AnalyzeTrace(*events, options);
  // An offline analysis has no sampler; profile.json records mode "off".
  std::string profile_json =
      gly::trace::ProfileJson(analysis, gly::trace::SamplerSummary{}, {});

  if (out_path != nullptr) {
    std::ofstream out(out_path);
    out << profile_json;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
  }
  if (emit_json && out_path == nullptr) {
    std::fputs(profile_json.c_str(), stdout);
  } else {
    PrintSummary(analysis);
    if (out_path != nullptr) std::printf("wrote %s\n", out_path);
  }
  return 0;
}
