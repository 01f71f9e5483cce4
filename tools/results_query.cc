// results_query — CLI over the results database.
//
// The paper's design "includes a database for Results that is hosted by us
// online and accepts results submissions from Graphalytics users". Locally
// the harness appends one JSON object per benchmark cell to a JSONL file
// (see harness/report.h); this tool is the query side: filter by platform/
// graph/algorithm and print rows or aggregates.
//
//   $ results_query results_database.jsonl [--platform P] [--graph G]
//       [--algorithm A] [--failures] [--summary]
//   $ results_query --top-phases <profile.json> [--top K]
//   $ results_query --critical-path <profile.json>
//
// Rows are decoded by harness::ResultFromJson, the same reader --resume
// uses. The profile subcommands read the profile.json artifacts a
// `--profile` run writes next to trace.json.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/trace_analysis.h"
#include "harness/core.h"
#include "harness/report.h"

namespace {

using gly::harness::BenchmarkResult;

gly::Result<gly::trace::ProfileSummary> LoadProfile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return gly::Status::IOError("cannot open " + path);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return gly::trace::ParseProfileJson(json);
}

// `results_query --top-phases profile.json [--top K]`: the aggregated
// self-time table — where the run's wall clock actually went.
int TopPhases(const std::string& path, size_t top_k) {
  auto profile = LoadProfile(path);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  std::printf("%-32s %12s %8s %8s\n", "phase", "self (s)", "count",
              "% wall");
  size_t shown = 0;
  for (const auto& entry : profile->self_time) {
    if (top_k > 0 && shown >= top_k) break;
    double pct = profile->wall_seconds > 0.0
                     ? 100.0 * entry.self_seconds / profile->wall_seconds
                     : 0.0;
    std::printf("%-32s %12.4f %8llu %7.1f%%\n", entry.name.c_str(),
                entry.self_seconds, (unsigned long long)entry.count, pct);
    ++shown;
  }
  std::printf("(wall %.4f s, %zu completed spans, sampler %s: %llu samples"
              ", %llu dropped)\n",
              profile->wall_seconds, profile->completed_spans,
              profile->sampler.mode.c_str(),
              (unsigned long long)profile->sampler.samples,
              (unsigned long long)profile->sampler.dropped);
  return 0;
}

// `results_query --critical-path profile.json`: the longest dependency
// chain through the span forest, root first, with per-step self time.
int CriticalPath(const std::string& path) {
  auto profile = LoadProfile(path);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  std::printf("critical path from root \"%s\" — %.4f s of %.4f s wall\n",
              profile->root.c_str(), profile->critical_path_seconds,
              profile->wall_seconds);
  for (size_t i = 0; i < profile->critical_path.size(); ++i) {
    const auto& step = profile->critical_path[i];
    std::printf("%*s%-32s tid=%u span=%.4fs self=%.4fs\n",
                (int)(2 * i), "", step.name.c_str(), step.tid,
                step.span_seconds, step.self_seconds);
  }
  if (!profile->workers.empty()) {
    std::printf("workers:\n");
    for (const auto& w : profile->workers) {
      std::printf("  tid=%-4u busy=%.4fs idle=%.4fs util=%.0f%%\n", w.tid,
                  w.busy_seconds, w.idle_seconds, w.utilization * 100.0);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <results.jsonl> [--platform P] [--graph G] "
                 "[--algorithm A] [--failures] [--summary]\n"
                 "       %s --top-phases <profile.json> [--top K]\n"
                 "       %s --critical-path <profile.json>\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  if (std::string(argv[1]) == "--top-phases") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --top-phases <profile.json> [--top K]\n",
                   argv[0]);
      return 2;
    }
    size_t top_k = 0;  // 0 = all entries the profile kept
    if (argc >= 5 && std::string(argv[3]) == "--top") {
      top_k = static_cast<size_t>(std::strtoul(argv[4], nullptr, 10));
    }
    return TopPhases(argv[2], top_k);
  }
  if (std::string(argv[1]) == "--critical-path") {
    if (argc != 3) {
      std::fprintf(stderr, "usage: %s --critical-path <profile.json>\n",
                   argv[0]);
      return 2;
    }
    return CriticalPath(argv[2]);
  }
  std::string path = argv[1];
  std::string want_platform;
  std::string want_graph;
  std::string want_algorithm;
  bool failures_only = false;
  bool summary = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--platform") want_platform = next();
    else if (arg == "--graph") want_graph = next();
    else if (arg == "--algorithm") want_algorithm = next();
    else if (arg == "--failures") failures_only = true;
    else if (arg == "--summary") summary = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<BenchmarkResult> rows;
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    auto row = gly::harness::ResultFromJson(line);
    if (!row.ok()) {
      std::fprintf(stderr, "%s:%zu: skipped: %s\n", path.c_str(), line_no,
                   row.status().ToString().c_str());
      continue;
    }
    if (!want_platform.empty() && row->platform != want_platform) continue;
    if (!want_graph.empty() && row->graph != want_graph) continue;
    if (!want_algorithm.empty() &&
        gly::AlgorithmKindName(row->algorithm) != want_algorithm) {
      continue;
    }
    if (failures_only && gly::harness::FinishedCleanly(*row)) continue;
    rows.push_back(std::move(row).ValueOrDie());
  }

  if (summary) {
    // Aggregate mean runtime/teps per (platform, algorithm) over the cells
    // that finished cleanly.
    struct Agg {
      double runtime_sum = 0;
      double teps_sum = 0;
      int ok = 0;
      int failed = 0;
    };
    std::map<std::string, Agg> aggs;
    for (const BenchmarkResult& r : rows) {
      Agg& a = aggs[r.platform + "/" + gly::AlgorithmKindName(r.algorithm)];
      if (gly::harness::FinishedCleanly(r)) {
        a.runtime_sum += r.runtime_seconds;
        a.teps_sum += r.teps;
        ++a.ok;
      } else {
        ++a.failed;
      }
    }
    std::printf("%-24s %6s %6s %12s %12s\n", "platform/algorithm", "ok",
                "fail", "mean rt (s)", "mean kTEPS");
    for (const auto& [key, a] : aggs) {
      std::printf("%-24s %6d %6d %12.3f %12.0f\n", key.c_str(), a.ok,
                  a.failed, a.ok > 0 ? a.runtime_sum / a.ok : 0.0,
                  a.ok > 0 ? a.teps_sum / a.ok / 1e3 : 0.0);
    }
    return 0;
  }

  std::printf("%-12s %-12s %-8s %-10s %-18s %12s %12s\n", "platform",
              "graph", "algo", "status", "validation", "runtime (s)",
              "kTEPS");
  for (const BenchmarkResult& r : rows) {
    std::string status(gly::StatusCodeToString(r.status.code()));
    std::string validation(gly::StatusCodeToString(r.validation.code()));
    std::printf("%-12s %-12s %-8s %-10s %-18s %12.3f %12.0f\n",
                r.platform.c_str(), r.graph.c_str(),
                gly::AlgorithmKindName(r.algorithm).c_str(), status.c_str(),
                validation.c_str(), r.runtime_seconds, r.teps / 1e3);
  }
  std::printf("(%zu rows)\n", rows.size());
  return 0;
}
