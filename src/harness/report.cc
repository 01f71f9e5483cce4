#include "harness/report.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/csv.h"
#include "common/json.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace gly::harness {

namespace {

std::string CellKey(const BenchmarkResult& r) {
  return r.graph + "/" + r.platform;
}

// Field flags of the result schema below.
enum FieldFlag : unsigned {
  kRequired = 1,  ///< a journal line without it is malformed
  kVolatile = 2,  ///< timing or host dependent: golden tests mask it
  kCsvOnly = 4,   ///< results.csv only: not in the JSON line, never decoded
  kRate = 8,      ///< the JSON line keeps one decimal, not six
};

// The BenchmarkResult schema, in column order. WriteResultsCsv (header and
// rows), ResultToJson, DecodeResult and VolatileResultFields all walk this
// one list, so a new field is one line here. `visit(name, flags, member)`
// gets each member by reference, const when `r` is.
template <typename R, typename Visit>
void ForEachResultField(R& r, Visit&& visit) {
  visit("platform", kRequired, r.platform);
  visit("graph", kRequired, r.graph);
  visit("algorithm", kRequired, r.algorithm);
  visit("status", kRequired, r.status);
  visit("status_detail", kCsvOnly, r.status.message());
  visit("validation", kRequired, r.validation);
  visit("runtime_s", kVolatile, r.runtime_seconds);
  visit("load_s", kVolatile, r.load_seconds);
  visit("traversed_edges", 0, r.traversed_edges);
  visit("teps", kVolatile | kRate, r.teps);
  visit("output_checksum", 0, r.output_checksum);
  visit("attempts", 0, r.attempts);
  visit("timed_out", 0, r.timed_out);
  visit("cancelled", 0, r.cancelled);
  visit("stalled", 0, r.stalled);
  visit("cancel_reason", 0, r.cancel_reason);
  visit("cancel_join_s", kVolatile, r.cancel_join_seconds);
  visit("injected_faults", 0, r.injected_faults);
  visit("resumed", 0, r.resumed);
  visit("recoveries", 0, r.recoveries);
  visit("supersteps_replayed", 0, r.supersteps_replayed);
  visit("peak_rss_bytes", kVolatile, r.resources.peak_rss_bytes);
  visit("cpu_utilization", kVolatile | kCsvOnly, r.resources.cpu_utilization);
  visit("trace_spans", 0, r.trace_spans);
  visit("top_phases", 0, r.top_phases);
  visit("critical_path_s", kVolatile, r.critical_path_seconds);
}

// A text field's value: statuses are written as their code name only.
const std::string& Text(const std::string& v) { return v; }
std::string Text(AlgorithmKind v) { return AlgorithmKindName(v); }
std::string Text(const Status& v) {
  return std::string(StatusCodeToString(v.code()));
}

// One field as a CSV cell: CsvWriter escapes text and formats doubles, and
// booleans are 0/1.
template <typename T>
void CsvField(CsvWriter& csv, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    csv.Field(v);
  } else if constexpr (std::is_integral_v<T>) {
    csv.Field(uint64_t{v});
  } else {
    csv.Field(Text(v));
  }
}

// One field as a JSON value.
template <typename T>
std::string JsonValue(const T& v, unsigned flags) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    return StringPrintf((flags & kRate) != 0 ? "%.1f" : "%.6f", v);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    return '"' + JsonEscape(Text(v)) + '"';
  }
}

// Reads one field back. A missing optional key keeps the member's default,
// so journals written before a field existed still resume.
template <typename T>
Status DecodeField(const json::Value& doc, const char* key, bool required,
                   T* out) {
  GLY_ASSIGN_OR_RETURN(*out, required ? doc.Get<T>(key)
                                      : doc.GetOr<T>(key, *out));
  return Status::OK();
}
Status DecodeField(const json::Value& doc, const char* key, bool,
                   AlgorithmKind* out) {
  GLY_ASSIGN_OR_RETURN(std::string name, doc.Get<std::string>(key));
  GLY_ASSIGN_OR_RETURN(*out, ParseAlgorithmKind(name));
  return Status::OK();
}
// Status messages are not round-tripped: only the code name comes back.
Status DecodeField(const json::Value& doc, const char* key, bool,
                   Status* out) {
  GLY_ASSIGN_OR_RETURN(std::string name, doc.Get<std::string>(key));
  StatusCode code;
  if (!StatusCodeFromString(name, &code)) {
    return Status::InvalidArgument("unknown status code: " + name);
  }
  *out = code == StatusCode::kOk ? Status::OK() : Status(code, "from journal");
  return Status::OK();
}

Status DecodeResult(const json::Value& doc, BenchmarkResult* r) {
  Status status;
  ForEachResultField(*r, [&](const char* key, unsigned flags, auto& member) {
    // CSV-only fields are never read back (status_detail is even computed).
    using Member = std::remove_reference_t<decltype(member)>;
    if constexpr (!std::is_const_v<Member>) {
      if (status.ok() && (flags & kCsvOnly) == 0) {
        status = DecodeField(doc, key, (flags & kRequired) != 0, &member);
      }
    }
  });
  GLY_RETURN_NOT_OK(status);
  if (const json::Value* metrics = doc.Find("metrics")) {
    if (metrics->object() == nullptr) {
      return Status::InvalidArgument("key \"metrics\": expected an object");
    }
    for (const auto& [key, value] : *metrics->object()) {
      GLY_ASSIGN_OR_RETURN(r->platform_metrics[key], value.As<std::string>());
    }
  }
  return Status::OK();
}

}  // namespace

std::string RenderRuntimeTable(const std::vector<BenchmarkResult>& results) {
  // Column order: (graph, platform) as first seen; row order: algorithms as
  // first seen.
  std::vector<std::string> columns;
  std::vector<AlgorithmKind> rows;
  for (const BenchmarkResult& r : results) {
    std::string key = CellKey(r);
    if (std::find(columns.begin(), columns.end(), key) == columns.end()) {
      columns.push_back(key);
    }
    if (std::find(rows.begin(), rows.end(), r.algorithm) == rows.end()) {
      rows.push_back(r.algorithm);
    }
  }
  std::ostringstream out;
  out << StringPrintf("%-8s", "algo");
  for (const std::string& c : columns) {
    out << StringPrintf(" %22s", c.c_str());
  }
  out << '\n';
  for (AlgorithmKind algo : rows) {
    out << StringPrintf("%-8s", AlgorithmKindName(algo).c_str());
    for (const std::string& c : columns) {
      const BenchmarkResult* cell = nullptr;
      for (const BenchmarkResult& r : results) {
        if (r.algorithm == algo && CellKey(r) == c) {
          cell = &r;
          break;
        }
      }
      if (cell == nullptr) {
        out << StringPrintf(" %22s", "?");
      } else if (!cell->status.ok()) {
        // "Missing values indicate failures."
        out << StringPrintf(" %22s", "-");
      } else {
        out << StringPrintf(" %22s",
                            FormatSeconds(cell->runtime_seconds).c_str());
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string RenderTepsTable(const std::vector<BenchmarkResult>& results,
                            AlgorithmKind algorithm) {
  std::ostringstream out;
  out << StringPrintf("%-12s %-12s %14s %14s\n", "graph", "platform", "kTEPS",
                      "runtime");
  for (const BenchmarkResult& r : results) {
    if (r.algorithm != algorithm) continue;
    if (!r.status.ok()) {
      out << StringPrintf("%-12s %-12s %14s %14s\n", r.graph.c_str(),
                          r.platform.c_str(), "-", "-");
    } else {
      out << StringPrintf("%-12s %-12s %14.0f %14s\n", r.graph.c_str(),
                          r.platform.c_str(), r.teps / 1e3,
                          FormatSeconds(r.runtime_seconds).c_str());
    }
  }
  return out.str();
}

std::string RenderFullReport(const Config& configuration,
                             const std::vector<BenchmarkResult>& results) {
  std::ostringstream out;
  out << "==== Graphalytics benchmark report ====\n\n";
  out << "-- configuration --\n" << configuration.ToString() << '\n';
  out << "-- runtime matrix (algorithm x graph/platform) --\n";
  out << RenderRuntimeTable(results) << '\n';

  // Robustness summary: how many cells needed retries, timed out, or saw
  // injected faults (the paper's "missing values", made auditable).
  uint64_t failed_cells = 0;
  uint64_t retried_cells = 0;
  uint64_t timed_out_cells = 0;
  uint64_t cancelled_cells = 0;
  uint64_t stalled_cells = 0;
  uint64_t total_attempts = 0;
  uint64_t injected_faults = 0;
  uint64_t resumed_cells = 0;
  uint64_t recoveries = 0;
  uint64_t supersteps_replayed = 0;
  for (const BenchmarkResult& r : results) {
    if (!r.status.ok()) ++failed_cells;
    if (r.attempts > 1) ++retried_cells;
    if (r.timed_out) ++timed_out_cells;
    if (r.cancelled) ++cancelled_cells;
    if (r.stalled) ++stalled_cells;
    total_attempts += r.attempts;
    injected_faults += r.injected_faults;
    if (r.resumed) ++resumed_cells;
    recoveries += r.recoveries;
    supersteps_replayed += r.supersteps_replayed;
  }
  out << "-- robustness --\n";
  out << StringPrintf(
      "cells: %zu  failed: %llu  retried: %llu  timed out: %llu  "
      "attempts: %llu  injected faults: %llu\n",
      results.size(), (unsigned long long)failed_cells,
      (unsigned long long)retried_cells, (unsigned long long)timed_out_cells,
      (unsigned long long)total_attempts, (unsigned long long)injected_faults);
  out << StringPrintf(
      "cancelled: %llu  (stall watchdog: %llu)  "
      "resumed from journal: %llu  recovered from checkpoint: %llu  "
      "supersteps replayed: %llu\n\n",
      (unsigned long long)cancelled_cells, (unsigned long long)stalled_cells,
      (unsigned long long)resumed_cells, (unsigned long long)recoveries,
      (unsigned long long)supersteps_replayed);

  out << "-- details --\n";
  for (const BenchmarkResult& r : results) {
    out << StringPrintf("%s / %s / %s\n", r.platform.c_str(), r.graph.c_str(),
                        AlgorithmKindName(r.algorithm).c_str());
    out << "  status:      " << r.status.ToString() << '\n';
    if (r.attempts > 1 || r.timed_out || r.injected_faults > 0) {
      out << StringPrintf("  attempts:    %u%s\n", r.attempts,
                          r.timed_out ? "  (timed out)" : "");
      if (r.injected_faults > 0) {
        out << StringPrintf("  faults:      %llu injected\n",
                            (unsigned long long)r.injected_faults);
      }
    }
    if (r.cancelled) {
      out << StringPrintf("  cancelled:   %s  (joined in %.3fs)\n",
                          r.cancel_reason.c_str(), r.cancel_join_seconds);
    }
    if (r.resumed) out << "  resumed:     from journal (not re-executed)\n";
    if (r.recoveries > 0) {
      out << StringPrintf("  recoveries:  %llu  (supersteps replayed: %llu)\n",
                          (unsigned long long)r.recoveries,
                          (unsigned long long)r.supersteps_replayed);
    }
    if (r.status.ok()) {
      out << "  runtime:     " << FormatSeconds(r.runtime_seconds) << '\n';
      out << "  load (ETL):  " << FormatSeconds(r.load_seconds) << '\n';
      out << StringPrintf("  teps:        %.0f\n", r.teps);
      out << "  validation:  " << r.validation.ToString() << '\n';
      if (r.resources.samples > 0) {
        out << "  peak rss:    " << FormatBytes(r.resources.peak_rss_bytes)
            << StringPrintf("  (cpu util %.0f%%)\n",
                            r.resources.cpu_utilization * 100.0);
      }
      if (r.trace_spans > 0) {
        out << StringPrintf("  trace:       %llu spans",
                            (unsigned long long)r.trace_spans);
        if (!r.top_phases.empty()) out << "  top: " << r.top_phases;
        out << '\n';
      }
      if (r.critical_path_seconds > 0) {
        out << "  crit path:   " << FormatSeconds(r.critical_path_seconds)
            << '\n';
      }
      for (const auto& [k, v] : r.platform_metrics) {
        out << "  " << StringPrintf("%-12s %s\n", (k + ":").c_str(),
                                    v.c_str());
      }
    }
  }
  return out.str();
}

Status WriteResultsCsv(const std::vector<BenchmarkResult>& results,
                       const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open " + path);
  CsvWriter csv(&file);
  std::vector<std::string> header;
  const BenchmarkResult defaults;
  ForEachResultField(defaults, [&](const char* key, unsigned, const auto&) {
    header.push_back(key);
  });
  csv.WriteHeader(header);
  for (const BenchmarkResult& r : results) {
    // Free-form engine text (status_detail, cancel_reason, top_phases) is
    // escaped per RFC 4180; see the round-trip test in common_test.
    ForEachResultField(r, [&](const char*, unsigned, const auto& member) {
      CsvField(csv, member);
    });
    csv.EndRow();
  }
  file.flush();
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::string ResultToJson(const BenchmarkResult& result) {
  std::ostringstream out;
  out << '{';
  ForEachResultField(
      result, [&](const char* key, unsigned flags, const auto& member) {
        if ((flags & kCsvOnly) != 0) return;
        out << '"' << key << "\":" << JsonValue(member, flags) << ',';
      });
  out << "\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : result.platform_metrics) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(k) << "\":\"" << JsonEscape(v) << '"';
  }
  out << "}}";
  return out.str();
}

std::vector<std::string> VolatileResultFields() {
  std::vector<std::string> names;
  const BenchmarkResult defaults;
  ForEachResultField(defaults,
                     [&](const char* key, unsigned flags, const auto&) {
                       if ((flags & kVolatile) != 0) names.push_back(key);
                     });
  return names;
}

Result<BenchmarkResult> ResultFromJson(const std::string& line) {
  BenchmarkResult r;
  auto doc = json::Parse(line);
  Status s = doc.ok() ? DecodeResult(*doc, &r) : doc.status();
  if (!s.ok()) {
    return Status::InvalidArgument("malformed result record (" + s.message() +
                                   "): " + line);
  }
  return r;
}

Status AppendResultsDatabase(const std::vector<BenchmarkResult>& results,
                             const std::string& path) {
  std::ofstream file(path, std::ios::app);
  if (!file) return Status::IOError("cannot open " + path);
  for (const BenchmarkResult& r : results) {
    file << ResultToJson(r) << '\n';
  }
  file.flush();
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace gly::harness
