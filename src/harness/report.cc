#include "harness/report.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "common/csv.h"
#include "common/json.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace gly::harness {

namespace {

std::string CellKey(const BenchmarkResult& r) {
  return r.graph + "/" + r.platform;
}

// A journal status field: the code name ResultToJson wrote (messages are
// not round-tripped).
Status StatusFromJson(const json::Value& doc, std::string_view key,
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
  GLY_ASSIGN_OR_RETURN(r->platform, doc.Get<std::string>("platform"));
  GLY_ASSIGN_OR_RETURN(r->graph, doc.Get<std::string>("graph"));
  GLY_ASSIGN_OR_RETURN(std::string algorithm,
                       doc.Get<std::string>("algorithm"));
  GLY_ASSIGN_OR_RETURN(r->algorithm, ParseAlgorithmKind(algorithm));
  GLY_RETURN_NOT_OK(StatusFromJson(doc, "status", &r->status));
  GLY_RETURN_NOT_OK(StatusFromJson(doc, "validation", &r->validation));
  // Everything else is optional: journals written before the output
  // checksum, cancellation and tracing fields existed must still resume.
  GLY_ASSIGN_OR_RETURN(r->runtime_seconds, doc.GetOr("runtime_s", 0.0));
  GLY_ASSIGN_OR_RETURN(r->load_seconds, doc.GetOr("load_s", 0.0));
  GLY_ASSIGN_OR_RETURN(r->traversed_edges,
                       doc.GetOr<uint64_t>("traversed_edges", 0));
  GLY_ASSIGN_OR_RETURN(r->teps, doc.GetOr("teps", 0.0));
  GLY_ASSIGN_OR_RETURN(r->output_checksum,
                       doc.GetOr<uint32_t>("output_checksum", 0));
  GLY_ASSIGN_OR_RETURN(r->attempts, doc.GetOr<uint32_t>("attempts", 0));
  GLY_ASSIGN_OR_RETURN(r->timed_out, doc.GetOr("timed_out", false));
  GLY_ASSIGN_OR_RETURN(r->cancelled, doc.GetOr("cancelled", false));
  GLY_ASSIGN_OR_RETURN(r->stalled, doc.GetOr("stalled", false));
  GLY_ASSIGN_OR_RETURN(r->cancel_reason,
                       doc.GetOr<std::string>("cancel_reason", ""));
  GLY_ASSIGN_OR_RETURN(r->cancel_join_seconds, doc.GetOr("cancel_join_s", 0.0));
  GLY_ASSIGN_OR_RETURN(r->injected_faults,
                       doc.GetOr<uint64_t>("injected_faults", 0));
  GLY_ASSIGN_OR_RETURN(r->resumed, doc.GetOr("resumed", false));
  GLY_ASSIGN_OR_RETURN(r->recoveries, doc.GetOr<uint64_t>("recoveries", 0));
  GLY_ASSIGN_OR_RETURN(r->supersteps_replayed,
                       doc.GetOr<uint64_t>("supersteps_replayed", 0));
  GLY_ASSIGN_OR_RETURN(r->resources.peak_rss_bytes,
                       doc.GetOr<uint64_t>("peak_rss_bytes", 0));
  GLY_ASSIGN_OR_RETURN(r->trace_spans, doc.GetOr<uint64_t>("trace_spans", 0));
  GLY_ASSIGN_OR_RETURN(r->top_phases, doc.GetOr<std::string>("top_phases", ""));
  GLY_ASSIGN_OR_RETURN(r->critical_path_seconds,
                       doc.GetOr("critical_path_s", 0.0));
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
  csv.WriteHeader({"platform", "graph", "algorithm", "status",
                   "status_detail", "validation", "runtime_s", "load_s",
                   "traversed_edges", "teps", "output_checksum",
                   "attempts", "timed_out", "cancelled", "stalled",
                   "cancel_reason", "cancel_join_s", "injected_faults",
                   "resumed", "recoveries", "supersteps_replayed",
                   "peak_rss_bytes", "cpu_utilization", "trace_spans",
                   "top_phases", "critical_path_s"});
  for (const BenchmarkResult& r : results) {
    // status_detail (and cancel_reason / top_phases below) carry free-form
    // engine text — commas, quotes, newlines — which CsvWriter::Field
    // escapes per RFC 4180; see the round-trip test in common_test.
    csv.Field(r.platform)
        .Field(r.graph)
        .Field(AlgorithmKindName(r.algorithm))
        .Field(std::string(StatusCodeToString(r.status.code())))
        .Field(r.status.message())
        .Field(std::string(StatusCodeToString(r.validation.code())))
        .Field(r.runtime_seconds)
        .Field(r.load_seconds)
        .Field(r.traversed_edges)
        .Field(r.teps)
        .Field(static_cast<uint64_t>(r.output_checksum))
        .Field(static_cast<uint64_t>(r.attempts))
        .Field(static_cast<uint64_t>(r.timed_out ? 1 : 0))
        .Field(static_cast<uint64_t>(r.cancelled ? 1 : 0))
        .Field(static_cast<uint64_t>(r.stalled ? 1 : 0))
        .Field(r.cancel_reason)
        .Field(r.cancel_join_seconds)
        .Field(r.injected_faults)
        .Field(static_cast<uint64_t>(r.resumed ? 1 : 0))
        .Field(r.recoveries)
        .Field(r.supersteps_replayed)
        .Field(r.resources.peak_rss_bytes)
        .Field(r.resources.cpu_utilization)
        .Field(r.trace_spans)
        .Field(r.top_phases)
        .Field(r.critical_path_seconds);
    csv.EndRow();
  }
  file.flush();
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::string ResultToJson(const BenchmarkResult& result) {
  std::ostringstream out;
  out << '{'
      << "\"platform\":\"" << JsonEscape(result.platform) << "\","
      << "\"graph\":\"" << JsonEscape(result.graph) << "\","
      << "\"algorithm\":\"" << AlgorithmKindName(result.algorithm) << "\","
      << "\"status\":\"" << StatusCodeToString(result.status.code()) << "\","
      << "\"validation\":\"" << StatusCodeToString(result.validation.code())
      << "\","
      << StringPrintf("\"runtime_s\":%.6f,", result.runtime_seconds)
      << StringPrintf("\"load_s\":%.6f,", result.load_seconds)
      << "\"traversed_edges\":" << result.traversed_edges << ','
      << StringPrintf("\"teps\":%.1f,", result.teps)
      << "\"output_checksum\":" << result.output_checksum << ','
      << "\"attempts\":" << result.attempts << ','
      << "\"timed_out\":" << (result.timed_out ? "true" : "false") << ','
      << "\"cancelled\":" << (result.cancelled ? "true" : "false") << ','
      << "\"stalled\":" << (result.stalled ? "true" : "false") << ','
      << "\"cancel_reason\":\"" << JsonEscape(result.cancel_reason)
      << "\","
      << StringPrintf("\"cancel_join_s\":%.6f,",
                      result.cancel_join_seconds)
      << "\"injected_faults\":" << result.injected_faults << ','
      << "\"resumed\":" << (result.resumed ? "true" : "false") << ','
      << "\"recoveries\":" << result.recoveries << ','
      << "\"supersteps_replayed\":" << result.supersteps_replayed << ','
      << "\"peak_rss_bytes\":" << result.resources.peak_rss_bytes << ','
      << "\"trace_spans\":" << result.trace_spans << ','
      << "\"top_phases\":\"" << JsonEscape(result.top_phases) << "\","
      << StringPrintf("\"critical_path_s\":%.6f,",
                      result.critical_path_seconds)
      << "\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : result.platform_metrics) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(k) << "\":\"" << JsonEscape(v) << '"';
  }
  out << "}}";
  return out.str();
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
                             const Config& configuration,
                             const std::string& path) {
  std::ofstream file(path, std::ios::app);
  if (!file) return Status::IOError("cannot open " + path);
  for (const BenchmarkResult& r : results) {
    file << ResultToJson(r) << '\n';
  }
  (void)configuration;
  file.flush();
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace gly::harness
