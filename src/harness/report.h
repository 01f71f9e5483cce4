// ReportGenerator — Figure 2's "Report Generator": "produces the main
// outcome of Graphalytics, a detailed report on the performance of the SUT
// during the benchmark, which includes all relevant configuration
// information." Plus the results database ("a database for Results ...
// accepts results submissions"), realized as an append-only JSONL file.

#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "harness/core.h"

namespace gly::harness {

/// Renders the Figure-4-style runtime matrix as a fixed-width text table:
/// rows = algorithms, columns = (graph, platform), failed cells marked "-".
std::string RenderRuntimeTable(const std::vector<BenchmarkResult>& results);

/// Renders a TEPS table for one algorithm (the Figure 5 shape).
std::string RenderTepsTable(const std::vector<BenchmarkResult>& results,
                            AlgorithmKind algorithm);

/// Full human-readable report: configuration echo, runtime matrix, per-cell
/// details (validation, resources, platform metrics).
std::string RenderFullReport(const Config& configuration,
                             const std::vector<BenchmarkResult>& results);

/// Writes results as CSV (one row per cell).
Status WriteResultsCsv(const std::vector<BenchmarkResult>& results,
                       const std::string& path);

/// Appends results to the JSONL results database.
Status AppendResultsDatabase(const std::vector<BenchmarkResult>& results,
                             const std::string& path);

/// Serializes one result as a single-line JSON object.
std::string ResultToJson(const BenchmarkResult& result);

/// Parses a journal/database line written by ResultToJson back into a
/// BenchmarkResult (status and validation carry only the code; messages
/// are not round-tripped). Returns an error unless the line is one
/// complete JSON object (so a torn line never parses) with the platform,
/// graph, algorithm, status and validation keys; every other key is
/// optional, so journals from before a field existed still resume.
Result<BenchmarkResult> ResultFromJson(const std::string& line);

/// Names of the CSV columns and JSON keys whose values depend on timing or
/// the host (runtime_s, teps, peak_rss_bytes, ...), in column order.
std::vector<std::string> VolatileResultFields();

}  // namespace gly::harness
