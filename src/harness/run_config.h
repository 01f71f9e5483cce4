// Config-driven benchmark execution — the paper's user workflow (§2.3):
// "Add graphs ... Configure the platform ... Choose the workload ... Run
// the benchmark. Graphalytics includes a Unix shell script that triggers
// the execution of the benchmark. After the execution completes, the
// benchmark report is available in the local file system."
//
// RunFromConfig is that workflow as a library call (the
// tools/graphalytics_run CLI is a thin wrapper). Every key a properties
// file may set is one row of ConfigSchema(); README.md's "Configuration
// keys" table lists each with its type, default and meaning, and
// `graphalytics_run --example` prints a starter file.

#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "harness/core.h"

namespace gly::harness {

/// The type of a configuration value. Unsigned values must fit their width;
/// a MiB value must also fit in bytes.
enum class KeyType { kString, kList, kEnum, kUint32, kUint64, kDouble, kBool, kMib };

/// One declared configuration key. In `name`, a `*` after `graph.` stands
/// for a dataset name, and a leading `*` for a registered platform.
struct KeySpec {
  std::string_view name;
  KeyType type;
  /// The default as written in a file, or nullptr when the code that
  /// consumes the value holds it.
  const char* def;
  /// kEnum: the allowed values, "a | b".
  std::string_view values;
};

/// Every key a run configuration may set.
std::span<const KeySpec> ConfigSchema();

/// Reads one scope of a configuration through ConfigSchema(). `scope` holds
/// the keys with `prefix` dropped: "" for a whole run configuration,
/// "giraph." for what `Config::Scoped("giraph")` returned; the reader keeps
/// a reference to it, so it must outlive the reader. Errors name keys as
/// written, prefix included.
class ConfigReader {
 public:
  ConfigReader(const Config& scope, std::string prefix)
      : scope_(scope), prefix_(std::move(prefix)) {}

  /// InvalidArgument unless every key is declared and its value parses as
  /// its row's type. An unknown key's error names the nearest declared key
  /// when it is at most two edits away.
  Status Check() const;

  /// Sets `*value` from `key`, or from its row's default when `key` is
  /// unset; with neither, leaves `*value` as it is. T is std::string (a
  /// string or enum row; an enum value reads in lower case),
  /// std::vector<std::string> (a list: its non-empty trimmed items), bool,
  /// double, uint32_t (a uint32 row) or uint64_t (a uint64 or MiB row; MiB
  /// reads as bytes).
  template <typename T>
  Status Get(std::string_view key, T* value) const;

 private:
  const Config& scope_;
  std::string prefix_;
};

/// Outcome of a config-driven run.
struct ConfigRunOutput {
  std::vector<BenchmarkResult> results;
  std::string report_text;     ///< full rendered report
  std::string report_dir;      ///< where files were written ("" if disabled)
  SchedulerStats scheduler;    ///< cell-scheduler summary (see RunSpec::jobs)
};

/// Executes the workflow described by `config`. Every key is checked
/// against ConfigSchema() before anything runs. Writes report.txt,
/// results.csv, and appends results.jsonl under `report.dir` when set.
/// `stop` (optional) is a harness-level stop token: arm it — e.g. from a
/// SIGINT handler; CancelToken::Cancel(reason) is async-signal-safe — and
/// the in-flight cell is cooperatively cancelled, remaining cells are
/// skipped, and the journal/report reflect what completed.
Result<ConfigRunOutput> RunFromConfig(const Config& config,
                                      const CancelToken* stop = nullptr);

}  // namespace gly::harness
