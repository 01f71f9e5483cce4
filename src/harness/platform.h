// Platform: the harness-facing interface every graph-processing platform
// implements ("Platform-specific algorithm implementation" in Figure 2).
//
// The paper: "adding a new platform to Graphalytics consists of
// implementing the algorithms, adding a dataset loading method, providing a
// workload processing interface, and logging the information required for
// results reporting" — which maps onto LoadGraph / Run / LastRunMetrics().

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "ref/algorithms.h"

namespace gly::harness {

/// A loaded-and-runnable graph-processing platform instance.
class Platform {
 public:
  virtual ~Platform() = default;

  /// Dataset loading (ETL). Untimed by the harness: "The runtime measures
  /// the complete execution of an algorithm, from job submission to result
  /// availability, but does not include ETL."
  virtual Status LoadGraph(const Graph& graph, const std::string& graph_name) = 0;

  /// Runs one algorithm on the loaded graph (timed by the harness).
  virtual Result<AlgorithmOutput> Run(AlgorithmKind kind,
                                      const AlgorithmParams& params) = 0;

  /// Releases the loaded graph.
  virtual void UnloadGraph() = 0;

  /// Installs (or clears, with nullptr) a cancellation token observed by
  /// work *outside* Run — today the dataset-loading path (LoadGraph), whose
  /// signature carries no AlgorithmParams. Run itself is cancelled through
  /// AlgorithmParams::cancel. Default: ignored (platform loads are cheap
  /// in-memory pointer swaps except the graph database's bulk import).
  virtual void SetCancelToken(const CancelToken* /*cancel*/) {}

  /// Free-form metrics of the last successful Run for the report
  /// (messages, supersteps, spills...). A failed Run leaves them as they
  /// were, so the harness reads them only after a Run that returned OK.
  const std::map<std::string, std::string>& LastRunMetrics() const {
    return metrics_;
  }

 protected:
  std::map<std::string, std::string> metrics_;
};

/// Names of all registered platforms.
std::vector<std::string> RegisteredPlatforms();

/// Instantiates a platform by name.
///
/// Common config keys (all optional; a set one must parse and fit, or
/// InvalidArgument names it as `<name>.<key>`):
///   memory_budget_mb  — per-platform memory budget (0 = unlimited)
///   workers           — logical workers / partitions
///   threads           — executor threads
/// Platform-specific keys are documented in platforms.cc.
Result<std::unique_ptr<Platform>> MakePlatform(const std::string& name,
                                               const Config& config);

}  // namespace gly::harness
