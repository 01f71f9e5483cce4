// CellScheduler — concurrent execution of benchmark matrix cells.
//
// The LDBC Graphalytics harness automates a many-cell (platform × dataset ×
// algorithm) matrix; running those cells strictly serially leaves cores
// idle whenever a cell is I/O-bound or small. The scheduler runs up to
// `jobs` cells in flight while keeping every guarantee the serial loop
// gave (see DESIGN.md §12):
//
//  * Items (cells) are grouped: a *group* is one shared graph load — the
//    per-(platform, dataset) ETL. The group's load runs once, is
//    reference-counted across its items, and is retired (graph unloaded)
//    when the last item finishes, so cells on the same dataset reuse one
//    loaded graph instead of re-running ETL ("graph cache").
//  * Items of one group are mutually exclusive (Platform::Run is stateful),
//    so concurrency comes from distinct (platform, dataset) groups.
//  * Admission control: a group is admitted only when its estimated
//    footprint fits the remaining MemoryBudget. Oversubscribed groups
//    *queue* rather than OOM; a group bigger than the whole budget runs
//    alone once everything else has drained, so no cell ever starves.
//  * Items are claimed in registration order; a later item is only taken
//    early when every earlier one is blocked (group busy or budget), which
//    keeps jobs=1 exactly the serial execution order.
//  * A harness-level stop token skips all unclaimed items but still
//    retires every loaded group.
//
// Observability: `harness.sched.{admitted,queued,graph_cache_hits}`
// counters on the active metrics registry, plus a real `harness.sched.wait`
// span whenever a worker has to wait for admission (attributed to the item
// it ends up claiming).
//
// The scheduler itself is deliberately ignorant of benchmarks: it schedules
// opaque group/item ids against callbacks, which is what makes the
// admission logic unit-testable without running an engine.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_budget.h"

namespace gly::harness {

/// Aggregate outcome of one scheduler run — the launcher's per-run summary
/// and the speedup test's evidence that concurrency actually happened.
struct SchedulerStats {
  uint32_t jobs = 1;             ///< configured max cells in flight
  uint64_t items = 0;            ///< schedulable cells (resumed excluded)
  uint64_t groups = 0;           ///< distinct (platform, dataset) loads
  uint64_t admitted = 0;         ///< group loads executed (ETL admissions)
  uint64_t graph_cache_hits = 0; ///< items that reused an already-loaded group
  uint64_t queued = 0;           ///< items that waited before starting
  uint64_t budget_deferrals = 0; ///< admission scans deferred on the budget
  uint64_t skipped = 0;          ///< items never started (harness stop)
  uint32_t max_in_flight = 0;    ///< peak concurrently running items
  double wall_seconds = 0.0;     ///< scheduler wall clock
};

/// Renders the stats as one summary line ("jobs=4 cells=12 ...").
std::string SchedulerSummary(const SchedulerStats& stats);

class CellScheduler {
 public:
  struct Options {
    uint32_t jobs = 1;                 ///< max items in flight (>= 1)
    uint64_t memory_budget_bytes = 0;  ///< admission budget (0 = unlimited)
    /// Optional harness stop: unclaimed items are skipped once it fires
    /// (in-flight items finish under their own cancellation machinery).
    const CancelToken* stop = nullptr;
  };

  using GroupFn = std::function<void(size_t group)>;
  using ItemFn = std::function<void(size_t item)>;

  explicit CellScheduler(const Options& options);

  /// Registers a group (one shared graph load) with its estimated resident
  /// footprint; returns its id. Estimates of 0 are admitted for free.
  size_t AddGroup(uint64_t estimate_bytes);

  /// Registers an item in `group`. Registration order is execution
  /// priority: with jobs=1 items run in exactly this order. `label` names
  /// the item in wait spans ("platform/graph/ALGO").
  size_t AddItem(size_t group, std::string label = "");

  /// Runs every item to completion (or skips it on stop) and returns the
  /// stats. `load(group)` runs once per admitted group before its first
  /// item; `run(item)` once per item, group-exclusively, on a worker
  /// thread; `retire(group)` once per loaded group after its last item
  /// finished or was skipped. Run() may be called once.
  SchedulerStats Run(const GroupFn& load, const ItemFn& run,
                     const GroupFn& retire);

 private:
  struct Group {
    uint64_t estimate = 0;
    size_t pending = 0;   ///< registered items not yet finished/skipped
    bool loaded = false;  ///< load() ran (or is running right now)
    bool busy = false;    ///< a worker is loading/running on it
    bool charged = false; ///< holds a budget charge until retire
    bool bypass = false;  ///< admitted oversized against an empty budget
  };
  struct Item {
    size_t group = 0;
    std::string label;
    bool claimed = false;
    bool deferred = false;  ///< was scanned and passed over at least once
  };

  bool Fits(uint64_t estimate) const;
  size_t FindAdmissible();
  bool Claim(size_t item);
  std::vector<size_t> SweepOnStop();

  Options options_;
  MemoryBudget budget_;
  std::vector<Group> groups_;
  std::vector<Item> items_;

  // State of the one Run(), guarded by mu_.
  std::mutex mu_;
  std::condition_variable cv_;
  SchedulerStats stats_;
  size_t done_items_ = 0;       ///< finished or skipped
  uint32_t in_flight_ = 0;      ///< claimed items currently loading/running
  size_t active_groups_ = 0;    ///< loaded-not-retired groups
  bool bypass_active_ = false;  ///< an oversized group is running alone
  bool stop_swept_ = false;     ///< unclaimed items already skipped on stop
};

}  // namespace gly::harness
