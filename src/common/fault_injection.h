// Deterministic fault injection for robustness testing.
//
// The paper reports benchmark cells that simply fail ("Missing values
// indicate failures"), but a harness can only be trusted to *record* such
// failures if its failure paths are exercised. This subsystem lets tests
// inject worker crashes, message drops, execution stalls, and transient
// I/O errors at named sites inside the platform engines, deterministically:
// a FaultPlan is seeded, and the decision for the i-th hit of a site is a
// pure function of (seed, site, i), so the same plan produces the same
// fault schedule regardless of thread interleaving.
//
// Engines mark instrumentation sites with GLY_FAULT_POINT("engine.site")
// (error-returning sites) or GLY_FAULT_DROP("engine.site") (message-loss
// query sites). With no plan installed a site is one relaxed atomic load.
//
// Activation is process-global and scoped:
//
//   fault::FaultPlan plan(/*seed=*/42);
//   plan.Add({.site = "pregel.*", .kind = fault::FaultKind::kCrash,
//             .probability = 0.5});
//   {
//     fault::ScopedFaultPlan active(&plan);
//     ... code under test; fault points consult `plan` ...
//   }  // previous plan (usually none) restored

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace gly::fault {

/// What an injected fault does at the site where it triggers.
enum class FaultKind {
  kCrash,    ///< the site fails with Internal ("worker crash")
  kIOError,  ///< the site fails with IOError ("transient I/O error")
  kDelay,    ///< the site sleeps `delay_seconds`, then succeeds
  kStall,    ///< kDelay semantics; names a slow-worker / hung-job scenario
  kDrop,     ///< GLY_FAULT_DROP sites report the message as lost
};

/// One injection rule. Rules are matched in the order they were added; the
/// first rule that matches the site *and* decides to trigger wins.
struct FaultSpec {
  /// Site to fault: an exact name ("pregel.superstep.barrier") or a prefix
  /// pattern with a trailing '*' ("pregel.*", "*" = every site).
  std::string site;
  FaultKind kind = FaultKind::kCrash;
  /// Per-hit trigger probability, drawn deterministically from the plan
  /// seed and the site's hit index.
  double probability = 1.0;
  /// Leave the first N matching hits untouched (fault "later in the run").
  uint32_t skip_hits = 0;
  /// Trigger at most this many times across the plan's lifetime (0 = no
  /// limit). max_triggers = 1 models a transient fault a retry outlives.
  uint32_t max_triggers = 0;
  /// Sleep duration for kDelay / kStall.
  double delay_seconds = 0.0;
};

/// Per-site accounting: how often the site was reached and how often a
/// fault actually triggered there.
struct SiteStats {
  uint64_t hits = 0;
  uint64_t triggered = 0;
};

/// A seeded, scoped schedule of injected faults. Thread-safe after
/// installation; Add() must not race with active fault points.
class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed) : seed_(seed) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  uint64_t seed() const { return seed_; }

  void Add(FaultSpec spec);

  /// Called by GLY_FAULT_POINT: records the hit and returns the injected
  /// error (kCrash / kIOError), sleeps and returns OK (kDelay / kStall),
  /// or returns OK when no rule triggers. kDrop rules are ignored here.
  Status OnPoint(const std::string& site);

  /// Called by GLY_FAULT_DROP: records the hit and returns true when a
  /// kDrop rule triggers (the caller discards the message).
  bool OnDropPoint(const std::string& site);

  /// -------- accounting ----------------------------------------------------

  uint64_t HitCount(const std::string& site) const;
  uint64_t TriggeredCount(const std::string& site) const;
  /// Total faults triggered across all sites (harness cells diff this to
  /// attribute injections to a run).
  uint64_t TotalTriggered() const;
  std::map<std::string, SiteStats> Snapshot() const;

  /// Pure preview: the hit indexes in [0, num_hits) at which this plan
  /// would trigger a fault at `site`, assuming no hits at other sites
  /// compete for shared max_triggers quotas. Deterministic in (seed, site)
  /// — the FaultPlan determinism contract tests assert on this.
  std::vector<uint32_t> TriggerSchedule(const std::string& site,
                                        uint32_t num_hits) const;

 private:
  struct Rule {
    FaultSpec spec;
    std::atomic<uint32_t> triggers{0};
  };

  /// Deterministic per-hit trigger decision for one rule.
  bool Decides(const Rule& rule, const std::string& site,
               uint64_t hit_index) const;
  /// Returns the rule that fires for this hit (accounting for skip_hits,
  /// max_triggers, probability), or nullptr. Consumes quota on match.
  Rule* FireAt(const std::string& site, uint64_t hit_index, bool drop_sites);
  uint64_t NextHitIndex(const std::string& site);

  const uint64_t seed_;
  std::vector<std::unique_ptr<Rule>> rules_;
  mutable std::mutex mu_;
  std::map<std::string, SiteStats> stats_;
  std::atomic<uint64_t> total_triggered_{0};
};

namespace internal {
extern std::atomic<FaultPlan*> g_active_plan;
}  // namespace internal

/// The plan fault points consult, or nullptr (the common, fast case).
inline FaultPlan* ActivePlan() {
  return internal::g_active_plan.load(std::memory_order_acquire);
}

/// RAII installation of a plan as the process-global active plan; restores
/// the previously installed plan (usually none) on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan* plan)
      : previous_(internal::g_active_plan.exchange(
            plan, std::memory_order_acq_rel)) {}
  ~ScopedFaultPlan() {
    internal::g_active_plan.store(previous_, std::memory_order_release);
  }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  FaultPlan* previous_;
};

/// Function forms behind the macros (usable directly where a macro's
/// early-return does not fit, e.g. inside void worker lambdas).
inline Status CheckPoint(const char* site) {
  FaultPlan* plan = ActivePlan();
  return plan == nullptr ? Status::OK() : plan->OnPoint(site);
}

inline bool ShouldDrop(const char* site) {
  FaultPlan* plan = ActivePlan();
  return plan != nullptr && plan->OnDropPoint(site);
}

}  // namespace gly::fault

/// Marks an error-returning fault site: if the active plan injects a fault
/// here, the enclosing function returns the injected Status (works in
/// functions returning Status or Result<T>).
#define GLY_FAULT_POINT(site)                                           \
  do {                                                                  \
    if (::gly::fault::ActivePlan() != nullptr) {                        \
      ::gly::Status gly_fault_status_ = ::gly::fault::CheckPoint(site); \
      if (!gly_fault_status_.ok()) return gly_fault_status_;            \
    }                                                                   \
  } while (false)

/// Marks a message-loss fault site: evaluates to true when the active plan
/// drops the message at this site.
#define GLY_FAULT_DROP(site) ::gly::fault::ShouldDrop(site)
