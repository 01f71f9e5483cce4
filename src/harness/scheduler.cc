#include "harness/scheduler.h"

#include <algorithm>
#include <thread>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace gly::harness {

namespace {
constexpr size_t kNone = static_cast<size_t>(-1);
}  // namespace

std::string SchedulerSummary(const SchedulerStats& stats) {
  return StringPrintf(
      "jobs=%u cells=%llu groups=%llu etl-loads=%llu graph-cache-hits=%llu "
      "queued=%llu budget-deferrals=%llu skipped=%llu peak-in-flight=%u "
      "wall=%.3fs",
      stats.jobs, (unsigned long long)stats.items,
      (unsigned long long)stats.groups, (unsigned long long)stats.admitted,
      (unsigned long long)stats.graph_cache_hits,
      (unsigned long long)stats.queued,
      (unsigned long long)stats.budget_deferrals,
      (unsigned long long)stats.skipped, stats.max_in_flight,
      stats.wall_seconds);
}

CellScheduler::CellScheduler(const Options& options)
    : options_(options), budget_(options.memory_budget_bytes) {
  options_.jobs = std::max(1u, options_.jobs);
}

size_t CellScheduler::AddGroup(uint64_t estimate_bytes) {
  Group group;
  group.estimate = estimate_bytes;
  groups_.push_back(group);
  return groups_.size() - 1;
}

size_t CellScheduler::AddItem(size_t group, std::string label) {
  Item item;
  item.group = group;
  item.label = std::move(label);
  items_.push_back(std::move(item));
  groups_[group].pending += 1;
  return items_.size() - 1;
}

// Would admitting `estimate` more bytes stay inside the budget? The
// MemoryBudget itself is the accounting; this is the pre-claim check that
// keeps the admission scan side-effect free.
bool CellScheduler::Fits(uint64_t estimate) const {
  return budget_.limit() == 0 || budget_.used() + estimate <= budget_.limit();
}

// Admission scan (mu_ held, pure): the first unclaimed item whose group can
// go right now. A loaded group just needs to be idle; a fresh group must
// also fit the remaining admission budget — unless nothing at all is
// admitted, in which case it goes through oversized (running alone beats
// starving; the engines' own MemoryBudget still polices real memory).
// While an oversized group runs, nothing else is admitted.
size_t CellScheduler::FindAdmissible() {
  for (size_t i = 0; i < items_.size(); ++i) {
    Item& item = items_[i];
    if (item.claimed) continue;
    Group& group = groups_[item.group];
    if (group.busy) {
      item.deferred = true;
      continue;
    }
    if (!group.loaded) {
      if (bypass_active_) {
        item.deferred = true;
        continue;
      }
      if (!Fits(group.estimate) && active_groups_ > 0) {
        if (!item.deferred) stats_.budget_deferrals += 1;
        item.deferred = true;
        continue;
      }
    }
    return i;
  }
  return kNone;
}

// Claim bookkeeping (mu_ held). Returns true when this worker must run the
// group's load before the item.
bool CellScheduler::Claim(size_t i) {
  Item& item = items_[i];
  Group& group = groups_[item.group];
  item.claimed = true;
  group.busy = true;
  const bool need_load = !group.loaded;
  if (need_load) {
    group.loaded = true;
    if (group.estimate > 0 && Fits(group.estimate) &&
        budget_.Charge(group.estimate, "sched.group").ok()) {
      group.charged = true;
    } else if (!Fits(group.estimate)) {
      group.bypass = true;  // oversized: admitted against an empty budget
      bypass_active_ = true;
    }
    active_groups_ += 1;
    stats_.admitted += 1;
  } else {
    stats_.graph_cache_hits += 1;
  }
  if (item.deferred) stats_.queued += 1;
  in_flight_ += 1;
  stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
  return need_load;
}

// Stop (mu_ held): skip everything unclaimed, exactly once. Returns the
// groups that became retirable because all their remaining items were
// skipped.
std::vector<size_t> CellScheduler::SweepOnStop() {
  std::vector<size_t> retirable;
  if (stop_swept_) return retirable;
  stop_swept_ = true;
  for (Item& item : items_) {
    if (item.claimed) continue;
    item.claimed = true;
    done_items_ += 1;
    stats_.skipped += 1;
    Group& group = groups_[item.group];
    group.pending -= 1;
    if (group.pending == 0 && group.loaded && !group.busy) {
      retirable.push_back(item.group);
    }
  }
  cv_.notify_all();
  return retirable;
}

SchedulerStats CellScheduler::Run(const GroupFn& load, const ItemFn& run,
                                  const GroupFn& retire) {
  stats_.jobs = options_.jobs;
  stats_.items = items_.size();
  stats_.groups = groups_.size();
  Stopwatch wall;

  // Retire a group (mu_ NOT held): unload first, then release its
  // admission hold so waiters see memory only after it is actually free.
  auto retire_group = [&](size_t g) {
    retire(g);
    std::lock_guard<std::mutex> lock(mu_);
    Group& group = groups_[g];
    if (group.charged) {
      budget_.Release(group.estimate);
      group.charged = false;
    }
    if (group.bypass) {
      group.bypass = false;
      bypass_active_ = false;
    }
    active_groups_ -= 1;
    cv_.notify_all();
  };

  auto worker = [&]() {
    for (;;) {
      size_t claimed = kNone;
      bool need_load = false;
      bool exit_now = false;
      std::vector<size_t> stop_retires;
      {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
          if (Cancelled(options_.stop)) {
            stop_retires = SweepOnStop();
            exit_now = true;
            break;
          }
          if (done_items_ + in_flight_ == items_.size()) {
            // Everything is finished or running on other workers.
            exit_now = true;
            break;
          }
          size_t next = FindAdmissible();
          if (next == kNone) {
            // Blocked on a busy group or the budget: wait under a real
            // span so queue time shows up in the trace, attributed to the
            // item this worker ends up claiming.
            trace::TraceSpan wait_span("harness.sched.wait", "harness");
            while (next == kNone) {
              cv_.wait(lock);
              if (Cancelled(options_.stop) ||
                  done_items_ + in_flight_ == items_.size()) {
                break;
              }
              next = FindAdmissible();
            }
            if (next == kNone) continue;  // stop or drained: re-evaluate
            wait_span.SetAttribute("cell", items_[next].label);
          }
          need_load = Claim(next);
          claimed = next;
          break;
        }
      }

      for (size_t g : stop_retires) retire_group(g);
      if (claimed == kNone) {
        if (exit_now) {
          cv_.notify_all();
          return;
        }
        continue;
      }

      if (need_load) {
        metrics::AddCounter("harness.sched.admitted");
        load(items_[claimed].group);
      } else {
        metrics::AddCounter("harness.sched.graph_cache_hits");
      }
      if (items_[claimed].deferred) {
        metrics::AddCounter("harness.sched.queued");
      }
      run(claimed);

      bool do_retire = false;
      const size_t g = items_[claimed].group;
      {
        std::lock_guard<std::mutex> lock(mu_);
        Group& group = groups_[g];
        group.busy = false;
        group.pending -= 1;
        do_retire = group.pending == 0;
        in_flight_ -= 1;
        done_items_ += 1;
        cv_.notify_all();
      }
      if (do_retire) retire_group(g);
    }
  };

  const size_t workers =
      std::min<size_t>(std::max<size_t>(1, items_.size()), options_.jobs);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t i = 0; i < workers; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  stats_.wall_seconds = wall.ElapsedSeconds();
  return stats_;
}

}  // namespace gly::harness
