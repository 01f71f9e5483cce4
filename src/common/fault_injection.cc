#include "common/fault_injection.h"

#include <chrono>
#include <thread>

#include "common/random.h"
#include "common/trace.h"

namespace {

const char* FaultKindLabel(gly::fault::FaultKind kind) {
  switch (kind) {
    case gly::fault::FaultKind::kCrash: return "crash";
    case gly::fault::FaultKind::kIOError: return "io_error";
    case gly::fault::FaultKind::kDelay: return "delay";
    case gly::fault::FaultKind::kStall: return "stall";
    case gly::fault::FaultKind::kDrop: return "drop";
  }
  return "unknown";
}

}  // namespace

namespace gly::fault {

namespace internal {
std::atomic<FaultPlan*> g_active_plan{nullptr};
}  // namespace internal

namespace {

uint64_t HashSite(const std::string& site) {
  // FNV-1a; only needs to decorrelate sites, not be cryptographic.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

bool SiteMatches(const std::string& pattern, const std::string& site) {
  if (!pattern.empty() && pattern.back() == '*') {
    return site.compare(0, pattern.size() - 1, pattern, 0,
                        pattern.size() - 1) == 0;
  }
  return pattern == site;
}

}  // namespace

void FaultPlan::Add(FaultSpec spec) {
  auto rule = std::make_unique<Rule>();
  rule->spec = std::move(spec);
  rules_.push_back(std::move(rule));
}

bool FaultPlan::Decides(const Rule& rule, const std::string& site,
                        uint64_t hit_index) const {
  if (hit_index < rule.spec.skip_hits) return false;
  if (rule.spec.probability >= 1.0) return true;
  if (rule.spec.probability <= 0.0) return false;
  // Pure function of (seed, site, hit index): thread scheduling cannot
  // change which hit indexes trigger.
  Rng rng(DeriveSeed(seed_ ^ HashSite(site), hit_index));
  return rng.NextDouble() < rule.spec.probability;
}

uint64_t FaultPlan::NextHitIndex(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_[site].hits++;
}

FaultPlan::Rule* FaultPlan::FireAt(const std::string& site,
                                   uint64_t hit_index, bool drop_sites) {
  for (auto& rule : rules_) {
    if ((rule->spec.kind == FaultKind::kDrop) != drop_sites) continue;
    if (!SiteMatches(rule->spec.site, site)) continue;
    if (!Decides(*rule, site, hit_index)) continue;
    if (rule->spec.max_triggers != 0) {
      // Reserve quota; roll back on overshoot so a bounded transient fault
      // fires exactly max_triggers times even under concurrent hits.
      uint32_t reserved =
          rule->triggers.fetch_add(1, std::memory_order_acq_rel);
      if (reserved >= rule->spec.max_triggers) {
        rule->triggers.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
    } else {
      rule->triggers.fetch_add(1, std::memory_order_relaxed);
    }
    return rule.get();
  }
  return nullptr;
}

Status FaultPlan::OnPoint(const std::string& site) {
  uint64_t hit_index = NextHitIndex(site);
  Rule* rule = FireAt(site, hit_index, /*drop_sites=*/false);
  if (rule == nullptr) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_[site].triggered;
  }
  total_triggered_.fetch_add(1, std::memory_order_relaxed);
  trace::Instant("fault.injected", "fault",
                 {{"site", site}, {"kind", FaultKindLabel(rule->spec.kind)}});
  switch (rule->spec.kind) {
    case FaultKind::kCrash:
      return Status::Internal("injected worker crash at " + site);
    case FaultKind::kIOError:
      return Status::IOError("injected transient i/o error at " + site);
    case FaultKind::kDelay:
    case FaultKind::kStall:
      if (rule->spec.delay_seconds > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(rule->spec.delay_seconds));
      }
      return Status::OK();
    case FaultKind::kDrop:
      break;  // unreachable: filtered by FireAt
  }
  return Status::OK();
}

bool FaultPlan::OnDropPoint(const std::string& site) {
  uint64_t hit_index = NextHitIndex(site);
  Rule* rule = FireAt(site, hit_index, /*drop_sites=*/true);
  if (rule == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_[site].triggered;
  }
  total_triggered_.fetch_add(1, std::memory_order_relaxed);
  trace::Instant("fault.injected", "fault",
                 {{"site", site}, {"kind", "drop"}});
  return true;
}

uint64_t FaultPlan::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(site);
  return it == stats_.end() ? 0 : it->second.hits;
}

uint64_t FaultPlan::TriggeredCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(site);
  return it == stats_.end() ? 0 : it->second.triggered;
}

uint64_t FaultPlan::TotalTriggered() const {
  return total_triggered_.load(std::memory_order_relaxed);
}

std::map<std::string, SiteStats> FaultPlan::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<uint32_t> FaultPlan::TriggerSchedule(const std::string& site,
                                                 uint32_t num_hits) const {
  std::vector<uint32_t> schedule;
  std::vector<uint32_t> local_triggers(rules_.size(), 0);
  for (uint32_t hit = 0; hit < num_hits; ++hit) {
    for (size_t i = 0; i < rules_.size(); ++i) {
      const Rule& rule = *rules_[i];
      if (!SiteMatches(rule.spec.site, site)) continue;
      if (!Decides(rule, site, hit)) continue;
      if (rule.spec.max_triggers != 0 &&
          local_triggers[i] >= rule.spec.max_triggers) {
        continue;
      }
      ++local_triggers[i];
      schedule.push_back(hit);
      break;
    }
  }
  return schedule;
}

}  // namespace gly::fault
