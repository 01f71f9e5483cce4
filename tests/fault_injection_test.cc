// Unit tests for the fault-injection subsystem: FaultPlan determinism
// (same seed -> same fault schedule), scoped enable/disable, site pattern
// matching, and fault-point hit accounting.

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/stopwatch.h"

namespace gly::fault {
namespace {

// --------------------------------------------------------------- schedule

TEST(FaultPlanTest, SameSeedSameSchedule) {
  auto make = [](uint64_t seed) {
    auto plan = std::make_unique<FaultPlan>(seed);
    plan->Add({.site = "pregel.*", .kind = FaultKind::kCrash,
               .probability = 0.3});
    return plan;
  };
  auto a = make(42);
  auto b = make(42);
  auto c = make(43);
  auto sched_a = a->TriggerSchedule("pregel.superstep.barrier", 1000);
  auto sched_b = b->TriggerSchedule("pregel.superstep.barrier", 1000);
  auto sched_c = c->TriggerSchedule("pregel.superstep.barrier", 1000);
  EXPECT_EQ(sched_a, sched_b);
  EXPECT_NE(sched_a, sched_c);  // astronomically unlikely to collide
  // p = 0.3 over 1000 hits: the schedule is neither empty nor total.
  EXPECT_GT(sched_a.size(), 200u);
  EXPECT_LT(sched_a.size(), 400u);
}

TEST(FaultPlanTest, ScheduleIsDecorrelatedAcrossSites) {
  FaultPlan plan(7);
  plan.Add({.site = "*", .kind = FaultKind::kCrash, .probability = 0.5});
  EXPECT_NE(plan.TriggerSchedule("site.a", 500),
            plan.TriggerSchedule("site.b", 500));
}

TEST(FaultPlanTest, ScheduleMatchesLiveDecisions) {
  // The pure preview and the live OnPoint path agree hit-for-hit.
  FaultPlan plan(99);
  plan.Add({.site = "x", .kind = FaultKind::kCrash, .probability = 0.25});
  auto schedule = plan.TriggerSchedule("x", 200);
  std::vector<uint32_t> live;
  for (uint32_t hit = 0; hit < 200; ++hit) {
    if (!plan.OnPoint("x").ok()) live.push_back(hit);
  }
  EXPECT_EQ(schedule, live);
}

TEST(FaultPlanTest, SkipHitsAndMaxTriggersBoundTheSchedule) {
  FaultPlan plan(1);
  plan.Add({.site = "s", .kind = FaultKind::kCrash, .probability = 1.0,
            .skip_hits = 5, .max_triggers = 3});
  auto schedule = plan.TriggerSchedule("s", 100);
  EXPECT_EQ(schedule, (std::vector<uint32_t>{5, 6, 7}));
  // Live path honors the same bounds.
  uint64_t failures = 0;
  for (int i = 0; i < 100; ++i) {
    if (!plan.OnPoint("s").ok()) ++failures;
  }
  EXPECT_EQ(failures, 3u);
  EXPECT_EQ(plan.TriggeredCount("s"), 3u);
  EXPECT_EQ(plan.HitCount("s"), 100u);
}

TEST(FaultPlanTest, FirstMatchingRuleWins) {
  FaultPlan plan(1);
  plan.Add({.site = "a.*", .kind = FaultKind::kIOError});
  plan.Add({.site = "*", .kind = FaultKind::kCrash});
  EXPECT_TRUE(plan.OnPoint("a.x").IsIOError());
  EXPECT_TRUE(plan.OnPoint("b.x").IsInternal());
}

TEST(FaultPlanTest, ExactSiteDoesNotMatchPrefix) {
  FaultPlan plan(1);
  plan.Add({.site = "pregel.superstep.barrier", .kind = FaultKind::kCrash});
  EXPECT_TRUE(plan.OnPoint("pregel.superstep.barrier").IsInternal());
  EXPECT_TRUE(plan.OnPoint("pregel.superstep.barrier.extra").ok());
  EXPECT_TRUE(plan.OnPoint("pregel.worker.compute").ok());
}

// ------------------------------------------------------------ fault kinds

TEST(FaultPlanTest, KindsMapToStatusCodes) {
  FaultPlan plan(1);
  plan.Add({.site = "crash", .kind = FaultKind::kCrash});
  plan.Add({.site = "io", .kind = FaultKind::kIOError});
  Status crash = plan.OnPoint("crash");
  EXPECT_TRUE(crash.IsInternal());
  EXPECT_NE(crash.message().find("injected"), std::string::npos);
  EXPECT_NE(crash.message().find("crash"), std::string::npos);
  EXPECT_TRUE(plan.OnPoint("io").IsIOError());
}

TEST(FaultPlanTest, StallSleepsButSucceeds) {
  FaultPlan plan(1);
  plan.Add({.site = "slow", .kind = FaultKind::kStall, .max_triggers = 1,
            .delay_seconds = 0.05});
  Stopwatch watch;
  EXPECT_TRUE(plan.OnPoint("slow").ok());
  EXPECT_GE(watch.ElapsedSeconds(), 0.04);
  // Quota consumed: no further delay.
  Stopwatch watch2;
  EXPECT_TRUE(plan.OnPoint("slow").ok());
  EXPECT_LT(watch2.ElapsedSeconds(), 0.04);
}

TEST(FaultPlanTest, DropRulesOnlyFireAtDropPoints) {
  FaultPlan plan(1);
  plan.Add({.site = "net", .kind = FaultKind::kDrop});
  // An error-returning point ignores drop rules...
  EXPECT_TRUE(plan.OnPoint("net").ok());
  // ...and a drop point ignores error rules.
  plan.Add({.site = "cpu", .kind = FaultKind::kCrash});
  EXPECT_FALSE(plan.OnDropPoint("cpu"));
  EXPECT_TRUE(plan.OnDropPoint("net"));
}

// -------------------------------------------------------- scoped activation

TEST(ScopedFaultPlanTest, PointsAreNoOpsWithoutAnActivePlan) {
  ASSERT_EQ(ActivePlan(), nullptr);
  EXPECT_TRUE(CheckPoint("anything").ok());
  EXPECT_FALSE(ShouldDrop("anything"));
}

TEST(ScopedFaultPlanTest, InstallsAndRestores) {
  FaultPlan outer(1);
  outer.Add({.site = "*", .kind = FaultKind::kCrash});
  FaultPlan inner(2);  // no rules: hits recorded, nothing triggers
  {
    ScopedFaultPlan activate_outer(&outer);
    EXPECT_EQ(ActivePlan(), &outer);
    EXPECT_FALSE(CheckPoint("site").ok());
    {
      ScopedFaultPlan activate_inner(&inner);
      EXPECT_EQ(ActivePlan(), &inner);
      EXPECT_TRUE(CheckPoint("site").ok());
    }
    EXPECT_EQ(ActivePlan(), &outer);
    EXPECT_FALSE(CheckPoint("site").ok());
  }
  EXPECT_EQ(ActivePlan(), nullptr);
  EXPECT_EQ(outer.HitCount("site"), 2u);
  EXPECT_EQ(outer.TriggeredCount("site"), 2u);
  EXPECT_EQ(inner.HitCount("site"), 1u);
  EXPECT_EQ(inner.TriggeredCount("site"), 0u);
}

TEST(ScopedFaultPlanTest, MacroFormsConsultTheActivePlan) {
  FaultPlan plan(3);
  plan.Add({.site = "macro.point", .kind = FaultKind::kIOError});
  plan.Add({.site = "macro.drop", .kind = FaultKind::kDrop});
  auto guarded = []() -> Status {
    GLY_FAULT_POINT("macro.point");
    return Status::OK();
  };
  EXPECT_TRUE(guarded().ok());  // disabled: no plan installed
  ScopedFaultPlan active(&plan);
  EXPECT_TRUE(guarded().IsIOError());
  EXPECT_TRUE(GLY_FAULT_DROP("macro.drop"));
  EXPECT_FALSE(GLY_FAULT_DROP("macro.point"));
}

// -------------------------------------------------------------- accounting

TEST(FaultPlanTest, HitAccountingPerSite) {
  FaultPlan plan(5);
  plan.Add({.site = "a", .kind = FaultKind::kCrash, .probability = 0.5});
  for (int i = 0; i < 100; ++i) {
    (void)plan.OnPoint("a");
    (void)plan.OnPoint("b");
  }
  auto snapshot = plan.Snapshot();
  EXPECT_EQ(snapshot["a"].hits, 100u);
  EXPECT_EQ(snapshot["b"].hits, 100u);
  EXPECT_EQ(snapshot["b"].triggered, 0u);
  EXPECT_GT(snapshot["a"].triggered, 0u);
  EXPECT_LT(snapshot["a"].triggered, 100u);
  EXPECT_EQ(plan.TotalTriggered(), snapshot["a"].triggered);
}

TEST(FaultPlanTest, MaxTriggersHoldsUnderConcurrency) {
  FaultPlan plan(6);
  plan.Add({.site = "c", .kind = FaultKind::kCrash, .max_triggers = 10});
  std::vector<std::future<uint64_t>> tasks;
  for (int t = 0; t < 8; ++t) {
    tasks.push_back(std::async(std::launch::async, [&plan] {
      uint64_t failures = 0;
      for (int i = 0; i < 200; ++i) {
        if (!plan.OnPoint("c").ok()) ++failures;
      }
      return failures;
    }));
  }
  uint64_t failures = 0;
  for (auto& t : tasks) failures += t.get();
  EXPECT_EQ(failures, 10u);
  EXPECT_EQ(plan.HitCount("c"), 1600u);
  EXPECT_EQ(plan.TotalTriggered(), 10u);
}

}  // namespace
}  // namespace gly::fault
