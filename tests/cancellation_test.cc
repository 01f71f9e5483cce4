// Cancellation subsystem unit tests: the CancelToken / Deadline contracts
// (first-cancel-wins, reason → Status mapping, heartbeats), cancelled
// ThreadPool chunk skipping, pre-cancelled runs returning promptly on
// every platform engine, and the MemoryBudget unwinding guarantees the
// cancelled-attempt path relies on (charges released by RAII unwinding,
// Reset clearing the abandoned attempt's peak).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_budget.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/threadpool.h"
#include "harness/platform.h"
#include "ref/algorithms.h"

namespace gly {
namespace {

// ------------------------------------------------------------- CancelToken

TEST(CancelTokenTest, StartsUncancelled) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_TRUE(token.detail().empty());
  EXPECT_EQ(token.heartbeats(), 0u);
}

TEST(CancelTokenTest, CancelSetsReasonAndDetail) {
  CancelToken token;
  EXPECT_TRUE(token.Cancel(CancelReason::kDeadline, "budget blown"));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_EQ(token.detail(), "budget blown");
}

TEST(CancelTokenTest, FirstCancelWins) {
  CancelToken token;
  EXPECT_TRUE(token.Cancel(CancelReason::kStall, "first"));
  EXPECT_FALSE(token.Cancel(CancelReason::kHarnessStop, "second"));
  EXPECT_EQ(token.reason(), CancelReason::kStall);
  EXPECT_EQ(token.detail(), "first");
}

TEST(CancelTokenTest, ConcurrentCancelHasExactlyOneWinner) {
  for (int round = 0; round < 20; ++round) {
    CancelToken token;
    std::atomic<int> winners{0};
    ThreadPool pool(4);
    pool.ParallelFor(8, [&](size_t i) {
      CancelReason reason =
          (i % 2 == 0) ? CancelReason::kDeadline : CancelReason::kStall;
      if (token.Cancel(reason, "racer")) winners.fetch_add(1);
    });
    EXPECT_EQ(winners.load(), 1);
    EXPECT_TRUE(token.cancelled());
  }
}

TEST(CancelTokenTest, ToStatusMapsReasonsOntoRetryability) {
  {
    CancelToken token;
    token.Cancel(CancelReason::kDeadline);
    EXPECT_TRUE(token.ToStatus().IsTimeout()) << token.ToStatus().ToString();
  }
  {
    CancelToken token;
    token.Cancel(CancelReason::kStall);
    EXPECT_TRUE(token.ToStatus().IsTimeout()) << token.ToStatus().ToString();
  }
  {
    // A harness stop (SIGINT) is final: Cancelled, which is not retryable,
    // so the retry loop does not burn attempts after the user gave up.
    CancelToken token;
    token.Cancel(CancelReason::kHarnessStop);
    EXPECT_TRUE(token.ToStatus().IsCancelled())
        << token.ToStatus().ToString();
  }
}

TEST(CancelTokenTest, ReasonNames) {
  EXPECT_STREQ(CancelReasonName(CancelReason::kNone), "none");
  EXPECT_STREQ(CancelReasonName(CancelReason::kDeadline), "deadline");
  EXPECT_STREQ(CancelReasonName(CancelReason::kHarnessStop), "harness_stop");
  EXPECT_STREQ(CancelReasonName(CancelReason::kStall), "stall");
}

TEST(CancelTokenTest, HeartbeatsAccumulate) {
  CancelToken token;
  const CancelToken* view = &token;  // poll sites hold const pointers
  view->Heartbeat();
  view->Heartbeat();
  EXPECT_EQ(token.heartbeats(), 2u);
}

TEST(CancelTokenTest, FreeHelpersTreatNullAsUncancellable) {
  EXPECT_FALSE(Cancelled(nullptr));
  EXPECT_TRUE(CheckCancel(nullptr).ok());
  CancelToken token;
  EXPECT_TRUE(CheckCancel(&token).ok());
  token.Cancel(CancelReason::kDeadline);
  EXPECT_TRUE(Cancelled(&token));
  EXPECT_TRUE(CheckCancel(&token).IsTimeout());
}

// ---------------------------------------------------------------- Deadline

TEST(DeadlineTest, NeverDoesNotExpire) {
  Deadline never = Deadline::Never();
  EXPECT_FALSE(never.expired());
}

TEST(DeadlineTest, ExpiresAfterItsBudget) {
  Deadline deadline = Deadline::After(0.02);
  EXPECT_FALSE(deadline.expired());
  Stopwatch watch;
  while (!deadline.expired() && watch.ElapsedSeconds() < 5.0) {
  }
  EXPECT_TRUE(deadline.expired());
}

TEST(DeadlineTest, AlreadyExpiredWhenBudgetIsZero) {
  EXPECT_TRUE(Deadline::After(0.0).expired());
  EXPECT_TRUE(Deadline::After(-1.0).expired());
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolCancelTest, CancelledRangedParallelForSkipsChunks) {
  ThreadPool pool(4);
  CancelToken token;
  token.Cancel(CancelReason::kDeadline);
  std::atomic<size_t> ran{0};
  pool.ParallelFor(
      0, 100000, /*grain=*/64, [&](size_t) { ran.fetch_add(1); }, &token);
  EXPECT_EQ(ran.load(), 0u);
  std::atomic<size_t> chunks{0};
  pool.ParallelForChunked(
      0, 100000, /*grain=*/64,
      [&](size_t, size_t) { chunks.fetch_add(1); }, &token);
  EXPECT_EQ(chunks.load(), 0u);
}

TEST(ThreadPoolCancelTest, NullTokenRunsEverything) {
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  pool.ParallelFor(0, 1000, /*grain=*/16, [&](size_t) { ran.fetch_add(1); },
                   nullptr);
  EXPECT_EQ(ran.load(), 1000u);
}

// ------------------------------------------- pre-cancelled platform runs

Graph SmallGraph() {
  EdgeList edges;
  Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(128));
    VertexId b = static_cast<VertexId>(rng.NextBounded(128));
    if (a != b) edges.Add(a, b);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

TEST(PlatformCancelTest, PreCancelledRunFailsFastOnEveryPlatform) {
  Graph g = SmallGraph();
  CancelToken token;
  token.Cancel(CancelReason::kDeadline, "pre-cancelled");
  for (const char* name : {"giraph", "graphx", "mapreduce", "neo4j"}) {
    auto platform = harness::MakePlatform(name, Config());
    ASSERT_TRUE(platform.ok()) << name;
    ASSERT_TRUE((*platform)->LoadGraph(g, "toy").ok()) << name;
    AlgorithmParams params;
    params.cancel = &token;
    Stopwatch watch;
    auto run = (*platform)->Run(AlgorithmKind::kBfs, params);
    EXPECT_FALSE(run.ok()) << name;
    EXPECT_TRUE(run.status().IsTimeout()) << name << ": "
                                          << run.status().ToString();
    // "Fails fast" here means bounded poll granularity, not wall-clock
    // luck: well under a second for a toy graph on any engine.
    EXPECT_LT(watch.ElapsedSeconds(), 1.0) << name;
    (*platform)->UnloadGraph();
  }
}

TEST(PlatformCancelTest, NullTokenRunsToCompletion) {
  Graph g = SmallGraph();
  for (const char* name : {"giraph", "graphx", "mapreduce", "neo4j"}) {
    auto platform = harness::MakePlatform(name, Config());
    ASSERT_TRUE(platform.ok()) << name;
    ASSERT_TRUE((*platform)->LoadGraph(g, "toy").ok()) << name;
    auto run = (*platform)->Run(AlgorithmKind::kBfs, AlgorithmParams());
    EXPECT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    (*platform)->UnloadGraph();
  }
}

// ------------------------------------------------------------ MemoryBudget

TEST(MemoryBudgetCancelTest, ResetClearsUsageAndPeak) {
  MemoryBudget budget(1024);
  ASSERT_TRUE(budget.Charge(512, "attempt one").ok());
  EXPECT_EQ(budget.used(), 512u);
  EXPECT_EQ(budget.peak(), 512u);
  budget.Reset();
  // A budget reused after a cancelled attempt must not report the
  // abandoned attempt's high-water mark as the next attempt's peak.
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 0u);
  ASSERT_TRUE(budget.Charge(128, "attempt two").ok());
  EXPECT_EQ(budget.peak(), 128u);
}

TEST(MemoryBudgetCancelTest, ScopedChargeReleasesOnUnwind) {
  // Cancelled engines surface the token's Status and unwind; every charge
  // must travel in a ScopedCharge so unwinding releases it.
  MemoryBudget budget(1024);
  {
    ASSERT_TRUE(budget.Charge(256, "superstep state").ok());
    ScopedCharge charge(&budget, 256);
    EXPECT_EQ(budget.used(), 256u);
  }
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 256u);  // peak survives release, until Reset
}

}  // namespace
}  // namespace gly
