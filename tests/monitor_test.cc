// SystemMonitor unit tests driven through the injectable ProcReader: the
// summary math (peak/mean RSS, cpu_utilization > 1 with threads) becomes
// deterministic arithmetic instead of a live-process sample, and the
// previously untested windowless-Stop() path is pinned down.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "harness/monitor.h"

namespace gly::harness {
namespace {

// Scripted reader: the test sets the fields between samples.
class FakeProcReader : public ProcReader {
 public:
  uint64_t rss = 0;
  double cpu = 0.0;
  double now = 0.0;

  uint64_t RssBytes() override { return rss; }
  double CpuSeconds() override { return cpu; }
  double NowSeconds() override { return now; }
};

TEST(SystemMonitorTest, PeakAndMeanRssMath) {
  FakeProcReader proc;
  SystemMonitor monitor(/*interval_seconds=*/0.05, &proc);

  proc.now = 100.0;
  proc.cpu = 10.0;
  monitor.StartManual();

  proc.now = 101.0;
  proc.rss = 1000;
  monitor.SampleOnce();
  proc.now = 102.0;
  proc.rss = 3000;
  monitor.SampleOnce();
  proc.now = 103.0;
  proc.rss = 2000;
  monitor.SampleOnce();

  proc.now = 104.0;
  proc.cpu = 14.0;
  ResourceSummary summary = monitor.Stop();

  EXPECT_EQ(summary.samples, 3u);
  EXPECT_EQ(summary.peak_rss_bytes, 3000u);
  EXPECT_EQ(summary.mean_rss_bytes, 2000u);
  EXPECT_DOUBLE_EQ(summary.wall_seconds, 4.0);
  EXPECT_DOUBLE_EQ(summary.cpu_seconds, 4.0);
  EXPECT_DOUBLE_EQ(summary.cpu_utilization, 1.0);

  const std::vector<ResourceSample>& samples = monitor.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].at_seconds, 1.0);
  EXPECT_DOUBLE_EQ(samples[2].at_seconds, 3.0);
  EXPECT_EQ(samples[1].rss_bytes, 3000u);
}

TEST(SystemMonitorTest, CpuUtilizationExceedsOneWithThreads) {
  // 8 CPU-seconds over a 2-second wall window: a multi-threaded process.
  FakeProcReader proc;
  SystemMonitor monitor(0.05, &proc);
  proc.now = 50.0;
  proc.cpu = 100.0;
  monitor.StartManual();
  proc.now = 52.0;
  proc.cpu = 108.0;
  ResourceSummary summary = monitor.Stop();
  EXPECT_DOUBLE_EQ(summary.wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(summary.cpu_seconds, 8.0);
  EXPECT_DOUBLE_EQ(summary.cpu_utilization, 4.0);
}

TEST(SystemMonitorTest, ZeroSampleStopIsWellDefined) {
  // A window so short the sampler never ran: summary must not divide by
  // zero samples, and the RSS stats are zero, not garbage.
  FakeProcReader proc;
  SystemMonitor monitor(0.05, &proc);
  proc.now = 10.0;
  monitor.StartManual();
  proc.now = 10.0;  // zero-width window too
  ResourceSummary summary = monitor.Stop();
  EXPECT_EQ(summary.samples, 0u);
  EXPECT_EQ(summary.peak_rss_bytes, 0u);
  EXPECT_EQ(summary.mean_rss_bytes, 0u);
  EXPECT_DOUBLE_EQ(summary.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(summary.cpu_utilization, 0.0);  // 0/0 guarded
}

TEST(SystemMonitorTest, StopWithoutStartReturnsZeroSummary) {
  // Previously this path reported NowSeconds() - 0.0 as the wall span.
  FakeProcReader proc;
  proc.now = 12345.0;
  proc.cpu = 67.0;
  SystemMonitor monitor(0.05, &proc);
  ResourceSummary summary = monitor.Stop();
  EXPECT_EQ(summary.samples, 0u);
  EXPECT_DOUBLE_EQ(summary.wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(summary.cpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(summary.cpu_utilization, 0.0);
}

TEST(SystemMonitorTest, SecondStopIsZeroNotStale) {
  FakeProcReader proc;
  SystemMonitor monitor(0.05, &proc);
  proc.now = 1.0;
  monitor.StartManual();
  proc.now = 3.0;
  ResourceSummary first = monitor.Stop();
  EXPECT_DOUBLE_EQ(first.wall_seconds, 2.0);
  proc.now = 50.0;
  ResourceSummary second = monitor.Stop();  // window already closed
  EXPECT_DOUBLE_EQ(second.wall_seconds, 0.0);
  EXPECT_EQ(second.samples, 0u);
}

TEST(SystemMonitorTest, RestartClearsPreviousWindow) {
  FakeProcReader proc;
  SystemMonitor monitor(0.05, &proc);
  proc.now = 0.0;
  monitor.StartManual();
  proc.rss = 9999;
  monitor.SampleOnce();
  monitor.Stop();

  proc.now = 100.0;
  monitor.StartManual();  // must clear old samples
  proc.now = 101.0;
  proc.rss = 10;
  monitor.SampleOnce();
  ResourceSummary summary = monitor.Stop();
  EXPECT_EQ(summary.samples, 1u);
  EXPECT_EQ(summary.peak_rss_bytes, 10u);
}

TEST(SystemMonitorTest, BackgroundSamplingOnLiveProcess) {
  // Smoke test on the real /proc reader: the background thread collects at
  // least one sample and RSS of a live process is nonzero.
  SystemMonitor monitor(/*interval_seconds=*/0.001);
  monitor.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ResourceSummary summary = monitor.Stop();
  EXPECT_GE(summary.samples, 1u);
  EXPECT_GT(summary.peak_rss_bytes, 0u);
  EXPECT_GT(summary.wall_seconds, 0.0);
}

TEST(SystemMonitorTest, LiveProcReadersReturnPlausibleValues) {
  SelfProcReader self;
  EXPECT_GT(self.RssBytes(), 0u);
  EXPECT_GE(self.CpuSeconds(), 0.0);
  double a = self.NowSeconds();
  double b = self.NowSeconds();
  EXPECT_GE(b, a);
  // The kernel's high-water mark can never be below the current RSS.
  EXPECT_GE(self.PeakRssBytes(), self.RssBytes());
}

// Reader that also scripts the kernel's ru_maxrss high-water mark.
class PeakAwareProcReader : public FakeProcReader {
 public:
  uint64_t peak = 0;
  uint64_t PeakRssBytes() override { return peak; }
};

TEST(SystemMonitorTest, PeakRssReconciledWithRusageHighWaterMark) {
  // An allocation spike between /proc samples is invisible to the poller
  // but moves ru_maxrss: the summary must report the rusage value.
  PeakAwareProcReader proc;
  SystemMonitor monitor(0.05, &proc);
  proc.now = 0.0;
  proc.peak = 5000;  // lifetime peak before this window
  monitor.StartManual();
  proc.now = 1.0;
  proc.rss = 1000;
  monitor.SampleOnce();
  proc.now = 2.0;
  proc.peak = 8000;  // spike the sampler never saw
  ResourceSummary summary = monitor.Stop();
  EXPECT_EQ(summary.peak_rss_bytes, 8000u);
}

TEST(SystemMonitorTest, StalePeakFromEarlierWindowIsIgnored) {
  // ru_maxrss is per-process-lifetime: a big peak *before* this window must
  // not leak into its summary when the mark did not advance.
  PeakAwareProcReader proc;
  SystemMonitor monitor(0.05, &proc);
  proc.now = 0.0;
  proc.peak = 90000;  // high-water mark from some earlier phase
  monitor.StartManual();
  proc.now = 1.0;
  proc.rss = 1000;
  monitor.SampleOnce();
  proc.now = 2.0;  // peak unchanged during the window
  ResourceSummary summary = monitor.Stop();
  EXPECT_EQ(summary.peak_rss_bytes, 1000u);
}

TEST(SystemMonitorTest, SampledPeakWinsWhenAboveAdvancedMark) {
  // If the sampler itself saw a higher value (e.g. rusage granularity),
  // reconciliation takes the max rather than trusting either side alone.
  PeakAwareProcReader proc;
  SystemMonitor monitor(0.05, &proc);
  proc.now = 0.0;
  proc.peak = 100;
  monitor.StartManual();
  proc.now = 1.0;
  proc.rss = 7000;
  monitor.SampleOnce();
  proc.now = 2.0;
  proc.peak = 4000;  // advanced, but below the sampled peak
  ResourceSummary summary = monitor.Stop();
  EXPECT_EQ(summary.peak_rss_bytes, 7000u);
}

}  // namespace
}  // namespace gly::harness
