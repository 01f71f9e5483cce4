// SystemMonitor — Figure 2's "System Monitor": "responsible for gathering
// resource utilization statistics from the SUT."
//
// Samples process RSS and CPU time from /proc at a fixed interval on a
// background thread while a benchmark run executes. The /proc access is
// behind the ProcReader interface so tests can drive the summary math with
// a scripted reader instead of the live process.

#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/result.h"

namespace gly::harness {

/// One sample of process resource usage.
struct ResourceSample {
  double at_seconds = 0.0;       ///< since Start()
  uint64_t rss_bytes = 0;
  double cpu_seconds = 0.0;      ///< cumulative user+system
};

/// Summary over a monitoring window.
struct ResourceSummary {
  uint64_t peak_rss_bytes = 0;
  uint64_t mean_rss_bytes = 0;
  double cpu_seconds = 0.0;        ///< CPU consumed during the window
  double wall_seconds = 0.0;
  double cpu_utilization = 0.0;    ///< cpu / wall (can exceed 1 with threads)
  size_t samples = 0;
};

/// Source of the monitor's raw readings. The default implementation reads
/// the live process; tests substitute a scripted fake.
class ProcReader {
 public:
  virtual ~ProcReader() = default;
  virtual uint64_t RssBytes() = 0;      ///< current resident set, bytes
  virtual double CpuSeconds() = 0;      ///< cumulative user+system CPU
  virtual double NowSeconds() = 0;      ///< monotonic wall clock
  /// Kernel-tracked lifetime peak RSS (the high-water mark), bytes.
  /// 0 = unavailable; defaulted so scripted fakes need not implement it.
  virtual uint64_t PeakRssBytes() { return 0; }
};

/// ProcReader over /proc/self: status for RSS (VmRSS) and its high-water
/// mark (VmHWM, or getrusage's ru_maxrss where VmHWM is missing), stat for
/// CPU.
class SelfProcReader : public ProcReader {
 public:
  uint64_t RssBytes() override;
  double CpuSeconds() override;
  double NowSeconds() override;
  uint64_t PeakRssBytes() override;
};

/// Background sampler.
class SystemMonitor {
 public:
  /// `reader == nullptr` reads the live process via SelfProcReader.
  explicit SystemMonitor(double interval_seconds = 0.05,
                         ProcReader* reader = nullptr)
      : interval_seconds_(interval_seconds), reader_(reader) {}
  ~SystemMonitor();

  /// Starts background sampling (clears previous samples).
  void Start();

  /// Opens a monitoring window without spawning the sampler thread; drive
  /// it with SampleOnce(). Deterministic — for tests and manual stepping.
  void StartManual();

  /// Records one sample now. Only meaningful after StartManual().
  void SampleOnce();

  /// Stops sampling and returns the summary. Calling Stop() with no open
  /// window (never started, or already stopped) returns an all-zero
  /// summary instead of a garbage wall-clock span.
  ResourceSummary Stop();

  const std::vector<ResourceSample>& samples() const { return samples_; }

  /// Reads the current process RSS (bytes), VmRSS of /proc/self/status.
  static uint64_t CurrentRssBytes();

  /// Reads cumulative process CPU seconds from /proc/self/stat.
  static double CurrentCpuSeconds();

 private:
  void Loop();
  ProcReader& reader();
  void OpenWindow();

  double interval_seconds_;
  ProcReader* reader_;
  SelfProcReader self_reader_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::thread thread_;
  std::vector<ResourceSample> samples_;
  double start_cpu_ = 0.0;
  double start_wall_ = 0.0;
  uint64_t start_peak_rss_ = 0;
};

}  // namespace gly::harness
