#include "harness/monitor.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

namespace gly::harness {

namespace {

// Reads the "<key>: <n> kB" line of /proc/self/status as bytes, where
// `format` is "<key>: %llu"; 0 when the file or the key is missing.
uint64_t ProcStatusBytes(const char* format) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, format, &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<uint64_t>(kib) * 1024;
}

}  // namespace

uint64_t SystemMonitor::CurrentRssBytes() {
  return ProcStatusBytes("VmRSS: %llu");
}

double SystemMonitor::CurrentCpuSeconds() {
  FILE* f = std::fopen("/proc/self/stat", "r");
  if (f == nullptr) return 0.0;
  char buf[1024];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // Fields 14 (utime) and 15 (stime) follow the comm field, which may
  // contain spaces but is parenthesized; skip past the last ')'.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0.0;
  ++p;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // After ')': field 3 is state; utime is field 14 overall, i.e. the 12th
  // token after state.
  int field = 2;  // next token parsed will be field 3
  char state;
  if (std::sscanf(p, " %c", &state) != 1) return 0.0;
  const char* q = p;
  while (*q != '\0' && field < 13) {
    while (*q == ' ') ++q;
    while (*q != '\0' && *q != ' ') ++q;
    ++field;
  }
  if (std::sscanf(q, " %llu %llu", &utime, &stime) != 2) return 0.0;
  double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (static_cast<double>(utime) + static_cast<double>(stime)) / ticks;
}

uint64_t SelfProcReader::RssBytes() { return SystemMonitor::CurrentRssBytes(); }

double SelfProcReader::CpuSeconds() {
  return SystemMonitor::CurrentCpuSeconds();
}

double SelfProcReader::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SelfProcReader::PeakRssBytes() {
  // VmHWM folds the current RSS into the kernel's high-water mark when the
  // file is read; getrusage's ru_maxrss catches up only at some unmaps, so
  // it can trail the current RSS.
  if (uint64_t hwm = ProcStatusBytes("VmHWM: %llu"); hwm != 0) return hwm;
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

ProcReader& SystemMonitor::reader() {
  return reader_ != nullptr ? *reader_ : self_reader_;
}

SystemMonitor::~SystemMonitor() {
  if (running_.load()) {
    running_.store(false);
    if (thread_.joinable()) thread_.join();
  }
}

void SystemMonitor::OpenWindow() {
  samples_.clear();
  start_cpu_ = reader().CpuSeconds();
  start_wall_ = reader().NowSeconds();
  start_peak_rss_ = reader().PeakRssBytes();
  started_ = true;
}

void SystemMonitor::Start() {
  OpenWindow();
  running_.store(true);
  thread_ = std::thread([this] { Loop(); });
}

void SystemMonitor::StartManual() { OpenWindow(); }

void SystemMonitor::SampleOnce() {
  ResourceSample sample;
  sample.at_seconds = reader().NowSeconds() - start_wall_;
  sample.rss_bytes = reader().RssBytes();
  sample.cpu_seconds = reader().CpuSeconds();
  samples_.push_back(sample);
}

void SystemMonitor::Loop() {
  while (running_.load(std::memory_order_relaxed)) {
    SampleOnce();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval_seconds_));
  }
}

ResourceSummary SystemMonitor::Stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
  ResourceSummary summary;
  // A window that was never opened has no meaningful start times; reporting
  // NowSeconds() - 0.0 as the wall span (and dividing by it) would be
  // garbage, so an unopened window summarizes to all zeros.
  if (!started_) return summary;
  started_ = false;
  summary.wall_seconds = reader().NowSeconds() - start_wall_;
  summary.cpu_seconds = reader().CpuSeconds() - start_cpu_;
  summary.cpu_utilization = summary.wall_seconds > 0.0
                                ? summary.cpu_seconds / summary.wall_seconds
                                : 0.0;
  summary.samples = samples_.size();
  uint64_t sum_rss = 0;
  for (const ResourceSample& s : samples_) {
    summary.peak_rss_bytes = std::max(summary.peak_rss_bytes, s.rss_bytes);
    sum_rss += s.rss_bytes;
  }
  if (!samples_.empty()) summary.mean_rss_bytes = sum_rss / samples_.size();
  // Reconcile the sampled peak with the kernel's high-water mark: a short
  // allocation spike between samples is invisible to the /proc poller but
  // moves the high-water mark. Only trust that value when it advanced
  // during this window — the mark is per-process-lifetime, so a large
  // earlier window would otherwise leak into this summary.
  uint64_t end_peak_rss = reader().PeakRssBytes();
  if (end_peak_rss > start_peak_rss_) {
    summary.peak_rss_bytes = std::max(summary.peak_rss_bytes, end_peak_rss);
  }
  return summary;
}

}  // namespace gly::harness
