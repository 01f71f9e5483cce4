// In-process sampling CPU profiler (DESIGN.md §14). A SignalSampler arms
// a POSIX interval timer (ITIMER_PROF → SIGPROF, delivered to whichever
// thread is burning CPU); the signal handler captures a raw stack with
// backtrace() plus the current profile phase into a lock-free MPMC ring
// and returns — no allocation, no locks, no symbolization in signal
// context. Drain() pops and symbolizes off the hot path (dladdr +
// __cxa_demangle, memoized per pc).
//
// Sampler is an interface so tests inject a scripted FakeSampler and the
// whole pipeline — folding, per-cell attribution, profile.json — runs
// deterministically with zero signals.
//
// CpuProfiler folds drained samples into flamegraph-compatible folded
// stacks ("frame;frame;frame count"), rooted at the profile phase label
// when one is set (SetProfilePhase / ScopedProfilePhase; the harness
// labels load/run/validate). Invariant: the folded counts of everything
// drained sum to the sampler's emitted-sample counter — dropped samples
// (ring full) are counted separately, never silently lost.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace gly::prof {

/// One symbolized stack sample. `frames` is root-first (main() outermost).
struct StackSample {
  std::string phase;                ///< profile phase label ("" = none)
  std::vector<std::string> frames;  ///< root-first symbolized frames
  uint64_t count = 1;               ///< identical samples may be pre-merged
};

/// Source of stack samples. SignalSampler is the real one; FakeSampler is
/// scripted for deterministic tests.
class Sampler {
 public:
  virtual ~Sampler() = default;

  /// Begins sampling every `interval_us` microseconds of CPU time.
  virtual Status Start(uint64_t interval_us) = 0;

  /// Stops sampling. Samples already captured remain drainable.
  virtual void Stop() = 0;

  /// Pops every sample captured since the previous Drain (symbolizing as
  /// needed). Never called from signal context.
  virtual std::vector<StackSample> Drain() = 0;

  /// Samples successfully captured into the ring so far (monotonic). The
  /// sum of counts over all Drain() results equals this once stopped.
  virtual uint64_t emitted_samples() const = 0;

  /// Samples lost to a full ring (monotonic).
  virtual uint64_t dropped_samples() const = 0;

  /// "signal", "fake", ... — recorded in profile.json.
  virtual const char* mode() const = 0;
};

/// Real SIGPROF-driven sampler. At most one may be started process-wide
/// (the interval timer and signal disposition are process resources);
/// Start on a second instance fails with Internal.
class SignalSampler final : public Sampler {
 public:
  /// `ring_slots` is rounded up to a power of two; each slot holds one raw
  /// stack (fixed depth), so memory is ring_slots * ~300 bytes.
  explicit SignalSampler(size_t ring_slots = 4096);
  ~SignalSampler() override;

  Status Start(uint64_t interval_us) override;
  void Stop() override;
  std::vector<StackSample> Drain() override;
  uint64_t emitted_samples() const override;
  uint64_t dropped_samples() const override;
  const char* mode() const override { return "signal"; }

  struct Impl;  ///< public so the signal handler (free fn) can hold one

 private:
  std::unique_ptr<Impl> impl_;
};

/// Scripted sampler for tests: queue samples with AddSample; Drain returns
/// everything queued since the last drain. Thread-safe.
class FakeSampler final : public Sampler {
 public:
  void AddSample(std::vector<std::string> frames_root_first,
                 std::string phase = "", uint64_t count = 1);

  Status Start(uint64_t interval_us) override;
  void Stop() override;
  std::vector<StackSample> Drain() override;
  uint64_t emitted_samples() const override;
  uint64_t dropped_samples() const override;
  const char* mode() const override { return "fake"; }

  bool started() const;

 private:
  mutable std::mutex mu_;
  std::vector<StackSample> pending_;
  uint64_t emitted_ = 0;
  uint64_t dropped_ = 0;
  bool started_ = false;
};

/// Folded flamegraph profile: "frame;frame;frame" stack keys → sample
/// counts. Render with ToLines()/ToFolded() for flamegraph.pl / speedscope.
struct FoldedProfile {
  std::map<std::string, uint64_t> stacks;
  uint64_t samples = 0;  ///< Σ counts over `stacks`
  uint64_t dropped = 0;

  void Merge(const FoldedProfile& other);
  /// One "stack count" line per entry, sorted by stack key.
  std::vector<std::string> ToLines() const;
  /// ToLines() joined with newlines (trailing newline included).
  std::string ToFolded() const;
};

/// Folds symbolized samples: frames are joined root-first with ';', the
/// phase label (when present) becomes the outermost frame, and characters
/// that would break the folded syntax (';' and ' ' inside frame names) are
/// sanitized.
FoldedProfile FoldSamples(const std::vector<StackSample>& samples);

/// Current profile phase label, attached to every sample taken while set.
/// `phase` must be a string literal or otherwise outlive the sampling run
/// (the signal handler reads the pointer). nullptr clears the label.
void SetProfilePhase(const char* phase);
const char* CurrentProfilePhase();

/// RAII phase label, restoring the previous label on destruction.
class ScopedProfilePhase {
 public:
  explicit ScopedProfilePhase(const char* phase)
      : previous_(CurrentProfilePhase()) {
    SetProfilePhase(phase);
  }
  ~ScopedProfilePhase() { SetProfilePhase(previous_); }
  ScopedProfilePhase(const ScopedProfilePhase&) = delete;
  ScopedProfilePhase& operator=(const ScopedProfilePhase&) = delete;

 private:
  const char* previous_;
};

/// Orchestrates a Sampler over a run: Start it, Collect() folded windows
/// (per cell, per phase), Stop it. Owns a SignalSampler unless one is
/// injected.
class CpuProfiler {
 public:
  struct Options {
    uint64_t interval_us = 2000;      ///< 500 Hz of CPU time by default
    Sampler* sampler = nullptr;       ///< injected (FakeSampler); not owned
  };

  explicit CpuProfiler(Options options);
  ~CpuProfiler();

  CpuProfiler(const CpuProfiler&) = delete;
  CpuProfiler& operator=(const CpuProfiler&) = delete;

  Status Start();
  /// Drains and folds every sample captured since the last Collect().
  FoldedProfile Collect();
  void Stop();

  bool running() const { return running_; }
  uint64_t interval_us() const { return options_.interval_us; }
  const char* mode() const;
  uint64_t dropped_samples() const;

 private:
  Options options_;
  std::unique_ptr<Sampler> owned_sampler_;
  Sampler* sampler_ = nullptr;
  bool running_ = false;
};

}  // namespace gly::prof
