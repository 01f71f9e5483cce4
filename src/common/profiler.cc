#include "common/profiler.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

#if defined(__linux__) || defined(__APPLE__)
#define GLY_HAVE_SIGNAL_SAMPLER 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#else
#define GLY_HAVE_SIGNAL_SAMPLER 0
#endif

namespace gly::prof {

namespace {

// The profile phase label. Read from signal context, so it must be a raw
// pointer to storage that outlives the sampling run (string literals).
std::atomic<const char*> g_profile_phase{nullptr};

std::string SanitizeFrame(const std::string& frame) {
  std::string out = frame;
  for (char& c : out) {
    // ';' separates frames and the last ' ' separates the count in the
    // folded format; neither may appear inside a frame name.
    if (c == ';') c = ':';
    if (c == ' ') c = '_';
    if (c == '\n' || c == '\r' || c == '\t') c = '_';
  }
  return out.empty() ? std::string("?") : out;
}

}  // namespace

void SetProfilePhase(const char* phase) {
  g_profile_phase.store(phase, std::memory_order_release);
}

const char* CurrentProfilePhase() {
  return g_profile_phase.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// SignalSampler

#if GLY_HAVE_SIGNAL_SAMPLER

namespace {

constexpr int kMaxFrames = 32;
// backtrace() captured from the handler sees [0] the handler itself and
// [1] the kernel's signal trampoline before the interrupted stack.
constexpr int kSkipFrames = 2;

struct RawSample {
  const char* phase = nullptr;
  void* frames[kMaxFrames];
  int depth = 0;
};

// Bounded MPMC ring (Vyukov). Push runs in signal context — SIGPROF with
// an armed interval timer can be delivered to several threads at once, so
// the producer side must be both lock-free and multi-producer. Pop runs
// only from Drain().
class SampleRing {
 public:
  explicit SampleRing(size_t slots) {
    size_t cap = 1;
    while (cap < slots) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  // Async-signal-safe: atomics and a POD copy only.
  bool TryPush(const RawSample& sample) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      uint64_t seq = slot.seq.load(std::memory_order_acquire);
      intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.sample = sample;
          slot.seq.store(pos + 1, std::memory_order_release);
          emitted_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      } else if (dif < 0) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  bool TryPop(RawSample* out) {
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      uint64_t seq = slot.seq.load(std::memory_order_acquire);
      intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          *out = slot.sample;
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq;
    RawSample sample;
  };
  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> tail_{0};
  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace

struct SignalSampler::Impl {
  explicit Impl(size_t ring_slots) : ring(ring_slots) {}

  SampleRing ring;
  bool started = false;
  struct sigaction old_action;
  // pc → symbolized name, built lazily in Drain (never in signal context).
  std::unordered_map<void*, std::string> symbol_cache;
};

namespace {

// Only one SignalSampler may be armed: ITIMER_PROF and the SIGPROF
// disposition are process-global.
std::atomic<SignalSampler::Impl*> g_signal_impl{nullptr};

void ProfSignalHandler(int /*signum*/) {
  SignalSampler::Impl* impl =
      g_signal_impl.load(std::memory_order_acquire);
  if (impl == nullptr) return;
  RawSample sample;
  sample.phase = CurrentProfilePhase();
  int depth = ::backtrace(sample.frames, kMaxFrames);
  sample.depth = depth > 0 ? depth : 0;
  impl->ring.TryPush(sample);
}

std::string SymbolizePc(void* pc) {
  Dl_info info;
  if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string name(demangled);
      free(demangled);
      return name;
    }
    return info.dli_sname;
  }
  if (dladdr(pc, &info) != 0 && info.dli_fname != nullptr) {
    const char* base = strrchr(info.dli_fname, '/');
    std::string module(base != nullptr ? base + 1 : info.dli_fname);
    uintptr_t offset = reinterpret_cast<uintptr_t>(pc) -
                       reinterpret_cast<uintptr_t>(info.dli_fbase);
    return module + StringPrintf("+0x%zx", static_cast<size_t>(offset));
  }
  return StringPrintf("0x%zx", reinterpret_cast<size_t>(pc));
}

}  // namespace

SignalSampler::SignalSampler(size_t ring_slots)
    : impl_(std::make_unique<Impl>(ring_slots)) {}

SignalSampler::~SignalSampler() { Stop(); }

Status SignalSampler::Start(uint64_t interval_us) {
  if (interval_us == 0) {
    return Status::InvalidArgument("sampler interval must be > 0");
  }
  if (impl_->started) {
    return Status::Internal("sampler already started");
  }
  Impl* expected = nullptr;
  if (!g_signal_impl.compare_exchange_strong(expected, impl_.get(),
                                             std::memory_order_acq_rel)) {
    return Status::Internal(
        "another SignalSampler is active (SIGPROF is process-global)");
  }
  // Pre-warm backtrace: its first call may dlopen libgcc, which is not
  // async-signal-safe — force that to happen here, not in the handler.
  void* warm[4];
  ::backtrace(warm, 4);

  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = &ProfSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &action, &impl_->old_action) != 0) {
    g_signal_impl.store(nullptr, std::memory_order_release);
    return Status::Internal("sigaction(SIGPROF) failed");
  }

  itimerval timer;
  timer.it_interval.tv_sec = static_cast<time_t>(interval_us / 1000000);
  timer.it_interval.tv_usec = static_cast<suseconds_t>(interval_us % 1000000);
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    sigaction(SIGPROF, &impl_->old_action, nullptr);
    g_signal_impl.store(nullptr, std::memory_order_release);
    return Status::Internal("setitimer(ITIMER_PROF) failed");
  }
  impl_->started = true;
  return Status::OK();
}

void SignalSampler::Stop() {
  if (!impl_->started) return;
  itimerval zero;
  memset(&zero, 0, sizeof(zero));
  setitimer(ITIMER_PROF, &zero, nullptr);
  sigaction(SIGPROF, &impl_->old_action, nullptr);
  g_signal_impl.store(nullptr, std::memory_order_release);
  // A handler dispatched just before the disposition was restored may
  // still be on another thread's stack; give it time to return before the
  // caller may destroy this sampler.
  timespec pause{0, 2 * 1000 * 1000};  // 2 ms
  nanosleep(&pause, nullptr);
  impl_->started = false;
}

std::vector<StackSample> SignalSampler::Drain() {
  std::vector<StackSample> out;
  RawSample raw;
  while (impl_->ring.TryPop(&raw)) {
    StackSample sample;
    if (raw.phase != nullptr) sample.phase = raw.phase;
    int first = std::min(kSkipFrames, raw.depth);
    sample.frames.reserve(static_cast<size_t>(raw.depth - first));
    // backtrace() is leaf-first; folded stacks are root-first.
    for (int i = raw.depth - 1; i >= first; --i) {
      void* pc = raw.frames[i];
      auto it = impl_->symbol_cache.find(pc);
      if (it == impl_->symbol_cache.end()) {
        it = impl_->symbol_cache.emplace(pc, SymbolizePc(pc)).first;
      }
      sample.frames.push_back(it->second);
    }
    if (sample.frames.empty()) sample.frames.push_back("?");
    out.push_back(std::move(sample));
  }
  return out;
}

uint64_t SignalSampler::emitted_samples() const {
  return impl_->ring.emitted();
}

uint64_t SignalSampler::dropped_samples() const {
  return impl_->ring.dropped();
}

#else  // !GLY_HAVE_SIGNAL_SAMPLER

struct SignalSampler::Impl {};

SignalSampler::SignalSampler(size_t) : impl_(std::make_unique<Impl>()) {}
SignalSampler::~SignalSampler() = default;
Status SignalSampler::Start(uint64_t) {
  return Status::NotImplemented("signal sampler unavailable on this platform");
}
void SignalSampler::Stop() {}
std::vector<StackSample> SignalSampler::Drain() { return {}; }
uint64_t SignalSampler::emitted_samples() const { return 0; }
uint64_t SignalSampler::dropped_samples() const { return 0; }

#endif  // GLY_HAVE_SIGNAL_SAMPLER

// ---------------------------------------------------------------------------
// FakeSampler

void FakeSampler::AddSample(std::vector<std::string> frames_root_first,
                            std::string phase, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  StackSample sample;
  sample.phase = std::move(phase);
  sample.frames = std::move(frames_root_first);
  sample.count = count;
  emitted_ += count;
  pending_.push_back(std::move(sample));
}

Status FakeSampler::Start(uint64_t /*interval_us*/) {
  std::lock_guard<std::mutex> lock(mu_);
  started_ = true;
  return Status::OK();
}

void FakeSampler::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

std::vector<StackSample> FakeSampler::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StackSample> out;
  out.swap(pending_);
  return out;
}

uint64_t FakeSampler::emitted_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

uint64_t FakeSampler::dropped_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool FakeSampler::started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_;
}

// ---------------------------------------------------------------------------
// Folding

void FoldedProfile::Merge(const FoldedProfile& other) {
  for (const auto& [stack, count] : other.stacks) stacks[stack] += count;
  samples += other.samples;
  dropped += other.dropped;
}

std::vector<std::string> FoldedProfile::ToLines() const {
  std::vector<std::string> lines;
  lines.reserve(stacks.size());
  for (const auto& [stack, count] : stacks) {
    lines.push_back(stack + " " + std::to_string(count));
  }
  return lines;
}

std::string FoldedProfile::ToFolded() const {
  std::string out;
  for (const std::string& line : ToLines()) {
    out += line;
    out += '\n';
  }
  return out;
}

FoldedProfile FoldSamples(const std::vector<StackSample>& samples) {
  FoldedProfile folded;
  for (const StackSample& sample : samples) {
    std::string key;
    if (!sample.phase.empty()) key = SanitizeFrame(sample.phase);
    for (const std::string& frame : sample.frames) {
      if (!key.empty()) key += ';';
      key += SanitizeFrame(frame);
    }
    if (key.empty()) key = "?";
    folded.stacks[key] += sample.count;
    folded.samples += sample.count;
  }
  return folded;
}

// ---------------------------------------------------------------------------
// CpuProfiler

CpuProfiler::CpuProfiler(Options options) : options_(std::move(options)) {
  if (options_.sampler != nullptr) {
    sampler_ = options_.sampler;
  } else {
    owned_sampler_ = std::make_unique<SignalSampler>();
    sampler_ = owned_sampler_.get();
  }
}

CpuProfiler::~CpuProfiler() { Stop(); }

Status CpuProfiler::Start() {
  if (running_) return Status::Internal("profiler already running");
  GLY_RETURN_NOT_OK(sampler_->Start(options_.interval_us));
  running_ = true;
  return Status::OK();
}

FoldedProfile CpuProfiler::Collect() {
  FoldedProfile folded = FoldSamples(sampler_->Drain());
  return folded;
}

void CpuProfiler::Stop() {
  if (!running_) return;
  sampler_->Stop();
  running_ = false;
}

const char* CpuProfiler::mode() const { return sampler_->mode(); }

uint64_t CpuProfiler::dropped_samples() const {
  return sampler_->dropped_samples();
}

}  // namespace gly::prof
