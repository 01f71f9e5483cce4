// Cooperative cancellation & deadline propagation.
//
// The paper treats platform failures (timeouts, crashes, memory exhaustion)
// as first-class benchmark outcomes — "Missing values indicate failures".
// Recording a timeout is not enough, though: a "killed" cell that keeps
// running on a background thread keeps consuming CPU, memory-budget charge,
// and tracer/metrics state while the next cell is being measured — exactly
// the cross-cell interference that invalidates a matrix. This module gives
// the harness a way to stop a runaway cell *for real*:
//
//  * CancelToken — a thread-safe, reason-carrying flag the harness arms and
//    the engines poll at bounded-work intervals (per Pregel superstep and
//    every 4096 vertices of a worker's list, between MapReduce tasks and
//    reduce groups, per dataflow operator and shuffle chunk, per
//    graph-database import batch and algorithm iteration, per ETL chunk).
//    A poll on a null token is a pointer test; on a live token one relaxed
//    atomic load — free enough for inner loops, same budget as the
//    fault-injection and trace hooks.
//
//  * A progress heartbeat on the token: engines bump it whenever they make
//    forward progress (a superstep, a job, an operator, an iteration). The
//    harness watchdog cancels cells whose heartbeat stops advancing for
//    `stall_timeout_s` — catching livelock and stalls that never trip the
//    wall-clock deadline.
//
//  * Deadline — a steady-clock helper for "cancel after N seconds".
//
// Signal-safety: Cancel(reason) with no detail performs only lock-free
// atomic stores, so a SIGINT handler may arm a token directly. The detail
// string (mutex-guarded) is only for regular-context callers.
//
// Cancellation is cooperative: the engines return Status::Cancelled /
// Status::Timeout at the next poll; they are never killed mid-state. The
// attempt thread therefore unwinds normally (releasing ScopedCharge budget
// holdings, closing trace spans) and the harness can *join* it within a
// bounded grace period instead of detaching it.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace gly {

/// Why a token was cancelled.
enum class CancelReason : uint8_t {
  kNone = 0,         ///< not cancelled
  kDeadline = 1,     ///< wall-clock budget (timeout_s) exceeded
  kHarnessStop = 2,  ///< harness-level stop (Ctrl-C, shutdown)
  kStall = 3,        ///< watchdog: progress heartbeat stopped advancing
};

/// "deadline" | "harness_stop" | "stall" | "none".
const char* CancelReasonName(CancelReason reason);

/// Thread-safe cancellation flag with a reason and a progress heartbeat.
/// Arm once (first Cancel wins); poll from any number of threads.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms the token; returns true for the winning (first) caller, false
  /// when it was already cancelled (the later reason is ignored).
  /// Lock-free — safe from a signal handler.
  bool Cancel(CancelReason reason) {
    uint8_t expected = 0;
    return reason_.compare_exchange_strong(
        expected, static_cast<uint8_t>(reason), std::memory_order_release,
        std::memory_order_relaxed);
  }

  /// Arms the token with a human-readable detail (regular context only —
  /// takes a mutex for the string). The detail is recorded only by the
  /// winning caller, so reason and detail always describe the same cancel.
  bool Cancel(CancelReason reason, const std::string& detail);

  /// One relaxed load; the poll engines use in inner loops.
  bool cancelled() const {
    return reason_.load(std::memory_order_acquire) !=
           static_cast<uint8_t>(CancelReason::kNone);
  }

  CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }

  /// Detail passed to Cancel ("" when none was given).
  std::string detail() const;

  /// OK while not cancelled; afterwards the cancellation as a Status:
  /// deadline/stall map to kTimeout (transient by construction — the
  /// harness retry policy may re-execute the cell), harness stop to
  /// kCancelled (final). The engines return this at their next poll.
  Status StatusIfCancelled() const {
    if (!cancelled()) return Status::OK();
    return ToStatus();
  }

  /// The cancellation as a Status (kInternal if not actually cancelled).
  Status ToStatus() const;

  /// Progress heartbeat: engines bump it on forward progress (superstep,
  /// job, operator, iteration, import batch); the harness stall watchdog
  /// cancels the attempt when it stops advancing. Const because it is a
  /// progress side-channel, not a logical mutation — engines that only
  /// hold a `const CancelToken*` may still report progress.
  void Heartbeat() const { heartbeats_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t heartbeats() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint8_t> reason_{0};
  mutable std::atomic<uint64_t> heartbeats_{0};
  mutable std::mutex mu_;
  std::string detail_;
};

/// Polls a possibly-null token: OK when null or not cancelled. The "no
/// token" fast path is a pointer test, so un-supervised runs pay nothing.
inline Status CheckCancel(const CancelToken* token) {
  if (token == nullptr || !token->cancelled()) return Status::OK();
  return token->ToStatus();
}

/// True when `token` is set and cancelled — the cheap form for loops that
/// only need to bail out (the full Status is built once, by the caller).
inline bool Cancelled(const CancelToken* token) {
  return token != nullptr && token->cancelled();
}

/// A steady-clock deadline. Never() never expires.
class Deadline {
 public:
  /// A deadline `seconds` from now (<= 0 expires immediately).
  static Deadline After(double seconds);
  /// A deadline that never expires.
  static Deadline Never() { return Deadline(); }

  bool never() const { return never_; }
  bool expired() const;

 private:
  Deadline() = default;
  explicit Deadline(std::chrono::steady_clock::time_point at)
      : at_(at), never_(false) {}

  std::chrono::steady_clock::time_point at_{};
  bool never_ = true;
};

}  // namespace gly
