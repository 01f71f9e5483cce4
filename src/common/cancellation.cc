#include "common/cancellation.h"

namespace gly {

const char* CancelReasonName(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone: return "none";
    case CancelReason::kDeadline: return "deadline";
    case CancelReason::kHarnessStop: return "harness_stop";
    case CancelReason::kStall: return "stall";
  }
  return "none";
}

bool CancelToken::Cancel(CancelReason reason, const std::string& detail) {
  // The lock spans the reason CAS and the detail write, and detail() takes
  // the same lock — a poller that observes `cancelled()` and asks for the
  // detail blocks until the winner's detail is in place.
  std::lock_guard<std::mutex> lock(mu_);
  if (!Cancel(reason)) return false;
  detail_ = detail;
  return true;
}

std::string CancelToken::detail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return detail_;
}

Status CancelToken::ToStatus() const {
  const CancelReason why = reason();
  std::string what = detail();
  switch (why) {
    case CancelReason::kNone:
      return Status::Internal("CancelToken::ToStatus on a live token");
    case CancelReason::kDeadline:
      return Status::Timeout(what.empty() ? "cancelled: deadline exceeded"
                                          : what);
    case CancelReason::kStall:
      return Status::Timeout(
          what.empty() ? "cancelled: progress heartbeat stalled" : what);
    case CancelReason::kHarnessStop:
      return Status::Cancelled(what.empty() ? "cancelled: harness stop"
                                            : what);
  }
  return Status::Internal("unknown cancel reason");
}

Deadline Deadline::After(double seconds) {
  return Deadline(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds)));
}

bool Deadline::expired() const {
  if (never_) return false;
  return std::chrono::steady_clock::now() >= at_;
}

}  // namespace gly
