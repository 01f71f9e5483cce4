#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <unordered_map>

#include "common/json.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace gly::trace {

namespace internal {
std::atomic<Tracer*> g_active_tracer{nullptr};
thread_local Tracer* tls_tracer = nullptr;
}  // namespace internal

SteadyClock::SteadyClock() {
  epoch_micros_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t SteadyClock::NowMicros() {
  uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch_micros_;
}

Tracer::Tracer(Clock* clock) : clock_(clock) {
  if (clock_ == nullptr) {
    owned_clock_ = std::make_unique<SteadyClock>();
    clock_ = owned_clock_.get();
  }
}

uint32_t Tracer::TidOfCurrentThread() {
  // Linear scan: a trace involves a handful of threads, and this runs
  // under mu_ once per event, not per lookup miss.
  std::thread::id self = std::this_thread::get_id();
  for (const auto& [id, tid] : tids_) {
    if (id == self) return tid;
  }
  uint32_t tid = next_tid_++;
  tids_.emplace_back(self, tid);
  return tid;
}

void Tracer::MergeEvents(std::vector<TraceEvent> events) {
  if (events.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Remap every distinct incoming tid to a fresh tid of this tracer: the
  // same OS thread may already have a tid here, and two cells merged back
  // to back may reuse child tids — fresh ids keep per-tid nesting valid.
  std::unordered_map<uint32_t, uint32_t> remap;
  events_.reserve(events_.size() + events.size());
  for (TraceEvent& e : events) {
    auto [it, inserted] = remap.emplace(e.tid, next_tid_);
    if (inserted) ++next_tid_;
    e.tid = it->second;
    events_.push_back(std::move(e));
  }
}

void Tracer::Begin(std::string_view name, std::string_view category) {
  uint64_t ts = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent& e = events_.emplace_back();
  e.name = name;
  e.category = category;
  e.phase = 'B';
  e.ts_micros = ts;
  e.tid = TidOfCurrentThread();
}

void Tracer::End(std::string_view name, std::string_view category,
                 std::vector<TraceArg> args) {
  uint64_t ts = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent& e = events_.emplace_back();
  e.name = name;
  e.category = category;
  e.phase = 'E';
  e.ts_micros = ts;
  e.tid = TidOfCurrentThread();
  e.args = std::move(args);
}

void Tracer::Instant(std::string_view name, std::string_view category,
                     std::vector<TraceArg> args) {
  uint64_t ts = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent& e = events_.emplace_back();
  e.name = name;
  e.category = category;
  e.phase = 'i';
  e.ts_micros = ts;
  e.tid = TidOfCurrentThread();
  e.args = std::move(args);
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<TraceEvent> Tracer::SnapshotSince(size_t first) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (first >= events_.size()) return {};
  return std::vector<TraceEvent>(events_.begin() +
                                     static_cast<ptrdiff_t>(first),
                                 events_.end());
}

std::string Tracer::ToChromeJson() const { return ChromeTraceJson(Snapshot()); }

Status Tracer::WriteTo(const std::string& path) const {
  std::string json = ToChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file for writing: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to trace file: " + path);
  }
  return Status::OK();
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96 + 256);
  out +=
      "{\"displayTimeUnit\":\"ms\",\"metadata\":{\"schema_version\":1,"
      "\"kind\":\"gly.trace\"},\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":\"";
    out += JsonEscape(e.name);
    out += "\",\"cat\":\"";
    out += JsonEscape(e.category);
    out += "\",\"ph\":\"";
    out += e.phase;
    out += "\",\"ts\":";
    out += std::to_string(e.ts_micros);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    // Chrome requires instant events to declare a scope; 't' = thread.
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        if (!first_arg) out += ',';
        first_arg = false;
        out += '"';
        out += JsonEscape(key);
        out += "\":\"";
        out += JsonEscape(value);
        out += '"';
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

Result<TraceCheck> CheckWellFormed(const std::vector<TraceEvent>& events) {
  TraceCheck check;
  check.events = events.size();
  std::unordered_map<uint32_t, std::vector<std::string_view>> stacks;
  for (const TraceEvent& e : events) {
    auto& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(e.name);
      check.max_depth = std::max(check.max_depth, stack.size());
    } else if (e.phase == 'E') {
      if (stack.empty()) {
        return Status::InvalidArgument(
            "trace ill-formed: 'E' event \"" + e.name +
            "\" on tid " + std::to_string(e.tid) + " with no open span");
      }
      if (stack.back() != e.name) {
        return Status::InvalidArgument(
            "trace ill-formed: 'E' event \"" + e.name + "\" on tid " +
            std::to_string(e.tid) + " closes span \"" +
            std::string(stack.back()) + "\"");
      }
      stack.pop_back();
      ++check.completed_spans;
    }
  }
  for (const auto& [tid, stack] : stacks) {
    check.unmatched_begins += stack.size();
  }
  return check;
}

std::vector<PhaseTotal> AggregateSpans(const std::vector<TraceEvent>& events) {
  struct OpenSpan {
    std::string_view name;
    uint64_t ts_micros;
  };
  std::unordered_map<uint32_t, std::vector<OpenSpan>> stacks;
  std::unordered_map<std::string, PhaseTotal> totals;
  for (const TraceEvent& e : events) {
    auto& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back({e.name, e.ts_micros});
    } else if (e.phase == 'E') {
      // Tolerate ill-formed input: skip E's that do not close the top of
      // this thread's stack (CheckWellFormed is the strict variant).
      if (stack.empty() || stack.back().name != e.name) continue;
      PhaseTotal& total = totals[e.name];
      total.name = e.name;
      total.seconds +=
          static_cast<double>(e.ts_micros - stack.back().ts_micros) * 1e-6;
      ++total.count;
      stack.pop_back();
    }
  }
  std::vector<PhaseTotal> out;
  out.reserve(totals.size());
  for (auto& [name, total] : totals) out.push_back(std::move(total));
  std::sort(out.begin(), out.end(), [](const PhaseTotal& a,
                                       const PhaseTotal& b) {
    if (a.seconds != b.seconds) return a.seconds > b.seconds;
    return a.name < b.name;
  });
  return out;
}

namespace {

// Timestamps and ids arrive as JSON numbers; traces from other tools may
// carry fractional or out-of-range ones, which clamp instead of failing.
Result<uint64_t> ClampedNumber(const json::Value& event, std::string_view key,
                               double max) {
  GLY_ASSIGN_OR_RETURN(double value, event.Get<double>(key));
  return static_cast<uint64_t>(std::clamp(value, 0.0, max));
}

// One traceEvents element: name/ph/ts/pid/tid are required; string-valued
// args are kept and other args (legal in the Chrome format, never written
// by ChromeTraceJson) are skipped.
Result<TraceEvent> DecodeEvent(const json::Value& element) {
  TraceEvent event;
  GLY_ASSIGN_OR_RETURN(event.name, element.Get<std::string>("name"));
  GLY_ASSIGN_OR_RETURN(std::string phase, element.Get<std::string>("ph"));
  if (phase.size() != 1) {
    return Status::InvalidArgument("key \"ph\": not a single character");
  }
  event.phase = phase[0];
  GLY_ASSIGN_OR_RETURN(event.ts_micros, ClampedNumber(element, "ts", 0x1p63));
  GLY_RETURN_NOT_OK(element.Get<double>("pid").status());
  GLY_ASSIGN_OR_RETURN(event.tid, ClampedNumber(element, "tid", UINT32_MAX));
  GLY_ASSIGN_OR_RETURN(event.category, element.GetOr<std::string>("cat", ""));
  if (const json::Value* args = element.Find("args")) {
    if (args->object() == nullptr) {
      return Status::InvalidArgument("key \"args\": expected an object");
    }
    for (const auto& [key, value] : *args->object()) {
      if (const auto text = value.As<std::string>(); text.ok()) {
        event.args.emplace_back(key, *text);
      }
    }
  }
  return event;
}

}  // namespace

Result<TraceCheck> ValidateChromeTraceJson(std::string_view json) {
  GLY_ASSIGN_OR_RETURN(std::vector<TraceEvent> events,
                       ParseChromeTraceJson(json));
  return CheckWellFormed(events);
}

Result<std::vector<TraceEvent>> ParseChromeTraceJson(std::string_view json) {
  GLY_ASSIGN_OR_RETURN(json::Value doc, json::Parse(json));
  auto elements = doc.GetArray("traceEvents");
  if (!elements.ok()) {
    return Status::InvalidArgument(
        "invalid trace JSON: no top-level \"traceEvents\" array");
  }
  std::vector<TraceEvent> events;
  events.reserve((*elements)->size());
  for (const json::Value& element : **elements) {
    auto event = DecodeEvent(element);
    if (!event.ok()) {
      return event.status().WithPrefix(
          "invalid trace JSON: traceEvents[" + std::to_string(events.size()) +
          "]");
    }
    events.push_back(std::move(event).ValueOrDie());
  }
  return events;
}

}  // namespace gly::trace
