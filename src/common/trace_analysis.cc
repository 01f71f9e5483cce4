#include "common/trace_analysis.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/json.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace gly::trace {

namespace {

struct Node {
  std::string name;
  uint32_t tid = 0;
  uint64_t begin_micros = 0;
  uint64_t end_micros = 0;
  std::vector<size_t> children;  ///< indices into the completed-node vector

  double Seconds() const {
    return static_cast<double>(end_micros - begin_micros) * 1e-6;
  }
};

double SelfSeconds(const Node& node, const std::vector<Node>& nodes) {
  double children = 0.0;
  for (size_t child : node.children) children += nodes[child].Seconds();
  double self = node.Seconds() - children;
  return self > 0.0 ? self : 0.0;
}

}  // namespace

TraceAnalysis AnalyzeTrace(const std::vector<TraceEvent>& events,
                           const AnalyzeOptions& options) {
  TraceAnalysis analysis;
  if (events.empty()) return analysis;

  uint64_t min_ts = events.front().ts_micros;
  uint64_t max_ts = events.front().ts_micros;

  // Rebuild the span forest from matched B/E pairs. Mirrors
  // AggregateSpans' tolerance: an E that does not close the top of its
  // thread's stack is skipped, unmatched B's never complete.
  std::vector<Node> nodes;
  std::unordered_map<uint32_t, std::vector<Node>> open;
  std::unordered_map<uint32_t, std::vector<size_t>> top_level;
  for (const TraceEvent& e : events) {
    min_ts = std::min(min_ts, e.ts_micros);
    max_ts = std::max(max_ts, e.ts_micros);
    if (e.phase == 'B') {
      Node node;
      node.name = e.name;
      node.tid = e.tid;
      node.begin_micros = e.ts_micros;
      open[e.tid].push_back(std::move(node));
    } else if (e.phase == 'E') {
      auto& stack = open[e.tid];
      if (stack.empty() || stack.back().name != e.name) continue;
      Node node = std::move(stack.back());
      stack.pop_back();
      node.end_micros = e.ts_micros;
      nodes.push_back(std::move(node));
      size_t index = nodes.size() - 1;
      if (!stack.empty()) {
        stack.back().children.push_back(index);
      } else {
        top_level[e.tid].push_back(index);
      }
    }
  }

  analysis.wall_seconds = static_cast<double>(max_ts - min_ts) * 1e-6;
  analysis.completed_spans = nodes.size();

  // Per-worker utilization: top-level spans on one tid never overlap
  // (per-thread nesting), so their durations sum to that worker's busy
  // time over the window.
  for (const auto& [tid, indices] : top_level) {
    WorkerUtilization worker;
    worker.tid = tid;
    for (size_t index : indices) worker.busy_seconds += nodes[index].Seconds();
    worker.idle_seconds =
        std::max(0.0, analysis.wall_seconds - worker.busy_seconds);
    worker.utilization = analysis.wall_seconds > 0.0
                             ? worker.busy_seconds / analysis.wall_seconds
                             : 0.0;
    analysis.workers.push_back(worker);
  }
  std::sort(analysis.workers.begin(), analysis.workers.end(),
            [](const WorkerUtilization& a, const WorkerUtilization& b) {
              return a.tid < b.tid;
            });

  // Self-time table, aggregated by span name.
  std::map<std::string, SelfTimeEntry> by_name;
  for (const Node& node : nodes) {
    SelfTimeEntry& entry = by_name[node.name];
    entry.name = node.name;
    entry.self_seconds += SelfSeconds(node, nodes);
    ++entry.count;
  }
  for (auto& [name, entry] : by_name) {
    analysis.self_time.push_back(std::move(entry));
  }
  std::sort(analysis.self_time.begin(), analysis.self_time.end(),
            [](const SelfTimeEntry& a, const SelfTimeEntry& b) {
              if (a.self_seconds != b.self_seconds) {
                return a.self_seconds > b.self_seconds;
              }
              return a.name < b.name;
            });
  if (options.top_k > 0 && analysis.self_time.size() > options.top_k) {
    analysis.self_time.resize(options.top_k);
  }

  // Critical path: choose the root, then repeatedly descend into the
  // longest child, charging each visited span its self time. Children
  // nest within their parent on one thread, so the accumulated total can
  // never exceed the root span's duration.
  const Node* root = nullptr;
  if (!options.root.empty()) {
    for (const Node& node : nodes) {
      if (node.name != options.root) continue;
      if (root == nullptr || node.Seconds() > root->Seconds()) root = &node;
    }
  } else {
    for (const auto& [tid, indices] : top_level) {
      for (size_t index : indices) {
        const Node& node = nodes[index];
        if (root == nullptr || node.Seconds() > root->Seconds()) root = &node;
      }
    }
  }
  if (root != nullptr) {
    analysis.root = root->name;
    const Node* current = root;
    for (;;) {
      CriticalPathStep step;
      step.name = current->name;
      step.tid = current->tid;
      step.span_seconds = current->Seconds();
      step.self_seconds = SelfSeconds(*current, nodes);
      analysis.critical_path_seconds += step.self_seconds;
      analysis.critical_path.push_back(std::move(step));
      const Node* next = nullptr;
      for (size_t child : current->children) {
        if (next == nullptr || nodes[child].Seconds() > next->Seconds()) {
          next = &nodes[child];
        }
      }
      if (next == nullptr) break;
      current = next;
    }
  }
  return analysis;
}

// ---------------------------------------------------------------------------
// profile.json (schema v1)

std::string ProfileJson(const TraceAnalysis& analysis,
                        const SamplerSummary& sampler,
                        const std::vector<std::string>& folded_lines) {
  std::string out;
  out += "{\"schema_version\":1,\"kind\":\"gly.profile\",\n";
  out += "\"root\":\"" + JsonEscape(analysis.root) + "\",";
  out += StringPrintf("\"wall_seconds\":%.6f,", analysis.wall_seconds);
  out += StringPrintf("\"critical_path_seconds\":%.6f,",
                      analysis.critical_path_seconds);
  out += StringPrintf("\"completed_spans\":%zu,\n", analysis.completed_spans);
  out += "\"critical_path\":[\n";
  for (size_t i = 0; i < analysis.critical_path.size(); ++i) {
    const CriticalPathStep& step = analysis.critical_path[i];
    out += StringPrintf(
        "{\"name\":\"%s\",\"tid\":%u,\"span_seconds\":%.6f,"
        "\"self_seconds\":%.6f}%s\n",
        JsonEscape(step.name).c_str(), step.tid, step.span_seconds,
        step.self_seconds, i + 1 < analysis.critical_path.size() ? "," : "");
  }
  out += "],\n\"workers\":[\n";
  for (size_t i = 0; i < analysis.workers.size(); ++i) {
    const WorkerUtilization& worker = analysis.workers[i];
    out += StringPrintf(
        "{\"tid\":%u,\"busy_seconds\":%.6f,\"idle_seconds\":%.6f,"
        "\"utilization\":%.4f}%s\n",
        worker.tid, worker.busy_seconds, worker.idle_seconds,
        worker.utilization, i + 1 < analysis.workers.size() ? "," : "");
  }
  out += "],\n\"self_time\":[\n";
  for (size_t i = 0; i < analysis.self_time.size(); ++i) {
    const SelfTimeEntry& entry = analysis.self_time[i];
    out += StringPrintf(
        "{\"name\":\"%s\",\"self_seconds\":%.6f,\"count\":%llu}%s\n",
        JsonEscape(entry.name).c_str(), entry.self_seconds,
        static_cast<unsigned long long>(entry.count),
        i + 1 < analysis.self_time.size() ? "," : "");
  }
  out += StringPrintf(
      "],\n\"sampler\":{\"mode\":\"%s\",\"interval_us\":%llu,"
      "\"samples\":%llu,\"dropped\":%llu},\n",
      JsonEscape(sampler.mode).c_str(),
      static_cast<unsigned long long>(sampler.interval_us),
      static_cast<unsigned long long>(sampler.samples),
      static_cast<unsigned long long>(sampler.dropped));
  out += "\"folded\":[\n";
  for (size_t i = 0; i < folded_lines.size(); ++i) {
    out += "\"" + JsonEscape(folded_lines[i]) + "\"";
    out += i + 1 < folded_lines.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

namespace {

// Decodes every element of the array member `key` with `decode`.
template <typename T, typename Decode>
Status DecodeArray(const json::Value& doc, std::string_view key,
                   std::vector<T>* out, Decode decode) {
  GLY_ASSIGN_OR_RETURN(const json::Value::Array* elements, doc.GetArray(key));
  for (const json::Value& element : *elements) {
    T item;
    Status s = decode(element, &item);
    if (!s.ok()) return s.WithPrefix(std::string(key));
    out->push_back(std::move(item));
  }
  return Status::OK();
}

Status DecodeProfile(const json::Value& doc, ProfileSummary* profile) {
  auto kind = doc.Get<std::string>("kind");
  if (!kind.ok() || *kind != "gly.profile") {
    return Status::InvalidArgument(
        "not a profile.json document (kind != gly.profile)");
  }
  GLY_ASSIGN_OR_RETURN(double version, doc.Get<double>("schema_version"));
  if (version < 1) return Status::InvalidArgument("schema_version < 1");
  GLY_ASSIGN_OR_RETURN(profile->root, doc.GetOr<std::string>("root", ""));
  GLY_ASSIGN_OR_RETURN(profile->wall_seconds, doc.Get<double>("wall_seconds"));
  GLY_ASSIGN_OR_RETURN(profile->critical_path_seconds,
                       doc.Get<double>("critical_path_seconds"));
  GLY_ASSIGN_OR_RETURN(profile->completed_spans,
                       doc.Get<uint64_t>("completed_spans"));
  GLY_RETURN_NOT_OK(DecodeArray(
      doc, "critical_path", &profile->critical_path,
      [](const json::Value& e, CriticalPathStep* step) -> Status {
        GLY_ASSIGN_OR_RETURN(step->name, e.Get<std::string>("name"));
        GLY_ASSIGN_OR_RETURN(step->tid, e.Get<uint32_t>("tid"));
        GLY_ASSIGN_OR_RETURN(step->span_seconds, e.Get<double>("span_seconds"));
        GLY_ASSIGN_OR_RETURN(step->self_seconds, e.Get<double>("self_seconds"));
        return Status::OK();
      }));
  GLY_RETURN_NOT_OK(DecodeArray(
      doc, "workers", &profile->workers,
      [](const json::Value& e, WorkerUtilization* worker) -> Status {
        GLY_ASSIGN_OR_RETURN(worker->tid, e.Get<uint32_t>("tid"));
        GLY_ASSIGN_OR_RETURN(worker->busy_seconds,
                             e.Get<double>("busy_seconds"));
        GLY_ASSIGN_OR_RETURN(worker->idle_seconds,
                             e.Get<double>("idle_seconds"));
        GLY_ASSIGN_OR_RETURN(worker->utilization, e.Get<double>("utilization"));
        return Status::OK();
      }));
  GLY_RETURN_NOT_OK(DecodeArray(
      doc, "self_time", &profile->self_time,
      [](const json::Value& e, SelfTimeEntry* entry) -> Status {
        GLY_ASSIGN_OR_RETURN(entry->name, e.Get<std::string>("name"));
        GLY_ASSIGN_OR_RETURN(entry->self_seconds,
                             e.Get<double>("self_seconds"));
        GLY_ASSIGN_OR_RETURN(entry->count, e.Get<uint64_t>("count"));
        return Status::OK();
      }));
  const json::Value* sampler = doc.Find("sampler");
  if (sampler == nullptr || sampler->object() == nullptr) {
    return Status::InvalidArgument("missing sampler block");
  }
  SamplerSummary* out = &profile->sampler;
  GLY_ASSIGN_OR_RETURN(out->mode, sampler->Get<std::string>("mode"));
  GLY_ASSIGN_OR_RETURN(out->interval_us, sampler->Get<uint64_t>("interval_us"));
  GLY_ASSIGN_OR_RETURN(out->samples, sampler->Get<uint64_t>("samples"));
  GLY_ASSIGN_OR_RETURN(out->dropped, sampler->Get<uint64_t>("dropped"));
  return DecodeArray(doc, "folded", &profile->folded,
                     [](const json::Value& e, std::string* line) -> Status {
                       GLY_ASSIGN_OR_RETURN(*line, e.As<std::string>());
                       return Status::OK();
                     });
}

}  // namespace

Result<ProfileSummary> ParseProfileJson(std::string_view json) {
  ProfileSummary profile;
  auto doc = json::Parse(json);
  Status s = doc.ok() ? DecodeProfile(*doc, &profile) : doc.status();
  if (!s.ok()) return s.WithPrefix("profile.json");
  return profile;
}

}  // namespace gly::trace
