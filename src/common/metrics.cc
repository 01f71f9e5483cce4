#include "common/metrics.h"

#include <cstdio>

#include "common/json.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace gly::metrics {

namespace internal {
std::atomic<Registry*> g_active_registry{nullptr};
}  // namespace internal

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

HistogramMetric* Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<HistogramMetric>())
             .first;
  }
  return it->second.get();
}

std::map<std::string, MetricValue> Registry::Snapshot() const {
  std::map<std::string, MetricValue> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, histogram] : histograms_) {
    MetricValue v;
    v.type = MetricValue::Type::kHistogram;
    v.histogram = histogram->Snapshot();
    out[name] = std::move(v);
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricValue v;
    v.type = MetricValue::Type::kGauge;
    v.gauge = gauge->Value();
    out[name] = v;
  }
  for (const auto& [name, counter] : counters_) {
    MetricValue v;
    v.type = MetricValue::Type::kCounter;
    v.counter = counter->Value();
    out[name] = v;
  }
  return out;
}

std::string Registry::ToJsonl() const {
  std::map<std::string, MetricValue> snapshot = Snapshot();
  std::string out = "{\"schema_version\":1,\"kind\":\"gly.metrics\"}\n";
  for (const auto& [name, v] : snapshot) {
    out += "{\"name\":\"";
    out += JsonEscape(name);
    out += "\",";
    switch (v.type) {
      case MetricValue::Type::kCounter:
        out += "\"type\":\"counter\",\"value\":";
        out += std::to_string(v.counter);
        break;
      case MetricValue::Type::kGauge:
        out += "\"type\":\"gauge\",\"value\":";
        out += StringPrintf("%.9g", v.gauge);
        break;
      case MetricValue::Type::kHistogram: {
        const Histogram& h = v.histogram;
        out += "\"type\":\"histogram\",\"count\":";
        out += std::to_string(h.total_count());
        out += ",\"min\":";
        out += std::to_string(h.Min());
        out += ",\"max\":";
        out += std::to_string(h.Max());
        out += ",\"mean\":";
        out += StringPrintf("%.9g", h.Mean());
        out += ",\"p50\":";
        out += std::to_string(h.Percentile(0.5));
        out += ",\"p95\":";
        out += std::to_string(h.Percentile(0.95));
        out += ",\"p99\":";
        out += std::to_string(h.Percentile(0.99));
        out += ",\"items\":[";
        bool first = true;
        for (const auto& [value, count] : h.Items()) {
          if (!first) out += ',';
          first = false;
          out += '[';
          out += std::to_string(value);
          out += ',';
          out += std::to_string(count);
          out += ']';
        }
        out += ']';
        break;
      }
    }
    out += "}\n";
  }
  return out;
}

namespace {

// One metric line of metrics.jsonl, added to *out. Histograms are rebuilt
// from their exact `items` pairs; the summary fields are derived.
Status DecodeMetricLine(const json::Value& line, uint64_t schema_version,
                        std::map<std::string, MetricValue>* out) {
  GLY_ASSIGN_OR_RETURN(std::string name, line.Get<std::string>("name"));
  GLY_ASSIGN_OR_RETURN(std::string type, line.Get<std::string>("type"));
  MetricValue v;
  if (type == "counter") {
    v.type = MetricValue::Type::kCounter;
    GLY_ASSIGN_OR_RETURN(v.counter, line.Get<uint64_t>("value"));
  } else if (type == "gauge") {
    v.type = MetricValue::Type::kGauge;
    GLY_ASSIGN_OR_RETURN(v.gauge, line.Get<double>("value"));
  } else if (type == "histogram") {
    v.type = MetricValue::Type::kHistogram;
    GLY_ASSIGN_OR_RETURN(const json::Value::Array* items,
                         line.GetArray("items"));
    for (const json::Value& item : *items) {
      const json::Value::Array* pair = item.array();
      if (pair == nullptr || pair->size() != 2) {
        return Status::InvalidArgument("malformed histogram pair: " + name);
      }
      GLY_ASSIGN_OR_RETURN(uint64_t value, (*pair)[0].As<uint64_t>());
      GLY_ASSIGN_OR_RETURN(uint64_t count, (*pair)[1].As<uint64_t>());
      v.histogram.Add(value, count);
    }
  } else if (schema_version <= 1) {
    // Version 1 has a closed type set, so an unknown type there is
    // corruption; newer versions may add types this reader skips.
    return Status::InvalidArgument("unknown metric type \"" + type + "\"");
  } else {
    return Status::OK();
  }
  (*out)[name] = std::move(v);
  return Status::OK();
}

}  // namespace

Result<std::map<std::string, MetricValue>> Registry::FromJsonl(
    std::string_view text) {
  std::map<std::string, MetricValue> out;
  uint64_t schema_version = 0;  // 0 until the header line is read
  for (const std::string& raw_line : Split(text, '\n')) {
    std::string_view line = Trim(raw_line);
    if (line.empty()) continue;
    auto doc = json::Parse(line);
    if (!doc.ok()) return doc.status().WithPrefix("metrics jsonl");
    if (schema_version == 0) {
      // Forward-compat: accept any schema_version >= 1 so readers built
      // against v1 can still load files from newer writers; unknown keys
      // anywhere are ignored, and under a newer version unknown metric
      // *types* are skipped instead of rejected.
      auto version = doc->Get<uint64_t>("schema_version");
      auto kind = doc->Get<std::string>("kind");
      if (!version.ok() || *version < 1 || !kind.ok() ||
          *kind != "gly.metrics") {
        return Status::InvalidArgument(
            "metrics jsonl: bad or missing schema header: " +
            std::string(line));
      }
      schema_version = *version;
      continue;
    }
    Status decoded = DecodeMetricLine(*doc, schema_version, &out);
    if (!decoded.ok()) return decoded.WithPrefix("metrics jsonl");
  }
  if (schema_version == 0) {
    return Status::InvalidArgument("metrics jsonl: empty document");
  }
  return out;
}

Status Registry::WriteTo(const std::string& path) const {
  std::string jsonl = ToJsonl();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open metrics file for writing: " + path);
  }
  size_t written = std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  int close_rc = std::fclose(f);
  if (written != jsonl.size() || close_rc != 0) {
    return Status::IOError("short write to metrics file: " + path);
  }
  return Status::OK();
}

}  // namespace gly::metrics
