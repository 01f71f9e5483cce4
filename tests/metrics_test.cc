// Tests for the metrics registry (common/metrics.h): counter/gauge/
// histogram semantics, the schema-versioned metrics.jsonl round-trip
// (serialize -> parse -> compare, mirroring the report's ResultFromJson
// round-trip), histogram merge correctness, and a concurrent-increment
// stress case for the TSan stage.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/temp_dir.h"

namespace gly::metrics {
namespace {

// ---------------------------------------------------------- basic metrics

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  Registry registry;
  Counter* c = registry.GetCounter("pregel.messages_sent");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  // Create-on-first-use returns stable pointers.
  EXPECT_EQ(registry.GetCounter("pregel.messages_sent"), c);

  Gauge* g = registry.GetGauge("harness.rss_bytes");
  g->Set(1.5);
  g->Set(2.5);  // last write wins
  EXPECT_EQ(g->Value(), 2.5);

  HistogramMetric* h = registry.GetHistogram("etl.chunk_edges");
  h->Observe(1);
  h->Observe(1);
  h->Observe(4);
  Histogram snap = h->Snapshot();
  EXPECT_EQ(snap.total_count(), 3u);
  EXPECT_EQ(snap.Min(), 1u);
  EXPECT_EQ(snap.Max(), 4u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 2.0);
}

TEST(MetricsTest, HistogramMergeFoldsObservations) {
  Histogram a;
  a.Add(1, 2);
  a.Add(10);
  Histogram b;
  b.Add(1);
  b.Add(5, 3);

  HistogramMetric metric;
  metric.MergeFrom(a);
  metric.MergeFrom(b);
  Histogram merged = metric.Snapshot();
  EXPECT_EQ(merged.total_count(), 7u);
  EXPECT_EQ(merged.CountOf(1), 3u);
  EXPECT_EQ(merged.CountOf(5), 3u);
  EXPECT_EQ(merged.CountOf(10), 1u);
  // Merge is equivalent to replaying the Add calls: summary stats match.
  Histogram replay;
  replay.Add(1, 3);
  replay.Add(5, 3);
  replay.Add(10);
  EXPECT_DOUBLE_EQ(merged.Mean(), replay.Mean());
  EXPECT_DOUBLE_EQ(merged.Variance(), replay.Variance());
}

TEST(MetricsTest, SnapshotNameCollisionCounterWins) {
  // Reusing one name across types is a caller bug, but the snapshot must
  // stay deterministic: counter wins over gauge wins over histogram.
  Registry registry;
  registry.GetHistogram("x")->Observe(1);
  registry.GetGauge("x")->Set(7.0);
  registry.GetCounter("x")->Add(3);
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.at("x").type, MetricValue::Type::kCounter);
  EXPECT_EQ(snapshot.at("x").counter, 3u);
}

// ------------------------------------------------------ scoped activation

TEST(MetricsTest, InlineHelpersAreNoOpsWithoutRegistry) {
  ASSERT_EQ(ActiveRegistry(), nullptr);
  AddCounter("nobody.listening");
  SetGauge("nobody.listening", 1.0);
  Observe("nobody.listening", 1);  // must not crash
}

TEST(MetricsTest, ScopedRegistryRoutesInlineHelpers) {
  Registry registry;
  {
    ScopedRegistry active(&registry);
    AddCounter("harness.cells");
    AddCounter("harness.cells", 2);
    SetGauge("harness.load_s", 0.25);
    Observe("etl.chunk_edges", 9);
  }
  EXPECT_EQ(ActiveRegistry(), nullptr);
  AddCounter("harness.cells", 100);  // after scope: dropped
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("harness.cells").counter, 3u);
  EXPECT_EQ(snapshot.at("harness.load_s").gauge, 0.25);
  EXPECT_EQ(snapshot.at("etl.chunk_edges").histogram.total_count(), 1u);
}

// -------------------------------------------------------- jsonl round-trip

TEST(MetricsTest, GoldenJsonl) {
  Registry registry;
  registry.GetCounter("a.count")->Add(3);
  registry.GetGauge("b.gauge")->Set(2.5);
  HistogramMetric* h = registry.GetHistogram("c.hist");
  h->Observe(1);
  h->Observe(1);
  h->Observe(4);
  EXPECT_EQ(registry.ToJsonl(),
            "{\"schema_version\":1,\"kind\":\"gly.metrics\"}\n"
            "{\"name\":\"a.count\",\"type\":\"counter\",\"value\":3}\n"
            "{\"name\":\"b.gauge\",\"type\":\"gauge\",\"value\":2.5}\n"
            "{\"name\":\"c.hist\",\"type\":\"histogram\",\"count\":3,"
            "\"min\":1,\"max\":4,\"mean\":2,\"p50\":1,\"p95\":1,\"p99\":1,"
            "\"items\":[[1,2],[4,1]]}\n");
}

TEST(MetricsTest, JsonlRoundTrip) {
  Registry registry;
  registry.GetCounter("pregel.messages_sent")->Add(12345);
  registry.GetCounter("graphdb.wal.appends")->Add(7);
  registry.GetGauge("harness.cpu_utilization")->Set(1.75);
  HistogramMetric* h = registry.GetHistogram("mapreduce.spill_bytes");
  h->Observe(0);
  h->Observe(4096);
  h->Observe(4096);
  h->Observe(65536);

  auto parsed = Registry::FromJsonl(registry.ToJsonl());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto original = registry.Snapshot();
  ASSERT_EQ(parsed->size(), original.size());
  for (const auto& [name, want] : original) {
    ASSERT_TRUE(parsed->count(name)) << name;
    const MetricValue& got = parsed->at(name);
    EXPECT_EQ(got.type, want.type) << name;
    EXPECT_EQ(got.counter, want.counter) << name;
    EXPECT_EQ(got.gauge, want.gauge) << name;
    EXPECT_EQ(got.histogram.Items(), want.histogram.Items()) << name;
    EXPECT_EQ(got.histogram.total_count(), want.histogram.total_count())
        << name;
  }
}

// Names carrying escapes JsonEscape writes come back byte for byte.
TEST(MetricsTest, JsonlRoundTripsEscapedNames) {
  Registry registry;
  const std::vector<std::string> names = {"a\nb", "tab\there", "ctl\x01x",
                                          "quote\"d", "back\\slash"};
  for (const std::string& name : names) registry.GetCounter(name)->Add(1);
  auto parsed = Registry::FromJsonl(registry.ToJsonl());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (const std::string& name : names) {
    ASSERT_EQ(parsed->count(name), 1u) << name;
    EXPECT_EQ(parsed->at(name).counter, 1u) << name;
  }
}

TEST(MetricsTest, FromJsonlRejectsBadDocuments) {
  // Empty / headerless.
  EXPECT_FALSE(Registry::FromJsonl("").ok());
  EXPECT_FALSE(
      Registry::FromJsonl("{\"name\":\"a\",\"type\":\"counter\",\"value\":1}")
          .ok());
  // Version zero / non-numeric versions are rejected.
  EXPECT_FALSE(
      Registry::FromJsonl("{\"schema_version\":0,\"kind\":\"gly.metrics\"}\n")
          .ok());
  EXPECT_FALSE(
      Registry::FromJsonl(
          "{\"schema_version\":\"x\",\"kind\":\"gly.metrics\"}\n")
          .ok());
  // Wrong kind.
  EXPECT_FALSE(
      Registry::FromJsonl("{\"schema_version\":1,\"kind\":\"gly.trace\"}\n")
          .ok());
  // Unknown metric type.
  EXPECT_FALSE(
      Registry::FromJsonl("{\"schema_version\":1,\"kind\":\"gly.metrics\"}\n"
                          "{\"name\":\"a\",\"type\":\"meter\",\"value\":1}\n")
          .ok());
  // Histogram without items.
  EXPECT_FALSE(
      Registry::FromJsonl("{\"schema_version\":1,\"kind\":\"gly.metrics\"}\n"
                          "{\"name\":\"a\",\"type\":\"histogram\"}\n")
          .ok());
  // Header alone is a valid, empty document.
  auto empty =
      Registry::FromJsonl("{\"schema_version\":1,\"kind\":\"gly.metrics\"}\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// Forward compatibility: files written by a newer tool version — a higher
// schema_version, extra keys per line, even whole metric types this reader
// has never heard of — must still load the metrics it does understand.
TEST(MetricsTest, FromJsonlToleratesFutureSchemas) {
  // Future schema version with known content parses fully.
  auto v2 = Registry::FromJsonl(
      "{\"schema_version\":2,\"kind\":\"gly.metrics\"}\n"
      "{\"name\":\"a\",\"type\":\"counter\",\"value\":7}\n");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2->at("a").counter, 7u);

  // Unknown keys ride along silently, on the header and on metric lines.
  auto extra = Registry::FromJsonl(
      "{\"schema_version\":1,\"kind\":\"gly.metrics\",\"writer\":\"v9\"}\n"
      "{\"name\":\"a\",\"type\":\"counter\",\"value\":3,\"unit\":\"ops\"}\n"
      "{\"name\":\"g\",\"shard\":4,\"type\":\"gauge\",\"value\":1.5}\n");
  ASSERT_TRUE(extra.ok()) << extra.status().ToString();
  EXPECT_EQ(extra->at("a").counter, 3u);
  EXPECT_EQ(extra->at("g").gauge, 1.5);

  // A metric type from the future is skipped under version >= 2 (it would
  // be rejected as corruption under version 1) and the rest still loads.
  auto skipped = Registry::FromJsonl(
      "{\"schema_version\":2,\"kind\":\"gly.metrics\"}\n"
      "{\"name\":\"m\",\"type\":\"meter\",\"value\":9}\n"
      "{\"name\":\"a\",\"type\":\"counter\",\"value\":2}\n");
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  EXPECT_EQ(skipped->count("m"), 0u);
  EXPECT_EQ(skipped->at("a").counter, 2u);
}

TEST(MetricsTest, WriteToRoundTripsThroughDisk) {
  auto dir = TempDir::Create("gly-metrics");
  ASSERT_TRUE(dir.ok());
  Registry registry;
  registry.GetCounter("harness.cells")->Add(4);
  std::string path = dir->File("metrics.jsonl");
  ASSERT_TRUE(registry.WriteTo(path).ok());
  std::string contents;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n = fread(buf, 1, sizeof(buf), f);
    fclose(f);
    contents.assign(buf, n);
  }
  auto parsed = Registry::FromJsonl(contents);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->at("harness.cells").counter, 4u);
  EXPECT_TRUE(registry.WriteTo(dir->File("no/such/dir/m.jsonl")).IsIOError());
}

// ------------------------------------------------------ concurrent stress

// Counters are incremented from many threads through the inline helper;
// the final value must be exact. Runs under the TSan CI stage via the
// `observability` label.
TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 10000;
  Registry registry;
  {
    ScopedRegistry active(&registry);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kIncrementsPerThread; ++i) {
          AddCounter("stress.count");
          Observe("stress.hist", static_cast<uint64_t>(i % 4));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("stress.count").counter,
            static_cast<uint64_t>(kThreads * kIncrementsPerThread));
  EXPECT_EQ(snapshot.at("stress.hist").histogram.total_count(),
            static_cast<uint64_t>(kThreads * kIncrementsPerThread));
}

}  // namespace
}  // namespace gly::metrics
