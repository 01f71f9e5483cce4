// Golden tests for the tracing layer (common/trace.h): with a FakeClock a
// whole trace is a deterministic string, so the Chrome-trace export is a
// tested contract — byte-for-byte — not best-effort logging. Also covers
// cross-thread spans, attribute escaping, well-formedness checking, span
// aggregation, and a concurrent stress case for the TSan stage.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_dir.h"
#include "common/trace.h"

namespace gly::trace {
namespace {

// ------------------------------------------------------------ inert paths

TEST(TraceTest, SpanWithoutActiveTracerIsInert) {
  ASSERT_EQ(ActiveTracer(), nullptr);
  TraceSpan span("pregel.superstep", "pregel");
  EXPECT_FALSE(span.enabled());
  span.SetAttribute("active", uint64_t{42});  // must not crash
  Instant("fault.injected", "fault");         // no-op
}

TEST(TraceTest, ScopedTracerInstallsAndRestores) {
  Tracer tracer;
  ASSERT_EQ(ActiveTracer(), nullptr);
  {
    ScopedTracer active(&tracer);
    EXPECT_EQ(ActiveTracer(), &tracer);
    {
      Tracer inner;
      ScopedTracer nested(&inner);
      EXPECT_EQ(ActiveTracer(), &inner);
    }
    EXPECT_EQ(ActiveTracer(), &tracer);
  }
  EXPECT_EQ(ActiveTracer(), nullptr);
}

// A tracer swapped out mid-span still receives the span's E event: B/E
// stay matched per tracer even across scope changes.
TEST(TraceTest, SpanEndsOnTheTracerItBeganOn) {
  Tracer a;
  Tracer b;
  {
    ScopedTracer scope_a(&a);
    TraceSpan span("harness.run", "harness");
    {
      ScopedTracer scope_b(&b);
      // span destructs while b is active; its E must still go to a.
    }
  }
  std::vector<TraceEvent> events = a.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_EQ(b.Snapshot().size(), 0u);
}

// ---------------------------------------------------------- golden traces

TEST(TraceTest, GoldenNestedSpansUnderFakeClock) {
  FakeClock clock(100, 10);  // reads: 100, 110, 120, ...
  Tracer tracer(&clock);
  {
    ScopedTracer active(&tracer);
    TraceSpan outer("harness.run", "harness");
    outer.SetAttribute("attempt", uint64_t{1});
    {
      TraceSpan inner("pregel.superstep", "pregel");
      inner.SetAttribute("active", uint64_t{8});
    }
    Instant("fault.injected", "fault", {{"site", "pregel.worker.compute"}});
  }
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"metadata\":{\"schema_version\":1,"
      "\"kind\":\"gly.trace\"},\"traceEvents\":[\n"
      "{\"name\":\"harness.run\",\"cat\":\"harness\",\"ph\":\"B\",\"ts\":100,"
      "\"pid\":1,\"tid\":1},\n"
      "{\"name\":\"pregel.superstep\",\"cat\":\"pregel\",\"ph\":\"B\","
      "\"ts\":110,\"pid\":1,\"tid\":1},\n"
      "{\"name\":\"pregel.superstep\",\"cat\":\"pregel\",\"ph\":\"E\","
      "\"ts\":120,\"pid\":1,\"tid\":1,\"args\":{\"active\":\"8\"}},\n"
      "{\"name\":\"fault.injected\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":130,"
      "\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"site\":"
      "\"pregel.worker.compute\"}},\n"
      "{\"name\":\"harness.run\",\"cat\":\"harness\",\"ph\":\"E\",\"ts\":140,"
      "\"pid\":1,\"tid\":1,\"args\":{\"attempt\":\"1\"}}\n"
      "]}\n";
  EXPECT_EQ(tracer.ToChromeJson(), expected);

  // The golden document round-trips through the validator.
  auto check = ValidateChromeTraceJson(tracer.ToChromeJson());
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->events, 5u);
  EXPECT_EQ(check->completed_spans, 2u);
  EXPECT_EQ(check->unmatched_begins, 0u);
  EXPECT_EQ(check->max_depth, 2u);
}

TEST(TraceTest, GoldenEmptyTrace) {
  Tracer tracer;
  EXPECT_EQ(tracer.ToChromeJson(),
            "{\"displayTimeUnit\":\"ms\",\"metadata\":{\"schema_version\":1,"
            "\"kind\":\"gly.trace\"},\"traceEvents\":[\n]}\n");
  auto check = ValidateChromeTraceJson(tracer.ToChromeJson());
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->events, 0u);
}

TEST(TraceTest, FakeClockAdvanceMovesTimestamps) {
  FakeClock clock(0, 1);
  Tracer tracer(&clock);
  tracer.Instant("a", "t");  // ts 0
  clock.Advance(500);
  tracer.Instant("b", "t");  // ts 501 (one tick consumed by the first read)
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts_micros, 0u);
  EXPECT_EQ(events[1].ts_micros, 501u);
}

// ------------------------------------------------------ cross-thread spans

TEST(TraceTest, CrossThreadSpansGetStableVirtualTids) {
  FakeClock clock(0, 1);
  Tracer tracer(&clock);
  ScopedTracer active(&tracer);
  {
    TraceSpan main_span("harness.run", "harness");
    // Both workers are alive concurrently (so their std::thread::ids are
    // distinct — a joined thread's id can be reused) and worker B waits
    // for A's span, making the first-use tid order deterministic:
    // main = 1, worker A = 2, worker B = 3.
    std::promise<void> a_done;
    std::shared_future<void> a_finished = a_done.get_future().share();
    std::thread a([&a_done] {
      { TraceSpan s("etl.parse.chunk", "etl"); }
      a_done.set_value();
    });
    std::thread b([a_finished] {
      a_finished.wait();
      TraceSpan s("etl.parse.chunk", "etl");
    });
    a.join();
    b.join();
  }
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].tid, 1u);  // harness.run B
  EXPECT_EQ(events[1].tid, 2u);  // worker A B
  EXPECT_EQ(events[2].tid, 2u);  // worker A E
  EXPECT_EQ(events[3].tid, 3u);  // worker B B
  EXPECT_EQ(events[4].tid, 3u);  // worker B E
  EXPECT_EQ(events[5].tid, 1u);  // harness.run E

  auto check = CheckWellFormed(events);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->completed_spans, 3u);
  EXPECT_EQ(check->unmatched_begins, 0u);
  // Nesting is per-thread: each worker span is depth 1 on its own thread.
  EXPECT_EQ(check->max_depth, 1u);
}

// ------------------------------------------------------ attribute escaping

TEST(TraceTest, AttributeAndNameEscaping) {
  FakeClock clock(0, 1);
  Tracer tracer(&clock);
  {
    ScopedTracer active(&tracer);
    TraceSpan span("load \"quoted\"", "cat\\egory");
    span.SetAttribute("path", std::string("/tmp/a\nb\tc"));
  }
  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("load \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("cat\\\\egory"), std::string::npos);
  EXPECT_NE(json.find("/tmp/a\\nb\\tc"), std::string::npos);
  // Still a valid, well-formed document after escaping.
  auto check = ValidateChromeTraceJson(json);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->completed_spans, 1u);
}

// Names and args with control characters survive export and read-back.
TEST(TraceTest, ParseRoundTripsEscapedNamesAndArgs) {
  FakeClock clock(0, 1);
  Tracer tracer(&clock);
  {
    ScopedTracer active(&tracer);
    TraceSpan span("ctl\x01span", "cat\\egory");
    span.SetAttribute("arg", std::string("ctl\x01x"));
    span.SetAttribute("path", std::string("/tmp/a\nb\tc \"q\""));
  }
  auto events = ParseChromeTraceJson(tracer.ToChromeJson());
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  std::vector<TraceEvent> want = tracer.Snapshot();
  ASSERT_EQ(events->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*events)[i].name, want[i].name);
    EXPECT_EQ((*events)[i].category, want[i].category);
    EXPECT_EQ((*events)[i].phase, want[i].phase);
    EXPECT_EQ((*events)[i].args, want[i].args);
  }
}

// -------------------------------------------------------- well-formedness

TEST(TraceTest, CheckWellFormedCountsUnmatchedBegins) {
  FakeClock clock(0, 1);
  Tracer tracer(&clock);
  tracer.Begin("outer", "t");
  tracer.Begin("inner", "t");
  tracer.End("inner", "t");
  // `outer` never closes — a window sliced out of a live trace can end
  // mid-span; that is counted, not an error.
  auto check = CheckWellFormed(tracer.Snapshot());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->completed_spans, 1u);
  EXPECT_EQ(check->unmatched_begins, 1u);
  EXPECT_EQ(check->max_depth, 2u);
}

TEST(TraceTest, CheckWellFormedRejectsMismatchedEnd) {
  FakeClock clock(0, 1);
  Tracer tracer(&clock);
  tracer.Begin("outer", "t");
  tracer.End("not-outer", "t");
  auto check = CheckWellFormed(tracer.Snapshot());
  EXPECT_TRUE(check.status().IsInvalidArgument());

  Tracer orphan(&clock);
  orphan.End("nothing-open", "t");
  EXPECT_TRUE(CheckWellFormed(orphan.Snapshot()).status().IsInvalidArgument());
}

TEST(TraceTest, ValidateRejectsStructurallyBrokenDocuments) {
  // Not JSON at all.
  EXPECT_FALSE(ValidateChromeTraceJson("not json").ok());
  // No traceEvents array.
  EXPECT_FALSE(ValidateChromeTraceJson("{\"foo\":1}").ok());
  // Event missing required keys (no ts).
  EXPECT_FALSE(ValidateChromeTraceJson(
                   "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\","
                   "\"pid\":1,\"tid\":1}]}")
                   .ok());
  // Structurally valid JSON but ill-formed nesting (E closes wrong span).
  EXPECT_FALSE(
      ValidateChromeTraceJson(
          "{\"traceEvents\":["
          "{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1},"
          "{\"name\":\"b\",\"ph\":\"E\",\"ts\":2,\"pid\":1,\"tid\":1}]}")
          .ok());
  // Trailing garbage after the document.
  EXPECT_FALSE(ValidateChromeTraceJson("{\"traceEvents\":[]} extra").ok());
  // Events that are not objects.
  EXPECT_FALSE(ValidateChromeTraceJson("{\"traceEvents\":[1,2]}").ok());
}

TEST(TraceTest, ValidateAcceptsForeignButEquivalentDocuments) {
  // Whitespace, reordered keys, and unknown keys are all fine — the
  // validator checks structure, not byte layout.
  auto check = ValidateChromeTraceJson(
      "{ \"otherTool\": {\"x\": [1, 2, null, true]},\n"
      "  \"traceEvents\": [\n"
      "    {\"ph\": \"B\", \"ts\": 5, \"tid\": 7, \"pid\": 2, "
      "\"name\": \"z\", \"extra\": -1.5e3},\n"
      "    {\"ph\": \"E\", \"ts\": 9, \"tid\": 7, \"pid\": 2, "
      "\"name\": \"z\"}\n"
      "  ]\n"
      "}");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->completed_spans, 1u);
}

// ------------------------------------------------------------ aggregation

TEST(TraceTest, AggregateSpansSortsByTotalDuration) {
  FakeClock clock(0, 0);  // manual time control
  Tracer tracer(&clock);
  // load: one span of 100us. run: two spans of 30us each (total 60us).
  tracer.Begin("load", "t");
  clock.Advance(100);
  tracer.End("load", "t");
  for (int i = 0; i < 2; ++i) {
    tracer.Begin("run", "t");
    clock.Advance(30);
    tracer.End("run", "t");
  }
  std::vector<PhaseTotal> phases = AggregateSpans(tracer.Snapshot());
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "load");
  EXPECT_NEAR(phases[0].seconds, 100e-6, 1e-12);
  EXPECT_EQ(phases[0].count, 1u);
  EXPECT_EQ(phases[1].name, "run");
  EXPECT_NEAR(phases[1].seconds, 60e-6, 1e-12);
  EXPECT_EQ(phases[1].count, 2u);
}

TEST(TraceTest, AggregateSpansToleratesIllFormedInput) {
  FakeClock clock(0, 1);
  Tracer tracer(&clock);
  tracer.End("stray", "t");  // E with no B: skipped, not fatal
  tracer.Begin("ok", "t");
  tracer.End("ok", "t");
  std::vector<PhaseTotal> phases = AggregateSpans(tracer.Snapshot());
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "ok");
}

// --------------------------------------------------------------- snapshot

TEST(TraceTest, SnapshotSinceSlicesWindows) {
  FakeClock clock(0, 1);
  Tracer tracer(&clock);
  tracer.Instant("before", "t");
  size_t mark = tracer.event_count();
  tracer.Instant("after", "t");
  std::vector<TraceEvent> window = tracer.SnapshotSince(mark);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].name, "after");
  EXPECT_TRUE(tracer.SnapshotSince(999).empty());
}

TEST(TraceTest, WriteToProducesLoadableFile) {
  auto dir = TempDir::Create("gly-trace");
  ASSERT_TRUE(dir.ok());
  FakeClock clock(0, 1);
  Tracer tracer(&clock);
  {
    ScopedTracer active(&tracer);
    TraceSpan span("harness.run", "harness");
  }
  std::string path = dir->File("trace.json");
  ASSERT_TRUE(tracer.WriteTo(path).ok());
  std::string contents;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n = fread(buf, 1, sizeof(buf), f);
    fclose(f);
    contents.assign(buf, n);
  }
  EXPECT_EQ(contents, tracer.ToChromeJson());
  EXPECT_TRUE(ValidateChromeTraceJson(contents).ok());
  EXPECT_TRUE(
      tracer.WriteTo(dir->File("no/such/subdir/trace.json")).IsIOError());
}

// ------------------------------------------------------ concurrent stress

// Many threads emitting nested spans concurrently; the result must be a
// well-formed trace with every span accounted for. Runs under the TSan CI
// stage via the `observability` label.
TEST(TraceTest, ConcurrentSpansStayWellFormed) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  Tracer tracer;
  {
    ScopedTracer active(&tracer);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          TraceSpan outer("stress.outer", "stress");
          outer.SetAttribute("i", uint64_t{static_cast<uint64_t>(i)});
          TraceSpan inner("stress.inner", "stress");
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  auto check = CheckWellFormed(tracer.Snapshot());
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->completed_spans,
            static_cast<size_t>(2 * kThreads * kSpansPerThread));
  EXPECT_EQ(check->unmatched_begins, 0u);
  EXPECT_TRUE(ValidateChromeTraceJson(tracer.ToChromeJson()).ok());
}

}  // namespace
}  // namespace gly::trace
