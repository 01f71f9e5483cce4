// Unit tests for the common module: Status/Result, Config, RNG, histogram,
// thread pool, memory budget, string utilities, CSV, temp dirs.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/config.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "common/histogram.h"
#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/temp_dir.h"
#include "common/threadpool.h"
#include "csv_reader.h"

namespace gly {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "io-error: disk on fire");
}

TEST(StatusTest, CopySemantics) {
  Status a = Status::NotFound("x");
  Status b = a;
  EXPECT_EQ(a, b);
  b = Status::OK();
  EXPECT_TRUE(b.ok());
  EXPECT_TRUE(a.IsNotFound());
}

TEST(StatusTest, WithPrefixPrependsContext) {
  Status s = Status::InvalidArgument("bad key").WithPrefix("config");
  EXPECT_EQ(s.message(), "config: bad key");
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_TRUE(Status::OK().WithPrefix("x").ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 10; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "unknown");
  }
}

// ----------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Timeout("slow");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  GLY_ASSIGN_OR_RETURN(int h, Half(x));
  GLY_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());
}

// ----------------------------------------------------------------- Config

TEST(ConfigTest, ParsesKeysSectionsComments) {
  auto config = Config::Parse(
      "# comment\n"
      "a = 1\n"
      "flag = true\n"
      "[pregel]\n"
      "workers = 8\n"
      "rate = 2.5\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(*config->GetUint("a"), 1u);
  EXPECT_TRUE(*config->GetBool("flag"));
  EXPECT_EQ(*config->GetUint("pregel.workers"), 8u);
  EXPECT_DOUBLE_EQ(*config->GetDouble("pregel.rate"), 2.5);
}

TEST(ConfigTest, RejectsMalformedLines) {
  EXPECT_FALSE(Config::Parse("no equals sign").ok());
  EXPECT_FALSE(Config::Parse("[unterminated\n").ok());
  EXPECT_FALSE(Config::Parse("= value\n").ok());
}

TEST(ConfigTest, TypedGetterErrors) {
  auto config = Config::Parse("x = notanumber\n");
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->GetUint("x").status().IsInvalidArgument());
  EXPECT_TRUE(config->GetUint("missing").status().IsNotFound());
}

TEST(ConfigTest, ScopedExtractsPrefix) {
  auto config = Config::Parse("giraph.workers = 4\ngiraph.x = y\nother.z = 1\n");
  ASSERT_TRUE(config.ok());
  Config scoped = config->Scoped("giraph");
  EXPECT_EQ(scoped.size(), 2u);
  EXPECT_EQ(*scoped.GetUint("workers"), 4u);
  EXPECT_FALSE(scoped.Has("z"));
}

TEST(ConfigTest, RoundTripsThroughToString) {
  Config a = *Config::Parse("x = 1\nname = value with spaces\n");
  Config b = *Config::Parse(a.ToString());
  EXPECT_EQ(b.ToString(), a.ToString());
}

TEST(ConfigTest, BoolSpellings) {
  Config c = *Config::Parse("a=yes\nb=off\nc=1\nd=False\n");
  EXPECT_TRUE(*c.GetBool("a"));
  EXPECT_FALSE(*c.GetBool("b"));
  EXPECT_TRUE(*c.GetBool("c"));
  EXPECT_FALSE(*c.GetBool("d"));
}

// -------------------------------------------------------------------- RNG

TEST(RandomTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, DeriveSeedIndependentStreams) {
  uint64_t s1 = DeriveSeed(42, 0);
  uint64_t s2 = DeriveSeed(42, 1);
  EXPECT_NE(s1, s2);
  EXPECT_EQ(DeriveSeed(42, 0), s1);  // stable
}

TEST(RandomTest, GeometricMeanMatches) {
  Rng rng(11);
  const double p = 0.25;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(SampleGeometric(rng, p));
  EXPECT_NEAR(sum / n, 1.0 / p, 0.05);
}

TEST(RandomTest, PoissonMeanMatchesSmallAndLargeLambda) {
  Rng rng(13);
  for (double lambda : {2.5, 80.0}) {
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(SamplePoisson(rng, lambda));
    EXPECT_NEAR(sum / n, lambda, lambda * 0.03);
  }
}

TEST(RandomTest, ZetaSamplerTailHeavierForSmallerAlpha) {
  Rng rng(17);
  ZetaSampler heavy(1.5, 1 << 20);
  ZetaSampler light(3.0, 1 << 20);
  uint64_t heavy_big = 0;
  uint64_t light_big = 0;
  for (int i = 0; i < 50000; ++i) {
    if (heavy.Sample(rng) > 10) ++heavy_big;
    if (light.Sample(rng) > 10) ++light_big;
  }
  EXPECT_GT(heavy_big, light_big * 5);
}

TEST(RandomTest, ZetaSamplerRespectsTruncation) {
  Rng rng(19);
  ZetaSampler z(1.2, 50);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = z.Sample(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 50u);
  }
}

TEST(RandomTest, AliasTableMatchesWeights) {
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  Rng rng(23);
  std::vector<uint64_t> counts(4, 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(rng)];
  for (size_t i = 0; i < 4; ++i) {
    double expected = weights[i] / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, expected, 0.01);
  }
}

TEST(RandomTest, WeibullDegreesArePositive) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(SampleWeibullDegree(rng, 0.7, 10.0), 1u);
  }
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, BasicStatistics) {
  Histogram h;
  h.Add(1, 2);  // 1, 1
  h.Add(4);     // 4
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.0);
  EXPECT_EQ(h.Max(), 4u);
  EXPECT_EQ(h.CountOf(1), 2u);
  EXPECT_EQ(h.CountOf(9), 0u);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Max(), 0u);
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.Submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForChunkedPartitions) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  pool.ParallelForChunked(997, [&](size_t b, size_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 997u);
}

TEST(ThreadPoolTest, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, RangedParallelForCoversHalfOpenRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(200, 900, /*grain=*/64,
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i >= 200 && i < 900 ? 1 : 0) << i;
  }
}

TEST(ThreadPoolTest, RangedParallelForChunkedRespectsGrain) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  std::atomic<size_t> max_chunk{0};
  pool.ParallelForChunked(0, 1000, /*grain=*/600, [&](size_t b, size_t e) {
    total.fetch_add(e - b);
    size_t len = e - b;
    size_t seen = max_chunk.load();
    while (len > seen && !max_chunk.compare_exchange_weak(seen, len)) {
    }
  });
  EXPECT_EQ(total.load(), 1000u);
  // grain = 600 over 1000 items allows at most ceil(1000/600) = 2 chunks,
  // so some chunk must span at least 500 items.
  EXPECT_GE(max_chunk.load(), 500u);
}

TEST(ThreadPoolTest, RangedEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(10, 10, 1, [](size_t) { FAIL(); });
  pool.ParallelForChunked(5, 5, 1, [](size_t, size_t) { FAIL(); });
}

TEST(ThreadPoolTest, ParallelForPropagatesWorkerException) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  try {
    pool.ParallelFor(0, 1000, /*grain=*/8, [&](size_t i) {
      if (i == 613) throw std::runtime_error("worker 613 failed");
      hits[i].fetch_add(1);
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 613 failed");
  }
  // The throw aborts the throwing chunk, so its tail never runs — but no
  // index is ever visited twice, the throwing index itself is skipped, and
  // the pool is still usable afterwards.
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_LE(hits[i].load(), 1) << i;
  }
  EXPECT_EQ(hits[613].load(), 0);
  EXPECT_EQ(pool.Submit([] { return 5; }).get(), 5);
}

// ----------------------------------------------------------- MemoryBudget

TEST(MemoryBudgetTest, ChargesAndReleases) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.Charge(600, "a").ok());
  EXPECT_EQ(budget.used(), 600u);
  Status s = budget.Charge(500, "b");
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(budget.used(), 600u);  // failed charge rolls back
  budget.Release(600);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 600u);
}

TEST(MemoryBudgetTest, UnlimitedWhenZero) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.Charge(1ULL << 40, "huge").ok());
}

TEST(MemoryBudgetTest, ScopedChargeReleasesOnDestruction) {
  MemoryBudget budget(100);
  {
    ASSERT_TRUE(budget.Charge(80, "x").ok());
    ScopedCharge charge(&budget, 80);
    EXPECT_EQ(budget.used(), 80u);
  }
  EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryBudgetTest, ScopedChargeMoves) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.Charge(50, "x").ok());
  ScopedCharge a(&budget, 50);
  ScopedCharge b = std::move(a);
  a.ReleaseNow();  // no-op after move
  EXPECT_EQ(budget.used(), 50u);
  b.ReleaseNow();
  EXPECT_EQ(budget.used(), 0u);
}

// ------------------------------------------------------------ string_util

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, TrimAndStartsWith) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringUtilTest, ParseNumbers) {
  EXPECT_EQ(*ParseUint64(" 17 "), 17u);
  EXPECT_DOUBLE_EQ(*ParseDouble("2.5e3"), 2500.0);
  EXPECT_FALSE(ParseUint64("12x").ok());
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatSeconds(0.0005), "500.0 us");
  EXPECT_EQ(FormatSeconds(2.0), "2.00 s");
  EXPECT_EQ(StringPrintf("%d-%s", 3, "x"), "3-x");
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, QuotesSpecialFields) {
  std::ostringstream out;
  CsvWriter csv(&out);
  csv.WriteRow({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(out.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(CsvTest, BuilderApi) {
  std::ostringstream out;
  CsvWriter csv(&out);
  csv.Field(std::string("a")).Field(uint64_t{7}).Field(2.5);
  csv.EndRow();
  EXPECT_EQ(out.str(), "a,7,2.5\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(CsvTest, WriteParseRoundTripsHostileFields) {
  // The report's status_detail / cancel_reason / top_phases columns carry
  // free-form engine text; ParseCsvLine must be the exact inverse of
  // WriteRow for anything that can appear there.
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "", "trailing,comma,"},
      {"a,b", "she said \"hi\"", "\"\"", "''"},
      {"line\nbreak", "cr\r\nlf", "tab\tstop"},
      {"unicode ✓", " leading space", "trailing space "},
      {"quote at end\"", "\"quote at start", "only\"middle\"quotes"},
  };
  for (const auto& row : rows) {
    std::ostringstream out;
    CsvWriter csv(&out);
    csv.WriteRow(row);
    std::string line = out.str();
    ASSERT_FALSE(line.empty());
    line.pop_back();  // WriteRow appends the record's trailing '\n'
    EXPECT_EQ(ParseCsvLine(line), row) << "serialized as: " << line;
  }
}

// ------------------------------------------------------------------ CRC32C

TEST(Crc32cTest, DetectsCorruption) {
  const char a[] = "hello";
  const char b[] = "hellp";
  EXPECT_NE(Crc32c(a, 5), Crc32c(b, 5));
  EXPECT_EQ(Crc32c(a, 5), Crc32c(a, 5));
}

// ---------------------------------------------------------------- TempDir

TEST(TempDirTest, CreatesAndRemoves) {
  std::string path;
  {
    auto dir = TempDir::Create("gly-test");
    ASSERT_TRUE(dir.ok());
    path = dir->path();
    EXPECT_TRUE(std::filesystem::exists(path));
    std::ofstream(dir->File("f.txt")) << "x";
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TempDirTest, UniquePaths) {
  auto a = TempDir::Create("gly-test");
  auto b = TempDir::Create("gly-test");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->path(), b->path());
}

}  // namespace
}  // namespace gly
