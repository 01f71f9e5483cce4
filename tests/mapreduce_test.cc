// Tests for the MapReduce engine: record files, job execution
// (spill/shuffle/combine), counters, and the algorithm chains.

#include <gtest/gtest.h>

#include <filesystem>

#include "common/fault_injection.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/temp_dir.h"
#include "harness/validator.h"
#include "mapreduce/graph_jobs.h"
#include "mapreduce/job.h"
#include "mapreduce/record.h"

namespace gly::mapreduce {
namespace {

// ------------------------------------------------------------ record files

TEST(RecordFileTest, RoundTrip) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> records = {
      {1, "alpha"}, {2, ""}, {~0ULL, std::string(1000, 'x')}};
  ASSERT_TRUE(WriteAllRecords(records, dir->File("r.bin")).ok());
  auto read = ReadAllRecords(dir->File("r.bin"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, records);
}

TEST(RecordFileTest, EmptyFile) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(WriteAllRecords({}, dir->File("empty.bin")).ok());
  auto read = ReadAllRecords(dir->File("empty.bin"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST(RecordFileTest, DetectsTruncation) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(WriteAllRecords({{1, "hello world"}}, dir->File("t.bin")).ok());
  std::filesystem::resize_file(dir->File("t.bin"), 14);  // cut into value
  auto read = ReadAllRecords(dir->File("t.bin"));
  EXPECT_FALSE(read.ok());
}

// ------------------------------------------------------------------- jobs

// Word-count-style job over integer keys: map emits (key % 10, "1"),
// reduce sums.
class ModMapper : public Mapper {
 public:
  void Map(const Record& input, Emitter* out, Counters* counters) override {
    out->Emit(input.key % 10, "1");
    counters->Increment("mapped");
  }
};

// Values are decimal counts; reduce sums them. Doubles as the combiner
// (sum is associative), matching Hadoop's reducer-as-combiner idiom.
class SumReducer : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string>& values,
              Emitter* out, Counters*) override {
    uint64_t sum = 0;
    for (const std::string& v : values) sum += ParseUint64(v).ValueOr(0);
    out->Emit(key, std::to_string(sum));
  }
};

TEST(JobTest, CountsKeysAcrossMappersAndReducers) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> input;
  for (uint64_t i = 0; i < 1000; ++i) input.push_back({i, ""});
  ASSERT_TRUE(WriteAllRecords(input, dir->File("in.bin")).ok());

  JobConfig config;
  config.num_mappers = 3;
  config.num_reducers = 4;
  config.scratch_dir = dir->File("scratch");
  Job job(config, [] { return std::make_unique<ModMapper>(); },
          [] { return std::make_unique<SumReducer>(); });
  ThreadPool pool(4);
  Counters counters;
  JobStats stats;
  auto outputs = job.Run({dir->File("in.bin")}, dir->File("out"), &pool,
                         &counters, &stats);
  ASSERT_TRUE(outputs.ok());
  EXPECT_EQ(outputs->size(), 4u);
  EXPECT_EQ(counters.Get("mapped"), 1000u);
  EXPECT_EQ(stats.input_records, 1000u);
  EXPECT_EQ(stats.map_output_records, 1000u);
  EXPECT_GT(stats.spill_bytes, 0u);

  uint64_t total = 0;
  int groups = 0;
  for (const std::string& path : *outputs) {
    auto records = ReadAllRecords(path);
    ASSERT_TRUE(records.ok());
    for (const Record& r : *records) {
      total += *ParseUint64(r.value);
      ++groups;
    }
  }
  EXPECT_EQ(total, 1000u);  // each input contributes one "1"
  EXPECT_EQ(groups, 10);    // keys 0..9
}

TEST(JobTest, SmallSortBufferForcesMultipleSpills) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> input;
  for (uint64_t i = 0; i < 2000; ++i) input.push_back({i, std::string(100, 'v')});
  ASSERT_TRUE(WriteAllRecords(input, dir->File("in.bin")).ok());

  JobConfig config;
  config.num_mappers = 1;
  config.num_reducers = 1;
  config.sort_buffer_bytes = 4096;  // force spills
  config.scratch_dir = dir->File("scratch");
  Job job(config, [] { return std::make_unique<ModMapper>(); },
          [] { return std::make_unique<SumReducer>(); });
  ThreadPool pool(2);
  Counters counters;
  JobStats stats;
  auto outputs =
      job.Run({dir->File("in.bin")}, dir->File("out"), &pool, &counters,
              &stats);
  ASSERT_TRUE(outputs.ok());
  EXPECT_GT(stats.spill_files, 4u);
  // Merged output is still correct.
  auto records = ReadAllRecords((*outputs)[0]);
  ASSERT_TRUE(records.ok());
  uint64_t total = 0;
  for (const Record& r : *records) total += *ParseUint64(r.value);
  EXPECT_EQ(total, 2000u);
}

TEST(JobTest, CombinerShrinksSpills) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  std::vector<Record> input;
  for (uint64_t i = 0; i < 5000; ++i) input.push_back({i, ""});
  ASSERT_TRUE(WriteAllRecords(input, dir->File("in.bin")).ok());

  auto run = [&](bool with_combiner) -> uint64_t {
    JobConfig config;
    config.num_mappers = 2;
    config.num_reducers = 2;
    config.scratch_dir =
        dir->File(with_combiner ? "scratch-c" : "scratch-n");
    Job job(config, [] { return std::make_unique<ModMapper>(); },
            [] { return std::make_unique<SumReducer>(); },
            with_combiner
                ? ReducerFactory([] { return std::make_unique<SumReducer>(); })
                : nullptr);
    ThreadPool pool(2);
    Counters counters;
    JobStats stats;
    auto outputs = job.Run({dir->File("in.bin")},
                           dir->File(with_combiner ? "out-c" : "out-n"),
                           &pool, &counters, &stats);
    EXPECT_TRUE(outputs.ok());
    return stats.shuffle_bytes;
  };
  uint64_t with = run(true);
  uint64_t without = run(false);
  EXPECT_LT(with, without / 10);
}

TEST(JobTest, RequiresScratchDir) {
  JobConfig config;  // no scratch_dir
  Job job(config, [] { return std::make_unique<ModMapper>(); },
          [] { return std::make_unique<SumReducer>(); });
  ThreadPool pool(1);
  Counters counters;
  EXPECT_FALSE(job.Run({}, "/tmp/out", &pool, &counters).ok());
}

// --------------------------------------------------------- algorithm chains

Graph RandomUndirected(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

PlatformConfig MakePlatformConfig(const TempDir& dir) {
  PlatformConfig config;
  config.job.num_mappers = 3;
  config.job.num_reducers = 3;
  config.job.scratch_dir = dir.path() + "/scratch";
  config.work_dir = dir.path() + "/work";
  return config;
}

TEST(MapReduceAlgorithmsTest, BfsMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(150, 400, 21);
  AlgorithmParams params;
  params.bfs.source = 2;
  ChainStats stats;
  auto out = RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kBfs,
                          params, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kBfs, params, *out).ok());
  EXPECT_GT(stats.jobs_run, 1u);
  EXPECT_GT(stats.total_spill_bytes, 0u);  // disk really used
}

TEST(MapReduceAlgorithmsTest, ConnMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(150, 250, 22);
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kConn, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kConn, {}, *out).ok());
}

TEST(MapReduceAlgorithmsTest, ConnOnDirectedGraph) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  EdgeList edges;
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(100));
    VertexId b = static_cast<VertexId>(rng.NextBounded(100));
    if (a != b) edges.Add(a, b);
  }
  Graph g = GraphBuilder::Directed(edges).ValueOrDie();
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kConn, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kConn, {}, *out).ok());
}

TEST(MapReduceAlgorithmsTest, CdMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(120, 360, 24);
  AlgorithmParams params;
  params.cd = CdParams{5, 0.05};
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kCd, params);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kCd, params, *out).ok());
}

TEST(MapReduceAlgorithmsTest, StatsMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(120, 360, 25);
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kStats, {});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kStats, {}, *out).ok());
}

TEST(MapReduceAlgorithmsTest, EvoMatchesReference) {
  auto dir = TempDir::Create("gly-mr");
  ASSERT_TRUE(dir.ok());
  Graph g = RandomUndirected(120, 360, 26);
  AlgorithmParams params;
  params.evo.num_new_vertices = 7;
  auto out =
      RunAlgorithm(MakePlatformConfig(*dir), g, AlgorithmKind::kEvo, params);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(
      harness::ValidateOutput(g, AlgorithmKind::kEvo, params, *out).ok());
}

TEST(MapReduceAlgorithmsTest, FailedRunRemovesItsWorkDir) {
  // A crashed reduce task fails the chain after the initial state and the
  // first iteration's map runs are on disk. Without map-stage checkpoints
  // nothing can reuse them, so the failed run removes its work dir; with
  // them, the retry needs the manifest and runs, so the dir stays.
  Graph g = RandomUndirected(100, 250, 28);
  AlgorithmParams params;
  params.bfs.source = 1;
  for (bool checkpoint : {false, true}) {
    auto dir = TempDir::Create("gly-mr");
    ASSERT_TRUE(dir.ok());
    PlatformConfig config = MakePlatformConfig(*dir);
    config.job.checkpoint_map_stage = checkpoint;
    fault::FaultPlan plan(/*seed=*/28);
    plan.Add({.site = "mapreduce.reduce.task",
              .kind = fault::FaultKind::kCrash,
              .max_triggers = 1});
    fault::ScopedFaultPlan active(&plan);
    auto out = RunAlgorithm(config, g, AlgorithmKind::kBfs, params);
    ASSERT_FALSE(out.ok());
    EXPECT_TRUE(out.status().IsInternal()) << out.status().ToString();
    EXPECT_EQ(std::filesystem::exists(config.work_dir), checkpoint)
        << "checkpoint_map_stage = " << checkpoint;
  }
}

TEST(MapReduceAlgorithmsTest, RequiresWorkDir) {
  Graph g = RandomUndirected(10, 20, 27);
  PlatformConfig config;
  config.job.scratch_dir = "/tmp/x";
  EXPECT_FALSE(RunAlgorithm(config, g, AlgorithmKind::kBfs, {}).ok());
}

}  // namespace
}  // namespace gly::mapreduce
