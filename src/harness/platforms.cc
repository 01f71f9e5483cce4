// Platform adapters binding the four substrates to the harness interface.

#include <limits>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/string_util.h"
#include "common/temp_dir.h"
#include "dataflow/algorithms.h"
#include "graph/io.h"
#include "graphdb/algorithms.h"
#include "harness/platform.h"
#include "mapreduce/graph_jobs.h"
#include "pregel/algorithms.h"

namespace gly::harness {

namespace {

// Shared config plumbing.
struct CommonOptions {
  uint64_t memory_budget_bytes = 0;
  uint32_t workers = 8;
  uint32_t threads = 0;
};

// An unset common key keeps its default, but a set one must parse and fit:
// a silent fallback would turn `graphx.memory_budget_mb = 1MB` into a run
// with no budget, and erase Figure 4's GraphX failures.
Result<CommonOptions> ReadCommon(const std::string& name,
                                 const Config& config) {
  const std::string scope = name + ".";
  CommonOptions opts;
  uint64_t budget_mb = 0;
  GLY_RETURN_NOT_OK(
      ReadSetUint(config, "memory_budget_mb", &budget_mb, scope));
  if (budget_mb > std::numeric_limits<uint64_t>::max() >> 20) {
    return Status::InvalidArgument(StringPrintf(
        "%smemory_budget_mb: %llu MiB is out of range", scope.c_str(),
        (unsigned long long)budget_mb));
  }
  opts.memory_budget_bytes = budget_mb << 20;
  GLY_RETURN_NOT_OK(ReadSetUint(config, "workers", &opts.workers, scope));
  GLY_RETURN_NOT_OK(ReadSetUint(config, "threads", &opts.threads, scope));
  return opts;
}

// ----------------------------------------------------------------- Giraph

class GiraphLikePlatform final : public Platform {
 public:
  GiraphLikePlatform(const CommonOptions& opts, const Config& config,
                     std::optional<TempDir> checkpoint_dir)
      : checkpoint_dir_(std::move(checkpoint_dir)) {
    pregel::EngineConfig engine;
    engine.num_workers = opts.workers;
    engine.num_threads = opts.threads;
    engine.memory_budget_bytes = opts.memory_budget_bytes;
    engine.network_mib_per_s = config.GetDoubleOr("network_mib_per_s", 0.0);
    engine.barrier_latency_s = config.GetDoubleOr("barrier_latency_s", 0.0);
    engine.checkpoint.interval =
        static_cast<uint32_t>(config.GetUintOr("checkpoint_interval", 0));
    engine.checkpoint.directory = config.GetStringOr(
        "checkpoint_dir",
        checkpoint_dir_.has_value() ? checkpoint_dir_->path() : "");
    engine.checkpoint.max_recoveries = static_cast<uint32_t>(
        config.GetUintOr("checkpoint_max_recoveries", 3));
    // Traversal-kernel knob: 0 disables the dense-frontier fast path (the
    // pre-optimization engine that fig4's bfs_pregel_classic record
    // measures).
    engine.dense_frontier_threshold = config.GetDoubleOr(
        "dense_frontier_threshold", engine.dense_frontier_threshold);
    engine_ = std::make_unique<pregel::Engine>(engine);
  }

  Status LoadGraph(const Graph& graph, const std::string&) override {
    graph_ = &graph;
    return Status::OK();
  }

  Result<AlgorithmOutput> Run(AlgorithmKind kind,
                              const AlgorithmParams& params) override {
    if (graph_ == nullptr) return Status::InvalidArgument("no graph loaded");
    pregel::RunStats stats;
    GLY_ASSIGN_OR_RETURN(
        AlgorithmOutput out,
        pregel::RunAlgorithm(*engine_, *graph_, kind, params, &stats));
    metrics_.clear();
    metrics_["supersteps"] = std::to_string(stats.supersteps);
    metrics_["messages"] = std::to_string(stats.total_messages);
    metrics_["cross_worker_bytes"] =
        std::to_string(stats.total_cross_worker_bytes);
    metrics_["peak_memory"] = FormatBytes(stats.peak_memory_bytes);
    if (stats.dense_supersteps > 0) {
      metrics_["dense_supersteps"] = std::to_string(stats.dense_supersteps);
    }
    metrics_["outbox_bytes_peak"] = std::to_string(stats.outbox_bytes_peak);
    if (engine_->config().checkpoint.interval > 0) {
      metrics_["checkpoints"] = std::to_string(stats.checkpoints_written);
      metrics_["recoveries"] = std::to_string(stats.recoveries);
      metrics_["supersteps_replayed"] =
          std::to_string(stats.supersteps_replayed);
    }
    return out;
  }

  void UnloadGraph() override { graph_ = nullptr; }

 private:
  std::optional<TempDir> checkpoint_dir_;
  std::unique_ptr<pregel::Engine> engine_;
  const Graph* graph_ = nullptr;
};

// ----------------------------------------------------------------- GraphX

class GraphXLikePlatform final : public Platform {
 public:
  explicit GraphXLikePlatform(const CommonOptions& opts, const Config& config) {
    context_.num_partitions = opts.workers;
    context_.num_threads = opts.threads;
    context_.memory_budget_bytes = opts.memory_budget_bytes;
    context_.object_overhead_factor =
        config.GetDoubleOr("object_overhead_factor", 2.0);
    context_.shuffle_mib_per_s = config.GetDoubleOr("shuffle_mib_per_s", 0.0);
    context_.materialize_mib_per_s =
        config.GetDoubleOr("materialize_mib_per_s", 0.0);
  }

  Status LoadGraph(const Graph& graph, const std::string&) override {
    graph_ = &graph;
    return Status::OK();
  }

  Result<AlgorithmOutput> Run(AlgorithmKind kind,
                              const AlgorithmParams& params) override {
    if (graph_ == nullptr) return Status::InvalidArgument("no graph loaded");
    dataflow::ContextStats stats;
    GLY_ASSIGN_OR_RETURN(
        AlgorithmOutput out,
        dataflow::RunAlgorithm(context_, *graph_, kind, params, &stats));
    metrics_.clear();
    metrics_["datasets"] = std::to_string(stats.datasets_materialized);
    metrics_["materialized"] = FormatBytes(stats.bytes_materialized);
    metrics_["materialize_s"] = StringPrintf("%.3f", stats.materialize_seconds);
    metrics_["shuffle_bytes"] = std::to_string(stats.shuffle_bytes);
    metrics_["peak_memory"] = FormatBytes(stats.peak_memory_bytes);
    metrics_["shuffle_bytes_pooled"] =
        std::to_string(stats.shuffle_bytes_pooled);
    metrics_["pooled_bytes_peak"] = std::to_string(stats.pooled_bytes_peak);
    return out;
  }

  void UnloadGraph() override { graph_ = nullptr; }

 private:
  dataflow::ContextConfig context_;
  const Graph* graph_ = nullptr;
};

// -------------------------------------------------------------- MapReduce

class MapReducePlatform final : public Platform {
 public:
  MapReducePlatform(const CommonOptions& opts, const Config& config,
                    TempDir scratch)
      : scratch_(std::move(scratch)) {
    config_.job.num_mappers = opts.workers;
    config_.job.num_reducers = opts.workers;
    config_.job.sort_buffer_bytes =
        config.GetUintOr("sort_buffer_mb", 8) << 20;
    config_.job.scratch_dir = scratch_.path() + "/spills";
    config_.job.job_startup_s = config.GetDoubleOr("job_startup_s", 0.0);
    config_.job.checkpoint_map_stage = config.GetBoolOr("checkpointing", false);
    config_.max_iterations =
        static_cast<uint32_t>(config.GetUintOr("max_iterations", 1000));
  }

  Status LoadGraph(const Graph& graph, const std::string& graph_name) override {
    // The HDFS-upload analog: the dataset must be on the job filesystem
    // before any job can run. This is ETL — the harness times it
    // separately from the algorithm runtime.
    std::string path = scratch_.path() + "/dataset-" + graph_name + ".bin";
    GLY_RETURN_NOT_OK(WriteEdgeListBinary(graph.ToEdgeList(), path));
    graph_ = &graph;
    return Status::OK();
  }

  Result<AlgorithmOutput> Run(AlgorithmKind kind,
                              const AlgorithmParams& params) override {
    if (graph_ == nullptr) return Status::InvalidArgument("no graph loaded");
    mapreduce::PlatformConfig run_config = config_;
    // With map-stage checkpointing, the work dir must be stable across
    // re-runs of the same cell so crashed jobs find their spill manifests;
    // without it, every run gets a fresh directory.
    run_config.work_dir =
        config_.job.checkpoint_map_stage
            ? scratch_.path() + "/run-" + std::string(AlgorithmKindName(kind))
            : scratch_.path() + "/run-" + std::to_string(run_counter_++);
    mapreduce::ChainStats stats;
    GLY_ASSIGN_OR_RETURN(AlgorithmOutput out,
                         mapreduce::RunAlgorithm(run_config, *graph_, kind,
                                                 params, &stats));
    metrics_.clear();
    metrics_["jobs"] = std::to_string(stats.jobs_run);
    metrics_["spill_bytes"] = std::to_string(stats.total_spill_bytes);
    metrics_["shuffle_bytes"] = std::to_string(stats.total_shuffle_bytes);
    metrics_["output_bytes"] = std::to_string(stats.total_output_bytes);
    if (config_.job.checkpoint_map_stage) {
      metrics_["map_stages_recovered"] =
          std::to_string(stats.map_stages_recovered);
    }
    return out;
  }

  void UnloadGraph() override { graph_ = nullptr; }

 private:
  TempDir scratch_;
  mapreduce::PlatformConfig config_;
  const Graph* graph_ = nullptr;
  uint64_t run_counter_ = 0;
};

// ------------------------------------------------------------------ Neo4j

class Neo4jLikePlatform final : public Platform {
 public:
  Neo4jLikePlatform(const CommonOptions& opts, const Config& config,
                    TempDir scratch)
      : scratch_(std::move(scratch)) {
    memory_budget_bytes_ = opts.memory_budget_bytes;
    page_cache_bytes_ = config.GetUintOr(
        "page_cache_mb",
        opts.memory_budget_bytes != 0 ? (opts.memory_budget_bytes >> 20) : 256)
        << 20;
  }

  Status LoadGraph(const Graph& graph, const std::string& graph_name) override {
    graphdb::StoreConfig store_config;
    store_config.directory = scratch_.path() + "/store-" + graph_name + "-" +
                             std::to_string(load_counter_++);
    store_config.page_cache_bytes = page_cache_bytes_;
    GLY_ASSIGN_OR_RETURN(store_, graphdb::GraphStore::Open(store_config));
    GLY_RETURN_NOT_OK(store_->BulkImport(graph.ToEdgeList(), load_cancel_));
    undirected_ = graph.undirected();
    return Status::OK();
  }

  void SetCancelToken(const CancelToken* cancel) override {
    load_cancel_ = cancel;
  }

  Result<AlgorithmOutput> Run(AlgorithmKind kind,
                              const AlgorithmParams& params) override {
    if (store_ == nullptr) return Status::InvalidArgument("no graph loaded");
    graphdb::DbRunStats stats;
    GLY_ASSIGN_OR_RETURN(
        AlgorithmOutput out,
        graphdb::RunAlgorithmOnStore(store_.get(), undirected_,
                                     memory_budget_bytes_, kind, params,
                                     &stats));
    metrics_.clear();
    metrics_["rels_expanded"] = std::to_string(stats.relationships_expanded);
    metrics_["cache_hits"] = std::to_string(stats.cache.hits);
    metrics_["cache_misses"] = std::to_string(stats.cache.misses);
    metrics_["cache_shard_contention"] =
        std::to_string(stats.cache.shard_contention);
    return out;
  }

  void UnloadGraph() override { store_.reset(); }

 private:
  TempDir scratch_;
  uint64_t memory_budget_bytes_;
  uint64_t page_cache_bytes_;
  std::unique_ptr<graphdb::GraphStore> store_;
  const CancelToken* load_cancel_ = nullptr;
  bool undirected_ = true;
  uint64_t load_counter_ = 0;
};

// -------------------------------------------------------------- Reference
//
// A fifth platform: the single-machine shared-memory reference
// implementation run as a system under test. Useful as the lower bound of
// distribution overhead ("the paper's vision covers 10 platforms; adding
// one is implementing the algorithms + a loading method + a processing
// interface" — this adapter is exactly that and nothing more).

class ReferencePlatform final : public Platform {
 public:
  explicit ReferencePlatform(const CommonOptions& opts)
      : memory_budget_bytes_(opts.memory_budget_bytes) {}

  Status LoadGraph(const Graph& graph, const std::string&) override {
    graph_ = &graph;
    return Status::OK();
  }

  Result<AlgorithmOutput> Run(AlgorithmKind kind,
                              const AlgorithmParams& params) override {
    if (graph_ == nullptr) return Status::InvalidArgument("no graph loaded");
    MemoryBudget budget(memory_budget_bytes_);
    GLY_RETURN_NOT_OK(budget.Charge(graph_->MemoryBytes(), "graph")
                          .WithPrefix("reference"));
    AlgorithmOutput out = ref::Run(*graph_, kind, params);
    metrics_.clear();
    metrics_["traversed"] = std::to_string(out.traversed_edges);
    return out;
  }

  void UnloadGraph() override { graph_ = nullptr; }

 private:
  uint64_t memory_budget_bytes_;
  const Graph* graph_ = nullptr;
};

}  // namespace

std::vector<std::string> RegisteredPlatforms() {
  return {"giraph", "graphx", "mapreduce", "neo4j", "reference"};
}

Result<std::unique_ptr<Platform>> MakePlatform(const std::string& name,
                                               const Config& config) {
  GLY_ASSIGN_OR_RETURN(CommonOptions opts, ReadCommon(name, config));
  std::string lower = ToLower(name);
  if (lower == "giraph") {
    std::optional<TempDir> ckpt_dir;
    if (config.GetUintOr("checkpoint_interval", 0) > 0 &&
        config.GetStringOr("checkpoint_dir", "").empty()) {
      GLY_ASSIGN_OR_RETURN(TempDir dir, TempDir::Create("gly-pregel-ckpt"));
      ckpt_dir = std::move(dir);
    }
    return {std::make_unique<GiraphLikePlatform>(opts, config,
                                                 std::move(ckpt_dir))};
  }
  if (lower == "graphx") {
    return {std::make_unique<GraphXLikePlatform>(opts, config)};
  }
  if (lower == "mapreduce") {
    GLY_ASSIGN_OR_RETURN(TempDir scratch, TempDir::Create("gly-mr"));
    return {std::make_unique<MapReducePlatform>(opts, config,
                                                std::move(scratch))};
  }
  if (lower == "neo4j") {
    GLY_ASSIGN_OR_RETURN(TempDir scratch, TempDir::Create("gly-neo4j"));
    return {std::make_unique<Neo4jLikePlatform>(opts, config,
                                                std::move(scratch))};
  }
  if (lower == "reference") {
    return {std::make_unique<ReferencePlatform>(opts)};
  }
  return Status::NotFound("unknown platform: '" + name + "'");
}

}  // namespace gly::harness
