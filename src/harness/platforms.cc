// Platform adapters binding the four substrates to the harness interface.

#include <algorithm>
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
#include "harness/run_config.h"
#include "mapreduce/graph_jobs.h"
#include "pregel/algorithms.h"

namespace gly::harness {

namespace {

// ----------------------------------------------------------------- Giraph

class GiraphLikePlatform final : public Platform {
 public:
  // `checkpoint_dir`, when set, is a directory the platform owns, for a
  // checkpointing run whose config names none.
  GiraphLikePlatform(pregel::EngineConfig engine,
                     std::optional<TempDir> checkpoint_dir)
      : checkpoint_dir_(std::move(checkpoint_dir)) {
    if (checkpoint_dir_.has_value()) {
      engine.checkpoint.directory = checkpoint_dir_->path();
    }
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
  explicit GraphXLikePlatform(const dataflow::ContextConfig& context)
      : context_(context) {}

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
  MapReducePlatform(const mapreduce::PlatformConfig& config, TempDir scratch)
      : scratch_(std::move(scratch)), config_(config) {
    config_.job.scratch_dir = scratch_.path() + "/spills";
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
  // The page cache is the memory budget, or 256 MiB without one.
  Neo4jLikePlatform(uint64_t memory_budget_bytes, uint32_t threads,
                    TempDir scratch)
      : scratch_(std::move(scratch)),
        memory_budget_bytes_(memory_budget_bytes),
        page_cache_bytes_(memory_budget_bytes != 0 ? memory_budget_bytes
                                                   : uint64_t{256} << 20),
        threads_(threads) {}

  Status LoadGraph(const Graph& graph, const std::string& graph_name) override {
    graphdb::StoreConfig store_config;
    store_config.directory = scratch_.path() + "/store-" + graph_name + "-" +
                             std::to_string(load_counter_++);
    store_config.page_cache_bytes = page_cache_bytes_;
    GLY_ASSIGN_OR_RETURN(store_, graphdb::GraphStore::Open(store_config));
    GLY_RETURN_NOT_OK(store_->BulkImport(graph, load_cancel_));
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
                                     &stats, threads_));
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
  uint32_t threads_;
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
  explicit ReferencePlatform(uint64_t memory_budget_bytes)
      : memory_budget_bytes_(memory_budget_bytes) {}

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
  const std::vector<std::string> known = RegisteredPlatforms();
  const std::string lower = ToLower(name);
  if (std::count(known.begin(), known.end(), lower) == 0) {
    return Status::NotFound("unknown platform: '" + name + "'");
  }
  // Every key is declared and well-formed (ConfigSchema), or the platform
  // is not built: a silent fallback would turn `graphx.memory_budget_mb =
  // 1MB` into a run with no budget, and erase Figure 4's GraphX failures.
  const ConfigReader in(config, lower + ".");
  GLY_RETURN_NOT_OK(in.Check());
  uint64_t memory_budget_bytes = 0;
  uint32_t workers = 0;
  uint32_t threads = 0;
  GLY_RETURN_NOT_OK(in.Get("memory_budget_mb", &memory_budget_bytes));
  GLY_RETURN_NOT_OK(in.Get("workers", &workers));
  GLY_RETURN_NOT_OK(in.Get("threads", &threads));
  if (lower == "giraph") {
    pregel::EngineConfig engine;
    engine.num_workers = workers;
    engine.num_threads = threads;
    engine.memory_budget_bytes = memory_budget_bytes;
    GLY_RETURN_NOT_OK(in.Get("network_mib_per_s", &engine.network_mib_per_s));
    GLY_RETURN_NOT_OK(in.Get("barrier_latency_s", &engine.barrier_latency_s));
    // 0 disables the dense-frontier fast path (the pre-optimization engine
    // that fig4's bfs_pregel_classic record measures).
    GLY_RETURN_NOT_OK(in.Get("dense_frontier_threshold",
                             &engine.dense_frontier_threshold));
    GLY_RETURN_NOT_OK(
        in.Get("checkpoint_interval", &engine.checkpoint.interval));
    GLY_RETURN_NOT_OK(in.Get("checkpoint_dir", &engine.checkpoint.directory));
    std::optional<TempDir> ckpt_dir;
    if (engine.checkpoint.interval > 0 &&
        engine.checkpoint.directory.empty()) {
      GLY_ASSIGN_OR_RETURN(TempDir dir, TempDir::Create("gly-pregel-ckpt"));
      ckpt_dir = std::move(dir);
    }
    return {std::make_unique<GiraphLikePlatform>(std::move(engine),
                                                 std::move(ckpt_dir))};
  }
  if (lower == "graphx") {
    dataflow::ContextConfig context;
    context.num_partitions = workers;
    context.num_threads = threads;
    context.memory_budget_bytes = memory_budget_bytes;
    GLY_RETURN_NOT_OK(in.Get("shuffle_mib_per_s", &context.shuffle_mib_per_s));
    GLY_RETURN_NOT_OK(
        in.Get("materialize_mib_per_s", &context.materialize_mib_per_s));
    return {std::make_unique<GraphXLikePlatform>(context)};
  }
  if (lower == "mapreduce") {
    mapreduce::PlatformConfig platform;
    platform.job.num_mappers = workers;
    platform.job.num_reducers = workers;
    GLY_RETURN_NOT_OK(in.Get("job_startup_s", &platform.job.job_startup_s));
    GLY_RETURN_NOT_OK(
        in.Get("checkpointing", &platform.job.checkpoint_map_stage));
    GLY_ASSIGN_OR_RETURN(TempDir scratch, TempDir::Create("gly-mr"));
    return {std::make_unique<MapReducePlatform>(platform,
                                                std::move(scratch))};
  }
  if (lower == "neo4j") {
    GLY_ASSIGN_OR_RETURN(TempDir scratch, TempDir::Create("gly-neo4j"));
    return {std::make_unique<Neo4jLikePlatform>(memory_budget_bytes, threads,
                                                std::move(scratch))};
  }
  return {std::make_unique<ReferencePlatform>(memory_budget_bytes)};
}

}  // namespace gly::harness
