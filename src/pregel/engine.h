// Pregel/BSP engine — the "Giraph" substrate.
//
// Implements the Pregel programming model (Malewicz et al., SIGMOD 2010) the
// paper benchmarks through Apache Giraph: vertex-centric computation in
// supersteps separated by synchronization barriers; vertices exchange
// messages, vote to halt, and are reactivated by incoming messages.
//
// Distribution is simulated: vertices are partitioned across `num_workers`
// logical workers executed by a thread pool. The engine accounts network
// traffic (messages whose endpoints live on different workers) and can
// inject a bandwidth/latency cost model, which makes the paper's
// choke points measurable:
//   * "excessive network utilization" — per-superstep cross-worker bytes,
//     reducible with message combiners (ablation_network bench);
//   * "skewed execution intensity" — per-superstep active-vertex counts and
//     per-worker compute imbalance (ablation_skew bench);
//   * "large graph memory footprint" — graph + message memory is charged
//     against a MemoryBudget; exceeding it aborts the run with
//     ResourceExhausted, which the harness reports as a failure (the
//     paper's "missing values").
//
// Determinism: per-vertex inboxes are either combined with an associative,
// commutative combiner or passed as unordered batches to Compute; every
// algorithm in pregel/algorithms.h is written to be order-independent, so
// results are identical across thread counts.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/cancellation.h"
#include "common/checkpoint.h"
#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "common/threadpool.h"
#include "common/perf_counters.h"
#include "common/trace.h"
#include "graph/graph.h"
#include "graph/partition.h"

namespace gly::pregel {

/// Pregel aggregators: named global values every vertex can contribute to
/// during a superstep; the combined result is visible to all vertices in
/// the *next* superstep (and to the caller after the run). Sum/min/max
/// over doubles, matching the common Giraph aggregators.
class Aggregators {
 public:
  enum class Kind { kSum, kMin, kMax };

  /// Registers an aggregator before the run. Re-registering is a no-op.
  void Register(const std::string& name, Kind kind) {
    kinds_.emplace(name, kind);
    current_.emplace(name, Identity(kind));
    next_.emplace(name, Identity(kind));
  }

  /// Contribution from a vertex (thread-safe via per-worker partials; this
  /// object is only touched through WorkerView during compute).
  void Combine(std::map<std::string, double>* partial,
               const std::string& name, double value) const {
    auto kind_it = kinds_.find(name);
    if (kind_it == kinds_.end()) return;  // unregistered: dropped
    auto [it, inserted] = partial->emplace(name, value);
    if (!inserted) it->second = Fold(kind_it->second, it->second, value);
  }

  /// Value aggregated during the previous superstep.
  double Get(const std::string& name) const {
    auto it = current_.find(name);
    return it == current_.end() ? 0.0 : it->second;
  }

  /// Epoch values as of the last barrier (checkpoint serialization).
  const std::map<std::string, double>& CurrentValues() const {
    return current_;
  }

  /// Restores epoch values from a checkpoint; unregistered names are
  /// dropped (engine-internal, used only on rollback recovery).
  void RestoreCurrentValues(const std::map<std::string, double>& values) {
    for (const auto& [name, value] : values) {
      auto it = current_.find(name);
      if (it != current_.end()) it->second = value;
    }
  }

  /// Merges worker partials and rolls the epoch (engine-internal).
  void EndSuperstep(const std::vector<std::map<std::string, double>>& partials) {
    for (auto& [name, value] : next_) value = Identity(kinds_.at(name));
    for (const auto& partial : partials) {
      for (const auto& [name, value] : partial) {
        auto kind_it = kinds_.find(name);
        if (kind_it == kinds_.end()) continue;
        next_[name] = Fold(kind_it->second, next_[name], value);
      }
    }
    current_ = next_;
  }

 private:
  static double Identity(Kind kind) {
    switch (kind) {
      case Kind::kSum: return 0.0;
      case Kind::kMin: return std::numeric_limits<double>::infinity();
      case Kind::kMax: return -std::numeric_limits<double>::infinity();
    }
    return 0.0;
  }
  static double Fold(Kind kind, double a, double b) {
    switch (kind) {
      case Kind::kSum: return a + b;
      case Kind::kMin: return std::min(a, b);
      case Kind::kMax: return std::max(a, b);
    }
    return a;
  }

  std::map<std::string, Kind> kinds_;
  std::map<std::string, double> current_;
  std::map<std::string, double> next_;
};

/// Approximate wire size of one message (for network accounting).
template <typename M>
uint64_t MessageWireBytes(const M&) {
  return sizeof(M);
}
template <typename T>
uint64_t MessageWireBytes(const std::vector<T>& m) {
  return sizeof(uint32_t) + m.size() * sizeof(T);
}

/// Whether a vertex-value/message type can round-trip through the
/// checkpoint serializer: trivially copyable scalars/structs, and vectors
/// thereof (covers every program shipped in pregel/algorithms.h).
template <typename T>
inline constexpr bool kCheckpointSerializable = std::is_trivially_copyable_v<T>;
template <typename T>
inline constexpr bool kCheckpointSerializable<std::vector<T>> =
    kCheckpointSerializable<T>;

namespace detail {

template <typename T>
  requires std::is_trivially_copyable_v<T>
void CkptPutValue(CheckpointEncoder& enc, const T& v) {
  enc.PutRaw(v);
}

template <typename T>
void CkptPutValue(CheckpointEncoder& enc, const std::vector<T>& v) {
  enc.PutU64(v.size());
  if constexpr (std::is_trivially_copyable_v<T>) {
    enc.PutBytes(v.data(), v.size() * sizeof(T));
  } else {
    for (const T& x : v) CkptPutValue(enc, x);
  }
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
bool CkptGetValue(CheckpointDecoder& dec, T* v) {
  return dec.GetRaw(v);
}

template <typename T>
bool CkptGetValue(CheckpointDecoder& dec, std::vector<T>* v) {
  uint64_t size = 0;
  if (!dec.GetU64(&size)) return false;
  if constexpr (std::is_trivially_copyable_v<T>) {
    if (size > dec.remaining() / sizeof(T)) return false;
    v->resize(size);
    return size == 0 || dec.GetBytes(v->data(), size * sizeof(T));
  } else {
    if (size > dec.remaining()) return false;  // every element costs >=1 byte
    v->clear();
    v->resize(size);
    for (uint64_t i = 0; i < size; ++i) {
      if (!CkptGetValue(dec, &(*v)[i])) return false;
    }
    return true;
  }
}

}  // namespace detail

/// Vertex-to-worker assignment policy.
enum class PartitioningPolicy {
  kHash,      ///< multiplicative hash (Giraph default)
  kBalanced,  ///< greedy degree-aware balancing (the §2.1 skew mitigation)
};

/// Superstep checkpointing (rollback recovery). When enabled, the engine
/// snapshots vertex values, halt flags, pending messages, and aggregator
/// state every `interval` supersteps (atomic, checksummed — see
/// common/checkpoint.h). A fault-injected worker crash or barrier failure
/// then rolls back to the last snapshot and replays from there instead of
/// failing the run, up to `max_recoveries` times.
struct CheckpointPolicy {
  /// Checkpoint every N supersteps; 0 disables checkpointing.
  uint32_t interval = 0;

  /// Directory for snapshot files (required when interval > 0).
  std::string directory;

  /// Rollback budget per run; a crash beyond it surfaces as failure.
  uint32_t max_recoveries = 3;
};

/// Engine configuration (one simulated Giraph deployment).
struct EngineConfig {
  /// Logical workers (cluster nodes). Paper testbed: 10 compute machines.
  uint32_t num_workers = 8;

  /// How vertices map to workers.
  PartitioningPolicy partitioning = PartitioningPolicy::kHash;

  /// Real threads executing the workers.
  uint32_t num_threads = 0;  // 0 = hardware concurrency

  /// Memory budget for graph + live messages; 0 = unlimited.
  uint64_t memory_budget_bytes = 0;

  /// Simulated network: cross-worker message bandwidth (MiB/s, 0 = free)
  /// and per-superstep barrier latency (seconds).
  double network_mib_per_s = 0.0;
  double barrier_latency_s = 0.0;

  /// Safety valve.
  uint32_t max_supersteps = 10000;

  /// Dense-frontier fast path: when a superstep's active vertices exceed
  /// this fraction of the graph and the program has a combiner, outgoing
  /// messages are combined into one dense slot per destination vertex at
  /// delivery time instead of materializing per-vertex message vectors —
  /// the §2.1 access-locality optimization for near-full frontiers.
  /// 0 disables the fast path; `fig4_runtimes --kernels-only` sets 0 for
  /// its `bfs_pregel_classic` record (the pre-optimization engine).
  double dense_frontier_threshold = 0.05;

  /// Superstep checkpoint/rollback policy (disabled by default).
  CheckpointPolicy checkpoint;

  /// Cooperative cancellation (null = unsupervised). Polled at every
  /// superstep boundary and every 4096 vertices of a worker's list; the
  /// engine bumps the token's progress heartbeat once per completed
  /// superstep. A cancelled run returns the token's Status
  /// (Timeout/Cancelled) with the partial RunStats accumulated so far.
  CancelToken* cancel = nullptr;
};

/// Per-superstep statistics (skew/network diagnostics).
struct SuperstepStats {
  uint32_t superstep = 0;
  uint64_t active_vertices = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_dropped = 0;  ///< lost to injected faults
  uint64_t cross_worker_messages = 0;
  uint64_t cross_worker_bytes = 0;
  double compute_seconds = 0.0;
  double network_seconds = 0.0;
  /// max worker busy-time / mean worker busy-time (execution skew).
  double worker_imbalance = 1.0;
  /// Messages were delivered through the dense-frontier fast path.
  bool dense_delivery = false;
};

/// Whole-run statistics.
struct RunStats {
  uint32_t supersteps = 0;
  uint64_t total_messages = 0;
  uint64_t total_messages_dropped = 0;
  uint64_t total_cross_worker_bytes = 0;
  double total_seconds = 0.0;
  double network_seconds = 0.0;
  uint64_t peak_memory_bytes = 0;
  // Checkpoint/recovery accounting (zero unless a CheckpointPolicy is set).
  uint32_t checkpoints_written = 0;
  uint32_t checkpoint_failures = 0;   ///< failed snapshot writes (non-fatal)
  uint32_t recoveries = 0;            ///< rollbacks to the last checkpoint
  uint32_t supersteps_replayed = 0;   ///< completed supersteps re-executed
  double checkpoint_seconds = 0.0;
  /// Supersteps whose messages took the dense-frontier fast path.
  uint32_t dense_supersteps = 0;
  /// Peak bytes held by the recycled outbox/inbox arenas (DESIGN.md §13).
  uint64_t outbox_bytes_peak = 0;
  std::vector<SuperstepStats> per_superstep;
};

/// A vertex program: V = vertex value, M = message type.
/// Subclasses override Init and Compute. All member functions must be
/// thread-safe (they run concurrently for distinct vertices).
template <typename V, typename M>
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Context handed to Compute for one vertex in one superstep.
  class Context {
   public:
    Context(const Graph* graph, VertexId vertex, uint32_t superstep, V* value,
            std::vector<std::pair<VertexId, M>>* outbox, bool* halted,
            const Aggregators* aggregators = nullptr,
            std::map<std::string, double>* aggregator_partial = nullptr)
        : graph_(graph),
          vertex_(vertex),
          superstep_(superstep),
          value_(value),
          outbox_(outbox),
          halted_(halted),
          aggregators_(aggregators),
          aggregator_partial_(aggregator_partial) {}

    VertexId vertex() const { return vertex_; }
    uint32_t superstep() const { return superstep_; }
    V& value() { return *value_; }
    const Graph& graph() const { return *graph_; }

    std::span<const VertexId> out_neighbors() const {
      return graph_->OutNeighbors(vertex_);
    }

    /// Sends `msg` to `target`, delivered next superstep.
    void SendTo(VertexId target, const M& msg) {
      outbox_->emplace_back(target, msg);
    }

    /// Sends `msg` to all out-neighbors.
    void SendToNeighbors(const M& msg) {
      for (VertexId w : out_neighbors()) outbox_->emplace_back(w, msg);
    }

    /// Votes to halt; the vertex is reactivated by an incoming message.
    void VoteToHalt() { *halted_ = true; }

    /// Contributes to a registered aggregator (visible next superstep).
    void AggregateValue(const std::string& name, double value) {
      if (aggregators_ != nullptr && aggregator_partial_ != nullptr) {
        aggregators_->Combine(aggregator_partial_, name, value);
      }
    }

    /// Reads an aggregator's value from the *previous* superstep.
    double GetAggregate(const std::string& name) const {
      return aggregators_ != nullptr ? aggregators_->Get(name) : 0.0;
    }

   private:
    const Graph* graph_;
    VertexId vertex_;
    uint32_t superstep_;
    V* value_;
    std::vector<std::pair<VertexId, M>>* outbox_;
    bool* halted_;
    const Aggregators* aggregators_;
    std::map<std::string, double>* aggregator_partial_;
  };

  /// Initial vertex value (superstep 0 runs Compute on every vertex).
  virtual V Init(const Graph& graph, VertexId v) = 0;

  /// One superstep of computation for an active vertex. The message span
  /// views engine-owned inbox storage (one dense slot or a flat CSR segment
  /// depending on the delivery path) and is valid only for the duration of
  /// the call.
  virtual void Compute(Context& ctx, std::span<const M> messages) = 0;

  /// Optional associative+commutative message combiner. Returning a
  /// function enables combining at the sender (reduces network bytes, the
  /// ablation_network experiment).
  virtual std::optional<std::function<M(const M&, const M&)>> Combiner() const {
    return std::nullopt;
  }

  /// Registers the program's aggregators before superstep 0.
  virtual void RegisterAggregators(Aggregators*) const {}
};

/// Result of Engine::Run.
template <typename V>
struct RunOutput {
  std::vector<V> values;
  RunStats stats;
  Aggregators aggregators;  ///< final aggregator values
};

namespace detail {

/// Vertices a worker computes between two cancellation polls.
inline constexpr size_t kCancelPollVertices = 4096;

/// The state of one Engine::Run and the superstep phases over it. Run owns
/// it as a local, so a cancelled or failed run releases every recycled
/// buffer wholesale (recycle within a run, release on cancel).
template <typename V, typename M>
struct SuperstepState {
  using Outbox = std::vector<std::pair<VertexId, M>>;
  using Partial = std::map<std::string, double>;
  static constexpr bool kCanCheckpoint =
      kCheckpointSerializable<V> && kCheckpointSerializable<M>;

  SuperstepState(const EngineConfig& cfg, const Graph& g,
                 VertexProgram<V, M>* prog)
      : config(cfg),
        graph(g),
        program(prog),
        n(g.num_vertices()),
        workers(std::max(1u, cfg.num_workers)),
        budget(cfg.memory_budget_bytes),
        pool(cfg.num_threads != 0 ? cfg.num_threads : HardwareThreads()),
        worker_vertices(workers),
        outboxes(workers),
        ckpt_enabled(kCanCheckpoint && cfg.checkpoint.interval > 0 &&
                     !cfg.checkpoint.directory.empty()),
        ckpt_path(cfg.checkpoint.directory + "/pregel.ckpt") {}

  const EngineConfig& config;
  const Graph& graph;
  VertexProgram<V, M>* const program;
  const VertexId n;
  const uint32_t workers;
  MemoryBudget budget;
  ThreadPool pool;
  std::unique_ptr<Partitioner> partitioner;
  std::vector<std::vector<VertexId>> worker_vertices;  ///< ascending ids
  RunOutput<V> out;
  std::vector<uint8_t> halted;
  std::optional<std::function<M(const M&, const M&)>> combiner;
  // Inboxes, double-buffered, in one of two representations per
  // superstep: flat (a recycled CSR of offsets + contiguous messages —
  // the general case; v's messages are data[offsets[v] .. offsets[v+1]))
  // or dense (one combined slot + presence flag per vertex — the fast path
  // for near-full frontiers of combinable programs, which skips
  // per-message storage entirely).
  bool inbox_dense = false;
  bool next_dense = false;
  std::vector<M> inbox_slots;
  std::vector<M> next_slots;
  std::vector<uint8_t> inbox_has;
  std::vector<uint8_t> next_has;
  std::vector<size_t> inbox_offsets;
  std::vector<size_t> next_offsets;
  std::vector<M> inbox_data;
  std::vector<M> next_data;
  // Delivery staging: kept (post-fault) messages in delivery order plus
  // per-vertex counts for the count-then-scatter pass, and the
  // sender-side combining accumulator.
  Outbox kept;
  std::vector<uint32_t> counts;
  std::vector<size_t> scatter_cursor;
  arena::FlatAccumulator<M> combine_acc;
  // One outbox per worker, recycled across supersteps (clear() keeps the
  // capacity); only that worker's compute task writes it.
  std::vector<Outbox> outboxes;
  uint64_t outbox_bytes_peak = 0;
  uint64_t live_message_bytes = 0;
  uint64_t messages_combined = 0;  ///< folded at the sender this superstep
  Stopwatch total_watch;
  uint32_t step = 0;
  // Checkpointing. A snapshot holds what re-entering superstep `step`
  // needs: vertex values, halt flags, the delivered inbox and aggregator
  // epoch values. The recovery counters live outside out.stats because a
  // rollback resets out.stats to its snapshot-time copy.
  const bool ckpt_enabled;
  const std::string ckpt_path;
  bool have_checkpoint = false;
  uint32_t checkpoint_step = 0;  ///< superstep a rollback re-enters
  RunStats stats_at_checkpoint;
  uint32_t ckpts_written = 0;
  uint32_t ckpt_failures = 0;
  uint32_t recoveries = 0;
  uint32_t replayed = 0;
  double ckpt_seconds = 0.0;

  /// Charges the graph and vertex state, partitions the vertices and runs
  /// Init on every vertex.
  Status Start() {
    // The graph is replicated state on every worker in Giraph-like systems
    // only for small worker counts; realistically each worker stores its
    // partition. We charge the CSR once (partitioned storage).
    GLY_RETURN_NOT_OK(budget.Charge(graph.MemoryBytes(), "graph partitions"));
    GLY_RETURN_NOT_OK(
        budget.Charge(n * (sizeof(V) + 2), "vertex values and flags"));
    if (config.partitioning == PartitioningPolicy::kBalanced) {
      partitioner = std::make_unique<BalancedEdgePartitioner>(graph, workers);
    } else {
      partitioner = std::make_unique<HashPartitioner>(workers);
    }
    out.values.resize(n);
    halted.assign(n, 0);
    pool.ParallelForChunked(n, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        out.values[i] = program->Init(graph, static_cast<VertexId>(i));
      }
    });
    combiner = program->Combiner();
    program->RegisterAggregators(&out.aggregators);
    inbox_offsets.assign(n + 1, 0);
    counts.assign(n, 0);
    if (combiner.has_value()) combine_acc.EnsureDomain(n);
    for (VertexId v = 0; v < n; ++v) {
      worker_vertices[partitioner->PartitionOf(v)].push_back(v);
    }
    total_watch.Restart();
    if (ckpt_enabled) {
      // A missing directory would otherwise fail every snapshot write and
      // silently disable recovery for the whole run.
      std::error_code ec;
      std::filesystem::create_directories(config.checkpoint.directory, ec);
      RemoveCheckpoint(ckpt_path);  // stale prior-run file
    }
    return Status::OK();
  }

  /// v's delivered messages, viewed in place: its dense slot or its flat
  /// CSR segment.
  std::span<const M> InboxOf(VertexId v) const {
    if (inbox_dense) {
      return inbox_has[v] ? std::span<const M>(&inbox_slots[v], 1)
                          : std::span<const M>();
    }
    return {inbox_data.data() + inbox_offsets[v],
            inbox_offsets[v + 1] - inbox_offsets[v]};
  }

  /// Compute phase: each worker computes its own vertex list into its own
  /// outbox, one ParallelFor index per worker (inline on a one-thread
  /// pool). Injected worker crashes keep their once-per-worker-per-
  /// superstep cadence: statuses are drawn up front in worker order and a
  /// crashed worker computes nothing, leaving the superstep half-computed;
  /// its failure is returned once every worker has finished.
  Status Compute(SuperstepStats* ss) {
    std::vector<Status> worker_status(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      worker_status[w] = fault::CheckPoint("pregel.worker.compute");
      outboxes[w].clear();
    }
    std::vector<Partial> partials(workers);
    std::vector<double> busy(workers, 0.0);
    std::atomic<uint64_t> active{0};
    pool.ParallelFor(0, workers, /*grain=*/1, [&](size_t w) {
      if (!worker_status[w].ok()) return;
      Stopwatch watch;
      active.fetch_add(ComputeWorker(static_cast<uint32_t>(w), &partials[w]),
                       std::memory_order_relaxed);
      busy[w] = watch.ElapsedSeconds();
    });
    for (uint32_t w = 0; w < workers; ++w) {
      if (!worker_status[w].ok()) {
        return worker_status[w].WithPrefix("pregel superstep " +
                                           std::to_string(step) + " worker " +
                                           std::to_string(w));
      }
    }
    out.aggregators.EndSuperstep(partials);
    ss->active_vertices = active.load();
    // Worker imbalance (skew choke point).
    const double max_busy = *std::max_element(busy.begin(), busy.end());
    const double mean_busy =
        std::accumulate(busy.begin(), busy.end(), 0.0) / workers;
    ss->worker_imbalance = mean_busy > 1e-12 ? max_busy / mean_busy : 1.0;
    return Status::OK();
  }

  /// Runs Compute on worker w's active vertices in list order, polling
  /// cancellation every kCancelPollVertices vertices; returns the number
  /// of active vertices.
  uint64_t ComputeWorker(uint32_t w, Partial* partial) {
    const std::vector<VertexId>& list = worker_vertices[w];
    uint64_t active = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      if (i % kCancelPollVertices == 0 && Cancelled(config.cancel)) break;
      const VertexId v = list[i];
      const std::span<const M> messages = InboxOf(v);
      if (halted[v] && messages.empty() && step > 0) continue;
      halted[v] = 0;
      ++active;
      bool halt_flag = false;
      typename VertexProgram<V, M>::Context ctx(
          &graph, v, step, &out.values[v], &outboxes[w], &halt_flag,
          &out.aggregators, partial);
      program->Compute(ctx, messages);
      if (halt_flag) halted[v] = 1;
    }
    return active;
  }

  /// Sender-side combine: folds each target's messages left-to-right in
  /// emission order through the epoch-tagged dense accumulator (no sort of
  /// the message stream), then re-emits one entry per target in ascending
  /// target order.
  void CombineAtSender(Outbox* outbox) {
    combine_acc.NewEpoch();
    for (auto& [target, msg] : *outbox) {
      if (combine_acc.touched(target)) {
        M& acc = combine_acc.slot(target);
        acc = (*combiner)(acc, msg);
      } else {
        combine_acc.mark(target) = std::move(msg);
      }
    }
    auto& targets = combine_acc.touched_keys();
    outbox->clear();
    if (targets.size() * 16 >= n) {
      // Dense round: a sequential sweep of the key domain emits the same
      // ascending target order as sorting the touched list, without the
      // O(k log k) sort.
      for (size_t target = 0; target < n; ++target) {
        if (!combine_acc.touched(target)) continue;
        outbox->emplace_back(static_cast<VertexId>(target),
                             std::move(combine_acc.slot(target)));
      }
    } else {
      std::sort(targets.begin(), targets.end());
      for (size_t target : targets) {
        outbox->emplace_back(static_cast<VertexId>(target),
                             std::move(combine_acc.slot(target)));
      }
    }
  }

  /// Delivery phase: combines each worker's outbox at the sender when the
  /// program has a combiner, then delivers in source-worker order into the
  /// next inbox, flat or dense, and charges the live messages to the
  /// budget (the Giraph OOM mode).
  Status Deliver(SuperstepStats* ss) {
    budget.Release(live_message_bytes);
    live_message_bytes = 0;
    // Dense-frontier fast path: once the active set passes the threshold
    // (and the program is combinable), deliver into one combined slot +
    // presence flag per vertex instead of staging every message in the
    // flat inbox. Messages are folded left-to-right in the same worker
    // order the flat inbox would present them, so results — including
    // floating-point ones — are bit-identical.
    next_dense = combiner.has_value() &&
                 config.dense_frontier_threshold > 0.0 && n > 0 &&
                 static_cast<double>(ss->active_vertices) >=
                     config.dense_frontier_threshold * static_cast<double>(n);
    if (next_dense) {
      next_slots.resize(n);
      next_has.assign(n, 0);
    }
    uint64_t inbox_bytes = 0;
    uint64_t emitted = 0;  // outbox entries before sender-side combine
    for (const Outbox& outbox : outboxes) emitted += outbox.size();
    for (uint32_t w = 0; w < workers; ++w) {
      if (combiner.has_value()) CombineAtSender(&outboxes[w]);
      for (auto& [target, msg] : outboxes[w]) {
        if (GLY_FAULT_DROP("pregel.message.deliver")) {
          ++ss->messages_dropped;
          continue;
        }
        ++ss->messages_sent;
        const uint64_t wire = MessageWireBytes(msg);
        if (partitioner->PartitionOf(target) != w) {
          ++ss->cross_worker_messages;
          ss->cross_worker_bytes += wire + sizeof(VertexId);
        }
        if (!next_dense) {
          // Count-then-scatter: stage the kept message in delivery order;
          // the scatter below places it into the flat CSR.
          inbox_bytes += wire;
          ++counts[target];
          kept.emplace_back(target, std::move(msg));
        } else if (next_has[target]) {
          next_slots[target] = (*combiner)(next_slots[target], msg);
        } else {
          next_slots[target] = std::move(msg);
          next_has[target] = 1;
        }
      }
    }
    if (next_dense) {
      // Live bytes are the combined slots actually occupied — the memory
      // the fast path holds instead of the per-message flat inbox.
      for (VertexId v = 0; v < n; ++v) {
        if (next_has[v]) inbox_bytes += MessageWireBytes(next_slots[v]);
      }
    } else {
      // Scatter pass: prefix-sum the per-vertex counts into CSR offsets,
      // then place kept messages — already in (source worker, combined
      // target order / emission order) delivery order — so each vertex's
      // segment holds its messages in delivery order.
      next_offsets.resize(n + 1);
      next_offsets[0] = 0;
      for (VertexId v = 0; v < n; ++v) {
        next_offsets[v + 1] = next_offsets[v] + counts[v];
      }
      next_data.resize(next_offsets[n]);
      scatter_cursor.assign(next_offsets.begin(), next_offsets.end() - 1);
      for (auto& [target, msg] : kept) {
        next_data[scatter_cursor[target]++] = std::move(msg);
      }
      kept.clear();
      std::fill(counts.begin(), counts.end(), 0u);
    }
    messages_combined = emitted - ss->messages_sent - ss->messages_dropped;
    // Arena telemetry: bytes parked in the recycled buffers right now
    // (capacity, not occupancy — this is what the pool holds between
    // supersteps). Surfaced as `pregel.outbox_bytes_peak`.
    uint64_t pool_bytes = kept.capacity() * sizeof(std::pair<VertexId, M>);
    for (const Outbox& outbox : outboxes) {
      pool_bytes += outbox.capacity() * sizeof(std::pair<VertexId, M>);
    }
    pool_bytes += (inbox_data.capacity() + next_data.capacity() +
                   inbox_slots.capacity() + next_slots.capacity()) *
                  sizeof(M);
    pool_bytes += combine_acc.held_bytes();
    outbox_bytes_peak = std::max(outbox_bytes_peak, pool_bytes);
    ss->dense_delivery = next_dense;
    if (next_dense) ++out.stats.dense_supersteps;
    live_message_bytes = inbox_bytes;
    Status charge = budget.Charge(inbox_bytes, "superstep messages");
    if (!charge.ok()) {
      return charge.WithPrefix("pregel superstep " + std::to_string(step));
    }
    return Status::OK();
  }

  /// Barrier: sleeps out the modeled network (cross-worker bytes over the
  /// pipe plus the barrier latency), passes the barrier fault point and
  /// swaps the delivered inbox in.
  Status Barrier(SuperstepStats* ss) {
    ss->network_seconds = config.barrier_latency_s;
    if (config.network_mib_per_s > 0.0) {
      ss->network_seconds += static_cast<double>(ss->cross_worker_bytes) /
                             (config.network_mib_per_s * (1 << 20));
    }
    if (ss->network_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(ss->network_seconds));
    }
    // Injected barrier faults: a crash here kills the superstep after
    // compute (recoverable from a checkpoint, like a worker crash); a
    // stall models the slow-worker scenario the harness timeout must cut
    // short.
    Status barrier = fault::CheckPoint("pregel.superstep.barrier");
    if (!barrier.ok()) {
      return barrier.WithPrefix("pregel superstep " + std::to_string(step) +
                                " barrier");
    }
    inbox_offsets.swap(next_offsets);
    inbox_data.swap(next_data);
    inbox_slots.swap(next_slots);
    inbox_has.swap(next_has);
    inbox_dense = next_dense;
    next_dense = false;
    return Status::OK();
  }

  void SyncCheckpointStats() {
    out.stats.checkpoints_written = ckpts_written;
    out.stats.checkpoint_failures = ckpt_failures;
    out.stats.recoveries = recoveries;
    out.stats.supersteps_replayed = replayed;
    out.stats.checkpoint_seconds = ckpt_seconds;
  }

  /// Snapshots the entry state of superstep `step`. A failed write is not
  /// fatal: WriteTo stages and renames atomically, so the previous
  /// snapshot, if any, stays the recovery point.
  void WriteCheckpoint() {
    if constexpr (kCanCheckpoint) {
      trace::TraceSpan ckpt_span("pregel.checkpoint.write", "pregel");
      ckpt_span.SetAttribute("superstep", uint64_t{step});
      Stopwatch ckpt_watch;
      CheckpointWriter writer;
      CheckpointEncoder meta(writer.AddSection("meta"));
      meta.PutU32(step);
      meta.PutU64(n);
      meta.PutU64(live_message_bytes);
      CheckpointEncoder values(writer.AddSection("values"));
      CkptPutValue(values, out.values);
      CheckpointEncoder halt(writer.AddSection("halted"));
      CkptPutValue(halt, halted);
      // The delivered inbox in canonical sparse form.
      std::vector<std::vector<M>> inbox(n);
      for (VertexId v = 0; v < n; ++v) {
        const std::span<const M> messages = InboxOf(v);
        inbox[v].assign(messages.begin(), messages.end());
      }
      CheckpointEncoder msgs(writer.AddSection("inbox"));
      CkptPutValue(msgs, inbox);
      CheckpointEncoder agg(writer.AddSection("aggregators"));
      const auto& agg_values = out.aggregators.CurrentValues();
      agg.PutU64(agg_values.size());
      for (const auto& [name, value] : agg_values) {
        agg.PutString(name);
        agg.PutDouble(value);
      }
      Status written = writer.WriteTo(ckpt_path);
      ckpt_seconds += ckpt_watch.ElapsedSeconds();
      if (written.ok()) {
        ++ckpts_written;
        have_checkpoint = true;
        checkpoint_step = step;
        SyncCheckpointStats();
        stats_at_checkpoint = out.stats;
      } else {
        ++ckpt_failures;
      }
    }
  }

  /// Loads the last snapshot back into the run state.
  Status RestoreCheckpoint() {
    if constexpr (kCanCheckpoint) {
      trace::TraceSpan restore_span("pregel.checkpoint.restore", "pregel");
      restore_span.SetAttribute("checkpoint_step", uint64_t{checkpoint_step});
      GLY_ASSIGN_OR_RETURN(CheckpointReader reader,
                           CheckpointReader::Load(ckpt_path));
      GLY_ASSIGN_OR_RETURN(std::string_view meta_raw, reader.Section("meta"));
      CheckpointDecoder meta(meta_raw);
      uint32_t saved_step = 0;
      uint64_t saved_n = 0;
      uint64_t saved_live_bytes = 0;
      if (!meta.GetU32(&saved_step) || !meta.GetU64(&saved_n) ||
          !meta.GetU64(&saved_live_bytes) || saved_n != n ||
          saved_step != checkpoint_step) {
        return Status::Internal("pregel checkpoint metadata mismatch");
      }
      GLY_ASSIGN_OR_RETURN(std::string_view values_raw,
                           reader.Section("values"));
      CheckpointDecoder values(values_raw);
      if (!CkptGetValue(values, &out.values) || out.values.size() != n) {
        return Status::Internal("pregel checkpoint vertex values corrupt");
      }
      GLY_ASSIGN_OR_RETURN(std::string_view halt_raw,
                           reader.Section("halted"));
      CheckpointDecoder halt(halt_raw);
      if (!CkptGetValue(halt, &halted) || halted.size() != n) {
        return Status::Internal("pregel checkpoint halt flags corrupt");
      }
      GLY_ASSIGN_OR_RETURN(std::string_view msgs_raw, reader.Section("inbox"));
      CheckpointDecoder msgs(msgs_raw);
      std::vector<std::vector<M>> restored;
      if (!CkptGetValue(msgs, &restored) || restored.size() != n) {
        return Status::Internal("pregel checkpoint inbox corrupt");
      }
      GLY_ASSIGN_OR_RETURN(std::string_view agg_raw,
                           reader.Section("aggregators"));
      CheckpointDecoder agg(agg_raw);
      uint64_t agg_count = 0;
      if (!agg.GetU64(&agg_count)) {
        return Status::Internal("pregel checkpoint aggregators corrupt");
      }
      std::map<std::string, double> agg_values;
      for (uint64_t i = 0; i < agg_count; ++i) {
        std::string name;
        double value = 0.0;
        if (!agg.GetString(&name) || !agg.GetDouble(&value)) {
          return Status::Internal("pregel checkpoint aggregators corrupt");
        }
        agg_values[name] = value;
      }
      out.aggregators.RestoreCurrentValues(agg_values);
      // Flatten the canonical sparse snapshot into the recycled CSR
      // buffers (per-vertex order is preserved verbatim).
      inbox_offsets.resize(n + 1);
      inbox_offsets[0] = 0;
      for (VertexId v = 0; v < n; ++v) {
        inbox_offsets[v + 1] = inbox_offsets[v] + restored[v].size();
      }
      inbox_data.resize(inbox_offsets[n]);
      for (VertexId v = 0; v < n; ++v) {
        std::move(restored[v].begin(), restored[v].end(),
                  inbox_data.begin() + inbox_offsets[v]);
      }
      kept.clear();
      std::fill(counts.begin(), counts.end(), 0u);
      // Snapshots always hold the canonical sparse form.
      inbox_dense = false;
      next_dense = false;
      std::fill(inbox_has.begin(), inbox_has.end(), 0);
      std::fill(next_has.begin(), next_has.end(), 0);
      // Swap the message-memory accounting over to the restored inbox.
      budget.Release(live_message_bytes);
      live_message_bytes = 0;
      GLY_RETURN_NOT_OK(
          budget.Charge(saved_live_bytes, "restored superstep messages"));
      live_message_bytes = saved_live_bytes;
      out.stats = stats_at_checkpoint;
      return Status::OK();
    } else {
      return Status::Internal("checkpointing unavailable for this program");
    }
  }

  /// On superstep failure: rolls back to the last snapshot and rewinds
  /// `step` if the policy allows; false leaves the failure to the caller.
  bool TryRecover() {
    if (!ckpt_enabled || !have_checkpoint) return false;
    if (recoveries >= config.checkpoint.max_recoveries) return false;
    if (!RestoreCheckpoint().ok()) return false;
    ++recoveries;
    metrics::AddCounter("pregel.recoveries");
    replayed += step - checkpoint_step;
    SyncCheckpointStats();
    step = checkpoint_step;
    return true;
  }

  bool AllHalted() const {
    return std::all_of(halted.begin(), halted.end(),
                       [](uint8_t h) { return h != 0; });
  }

  void FinishStats() {
    SyncCheckpointStats();
    out.stats.total_seconds = total_watch.ElapsedSeconds();
    out.stats.peak_memory_bytes = budget.peak();
    out.stats.outbox_bytes_peak = outbox_bytes_peak;
  }

  /// A cancelled superstep: folds the partial stats out and returns the
  /// token's status, so the harness records a timed-out or stalled cell
  /// whose attempt thread it can join instead of abandoning a runaway one.
  Status CancelledStatus(RunStats* partial_stats) {
    FinishStats();
    if (partial_stats != nullptr) *partial_stats = out.stats;
    return config.cancel->ToStatus().WithPrefix("pregel superstep " +
                                                std::to_string(step));
  }
};

}  // namespace detail

/// The BSP engine.
class Engine {
 public:
  explicit Engine(EngineConfig config) : config_(config) {}

  const EngineConfig& config() const { return config_; }

  /// Runs `program` on `graph` to halt (all vertices halted, no messages in
  /// flight) or to max_supersteps. Fails with ResourceExhausted if the
  /// memory budget is exceeded. `partial_stats` (optional) receives the
  /// stats accumulated so far when the run is cooperatively cancelled —
  /// the success path leaves it untouched (stats arrive in the output).
  template <typename V, typename M>
  Result<RunOutput<V>> Run(const Graph& graph, VertexProgram<V, M>* program,
                           RunStats* partial_stats = nullptr) const {
    GLY_FAULT_POINT("pregel.run.start");
    GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
    detail::SuperstepState<V, M> s(config_, graph, program);
    GLY_RETURN_NOT_OK(s.Start());
    RunStats& stats = s.out.stats;
    while (s.step < config_.max_supersteps) {
      if (Cancelled(config_.cancel)) return s.CancelledStatus(partial_stats);
      SuperstepStats ss;
      ss.superstep = s.step;
      Stopwatch step_watch;
      // One span per superstep *attempt*: an iteration cut short by a
      // crashed worker or barrier fault still closes its span, so a
      // recovered run's timeline shows the failed attempt and its replays.
      trace::TraceSpan step_span("pregel.superstep", "pregel");
      perf::SpanCounters step_counters(&step_span);
      step_span.SetAttribute("superstep", uint64_t{s.step});

      Status crashed = s.Compute(&ss);
      if (Cancelled(config_.cancel)) return s.CancelledStatus(partial_stats);
      if (!crashed.ok()) {
        // A crashed worker left this superstep half-computed; roll the
        // whole state back to the last snapshot and replay from there.
        if (s.TryRecover()) continue;
        return crashed;
      }
      ss.compute_seconds = step_watch.ElapsedSeconds();
      GLY_RETURN_NOT_OK(s.Deliver(&ss));
      Status barrier = s.Barrier(&ss);
      if (!barrier.ok()) {
        if (s.TryRecover()) continue;
        return barrier;
      }
      // Post-barrier poll: an injected stall sleeps through the deadline
      // at the barrier — surface the cancellation before committing the
      // superstep.
      if (Cancelled(config_.cancel)) return s.CancelledStatus(partial_stats);

      stats.total_messages += ss.messages_sent;
      stats.total_messages_dropped += ss.messages_dropped;
      stats.total_cross_worker_bytes += ss.cross_worker_bytes;
      stats.network_seconds += ss.network_seconds;
      stats.per_superstep.push_back(ss);
      stats.supersteps = s.step + 1;
      step_span.SetAttribute("active", ss.active_vertices);
      step_span.SetAttribute("messages_sent", ss.messages_sent);
      step_span.SetAttribute("dense", ss.dense_delivery ? "true" : "false");
      metrics::AddCounter("pregel.supersteps");
      // Progress heartbeat: one completed superstep. The harness stall
      // watchdog cancels the attempt when this stops advancing.
      if (config_.cancel != nullptr) config_.cancel->Heartbeat();
      metrics::AddCounter("pregel.messages_sent", ss.messages_sent);
      metrics::AddCounter("pregel.messages_dropped", ss.messages_dropped);
      metrics::AddCounter("pregel.messages_combined", s.messages_combined);
      if (ss.dense_delivery) metrics::AddCounter("pregel.dense_supersteps");
      ++s.step;

      // Termination: all halted and no messages in flight.
      if (ss.messages_sent == 0 && s.AllHalted()) break;
      // Snapshot the post-barrier state (the entry state of superstep
      // `step`) on the policy's cadence.
      if (s.ckpt_enabled && s.step % config_.checkpoint.interval == 0) {
        s.WriteCheckpoint();
      }
    }
    if (s.ckpt_enabled) RemoveCheckpoint(s.ckpt_path);  // finished cleanly
    s.FinishStats();
    metrics::SetGauge("pregel.outbox_bytes_peak",
                      static_cast<double>(s.outbox_bytes_peak));
    return std::move(s.out);
  }

 private:
  EngineConfig config_;
};

}  // namespace gly::pregel
