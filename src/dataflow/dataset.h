// Dataflow engine — the "GraphX on Spark" substrate.
//
// Models the RDD execution style the paper benchmarks through GraphX:
// immutable, partitioned, eagerly materialized datasets transformed by
// map/filter/flatMap and shuffled by reduceByKey/join. GraphX expresses
// Pregel iterations as *joins over immutable collections*: every superstep
// materializes a fresh message dataset and a fresh full vertex dataset
// (graph.h builds on these primitives).
//
// Two properties of this execution model — both mechanistic here, not
// tuned constants — explain GraphX's Figure 4 behaviour:
//   * every iteration touches and re-materializes the FULL vertex dataset
//     (the join walks all vertices even when few are active), so the
//     long converging tail of CONN costs ~O(V) per superstep where Giraph
//     pays ~O(active) — the ~3x CONN slowdown;
//   * immutability + lineage keep the previous generation(s) of vertex
//     datasets alive, so peak memory is a multiple of Giraph's — with an
//     equal per-platform budget, dataflow exhausts memory on workloads the
//     BSP engine completes (the paper's failed GraphX runs, "surprising
//     considering they both use the Java virtual machine").
//
// Every materialized dataset charges its bytes against the context's
// MemoryBudget and releases them when the dataset is dropped.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "common/threadpool.h"
#include "common/perf_counters.h"
#include "common/trace.h"

namespace gly::dataflow {

/// Engine configuration (one simulated Spark deployment).
struct ContextConfig {
  uint32_t num_partitions = 8;
  uint32_t num_threads = 0;  ///< 0 = hardware concurrency
  uint64_t memory_budget_bytes = 0;

  /// Bytes-per-element overhead factor modelling JVM object headers +
  /// RDD bookkeeping (Spark's in-memory tuples are far larger than their
  /// payload). Applied to every materialized dataset.
  double object_overhead_factor = 2.0;

  /// Simulated shuffle bandwidth (MiB/s, 0 = free).
  double shuffle_mib_per_s = 0.0;

  /// Simulated materialization throughput (MiB/s, 0 = free): the cost of
  /// allocating, populating, and GC-tracking fresh immutable collections
  /// every transformation — the JVM object churn that separates GraphX
  /// from Giraph in practice even though "they both use the Java virtual
  /// machine". Charged on every dataset the engine materializes.
  double materialize_mib_per_s = 0.0;

  /// Cooperative cancellation (null = unsupervised). Every transformation
  /// funnels through Context::Materialize, so one poll there bounds a
  /// cancelled lineage to a single operator's work; Shuffle additionally
  /// polls per source partition. Materialization bumps the token's
  /// progress heartbeat.
  CancelToken* cancel = nullptr;
};

/// Accumulated execution statistics.
struct ContextStats {
  uint64_t datasets_materialized = 0;
  uint64_t elements_materialized = 0;
  uint64_t bytes_materialized = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t join_probe_rows = 0;
  double shuffle_seconds = 0.0;
  double materialize_seconds = 0.0;
  uint64_t peak_memory_bytes = 0;
  /// Shuffle output bytes that landed in recycled pooled buffers.
  uint64_t shuffle_bytes_pooled = 0;
  /// Peak bytes parked in the context's recycled-buffer pools.
  uint64_t pooled_bytes_peak = 0;
};

class Context;

namespace detail {

/// Thread-safe wrapper around one per-element-type vector pool. Payload
/// destructors release partitions from whatever thread drops the last
/// dataset reference, hence the mutex (taken per partition, not per
/// record). Shared ownership: payloads hold a shared_ptr so buffers can
/// outlive the Context that spawned them.
template <typename T>
struct TypedPool {
  explicit TypedPool(arena::PoolGroupStats* stats) : pool(stats) {}
  std::vector<T> Acquire() {
    std::lock_guard<std::mutex> lock(mu);
    return pool.Acquire();
  }
  void Release(std::vector<T>&& v) {
    std::lock_guard<std::mutex> lock(mu);
    pool.Release(std::move(v));
  }
  std::mutex mu;
  arena::VectorPool<T> pool;
};

}  // namespace detail

/// An immutable, partitioned, materialized collection.
template <typename T>
class Dataset {
 public:
  Dataset() = default;

  size_t num_partitions() const {
    return data_ ? data_->partitions.size() : 0;
  }
  const std::vector<T>& partition(size_t i) const {
    return data_->partitions[i];
  }

  uint64_t Count() const {
    if (!data_) return 0;
    uint64_t n = 0;
    for (const auto& p : data_->partitions) n += p.size();
    return n;
  }

  /// Copies all elements out (tests, result collection).
  std::vector<T> Collect() const {
    std::vector<T> out;
    if (!data_) return out;
    for (const auto& p : data_->partitions) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  bool valid() const { return data_ != nullptr; }

 private:
  friend class Context;

  struct Payload {
    std::vector<std::vector<T>> partitions;
    ScopedCharge charge;  // released when the last reference drops
    /// Origin pool: partition storage is recycled here when the last
    /// reference drops, so the next operator materializes into warm
    /// buffers instead of the allocator.
    std::shared_ptr<detail::TypedPool<T>> pool;
    ~Payload() {
      for (auto& p : partitions) pool->Release(std::move(p));
    }
  };

  explicit Dataset(std::shared_ptr<Payload> data) : data_(std::move(data)) {}

  std::shared_ptr<Payload> data_;
};

/// The dataflow execution context (driver + executors).
class Context {
 public:
  explicit Context(ContextConfig config)
      : config_(config),
        budget_(config.memory_budget_bytes),
        pool_(config.num_threads != 0 ? config.num_threads
                                      : HardwareThreads()) {}

  const ContextConfig& config() const { return config_; }
  const ContextStats& stats() const {
    const_cast<ContextStats&>(stats_).peak_memory_bytes = budget_.peak();
    const_cast<ContextStats&>(stats_).pooled_bytes_peak = pool_stats_.peak();
    return stats_;
  }
  MemoryBudget& budget() { return budget_; }
  ThreadPool& pool() { return pool_; }

  /// Creates a dataset from a vector, hash-spread across partitions.
  template <typename T>
  Result<Dataset<T>> Parallelize(const std::vector<T>& elements) {
    const uint32_t parts = config_.num_partitions;
    auto partitions = AcquirePartitions<T>(parts);
    // Exact-size scatter: element i lands at partitions[i % parts] slot
    // i / parts, with one resize per partition instead of per-element
    // growth.
    for (uint32_t p = 0; p < parts; ++p) {
      partitions[p].resize(elements.size() / parts +
                           (p < elements.size() % parts ? 1 : 0));
    }
    for (size_t i = 0; i < elements.size(); ++i) {
      partitions[i % parts][i / parts] = elements[i];
    }
    return Materialize(std::move(partitions));
  }

  /// Creates a keyed dataset partitioned by hash(key) — the co-partitioning
  /// contract joins rely on.
  template <typename V>
  Result<Dataset<std::pair<uint64_t, V>>> ParallelizeByKey(
      std::vector<std::pair<uint64_t, V>> elements) {
    using KV = std::pair<uint64_t, V>;
    const uint32_t parts = config_.num_partitions;
    auto partitions = AcquirePartitions<KV>(parts);
    // Radix scatter (count, resize exact, place): stable within each
    // partition, without per-record reallocation churn.
    auto& targets = target_scratch_;
    targets.clear();
    targets.reserve(elements.size());
    std::vector<size_t> counts(parts, 0);
    for (const KV& kv : elements) {
      uint32_t t = PartitionOf(kv.first);
      targets.push_back(t);
      ++counts[t];
    }
    std::vector<size_t> cursor(parts, 0);
    for (uint32_t p = 0; p < parts; ++p) partitions[p].resize(counts[p]);
    for (size_t i = 0; i < elements.size(); ++i) {
      uint32_t t = targets[i];
      partitions[t][cursor[t]++] = std::move(elements[i]);
    }
    return Materialize(std::move(partitions));
  }

  /// map: T -> U, narrow (no shuffle).
  template <typename U, typename T, typename Fn>
  Result<Dataset<U>> Map(const Dataset<T>& in, Fn fn) {
    auto partitions = AcquirePartitions<U>(in.num_partitions());
    pool_.ParallelFor(in.num_partitions(), [&](size_t p) {
      const auto& src = in.partition(p);
      auto& dst = partitions[p];
      dst.reserve(src.size());
      for (const T& t : src) dst.push_back(fn(t));
    });
    return Materialize(std::move(partitions));
  }

  /// flatMap: T -> vector<U>, narrow.
  template <typename U, typename T, typename Fn>
  Result<Dataset<U>> FlatMap(const Dataset<T>& in, Fn fn) {
    auto partitions = AcquirePartitions<U>(in.num_partitions());
    pool_.ParallelFor(in.num_partitions(), [&](size_t p) {
      const auto& src = in.partition(p);
      auto& dst = partitions[p];
      for (const T& t : src) {
        for (U& u : fn(t)) dst.push_back(std::move(u));
      }
    });
    return Materialize(std::move(partitions));
  }

  /// filter, narrow.
  template <typename T, typename Fn>
  Result<Dataset<T>> Filter(const Dataset<T>& in, Fn pred) {
    auto partitions = AcquirePartitions<T>(in.num_partitions());
    pool_.ParallelFor(in.num_partitions(), [&](size_t p) {
      for (const T& t : in.partition(p)) {
        if (pred(t)) partitions[p].push_back(t);
      }
    });
    return Materialize(std::move(partitions));
  }

  /// reduceByKey: shuffles (key, V) pairs to hash partitions, then folds
  /// per-key with `fn`. Wide dependency: bytes cross the simulated network.
  template <typename V, typename Fn>
  Result<Dataset<std::pair<uint64_t, V>>> ReduceByKey(
      const Dataset<std::pair<uint64_t, V>>& in, Fn fn) {
    using KV = std::pair<uint64_t, V>;
    GLY_ASSIGN_OR_RETURN(Dataset<KV> shuffled, Shuffle(in));
    auto partitions = AcquirePartitions<KV>(shuffled.num_partitions());
    // Flat fold: per-key accumulation through a recycled epoch-tagged
    // dense array when the key domain is small enough (FlatDomainOk),
    // falling back to a hash map otherwise. Per-key values fold in
    // encounter order either way; distinct keys within a partition are
    // emitted in first-encounter or hash-iteration order, which no
    // consumer observes — results are keyed, never order-addressed.
    auto accs = AccumulatorsFor<V>(shuffled.num_partitions());
    pool_.ParallelFor(shuffled.num_partitions(), [&](size_t p) {
      const auto& src = shuffled.partition(p);
      uint64_t max_key = 0;
      for (const KV& kv : src) max_key = std::max(max_key, kv.first);
      auto& dst = partitions[p];
      if (!src.empty() && FlatDomainOk(max_key, src.size())) {
        auto& acc = (*accs)[p];
        acc.EnsureDomain(max_key + 1);
        acc.NewEpoch();
        for (const KV& kv : src) {
          if (acc.touched(kv.first)) {
            V& a = acc.slot(kv.first);
            a = fn(a, kv.second);
          } else {
            acc.mark(kv.first) = kv.second;
          }
        }
        dst.reserve(acc.touched_keys().size());
        for (size_t k : acc.touched_keys()) {
          dst.emplace_back(k, std::move(acc.slot(k)));
        }
      } else {
        std::unordered_map<uint64_t, V> acc;
        for (const KV& kv : src) {
          auto [it, inserted] = acc.try_emplace(kv.first, kv.second);
          if (!inserted) it->second = fn(it->second, kv.second);
        }
        dst.assign(acc.begin(), acc.end());
      }
    });
    return Materialize(std::move(partitions));
  }

  /// Left outer join of two co-partitioned keyed datasets:
  /// for every (k, a) in `left`, calls fn(k, a, b_or_null) where b points
  /// to the matching right value (first match) or nullptr.
  template <typename U, typename A, typename B, typename Fn>
  Result<Dataset<U>> LeftJoin(const Dataset<std::pair<uint64_t, A>>& left,
                              const Dataset<std::pair<uint64_t, B>>& right,
                              Fn fn) {
    if (left.num_partitions() != right.num_partitions()) {
      return Status::InvalidArgument("join requires co-partitioned inputs");
    }
    trace::TraceSpan join_span("dataflow.join", "dataflow");
    perf::SpanCounters join_counters(&join_span);
    auto partitions = AcquirePartitions<U>(left.num_partitions());
    std::atomic<uint64_t> probes{0};
    // Build tables: one recycled epoch-tagged [key -> value*] array per
    // partition replaces the per-call hash map when the build side's key
    // domain is small enough; first match wins either way.
    auto accs = AccumulatorsFor<const void*>(left.num_partitions());
    pool_.ParallelFor(left.num_partitions(), [&](size_t p) {
      const auto& build_src = right.partition(p);
      uint64_t max_key = 0;
      for (const auto& kv : build_src) max_key = std::max(max_key, kv.first);
      uint64_t local_probes = 0;
      auto& dst = partitions[p];
      dst.reserve(left.partition(p).size());
      if (FlatDomainOk(max_key, build_src.size())) {
        auto& build = (*accs)[p];
        build.EnsureDomain(max_key + 1);
        build.NewEpoch();
        for (const auto& kv : build_src) {
          if (!build.touched(kv.first)) build.mark(kv.first) = &kv.second;
        }
        for (const auto& kv : left.partition(p)) {
          ++local_probes;
          const B* match =
              kv.first <= max_key && build.touched(kv.first)
                  ? static_cast<const B*>(build.slot(kv.first))
                  : nullptr;
          dst.push_back(fn(kv.first, kv.second, match));
        }
      } else {
        std::unordered_map<uint64_t, const B*> build;
        build.reserve(build_src.size());
        for (const auto& kv : build_src) {
          build.emplace(kv.first, &kv.second);
        }
        for (const auto& kv : left.partition(p)) {
          ++local_probes;
          auto it = build.find(kv.first);
          dst.push_back(fn(kv.first, kv.second,
                           it == build.end() ? nullptr : it->second));
        }
      }
      probes.fetch_add(local_probes, std::memory_order_relaxed);
    });
    stats_.join_probe_rows += probes.load();
    join_span.SetAttribute("probe_rows", probes.load());
    metrics::AddCounter("dataflow.join_probe_rows", probes.load());
    return Materialize(std::move(partitions));
  }

  /// Re-partitions a keyed dataset by key hash (the shuffle primitive).
  template <typename V>
  Result<Dataset<std::pair<uint64_t, V>>> Shuffle(
      const Dataset<std::pair<uint64_t, V>>& in) {
    using KV = std::pair<uint64_t, V>;
    trace::TraceSpan shuffle_span("dataflow.shuffle", "dataflow");
    perf::SpanCounters shuffle_counters(&shuffle_span);
    // Injected shuffle failure: a lost map output / fetch failure aborts
    // the stage (Spark without stage retries).
    GLY_FAULT_POINT("dataflow.shuffle");
    const uint32_t parts = config_.num_partitions;
    auto partitions = AcquirePartitions<KV>(parts);
    uint64_t moved_bytes = 0;
    // Radix partition step, pass 1: compute each record's target (cached
    // in a recycled scratch array) and per-target occupancy, plus the
    // cross-partition bytes the simulated network must move.
    auto& targets = target_scratch_;
    targets.clear();
    std::vector<size_t> counts(parts, 0);
    for (size_t p = 0; p < in.num_partitions(); ++p) {
      GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
      for (const KV& kv : in.partition(p)) {
        uint32_t target = PartitionOf(kv.first);
        if (target != p) moved_bytes += sizeof(KV);
        targets.push_back(target);
        ++counts[target];
      }
    }
    // Pass 2: resize each output partition exactly once and scatter in
    // source order — stable within each target partition, so join and
    // fold order downstream follow source order.
    for (uint32_t t = 0; t < parts; ++t) partitions[t].resize(counts[t]);
    std::vector<size_t> cursor(parts, 0);
    size_t i = 0;
    for (size_t p = 0; p < in.num_partitions(); ++p) {
      for (const KV& kv : in.partition(p)) {
        uint32_t target = targets[i++];
        partitions[target][cursor[target]++] = kv;
      }
    }
    const uint64_t pooled_bytes =
        static_cast<uint64_t>(targets.size()) * sizeof(KV);
    stats_.shuffle_bytes_pooled += pooled_bytes;
    shuffle_span.SetAttribute("pooled_bytes", pooled_bytes);
    metrics::AddCounter("dataflow.shuffle_bytes_pooled", pooled_bytes);
    stats_.shuffle_bytes += moved_bytes;
    shuffle_span.SetAttribute("moved_bytes", moved_bytes);
    metrics::AddCounter("dataflow.shuffle_bytes", moved_bytes);
    if (config_.shuffle_mib_per_s > 0.0 && moved_bytes > 0) {
      double s = static_cast<double>(moved_bytes) /
                 (config_.shuffle_mib_per_s * (1 << 20));
      stats_.shuffle_seconds += s;
      std::this_thread::sleep_for(std::chrono::duration<double>(s));
    }
    return Materialize(std::move(partitions));
  }

  uint32_t PartitionOf(uint64_t key) const {
    uint64_t h = (key + 1) * 0x9E3779B97F4A7C15ULL;
    return static_cast<uint32_t>((h >> 33) % config_.num_partitions);
  }

 private:
  /// Flat-table admission check (join/reduce): a dense
  /// [0, max_key] array is used only when the key domain is within a
  /// small multiple of the partition's population (hash partitioning
  /// spreads a dense id space across partitions, hence the 16x slack)
  /// and below a hard cap, so a sparse 64-bit key space can never
  /// provoke a giant allocation. Otherwise the hash-map path runs.
  static bool FlatDomainOk(uint64_t max_key, size_t elements) {
    constexpr uint64_t kFlatDomainCap = 1ull << 24;
    return max_key < kFlatDomainCap &&
           max_key + 1 <= 16 * static_cast<uint64_t>(elements) + 1024;
  }

  /// The per-element-type vector pool (created on first use). Driver-side
  /// only; the returned TypedPool itself is thread-safe.
  template <typename T>
  std::shared_ptr<detail::TypedPool<T>> PoolFor() {
    auto [it, inserted] =
        pools_.try_emplace(std::type_index(typeid(T)), nullptr);
    if (inserted) {
      it->second = std::make_shared<detail::TypedPool<T>>(&pool_stats_);
    }
    return std::static_pointer_cast<detail::TypedPool<T>>(it->second);
  }

  /// `n` partition buffers, recycled from the pool.
  template <typename T>
  std::vector<std::vector<T>> AcquirePartitions(size_t n) {
    std::vector<std::vector<T>> partitions(n);
    auto pool = PoolFor<T>();
    for (auto& p : partitions) p = pool->Acquire();
    return partitions;
  }

  /// Per-partition epoch-tagged accumulators for slot type V (join build
  /// tables, reduce folds), recycled across operators. Acquired on the
  /// driver thread; each parallel partition body touches only its own
  /// accumulator.
  template <typename V>
  std::shared_ptr<std::vector<arena::FlatAccumulator<V>>> AccumulatorsFor(
      size_t n) {
    auto [it, inserted] =
        accumulators_.try_emplace(std::type_index(typeid(V)), nullptr);
    if (inserted) {
      it->second = std::make_shared<std::vector<arena::FlatAccumulator<V>>>();
    }
    auto accs = std::static_pointer_cast<std::vector<arena::FlatAccumulator<V>>>(
        it->second);
    if (accs->size() < n) accs->resize(n);
    return accs;
  }

  /// Charges the budget for a new dataset and wraps it. All transformations
  /// funnel through here, so an exceeded budget aborts the computation with
  /// ResourceExhausted at the exact materialization that overflowed.
  template <typename T>
  Result<Dataset<T>> Materialize(std::vector<std::vector<T>> partitions) {
    // Every transformation funnels through here — one span per operator in
    // the lineage, and one site to model an executor loss at any point.
    trace::TraceSpan mat_span("dataflow.materialize", "dataflow");
    perf::SpanCounters mat_counters(&mat_span);
    GLY_FAULT_POINT("dataflow.materialize");
    GLY_RETURN_NOT_OK(CheckCancel(config_.cancel));
    uint64_t elements = 0;
    for (const auto& p : partitions) elements += p.size();
    uint64_t bytes = static_cast<uint64_t>(
        static_cast<double>(elements * sizeof(T)) *
        config_.object_overhead_factor);
    mat_span.SetAttribute("elements", elements);
    mat_span.SetAttribute("bytes", bytes);
    GLY_RETURN_NOT_OK(budget_.Charge(bytes, "dataset materialization"));
    ++stats_.datasets_materialized;
    stats_.elements_materialized += elements;
    stats_.bytes_materialized += bytes;
    metrics::AddCounter("dataflow.datasets_materialized");
    metrics::AddCounter("dataflow.bytes_materialized", bytes);
    if (config_.materialize_mib_per_s > 0.0 && bytes > 0) {
      double s = static_cast<double>(bytes) /
                 (config_.materialize_mib_per_s * (1 << 20));
      stats_.materialize_seconds += s;
      std::this_thread::sleep_for(std::chrono::duration<double>(s));
    }
    auto payload = std::make_shared<typename Dataset<T>::Payload>();
    payload->partitions = std::move(partitions);
    payload->charge = ScopedCharge(&budget_, bytes);
    payload->pool = PoolFor<T>();
    if (config_.cancel != nullptr) config_.cancel->Heartbeat();
    return Dataset<T>(std::move(payload));
  }

  ContextConfig config_;
  MemoryBudget budget_;
  ThreadPool pool_;
  ContextStats stats_;
  // Hot-path memory model state (DESIGN.md §13): per-type partition-buffer
  // pools, per-type flat accumulators, the shuffle radix scratch, and the
  // pool byte telemetry. All recycle across operators within this
  // context's lifetime and unwind with it.
  std::map<std::type_index, std::shared_ptr<void>> pools_;
  std::map<std::type_index, std::shared_ptr<void>> accumulators_;
  std::vector<uint32_t> target_scratch_;
  arena::PoolGroupStats pool_stats_;
};

}  // namespace gly::dataflow
