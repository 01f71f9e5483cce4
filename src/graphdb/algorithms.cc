#include "graphdb/algorithms.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/metrics.h"
#include "common/threadpool.h"
#include "graphdb/traversal.h"

namespace gly::graphdb {

namespace {

// Vertices a worker claims at a time in a vertex loop: small enough that a
// block holding a hub does not leave the other workers idle.
constexpr size_t kVertexBlock = 64;

Direction NeighborhoodOf(bool undirected) {
  return undirected ? Direction::kBoth : Direction::kOutgoing;
}

// Fetches a node's neighborhood across `direction`, ascending and without
// duplicates to match the CSR platforms.
Status FetchSortedNeighbors(const GraphStore& store, VertexId node,
                            Direction direction, PageCache::Cursor& cursor,
                            std::vector<VertexId>* out) {
  GLY_RETURN_NOT_OK(store.CollectNeighbors(node, direction, cursor, out));
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return Status::OK();
}

// One worker of a vertex loop: a page cursor that every chain walk of the
// run reuses, neighbor buffers, and the relationships it expanded.
struct Worker {
  explicit Worker(const GraphStore& store) : cursor(store.ReadCursor()) {}
  PageCache::Cursor cursor;
  std::vector<VertexId> nbrs;
  std::vector<VertexId> their;
  std::vector<LabelScore> incoming;
  uint64_t expanded = 0;
};

// Runs the per-vertex loops of PR, CD, STATS and EVO on `threads` workers
// (0 = all cores); one worker runs them on the caller. Workers claim blocks
// of indices in ascending order and each index writes only its own
// results, so every output is the same at every thread count.
class VertexLoop {
 public:
  VertexLoop(const GraphStore& store, uint32_t threads,
             const CancelToken* cancel)
      : cancel_(cancel) {
    const size_t count = threads != 0 ? threads : HardwareThreads();
    for (size_t i = 0; i < count; ++i) {
      workers_.push_back(std::make_unique<Worker>(store));
    }
    if (count > 1) pool_.emplace(count);
  }

  // Runs `body(worker, i)` for every i in [0, n), `grain` indices per
  // block, polling the token before each block. Returns the failure at the
  // lowest failed index; workers stop claiming blocks after a failure.
  template <typename Body>
  Status Run(size_t n, size_t grain, const Body& body) {
    std::atomic<size_t> next{0};
    std::atomic<bool> stop{false};
    std::vector<std::pair<size_t, Status>> failures(workers_.size());
    auto work = [&](size_t w) {
      Worker& worker = *workers_[w];
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) return;
        Status status = CheckCancel(cancel_);
        if (cancel_ != nullptr) cancel_->Heartbeat();
        const size_t end = std::min(n, begin + grain);
        size_t i = begin;
        while (status.ok() && i < end) {
          status = body(worker, i);
          if (status.ok()) ++i;
        }
        if (!status.ok()) {
          failures[w] = {i, std::move(status)};
          stop.store(true, std::memory_order_relaxed);
        }
      }
    };
    if (pool_.has_value()) {
      pool_->ParallelFor(0, workers_.size(), 1, work);
    } else {
      work(0);
    }
    std::pair<size_t, Status>* first = nullptr;
    for (auto& failure : failures) {
      if (!failure.second.ok() &&
          (first == nullptr || failure.first < first->first)) {
        first = &failure;
      }
    }
    return first == nullptr ? Status::OK() : first->second;
  }

  // Relationships the workers expanded, over every Run.
  uint64_t expanded() const {
    uint64_t total = 0;
    for (const auto& worker : workers_) total += worker->expanded;
    return total;
  }

 private:
  const CancelToken* cancel_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::optional<ThreadPool> pool_;
};

Result<AlgorithmOutput> RunBfs(GraphStore* store, bool undirected,
                               const BfsParams& params,
                               const CancelToken* cancel) {
  AlgorithmOutput out;
  out.vertex_values.assign(store->node_count(), kUnreachable);
  if (params.source >= store->node_count()) return out;
  TraversalStats tstats;
  GLY_RETURN_NOT_OK(Traverse(
      store, params.source, NeighborhoodOf(undirected),
      [&out](VertexId node, uint32_t depth) {
        out.vertex_values[node] = depth;
      },
      cancel, &tstats));
  out.traversed_edges = tstats.relationships_expanded;
  return out;
}

Result<AlgorithmOutput> RunConn(GraphStore* store,
                                const CancelToken* cancel) {
  // Connectivity is over the undirected structure; the store's chains give
  // both directions with Direction::kBoth. Each component's walk polls the
  // token before its first visit and every 1024 visits after it.
  AlgorithmOutput out;
  const VertexId n = static_cast<VertexId>(store->node_count());
  out.vertex_values.assign(n, -1);
  uint64_t expanded = 0;
  for (VertexId start = 0; start < n; ++start) {
    if (out.vertex_values[start] != -1) continue;
    TraversalStats tstats;
    GLY_RETURN_NOT_OK(Traverse(
        store, start, Direction::kBoth,
        [&out, start](VertexId node, uint32_t) {
          out.vertex_values[node] = start;
        },
        cancel, &tstats));
    expanded += tstats.relationships_expanded;
  }
  out.traversed_edges = expanded;
  return out;
}

Result<AlgorithmOutput> RunCd(GraphStore* store, bool undirected,
                              const CdParams& params, uint32_t threads,
                              const CancelToken* cancel) {
  VertexLoop loop(*store, threads, cancel);
  const VertexId n = static_cast<VertexId>(store->node_count());
  std::vector<int64_t> labels(n);
  std::vector<double> scores(n, 1.0);
  std::iota(labels.begin(), labels.end(), 0);
  std::vector<int64_t> new_labels(n);
  std::vector<double> new_scores(n);
  const Direction direction = NeighborhoodOf(undirected);
  for (uint32_t iter = 0; iter < params.max_iterations; ++iter) {
    GLY_RETURN_NOT_OK(loop.Run(n, kVertexBlock, [&](Worker& w, size_t v) {
      GLY_RETURN_NOT_OK(FetchSortedNeighbors(
          *store, static_cast<VertexId>(v), direction, w.cursor, &w.nbrs));
      w.expanded += w.nbrs.size();
      if (w.nbrs.empty()) {
        new_labels[v] = labels[v];
        new_scores[v] = scores[v];
        return Status::OK();
      }
      w.incoming.clear();
      for (VertexId u : w.nbrs) {
        w.incoming.push_back(LabelScore{labels[u], scores[u]});
      }
      LabelScore adopted = CdAdoptLabel(w.incoming, params.hop_attenuation);
      new_labels[v] = adopted.label;
      new_scores[v] = adopted.score;
      return Status::OK();
    }));
    labels.swap(new_labels);
    scores.swap(new_scores);
  }
  AlgorithmOutput out;
  out.vertex_values = std::move(labels);
  out.traversed_edges = loop.expanded();
  return out;
}

Result<AlgorithmOutput> RunStatsAlgorithm(GraphStore* store, bool undirected,
                                          uint32_t threads,
                                          const CancelToken* cancel) {
  VertexLoop loop(*store, threads, cancel);
  const VertexId n = static_cast<VertexId>(store->node_count());
  const Direction direction = NeighborhoodOf(undirected);
  // Each vertex's local clustering coefficient, summed in vertex order
  // below so that the mean has the same bits at every thread count.
  std::vector<double> lcc(n, 0.0);
  GLY_RETURN_NOT_OK(loop.Run(n, kVertexBlock, [&](Worker& w, size_t v) {
    GLY_RETURN_NOT_OK(FetchSortedNeighbors(
        *store, static_cast<VertexId>(v), direction, w.cursor, &w.nbrs));
    w.expanded += w.nbrs.size();
    const uint64_t deg = w.nbrs.size();
    if (deg < 2) return Status::OK();
    uint64_t links = 0;
    for (VertexId u : w.nbrs) {
      GLY_RETURN_NOT_OK(
          FetchSortedNeighbors(*store, u, direction, w.cursor, &w.their));
      w.expanded += w.their.size();
      size_t a = 0;
      size_t b = 0;
      while (a < w.their.size() && b < w.nbrs.size()) {
        if (w.their[a] < w.nbrs[b]) {
          ++a;
        } else if (w.their[a] > w.nbrs[b]) {
          ++b;
        } else {
          ++links;
          ++a;
          ++b;
        }
      }
    }
    lcc[v] = static_cast<double>(links) /
             (static_cast<double>(deg) * static_cast<double>(deg - 1));
    return Status::OK();
  }));
  double sum = 0.0;
  for (double c : lcc) sum += c;
  AlgorithmOutput out;
  out.stats.num_vertices = n;
  out.stats.num_edges = store->relationship_count();
  out.stats.mean_local_clustering =
      n == 0 ? 0.0 : sum / static_cast<double>(n);
  out.traversed_edges = loop.expanded();
  return out;
}

Result<AlgorithmOutput> RunEvo(GraphStore* store, bool undirected,
                               const EvoParams& params, uint32_t threads,
                               const CancelToken* cancel) {
  VertexLoop loop(*store, threads, cancel);
  const VertexId n = static_cast<VertexId>(store->node_count());
  const Direction direction = NeighborhoodOf(undirected);
  // One burn per new vertex, each from its own seeded draw; the edges are
  // added in new-vertex order afterwards.
  std::vector<std::vector<VertexId>> burned(params.num_new_vertices);
  GLY_RETURN_NOT_OK(loop.Run(
      params.num_new_vertices, /*grain=*/1, [&](Worker& w, size_t i) {
        // The burn cannot take a Status, so the first failed read is kept
        // here: every later fetch returns no neighbours, which ends the
        // burn, and the worker returns the failure.
        Status fetch_status;
        auto fetch = [&](VertexId v) -> std::vector<VertexId> {
          std::vector<VertexId> nbrs;
          if (!fetch_status.ok()) return nbrs;
          fetch_status =
              FetchSortedNeighbors(*store, v, direction, w.cursor, &nbrs);
          if (!fetch_status.ok()) return {};
          w.expanded += nbrs.size();
          return nbrs;
        };
        Rng rng(DeriveSeed(params.seed, 0xA0000000ULL + i));
        VertexId ambassador = static_cast<VertexId>(rng.NextBounded(n));
        burned[i] = ForestFireBurnWithFetch(n, fetch, ambassador, params,
                                            static_cast<uint32_t>(i));
        return fetch_status;
      }));
  AlgorithmOutput out;
  for (uint32_t i = 0; i < params.num_new_vertices; ++i) {
    for (VertexId b : burned[i]) out.new_edges.Add(n + i, b);
  }
  out.new_edges.EnsureVertices(n + params.num_new_vertices);
  out.traversed_edges = loop.expanded();
  return out;
}

Result<AlgorithmOutput> RunPr(GraphStore* store, bool undirected,
                              const PrParams& params, uint32_t threads,
                              const CancelToken* cancel) {
  const VertexId n = static_cast<VertexId>(store->node_count());
  AlgorithmOutput out;
  if (n == 0) return out;
  const double base = (1.0 - params.damping) / static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  std::vector<double> contribution(n);
  VertexLoop loop(*store, threads, cancel);
  // Out-degrees (one pass over the relationship chains, not counted as
  // expanded).
  std::vector<uint32_t> out_degree(n, 0);
  const Direction out_direction = NeighborhoodOf(undirected);
  GLY_RETURN_NOT_OK(loop.Run(n, kVertexBlock, [&](Worker& w, size_t v) {
    GLY_RETURN_NOT_OK(FetchSortedNeighbors(
        *store, static_cast<VertexId>(v), out_direction, w.cursor, &w.nbrs));
    out_degree[v] = static_cast<uint32_t>(w.nbrs.size());
    return Status::OK();
  }));
  // Gather: each vertex sums rank/deg over its ascending in-neighbours,
  // which adds the same terms in the same order as a scatter over
  // ascending sources. An undirected vertex without relationships has no
  // in-neighbour and reads no chain.
  const Direction in_direction =
      undirected ? Direction::kBoth : Direction::kIncoming;
  for (uint32_t iter = 0; iter < params.iterations; ++iter) {
    for (VertexId v = 0; v < n; ++v) {
      contribution[v] = out_degree[v] == 0
                            ? 0.0
                            : rank[v] / static_cast<double>(out_degree[v]);
    }
    GLY_RETURN_NOT_OK(loop.Run(n, kVertexBlock, [&](Worker& w, size_t v) {
      double sum = 0.0;
      if (!undirected || out_degree[v] != 0) {
        GLY_RETURN_NOT_OK(FetchSortedNeighbors(
            *store, static_cast<VertexId>(v), in_direction, w.cursor,
            &w.nbrs));
        w.expanded += w.nbrs.size();
        for (VertexId u : w.nbrs) sum += contribution[u];
      }
      next[v] = base + params.damping * sum;
      return Status::OK();
    }));
    rank.swap(next);
  }
  out.vertex_scores = std::move(rank);
  out.traversed_edges = loop.expanded();
  return out;
}

}  // namespace

Result<AlgorithmOutput> RunAlgorithmOnStore(GraphStore* store,
                                            bool graph_is_undirected,
                                            uint64_t memory_budget_bytes,
                                            AlgorithmKind kind,
                                            const AlgorithmParams& params,
                                            DbRunStats* stats_out,
                                            uint32_t num_threads) {
  // The Neo4j constraint: store plus per-vertex algorithm state must fit in
  // memory.
  MemoryBudget budget(memory_budget_bytes);
  GLY_RETURN_NOT_OK(
      budget.Charge(store->store_bytes(), "graph store (page cache)")
          .WithPrefix("graphdb"));
  GLY_RETURN_NOT_OK(
      budget.Charge(store->node_count() * 24, "algorithm state")
          .WithPrefix("graphdb"));

  const CancelToken* cancel = params.cancel;
  GLY_RETURN_NOT_OK(CheckCancel(cancel));
  // The store's counters run from when it was opened; this run's are the
  // difference.
  const PageCacheStats before = store->cache_stats();
  Result<AlgorithmOutput> result = Status::Internal("unreached");
  switch (kind) {
    case AlgorithmKind::kBfs:
      result = RunBfs(store, graph_is_undirected, params.bfs, cancel);
      break;
    case AlgorithmKind::kConn:
      result = RunConn(store, cancel);
      break;
    case AlgorithmKind::kCd:
      result = RunCd(store, graph_is_undirected, params.cd, num_threads,
                     cancel);
      break;
    case AlgorithmKind::kStats:
      result =
          RunStatsAlgorithm(store, graph_is_undirected, num_threads, cancel);
      break;
    case AlgorithmKind::kEvo:
      result = RunEvo(store, graph_is_undirected, params.evo, num_threads,
                      cancel);
      break;
    case AlgorithmKind::kPr:
      result = RunPr(store, graph_is_undirected, params.pr, num_threads,
                     cancel);
      break;
  }
  if (!result.ok()) return result.status();
  DbRunStats stats;
  stats.relationships_expanded = result->traversed_edges;
  const PageCacheStats after = store->cache_stats();
  stats.cache = {after.hits - before.hits, after.misses - before.misses,
                 after.evictions - before.evictions,
                 after.writebacks - before.writebacks,
                 after.shard_contention - before.shard_contention};
  metrics::SetGauge("graphdb.pagecache.shard_contention",
                    static_cast<double>(stats.cache.shard_contention));
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

}  // namespace gly::graphdb
