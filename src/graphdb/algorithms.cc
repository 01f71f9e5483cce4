#include "graphdb/algorithms.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/metrics.h"
#include "graphdb/traversal.h"

namespace gly::graphdb {

namespace {

// Cancellation poll batching: record-chain walks are cheap per step, so the
// algorithms poll every this-many units of work (vertices, visits).
constexpr uint64_t kCancelBatch = 1024;

// Fetches a node's algorithm-facing neighborhood: full neighborhood for
// undirected graphs, out-neighbors for directed; ascending order to match
// the CSR platforms.
Status FetchSortedNeighbors(GraphStore* store, VertexId node, bool undirected,
                            std::vector<VertexId>* out) {
  GLY_RETURN_NOT_OK(
      store->CollectNeighbors(node, /*outgoing_only=*/!undirected, out));
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return Status::OK();
}

Result<AlgorithmOutput> RunBfs(GraphStore* store, bool undirected,
                               const BfsParams& params,
                               const CancelToken* cancel, DbRunStats* stats) {
  AlgorithmOutput out;
  out.vertex_values.assign(store->node_count(), kUnreachable);
  if (params.source >= store->node_count()) return out;
  TraversalStats tstats;
  // The visitor aborts the traversal (returns false) when cancelled; the
  // poll after Traverse converts the partial walk into the token's Status.
  uint64_t visits = 0;
  GLY_RETURN_NOT_OK(Traverse(
      store, params.source, TraversalOrder::kBreadthFirst,
      undirected ? Expand::kBoth : Expand::kOutgoing,
      [&out, &visits, cancel](VertexId node, uint32_t depth) {
        if (++visits % kCancelBatch == 0 && Cancelled(cancel)) return false;
        out.vertex_values[node] = depth;
        return true;
      },
      &tstats));
  GLY_RETURN_NOT_OK(CheckCancel(cancel));
  if (cancel != nullptr) cancel->Heartbeat();
  out.traversed_edges = tstats.relationships_expanded;
  if (stats != nullptr) stats->relationships_expanded = tstats.relationships_expanded;
  return out;
}

Result<AlgorithmOutput> RunConn(GraphStore* store, const CancelToken* cancel,
                                DbRunStats* stats) {
  // Connectivity is over the undirected structure; the store's chains give
  // both directions with Expand::kBoth.
  AlgorithmOutput out;
  const VertexId n = static_cast<VertexId>(store->node_count());
  out.vertex_values.assign(n, -1);
  uint64_t expanded = 0;
  for (VertexId start = 0; start < n; ++start) {
    if (out.vertex_values[start] != -1) continue;
    GLY_RETURN_NOT_OK(CheckCancel(cancel));
    if (cancel != nullptr) cancel->Heartbeat();
    TraversalStats tstats;
    GLY_RETURN_NOT_OK(Traverse(
        store, start, TraversalOrder::kBreadthFirst, Expand::kBoth,
        [&out, start](VertexId node, uint32_t) {
          out.vertex_values[node] = start;
          return true;
        },
        &tstats));
    expanded += tstats.relationships_expanded;
  }
  out.traversed_edges = expanded;
  if (stats != nullptr) stats->relationships_expanded = expanded;
  return out;
}

Result<AlgorithmOutput> RunCd(GraphStore* store, bool undirected,
                              const CdParams& params,
                              const CancelToken* cancel, DbRunStats* stats) {
  const VertexId n = static_cast<VertexId>(store->node_count());
  std::vector<int64_t> labels(n);
  std::vector<double> scores(n, 1.0);
  std::iota(labels.begin(), labels.end(), 0);
  std::vector<int64_t> new_labels(n);
  std::vector<double> new_scores(n);
  std::vector<VertexId> nbrs;
  std::vector<LabelScore> incoming;
  uint64_t expanded = 0;
  for (uint32_t iter = 0; iter < params.max_iterations; ++iter) {
    for (VertexId v = 0; v < n; ++v) {
      if (v % kCancelBatch == 0) GLY_RETURN_NOT_OK(CheckCancel(cancel));
      GLY_RETURN_NOT_OK(FetchSortedNeighbors(store, v, undirected, &nbrs));
      expanded += nbrs.size();
      if (nbrs.empty()) {
        new_labels[v] = labels[v];
        new_scores[v] = scores[v];
        continue;
      }
      incoming.clear();
      for (VertexId w : nbrs) {
        incoming.push_back(LabelScore{labels[w], scores[w]});
      }
      LabelScore adopted = CdAdoptLabel(incoming, params.hop_attenuation);
      new_labels[v] = adopted.label;
      new_scores[v] = adopted.score;
    }
    labels.swap(new_labels);
    scores.swap(new_scores);
    if (cancel != nullptr) cancel->Heartbeat();
  }
  AlgorithmOutput out;
  out.vertex_values = std::move(labels);
  out.traversed_edges = expanded;
  if (stats != nullptr) stats->relationships_expanded = expanded;
  return out;
}

Result<AlgorithmOutput> RunStatsAlgorithm(GraphStore* store, bool undirected,
                                          uint64_t num_logical_edges,
                                          const CancelToken* cancel,
                                          DbRunStats* stats) {
  const VertexId n = static_cast<VertexId>(store->node_count());
  double sum = 0.0;
  std::vector<VertexId> nbrs;
  std::vector<VertexId> their;
  uint64_t expanded = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (v % kCancelBatch == 0) {
      GLY_RETURN_NOT_OK(CheckCancel(cancel));
      if (cancel != nullptr) cancel->Heartbeat();
    }
    GLY_RETURN_NOT_OK(FetchSortedNeighbors(store, v, undirected, &nbrs));
    expanded += nbrs.size();
    uint64_t deg = nbrs.size();
    if (deg < 2) continue;
    uint64_t links = 0;
    for (VertexId u : nbrs) {
      GLY_RETURN_NOT_OK(FetchSortedNeighbors(store, u, undirected, &their));
      expanded += their.size();
      size_t a = 0;
      size_t b = 0;
      while (a < their.size() && b < nbrs.size()) {
        if (their[a] < nbrs[b]) {
          ++a;
        } else if (their[a] > nbrs[b]) {
          ++b;
        } else {
          ++links;
          ++a;
          ++b;
        }
      }
    }
    sum += static_cast<double>(links) /
           (static_cast<double>(deg) * static_cast<double>(deg - 1));
  }
  AlgorithmOutput out;
  out.stats.num_vertices = n;
  out.stats.num_edges = num_logical_edges;
  out.stats.mean_local_clustering =
      n == 0 ? 0.0 : sum / static_cast<double>(n);
  out.traversed_edges = expanded;
  if (stats != nullptr) stats->relationships_expanded = expanded;
  return out;
}

Result<AlgorithmOutput> RunEvo(GraphStore* store, bool undirected,
                               const EvoParams& params,
                               const CancelToken* cancel, DbRunStats* stats) {
  const VertexId n = static_cast<VertexId>(store->node_count());
  AlgorithmOutput out;
  uint64_t expanded = 0;
  // The burn cannot take a Status, so the first failed read is kept here:
  // every later fetch returns no neighbours, which ends the burn, and the
  // run returns the failure.
  Status fetch_status;
  auto fetch = [store, undirected, &expanded,
                &fetch_status](VertexId v) -> std::vector<VertexId> {
    std::vector<VertexId> nbrs;
    if (!fetch_status.ok()) return nbrs;
    fetch_status = FetchSortedNeighbors(store, v, undirected, &nbrs);
    if (!fetch_status.ok()) return {};
    expanded += nbrs.size();
    return nbrs;
  };
  for (uint32_t i = 0; i < params.num_new_vertices; ++i) {
    GLY_RETURN_NOT_OK(CheckCancel(cancel));
    if (cancel != nullptr) cancel->Heartbeat();
    Rng rng(DeriveSeed(params.seed, 0xA0000000ULL + i));
    VertexId ambassador = static_cast<VertexId>(rng.NextBounded(n));
    std::vector<VertexId> burned =
        ForestFireBurnWithFetch(n, fetch, ambassador, params, i);
    GLY_RETURN_NOT_OK(fetch_status);
    for (VertexId b : burned) out.new_edges.Add(n + i, b);
  }
  out.new_edges.EnsureVertices(n + params.num_new_vertices);
  out.traversed_edges = expanded;
  if (stats != nullptr) stats->relationships_expanded = expanded;
  return out;
}

Result<AlgorithmOutput> RunPr(GraphStore* store, bool undirected,
                              const PrParams& params,
                              const CancelToken* cancel, DbRunStats* stats) {
  const VertexId n = static_cast<VertexId>(store->node_count());
  AlgorithmOutput out;
  if (n == 0) return out;
  const double base = (1.0 - params.damping) / static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  uint64_t expanded = 0;
  // Precompute out-degrees (one pass over the relationship chains).
  std::vector<uint32_t> out_degree(n, 0);
  std::vector<VertexId> nbrs;
  for (VertexId v = 0; v < n; ++v) {
    GLY_RETURN_NOT_OK(FetchSortedNeighbors(store, v, undirected, &nbrs));
    out_degree[v] = static_cast<uint32_t>(nbrs.size());
  }
  for (uint32_t iter = 0; iter < params.iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    // Scatter: each vertex pushes rank/deg to its (out-)neighbors, which
    // is equivalent to the reference's in-neighbor gather.
    for (VertexId v = 0; v < n; ++v) {
      if (v % kCancelBatch == 0) GLY_RETURN_NOT_OK(CheckCancel(cancel));
      if (out_degree[v] == 0) continue;
      GLY_RETURN_NOT_OK(FetchSortedNeighbors(store, v, undirected, &nbrs));
      expanded += nbrs.size();
      double contribution = rank[v] / static_cast<double>(out_degree[v]);
      for (VertexId w : nbrs) next[w] += contribution;
    }
    for (VertexId v = 0; v < n; ++v) {
      rank[v] = base + params.damping * next[v];
    }
    if (cancel != nullptr) cancel->Heartbeat();
  }
  out.vertex_scores = std::move(rank);
  out.traversed_edges = expanded;
  if (stats != nullptr) stats->relationships_expanded = expanded;
  return out;
}

}  // namespace

Result<AlgorithmOutput> RunAlgorithmOnStore(GraphStore* store,
                                            bool graph_is_undirected,
                                            uint64_t memory_budget_bytes,
                                            AlgorithmKind kind,
                                            const AlgorithmParams& params,
                                            DbRunStats* stats_out) {
  // The Neo4j constraint: store plus per-vertex algorithm state must fit in
  // memory.
  MemoryBudget budget(memory_budget_bytes);
  GLY_RETURN_NOT_OK(
      budget.Charge(store->store_bytes(), "graph store (page cache)")
          .WithPrefix("graphdb"));
  GLY_RETURN_NOT_OK(
      budget.Charge(store->node_count() * 24, "algorithm state")
          .WithPrefix("graphdb"));

  DbRunStats stats;
  const CancelToken* cancel = params.cancel;
  GLY_RETURN_NOT_OK(CheckCancel(cancel));
  Result<AlgorithmOutput> result = Status::Internal("unreached");
  switch (kind) {
    case AlgorithmKind::kBfs:
      result = RunBfs(store, graph_is_undirected, params.bfs, cancel, &stats);
      break;
    case AlgorithmKind::kConn:
      result = RunConn(store, cancel, &stats);
      break;
    case AlgorithmKind::kCd:
      result = RunCd(store, graph_is_undirected, params.cd, cancel, &stats);
      break;
    case AlgorithmKind::kStats:
      result = RunStatsAlgorithm(store, graph_is_undirected,
                                 store->relationship_count(), cancel, &stats);
      break;
    case AlgorithmKind::kEvo:
      result = RunEvo(store, graph_is_undirected, params.evo, cancel, &stats);
      break;
    case AlgorithmKind::kPr:
      result = RunPr(store, graph_is_undirected, params.pr, cancel, &stats);
      break;
  }
  if (!result.ok()) return result.status();
  stats.cache = store->cache_stats();
  metrics::SetGauge("graphdb.pagecache.shard_contention",
                    static_cast<double>(stats.cache.shard_contention));
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

Result<AlgorithmOutput> RunAlgorithm(const DbPlatformConfig& config,
                                     const Graph& graph, AlgorithmKind kind,
                                     const AlgorithmParams& params,
                                     DbRunStats* stats_out) {
  StoreConfig store_config;
  store_config.directory = config.store_dir;
  store_config.page_cache_bytes = config.page_cache_bytes;
  GLY_ASSIGN_OR_RETURN(std::unique_ptr<GraphStore> store,
                       GraphStore::Open(store_config));
  GLY_RETURN_NOT_OK(store->BulkImport(graph.ToEdgeList(), params.cancel));
  return RunAlgorithmOnStore(store.get(), graph.undirected(),
                             config.memory_budget_bytes, kind, params,
                             stats_out);
}

}  // namespace gly::graphdb
