#include "dataflow/algorithms.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/bitset.h"
#include "dataflow/graph.h"

namespace gly::dataflow {

namespace {

// ------------------------------------------------------------------- BFS

// Direction-optimizing BFS (GraphX's aggregateMessages with a chosen edge
// direction): each level materializes the frontier as a dataset and
// expands it top-down (FlatMap over frontier vertices) or bottom-up
// (FlatMap over undiscovered vertices probing potential parents),
// switched by BfsDirectionPolicy (fixed alpha/beta). The distance array and the
// visited bitmap are driver-side broadcast state; every per-level
// collection still funnels through Materialize, so the engine's memory
// budget and JVM-churn cost model keep applying.
Result<AlgorithmOutput> RunBfs(Context* ctx, const Graph& graph,
                               const BfsParams& params) {
  AlgorithmOutput out;
  const VertexId n = graph.num_vertices();
  out.vertex_values.assign(n, kUnreachable);
  if (params.source >= n) return out;

  AtomicBitset visited(n);
  visited.Set(params.source);
  out.vertex_values[params.source] = 0;
  std::vector<VertexId> frontier{params.source};

  BfsDirectionPolicy policy(n);
  uint64_t frontier_degree = graph.OutDegree(params.source);
  uint64_t unexplored_degree =
      graph.num_adjacency_entries() - frontier_degree;
  std::atomic<uint64_t> traversed{0};
  int64_t depth = 0;
  const int64_t* dist = out.vertex_values.data();
  while (!frontier.empty()) {
    const bool bottom_up = policy.UseBottomUp(frontier.size(),
                                              frontier_degree,
                                              unexplored_degree);
    std::vector<VertexId> discovered;
    if (!bottom_up) {
      GLY_ASSIGN_OR_RETURN(Dataset<VertexId> frontier_ds,
                           ctx->Parallelize(frontier));
      GLY_ASSIGN_OR_RETURN(
          Dataset<VertexId> discovered_ds,
          (ctx->template FlatMap<VertexId>(
              frontier_ds, [&graph, &visited, &traversed](VertexId v) {
                std::vector<VertexId> won;
                uint64_t probes = 0;
                for (VertexId w : graph.OutNeighbors(v)) {
                  ++probes;
                  if (visited.TestAndSet(w)) won.push_back(w);
                }
                traversed.fetch_add(probes, std::memory_order_relaxed);
                return won;
              })));
      discovered = discovered_ds.Collect();
    } else {
      std::vector<VertexId> unexplored;
      unexplored.reserve(n - visited.Count());
      for (VertexId v = 0; v < n; ++v) {
        if (!visited.Test(v)) unexplored.push_back(v);
      }
      GLY_ASSIGN_OR_RETURN(Dataset<VertexId> unexplored_ds,
                           ctx->Parallelize(unexplored));
      GLY_ASSIGN_OR_RETURN(
          Dataset<VertexId> discovered_ds,
          (ctx->template FlatMap<VertexId>(
              unexplored_ds,
              [&graph, &traversed, dist, depth](VertexId v) {
                std::vector<VertexId> won;
                auto parents = graph.InNeighbors(v);
                uint64_t probes = 0;
                for (VertexId u : parents) {
                  ++probes;
                  if (dist[u] == depth) {
                    won.push_back(v);
                    break;
                  }
                }
                traversed.fetch_add(probes, std::memory_order_relaxed);
                return won;
              })));
      discovered = discovered_ds.Collect();
      for (VertexId v : discovered) visited.Set(v);
    }
    // Distances are written on the driver between levels, so the parallel
    // phases above only ever read a stable snapshot.
    std::sort(discovered.begin(), discovered.end());
    uint64_t next_degree = 0;
    for (VertexId v : discovered) {
      out.vertex_values[v] = depth + 1;
      next_degree += graph.OutDegree(v);
    }
    unexplored_degree -= next_degree;
    frontier_degree = next_degree;
    frontier = std::move(discovered);
    ++depth;
  }
  out.traversed_edges = traversed.load();
  return out;
}

// ------------------------------------------------------------------ CONN

struct ConnValue {
  int64_t label = 0;
  bool changed = false;
};

Result<AlgorithmOutput> RunConn(Context* ctx, const Graph& graph) {
  // For directed graphs weak connectivity needs both directions; the
  // property graph's edge table carries out-edges, so feed it the
  // symmetrized graph when necessary.
  const Graph* g = &graph;
  Graph symmetric;
  if (!graph.undirected()) {
    GLY_ASSIGN_OR_RETURN(symmetric,
                         GraphBuilder::Undirected(graph.ToEdgeList()));
    g = &symmetric;
  }
  GLY_ASSIGN_OR_RETURN(
      auto pg, PropertyGraph<ConnValue>::FromGraph(
                   ctx, *g, [](VertexId v) {
                     return ConnValue{static_cast<int64_t>(v), true};
                   }));
  GLY_ASSIGN_OR_RETURN(
      PregelJoinStats pstats,
      pg.template Pregel<int64_t>(
          /*max_iterations=*/g->num_vertices() + 1,
          [](const ConnValue& src, VertexId, VertexId)
              -> std::optional<int64_t> {
            if (src.changed) return src.label;
            return std::nullopt;
          },
          [](const int64_t& a, const int64_t& b) { return std::min(a, b); },
          [](uint64_t, const ConnValue& old, const int64_t* m)
              -> std::pair<ConnValue, bool> {
            if (m != nullptr && *m < old.label) {
              return {ConnValue{*m, true}, true};
            }
            return {ConnValue{old.label, false}, false};
          }));
  AlgorithmOutput out;
  out.vertex_values.assign(graph.num_vertices(), 0);
  for (const auto& [k, v] : pg.vertices().Collect()) {
    out.vertex_values[k] = v.label;
  }
  out.traversed_edges = pstats.messages;
  return out;
}

// -------------------------------------------------------------------- CD

struct CdFlowValue {
  int64_t label = 0;
  double score = 1.0;
};

Result<AlgorithmOutput> RunCd(Context* ctx, const Graph& graph,
                              const CdParams& params) {
  using Msg = LabelScoreList;
  GLY_ASSIGN_OR_RETURN(
      auto pg, PropertyGraph<CdFlowValue>::FromGraph(
                   ctx, graph, [](VertexId v) {
                     return CdFlowValue{static_cast<int64_t>(v), 1.0};
                   }));
  double hop = params.hop_attenuation;
  GLY_ASSIGN_OR_RETURN(
      PregelJoinStats pstats,
      pg.template Pregel<Msg>(
          params.max_iterations,
          [](const CdFlowValue& src, VertexId, VertexId)
              -> std::optional<Msg> {
            return Msg{LabelScore{src.label, src.score}};
          },
          [](Msg a, const Msg& b) {
            a.Append(b);
            return a;
          },
          [hop](uint64_t, const CdFlowValue& old, const Msg* m)
              -> std::pair<CdFlowValue, bool> {
            if (m == nullptr || m->empty()) return {old, true};
            // The rule reorders its argument: hand it this thread's copy.
            thread_local std::vector<LabelScore> incoming;
            incoming.assign(m->begin(), m->end());
            LabelScore adopted = CdAdoptLabel(incoming, hop);
            return {CdFlowValue{adopted.label, adopted.score}, true};
          }));
  AlgorithmOutput out;
  out.vertex_values.assign(graph.num_vertices(), 0);
  for (const auto& [k, v] : pg.vertices().Collect()) {
    out.vertex_values[k] = v.label;
  }
  out.traversed_edges = pstats.messages;
  return out;
}

// -------------------------------------------------------------------- PR

struct PrFlowValue {
  double rank = 0.0;
  uint32_t out_degree = 0;
};

Result<AlgorithmOutput> RunPr(Context* ctx, const Graph& graph,
                              const PrParams& params) {
  if (graph.num_vertices() == 0) return AlgorithmOutput{};
  const double n = static_cast<double>(graph.num_vertices());
  const double base = (1.0 - params.damping) / n;
  const double damping = params.damping;
  GLY_ASSIGN_OR_RETURN(
      auto pg, PropertyGraph<PrFlowValue>::FromGraph(
                   ctx, graph, [&graph, n](VertexId v) {
                     return PrFlowValue{
                         1.0 / n,
                         static_cast<uint32_t>(graph.OutDegree(v))};
                   }));
  GLY_ASSIGN_OR_RETURN(
      PregelJoinStats pstats,
      pg.template Pregel<double>(
          params.iterations,
          [](const PrFlowValue& src, VertexId, VertexId)
              -> std::optional<double> {
            if (src.out_degree == 0) return std::nullopt;  // unreachable: no edges
            return src.rank / static_cast<double>(src.out_degree);
          },
          [](const double& a, const double& b) { return a + b; },
          [base, damping](uint64_t, const PrFlowValue& old, const double* m)
              -> std::pair<PrFlowValue, bool> {
            double sum = m != nullptr ? *m : 0.0;
            return {PrFlowValue{base + damping * sum, old.out_degree}, true};
          }));
  AlgorithmOutput out;
  out.vertex_scores.assign(graph.num_vertices(), 0.0);
  for (const auto& [k, v] : pg.vertices().Collect()) {
    out.vertex_scores[k] = v.rank;
  }
  out.traversed_edges = pstats.messages;
  return out;
}

// ----------------------------------------------------------------- STATS

struct LccValue {
  std::vector<VertexId> adjacency;  // sorted
  double lcc = 0.0;
};

Result<AlgorithmOutput> RunStatsAlgorithm(Context* ctx, const Graph& graph) {
  using Msg = std::vector<std::vector<VertexId>>;
  GLY_ASSIGN_OR_RETURN(
      auto pg,
      PropertyGraph<LccValue>::FromGraph(ctx, graph, [&graph](VertexId v) {
        auto nbrs = graph.OutNeighbors(v);
        return LccValue{{nbrs.begin(), nbrs.end()}, 0.0};
      }));
  GLY_ASSIGN_OR_RETURN(
      PregelJoinStats pstats,
      pg.template Pregel<Msg>(
          /*max_iterations=*/1,
          [](const LccValue& src, VertexId, VertexId) -> std::optional<Msg> {
            if (src.adjacency.size() < 2) return std::nullopt;
            return Msg{src.adjacency};
          },
          [](Msg a, const Msg& b) {
            a.insert(a.end(), b.begin(), b.end());
            return a;
          },
          [](uint64_t, const LccValue& old, const Msg* m)
              -> std::pair<LccValue, bool> {
            LccValue next = old;
            uint64_t deg = old.adjacency.size();
            if (m != nullptr && deg >= 2) {
              uint64_t links = 0;
              for (const auto& their : *m) {
                size_t a = 0;
                size_t b = 0;
                while (a < their.size() && b < old.adjacency.size()) {
                  if (their[a] < old.adjacency[b]) {
                    ++a;
                  } else if (their[a] > old.adjacency[b]) {
                    ++b;
                  } else {
                    ++links;
                    ++a;
                    ++b;
                  }
                }
              }
              next.lcc = static_cast<double>(links) /
                         (static_cast<double>(deg) *
                          static_cast<double>(deg - 1));
            }
            return {next, false};
          }));
  (void)pstats;
  AlgorithmOutput out;
  out.stats.num_vertices = graph.num_vertices();
  out.stats.num_edges = graph.num_edges();
  double sum = 0.0;
  for (const auto& [k, v] : pg.vertices().Collect()) sum += v.lcc;
  out.stats.mean_local_clustering =
      graph.num_vertices() == 0
          ? 0.0
          : sum / static_cast<double>(graph.num_vertices());
  out.traversed_edges = graph.num_adjacency_entries();
  return out;
}

// ------------------------------------------------------------------- EVO

Result<AlgorithmOutput> RunEvo(Context* ctx, const Graph& graph,
                               const EvoParams& params) {
  std::vector<uint32_t> fires(params.num_new_vertices);
  for (uint32_t i = 0; i < params.num_new_vertices; ++i) fires[i] = i;
  GLY_ASSIGN_OR_RETURN(Dataset<uint32_t> fire_ds, ctx->Parallelize(fires));
  GLY_ASSIGN_OR_RETURN(
      Dataset<Edge> edges_ds,
      (ctx->template FlatMap<Edge>(fire_ds, [&graph, &params](uint32_t fire) {
        VertexId ambassador = ForestFireAmbassador(graph, params, fire);
        std::vector<VertexId> burned =
            ForestFireBurn(graph, ambassador, params, fire);
        std::vector<Edge> out;
        out.reserve(burned.size());
        VertexId nv = graph.num_vertices() + fire;
        for (VertexId b : burned) out.push_back(Edge{nv, b});
        return out;
      })));
  AlgorithmOutput out;
  std::vector<Edge> edges = edges_ds.Collect();
  std::sort(edges.begin(), edges.end());
  for (const Edge& e : edges) out.new_edges.Add(e.src, e.dst);
  out.new_edges.EnsureVertices(graph.num_vertices() + params.num_new_vertices);
  out.traversed_edges = edges.size();
  return out;
}

}  // namespace

void LabelScoreList::Grow(uint64_t min_capacity) {
  constexpr uint64_t kMaxCapacity = std::numeric_limits<uint32_t>::max();
  if (min_capacity > kMaxCapacity) {
    throw std::length_error("LabelScoreList: more than 2^32 - 1 pairs");
  }
  const uint64_t capacity =
      std::min(std::max(min_capacity, 2 * uint64_t{capacity_}), kMaxCapacity);
  LabelScore* fresh = std::allocator<LabelScore>().allocate(capacity);
  std::copy(begin(), end(), fresh);
  Free();
  heap_ = fresh;
  capacity_ = static_cast<uint32_t>(capacity);
}

Result<AlgorithmOutput> RunAlgorithm(const ContextConfig& config,
                                     const Graph& graph, AlgorithmKind kind,
                                     const AlgorithmParams& params,
                                     ContextStats* stats_out) {
  // Install the harness cancellation token (if any): every operator funnels
  // through Context::Materialize, which polls it.
  ContextConfig run_config = config;
  if (params.cancel != nullptr && run_config.cancel == nullptr) {
    run_config.cancel = params.cancel;
  }
  Context ctx(run_config);
  Result<AlgorithmOutput> result = Status::Internal("unreached");
  switch (kind) {
    case AlgorithmKind::kStats:
      result = RunStatsAlgorithm(&ctx, graph);
      break;
    case AlgorithmKind::kBfs:
      result = RunBfs(&ctx, graph, params.bfs);
      break;
    case AlgorithmKind::kConn:
      result = RunConn(&ctx, graph);
      break;
    case AlgorithmKind::kCd:
      result = RunCd(&ctx, graph, params.cd);
      break;
    case AlgorithmKind::kEvo:
      result = RunEvo(&ctx, graph, params.evo);
      break;
    case AlgorithmKind::kPr:
      result = RunPr(&ctx, graph, params.pr);
      break;
  }
  if (stats_out != nullptr) *stats_out = ctx.stats();
  return result;
}

}  // namespace gly::dataflow
