#include "ref/algorithms.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "analysis/metrics.h"
#include "common/string_util.h"

namespace gly {

Result<AlgorithmKind> ParseAlgorithmKind(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "stats") return AlgorithmKind::kStats;
  if (lower == "bfs") return AlgorithmKind::kBfs;
  if (lower == "conn") return AlgorithmKind::kConn;
  if (lower == "cd") return AlgorithmKind::kCd;
  if (lower == "evo") return AlgorithmKind::kEvo;
  if (lower == "pr") return AlgorithmKind::kPr;
  return Status::InvalidArgument("unknown algorithm: '" + name + "'");
}

std::string AlgorithmKindName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kStats: return "STATS";
    case AlgorithmKind::kBfs: return "BFS";
    case AlgorithmKind::kConn: return "CONN";
    case AlgorithmKind::kCd: return "CD";
    case AlgorithmKind::kEvo: return "EVO";
    case AlgorithmKind::kPr: return "PR";
  }
  return "?";
}

bool BfsDirectionPolicy::UseBottomUp(uint64_t frontier_vertices,
                                     uint64_t frontier_degree,
                                     uint64_t unexplored_degree) {
  if (!bottom_up_) {
    // Growing phase: switch when a top-down step would probe more than
    // 1/kAlpha of the edges still reachable from undiscovered vertices.
    if (static_cast<double>(frontier_degree) >
        static_cast<double>(unexplored_degree) / kAlpha) {
      bottom_up_ = true;
    }
  } else {
    // Shrinking phase: a small frontier makes scanning all unvisited
    // vertices wasteful again.
    if (static_cast<double>(frontier_vertices) <
        static_cast<double>(num_vertices_) / kBeta) {
      bottom_up_ = false;
    }
  }
  return bottom_up_;
}

VertexId ForestFireAmbassador(const Graph& graph, const EvoParams& params,
                              uint32_t new_vertex_index) {
  Rng rng(DeriveSeed(params.seed, 0xA0000000ULL + new_vertex_index));
  return static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
}

std::vector<VertexId> ForestFireBurn(const Graph& graph, VertexId ambassador,
                                     const EvoParams& params,
                                     uint32_t new_vertex_index) {
  return ForestFireBurnWithFetch(
      graph.num_vertices(),
      [&graph](VertexId v) {
        auto span = graph.OutNeighbors(v);
        return std::vector<VertexId>(span.begin(), span.end());
      },
      ambassador, params, new_vertex_index);
}

std::vector<VertexId> ForestFireBurnWithFetch(
    VertexId num_vertices,
    const std::function<std::vector<VertexId>(VertexId)>& fetch_neighbors,
    VertexId ambassador, const EvoParams& params, uint32_t new_vertex_index) {
  std::vector<VertexId> burned{ambassador};
  std::vector<bool> is_burned(num_vertices, false);
  is_burned[ambassador] = true;
  std::vector<VertexId> frontier{ambassador};
  for (uint32_t depth = 0;
       depth < params.max_depth && !frontier.empty() &&
       burned.size() < params.max_burned;
       ++depth) {
    // Deterministic order: ascending vertex id within the frontier.
    std::sort(frontier.begin(), frontier.end());
    std::vector<VertexId> next;
    for (VertexId w : frontier) {
      if (burned.size() >= params.max_burned) break;
      // Fanout x ~ Geometric(1 - p_forward) - 1 (mean p/(1-p)), seeded by
      // (seed, new vertex, depth, w) so any evaluation order agrees.
      Rng rng(DeriveSeed(params.seed,
                         0xB0000000ULL + new_vertex_index * (1ULL << 34) +
                             static_cast<uint64_t>(depth) * (1ULL << 32) + w));
      uint64_t fanout = SampleGeometric(rng, 1.0 - params.p_forward) - 1;
      if (fanout == 0) continue;
      // Select unburned neighbors via a seeded partial Fisher-Yates over the
      // (sorted) neighbor list.
      std::vector<VertexId> nbrs = fetch_neighbors(w);
      uint64_t selected = 0;
      for (uint64_t i = 0; i < nbrs.size() && selected < fanout; ++i) {
        uint64_t j = i + rng.NextBounded(nbrs.size() - i);
        std::swap(nbrs[i], nbrs[j]);
        VertexId cand = nbrs[i];
        if (is_burned[cand]) continue;
        is_burned[cand] = true;
        burned.push_back(cand);
        next.push_back(cand);
        ++selected;
        if (burned.size() >= params.max_burned) break;
      }
    }
    frontier = std::move(next);
  }
  std::sort(burned.begin(), burned.end());
  return burned;
}

LabelScore CdAdoptLabel(std::span<LabelScore> neighbor_labels,
                        double hop_attenuation) {
  // Adopt the label with the maximum neighbor score sum (ties -> smaller
  // label); its new score is its maximum contributing score minus the
  // attenuation. The stable sort keeps each label's scores in input order,
  // so every sum is accumulated in the order a per-label map would add it,
  // and the runs of equal labels come in ascending label order.
  std::stable_sort(neighbor_labels.begin(), neighbor_labels.end(),
                   [](const LabelScore& a, const LabelScore& b) {
                     return a.label < b.label;
                   });
  int64_t best_label = 0;
  double best_sum = -1.0;
  double best_max = 0.0;
  for (size_t i = 0; i < neighbor_labels.size();) {
    const int64_t label = neighbor_labels[i].label;
    double sum = 0.0;
    double max_score = neighbor_labels[i].score;
    for (; i < neighbor_labels.size() && neighbor_labels[i].label == label;
         ++i) {
      sum += neighbor_labels[i].score;
      max_score = std::max(max_score, neighbor_labels[i].score);
    }
    if (sum > best_sum + 1e-12 ||
        (std::abs(sum - best_sum) <= 1e-12 && label < best_label)) {
      best_sum = sum;
      best_label = label;
      best_max = max_score;
    }
  }
  return LabelScore{best_label, std::max(0.0, best_max - hop_attenuation)};
}

namespace ref {

AlgorithmOutput Stats(const Graph& graph) {
  AlgorithmOutput out;
  out.stats.num_vertices = graph.num_vertices();
  out.stats.num_edges = graph.num_edges();
  out.stats.mean_local_clustering = AverageClusteringCoefficient(graph);
  // STATS examines every adjacency entry (and neighbor intersections);
  // count the base scan for TEPS accounting.
  out.traversed_edges = graph.num_adjacency_entries();
  return out;
}

AlgorithmOutput Bfs(const Graph& graph, const BfsParams& params) {
  AlgorithmOutput out;
  out.vertex_values.assign(graph.num_vertices(), kUnreachable);
  if (params.source >= graph.num_vertices()) return out;
  std::deque<VertexId> queue{params.source};
  out.vertex_values[params.source] = 0;
  uint64_t traversed = 0;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    int64_t next_dist = out.vertex_values[v] + 1;
    for (VertexId w : graph.OutNeighbors(v)) {
      ++traversed;
      if (out.vertex_values[w] == kUnreachable) {
        out.vertex_values[w] = next_dist;
        queue.push_back(w);
      }
    }
  }
  out.traversed_edges = traversed;
  return out;
}

AlgorithmOutput Conn(const Graph& graph) {
  // Label = smallest vertex id in the (weakly) connected component.
  // For directed graphs, connectivity is over the union of in/out edges.
  AlgorithmOutput out;
  const VertexId n = graph.num_vertices();
  out.vertex_values.assign(n, -1);
  uint64_t traversed = 0;
  for (VertexId start = 0; start < n; ++start) {
    if (out.vertex_values[start] != -1) continue;
    std::deque<VertexId> queue{start};
    out.vertex_values[start] = start;
    while (!queue.empty()) {
      VertexId v = queue.front();
      queue.pop_front();
      auto visit = [&](VertexId w) {
        ++traversed;
        if (out.vertex_values[w] == -1) {
          out.vertex_values[w] = start;
          queue.push_back(w);
        }
      };
      for (VertexId w : graph.OutNeighbors(v)) visit(w);
      if (!graph.undirected()) {
        for (VertexId w : graph.InNeighbors(v)) visit(w);
      }
    }
  }
  out.traversed_edges = traversed;
  return out;
}

AlgorithmOutput Cd(const Graph& graph, const CdParams& params) {
  AlgorithmOutput out;
  const VertexId n = graph.num_vertices();
  std::vector<int64_t> labels(n);
  std::vector<double> scores(n, 1.0);
  std::iota(labels.begin(), labels.end(), 0);
  uint64_t traversed = 0;
  std::vector<int64_t> new_labels(n);
  std::vector<double> new_scores(n);
  std::vector<LabelScore> incoming;
  for (uint32_t iter = 0; iter < params.max_iterations; ++iter) {
    for (VertexId v = 0; v < n; ++v) {
      auto nbrs = graph.OutNeighbors(v);
      if (nbrs.empty()) {
        new_labels[v] = labels[v];
        new_scores[v] = scores[v];
        continue;
      }
      incoming.clear();
      for (VertexId w : nbrs) {
        ++traversed;
        incoming.push_back(LabelScore{labels[w], scores[w]});
      }
      LabelScore adopted = CdAdoptLabel(incoming, params.hop_attenuation);
      new_labels[v] = adopted.label;
      new_scores[v] = adopted.score;
    }
    labels.swap(new_labels);
    scores.swap(new_scores);
  }
  out.vertex_values = std::move(labels);
  out.traversed_edges = traversed;
  return out;
}

AlgorithmOutput Evo(const Graph& graph, const EvoParams& params) {
  AlgorithmOutput out;
  const VertexId base = graph.num_vertices();
  uint64_t traversed = 0;
  for (uint32_t i = 0; i < params.num_new_vertices; ++i) {
    VertexId ambassador = ForestFireAmbassador(graph, params, i);
    std::vector<VertexId> burned = ForestFireBurn(graph, ambassador, params, i);
    for (VertexId b : burned) {
      out.new_edges.Add(base + i, b);
      ++traversed;
    }
  }
  out.new_edges.EnsureVertices(base + params.num_new_vertices);
  out.traversed_edges = traversed;
  return out;
}

AlgorithmOutput Pr(const Graph& graph, const PrParams& params) {
  AlgorithmOutput out;
  const VertexId n = graph.num_vertices();
  if (n == 0) return out;
  const double base = (1.0 - params.damping) / static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  uint64_t traversed = 0;
  for (uint32_t iter = 0; iter < params.iterations; ++iter) {
    for (VertexId v = 0; v < n; ++v) {
      double sum = 0.0;
      for (VertexId u : graph.InNeighbors(v)) {
        ++traversed;
        sum += rank[u] / static_cast<double>(graph.OutDegree(u));
      }
      next[v] = base + params.damping * sum;
    }
    rank.swap(next);
  }
  out.vertex_scores = std::move(rank);
  out.traversed_edges = traversed;
  return out;
}

AlgorithmOutput Run(const Graph& graph, AlgorithmKind kind,
                    const AlgorithmParams& params) {
  switch (kind) {
    case AlgorithmKind::kStats: return Stats(graph);
    case AlgorithmKind::kBfs: return Bfs(graph, params.bfs);
    case AlgorithmKind::kConn: return Conn(graph);
    case AlgorithmKind::kCd: return Cd(graph, params.cd);
    case AlgorithmKind::kEvo: return Evo(graph, params.evo);
    case AlgorithmKind::kPr: return Pr(graph, params.pr);
  }
  return AlgorithmOutput{};
}

}  // namespace ref
}  // namespace gly
