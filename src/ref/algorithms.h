// The five Graphalytics algorithms: shared parameter types, canonical
// semantics, and reference (gold) implementations.
//
// Paper §3.2: "We have included so far in Graphalytics five algorithms that
// are representative for real-world usage and stress the choke points of
// platforms": STATS, BFS, CONN, CD (community detection, Leung et al.),
// EVO (forest-fire graph evolution, Leskovec et al.).
//
// Every platform implements the same deterministic semantics defined here,
// so the Output Validator can compare results exactly:
//
//  * BFS      — level (hop distance) per vertex from `source`;
//               kUnreachable for unreached vertices.
//  * CONN     — per vertex, the smallest vertex id in its connected
//               component (the standard Graphalytics label convention).
//  * CD       — synchronous label propagation with hop attenuation
//               (Leung et al. 2009): every vertex starts with its own id as
//               label (score 1.0); each iteration a vertex adopts the label
//               with the highest neighbor score sum (ties -> smaller
//               label), the adopted label's score is max contributing
//               score minus `hop_attenuation`. Runs `max_iterations`
//               rounds; output is the final label per vertex.
//  * EVO      — batched forest-fire evolution: `num_new_vertices` new
//               vertices are added; each independently picks a seeded
//               ambassador among the original vertices and burns through
//               the original graph (geometric forward fanout, seeded
//               neighbor selection); the new vertex links to every burned
//               vertex. Per-new-vertex RNG streams make the result
//               independent of platform scheduling. (The original model
//               grows one vertex at a time; the batch variant preserves
//               the burning mechanics while being expressible on BSP/
//               MapReduce platforms — see DESIGN.md.)
//  * STATS    — vertex count, edge count, mean local clustering
//               coefficient (paper: "counts the number of vertices and
//               edges ... computes the mean local clustering coefficient").

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/random.h"
#include "common/result.h"
#include "graph/graph.h"

namespace gly {

/// Algorithm identifiers: the paper's five-algorithm workload plus PR
/// (PageRank), an extension anticipating the benchmark's stated growth
/// ("more algorithms will be added"; LDBC Graphalytics later standardized
/// PageRank).
enum class AlgorithmKind { kStats, kBfs, kConn, kCd, kEvo, kPr };

/// Parses "stats" | "bfs" | "conn" | "cd" | "evo" | "pr".
Result<AlgorithmKind> ParseAlgorithmKind(const std::string& name);
std::string AlgorithmKindName(AlgorithmKind kind);

/// PR (PageRank) parameters. Semantics shared by every platform: ranks
/// start at 1/n; each of `iterations` synchronous rounds computes
///   rank'(v) = (1-damping)/n + damping * sum over in-neighbors u of
///              rank(u) / out_degree(u).
/// Dangling mass is allowed to leak (no redistribution) so the update is
/// purely local — identical on BSP, dataflow, MapReduce, and the graph
/// database. Scores are validated with a numeric tolerance.
struct PrParams {
  uint32_t iterations = 20;
  double damping = 0.85;
};

/// BFS parameters.
struct BfsParams {
  VertexId source = 0;
};

/// Direction chooser for the direction-optimizing BFS (Beamer et al.,
/// SC'12) with GAP's fixed switch thresholds: go bottom-up when the
/// frontier's edge count exceeds 1/kAlpha of the unexplored edge count;
/// return top-down when the frontier shrinks below 1/kBeta of the
/// vertices. Stateful: remembers the current direction so the two
/// thresholds act as hysteresis, exactly as in the GAP reference.
class BfsDirectionPolicy {
 public:
  static constexpr double kAlpha = 15.0;
  static constexpr double kBeta = 18.0;

  explicit BfsDirectionPolicy(uint64_t num_vertices)
      : num_vertices_(num_vertices) {}

  /// Decides the direction for the next level. `frontier_vertices` is the
  /// frontier's cardinality, `frontier_degree` the sum of its out-degrees
  /// (the edges a top-down step would examine), `unexplored_degree` the
  /// sum of out-degrees of undiscovered vertices.
  bool UseBottomUp(uint64_t frontier_vertices, uint64_t frontier_degree,
                   uint64_t unexplored_degree);

 private:
  uint64_t num_vertices_;
  bool bottom_up_ = false;
};

/// CD (label propagation, Leung et al.) parameters.
struct CdParams {
  uint32_t max_iterations = 10;
  double hop_attenuation = 0.05;
};

/// EVO (forest fire) parameters.
struct EvoParams {
  uint32_t num_new_vertices = 16;
  double p_forward = 0.3;    ///< geometric burn parameter
  uint32_t max_depth = 4;    ///< burn frontier depth limit
  uint32_t max_burned = 64;  ///< total burn size cap per new vertex
  uint64_t seed = 99;
};

/// Union of all algorithm parameters carried through the harness. Doubles
/// as the per-run parameter block (RunParams) of Platform::Run.
struct AlgorithmParams {
  BfsParams bfs;
  CdParams cd;
  EvoParams evo;
  PrParams pr;
  /// Cooperative cancellation (null = unsupervised run, zero overhead).
  /// The harness arms it on timeout / stall / stop; every engine polls it
  /// at bounded-work intervals and bumps its progress heartbeat — see
  /// common/cancellation.h and DESIGN.md §11. Not serialized.
  CancelToken* cancel = nullptr;
};

/// STATS output.
struct StatsResult {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  double mean_local_clustering = 0.0;
};

/// Output of one algorithm run, in the shape the validator understands.
struct AlgorithmOutput {
  /// BFS: distance per vertex; CONN: component label; CD: community label.
  std::vector<int64_t> vertex_values;
  /// PR only: rank per vertex.
  std::vector<double> vertex_scores;
  /// STATS only.
  StatsResult stats;
  /// EVO only: the edges added by the evolution step
  /// (new vertex ids start at graph.num_vertices()).
  EdgeList new_edges;
  /// Number of edges the algorithm traversed, for the TEPS metric
  /// (Figure 5). Platforms fill this with their true traversal count.
  uint64_t traversed_edges = 0;
};

namespace ref {

/// Reference implementations (single-threaded, obviously-correct).
AlgorithmOutput Stats(const Graph& graph);
AlgorithmOutput Bfs(const Graph& graph, const BfsParams& params);

AlgorithmOutput Conn(const Graph& graph);
AlgorithmOutput Cd(const Graph& graph, const CdParams& params);
AlgorithmOutput Evo(const Graph& graph, const EvoParams& params);
AlgorithmOutput Pr(const Graph& graph, const PrParams& params);

/// Dispatch by kind.
AlgorithmOutput Run(const Graph& graph, AlgorithmKind kind,
                    const AlgorithmParams& params);

}  // namespace ref

/// Shared deterministic forest-fire burn used by every platform's EVO:
/// burns from `ambassador` through `graph` and returns the burned vertex
/// set in ascending order (ambassador included). Seeded per new vertex.
std::vector<VertexId> ForestFireBurn(const Graph& graph, VertexId ambassador,
                                     const EvoParams& params,
                                     uint32_t new_vertex_index);

/// Substrate-agnostic variant: `fetch_neighbors` must return the vertex's
/// neighborhood in ascending order (matching CSR order), so every platform
/// makes identical seeded selections. Used by the graph-database platform.
std::vector<VertexId> ForestFireBurnWithFetch(
    VertexId num_vertices,
    const std::function<std::vector<VertexId>(VertexId)>& fetch_neighbors,
    VertexId ambassador, const EvoParams& params, uint32_t new_vertex_index);

/// Deterministic ambassador choice for new vertex `i`.
VertexId ForestFireAmbassador(const Graph& graph, const EvoParams& params,
                              uint32_t new_vertex_index);

/// The label-propagation scoring rule shared by all CD implementations:
/// given (label, score) of each neighbor, returns the adopted label and its
/// new score. Exposed so platform implementations stay in lockstep.
/// Reorders `neighbor_labels` (a stable sort by label) and allocates no
/// per-label state; callers that need their list intact pass a copy.
struct LabelScore {
  int64_t label;
  double score;
};
LabelScore CdAdoptLabel(std::span<LabelScore> neighbor_labels,
                        double hop_attenuation);

}  // namespace gly
