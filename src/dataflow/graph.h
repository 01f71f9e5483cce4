// GraphX-like property graph and pregel-by-joins on the dataflow engine.
//
// Mirrors GraphX's structure (Xin et al., GRADES 2013): a property graph is
// a pair of datasets — vertices (id, value) and edges (src, dst) — and
// iterative algorithms are expressed with the Pregel operator implemented
// as joins: messages = edges ⋈ vertices, new vertices = vertices ⋈ messages.
// Every iteration materializes new immutable datasets; `lineage_depth`
// previous vertex generations are kept alive, as Spark's lineage does
// before checkpointing.

#pragma once

#include <deque>

#include "dataflow/dataset.h"
#include "graph/graph.h"
#include "ref/algorithms.h"

namespace gly::dataflow {

/// Per-run statistics of a pregel-by-joins execution.
struct PregelJoinStats {
  uint32_t iterations = 0;
  uint64_t messages = 0;
};

/// GraphX-like property graph over the dataflow engine.
template <typename V>
class PropertyGraph {
 public:
  /// Builds vertex and edge datasets from a CSR graph. The edge dataset is
  /// partitioned by source vertex so the messages join is co-partitioned
  /// with the vertex dataset.
  template <typename InitFn>
  static Result<PropertyGraph> FromGraph(Context* ctx, const Graph& graph,
                                         InitFn init) {
    PropertyGraph pg;
    pg.ctx_ = ctx;
    pg.num_vertices_ = graph.num_vertices();
    std::vector<std::pair<uint64_t, V>> vertices;
    vertices.reserve(graph.num_vertices());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      vertices.emplace_back(v, init(v));
    }
    GLY_ASSIGN_OR_RETURN(pg.vertices_,
                         ctx->ParallelizeByKey(std::move(vertices)));
    // Edge triplet source table: (src, dst) keyed by src.
    std::vector<std::pair<uint64_t, VertexId>> edges;
    edges.reserve(graph.num_adjacency_entries());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      for (VertexId w : graph.OutNeighbors(v)) {
        edges.emplace_back(v, w);
      }
    }
    GLY_ASSIGN_OR_RETURN(pg.edges_, ctx->ParallelizeByKey(std::move(edges)));
    return pg;
  }

  const Dataset<std::pair<uint64_t, V>>& vertices() const { return vertices_; }

  VertexId num_vertices() const { return num_vertices_; }

  /// The GraphX Pregel operator.
  ///
  /// * `send(src_value, src, dst)` returns an optional message (M) routed
  ///   to dst — evaluated for every edge whose source is in the active set;
  /// * `combine(a, b)` merges messages to the same destination; `a` comes
  ///   as an rvalue (Context::ReduceByKey's fold contract), so a list
  ///   combiner takes it by value and appends `b`;
  /// * `apply(v, old_value, msg_or_null)` produces the new vertex value and
  ///   flags whether the vertex is active next round.
  // send/combine/apply stay template parameters (not std::function): the
  // send callback runs once per edge per iteration — the join plan's
  // innermost loop — and must inline into the partition scan.
  template <typename M, typename SendFn, typename CombineFn, typename ApplyFn>
  Result<PregelJoinStats> Pregel(uint32_t max_iterations, SendFn send,
                                 CombineFn combine, ApplyFn apply,
                                 uint32_t lineage_depth = 2) {
    PregelJoinStats stats;
    std::deque<Dataset<std::pair<uint64_t, V>>> lineage;  // kept alive

    for (uint32_t iter = 0; iter < max_iterations; ++iter) {
      // messages = edges ⋈ vertices (co-partitioned on src), then shuffled
      // to destination partitions and combined.
      using KM = std::pair<uint64_t, M>;
      GLY_ASSIGN_OR_RETURN(
          Dataset<KM> raw_messages,
          (ctx_->template LeftJoin<KM>(
              edges_, vertices_,
              [&send](uint64_t src, const VertexId& dst, const V* value) {
                if (value != nullptr) {
                  std::optional<M> m =
                      send(*value, static_cast<VertexId>(src), dst);
                  if (m.has_value()) {
                    return KM{dst, std::move(*m)};
                  }
                }
                // Tombstone: key out of vertex range is dropped below.
                return KM{~0ULL, M{}};
              })));
      GLY_ASSIGN_OR_RETURN(
          raw_messages,
          ctx_->Filter(raw_messages, [this](const KM& kv) {
            return kv.first < num_vertices_;
          }));
      GLY_ASSIGN_OR_RETURN(Dataset<KM> messages,
                           ctx_->ReduceByKey(raw_messages, combine));
      uint64_t message_count = messages.Count();
      stats.messages += message_count;
      ++stats.iterations;

      // newVertices = vertices ⋈ messages (full outer walk of the vertex
      // dataset — the GraphX cost signature).
      using KV = std::pair<uint64_t, V>;
      std::atomic<uint64_t> active{0};
      GLY_ASSIGN_OR_RETURN(
          Dataset<KV> new_vertices,
          (ctx_->template LeftJoin<KV>(
              vertices_, messages,
              [&apply, &active](uint64_t k, const V& old_value, const M* m) {
                auto [value, is_active] = apply(k, old_value, m);
                if (is_active) active.fetch_add(1, std::memory_order_relaxed);
                return KV{k, std::move(value)};
              })));

      // Lineage: previous generations stay materialized (and budget-charged)
      // until they age out.
      lineage.push_back(vertices_);
      while (lineage.size() > lineage_depth) lineage.pop_front();
      vertices_ = std::move(new_vertices);

      if (active.load() == 0 && message_count == 0) break;
    }
    return stats;
  }

 private:
  Context* ctx_ = nullptr;
  VertexId num_vertices_ = 0;
  Dataset<std::pair<uint64_t, V>> vertices_;
  Dataset<std::pair<uint64_t, VertexId>> edges_;
};

}  // namespace gly::dataflow
