// Graph: immutable CSR (compressed sparse row) adjacency structure.
//
// This is the shared in-memory graph representation. Directed graphs carry
// both out- and in-adjacency; undirected graphs mirror every edge so that
// `OutNeighbors` returns the full neighborhood, and hold that one adjacency
// only: `InNeighbors` and `InDegree` read it too.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/threadpool.h"
#include "graph/edge_list.h"
#include "graph/types.h"

namespace gly {

/// Bijective vertex relabeling: `old_to_new[old] == new` and
/// `new_to_old[new] == old`.
struct VertexPermutation {
  std::vector<VertexId> old_to_new;
  std::vector<VertexId> new_to_old;
};

struct ReorderedGraph;

/// Immutable CSR graph.
class Graph {
 public:
  Graph() = default;

  /// True if built from `GraphBuilder::Undirected` (edges mirrored).
  bool undirected() const { return undirected_; }

  VertexId num_vertices() const {
    return static_cast<VertexId>(out_offsets_.empty()
                                     ? 0
                                     : out_offsets_.size() - 1);
  }

  /// Number of *logical* edges: directed edge count, or undirected edge
  /// count (each mirrored pair counted once).
  uint64_t num_edges() const { return num_edges_; }

  /// Number of stored adjacency entries (== 2*num_edges for undirected).
  uint64_t num_adjacency_entries() const { return out_targets_.size(); }

  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }

  std::span<const VertexId> InNeighbors(VertexId v) const {
    if (undirected_) return OutNeighbors(v);
    return {in_targets_.data() + in_offsets_[v],
            in_targets_.data() + in_offsets_[v + 1]};
  }

  uint64_t OutDegree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  uint64_t InDegree(VertexId v) const {
    if (undirected_) return OutDegree(v);
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Degree for undirected analysis: out-degree (== full neighborhood for
  /// undirected graphs; for directed graphs callers usually want
  /// out+in separately).
  uint64_t Degree(VertexId v) const { return OutDegree(v); }

  /// Binary search for edge (src, dst) in the out-adjacency. O(log deg).
  bool HasEdge(VertexId src, VertexId dst) const;

  /// Resident bytes of the CSR arrays the graph holds (one side for an
  /// undirected graph, two for a directed one).
  uint64_t MemoryBytes() const;

  /// Converts back to an edge list (one entry per logical edge).
  EdgeList ToEdgeList() const;

  /// Internal consistency check (sorted adjacency, offset monotonicity,
  /// in/out symmetry). Intended for tests.
  Status Validate() const;

  /// Opt-in locality optimization: relabels vertices in out-degree
  /// descending order (ties by original id), so hubs cluster at the low
  /// ids that traversal kernels touch most. Returns the relabeled graph
  /// plus the permutation; algorithm outputs computed on the result must
  /// be mapped back through the permutation to speak original ids. Only
  /// meaningful for relabeling-invariant algorithms (STATS/BFS/CONN/PR);
  /// id-seeded ones (CD, EVO) change results under relabeling.
  /// Row relabeling parallelizes on `pool` when provided.
  ReorderedGraph ReorderByDegree(ThreadPool* pool = nullptr) const;

 private:
  friend class GraphBuilder;

  bool undirected_ = false;
  uint64_t num_edges_ = 0;
  std::vector<EdgeIndex> out_offsets_;  // size num_vertices + 1
  std::vector<VertexId> out_targets_;
  std::vector<EdgeIndex> in_offsets_;  // empty when undirected
  std::vector<VertexId> in_targets_;   // empty when undirected
};

/// See Graph::ReorderByDegree.
struct ReorderedGraph {
  Graph graph;
  VertexPermutation perm;
};

/// Vertex ids ordered by out-degree descending, ties by id ascending —
/// the shared ordering used by ReorderByDegree and the greedy
/// edge-balanced partitioner.
std::vector<VertexId> DegreeDescendingOrder(const Graph& graph);

/// CSR construction policy. The build counts row degrees, prefix-sums them
/// into offsets, scatters every edge into its row and sorts each row. With
/// a `pool` the count and the scatter run one row block per pool thread
/// (each block reads every edge and writes only its own rows, with plain
/// stores) and the row passes run chunked across it; without one they run
/// on the calling thread as a single block. The offsets and target arrays
/// are the same either way and at any thread count (the etl parity suite
/// pins them against frozen rows), so the pool is purely a performance
/// choice.
struct CsrBuildOptions {
  bool dedup = true;           ///< Directed only: drop self-loops + dups
  ThreadPool* pool = nullptr;  ///< null = build inline on the caller
  /// Cooperative cancellation (null = unsupervised): the build skips the
  /// remaining chunks and returns the token's Status.
  const CancelToken* cancel = nullptr;
};

/// Builds CSR graphs from edge lists.
class GraphBuilder {
 public:
  /// Builds a directed graph. Duplicate edges and self-loops are kept unless
  /// `options.dedup` is true.
  static Result<Graph> Directed(const EdgeList& edges,
                                const CsrBuildOptions& options = {});

  /// Builds an undirected graph: each input edge (u,v) appears in both
  /// adjacency lists. Self-loops are dropped; duplicates (in either
  /// orientation) are merged.
  static Result<Graph> Undirected(const EdgeList& edges,
                                  const CsrBuildOptions& options = {});
};

}  // namespace gly
