#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <numeric>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/perf_counters.h"
#include "common/trace.h"

namespace gly {

namespace {

// Chunk sizes for the parallel build: small enough to balance skewed rows,
// large enough that per-chunk dispatch cost stays invisible.
constexpr size_t kEdgeGrain = 4096;
constexpr size_t kRowGrain = 1024;

// ------------------------------------------------------------ CSR build
//
// Counting + scatter + a per-row sort (the GAP builder design): count each
// row's degree, prefix-sum the counts into offsets, scatter every edge into
// its row, then sort each row. The scatter places a row's multiset of
// targets in arbitrary order and the per-row sort restores ascending order,
// so the offsets and target arrays are the same at any thread count and
// without a pool.

// Runs `fn(begin, end)` over [0, n): in `grain` chunks across `pool`, or as
// one range on the calling thread when there is none. A cancelled token
// skips the work; callers poll it afterwards.
void ForRange(ThreadPool* pool, size_t n, size_t grain,
              const std::function<void(size_t, size_t)>& fn,
              const CancelToken* cancel = nullptr) {
  if (pool != nullptr) {
    pool->ParallelForChunked(0, n, grain, fn, cancel);
  } else if (n > 0 && !Cancelled(cancel)) {
    fn(0, n);
  }
}

// In-place inclusive prefix sum over `offsets`: on entry offsets[0] == 0
// and offsets[v + 1] holds row v's count; on exit offsets[v + 1] is the
// running total through row v. Chunked two-pass scan on `pool`; a plain
// scan on the caller for small inputs or without a pool.
void ParallelPrefixSum(std::vector<EdgeIndex>* offsets, ThreadPool* pool) {
  const size_t n = offsets->size() - 1;
  if (n < 4096 || pool == nullptr || pool->num_threads() <= 1) {
    for (size_t i = 1; i <= n; ++i) (*offsets)[i] += (*offsets)[i - 1];
    return;
  }
  const size_t chunks = std::min(n, pool->num_threads() * 4);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<EdgeIndex> bases(chunks + 1, 0);
  pool->ParallelFor(0, chunks, 1, [&](size_t c) {
    const size_t lo = 1 + c * chunk_size;
    const size_t hi = std::min(n + 1, lo + chunk_size);
    EdgeIndex sum = 0;
    for (size_t i = lo; i < hi; ++i) sum += (*offsets)[i];
    bases[c + 1] = sum;
  });
  for (size_t c = 1; c <= chunks; ++c) bases[c] += bases[c - 1];
  pool->ParallelFor(0, chunks, 1, [&](size_t c) {
    const size_t lo = 1 + c * chunk_size;
    const size_t hi = std::min(n + 1, lo + chunk_size);
    EdgeIndex running = bases[c];
    for (size_t i = lo; i < hi; ++i) {
      running += (*offsets)[i];
      (*offsets)[i] = running;
    }
  });
}

// Builds one CSR side from `edges` with atomic degree counting, prefix
// sum, scatter, and a deterministic per-row sort. With `mirror`, every edge
// also contributes its reverse (the undirected build); `drop_self_loops`
// skips src == dst edges entirely.
void BuildSide(const std::vector<Edge>& edges, VertexId num_vertices,
               bool by_src, bool mirror, bool drop_self_loops, ThreadPool* pool,
               const CancelToken* cancel, std::vector<EdgeIndex>* offsets,
               std::vector<VertexId>* targets) {
  const size_t n = num_vertices;
  std::unique_ptr<std::atomic<EdgeIndex>[]> cursor(
      new std::atomic<EdgeIndex>[n]());
  ForRange(pool, edges.size(), kEdgeGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Edge& e = edges[i];
      if (drop_self_loops && e.src == e.dst) continue;
      cursor[by_src ? e.src : e.dst].fetch_add(1, std::memory_order_relaxed);
      if (mirror) {
        cursor[by_src ? e.dst : e.src].fetch_add(1,
                                                 std::memory_order_relaxed);
      }
    }
  }, cancel);
  offsets->assign(n + 1, 0);
  ForRange(pool, n, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      (*offsets)[v + 1] = cursor[v].exchange(0, std::memory_order_relaxed);
    }
  });
  ParallelPrefixSum(offsets, pool);
  targets->resize(offsets->back());
  ForRange(pool, edges.size(), kEdgeGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Edge& e = edges[i];
      if (drop_self_loops && e.src == e.dst) continue;
      VertexId k = by_src ? e.src : e.dst;
      VertexId value = by_src ? e.dst : e.src;
      (*targets)[(*offsets)[k] +
                 cursor[k].fetch_add(1, std::memory_order_relaxed)] = value;
      if (mirror) {
        (*targets)[(*offsets)[value] +
                   cursor[value].fetch_add(1, std::memory_order_relaxed)] = k;
      }
    }
  }, cancel);
  ForRange(pool, n, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      std::sort(targets->begin() + static_cast<ptrdiff_t>((*offsets)[v]),
                targets->begin() + static_cast<ptrdiff_t>((*offsets)[v + 1]));
    }
  }, cancel);
}

// Per-row duplicate removal + compaction (rows must be sorted): duplicates
// of a (key, value) pair are adjacent within their sorted row.
void DedupRows(std::vector<EdgeIndex>* offsets, std::vector<VertexId>* targets,
               ThreadPool* pool, const CancelToken* cancel) {
  const size_t n = offsets->size() - 1;
  std::vector<EdgeIndex> unique_offsets(n + 1, 0);
  ForRange(pool, n, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      EdgeIndex write = (*offsets)[v];
      for (EdgeIndex r = (*offsets)[v]; r < (*offsets)[v + 1]; ++r) {
        if (write == (*offsets)[v] || (*targets)[r] != (*targets)[write - 1]) {
          (*targets)[write++] = (*targets)[r];
        }
      }
      unique_offsets[v + 1] = write - (*offsets)[v];
    }
  }, cancel);
  ParallelPrefixSum(&unique_offsets, pool);
  std::vector<VertexId> compacted(unique_offsets.back());
  ForRange(pool, n, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      std::copy_n(targets->begin() + static_cast<ptrdiff_t>((*offsets)[v]),
                  unique_offsets[v + 1] - unique_offsets[v],
                  compacted.begin() +
                      static_cast<ptrdiff_t>(unique_offsets[v]));
    }
  });
  *offsets = std::move(unique_offsets);
  *targets = std::move(compacted);
}

// Builds the in-CSR from a finished out-CSR (used by the deduped directed
// build, whose surviving edge set exists only in CSR form).
void BuildInFromOut(const std::vector<EdgeIndex>& out_offsets,
                    const std::vector<VertexId>& out_targets,
                    ThreadPool* pool, const CancelToken* cancel,
                    std::vector<EdgeIndex>* in_offsets,
                    std::vector<VertexId>* in_targets) {
  const size_t n = out_offsets.size() - 1;
  std::unique_ptr<std::atomic<EdgeIndex>[]> cursor(
      new std::atomic<EdgeIndex>[n]());
  ForRange(pool, n, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      for (EdgeIndex r = out_offsets[v]; r < out_offsets[v + 1]; ++r) {
        cursor[out_targets[r]].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }, cancel);
  in_offsets->assign(n + 1, 0);
  ForRange(pool, n, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      (*in_offsets)[v + 1] = cursor[v].exchange(0, std::memory_order_relaxed);
    }
  });
  ParallelPrefixSum(in_offsets, pool);
  in_targets->resize(in_offsets->back());
  ForRange(pool, n, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      for (EdgeIndex r = out_offsets[v]; r < out_offsets[v + 1]; ++r) {
        VertexId w = out_targets[r];
        (*in_targets)[(*in_offsets)[w] +
                      cursor[w].fetch_add(1, std::memory_order_relaxed)] =
            static_cast<VertexId>(v);
      }
    }
  });
  ForRange(pool, n, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      std::sort(
          in_targets->begin() + static_cast<ptrdiff_t>((*in_offsets)[v]),
          in_targets->begin() + static_cast<ptrdiff_t>((*in_offsets)[v + 1]));
    }
  });
}

}  // namespace

Result<Graph> GraphBuilder::Directed(const EdgeList& edges,
                                     const CsrBuildOptions& options) {
  trace::TraceSpan csr_span("etl.csr_build", "etl");
  perf::SpanCounters csr_counters(&csr_span);
  csr_span.SetAttribute("edges", uint64_t{edges.num_edges()});
  ThreadPool* pool = options.pool;
  const CancelToken* cancel = options.cancel;
  Graph g;
  g.undirected_ = false;
  // Cancellation note: a cancelled pass may have skipped chunks, leaving a
  // partially built (inconsistent) CSR side; every phase boundary therefore
  // polls the token and discards the build before the partial data is
  // ever read.
  BuildSide(edges.edges(), edges.num_vertices(), /*by_src=*/true,
            /*mirror=*/false, /*drop_self_loops=*/options.dedup, pool, cancel,
            &g.out_offsets_, &g.out_targets_);
  GLY_RETURN_NOT_OK(CheckCancel(cancel));
  if (options.dedup) {
    DedupRows(&g.out_offsets_, &g.out_targets_, pool, cancel);
    GLY_RETURN_NOT_OK(CheckCancel(cancel));
    g.num_edges_ = g.out_targets_.size();
    BuildInFromOut(g.out_offsets_, g.out_targets_, pool, cancel,
                   &g.in_offsets_, &g.in_targets_);
  } else {
    g.num_edges_ = g.out_targets_.size();
    BuildSide(edges.edges(), edges.num_vertices(), /*by_src=*/false,
              /*mirror=*/false, /*drop_self_loops=*/false, pool, cancel,
              &g.in_offsets_, &g.in_targets_);
  }
  GLY_RETURN_NOT_OK(CheckCancel(cancel));
  return g;
}

Result<Graph> GraphBuilder::Undirected(const EdgeList& edges,
                                       const CsrBuildOptions& options) {
  trace::TraceSpan csr_span("etl.csr_build", "etl");
  perf::SpanCounters csr_counters(&csr_span);
  csr_span.SetAttribute("edges", uint64_t{edges.num_edges()});
  Graph g;
  g.undirected_ = true;
  BuildSide(edges.edges(), edges.num_vertices(), /*by_src=*/true,
            /*mirror=*/true, /*drop_self_loops=*/true, options.pool,
            options.cancel, &g.out_offsets_, &g.out_targets_);
  GLY_RETURN_NOT_OK(CheckCancel(options.cancel));
  DedupRows(&g.out_offsets_, &g.out_targets_, options.pool, options.cancel);
  GLY_RETURN_NOT_OK(CheckCancel(options.cancel));
  g.num_edges_ = g.out_targets_.size() / 2;
  // The deduped mirrored adjacency is symmetric: the in-CSR is the out-CSR.
  g.in_offsets_ = g.out_offsets_;
  g.in_targets_ = g.out_targets_;
  return g;
}

bool Graph::HasEdge(VertexId src, VertexId dst) const {
  auto nbrs = OutNeighbors(src);
  return std::binary_search(nbrs.begin(), nbrs.end(), dst);
}

uint64_t Graph::MemoryBytes() const {
  return out_offsets_.size() * sizeof(EdgeIndex) +
         out_targets_.size() * sizeof(VertexId) +
         in_offsets_.size() * sizeof(EdgeIndex) +
         in_targets_.size() * sizeof(VertexId);
}

EdgeList Graph::ToEdgeList() const {
  EdgeList out(num_vertices());
  out.Reserve(num_edges_);
  for (VertexId v = 0; v < num_vertices(); ++v) {
    for (VertexId w : OutNeighbors(v)) {
      if (undirected_ && w < v) continue;  // emit each mirrored pair once
      out.Add(v, w);
    }
  }
  return out;
}

Status Graph::Validate() const {
  if (out_offsets_.empty()) {
    if (num_edges_ != 0) return Status::Internal("edges without vertices");
    return Status::OK();
  }
  if (out_offsets_.front() != 0 || out_offsets_.back() != out_targets_.size()) {
    return Status::Internal("out offsets do not cover targets");
  }
  if (in_offsets_.front() != 0 || in_offsets_.back() != in_targets_.size()) {
    return Status::Internal("in offsets do not cover targets");
  }
  const VertexId n = num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    if (out_offsets_[v] > out_offsets_[v + 1]) {
      return Status::Internal("out offsets not monotone at " + std::to_string(v));
    }
    auto nbrs = OutNeighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= n) return Status::Internal("target out of range");
      if (i > 0 && nbrs[i - 1] > nbrs[i]) {
        return Status::Internal("adjacency not sorted at vertex " +
                                std::to_string(v));
      }
    }
  }
  // out and in must describe the same multiset of edges.
  if (out_targets_.size() != in_targets_.size()) {
    return Status::Internal("in/out entry count mismatch");
  }
  if (undirected_) {
    // Every (v,w) must have a mirror (w,v).
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId w : OutNeighbors(v)) {
        if (!HasEdge(w, v)) {
          return Status::Internal(StringPrintf(
              "undirected graph missing mirror edge (%u,%u)", w, v));
        }
      }
    }
  }
  return Status::OK();
}

std::vector<VertexId> DegreeDescendingOrder(const Graph& graph) {
  std::vector<VertexId> order(graph.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&graph](VertexId a, VertexId b) {
    uint64_t da = graph.OutDegree(a);
    uint64_t db = graph.OutDegree(b);
    return da != db ? da > db : a < b;
  });
  return order;
}

ReorderedGraph Graph::ReorderByDegree(ThreadPool* pool) const {
  ReorderedGraph out;
  if (out_offsets_.empty()) return out;  // empty graph: empty permutation
  const VertexId n = num_vertices();
  out.perm.new_to_old = DegreeDescendingOrder(*this);
  out.perm.old_to_new.resize(n);
  for (VertexId i = 0; i < n; ++i) {
    out.perm.old_to_new[out.perm.new_to_old[i]] = i;
  }

  Graph& g = out.graph;
  g.undirected_ = undirected_;
  g.num_edges_ = num_edges_;
  auto relabel_side = [&](const std::vector<EdgeIndex>& src_offsets,
                          const std::vector<VertexId>& src_targets,
                          std::vector<EdgeIndex>* offsets,
                          std::vector<VertexId>* targets) {
    offsets->assign(static_cast<size_t>(n) + 1, 0);
    for (VertexId i = 0; i < n; ++i) {
      VertexId old = out.perm.new_to_old[i];
      (*offsets)[i + 1] = src_offsets[old + 1] - src_offsets[old];
    }
    for (size_t i = 1; i <= n; ++i) (*offsets)[i] += (*offsets)[i - 1];
    targets->resize(offsets->back());
    auto fill_rows = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        VertexId old = out.perm.new_to_old[i];
        EdgeIndex w = (*offsets)[i];
        for (EdgeIndex r = src_offsets[old]; r < src_offsets[old + 1]; ++r) {
          (*targets)[w++] = out.perm.old_to_new[src_targets[r]];
        }
        std::sort(targets->begin() + static_cast<ptrdiff_t>((*offsets)[i]),
                  targets->begin() + static_cast<ptrdiff_t>((*offsets)[i + 1]));
      }
    };
    ForRange(pool, n, kRowGrain, fill_rows);
  };
  relabel_side(out_offsets_, out_targets_, &g.out_offsets_, &g.out_targets_);
  if (undirected_) {
    g.in_offsets_ = g.out_offsets_;
    g.in_targets_ = g.out_targets_;
  } else {
    relabel_side(in_offsets_, in_targets_, &g.in_offsets_, &g.in_targets_);
  }
  return out;
}

}  // namespace gly
