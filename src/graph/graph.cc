#include "graph/graph.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/perf_counters.h"
#include "common/trace.h"

namespace gly {

namespace {

// Input edges a CSR build block reads between two polls of the cancel
// token.
constexpr size_t kPollEdges = 4096;
// Rows per chunk of the row passes (sort, dedup, compaction): small enough
// to balance skewed rows, large enough that per-chunk dispatch cost stays
// invisible.
constexpr size_t kRowGrain = 1024;

// ------------------------------------------------------------ CSR build
//
// Counting + scatter + a per-row sort (the GAP builder design): count each
// row's degree, prefix-sum the counts into offsets, scatter every entry
// into its row, then sort each row. The count and the scatter cut the rows
// into one block per pool thread; each block's task reads every entry but
// writes only its own rows, with plain loads and stores, in input order.
// So no row's entries depend on the thread count, and the per-row sort
// leaves the arrays the same at any thread count and without a pool.

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

// Runs `fn(lo, hi)` for every non-empty block of rows
// [bounds[b], bounds[b + 1]), one task per block across `pool`, or in order
// on the caller.
void ForEachBlock(const std::vector<size_t>& bounds, ThreadPool* pool,
                  const CancelToken* cancel,
                  const std::function<void(size_t, size_t)>& fn) {
  ForRange(pool, bounds.size() - 1, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      if (bounds[b] < bounds[b + 1]) fn(bounds[b], bounds[b + 1]);
    }
  }, cancel);
}

// Fills `offsets` (n + 1 of them) and `targets` with the adjacency entries
// that `for_each_entry(visit)` yields as `visit(row, value)`: count, prefix
// sum, scatter. Both passes cut the rows into one block per pool thread
// (one without a pool); each block reads every entry and writes only its
// own rows, so a row holds its entries in the order they were yielded. The
// count cuts equal id ranges; the scatter, whose cost follows the entries,
// cuts blocks of about equal entry counts by binary search on the offsets
// (a row larger than a block's share leaves the blocks beside it empty).
// More blocks than threads would only add reads of the input.
// `for_each_entry` polls `cancel` every kPollEdges input edges and stops
// once it is set.
template <typename ForEachEntry>
void CountAndScatter(size_t n, ThreadPool* pool, const CancelToken* cancel,
                     const ForEachEntry& for_each_entry,
                     std::vector<EdgeIndex>* offsets,
                     std::vector<VertexId>* targets) {
  const size_t blocks = pool != nullptr ? pool->num_threads() : 1;
  std::vector<size_t> bounds(blocks + 1, n);
  for (size_t b = 0; b < blocks; ++b) bounds[b] = n / blocks * b;
  offsets->assign(n + 1, 0);
  ForEachBlock(bounds, pool, cancel, [&](size_t lo, size_t hi) {
    EdgeIndex* count = offsets->data() + 1;
    for_each_entry([&](VertexId row, VertexId) {
      if (row - lo < hi - lo) ++count[row];
    });
  });
  ParallelPrefixSum(offsets, pool);
  targets->resize(offsets->back());

  const EdgeIndex share = offsets->back() / blocks;
  for (size_t b = 1; b < blocks; ++b) {
    bounds[b] = static_cast<size_t>(
        std::lower_bound(offsets->begin(), offsets->end(), share * b) -
        offsets->begin());
  }
  std::vector<EdgeIndex> cursor(n);
  ForEachBlock(bounds, pool, cancel, [&](size_t lo, size_t hi) {
    if ((*offsets)[lo] == (*offsets)[hi]) return;
    std::copy(offsets->begin() + static_cast<ptrdiff_t>(lo),
              offsets->begin() + static_cast<ptrdiff_t>(hi),
              cursor.begin() + static_cast<ptrdiff_t>(lo));
    VertexId* out = targets->data();
    for_each_entry([&](VertexId row, VertexId value) {
      if (row - lo < hi - lo) out[cursor[row]++] = value;
    });
  });
}

// Builds one CSR side from `edges`: count, prefix sum, block scatter and a
// per-row sort. With `mirror`, every edge also contributes its reverse (the
// undirected build); `drop_self_loops` skips src == dst edges entirely.
void BuildSide(const std::vector<Edge>& edges, VertexId num_vertices,
               bool by_src, bool mirror, bool drop_self_loops, ThreadPool* pool,
               const CancelToken* cancel, std::vector<EdgeIndex>* offsets,
               std::vector<VertexId>* targets) {
  auto for_each_entry = [&](auto&& visit) {
    for (size_t begin = 0; begin < edges.size(); begin += kPollEdges) {
      if (Cancelled(cancel)) return;
      const size_t end = std::min(edges.size(), begin + kPollEdges);
      for (size_t i = begin; i < end; ++i) {
        const Edge& e = edges[i];
        if (drop_self_loops && e.src == e.dst) continue;
        const VertexId row = by_src ? e.src : e.dst;
        const VertexId value = by_src ? e.dst : e.src;
        visit(row, value);
        if (mirror) visit(value, row);
      }
    }
  };
  CountAndScatter(num_vertices, pool, cancel, for_each_entry, offsets,
                  targets);
  ForRange(pool, num_vertices, kRowGrain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      std::sort(targets->begin() + static_cast<ptrdiff_t>((*offsets)[v]),
                targets->begin() + static_cast<ptrdiff_t>((*offsets)[v + 1]));
    }
  }, cancel);
}

// Per-row duplicate removal + compaction (rows must be sorted): duplicates
// of a (key, value) pair are adjacent within their sorted row. When no row
// lost an entry the arrays are already compact and are left as they are.
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
  if (unique_offsets.back() == offsets->back()) return;
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
// build, whose surviving edge set exists only in CSR form). The out-rows
// are read in ascending order, so every in-row comes out sorted.
void BuildInFromOut(const std::vector<EdgeIndex>& out_offsets,
                    const std::vector<VertexId>& out_targets,
                    ThreadPool* pool, const CancelToken* cancel,
                    std::vector<EdgeIndex>* in_offsets,
                    std::vector<VertexId>* in_targets) {
  const size_t n = out_offsets.size() - 1;
  auto for_each_entry = [&](auto&& visit) {
    EdgeIndex next_poll = 0;
    for (size_t v = 0; v < n; ++v) {
      if (out_offsets[v] >= next_poll) {
        if (Cancelled(cancel)) return;
        next_poll = out_offsets[v] + kPollEdges;
      }
      for (EdgeIndex r = out_offsets[v]; r < out_offsets[v + 1]; ++r) {
        visit(out_targets[r], static_cast<VertexId>(v));
      }
    }
  };
  CountAndScatter(n, pool, cancel, for_each_entry, in_offsets, in_targets);
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
  // The deduped mirrored adjacency is symmetric, so it serves as the in-CSR
  // too.
  g.num_edges_ = g.out_targets_.size() / 2;
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
  if (!undirected_ &&
      (in_offsets_.size() != out_offsets_.size() || in_offsets_.front() != 0 ||
       in_offsets_.back() != in_targets_.size())) {
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
  if (!undirected_ && out_targets_.size() != in_targets_.size()) {
    return Status::Internal("in/out entry count mismatch");
  }
  if (undirected_) {
    // The one adjacency is both sides: every (v,w) must have a mirror (w,v).
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
  if (!undirected_) {
    relabel_side(in_offsets_, in_targets_, &g.in_offsets_, &g.in_targets_);
  }
  return out;
}

}  // namespace gly
