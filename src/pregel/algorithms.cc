#include "pregel/algorithms.h"

#include <algorithm>
#include <span>

namespace gly::pregel {

namespace {

// ------------------------------------------------------------------- BFS

struct BfsProgram : VertexProgram<int64_t, int64_t> {
  explicit BfsProgram(VertexId source, bool with_combiner)
      : source_(source), with_combiner_(with_combiner) {}

  int64_t Init(const Graph&, VertexId) override { return kUnreachable; }

  void Compute(Context& ctx, std::span<const int64_t> messages) override {
    int64_t best = ctx.value();
    if (ctx.superstep() == 0) {
      if (ctx.vertex() == source_) best = 0;
    }
    for (int64_t m : messages) best = std::min(best, m);
    if (best < ctx.value()) {
      ctx.value() = best;
      ctx.SendToNeighbors(best + 1);
      // Aggregates the frontier size: vertices newly discovered this superstep.
      ctx.AggregateValue("frontier", 1.0);
    }
    ctx.VoteToHalt();
  }

  std::optional<std::function<int64_t(const int64_t&, const int64_t&)>>
  Combiner() const override {
    if (!with_combiner_) return std::nullopt;
    return [](const int64_t& a, const int64_t& b) { return std::min(a, b); };
  }

  void RegisterAggregators(Aggregators* aggregators) const override {
    aggregators->Register("frontier", Aggregators::Kind::kSum);
  }

  VertexId source_;
  bool with_combiner_;
};

// ------------------------------------------------------------------ CONN

struct ConnProgram : VertexProgram<int64_t, int64_t> {
  int64_t Init(const Graph&, VertexId v) override {
    return static_cast<int64_t>(v);
  }

  void Compute(Context& ctx, std::span<const int64_t> messages) override {
    int64_t best = ctx.value();
    for (int64_t m : messages) best = std::min(best, m);
    const bool changed = best < ctx.value() || ctx.superstep() == 0;
    ctx.value() = best;
    if (changed) {
      // HashMin must reach the whole weakly-connected neighborhood: on
      // directed graphs propagate against edge direction too.
      ctx.SendToNeighbors(best);
      if (!ctx.graph().undirected()) {
        for (VertexId w : ctx.graph().InNeighbors(ctx.vertex())) {
          ctx.SendTo(w, best);
        }
      }
    }
    ctx.VoteToHalt();
  }

  std::optional<std::function<int64_t(const int64_t&, const int64_t&)>>
  Combiner() const override {
    return [](const int64_t& a, const int64_t& b) { return std::min(a, b); };
  }
};

// -------------------------------------------------------------------- CD

struct CdValue {
  int64_t label = 0;
  double score = 1.0;
};

struct CdMessage {
  int64_t label = 0;
  double score = 1.0;
};

struct CdProgram : VertexProgram<CdValue, CdMessage> {
  explicit CdProgram(const CdParams& params) : params_(params) {}

  CdValue Init(const Graph&, VertexId v) override {
    return CdValue{static_cast<int64_t>(v), 1.0};
  }

  void Compute(Context& ctx, std::span<const CdMessage> messages) override {
    // Superstep s: adopt from messages (s >= 1), then broadcast the current
    // label while more propagation rounds remain. Message round t feeds
    // adoption round t, matching the reference's synchronous iterations.
    if (ctx.superstep() >= 1 && !messages.empty()) {
      std::vector<LabelScore> incoming;
      incoming.reserve(messages.size());
      for (const CdMessage& m : messages) {
        incoming.push_back(LabelScore{m.label, m.score});
      }
      LabelScore adopted = CdAdoptLabel(incoming, params_.hop_attenuation);
      ctx.value() = CdValue{adopted.label, adopted.score};
    }
    if (ctx.superstep() < params_.max_iterations) {
      ctx.SendToNeighbors(CdMessage{ctx.value().label, ctx.value().score});
    }
    ctx.VoteToHalt();
  }

  CdParams params_;
};

// -------------------------------------------------------------------- PR

struct PrProgram : VertexProgram<double, double> {
  PrProgram(const PrParams& params, VertexId n)
      : params_(params), n_(n), base_((1.0 - params.damping) / n) {}

  double Init(const Graph&, VertexId) override {
    return 1.0 / static_cast<double>(n_);
  }

  void Compute(Context& ctx, std::span<const double> messages) override {
    if (ctx.superstep() >= 1) {
      double sum = 0.0;
      for (double m : messages) sum += m;
      ctx.value() = base_ + params_.damping * sum;
    }
    if (ctx.superstep() < params_.iterations) {
      auto nbrs = ctx.out_neighbors();
      if (!nbrs.empty()) {
        ctx.SendToNeighbors(ctx.value() / static_cast<double>(nbrs.size()));
      }
      // Total-rank aggregator: visible next superstep; exposes the mass
      // leak at dangling vertices to the driver.
      ctx.AggregateValue("rank_sum", ctx.value());
    } else {
      // Halt only after the final update round: a vertex must keep running
      // (to apply the base term and keep sending) even if it receives no
      // messages, e.g. sources in directed graphs and isolated vertices.
      ctx.VoteToHalt();
    }
  }

  std::optional<std::function<double(const double&, const double&)>>
  Combiner() const override {
    return [](const double& a, const double& b) { return a + b; };
  }

  void RegisterAggregators(Aggregators* aggregators) const override {
    aggregators->Register("rank_sum", Aggregators::Kind::kSum);
  }

  PrParams params_;
  VertexId n_;
  double base_;
};

// ----------------------------------------------------------------- STATS

// Superstep 0: send the adjacency list to every neighbor. Superstep 1:
// count links among neighbors via sorted-list intersection.
struct LccProgram : VertexProgram<double, std::vector<VertexId>> {
  double Init(const Graph&, VertexId) override { return 0.0; }

  void Compute(Context& ctx,
               std::span<const std::vector<VertexId>> messages) override {
    if (ctx.superstep() == 0) {
      auto nbrs = ctx.out_neighbors();
      if (nbrs.size() >= 2) {
        std::vector<VertexId> list(nbrs.begin(), nbrs.end());
        ctx.SendToNeighbors(list);
      }
      return;  // stay active to receive
    }
    auto nbrs = ctx.out_neighbors();
    uint64_t links = 0;
    for (const std::vector<VertexId>& their : messages) {
      // |their ∩ nbrs| counts edges between our neighborhood and the
      // sender; the sender is itself a neighbor, so each such common vertex
      // closes a wedge. Every neighbor-pair link is reported by both ends;
      // halving at the end corrects the double count.
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
    uint64_t deg = nbrs.size();
    if (deg >= 2) {
      ctx.value() = static_cast<double>(links) /  // links already == 2*pairs
                    (static_cast<double>(deg) * static_cast<double>(deg - 1));
    }
    ctx.VoteToHalt();
  }
};

// ------------------------------------------------------------------- EVO

Result<AlgorithmOutput> RunEvoImpl(const Engine& engine, const Graph& graph,
                                   const EvoParams& params,
                                   RunStats* stats_out) {
  // Fires are independent: distribute them across workers (threads), each
  // replaying the shared deterministic burn. Memory: the burn frontier is
  // negligible; the graph charge mirrors the other algorithms.
  MemoryBudget budget(engine.config().memory_budget_bytes);
  GLY_RETURN_NOT_OK(budget.Charge(graph.MemoryBytes(), "graph partitions"));

  Stopwatch watch;
  const uint32_t threads = engine.config().num_threads != 0
                               ? engine.config().num_threads
                               : static_cast<uint32_t>(HardwareThreads());
  CancelToken* cancel = engine.config().cancel;
  ThreadPool pool(threads);
  std::vector<std::vector<VertexId>> burned(params.num_new_vertices);
  pool.ParallelFor(
      0, params.num_new_vertices, 1,
      [&](size_t i) {
        VertexId ambassador =
            ForestFireAmbassador(graph, params, static_cast<uint32_t>(i));
        burned[i] = ForestFireBurn(graph, ambassador, params,
                                   static_cast<uint32_t>(i));
        if (cancel != nullptr) cancel->Heartbeat();
      },
      cancel);
  GLY_RETURN_NOT_OK(CheckCancel(cancel));

  AlgorithmOutput out;
  const VertexId base = graph.num_vertices();
  uint64_t traversed = 0;
  for (uint32_t i = 0; i < params.num_new_vertices; ++i) {
    for (VertexId b : burned[i]) {
      out.new_edges.Add(base + i, b);
      ++traversed;
    }
  }
  out.new_edges.EnsureVertices(base + params.num_new_vertices);
  out.traversed_edges = traversed;
  if (stats_out != nullptr) {
    *stats_out = RunStats{};
    stats_out->total_seconds = watch.ElapsedSeconds();
    stats_out->peak_memory_bytes = budget.peak();
  }
  return out;
}

}  // namespace

Result<AlgorithmOutput> RunBfs(const Engine& engine, const Graph& graph,
                               const BfsParams& params, RunStats* stats_out) {
  BfsProgram program(params.source, /*with_combiner=*/true);
  GLY_ASSIGN_OR_RETURN(auto run, engine.Run(graph, &program, stats_out));
  AlgorithmOutput out;
  out.vertex_values = std::move(run.values);
  out.traversed_edges = run.stats.total_messages;
  if (stats_out != nullptr) *stats_out = run.stats;
  return out;
}

Result<AlgorithmOutput> RunBfsNoCombiner(const Engine& engine,
                                         const Graph& graph,
                                         const BfsParams& params,
                                         RunStats* stats_out) {
  BfsProgram program(params.source, /*with_combiner=*/false);
  GLY_ASSIGN_OR_RETURN(auto run, engine.Run(graph, &program, stats_out));
  AlgorithmOutput out;
  out.vertex_values = std::move(run.values);
  out.traversed_edges = run.stats.total_messages;
  if (stats_out != nullptr) *stats_out = run.stats;
  return out;
}

Result<AlgorithmOutput> RunConn(const Engine& engine, const Graph& graph,
                                RunStats* stats_out) {
  ConnProgram program;
  GLY_ASSIGN_OR_RETURN(auto run, engine.Run(graph, &program, stats_out));
  AlgorithmOutput out;
  out.vertex_values = std::move(run.values);
  out.traversed_edges = run.stats.total_messages;
  if (stats_out != nullptr) *stats_out = run.stats;
  return out;
}

Result<AlgorithmOutput> RunCd(const Engine& engine, const Graph& graph,
                              const CdParams& params, RunStats* stats_out) {
  CdProgram program(params);
  GLY_ASSIGN_OR_RETURN(auto run, engine.Run(graph, &program, stats_out));
  AlgorithmOutput out;
  out.vertex_values.reserve(run.values.size());
  for (const CdValue& v : run.values) out.vertex_values.push_back(v.label);
  out.traversed_edges = run.stats.total_messages;
  if (stats_out != nullptr) *stats_out = run.stats;
  return out;
}

Result<AlgorithmOutput> RunStatsAlgorithm(const Engine& engine, const Graph& graph,
                                 RunStats* stats_out) {
  LccProgram program;
  GLY_ASSIGN_OR_RETURN(auto run, engine.Run(graph, &program, stats_out));
  AlgorithmOutput out;
  out.stats.num_vertices = graph.num_vertices();
  out.stats.num_edges = graph.num_edges();
  double sum = 0.0;
  for (double v : run.values) sum += v;
  out.stats.mean_local_clustering =
      run.values.empty() ? 0.0 : sum / static_cast<double>(run.values.size());
  out.traversed_edges = graph.num_adjacency_entries();
  if (stats_out != nullptr) *stats_out = run.stats;
  return out;
}

Result<AlgorithmOutput> RunEvo(const Engine& engine, const Graph& graph,
                               const EvoParams& params, RunStats* stats_out) {
  return RunEvoImpl(engine, graph, params, stats_out);
}

Result<AlgorithmOutput> RunPr(const Engine& engine, const Graph& graph,
                              const PrParams& params, RunStats* stats_out) {
  if (graph.num_vertices() == 0) return AlgorithmOutput{};
  PrProgram program(params, graph.num_vertices());
  GLY_ASSIGN_OR_RETURN(auto run, engine.Run(graph, &program, stats_out));
  AlgorithmOutput out;
  out.vertex_scores = std::move(run.values);
  out.traversed_edges = run.stats.total_messages;
  if (stats_out != nullptr) *stats_out = run.stats;
  return out;
}

Result<AlgorithmOutput> RunAlgorithm(const Engine& engine, const Graph& graph,
                                     AlgorithmKind kind,
                                     const AlgorithmParams& params,
                                     RunStats* stats_out) {
  // Thread the harness cancellation token into the engine: Engine is just
  // its config, so a supervised run dispatches through a local copy whose
  // config carries the token. The caller's engine stays untouched.
  if (params.cancel != nullptr && engine.config().cancel == nullptr) {
    EngineConfig supervised = engine.config();
    supervised.cancel = params.cancel;
    Engine engine_with_token(supervised);
    return RunAlgorithm(engine_with_token, graph, kind, params, stats_out);
  }
  switch (kind) {
    case AlgorithmKind::kStats: return RunStatsAlgorithm(engine, graph, stats_out);
    case AlgorithmKind::kBfs:
      return RunBfs(engine, graph, params.bfs, stats_out);
    case AlgorithmKind::kConn: return RunConn(engine, graph, stats_out);
    case AlgorithmKind::kCd: return RunCd(engine, graph, params.cd, stats_out);
    case AlgorithmKind::kEvo:
      return RunEvo(engine, graph, params.evo, stats_out);
    case AlgorithmKind::kPr:
      return RunPr(engine, graph, params.pr, stats_out);
  }
  return Status::Internal("unhandled algorithm kind");
}

}  // namespace gly::pregel
