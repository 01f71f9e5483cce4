// The five Graphalytics algorithms as Pregel vertex programs.
//
// Semantics match ref/algorithms.h exactly (the Output Validator compares
// them verbatim); the implementations mirror how the Graphalytics Giraph
// driver writes them:
//   * BFS  — level propagation with a min combiner.
//   * CONN — HashMin label propagation with a min combiner.
//   * CD   — synchronous Leung-style label propagation; messages carry
//            (label, score) pairs, no combiner (the adoption rule needs the
//            full multiset).
//   * STATS— two supersteps: vertices exchange adjacency lists, then count
//            neighbor-pair links (the canonical Giraph LCC pattern; the
//            heavy vector messages are exactly its network choke point).
//   * EVO  — forest fires distributed across workers; each fire replays the
//            shared deterministic burn (see DESIGN.md on the batched model).

#pragma once

#include "pregel/engine.h"
#include "ref/algorithms.h"

namespace gly::pregel {

/// Runs `kind` on `graph` with this engine; returns validator-comparable
/// output. `stats_out` (optional) receives BSP run statistics.
Result<AlgorithmOutput> RunAlgorithm(const Engine& engine, const Graph& graph,
                                     AlgorithmKind kind,
                                     const AlgorithmParams& params,
                                     RunStats* stats_out = nullptr);

/// Individual entry points (used by tests and the ablation benches).
Result<AlgorithmOutput> RunBfs(const Engine& engine, const Graph& graph,
                               const BfsParams& params,
                               RunStats* stats_out = nullptr);
Result<AlgorithmOutput> RunConn(const Engine& engine, const Graph& graph,
                                RunStats* stats_out = nullptr);
Result<AlgorithmOutput> RunCd(const Engine& engine, const Graph& graph,
                              const CdParams& params,
                              RunStats* stats_out = nullptr);
Result<AlgorithmOutput> RunStatsAlgorithm(const Engine& engine, const Graph& graph,
                                 RunStats* stats_out = nullptr);
Result<AlgorithmOutput> RunEvo(const Engine& engine, const Graph& graph,
                               const EvoParams& params,
                               RunStats* stats_out = nullptr);
Result<AlgorithmOutput> RunPr(const Engine& engine, const Graph& graph,
                              const PrParams& params,
                              RunStats* stats_out = nullptr);

/// BFS without the min combiner. The `ablation_network` bench needs it to
/// quantify the "excessive network utilization" choke point.
Result<AlgorithmOutput> RunBfsNoCombiner(const Engine& engine,
                                         const Graph& graph,
                                         const BfsParams& params,
                                         RunStats* stats_out = nullptr);

}  // namespace gly::pregel
