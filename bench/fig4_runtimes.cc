// Figure 4 — "Runtimes for all implementations of all algorithms running
// on Graph500 23, Patents, and SNB 1000 graphs. Missing values indicate
// failures."
//
// The full matrix: 5 algorithms x 4 platforms x 3 graphs, run through the
// benchmark harness (load untimed, run timed, output validated). Scaled
// down from the paper's testbed (11 machines, scale-23 R-MAT) to one box;
// the reproduced *shapes* are:
//   1. MapReduce trails the in-memory platforms by 1-2 orders of magnitude
//      (paper: BFS on Graph500 = 6179 s vs Giraph 86 s / GraphX 99 s)
//      because every iteration rewrites the graph through disk — but it
//      never fails.
//   2. GraphX is slower than Giraph on CONN (paper: ~3x) and fails on
//      workloads Giraph completes (immutable re-materialization + lineage
//      exhaust its budget).
//   3. Neo4j is fastest on graphs it can hold and absent on the largest
//      (single-machine memory bound).

#include <cstdio>
#include <fstream>

#include "bench/bench_util.h"
#include "dataflow/algorithms.h"
#include "harness/core.h"
#include "harness/report.h"
#include "pregel/algorithms.h"

namespace {

// Traversal-kernel duel: each optimized kernel races the naive/classic
// variant it replaced on one Graph500 graph at `--kernel-scale`. These
// records are the bench_compare.py regression-gate baseline
// (BENCH_kernels.json); the dir-opt-vs-naive pair is also the ISSUE
// acceptance check (>= 2x at scale >= 18).
void RunKernelDuel(const gly::bench::BenchOptions& opts,
                   gly::bench::JsonEmitter* emitter) {
  using namespace gly;
  const uint32_t scale = opts.kernel_scale;
  const std::string graph_name = "g500-" + std::to_string(scale);
  std::printf("\nkernel duel on %s (%u repeats)\n", graph_name.c_str(),
              opts.repeats);

  Stopwatch build_watch;
  Graph g = bench::MakeGraph500(scale, /*edge_factor=*/16);
  const double build_s = build_watch.ElapsedSeconds();
  // The graph is built once and shared by every kernel below: the build
  // cost is attributed to the first record that uses it, and 0.0 to the
  // rest (previously the same build_seconds was duplicated into all eight
  // records, overstating total build time 8x).
  double build_unattributed = build_s;
  auto take_build = [&build_unattributed] {
    const double b = build_unattributed;
    build_unattributed = 0.0;
    return b;
  };
  std::printf("  built %s: %u vertices, %llu edges in %.2fs\n",
              graph_name.c_str(), g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), build_s);

  // R-MAT leaves some vertex ids edge-less; an isolated source would turn
  // the duel into an empty traversal. Use the max-degree vertex (Graph500
  // samples sources from connected vertices for the same reason).
  VertexId source = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.OutNeighbors(v).size() > g.OutNeighbors(source).size()) source = v;
  }
  std::printf("  bfs source: vertex %u (degree %zu)\n", source,
              g.OutNeighbors(source).size());

  BfsParams naive_params;
  naive_params.source = source;
  naive_params.strategy = BfsStrategy::kTopDown;
  BfsParams diropt_params;  // default: direction-optimizing
  diropt_params.source = source;

  auto add = [&](gly::bench::KernelRecord rec) {
    std::printf("  %-22s median %8.4fs  p95 %8.4fs  %10.0f kTEPS\n",
                rec.kernel.c_str(), rec.median_seconds, rec.p95_seconds,
                rec.kteps);
    emitter->Add(std::move(rec));
  };

  // Reference kernels: same thread count (one), so the duel isolates the
  // direction optimization itself.
  gly::bench::KernelRecord naive_rec =
      bench::MeasureKernel("bfs_ref_naive", graph_name, scale, opts.repeats,
                           take_build(), g.num_edges(), [&] {
                             return ref::Bfs(g, naive_params).traversed_edges;
                           });
  gly::bench::KernelRecord diropt_rec =
      bench::MeasureKernel("bfs_ref_diropt", graph_name, scale, opts.repeats,
                           take_build(), g.num_edges(), [&] {
                             return ref::BfsDirOpt(g, diropt_params)
                                 .traversed_edges;
                           });
  const double naive_median = naive_rec.median_seconds;
  const double diropt_median = diropt_rec.median_seconds;
  add(std::move(naive_rec));
  add(std::move(diropt_rec));

  // Pregel: classic sparse inboxes vs the dense-frontier fast path.
  pregel::EngineConfig classic;
  classic.num_workers = 8;
  classic.dense_frontier_threshold = 0.0;
  pregel::EngineConfig fast;
  fast.num_workers = 8;
  add(bench::MeasureKernel("bfs_pregel_classic", graph_name, scale,
                           opts.repeats, take_build(), g.num_edges(), [&] {
                             auto out = pregel::RunBfs(pregel::Engine(classic),
                                                       g, diropt_params);
                             out.status().Check();
                             return out->traversed_edges;
                           }));
  add(bench::MeasureKernel("bfs_pregel_dense", graph_name, scale, opts.repeats,
                           take_build(), g.num_edges(), [&] {
                             auto out = pregel::RunBfs(pregel::Engine(fast), g,
                                                       diropt_params);
                             out.status().Check();
                             return out->traversed_edges;
                           }));

  // Dataflow: the legacy Pregel-by-joins plan vs the direction-optimizing
  // frontier kernel.
  dataflow::ContextConfig ctx;
  ctx.num_partitions = 8;
  AlgorithmParams joins_params;
  joins_params.bfs = naive_params;  // top_down routes to the joins plan
  AlgorithmParams dataflow_diropt;
  dataflow_diropt.bfs = diropt_params;
  add(bench::MeasureKernel(
      "bfs_dataflow_joins", graph_name, scale, opts.repeats, take_build(),
      g.num_edges(), [&] {
        auto out =
            dataflow::RunAlgorithm(ctx, g, AlgorithmKind::kBfs, joins_params);
        out.status().Check();
        return out->traversed_edges;
      }));
  add(bench::MeasureKernel(
      "bfs_dataflow_diropt", graph_name, scale, opts.repeats, take_build(),
      g.num_edges(), [&] {
        auto out = dataflow::RunAlgorithm(ctx, g, AlgorithmKind::kBfs,
                                          dataflow_diropt);
        out.status().Check();
        return out->traversed_edges;
      }));

  // Non-BFS reference kernels keep the gate's coverage wider than the
  // tentpole: a regression in CSR iteration or the frontier module shows
  // up here even if both BFS duel entries shift together.
  add(bench::MeasureKernel("conn_ref", graph_name, scale, opts.repeats,
                           take_build(), g.num_edges(),
                           [&] { return ref::Conn(g).traversed_edges; }));
  PrParams pr_params{/*iterations=*/10, /*damping=*/0.85};
  add(bench::MeasureKernel("pr_ref", graph_name, scale, opts.repeats,
                           take_build(), g.num_edges(), [&] {
                             return ref::Pr(g, pr_params).traversed_edges;
                           }));

  if (diropt_median > 0.0) {
    std::printf("\n  dir-opt speedup over naive top-down: %.2fx "
                "(acceptance: >= 2x at scale >= 18)\n\n",
                naive_median / diropt_median);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gly;
  using namespace gly::harness;
  bench::BenchOptions opts = bench::ParseArgs(argc, argv);
  bench::JsonEmitter emitter("fig4_runtimes");
  bench::Banner("Figure 4", "Runtimes: 5 algorithms x 4 platforms x 3 graphs",
                "MapReduce ~100x slower but never fails; GraphX fails where "
                "Giraph doesn't; Neo4j fastest where it fits");
  if (opts.kernels_only) {
    RunKernelDuel(opts, &emitter);
    if (!opts.json_path.empty() && !emitter.WriteTo(opts.json_path)) return 1;
    return 0;
  }

  // Datasets (reduced scale; see EXPERIMENTS.md).
  Graph g500 = bench::MakeGraph500(/*scale=*/12, /*edge_factor=*/16);
  Graph patents = bench::MakePatentsStandin(20000);
  Graph snb = bench::MakeSnbStandin(25000);
  std::printf("datasets: g500-12 (%u v, %llu e), patents (%u v, %llu e), "
              "snb (%u v, %llu e)\n\n",
              g500.num_vertices(),
              static_cast<unsigned long long>(g500.num_edges()),
              patents.num_vertices(),
              static_cast<unsigned long long>(patents.num_edges()),
              snb.num_vertices(),
              static_cast<unsigned long long>(snb.num_edges()));

  RunSpec spec;
  spec.platforms = {"giraph", "graphx", "mapreduce", "neo4j"};
  // Budgets sized so the paper's failure pattern emerges mechanistically:
  // every in-memory platform gets the same per-worker budget; MapReduce is
  // disk-based and unbounded (it "does not need to keep graph data in
  // memory"). Neo4j's page-cache/state budget excludes the largest graph.
  // Cost models represent the platforms' real deployments: Giraph pays a
  // per-superstep barrier and ships cross-worker messages over the cluster
  // network; GraphX additionally pays for re-materializing immutable
  // datasets (JVM object churn) and shuffles through local disk; MapReduce
  // does real file I/O every iteration; Neo4j is a single embedded process.
  Config config;
  config.SetInt("giraph.memory_budget_mb", 512);
  config.SetInt("giraph.workers", 8);
  config.SetDouble("giraph.barrier_latency_s", 0.005);
  config.SetDouble("giraph.network_mib_per_s", 1024);
  config.SetInt("graphx.memory_budget_mb", 32);
  config.SetInt("graphx.workers", 8);
  config.SetDouble("graphx.shuffle_mib_per_s", 256);
  config.SetDouble("graphx.materialize_mib_per_s", 512);
  config.SetInt("mapreduce.workers", 8);
  config.SetDouble("mapreduce.job_startup_s", 0.15);
  config.SetInt("neo4j.memory_budget_mb", 5);
  spec.platform_config = config;

  AlgorithmParams params;
  params.bfs.source = 0;
  params.cd = CdParams{5, 0.05};
  params.evo.num_new_vertices = 32;
  spec.datasets.push_back({"g500-12", &g500, params});
  spec.datasets.push_back({"patents", &patents, params});
  spec.datasets.push_back({"snb", &snb, params});
  spec.algorithms = {AlgorithmKind::kBfs, AlgorithmKind::kCd,
                     AlgorithmKind::kConn, AlgorithmKind::kEvo,
                     AlgorithmKind::kStats};
  spec.validate = true;
  spec.monitor = true;

  auto results = RunBenchmark(spec, [](const BenchmarkResult& r) {
    std::printf("  %-10s %-9s %-6s %10s  %s\n", r.platform.c_str(),
                r.graph.c_str(), AlgorithmKindName(r.algorithm).c_str(),
                r.status.ok() ? FormatSeconds(r.runtime_seconds).c_str()
                              : "FAILED",
                r.status.ok()
                    ? (r.validation.ok() ? "validated" : "INVALID")
                    : std::string(StatusCodeToString(r.status.code())).c_str());
  });
  results.status().Check();

  std::printf("\n%s\n", RenderRuntimeTable(*results).c_str());

  // Shape checks against the paper.
  auto runtime_of = [&](const char* platform, const char* graph,
                        AlgorithmKind algo) -> double {
    for (const BenchmarkResult& r : *results) {
      if (r.platform == platform && r.graph == graph && r.algorithm == algo) {
        return r.status.ok() ? r.runtime_seconds : -1.0;
      }
    }
    return -1.0;
  };
  double mr_bfs = runtime_of("mapreduce", "g500-12", AlgorithmKind::kBfs);
  double gi_bfs = runtime_of("giraph", "g500-12", AlgorithmKind::kBfs);
  double gx_conn = runtime_of("graphx", "patents", AlgorithmKind::kConn);
  double gi_conn = runtime_of("giraph", "patents", AlgorithmKind::kConn);
  std::printf("shape checks vs paper:\n");
  if (mr_bfs > 0 && gi_bfs > 0) {
    std::printf("  BFS g500: mapreduce/giraph = %.0fx  (paper: 6179/86 = "
                "72x; want >> 1)\n",
                mr_bfs / gi_bfs);
  }
  if (gx_conn > 0 && gi_conn > 0) {
    std::printf("  CONN patents: graphx/giraph = %.1fx  (paper: ~3x; want "
                "> 1)\n",
                gx_conn / gi_conn);
  }
  int graphx_failures = 0;
  int mapreduce_failures = 0;
  int neo4j_failures = 0;
  for (const BenchmarkResult& r : *results) {
    if (!r.status.ok() && r.platform == "graphx") ++graphx_failures;
    if (!r.status.ok() && r.platform == "mapreduce") ++mapreduce_failures;
    if (!r.status.ok() && r.platform == "neo4j") ++neo4j_failures;
  }
  std::printf("  failures: graphx=%d (paper: several), mapreduce=%d "
              "(paper: none from memory), neo4j=%d (largest graph)\n",
              graphx_failures, mapreduce_failures, neo4j_failures);

  // Results database + CSV (the harness's Report Generator outputs).
  Status s = WriteResultsCsv(*results, "fig4_results.csv");
  s.Check();
  s = AppendResultsDatabase(*results, config, "results_database.jsonl");
  s.Check();
  std::printf("\nwrote fig4_results.csv and results_database.jsonl\n");

  bench::AddHarnessRecords(&emitter, *results);
  RunKernelDuel(opts, &emitter);
  if (!opts.json_path.empty() && !emitter.WriteTo(opts.json_path)) return 1;
  return 0;
}
