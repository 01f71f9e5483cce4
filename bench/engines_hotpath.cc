// Engine-level hot-path bench: BFS / PageRank / CONN / CD on the Pregel,
// dataflow, and graphdb engines with the pooled memory paths enabled
// (their defaults). Where fig4_runtimes races kernel variants against each
// other, this bench gates the *engines* end to end: a regression in the
// arena pools, the radix shuffle, the sharded page cache, or the per-edge
// CD message (a heap allocation per message on the dataflow engine) moves
// these medians even when the kernel duel's variants shift together.
//
// The committed baseline is BENCH_engines.json (scale 14); ci.sh's
// bench-smoke stage re-runs this binary and diffs it with
// scripts/bench_compare.py.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/temp_dir.h"
#include "dataflow/algorithms.h"
#include "graphdb/algorithms.h"
#include "pregel/algorithms.h"

int main(int argc, char** argv) {
  using namespace gly;
  bench::BenchOptions opts = bench::ParseArgs(argc, argv);
  if (opts.kernel_scale == 18) opts.kernel_scale = 14;  // bench default
  bench::JsonEmitter emitter("engines_hotpath");
  bench::Banner("engines_hotpath",
                "engine medians with pooled hot paths (BFS/PR/CONN/CD)",
                "choke-point analysis (§2.1): excessive messages/data "
                "movement dominate graph-processing runtimes");

  const uint32_t scale = opts.kernel_scale;
  const std::string graph_name = "g500-" + std::to_string(scale);
  Stopwatch build_watch;
  Graph g = bench::MakeGraph500(scale, /*edge_factor=*/16);
  const double graph_build_s = build_watch.ElapsedSeconds();
  std::printf("\nbuilt %s: %u vertices, %llu edges in %.2fs\n",
              graph_name.c_str(), g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), graph_build_s);
  // Shared-build attribution (same contract as fig4_runtimes): the graph
  // build / store import is recorded on the first kernel that pays it.
  double build_unattributed = graph_build_s;
  auto take_build = [&build_unattributed] {
    const double b = build_unattributed;
    build_unattributed = 0.0;
    return b;
  };

  VertexId source = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.OutNeighbors(v).size() > g.OutNeighbors(source).size()) source = v;
  }
  AlgorithmParams params;
  params.bfs.source = source;
  params.pr = PrParams{/*iterations=*/10, /*damping=*/0.85};
  params.cd = CdParams{/*max_iterations=*/10, /*hop_attenuation=*/0.05};

  auto add = [&](bench::KernelRecord rec) {
    std::printf("  %-16s median %8.4fs  p95 %8.4fs  %10.0f input kTEPS\n",
                rec.kernel.c_str(), rec.median_seconds, rec.p95_seconds,
                rec.kteps_input);
    emitter.Add(std::move(rec));
  };

  const AlgorithmKind kinds[] = {AlgorithmKind::kBfs, AlgorithmKind::kPr,
                                 AlgorithmKind::kConn, AlgorithmKind::kCd};

  // Pregel engine, pooled outboxes on (the default).
  pregel::EngineConfig engine_config;
  engine_config.num_workers = 8;
  pregel::Engine engine(engine_config);
  for (AlgorithmKind kind : kinds) {
    add(bench::MeasureKernel(
        ToLower(AlgorithmKindName(kind)) + "_pregel", graph_name, scale,
        opts.repeats, take_build(), g.num_edges(), [&] {
          auto out = pregel::RunAlgorithm(engine, g, kind, params);
          out.status().Check();
          return out->traversed_edges;
        }));
  }

  // Dataflow engine, pooled buffers on (the default).
  dataflow::ContextConfig ctx;
  ctx.num_partitions = 8;
  for (AlgorithmKind kind : kinds) {
    add(bench::MeasureKernel(
        ToLower(AlgorithmKindName(kind)) + "_dataflow", graph_name, scale,
        opts.repeats, take_build(), g.num_edges(), [&] {
          auto out = dataflow::RunAlgorithm(ctx, g, kind, params);
          out.status().Check();
          return out->traversed_edges;
        }));
  }

  // Graphdb engine: one bulk import (the build phase), then the sharded
  // page cache serves every run.
  auto scratch = TempDir::Create("gly-engines-bench");
  scratch.status().Check();
  graphdb::StoreConfig store_config;
  store_config.directory = scratch->path() + "/store";
  Stopwatch import_watch;
  auto store = graphdb::GraphStore::Open(store_config);
  store.status().Check();
  (*store)->BulkImport(g).Check();
  const double import_s = import_watch.ElapsedSeconds();
  double import_unattributed = import_s;
  for (AlgorithmKind kind : kinds) {
    const double import_build = import_unattributed;
    import_unattributed = 0.0;
    add(bench::MeasureKernel(
        ToLower(AlgorithmKindName(kind)) + "_graphdb", graph_name, scale,
        opts.repeats, import_build, g.num_edges(), [&] {
          auto out = graphdb::RunAlgorithmOnStore(
              store->get(), g.undirected(), /*memory_budget_bytes=*/0, kind,
              params);
          out.status().Check();
          return out->traversed_edges;
        }));
  }

  if (!opts.json_path.empty() && !emitter.WriteTo(opts.json_path)) return 1;
  return 0;
}
