// Extension — ETL time comparison.
//
// The paper: "The runtime measures the complete execution of an algorithm,
// from job submission to result availability, but does not include ETL.
// Comparing ETL times of different platforms is left as future work."
// This bench implements that future work on our platforms: per platform and
// graph size, the harness's untimed LoadGraph phase is measured — the
// HDFS-upload analog for MapReduce, the record-store bulk import for the
// graph database, pointer adoption for the in-memory engines.
//
// It also measures the harness's own ETL pipeline (DESIGN.md §8, "ETL
// performance"): text-edge-file parsing and CSR construction on one thread
// without a pool (the inline path `etl.threads = 1` takes) vs on an
// N-thread pool, on an R-MAT graph at --kernel-scale. Both runs must
// produce the same edge list and CSR (asserted here on every run), so the
// duel is a pure performance comparison; the four records
// (etl_parse|etl_build × serial|parallel, where "serial" is the inline
// path) are what scripts/bench_compare.py gates via BENCH_etl.json.

#include <cstdio>
#include <filesystem>

#include "bench/bench_util.h"
#include "common/config.h"
#include "common/stopwatch.h"
#include "common/threadpool.h"
#include "graph/io.h"
#include "harness/platform.h"

namespace {

// Cheap bit-identity spot check: counts must match exactly and every
// sampled adjacency row must be byte-equal. (tests/etl_parity_test.cc pins
// both paths against frozen rows; this guards the bench itself from
// measuring a divergent pipeline.)
bool SameGraph(const gly::Graph& a, const gly::Graph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges() ||
      a.num_adjacency_entries() != b.num_adjacency_entries()) {
    return false;
  }
  const gly::VertexId n = a.num_vertices();
  const gly::VertexId step = n > 4096 ? n / 4096 : 1;
  for (gly::VertexId v = 0; v < n; v += step) {
    auto oa = a.OutNeighbors(v), ob = b.OutNeighbors(v);
    auto ia = a.InNeighbors(v), ib = b.InNeighbors(v);
    if (oa.size() != ob.size() || ia.size() != ib.size() ||
        !std::equal(oa.begin(), oa.end(), ob.begin()) ||
        !std::equal(ia.begin(), ia.end(), ib.begin())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gly;
  using namespace gly::harness;
  namespace fs = std::filesystem;
  bench::BenchOptions opts = bench::ParseArgs(argc, argv);
  bench::JsonEmitter emitter("ext_etl_times");
  bench::Banner("Extension", "ETL time per platform + parallel ETL pipeline",
                "'Comparing ETL times of different platforms is left as "
                "future work' (§3.3)");

  const uint32_t threads =
      opts.threads == 0 ? static_cast<uint32_t>(HardwareThreads())
                        : opts.threads;
  const uint32_t scale = opts.kernel_scale;
  const std::string graph_name = "rmat" + std::to_string(scale);

  // ------------------------------------- inline vs pooled parse + build
  // Dataset: an R-MAT edge file on disk, like a Graphalytics ".e" dump.
  // Generation and the file write are setup, not ETL (build_seconds).
  Stopwatch setup_watch;
  datagen::RmatConfig rmat;
  rmat.scale = scale;
  rmat.edge_factor = 16;
  rmat.seed = 1;
  ThreadPool pool(threads);
  auto gen = datagen::RmatGenerator(rmat).Generate(&pool);
  gen.status().Check();
  fs::path edge_path =
      fs::temp_directory_path() / ("gly_etl_" + graph_name + ".e");
  WriteEdgeListText(*gen, edge_path.string()).Check();
  const double setup_seconds = setup_watch.ElapsedSeconds();
  std::printf("dataset: %s (%llu edges, %s on disk), %u threads\n\n",
              graph_name.c_str(),
              static_cast<unsigned long long>(gen->num_edges()),
              FormatBytes(fs::file_size(edge_path)).c_str(), threads);

  const EdgeListParseOptions parse_opts;

  EdgeList inline_edges, pooled_edges;
  bench::KernelRecord parse_inline = bench::MeasureKernel(
      "etl_parse/serial", graph_name, scale, opts.repeats, setup_seconds,
      [&] {
        auto r = ReadEdgeListText(edge_path.string(), parse_opts);
        r.status().Check();
        inline_edges = std::move(r).ValueOrDie();
        return inline_edges.num_edges();
      });
  parse_inline.threads = 1;
  bench::KernelRecord parse_pooled = bench::MeasureKernel(
      "etl_parse/parallel", graph_name, scale, opts.repeats, setup_seconds,
      [&] {
        auto r = ReadEdgeListText(edge_path.string(), parse_opts,
                                  {.pool = &pool});
        r.status().Check();
        pooled_edges = std::move(r).ValueOrDie();
        return pooled_edges.num_edges();
      });
  parse_pooled.threads = threads;
  if (inline_edges.edges() != pooled_edges.edges() ||
      inline_edges.num_vertices() != pooled_edges.num_vertices()) {
    std::fprintf(stderr, "FATAL: pooled parse diverged from inline\n");
    return 1;
  }

  Graph inline_graph, pooled_graph;
  bench::KernelRecord build_inline = bench::MeasureKernel(
      "etl_build/serial", graph_name, scale, opts.repeats, setup_seconds,
      [&] {
        auto g = GraphBuilder::Undirected(inline_edges);
        g.status().Check();
        inline_graph = std::move(g).ValueOrDie();
        return inline_graph.num_adjacency_entries();
      });
  build_inline.threads = 1;
  bench::KernelRecord build_pooled = bench::MeasureKernel(
      "etl_build/parallel", graph_name, scale, opts.repeats, setup_seconds,
      [&] {
        auto g = GraphBuilder::Undirected(inline_edges, {.pool = &pool});
        g.status().Check();
        pooled_graph = std::move(g).ValueOrDie();
        return pooled_graph.num_adjacency_entries();
      });
  build_pooled.threads = threads;
  if (!SameGraph(inline_graph, pooled_graph)) {
    std::fprintf(stderr, "FATAL: pooled CSR build diverged from inline\n");
    return 1;
  }

  std::error_code ec;
  fs::remove(edge_path, ec);

  auto ratio = [](const bench::KernelRecord& s, const bench::KernelRecord& p) {
    return p.median_seconds > 0.0 ? s.median_seconds / p.median_seconds : 0.0;
  };
  std::printf("%-20s %12s %12s %9s\n", "phase", "1t no pool",
              (std::to_string(threads) + "t pool").c_str(), "speedup");
  std::printf("%s\n", std::string(56, '-').c_str());
  std::printf("%-20s %12s %12s %8.2fx\n", "etl_parse",
              FormatSeconds(parse_inline.median_seconds).c_str(),
              FormatSeconds(parse_pooled.median_seconds).c_str(),
              ratio(parse_inline, parse_pooled));
  std::printf("%-20s %12s %12s %8.2fx\n", "etl_build",
              FormatSeconds(build_inline.median_seconds).c_str(),
              FormatSeconds(build_pooled.median_seconds).c_str(),
              ratio(build_inline, build_pooled));
  std::printf("parity: pooled parse and build bit-identical to inline\n\n");
  emitter.Add(parse_inline);
  emitter.Add(parse_pooled);
  emitter.Add(build_inline);
  emitter.Add(build_pooled);

  // ------------------------------------------ platform LoadGraph matrix
  if (!opts.kernels_only) {
    std::printf("%-12s", "platform");
    const uint64_t kSizes[] = {5000, 20000, 80000};
    for (uint64_t n : kSizes) {
      std::printf(" %14lluP", static_cast<unsigned long long>(n));
    }
    std::printf("\n%s\n", std::string(60, '-').c_str());

    // Pre-generate the graphs (generation is not ETL).
    std::vector<Graph> graphs;
    for (uint64_t n : kSizes) {
      graphs.push_back(bench::MakeSnbStandin(n, /*seed=*/77));
    }

    for (const std::string& name : RegisteredPlatforms()) {
      std::printf("%-12s", name.c_str());
      auto platform = MakePlatform(name, Config());
      platform.status().Check();
      for (size_t i = 0; i < graphs.size(); ++i) {
        Stopwatch watch;
        Status s =
            (*platform)->LoadGraph(graphs[i], "etl" + std::to_string(i));
        double seconds = watch.ElapsedSeconds();
        if (!s.ok()) {
          std::printf(" %15s", "FAILED");
        } else {
          std::printf(" %15s", FormatSeconds(seconds).c_str());
          bench::KernelRecord rec;
          rec.kernel = "etl/" + name;
          rec.graph = "snb-" + std::to_string(kSizes[i]);
          rec.median_seconds = seconds;
          rec.p95_seconds = seconds;
          rec.peak_rss_bytes = SystemMonitor::CurrentRssBytes();
          emitter.Add(rec);
        }
        (*platform)->UnloadGraph();
      }
      std::printf("\n");
    }
    std::printf("\nexpected shape: in-memory platforms adopt the graph "
                "near-instantly; MapReduce pays the dataset upload; the graph "
                "database pays record construction + page flushes, "
                "growing with graph size.\n");
  }
  if (!opts.json_path.empty() && !emitter.WriteTo(opts.json_path)) return 1;
  return 0;
}
