// gly_bench — end-to-end Graphalytics matrix benchmark.
//
// Runs one workload, a (platform × graph × algorithm) matrix, per process
// as a closed loop with a single client:
//
// Every pass goes through the public harness (harness::RunBenchmark with
// validation, a journal and a stop token, as graphalytics_run runs it).
// Untraced passes give the end-to-end metrics: makespan, set-up time (LDBC
// loading time), processing time and peak RSS. Traced passes run the same
// way with a tracer on the run spec and give the per-layer metrics, from
// the cells' results, this program's stopwatches and the harness's spans.
//
// Every cell is validated against the reference, and its output checksum
// must agree across all passes, traced and untraced. README.md in this
// directory describes the workloads, the metrics and how to compare builds.
//
//   gly_bench --workload traversal-rmat --seed 1 --trace 0
//   gly_bench --smoke          # every workload at tiny scale, one pass each
//
// The last line on stdout is one JSON object
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1); a fuller record goes to --out. Exit code 1 when any cell
// failed, 2 on usage errors.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/config.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "common/trace_analysis.h"
#include "datagen/rmat.h"
#include "datagen/social_datagen.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "harness/core.h"
#include "harness/report.h"

namespace {

namespace fs = std::filesystem;

using gly::AlgorithmKind;
using gly::AlgorithmParams;
using gly::Config;
using gly::EdgeList;
using gly::Graph;
using gly::Result;
using gly::Status;
using gly::Stopwatch;
using gly::StringPrintf;
using gly::ThreadPool;
using gly::VertexId;
using gly::harness::BenchmarkResult;

constexpr double kMiB = 1024.0 * 1024.0;

// How long the timed passes of one run last. It is BENCHMARK.json's
// run_seconds, which the benchmark's caller passes back as --seconds.
constexpr double kRunSeconds = 18.0;

// ----------------------------------------------------------------- workloads

enum class Source {
  kRmatFile,          ///< R-MAT graph written as a Graphalytics .e/.v pair
  kDatagenFile,       ///< Datagen social graph written as .e/.v
  kDatagenInProcess,  ///< Datagen run inside every pass (part of set-up)
};

struct InputDef {
  std::string name;  ///< dataset name in the matrix
  Source source = Source::kRmatFile;
  uint32_t scale = 0;    ///< R-MAT: 2^scale vertices, edge factor 16
  uint64_t persons = 0;  ///< Datagen: persons, facebook:mean=18 degrees
};

struct Workload {
  std::string name;
  std::vector<InputDef> inputs;
  std::vector<std::string> platforms;
  std::vector<AlgorithmKind> algorithms;
  uint32_t jobs = 1;              ///< RunSpec::jobs
  uint32_t platform_threads = 0;  ///< <platform>.threads (0 = all cores)
  bool parallel_etl = false;      ///< parse + CSR build on an all-core pool
  uint32_t evo_new_vertices = 16;
};

// Why each workload exists is in README.md and BENCHMARK.json. Sizes keep a
// pass near 2 s on 4 cores, so one run holds several passes; --smoke
// shrinks every input so that all four workloads run in a few seconds.
std::vector<Workload> Workloads(bool smoke) {
  auto size = [smoke](uint32_t full, uint32_t tiny) { return smoke ? tiny : full; };
  const std::vector<std::string> engines = {"giraph", "graphx", "neo4j", "reference"};
  return {
      {.name = "traversal-rmat",
       .inputs = {{"g500", Source::kRmatFile, size(15, 8), 0}},
       .platforms = engines,
       .algorithms = {AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kPr}},
      {.name = "analytics-snb",
       .inputs = {{"snb", Source::kDatagenInProcess, 0, size(6000, 400)}},
       .platforms = {"giraph", "graphx", "mapreduce", "neo4j", "reference"},
       .algorithms = {AlgorithmKind::kStats, AlgorithmKind::kCd, AlgorithmKind::kEvo}},
      // EVO grows the graph by enough vertices to give every platform real
      // processing work, while loading still dominates the pass.
      {.name = "ingest-snb",
       .inputs = {{"snb", Source::kDatagenFile, 0, size(400000, 2000)}},
       .platforms = engines,
       .algorithms = {AlgorithmKind::kEvo},
       .parallel_etl = true,
       .evo_new_vertices = size(16384, 64)},
      // 4 cells in flight × 1 engine thread each = 4 threads, one per
      // core. mapreduce is left out: its pool size cannot be set.
      {.name = "concurrent-mixed",
       .inputs = {{"g500", Source::kRmatFile, size(13, 8), 0},
                  {"snb", Source::kDatagenFile, 0, size(8000, 400)}},
       .platforms = engines,
       .algorithms = {AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kPr,
                      AlgorithmKind::kCd},
       .jobs = 4,
       .platform_threads = 1},
  };
}

// The module each platform adapter drives; per-layer metric names use it.
std::string LayerOf(const std::string& platform) {
  if (platform == "giraph") return "pregel";
  if (platform == "graphx") return "dataflow";
  if (platform == "neo4j") return "graphdb";
  if (platform == "reference") return "ref";
  return platform;  // mapreduce
}

// ------------------------------------------------------------------- metrics

struct MetricDef {
  std::string name;
  std::string unit;
};

// The end-to-end metrics, in BENCHMARK.json's order.
const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"makespan_s", "s"}, {"setup_s", "s"}, {"proc_s", "s"}, {"peak_rss_mb", "MiB"}};
  return defs;
}

// The per-layer metrics, in BENCHMARK.json's order. Every workload reports
// all of them, and every time among them is measured in every workload.
// MapReduce runs in one workload only, so its busy time is a share and its
// work is counted.
const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"graph.input_s", "s"},
      {"graph.input_medges_per_s", "Medges/s"},
      {"graph.csr_build_s", "s"},
      {"graph.csr_mb", "MiB"},
      {"graphdb.import_s", "s"},
      {"graphdb.run_s", "s"},
      {"graphdb.rels_expanded", "count"},
      {"graphdb.cache_hit_ratio", "ratio"},
      {"graphdb.cache_misses", "count"},
      {"graphdb.shard_contention", "count"},
      {"pregel.run_s", "s"},
      {"pregel.supersteps", "count"},
      {"pregel.messages", "count"},
      {"pregel.cross_worker_mb", "MiB"},
      {"pregel.outbox_peak_mb", "MiB"},
      {"pregel.dense_supersteps", "count"},
      {"dataflow.run_s", "s"},
      {"dataflow.datasets", "count"},
      {"dataflow.materialized_mb", "MiB"},
      {"dataflow.shuffle_mb", "MiB"},
      {"dataflow.pooled_peak_mb", "MiB"},
      {"mapreduce.run_share", "ratio"},
      {"mapreduce.jobs", "count"},
      {"mapreduce.spill_mb", "MiB"},
      {"mapreduce.shuffle_mb", "MiB"},
      {"ref.run_s", "s"},
      {"harness.validate_s", "s"},
      {"harness.validate_share", "ratio"},
      {"harness.report_s", "s"},
      {"harness.sched.max_in_flight", "count"},
      {"harness.sched.cache_hits", "count"},
      {"harness.sched.queued", "count"},
      {"harness.sched.utilization", "ratio"},
      {"trace.residual_s", "s"},
      {"trace.overhead_frac", "ratio"},
      {"host.calib_s", "s"},
  };
  return defs;
}

struct Stat {
  double value = 0.0;  ///< median
  double min = 0.0;
  double max = 0.0;
  size_t n = 0;
};

Stat Summarize(std::vector<double> samples) {
  Stat s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  s.value = samples.size() % 2 == 1 ? samples[mid]
                                    : (samples[mid - 1] + samples[mid]) / 2.0;
  s.min = samples.front();
  s.max = samples.back();
  return s;
}

double Median(std::vector<double> samples) { return Summarize(std::move(samples)).value; }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Shortest text that reads back as the same double.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string JsonString(std::string_view s) { return "\"" + gly::JsonEscape(s) + "\""; }

double MetricNumber(const std::map<std::string, std::string>& metrics,
                    const std::string& key) {
  auto it = metrics.find(key);
  return it == metrics.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

// Inverse of gly::FormatBytes ("12.3 MiB"), which some adapters report.
double MetricBytes(const std::map<std::string, std::string>& metrics,
                   const std::string& key) {
  auto it = metrics.find(key);
  if (it == metrics.end()) return 0.0;
  char* unit = nullptr;
  const double value = std::strtod(it->second.c_str(), &unit);
  double scale = 1.0;
  for (const char* prefix : {"KiB", "MiB", "GiB", "TiB"}) {
    scale *= 1024.0;
    if (std::strstr(unit, prefix) != nullptr) return value * scale;
  }
  return value;  // "B"
}

// A fixed CPU + memory loop (a dependent pseudo-random walk over a 16 MiB
// table), timed at the start and end of every process. compare.py uses it
// to tell a slower host from a slower build.
double HostCalibrationSeconds() {
  constexpr size_t kWords = size_t{1} << 21;
  std::vector<uint64_t> table(kWords);
  for (size_t i = 0; i < kWords; ++i) table[i] = i * 0x9E3779B97F4A7C15ull;
  Stopwatch watch;
  uint64_t x = 1;
  for (uint32_t i = 0; i < (1u << 20); ++i) {
    x = x * 6364136223846793005ull + table[(x >> 33) & (kWords - 1)];
    table[(x >> 41) & (kWords - 1)] ^= x;
  }
  const double seconds = watch.ElapsedSeconds();
  volatile uint64_t sink = x;
  (void)sink;
  return seconds;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -------------------------------------------------------------------- inputs

struct InputMeta {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t bfs_source = 0;
  uint64_t file_bytes = 0;  ///< .e + .v; 0 for in-process Datagen
};

struct Input {
  InputDef def;
  uint64_t seed = 0;   ///< generator seed, derived from --seed
  std::string prefix;  ///< path without extension of the .e, .v and .meta files
  InputMeta meta;
};

Result<EdgeList> GenerateEdges(const InputDef& def, uint64_t seed, ThreadPool* pool) {
  if (def.source == Source::kRmatFile) {
    gly::datagen::RmatConfig rmat;
    rmat.scale = def.scale;
    rmat.edge_factor = 16;
    rmat.seed = seed;
    return gly::datagen::RmatGenerator(rmat).Generate(pool);
  }
  gly::datagen::SocialDatagenConfig dg;
  dg.num_persons = def.persons;
  dg.degree_spec = "facebook:mean=18";
  dg.seed = seed;
  GLY_ASSIGN_OR_RETURN(gly::datagen::SocialGraph social,
                       gly::datagen::SocialDatagen(dg).Generate(pool));
  return std::move(social.edges);
}

// BFS starts here: on R-MAT, low ids are often isolated, and a BFS from an
// isolated vertex traverses nothing.
VertexId HighestDegreeVertex(const Graph& graph) {
  VertexId best = 0;
  for (VertexId v = 1; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) > graph.Degree(best)) best = v;
  }
  return best;
}

Status WriteMeta(const InputMeta& meta, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "vertices " << meta.vertices << "\nedges " << meta.edges << "\nbfs_source "
      << meta.bfs_source << "\nfile_bytes " << meta.file_bytes << "\n";
  out.close();
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

bool ReadMeta(const std::string& path, InputMeta* meta) {
  std::ifstream in(path);
  std::map<std::string, uint64_t> fields;
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) fields[key] = value;
  if (fields.size() != 4) return false;
  meta->vertices = fields["vertices"];
  meta->edges = fields["edges"];
  meta->bfs_source = fields["bfs_source"];
  meta->file_bytes = fields["file_bytes"];
  return true;
}

// Flushes a generated file to disk, so that its write-back does not land in
// a timed pass (the graph database's import ends with an fsync).
Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  return rc == 0 ? Status::OK() : Status::IOError("cannot fsync " + path);
}

// The file name carries the generator parameters, so inputs cached by a
// build with other sizes are never reused.
std::string InputFileStem(const InputDef& def) {
  return def.name + (def.source == Source::kRmatFile
                         ? "-rmat" + std::to_string(def.scale)
                         : "-persons" + std::to_string(def.persons));
}

// Makes the workload's inputs from `seed`, untimed, and caches them under
// <workdir>/inputs/<workload>/seed-<seed>. Only one seed is kept per
// workload, so repeated runs with fresh seeds do not fill the disk. A
// cache older than `binary`, the running program, may come from other
// generator code and is made anew; so is one when `binary` cannot be read.
Result<std::vector<Input>> PrepareInputs(const Workload& w, uint64_t seed,
                                         const fs::path& workdir, bool smoke,
                                         const fs::path& binary) {
  const fs::path root = workdir / "inputs" / (w.name + (smoke ? "-smoke" : ""));
  const fs::path dir = root / ("seed-" + std::to_string(seed));
  std::error_code ec;
  const fs::file_time_type built = fs::last_write_time(binary, ec);
  std::vector<Input> inputs;
  bool cached = !ec;
  for (size_t i = 0; i < w.inputs.size(); ++i) {
    Input in;
    in.def = w.inputs[i];
    in.seed = gly::DeriveSeed(seed, i);
    in.prefix = (dir / InputFileStem(in.def)).string();
    const std::string meta = in.prefix + ".meta";
    cached = cached && ReadMeta(meta, &in.meta) && fs::last_write_time(meta, ec) > built &&
             !ec;
    inputs.push_back(std::move(in));
  }
  if (cached) return inputs;

  fs::remove_all(root, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir.string());
  ThreadPool pool(gly::HardwareThreads());
  gly::CsrBuildOptions build;
  build.pool = &pool;
  for (Input& in : inputs) {
    GLY_ASSIGN_OR_RETURN(EdgeList raw, GenerateEdges(in.def, in.seed, &pool));
    GLY_ASSIGN_OR_RETURN(Graph graph, gly::GraphBuilder::Undirected(raw, build));
    if (in.def.source != Source::kDatagenInProcess) {
      // The file holds the built graph's edges, once each, as LDBC datasets
      // do; the .v file keeps isolated vertices.
      EdgeList clean = graph.ToEdgeList();
      GLY_RETURN_NOT_OK(gly::WriteEdgeListText(clean, in.prefix + ".e"));
      GLY_RETURN_NOT_OK(gly::WriteVertexFile(clean, in.prefix + ".v"));
      GLY_RETURN_NOT_OK(SyncFile(in.prefix + ".e"));
      GLY_RETURN_NOT_OK(SyncFile(in.prefix + ".v"));
      in.meta.file_bytes = fs::file_size(in.prefix + ".e") + fs::file_size(in.prefix + ".v");
    }
    in.meta.vertices = graph.num_vertices();
    in.meta.edges = graph.num_edges();
    in.meta.bfs_source = HighestDegreeVertex(graph);
    // Written last: an interrupted generation leaves no .meta and is redone.
    GLY_RETURN_NOT_OK(WriteMeta(in.meta, in.prefix + ".meta"));
  }
  return inputs;
}

// --------------------------------------------------------------------- passes

struct Pass {
  bool traced = false;
  double makespan_s = 0.0;
  double setup_s = 0.0;
  double input_s = 0.0;  ///< Datagen or parse
  double csr_build_s = 0.0;
  double report_s = 0.0;
  double input_edges = 0.0;
  double csr_bytes = 0.0;
  std::vector<BenchmarkResult> cells;
  gly::harness::SchedulerStats sched;
  std::vector<gly::trace::TraceEvent> events;  ///< traced passes
};

struct Bench {
  Workload workload;
  std::vector<Input> inputs;
  Config platform_config;
  fs::path run_dir;                ///< journal, report and CSV of the latest pass
  std::optional<ThreadPool> pool;  ///< ETL / Datagen pool, when used
  gly::CancelToken never_stop;     ///< RunSpec::stop, never armed

  AlgorithmParams Params(const Input& in) const {
    AlgorithmParams params;
    params.bfs.source = static_cast<VertexId>(in.meta.bfs_source);
    params.pr.iterations = 10;
    params.cd.max_iterations = 10;
    params.evo.num_new_vertices = workload.evo_new_vertices;
    return params;
  }

  Result<EdgeList> ReadInput(const Input& in) {
    if (in.def.source == Source::kDatagenInProcess) {
      return GenerateEdges(in.def, in.seed, &*pool);
    }
    gly::EtlOptions etl;
    if (workload.parallel_etl) etl.pool = &*pool;
    return gly::ReadGraphalyticsDataset(in.prefix, {}, etl);
  }

  Result<Graph> BuildCsr(const Input& in, const EdgeList& edges) {
    gly::CsrBuildOptions build;
    if (workload.parallel_etl) build.pool = &*pool;
    GLY_ASSIGN_OR_RETURN(Graph graph, gly::GraphBuilder::Undirected(edges, build));
    if (graph.num_vertices() != in.meta.vertices || graph.num_edges() != in.meta.edges) {
      return Status::Internal(StringPrintf(
          "%s loaded as |V|=%llu |E|=%llu, generated as |V|=%llu |E|=%llu",
          in.def.name.c_str(), (unsigned long long)graph.num_vertices(),
          (unsigned long long)graph.num_edges(), (unsigned long long)in.meta.vertices,
          (unsigned long long)in.meta.edges));
    }
    return graph;
  }

  Status WriteReport(const std::vector<BenchmarkResult>& cells) const {
    const fs::path path = run_dir / "report.txt";
    std::ofstream report(path, std::ios::trunc);
    report << gly::harness::RenderFullReport(platform_config, cells);
    report.close();
    if (!report) return Status::IOError("cannot write " + path.string());
    return gly::harness::WriteResultsCsv(cells, (run_dir / "results.csv").string());
  }
};

// One pass through the public harness, timed from the first input read
// until the report is written; the harness flushes the journal per cell.
// A traced pass hands the harness a tracer, which records the harness's
// and the engines' spans.
Result<Pass> RunPass(Bench& b, bool traced) {
  Pass pass;
  pass.traced = traced;
  Stopwatch makespan;
  std::vector<Graph> graphs;
  for (const Input& in : b.inputs) {
    Stopwatch input;
    GLY_ASSIGN_OR_RETURN(EdgeList edges, b.ReadInput(in));
    pass.input_s += input.ElapsedSeconds();
    pass.input_edges += static_cast<double>(edges.num_edges());
    Stopwatch csr_build;
    GLY_ASSIGN_OR_RETURN(Graph graph, b.BuildCsr(in, edges));
    pass.csr_build_s += csr_build.ElapsedSeconds();
    pass.csr_bytes += static_cast<double>(graph.MemoryBytes());
    graphs.push_back(std::move(graph));
  }
  pass.setup_s = pass.input_s + pass.csr_build_s;

  gly::harness::RunSpec spec;
  spec.platforms = b.workload.platforms;
  spec.platform_config = b.platform_config;
  for (size_t i = 0; i < b.inputs.size(); ++i) {
    gly::harness::DatasetSpec dataset;
    dataset.name = b.inputs[i].def.name;
    dataset.graph = &graphs[i];
    dataset.params = b.Params(b.inputs[i]);
    spec.datasets.push_back(dataset);
  }
  spec.algorithms = b.workload.algorithms;
  spec.validate = true;
  spec.monitor = false;
  // graphalytics_run passes a stop token too, so cells take the same
  // supervised-attempt path that users get.
  spec.stop = &b.never_stop;
  spec.journal_path = (b.run_dir / "journal.jsonl").string();
  spec.jobs = b.workload.jobs;
  spec.scheduler_stats = &pass.sched;
  std::optional<gly::trace::Tracer> tracer;
  if (traced) spec.tracer = &tracer.emplace();
  GLY_ASSIGN_OR_RETURN(pass.cells, gly::harness::RunBenchmark(spec));

  // LDBC loading time also counts each platform's load of each graph once.
  std::map<std::pair<std::string, std::string>, double> loads;
  for (const BenchmarkResult& cell : pass.cells) {
    loads[{cell.platform, cell.graph}] = cell.load_seconds;
  }
  for (const auto& [group, seconds] : loads) pass.setup_s += seconds;

  Stopwatch report;
  GLY_RETURN_NOT_OK(b.WriteReport(pass.cells));
  pass.report_s = report.ElapsedSeconds();
  pass.makespan_s = makespan.ElapsedSeconds();
  if (traced) pass.events = tracer->Snapshot();
  return pass;
}

// Wall time covered by the trace's spans: the union, over all threads, of
// the top-level spans' intervals.
double SpanUnionSeconds(const std::vector<gly::trace::TraceEvent>& events) {
  std::map<uint32_t, std::pair<size_t, uint64_t>> open;  // tid -> depth, start
  std::vector<std::pair<uint64_t, uint64_t>> spans;
  for (const gly::trace::TraceEvent& e : events) {
    auto& [depth, start] = open[e.tid];
    if (e.phase == 'B') {
      if (depth++ == 0) start = e.ts_micros;
    } else if (e.phase == 'E' && depth > 0) {
      if (--depth == 0) spans.emplace_back(start, e.ts_micros);
    }
  }
  std::sort(spans.begin(), spans.end());
  uint64_t covered = 0, covered_until = 0;
  for (auto [begin, end] : spans) {
    begin = std::max(begin, covered_until);
    if (end > begin) {
      covered += end - begin;
      covered_until = end;
    }
  }
  return static_cast<double>(covered) * 1e-6;
}

// Per-layer metrics of one traced pass: engine busy time and work from the
// cells' results, this program's phases from its stopwatches, validation
// time from the harness's spans. The run-level ones (tracing overhead,
// host calibration) come from PerLayer.
std::map<std::string, double> LayerMetrics(const Pass& pass) {
  std::map<std::string, double> m;
  for (const MetricDef& def : PerLayerMetrics()) m[def.name] = 0.0;
  m.at("graph.input_s") = pass.input_s;
  m.at("graph.input_medges_per_s") = Ratio(pass.input_edges / 1e6, pass.input_s);
  m.at("graph.csr_build_s") = pass.csr_build_s;
  m.at("graph.csr_mb") = pass.csr_bytes / kMiB;
  m.at("harness.report_s") = pass.report_s;
  for (const gly::trace::PhaseTotal& phase : gly::trace::AggregateSpans(pass.events)) {
    if (phase.name == "harness.validate") m.at("harness.validate_s") = phase.seconds;
  }

  double busy_s = 0.0, mapreduce_s = 0.0, cache_hits = 0.0;
  std::map<std::string, double> imports;  // graph -> graph database load
  for (const BenchmarkResult& cell : pass.cells) {
    busy_s += cell.runtime_seconds;
    if (cell.platform == "mapreduce") {
      mapreduce_s += cell.runtime_seconds;
    } else {
      m.at(LayerOf(cell.platform) + ".run_s") += cell.runtime_seconds;
    }
    const auto& pm = cell.platform_metrics;
    if (cell.platform == "giraph") {
      m.at("pregel.supersteps") += MetricNumber(pm, "supersteps");
      m.at("pregel.messages") += MetricNumber(pm, "messages");
      m.at("pregel.cross_worker_mb") += MetricNumber(pm, "cross_worker_bytes") / kMiB;
      m.at("pregel.outbox_peak_mb") = std::max(
          m.at("pregel.outbox_peak_mb"), MetricNumber(pm, "outbox_bytes_peak") / kMiB);
      m.at("pregel.dense_supersteps") += MetricNumber(pm, "dense_supersteps");
    } else if (cell.platform == "graphx") {
      m.at("dataflow.datasets") += MetricNumber(pm, "datasets");
      m.at("dataflow.materialized_mb") += MetricBytes(pm, "materialized") / kMiB;
      m.at("dataflow.shuffle_mb") += MetricNumber(pm, "shuffle_bytes") / kMiB;
      m.at("dataflow.pooled_peak_mb") = std::max(
          m.at("dataflow.pooled_peak_mb"), MetricNumber(pm, "pooled_bytes_peak") / kMiB);
    } else if (cell.platform == "mapreduce") {
      m.at("mapreduce.jobs") += MetricNumber(pm, "jobs");
      m.at("mapreduce.spill_mb") += MetricNumber(pm, "spill_bytes") / kMiB;
      m.at("mapreduce.shuffle_mb") += MetricNumber(pm, "shuffle_bytes") / kMiB;
    } else if (cell.platform == "neo4j") {
      m.at("graphdb.rels_expanded") += MetricNumber(pm, "rels_expanded");
      m.at("graphdb.cache_misses") += MetricNumber(pm, "cache_misses");
      m.at("graphdb.shard_contention") += MetricNumber(pm, "cache_shard_contention");
      cache_hits += MetricNumber(pm, "cache_hits");
      imports[cell.graph] = cell.load_seconds;
    }
  }
  for (const auto& [graph, seconds] : imports) m.at("graphdb.import_s") += seconds;
  m.at("graphdb.cache_hit_ratio") =
      Ratio(cache_hits, cache_hits + m.at("graphdb.cache_misses"));
  m.at("mapreduce.run_share") = Ratio(mapreduce_s, pass.makespan_s);
  m.at("harness.validate_share") = Ratio(m.at("harness.validate_s"), pass.makespan_s);
  m.at("harness.sched.max_in_flight") = pass.sched.max_in_flight;
  m.at("harness.sched.cache_hits") = static_cast<double>(pass.sched.graph_cache_hits);
  m.at("harness.sched.queued") = static_cast<double>(pass.sched.queued);
  // How full the scheduler kept its `jobs` slots with running cells.
  m.at("harness.sched.utilization") =
      Ratio(busy_s, pass.sched.jobs * pass.sched.wall_seconds);
  m.at("trace.residual_s") = pass.makespan_s - pass.input_s - pass.csr_build_s -
                             pass.report_s - SpanUnionSeconds(pass.events);
  return m;
}

std::string CellKey(const BenchmarkResult& cell) {
  return cell.platform + "/" + cell.graph + "/" + gly::AlgorithmKindName(cell.algorithm);
}

// Each cell's median runtime over `passes`, by CellKey.
std::map<std::string, double> MedianCellRuntimes(const std::vector<const Pass*>& passes) {
  std::map<std::string, std::vector<double>> samples;
  for (const Pass* pass : passes) {
    for (const BenchmarkResult& cell : pass->cells) {
      samples[CellKey(cell)].push_back(cell.runtime_seconds);
    }
  }
  std::map<std::string, double> medians;
  for (auto& [key, values] : samples) medians[key] = Median(std::move(values));
  return medians;
}

// ---------------------------------------------------------------------- audit

struct Audit {
  uint64_t attempted = 0;
  std::vector<std::string> failures;  ///< one line per failed cell run or check

  void Fail(std::string what) { failures.push_back(std::move(what)); }
};

// The engines can model network, shuffle, barrier and job-startup costs
// with sleeps, which are off unless their keys are set. The benchmark sets
// none of them, so that it times compute.
void CheckModeledCostKeys(const Config& config, Audit* audit) {
  for (const std::string& key : config.KeysWithPrefix("")) {
    if (key.ends_with("_mib_per_s") || key.ends_with(".barrier_latency_s") ||
        key.ends_with(".job_startup_s")) {
      audit->Fail("modeled-cost key " + key + " is set");
    }
  }
}

// A cell run fails when its status or validation is not OK, when it is a
// BFS that traversed no edge, or when its output checksum differs from the
// first pass's (the untraced warm-up) for the same cell.
void AuditPasses(const Bench& b, const std::vector<Pass>& passes, Audit* audit) {
  const size_t cells_per_pass =
      b.workload.platforms.size() * b.inputs.size() * b.workload.algorithms.size();
  std::map<std::string, uint32_t> reference;
  for (size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    const std::string where =
        StringPrintf("pass %zu (%s)", p, pass.traced ? "traced" : "untraced");
    if (pass.cells.size() != cells_per_pass) {
      audit->Fail(StringPrintf("%s: %zu cells, expected %zu", where.c_str(),
                               pass.cells.size(), cells_per_pass));
    }
    for (const BenchmarkResult& cell : pass.cells) {
      ++audit->attempted;
      const std::string key = CellKey(cell);
      std::string why;
      if (!cell.status.ok()) {
        why = "status " + cell.status.ToString();
      } else if (!cell.validation.ok()) {
        why = "validation " + cell.validation.ToString();
      } else if (cell.algorithm == AlgorithmKind::kBfs && cell.traversed_edges == 0) {
        why = "BFS traversed 0 edges";
      } else {
        auto [it, first] = reference.emplace(key, cell.output_checksum);
        if (!first && it->second != cell.output_checksum) {
          why = StringPrintf("output_checksum %08x differs from %08x",
                             cell.output_checksum, it->second);
        }
      }
      if (!why.empty()) audit->Fail(where + " " + key + ": " + why);
    }
  }
}

// Writes the traced pass as Chrome trace JSON and checks that it reads back
// the way tools/trace_analyze reads it.
Status WriteAndCheckTrace(const Pass& pass, const std::string& path,
                          gly::trace::TraceAnalysis* analysis) {
  const std::string json = gly::trace::ChromeTraceJson(pass.events);
  std::ofstream out(path, std::ios::trunc);
  out << json;
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  GLY_RETURN_NOT_OK(gly::trace::ValidateChromeTraceJson(json).status());
  GLY_ASSIGN_OR_RETURN(std::vector<gly::trace::TraceEvent> events,
                       gly::trace::ParseChromeTraceJson(json));
  *analysis = gly::trace::AnalyzeTrace(events);
  if (analysis->completed_spans == 0 ||
      analysis->critical_path_seconds > analysis->wall_seconds + 1e-9) {
    return Status::Internal("trace analysis of " + path + " is inconsistent");
  }
  return Status::OK();
}

// -------------------------------------------------------------------- results

struct Options {
  std::string workload = "all";
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  bool gen_only = false;
  fs::path workdir = ".bench_work";
  fs::path out;     ///< default <workdir>/results
  fs::path binary;  ///< this program, argv[0]
};

// Everything one run measured. passes[0] and passes[1] are the warm-up.
struct Run {
  std::vector<Pass> passes;
  std::vector<const Pass*> untraced;  ///< timed passes, warm-up excluded
  std::vector<const Pass*> traced;
  Audit audit;
  double peak_rss_mb = 0.0;  ///< after the first (untraced) pass
  double calib_start_s = 0.0;
  double calib_end_s = 0.0;
};

// End-to-end metrics: medians over the untraced passes. proc_s, the LDBC
// processing time, is Σ over cells of each cell's median runtime; its min
// and max are those of the per-pass sums. proc_<platform>_s splits it per
// platform for the record.
std::map<std::string, Stat> EndToEnd(const Workload& w, const Run& run) {
  std::map<std::string, Stat> e2e;
  std::vector<double> makespans, setups;
  for (const Pass* p : run.untraced) {
    makespans.push_back(p->makespan_s);
    setups.push_back(p->setup_s);
  }
  e2e["makespan_s"] = Summarize(makespans);
  e2e["setup_s"] = Summarize(setups);
  const std::map<std::string, double> cells = MedianCellRuntimes(run.untraced);
  auto processing = [&](const std::string& key_prefix) {
    std::vector<double> sums;
    for (const Pass* p : run.untraced) {
      double sum = 0.0;
      for (const BenchmarkResult& cell : p->cells) {
        if (CellKey(cell).starts_with(key_prefix)) sum += cell.runtime_seconds;
      }
      sums.push_back(sum);
    }
    Stat s = Summarize(sums);
    s.value = 0.0;
    for (const auto& [key, seconds] : cells) {
      if (key.starts_with(key_prefix)) s.value += seconds;
    }
    return s;
  };
  e2e["proc_s"] = processing("");
  for (const std::string& platform : w.platforms) {
    e2e["proc_" + platform + "_s"] = processing(platform + "/");
  }
  e2e["peak_rss_mb"] = {run.peak_rss_mb, run.peak_rss_mb, run.peak_rss_mb, 1};
  return e2e;
}

// Per-layer metrics: medians over the traced passes, plus the run-level
// ones, which pair the untraced passes with the traced ones.
std::map<std::string, Stat> PerLayer(const Run& run) {
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> untraced_makespans, traced_makespans;
  for (const Pass* p : run.traced) {
    for (const auto& [name, value] : LayerMetrics(*p)) samples[name].push_back(value);
    traced_makespans.push_back(p->makespan_s);
  }
  for (const Pass* p : run.untraced) untraced_makespans.push_back(p->makespan_s);
  samples["trace.overhead_frac"] = {
      Ratio(Median(traced_makespans), Median(untraced_makespans)) - 1.0};
  samples["host.calib_s"] = {run.calib_start_s, run.calib_end_s};
  std::map<std::string, Stat> layers;
  for (const MetricDef& def : PerLayerMetrics()) {
    layers[def.name] = Summarize(samples[def.name]);
  }
  return layers;
}

void PrintMetric(const std::string& name, const std::string& unit, const Stat& s) {
  std::printf("  %-30s %14.6f %-6s min %.6f  max %.6f  n=%zu\n", name.c_str(), s.value,
              unit.c_str(), s.min, s.max, s.n);
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const std::map<std::string, Stat>& stats, bool with_spread) {
  std::string json;
  for (const MetricDef& def : defs) {
    const Stat& s = stats.at(def.name);
    json += (json.empty() ? "" : ", ") + JsonString(def.name) +
            ": {\"value\": " + JsonNumber(s.value) + ", \"unit\": " + JsonString(def.unit);
    if (with_spread) {
      json += ", \"min\": " + JsonNumber(s.min) + ", \"max\": " + JsonNumber(s.max) +
              ", \"n\": " + std::to_string(s.n);
    }
    json += "}";
  }
  return json;
}

// The record compare.py reads: every metric with min, max and n, the
// inputs, each cell's median runtime, EVPS and checksum, and the failures.
std::string RecordJson(const Bench& b, const Options& opt, const Run& run,
                       const std::vector<MetricDef>& defs,
                       const std::map<std::string, Stat>& stats,
                       const std::string& trace_path) {
  std::string json = StringPrintf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"smoke\": %s, "
      "\"host_calib_s\": [%s, %s], \"passes\": {\"untraced\": %zu, \"traced\": %zu}, "
      "\"inputs\": [",
      JsonString(b.workload.name).c_str(), (unsigned long long)opt.seed, opt.trace ? 1 : 0,
      opt.smoke ? "true" : "false", JsonNumber(run.calib_start_s).c_str(),
      JsonNumber(run.calib_end_s).c_str(), run.untraced.size(), run.traced.size());
  std::map<std::string, double> graph_sizes;
  for (size_t i = 0; i < b.inputs.size(); ++i) {
    const Input& in = b.inputs[i];
    graph_sizes[in.def.name] = static_cast<double>(in.meta.vertices + in.meta.edges);
    json += StringPrintf(
        "%s{\"name\": %s, \"vertices\": %llu, \"edges\": %llu, \"bfs_source\": %llu, "
        "\"file_bytes\": %llu}",
        i == 0 ? "" : ", ", JsonString(in.def.name).c_str(),
        (unsigned long long)in.meta.vertices, (unsigned long long)in.meta.edges,
        (unsigned long long)in.meta.bfs_source, (unsigned long long)in.meta.file_bytes);
  }
  json += "], \"metrics\": {" + MetricsJson(defs, stats, true) + "}, \"cells\": [";
  const std::map<std::string, double> medians = MedianCellRuntimes(run.untraced);
  const std::vector<BenchmarkResult> none;
  const auto& cells = run.passes.empty() ? none : run.passes.front().cells;
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string key = CellKey(cells[i]);
    const auto it = medians.find(key);
    const double runtime = it != medians.end() ? it->second : 0.0;
    // EVPS (LDBC Graphalytics v1.0.1): (|V| + |E|) / processing time.
    json += StringPrintf(
        "%s{\"cell\": %s, \"runtime_s\": %s, \"evps\": %s, \"output_checksum\": %u, "
        "\"traversed_edges\": %llu}",
        i == 0 ? "" : ", ", JsonString(key).c_str(), JsonNumber(runtime).c_str(),
        JsonNumber(Ratio(graph_sizes[cells[i].graph], runtime)).c_str(),
        cells[i].output_checksum, (unsigned long long)cells[i].traversed_edges);
  }
  json += StringPrintf(
      "], \"trace_file\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %zu, "
      "\"failures\": [",
      JsonString(trace_path).c_str(), run.audit.failures.empty() ? "true" : "false",
      (unsigned long long)run.audit.attempted, run.audit.failures.size());
  for (size_t i = 0; i < run.audit.failures.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(run.audit.failures[i]);
  }
  return json + "]}\n";
}

// Two untimed warm-up passes, then passes until kRunSeconds have passed:
// untraced only (end-to-end), or untraced and traced alternating (per-layer).
Run RunPasses(Bench& b, const Options& opt) {
  constexpr size_t kWarmupPasses = 2;
  Run run;
  run.calib_start_s = HostCalibrationSeconds();
  CheckModeledCostKeys(b.platform_config, &run.audit);
  auto run_pass = [&](bool traced) {
    Result<Pass> pass = RunPass(b, traced);
    if (!pass.ok()) {
      ++run.audit.attempted;
      run.audit.Fail(StringPrintf("pass %zu: %s", run.passes.size(),
                                  pass.status().ToString().c_str()));
      return false;
    }
    run.passes.push_back(std::move(pass).ValueOrDie());
    return true;
  };

  // Warm-up, untimed. The untraced pass runs in the fresh process, so the
  // high-water mark after it is one matrix pass's peak memory: the
  // allocator keeps freed memory across passes, and later passes would
  // make the peak depend on how many passes fit into the window. It also
  // sets the reference checksum of every cell, which the traced pass is
  // checked against.
  bool ok = run_pass(false);
  run.peak_rss_mb = PeakRssMiB();
  ok = ok && run_pass(true);
  const bool layered = opt.trace || opt.smoke;
  const size_t min_passes = opt.smoke ? 1 : (layered ? 2 : 3);
  const double window_s = opt.smoke ? 0.0 : kRunSeconds;
  size_t untraced = 0, traced = 0;
  Stopwatch window;
  while (ok && (window.ElapsedSeconds() < window_s || untraced < min_passes ||
                (layered && traced < min_passes))) {
    ok = run_pass(false);
    ++untraced;
    if (ok && layered) {
      ok = run_pass(true);
      ++traced;
    }
  }
  run.calib_end_s = HostCalibrationSeconds();
  AuditPasses(b, run.passes, &run.audit);
  for (size_t i = kWarmupPasses; i < run.passes.size(); ++i) {
    (run.passes[i].traced ? run.traced : run.untraced).push_back(&run.passes[i]);
  }
  return run;
}

int RunWorkload(const Workload& workload, const Options& opt) {
  Bench b;
  b.workload = workload;
  auto inputs = PrepareInputs(workload, opt.seed, opt.workdir, opt.smoke, opt.binary);
  if (!inputs.ok()) {
    std::fprintf(stderr, "%s: inputs: %s\n", workload.name.c_str(),
                 inputs.status().ToString().c_str());
    return 1;
  }
  if (opt.gen_only) return 0;
  b.inputs = std::move(inputs).ValueOrDie();
  const bool datagen_in_pass =
      std::any_of(b.inputs.begin(), b.inputs.end(), [](const Input& in) {
        return in.def.source == Source::kDatagenInProcess;
      });
  if (workload.parallel_etl || datagen_in_pass) b.pool.emplace(gly::HardwareThreads());
  b.run_dir = opt.workdir / "run" / workload.name;
  std::error_code ec;
  fs::create_directories(b.run_dir, ec);
  fs::create_directories(opt.out, ec);
  for (const std::string& platform : workload.platforms) {
    if (workload.platform_threads > 0) {
      b.platform_config.SetInt(platform + ".threads", workload.platform_threads);
    }
  }

  Run run = RunPasses(b, opt);

  // The last traced pass, as a Chrome trace that tools/trace_analyze reads.
  // Smoke runs name their files apart, so that they never replace the
  // record of a full run.
  const std::string stem =
      workload.name + (opt.smoke ? "-smoke" : "") + "-seed" + std::to_string(opt.seed);
  const std::string trace_path = (opt.out / (stem + "-trace.json")).string();
  gly::trace::TraceAnalysis analysis;
  const Pass* last_traced = nullptr;
  for (const Pass& p : run.passes) {
    if (p.traced) last_traced = &p;
  }
  if (last_traced != nullptr) {
    Status checked = WriteAndCheckTrace(*last_traced, trace_path, &analysis);
    if (!checked.ok()) run.audit.Fail("trace: " + checked.ToString());
  }

  const bool layered = opt.trace || opt.smoke;
  std::map<std::string, Stat> stats = EndToEnd(workload, run);
  std::vector<MetricDef> recorded = EndToEndMetrics();
  for (const std::string& platform : workload.platforms) {
    recorded.push_back({"proc_" + platform + "_s", "s"});
  }
  if (layered) {
    stats.merge(PerLayer(run));
    recorded.insert(recorded.end(), PerLayerMetrics().begin(), PerLayerMetrics().end());
  }
  const std::vector<MetricDef>& published =
      opt.trace ? PerLayerMetrics() : EndToEndMetrics();

  std::printf("== %s  seed %llu  %zu untraced + %zu traced passes (+2 warm-up)\n",
              workload.name.c_str(), (unsigned long long)opt.seed, run.untraced.size(),
              run.traced.size());
  for (const Input& in : b.inputs) {
    std::printf("  input %-6s |V|=%llu |E|=%llu bfs_source=%llu file=%.1f MiB\n",
                in.def.name.c_str(), (unsigned long long)in.meta.vertices,
                (unsigned long long)in.meta.edges, (unsigned long long)in.meta.bfs_source,
                static_cast<double>(in.meta.file_bytes) / kMiB);
  }
  for (const MetricDef& def : recorded) PrintMetric(def.name, def.unit, stats[def.name]);
  std::printf("  host.calib_s start %.6f end %.6f; trace %s, critical path %.6f s of %.6f s\n",
              run.calib_start_s, run.calib_end_s, trace_path.c_str(),
              analysis.critical_path_seconds, analysis.wall_seconds);
  std::printf("  cells attempted %llu, failed %zu\n",
              (unsigned long long)run.audit.attempted, run.audit.failures.size());
  for (const std::string& failure : run.audit.failures) {
    std::printf("  FAILED %s\n", failure.c_str());
  }

  const fs::path record_path =
      opt.out / (stem + "-trace" + (opt.trace ? "1" : "0") + ".json");
  std::ofstream(record_path, std::ios::trunc)
      << RecordJson(b, opt, run, recorded, stats, trace_path);

  // The result: the last line on stdout.
  const bool correct = run.audit.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", (unsigned long long)run.audit.attempted,
              run.audit.failures.size(), MetricsJson(published, stats, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload NAME|all] [--seed N] [--seconds %g]\n"
               "          [--trace 0|1] [--workdir DIR] [--out DIR] [--smoke] [--gen-only]\n"
               "  --workload   traversal-rmat | analytics-snb | ingest-snb |\n"
               "               concurrent-mixed | all (default all)\n"
               "  --seed       input seed (default 1)\n"
               "  --seconds    how long the timed passes run; accepted only as\n"
               "               BENCHMARK.json's run_seconds, %g\n"
               "  --trace      0: end-to-end metrics; 1: per-layer metrics\n"
               "  --workdir    inputs, scratch and run files (default .bench_work)\n"
               "  --out        records and traces (default <workdir>/results)\n"
               "  --smoke      tiny inputs, one pass of each kind\n"
               "  --gen-only   make the inputs for --seed and exit\n",
               argv0, kRunSeconds, kRunSeconds);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.binary = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--gen-only") {
      opt.gen_only = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value &&
               std::strtod(argv[i + 1], nullptr) == kRunSeconds) {
      ++i;
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && has_value) {
      opt.workdir = argv[++i];
    } else if (arg == "--out" && has_value) {
      opt.out = argv[++i];
    } else {
      PrintUsage(argv[0]);
      return 2;
    }
  }
  if (opt.out.empty()) opt.out = opt.workdir / "results";

  std::vector<Workload> selected;
  for (Workload& w : Workloads(opt.smoke)) {
    if (opt.workload == "all" || opt.workload == w.name) selected.push_back(w);
  }
  if (selected.empty()) {
    PrintUsage(argv[0]);
    return 2;
  }

  // Platform scratch space (graph store, spills) goes under the work dir,
  // not the system temp dir.
  std::error_code ec;
  const fs::path tmp = fs::absolute(opt.workdir / "tmp", ec);
  fs::create_directories(tmp, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", tmp.string().c_str());
    return 1;
  }
  setenv("TMPDIR", tmp.c_str(), 1);

  int status = 0;
  for (const Workload& w : selected) {
    if (RunWorkload(w, opt) != 0) status = 1;
  }
  return status;
}
