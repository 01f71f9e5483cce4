#include "harness/run_config.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "datagen/rmat.h"
#include "datagen/social_datagen.h"
#include "graph/io.h"
#include "harness/report.h"

namespace gly::harness {

namespace fs = std::filesystem;

namespace {

// Builds one dataset from its `graph.<name>.*` scope. `etl_pool` (nullable)
// parallelizes text parsing and CSR construction; the graph is the same
// with or without it, so the knob is purely a performance choice.
Result<Graph> BuildGraph(const std::string& name, const Config& scope,
                         ThreadPool* etl_pool) {
  CsrBuildOptions build;
  build.pool = etl_pool;
  std::string source = ToLower(scope.GetStringOr("source", "datagen"));
  if (source == "datagen") {
    datagen::SocialDatagenConfig dg;
    dg.num_persons = scope.GetUintOr("persons", 10000);
    dg.degree_spec = scope.GetStringOr("degree_spec", "facebook:mean=18");
    dg.window_size = scope.GetUintOr("window", 128);
    dg.seed = scope.GetUintOr("seed", 42);
    dg.university_fraction =
        scope.GetDoubleOr("university_fraction", dg.university_fraction);
    dg.interest_fraction =
        scope.GetDoubleOr("interest_fraction", dg.interest_fraction);
    dg.random_fraction =
        scope.GetDoubleOr("random_fraction", dg.random_fraction);
    ThreadPool pool(HardwareThreads());
    GLY_ASSIGN_OR_RETURN(datagen::SocialGraph social,
                         datagen::SocialDatagen(dg).Generate(&pool));
    return GraphBuilder::Undirected(social.edges, build);
  }
  if (source == "rmat") {
    datagen::RmatConfig rmat;
    rmat.scale = static_cast<uint32_t>(scope.GetUintOr("scale", 12));
    rmat.edge_factor =
        static_cast<uint32_t>(scope.GetUintOr("edge_factor", 16));
    rmat.seed = scope.GetUintOr("seed", 1);
    ThreadPool pool(HardwareThreads());
    GLY_ASSIGN_OR_RETURN(EdgeList edges,
                         datagen::RmatGenerator(rmat).Generate(&pool));
    bool directed = scope.GetBoolOr("directed", false);
    return directed ? GraphBuilder::Directed(edges, build)
                    : GraphBuilder::Undirected(edges, build);
  }
  if (source == "file") {
    GLY_ASSIGN_OR_RETURN(std::string path, scope.GetString("path"));
    EdgeListParseOptions parse;
    parse.drop_self_loops = scope.GetBoolOr("drop_self_loops", false);
    parse.drop_duplicates = scope.GetBoolOr("drop_duplicates", false);
    parse.max_vertex_id = scope.GetUintOr("max_vertex_id",
                                          parse.max_vertex_id);
    EtlOptions etl;
    etl.pool = etl_pool;
    EdgeList edges;
    if (path.size() >= 4 && path.substr(path.size() - 4) == ".bin") {
      GLY_ASSIGN_OR_RETURN(edges, ReadEdgeListBinary(path));
    } else if (path.size() >= 2 && path.substr(path.size() - 2) == ".e") {
      // Graphalytics dataset convention: companion ".v" picked up when
      // present (covers isolated vertices).
      GLY_ASSIGN_OR_RETURN(
          edges, ReadGraphalyticsDataset(path.substr(0, path.size() - 2),
                                         parse, etl));
    } else {
      GLY_ASSIGN_OR_RETURN(edges, ReadEdgeListText(path, parse, etl));
    }
    bool directed = scope.GetBoolOr("directed", false);
    return directed ? GraphBuilder::Directed(edges, build)
                    : GraphBuilder::Undirected(edges, build);
  }
  return Status::InvalidArgument("graph." + name + ".source: unknown '" +
                                 source + "'");
}

// Shared algorithm parameters.
AlgorithmParams ReadAlgorithmParams(const Config& config) {
  AlgorithmParams params;
  params.cd.max_iterations =
      static_cast<uint32_t>(config.GetUintOr("cd.max_iterations", 10));
  params.cd.hop_attenuation = config.GetDoubleOr("cd.hop_attenuation", 0.05);
  params.evo.num_new_vertices =
      static_cast<uint32_t>(config.GetUintOr("evo.new_vertices", 16));
  params.evo.p_forward = config.GetDoubleOr("evo.p_forward", 0.3);
  params.evo.seed = config.GetUintOr("evo.seed", 99);
  return params;
}

// `graph.<name>.bfs_source` (default 0): when set it must parse and name a
// vertex of the built graph. Otherwise a wrapped id would run a BFS from
// another vertex, and an out-of-range one a BFS that reaches nothing, and
// both would validate.
Result<VertexId> ReadBfsSource(const Config& scope, const std::string& name,
                               VertexId num_vertices) {
  if (!scope.Has("bfs_source")) return VertexId{0};
  const std::string key = "graph." + name + ".bfs_source";
  Result<uint64_t> source = scope.GetUint("bfs_source");
  if (!source.ok()) return source.status().WithPrefix(key);
  if (*source >= num_vertices) {
    return Status::InvalidArgument(StringPrintf(
        "%s: %llu is not a vertex of a %u-vertex graph", key.c_str(),
        (unsigned long long)*source, num_vertices));
  }
  return static_cast<VertexId>(*source);
}

// Supervision keys (deadlines, retries, scheduler slots and budget): an
// unset key keeps RunSpec's default, but a set one must parse. A silent
// fallback would turn `timeout_s = 0.005s` into a run with no deadline.
Status ReadSupervision(const Config& config, RunSpec* spec) {
  GLY_RETURN_NOT_OK(ReadSetDouble(config, "timeout_s", &spec->cell_timeout_s));
  GLY_RETURN_NOT_OK(
      ReadSetDouble(config, "stall_timeout_s", &spec->stall_timeout_s));
  GLY_RETURN_NOT_OK(
      ReadSetDouble(config, "cancel_grace_s", &spec->cancel_grace_s));
  GLY_RETURN_NOT_OK(ReadSetUint(config, "max_attempts", &spec->max_attempts));
  GLY_RETURN_NOT_OK(
      ReadSetDouble(config, "retry_backoff_s", &spec->retry_backoff_s));
  // Concurrent scheduling (DESIGN.md §12).
  GLY_RETURN_NOT_OK(ReadSetUint(config, "harness.jobs", &spec->jobs));
  return ReadSetUint(config, "harness.memory_budget_mb",
                     &spec->sched_memory_budget_mb);
}

// Profiling (DESIGN.md §14): profile.mode = off | counters | sampler |
// full. Profile artifacts land next to the trace exports, so a profiled
// run needs a trace directory; `*trace_dir` defaults to one under
// report.dir when unset.
Result<ProfileOptions> ReadProfile(const Config& config,
                                   std::string* trace_dir) {
  ProfileOptions profile;
  std::string mode = ToLower(config.GetStringOr("profile.mode", "off"));
  if (mode == "off") {
    profile.mode = ProfileMode::kOff;
  } else if (mode == "counters") {
    profile.mode = ProfileMode::kCounters;
  } else if (mode == "sampler") {
    profile.mode = ProfileMode::kSampler;
  } else if (mode == "full") {
    profile.mode = ProfileMode::kFull;
  } else {
    return Status::InvalidArgument("profile.mode: unknown '" + mode +
                                   "' (off | counters | sampler | full)");
  }
  profile.sample_interval_us = config.GetUintOr("profile.interval_us", 2000);
  if (profile.mode != ProfileMode::kOff && trace_dir->empty()) {
    std::string report_dir = config.GetStringOr("report.dir", "");
    if (report_dir.empty()) {
      return Status::InvalidArgument(
          "profile.mode requires trace.dir or report.dir for artifacts");
    }
    *trace_dir = report_dir + "/trace";
  }
  return profile;
}

// Backing store for one dataset: the built graph plus, when the reorder
// knob asks for it, the degree-relabeled copy and its permutation. Held by
// pointer so DatasetSpec's raw pointers stay valid as the vector grows.
struct DatasetStorage {
  Graph graph;
  bool reordered = false;
  ReorderedGraph by_degree;
};

// Writes report.txt and results.csv, and appends results.jsonl, under
// out.report_dir.
Status WriteReportFiles(const ConfigRunOutput& out) {
  std::error_code ec;
  fs::create_directories(out.report_dir, ec);
  if (ec) {
    return Status::IOError("cannot create report dir: " + out.report_dir);
  }
  std::ofstream report(out.report_dir + "/report.txt");
  report << out.report_text;
  if (!report) return Status::IOError("cannot write report.txt");
  GLY_RETURN_NOT_OK(
      WriteResultsCsv(out.results, out.report_dir + "/results.csv"));
  return AppendResultsDatabase(out.results, out.report_dir + "/results.jsonl");
}

}  // namespace

Result<ConfigRunOutput> RunFromConfig(const Config& config,
                                      const CancelToken* stop) {
  // ----------------------------------------------------------- add graphs
  GLY_ASSIGN_OR_RETURN(std::string graphs_value, config.GetString("graphs"));
  std::vector<std::string> graph_names;
  for (const std::string& raw : Split(graphs_value, ',')) {
    std::string name(Trim(raw));
    if (!name.empty()) graph_names.push_back(name);
  }
  if (graph_names.empty()) {
    return Status::InvalidArgument("'graphs' lists no datasets");
  }

  const AlgorithmParams base_params = ReadAlgorithmParams(config);

  // ETL parallelism: etl.threads = 1 parses and builds on the calling
  // thread with no pool; N > 1 uses an N-thread pool; 0 = hardware
  // threads. Either way the graphs are bit-identical (see DESIGN.md §8).
  size_t etl_threads = config.GetUintOr("etl.threads", 1);
  if (etl_threads == 0) etl_threads = HardwareThreads();
  std::optional<ThreadPool> etl_pool;
  if (etl_threads > 1) etl_pool.emplace(etl_threads);
  ThreadPool* etl_pool_ptr = etl_pool ? &*etl_pool : nullptr;

  // Observability: trace.dir enables tracing for the whole run. The tracer
  // and registry are installed *here* — before the graphs are built — so the
  // ETL parse/CSR spans land in the same timeline as the benchmark cells.
  // Declared before the Scoped* installers so scope teardown (which
  // uninstalls the process-global pointer) precedes object destruction.
  std::string trace_dir = config.GetStringOr("trace.dir", "");

  GLY_ASSIGN_OR_RETURN(ProfileOptions profile,
                       ReadProfile(config, &trace_dir));

  std::optional<trace::Tracer> tracer;
  std::optional<metrics::Registry> run_metrics;
  std::optional<trace::ScopedTracer> trace_scope;
  std::optional<metrics::ScopedRegistry> metrics_scope;
  if (!trace_dir.empty()) {
    tracer.emplace();
    run_metrics.emplace();
    trace_scope.emplace(&*tracer);
    metrics_scope.emplace(&*run_metrics);
  }

  // graph.reorder = degree relabels every dataset by descending out-degree
  // (hubs first, for traversal locality); graph.<name>.reorder overrides it
  // per dataset. Results and validation stay in original vertex ids.
  std::string default_reorder =
      ToLower(config.GetStringOr("graph.reorder", "none"));

  std::vector<std::unique_ptr<DatasetStorage>> graphs;
  RunSpec spec;
  // Checked before any graph is built, so a malformed key fails fast.
  GLY_RETURN_NOT_OK(ReadSupervision(config, &spec));
  {
    trace::TraceSpan etl_span("harness.etl", "harness");
    for (const std::string& name : graph_names) {
      Config scope = config.Scoped("graph." + name);
      auto graph = BuildGraph(name, scope, etl_pool_ptr);
      if (!graph.ok()) return graph.status().WithPrefix("graph." + name);
      auto storage = std::make_unique<DatasetStorage>();
      storage->graph = std::move(graph).ValueOrDie();
      std::string reorder =
          ToLower(scope.GetStringOr("reorder", default_reorder));
      if (reorder == "degree") {
        storage->by_degree = storage->graph.ReorderByDegree(etl_pool_ptr);
        storage->reordered = true;
      } else if (reorder != "none") {
        return Status::InvalidArgument("graph." + name +
                                       ".reorder: unknown '" + reorder +
                                       "' (degree | none)");
      }
      graphs.push_back(std::move(storage));
    }
    etl_span.SetAttribute("graphs", uint64_t{graphs.size()});
  }
  for (size_t i = 0; i < graph_names.size(); ++i) {
    Config scope = config.Scoped("graph." + graph_names[i]);
    const DatasetStorage& storage = *graphs[i];
    DatasetSpec dataset;
    dataset.name = graph_names[i];
    if (storage.reordered) {
      dataset.graph = &storage.by_degree.graph;
      dataset.original = &storage.graph;
      dataset.new_to_old = &storage.by_degree.perm.new_to_old;
      dataset.old_to_new = &storage.by_degree.perm.old_to_new;
    } else {
      dataset.graph = &storage.graph;
    }
    dataset.params = base_params;
    GLY_ASSIGN_OR_RETURN(
        dataset.params.bfs.source,
        ReadBfsSource(scope, graph_names[i], storage.graph.num_vertices()));
    spec.datasets.push_back(dataset);
  }

  // --------------------------------------------------- configure platforms
  std::string platforms_value =
      config.GetStringOr("platforms", Join(RegisteredPlatforms(), ","));
  for (const std::string& raw : Split(platforms_value, ',')) {
    std::string name(Trim(raw));
    if (!name.empty()) spec.platforms.push_back(name);
  }
  spec.platform_config = config;  // adapters read their own scope

  // ------------------------------------------------------ choose workload
  std::string algos_value = config.GetStringOr("algorithms", "all");
  if (ToLower(std::string(Trim(algos_value))) == "all") {
    spec.algorithms = {AlgorithmKind::kStats, AlgorithmKind::kBfs,
                       AlgorithmKind::kConn, AlgorithmKind::kCd,
                       AlgorithmKind::kEvo};
  } else {
    for (const std::string& raw : Split(algos_value, ',')) {
      std::string name(Trim(raw));
      if (name.empty()) continue;
      GLY_ASSIGN_OR_RETURN(AlgorithmKind kind, ParseAlgorithmKind(name));
      spec.algorithms.push_back(kind);
    }
  }
  spec.validate = config.GetBoolOr("validate", true);
  spec.monitor = config.GetBoolOr("monitor", true);

  spec.stop = stop;

  // Resumable matrices: journal per-cell completion under the report dir
  // (or an explicit `journal` path); `resume = true` reuses finished cells.
  std::string report_dir = config.GetStringOr("report.dir", "");
  spec.journal_path = config.GetStringOr(
      "journal", report_dir.empty() ? "" : report_dir + "/journal.jsonl");
  spec.resume = config.GetBoolOr("resume", false);
  if (spec.resume && spec.journal_path.empty()) {
    return Status::InvalidArgument(
        "resume requires a journal: set report.dir or 'journal'");
  }
  if (!spec.journal_path.empty()) {
    std::error_code ec;
    fs::path parent = fs::path(spec.journal_path).parent_path();
    if (!parent.empty()) fs::create_directories(parent, ec);
  }

  // ------------------------------------------------- observability exports
  spec.trace_dir = trace_dir;
  spec.tracer = tracer ? &*tracer : nullptr;
  spec.metrics = run_metrics ? &*run_metrics : nullptr;
  spec.profile = profile;

  // --------------------------------------------------------------- run it
  ConfigRunOutput out;
  spec.scheduler_stats = &out.scheduler;
  GLY_ASSIGN_OR_RETURN(std::vector<BenchmarkResult> results,
                       RunBenchmark(spec));

  out.report_text = RenderFullReport(config, results);
  out.results = std::move(results);

  out.report_dir = config.GetStringOr("report.dir", "");
  if (!out.report_dir.empty()) GLY_RETURN_NOT_OK(WriteReportFiles(out));
  return out;
}

}  // namespace gly::harness
