#include "harness/run_config.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <type_traits>
#include <variant>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "datagen/rmat.h"
#include "datagen/social_datagen.h"
#include "graph/io.h"
#include "harness/platform.h"
#include "harness/report.h"

namespace gly::harness {

namespace fs = std::filesystem;

namespace {

using K = KeyType;

// The configuration schema. A row without a default names, in its comment,
// where the code that consumes the value keeps it.
constexpr KeySpec kSchema[] = {
    // The workload.
    {"graphs", K::kList, nullptr, ""},     // required
    {"platforms", K::kList, nullptr, ""},  // RegisteredPlatforms()
    {"algorithms", K::kList, "all", ""},
    {"cd.max_iterations", K::kUint32, nullptr, ""},  // CdParams
    {"cd.hop_attenuation", K::kDouble, nullptr, ""},
    {"evo.new_vertices", K::kUint32, nullptr, ""},  // EvoParams
    {"evo.p_forward", K::kDouble, nullptr, ""},
    {"evo.seed", K::kUint64, nullptr, ""},
    // Datasets.
    {"graph.*.source", K::kEnum, "datagen", "datagen | rmat | file"},
    {"graph.*.persons", K::kUint64, nullptr, ""},  // SocialDatagenConfig
    {"graph.*.degree_spec", K::kString, "facebook:mean=18", ""},
    {"graph.*.window", K::kUint64, "128", ""},
    {"graph.*.seed", K::kUint64, nullptr, ""},  // SocialDatagenConfig, RmatConfig
    {"graph.*.university_fraction", K::kDouble, nullptr, ""},  // SocialDatagenConfig
    {"graph.*.interest_fraction", K::kDouble, nullptr, ""},
    {"graph.*.random_fraction", K::kDouble, nullptr, ""},
    {"graph.*.scale", K::kUint32, "12", ""},
    {"graph.*.edge_factor", K::kUint32, nullptr, ""},  // RmatConfig
    {"graph.*.directed", K::kBool, nullptr, ""},       // BuildGraph: false
    {"graph.*.path", K::kString, nullptr, ""},  // required by source = file
    {"graph.*.drop_self_loops", K::kBool, nullptr, ""},  // EdgeListParseOptions
    {"graph.*.drop_duplicates", K::kBool, nullptr, ""},
    {"graph.*.max_vertex_id", K::kUint64, nullptr, ""},
    {"graph.*.bfs_source", K::kUint32, nullptr, ""},  // BfsParams
    {"graph.reorder", K::kEnum, "none", "degree | none"},
    {"graph.*.reorder", K::kEnum, nullptr, "degree | none"},  // graph.reorder
    {"etl.threads", K::kUint64, "1", ""},
    // Platforms.
    {"*.memory_budget_mb", K::kMib, "0", ""},
    {"*.workers", K::kUint32, "8", ""},
    {"*.threads", K::kUint32, "0", ""},
    {"giraph.network_mib_per_s", K::kDouble, nullptr, ""},  // pregel::EngineConfig
    {"giraph.barrier_latency_s", K::kDouble, nullptr, ""},
    {"giraph.dense_frontier_threshold", K::kDouble, nullptr, ""},
    {"giraph.checkpoint_interval", K::kUint32, nullptr, ""},
    {"giraph.checkpoint_dir", K::kString, nullptr, ""},  // MakePlatform: a temporary one
    {"graphx.shuffle_mib_per_s", K::kDouble, nullptr, ""},  // dataflow::ContextConfig
    {"graphx.materialize_mib_per_s", K::kDouble, nullptr, ""},
    {"mapreduce.job_startup_s", K::kDouble, nullptr, ""},  // mapreduce::JobConfig
    {"mapreduce.checkpointing", K::kBool, nullptr, ""},
    // Supervision and scheduling.
    {"timeout_s", K::kDouble, nullptr, ""},  // RunSpec
    {"stall_timeout_s", K::kDouble, nullptr, ""},
    {"cancel_grace_s", K::kDouble, nullptr, ""},
    {"max_attempts", K::kUint32, nullptr, ""},
    {"retry_backoff_s", K::kDouble, nullptr, ""},
    {"harness.jobs", K::kUint32, nullptr, ""},
    {"harness.memory_budget_mb", K::kUint64, nullptr, ""},
    // Outputs.
    {"validate", K::kBool, nullptr, ""},  // RunSpec
    {"monitor", K::kBool, nullptr, ""},
    {"resume", K::kBool, nullptr, ""},
    {"journal", K::kString, nullptr, ""},     // <report.dir>/journal.jsonl
    {"report.dir", K::kString, nullptr, ""},  // none
    {"trace.dir", K::kString, nullptr, ""},   // none, or <report.dir>/trace
    // ProfileOptions
    {"profile.mode", K::kEnum, nullptr, "off | counters | sampler | full"},
    {"profile.interval_us", K::kUint64, nullptr, ""},
};

// Every key `key` could be meant as: each row with its `*` bound, a
// dataset `*` to what lies between the key's first and last dot, a leading
// `*` to each registered platform.
std::vector<std::pair<std::string, const KeySpec*>> Instances(
    std::string_view key) {
  std::vector<std::pair<std::string, const KeySpec*>> out;
  const size_t first_dot = key.find('.');
  const size_t last_dot = key.rfind('.');
  const std::string dataset(key.substr(first_dot + 1, last_dot - first_dot - 1));
  for (const KeySpec& row : ConfigSchema()) {
    const size_t star = row.name.find('*');
    const std::string tail(row.name.substr(star + 1));
    if (star == std::string_view::npos) {
      out.emplace_back(row.name, &row);
    } else if (star == 0) {
      for (const std::string& platform : RegisteredPlatforms()) {
        out.emplace_back(platform + tail, &row);
      }
    } else if (first_dot < last_dot) {
      out.emplace_back(std::string(row.name.substr(0, star)) + dataset + tail, &row);
    }
  }
  return out;
}

const KeySpec* FindRow(std::string_view key) {
  for (const auto& [name, row] : Instances(key)) {
    if (name == key) return row;
  }
  return nullptr;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), size_t{0});
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t above = row[j];
      row[j] = std::min({above + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] != b[j - 1] ? 1 : 0)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

// "all" alone, or algorithm names.
Result<std::vector<AlgorithmKind>> ParseAlgorithms(
    const std::vector<std::string>& names) {
  if (names.size() == 1 && ToLower(names[0]) == "all") {
    return ParseAlgorithms({"stats", "bfs", "conn", "cd", "evo"});
  }
  std::vector<AlgorithmKind> kinds;
  for (const std::string& name : names) {
    GLY_ASSIGN_OR_RETURN(AlgorithmKind kind, ParseAlgorithmKind(name));
    kinds.push_back(kind);
  }
  return kinds;
}

using Value =
    std::variant<std::string, std::vector<std::string>, bool, double, uint64_t>;

template <typename T>
Result<Value> AsValue(Result<T> parsed) {
  if (!parsed.ok()) return parsed.status();
  return Value(std::move(parsed).ValueOrDie());
}

// `source`'s value of `key`, as a value of `row`'s type.
Result<Value> ParseValue(const KeySpec& row, const Config& source,
                         const std::string& key) {
  switch (row.type) {
    case K::kString:
      return AsValue(source.GetString(key));
    case K::kBool:
      return AsValue(source.GetBool(key));
    case K::kDouble:
      return AsValue(source.GetDouble(key));
    case K::kList: {
      // `platforms` names registered platforms, `algorithms` algorithms and
      // `graphs` datasets (any names).
      std::vector<std::string> items;
      const std::vector<std::string> platforms = RegisteredPlatforms();
      for (const std::string& item : Split(*source.GetString(key), ',')) {
        if (Trim(item).empty()) continue;
        items.emplace_back(Trim(item));
        if (row.name == "platforms" &&
            std::count(platforms.begin(), platforms.end(), ToLower(items.back())) == 0) {
          return Status::InvalidArgument("unknown platform '" + items.back() +
                                         "' (" + Join(platforms, " | ") + ")");
        }
      }
      if (row.name == "algorithms") GLY_RETURN_NOT_OK(ParseAlgorithms(items).status());
      return Value(std::move(items));
    }
    case K::kEnum: {
      const std::string value = ToLower(Trim(*source.GetString(key)));
      for (const std::string& allowed : Split(row.values, '|')) {
        if (Trim(allowed) == value) return Value(value);
      }
      return Status::InvalidArgument("unknown '" + value + "' (" +
                                     std::string(row.values) + ")");
    }
    default: {
      GLY_ASSIGN_OR_RETURN(uint64_t value, source.GetUint(key));
      // A uint32 fits 32 bits, a MiB count 44 (so that its bytes fit 64).
      if (row.type != K::kUint64 && value >> (row.type == K::kUint32 ? 32 : 44) != 0) {
        return Status::InvalidArgument(std::to_string(value) + " is out of range");
      }
      return Value(row.type == K::kMib ? value << 20 : value);
    }
  }
}

}  // namespace

std::span<const KeySpec> ConfigSchema() { return kSchema; }

Status ConfigReader::Check() const {
  for (const std::string& key : scope_.KeysWithPrefix("")) {
    const std::string full = prefix_ + key;
    const KeySpec* row = FindRow(full);
    if (row == nullptr) {
      // A near miss names the declared key at most two edits away.
      std::string message = full + ": unknown key";
      size_t best = 3;
      for (const auto& [name, candidate] : Instances(full)) {
        if (const size_t distance = EditDistance(full, name); distance < best) {
          best = distance;
          message = full + ": unknown key (did you mean " + name + "?)";
        }
      }
      return Status::InvalidArgument(message);
    }
    GLY_RETURN_NOT_OK(ParseValue(*row, scope_, key).status().WithPrefix(full));
  }
  return Status::OK();
}

template <typename T>
Status ConfigReader::Get(std::string_view key, T* value) const {
  const std::string full = prefix_ + std::string(key);
  const std::string scoped(key);
  const KeySpec* row = FindRow(full);
  // Unsigned rows hold a uint64_t; only a uint32 row reads as uint32_t.
  using Stored = std::conditional_t<std::is_same_v<T, uint32_t>, uint64_t, T>;
  if (row == nullptr || std::is_same_v<T, uint32_t> != (row->type == K::kUint32)) {
    return Status::Internal(full + ": read as a type its row does not have");
  }
  const bool set = scope_.Has(scoped);
  if (!set && row->def == nullptr) return Status::OK();
  Config fallback;
  if (!set) fallback.Set(scoped, row->def);
  Result<Value> parsed = ParseValue(*row, set ? scope_ : fallback, scoped);
  if (!parsed.ok()) return parsed.status().WithPrefix(full);
  const Stored* stored = std::get_if<Stored>(&*parsed);
  if (stored == nullptr) {
    return Status::Internal(full + ": read as a type its row does not have");
  }
  *value = static_cast<T>(*stored);
  return Status::OK();
}

template Status ConfigReader::Get(std::string_view, std::string*) const;
template Status ConfigReader::Get(std::string_view, std::vector<std::string>*) const;
template Status ConfigReader::Get(std::string_view, bool*) const;
template Status ConfigReader::Get(std::string_view, double*) const;
template Status ConfigReader::Get(std::string_view, uint32_t*) const;
template Status ConfigReader::Get(std::string_view, uint64_t*) const;

namespace {

// Builds one dataset from its `graph.<name>.*` scope. `etl_pool` (nullable)
// parallelizes text parsing and CSR construction; the graph is the same
// with or without it, so the knob is purely a performance choice.
Result<Graph> BuildGraph(const ConfigReader& in, ThreadPool* etl_pool) {
  CsrBuildOptions build;
  build.pool = etl_pool;
  std::string source;
  GLY_RETURN_NOT_OK(in.Get("source", &source));
  if (source == "datagen") {
    datagen::SocialDatagenConfig dg;
    GLY_RETURN_NOT_OK(in.Get("persons", &dg.num_persons));
    GLY_RETURN_NOT_OK(in.Get("degree_spec", &dg.degree_spec));
    GLY_RETURN_NOT_OK(in.Get("window", &dg.window_size));
    GLY_RETURN_NOT_OK(in.Get("seed", &dg.seed));
    GLY_RETURN_NOT_OK(in.Get("university_fraction", &dg.university_fraction));
    GLY_RETURN_NOT_OK(in.Get("interest_fraction", &dg.interest_fraction));
    GLY_RETURN_NOT_OK(in.Get("random_fraction", &dg.random_fraction));
    ThreadPool pool(HardwareThreads());
    GLY_ASSIGN_OR_RETURN(datagen::SocialGraph social,
                         datagen::SocialDatagen(dg).Generate(&pool));
    return GraphBuilder::Undirected(social.edges, build);
  }
  EdgeList edges;
  if (source == "rmat") {
    datagen::RmatConfig rmat;
    GLY_RETURN_NOT_OK(in.Get("scale", &rmat.scale));
    GLY_RETURN_NOT_OK(in.Get("edge_factor", &rmat.edge_factor));
    GLY_RETURN_NOT_OK(in.Get("seed", &rmat.seed));
    ThreadPool pool(HardwareThreads());
    GLY_ASSIGN_OR_RETURN(edges, datagen::RmatGenerator(rmat).Generate(&pool));
  } else {
    std::string path;
    GLY_RETURN_NOT_OK(in.Get("path", &path));
    if (path.empty()) return Status::InvalidArgument("path: required by source = file");
    EdgeListParseOptions parse;
    GLY_RETURN_NOT_OK(in.Get("drop_self_loops", &parse.drop_self_loops));
    GLY_RETURN_NOT_OK(in.Get("drop_duplicates", &parse.drop_duplicates));
    GLY_RETURN_NOT_OK(in.Get("max_vertex_id", &parse.max_vertex_id));
    EtlOptions etl;
    etl.pool = etl_pool;
    if (path.ends_with(".bin")) {
      GLY_ASSIGN_OR_RETURN(edges, ReadEdgeListBinary(path));
    } else if (path.ends_with(".e")) {
      // Graphalytics dataset convention: companion ".v" picked up when
      // present (covers isolated vertices).
      GLY_ASSIGN_OR_RETURN(edges, ReadGraphalyticsDataset(
                                      path.substr(0, path.size() - 2), parse, etl));
    } else {
      GLY_ASSIGN_OR_RETURN(edges, ReadEdgeListText(path, parse, etl));
    }
  }
  bool directed = false;
  GLY_RETURN_NOT_OK(in.Get("directed", &directed));
  return directed ? GraphBuilder::Directed(edges, build)
                  : GraphBuilder::Undirected(edges, build);
}

// The platforms, the workload, supervision (deadlines, retries, scheduler
// slots and budget) and the journal.
Status ReadRunSpec(const ConfigReader& in, RunSpec* spec) {
  spec->platforms = RegisteredPlatforms();
  GLY_RETURN_NOT_OK(in.Get("platforms", &spec->platforms));
  for (std::string& platform : spec->platforms) platform = ToLower(platform);
  std::vector<std::string> algorithms;
  GLY_RETURN_NOT_OK(in.Get("algorithms", &algorithms));
  GLY_ASSIGN_OR_RETURN(spec->algorithms, ParseAlgorithms(algorithms));
  GLY_RETURN_NOT_OK(in.Get("validate", &spec->validate));
  GLY_RETURN_NOT_OK(in.Get("monitor", &spec->monitor));
  GLY_RETURN_NOT_OK(in.Get("timeout_s", &spec->cell_timeout_s));
  GLY_RETURN_NOT_OK(in.Get("stall_timeout_s", &spec->stall_timeout_s));
  GLY_RETURN_NOT_OK(in.Get("cancel_grace_s", &spec->cancel_grace_s));
  GLY_RETURN_NOT_OK(in.Get("max_attempts", &spec->max_attempts));
  GLY_RETURN_NOT_OK(in.Get("retry_backoff_s", &spec->retry_backoff_s));
  // Concurrent scheduling (DESIGN.md §12).
  GLY_RETURN_NOT_OK(in.Get("harness.jobs", &spec->jobs));
  GLY_RETURN_NOT_OK(
      in.Get("harness.memory_budget_mb", &spec->sched_memory_budget_mb));
  // Resumable matrices: journal per-cell completion under the report dir
  // (or an explicit `journal` path); `resume = true` reuses finished cells.
  std::string report_dir;
  GLY_RETURN_NOT_OK(in.Get("report.dir", &report_dir));
  if (!report_dir.empty()) spec->journal_path = report_dir + "/journal.jsonl";
  GLY_RETURN_NOT_OK(in.Get("journal", &spec->journal_path));
  GLY_RETURN_NOT_OK(in.Get("resume", &spec->resume));
  if (spec->resume && spec->journal_path.empty()) {
    return Status::InvalidArgument(
        "resume requires a journal: set report.dir or 'journal'");
  }
  return Status::OK();
}

// Profiling (DESIGN.md §14). Profile artifacts land next to the trace
// exports, so a profiled run needs a trace directory; `*trace_dir`
// defaults to one under report.dir when unset.
Result<ProfileOptions> ReadProfile(const ConfigReader& in,
                                   std::string* trace_dir) {
  ProfileOptions profile;
  std::string mode;
  GLY_RETURN_NOT_OK(in.Get("profile.mode", &mode));
  for (const auto& [name, value] : {std::pair{"counters", ProfileMode::kCounters},
                                    std::pair{"sampler", ProfileMode::kSampler},
                                    std::pair{"full", ProfileMode::kFull}}) {
    if (mode == name) profile.mode = value;
  }
  GLY_RETURN_NOT_OK(in.Get("profile.interval_us", &profile.sample_interval_us));
  if (profile.mode != ProfileMode::kOff && trace_dir->empty()) {
    std::string report_dir;
    GLY_RETURN_NOT_OK(in.Get("report.dir", &report_dir));
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
  ReorderedGraph by_degree;
};

// Builds every dataset of `graphs` and adds it, with the shared algorithm
// parameters, to `spec`.
// graph.reorder = degree relabels every dataset by descending out-degree
// (hubs first, for traversal locality); graph.<name>.reorder overrides it
// per dataset. Results and validation stay in original vertex ids.
Status BuildDatasets(const Config& config, const ConfigReader& in,
                     ThreadPool* etl_pool, RunSpec* spec,
                     std::vector<std::unique_ptr<DatasetStorage>>* graphs) {
  std::vector<std::string> graph_names;
  GLY_RETURN_NOT_OK(in.Get("graphs", &graph_names));
  if (graph_names.empty()) {
    return Status::InvalidArgument("'graphs' lists no datasets");
  }
  AlgorithmParams base;
  GLY_RETURN_NOT_OK(in.Get("cd.max_iterations", &base.cd.max_iterations));
  GLY_RETURN_NOT_OK(in.Get("cd.hop_attenuation", &base.cd.hop_attenuation));
  GLY_RETURN_NOT_OK(in.Get("evo.new_vertices", &base.evo.num_new_vertices));
  GLY_RETURN_NOT_OK(in.Get("evo.p_forward", &base.evo.p_forward));
  GLY_RETURN_NOT_OK(in.Get("evo.seed", &base.evo.seed));
  std::string default_reorder;
  GLY_RETURN_NOT_OK(in.Get("graph.reorder", &default_reorder));
  trace::TraceSpan etl_span("harness.etl", "harness");
  for (const std::string& name : graph_names) {
    const Config scope = config.Scoped("graph." + name);
    const ConfigReader graph_in(scope, "graph." + name + ".");
    auto graph = BuildGraph(graph_in, etl_pool);
    if (!graph.ok()) return graph.status().WithPrefix("graph." + name);
    auto storage = std::make_unique<DatasetStorage>();
    storage->graph = std::move(graph).ValueOrDie();
    std::string reorder = default_reorder;
    GLY_RETURN_NOT_OK(graph_in.Get("reorder", &reorder));
    DatasetSpec dataset;
    dataset.name = name;
    dataset.params = base;
    // A set bfs_source must name a vertex: an out-of-range one would run a
    // BFS that reaches nothing, and it would validate.
    GLY_RETURN_NOT_OK(graph_in.Get("bfs_source", &dataset.params.bfs.source));
    if (scope.Has("bfs_source") &&
        dataset.params.bfs.source >= storage->graph.num_vertices()) {
      return Status::InvalidArgument(StringPrintf(
          "graph.%s.bfs_source: %u is not a vertex of a %u-vertex graph",
          name.c_str(), dataset.params.bfs.source,
          storage->graph.num_vertices()));
    }
    if (reorder == "degree") {
      storage->by_degree = storage->graph.ReorderByDegree(etl_pool);
      dataset.graph = &storage->by_degree.graph;
      dataset.original = &storage->graph;
      dataset.new_to_old = &storage->by_degree.perm.new_to_old;
      dataset.old_to_new = &storage->by_degree.perm.old_to_new;
    } else {
      dataset.graph = &storage->graph;
    }
    spec->datasets.push_back(dataset);
    graphs->push_back(std::move(storage));
  }
  etl_span.SetAttribute("graphs", uint64_t{graphs->size()});
  return Status::OK();
}

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
  // Every key is checked before anything runs, so a misspelled or malformed
  // one fails the run before any graph is built.
  const ConfigReader in(config, "");
  GLY_RETURN_NOT_OK(in.Check());
  RunSpec spec;
  GLY_RETURN_NOT_OK(ReadRunSpec(in, &spec));
  spec.platform_config = config;  // adapters read their own scope
  spec.stop = stop;

  // Observability: trace.dir enables tracing for the whole run. The tracer
  // and registry are installed *here* — before the graphs are built — so the
  // ETL parse/CSR spans land in the same timeline as the benchmark cells.
  // Declared before the Scoped* installers so scope teardown (which
  // uninstalls the process-global pointer) precedes object destruction.
  GLY_RETURN_NOT_OK(in.Get("trace.dir", &spec.trace_dir));
  GLY_ASSIGN_OR_RETURN(spec.profile, ReadProfile(in, &spec.trace_dir));
  std::optional<trace::Tracer> tracer;
  std::optional<metrics::Registry> run_metrics;
  std::optional<trace::ScopedTracer> trace_scope;
  std::optional<metrics::ScopedRegistry> metrics_scope;
  if (!spec.trace_dir.empty()) {
    spec.tracer = &tracer.emplace();
    spec.metrics = &run_metrics.emplace();
    trace_scope.emplace(spec.tracer);
    metrics_scope.emplace(spec.metrics);
  }

  // ETL parallelism: etl.threads = 1 parses and builds on the calling
  // thread with no pool; N > 1 uses an N-thread pool; 0 = hardware
  // threads. Either way the graphs are bit-identical (see DESIGN.md §8).
  uint64_t etl_threads = 0;
  GLY_RETURN_NOT_OK(in.Get("etl.threads", &etl_threads));
  if (etl_threads == 0) etl_threads = HardwareThreads();
  std::optional<ThreadPool> etl_pool;
  if (etl_threads > 1) etl_pool.emplace(etl_threads);
  std::vector<std::unique_ptr<DatasetStorage>> graphs;
  GLY_RETURN_NOT_OK(BuildDatasets(config, in, etl_pool ? &*etl_pool : nullptr,
                                  &spec, &graphs));

  ConfigRunOutput out;
  spec.scheduler_stats = &out.scheduler;
  GLY_ASSIGN_OR_RETURN(std::vector<BenchmarkResult> results,
                       RunBenchmark(spec));
  out.report_text = RenderFullReport(config, results);
  out.results = std::move(results);
  GLY_RETURN_NOT_OK(in.Get("report.dir", &out.report_dir));
  if (!out.report_dir.empty()) GLY_RETURN_NOT_OK(WriteReportFiles(out));
  return out;
}

}  // namespace gly::harness
