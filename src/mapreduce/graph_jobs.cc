#include "mapreduce/graph_jobs.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>

#include "common/checkpoint.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "graph/io.h"

namespace gly::mapreduce {

namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ record codec
//
// Two record flavors share the (key = vertex id) keyspace, both encoded
// with the checkpoint codec (fixed-width little-endian):
//   'G' — graph record: i64 state, double aux, u32 changed, u32 degree,
//         then the adjacency (degree u32 ids);
//   'M' — message record: i64 payload, double aux and, in LCC's messages
//         only, the sender's adjacency (payload u32 ids).
constexpr char kGraphTag = 'G';
constexpr char kMessageTag = 'M';

struct GraphRecord {
  int64_t state = 0;
  double aux = 0.0;
  uint8_t changed = 0;
  std::vector<VertexId> adjacency;
};

struct Message {
  int64_t payload = 0;
  double aux = 0.0;
  std::vector<VertexId> ids;
};

bool IsGraphValue(std::string_view v) {
  return !v.empty() && v[0] == kGraphTag;
}

// Reads `n` ids; a count larger than the bytes left fails the decode
// before anything is reserved for it.
bool GetIds(CheckpointDecoder& dec, uint64_t n, std::vector<VertexId>* ids) {
  if (n > dec.remaining() / sizeof(VertexId)) return false;
  ids->resize(n);
  return n == 0 || dec.GetBytes(ids->data(), n * sizeof(VertexId));
}

std::string EncodeGraphRecord(const GraphRecord& rec) {
  std::string out(1, kGraphTag);
  CheckpointEncoder enc(&out);
  enc.PutI64(rec.state);
  enc.PutDouble(rec.aux);
  enc.PutU32(rec.changed);
  enc.PutU32(static_cast<uint32_t>(rec.adjacency.size()));
  enc.PutBytes(rec.adjacency.data(), rec.adjacency.size() * sizeof(VertexId));
  return out;
}

Result<GraphRecord> DecodeGraphRecord(std::string_view value) {
  if (!IsGraphValue(value)) return Status::InvalidArgument("not a graph record");
  CheckpointDecoder dec(value.substr(1));
  GraphRecord rec;
  uint32_t changed = 0;
  uint32_t degree = 0;
  if (!dec.GetI64(&rec.state) || !dec.GetDouble(&rec.aux) ||
      !dec.GetU32(&changed) || !dec.GetU32(&degree) ||
      !GetIds(dec, degree, &rec.adjacency)) {
    return Status::InvalidArgument("graph record truncated");
  }
  rec.changed = static_cast<uint8_t>(changed);
  return rec;
}

std::string EncodeMessage(int64_t payload, double aux = 0.0,
                          std::span<const VertexId> ids = {}) {
  std::string out(1, kMessageTag);
  CheckpointEncoder enc(&out);
  enc.PutI64(payload);
  enc.PutDouble(aux);
  enc.PutBytes(ids.data(), ids.size_bytes());
  return out;
}

Result<Message> DecodeMessage(std::string_view value) {
  if (value.empty() || value[0] != kMessageTag) {
    return Status::InvalidArgument("not a message record");
  }
  CheckpointDecoder dec(value.substr(1));
  Message m;
  if (!dec.GetI64(&m.payload) || !dec.GetDouble(&m.aux) ||
      (!dec.Done() &&
       !GetIds(dec, static_cast<uint64_t>(m.payload), &m.ids))) {
    return Status::InvalidArgument("message record truncated");
  }
  return m;
}

// --------------------------------------------------------- vertex programs
//
// BFS, CONN, CD, PR and STATS' clustering-coefficient job share one job
// shape. Map re-emits every graph record and sends the vertex's message, if
// it has one, to every neighbour; reduce joins the graph record with its
// decoded messages and applies the algorithm's update. A VertexProgram is
// the per-algorithm part.

// How the combiner folds the messages addressed to one vertex.
enum class Fold { kNone, kMin, kSum };

struct VertexProgram {
  // The record of vertex v before the first iteration; the driver fills in
  // the adjacency.
  std::function<GraphRecord(VertexId v)> init;
  // CONN's undirected connectivity: fold in-neighbours into the adjacency
  // of a directed graph.
  bool union_adjacency = false;
  // The encoded message `rec` sends every neighbour in iteration `iter`
  // (1-based), or nothing. Asked only of vertices with neighbours.
  std::function<std::optional<std::string>(const GraphRecord& rec,
                                           uint32_t iter)>
      message;
  // Joins the decoded messages into `rec`; true counts the vertex as
  // updated.
  std::function<bool(GraphRecord* rec, const std::vector<Message>& messages)>
      update;
  Fold fold = Fold::kNone;
  uint32_t iterations = 1;
  // Stop after the first iteration that updated no vertex.
  bool until_no_update = false;
};

class VertexMapper : public Mapper {
 public:
  VertexMapper(const VertexProgram& program, uint32_t iter)
      : program_(program), iter_(iter) {}

  void Map(const Record& input, Emitter* out, Counters* counters) override {
    out->Emit(input.key, input.value);
    auto rec = DecodeGraphRecord(input.value);
    if (!rec.ok() || rec->adjacency.empty()) return;
    std::optional<std::string> message = program_.message(*rec, iter_);
    if (!message) return;
    for (VertexId w : rec->adjacency) out->Emit(w, *message);
    counters->Increment("traversed", rec->adjacency.size());
  }

 private:
  const VertexProgram& program_;
  uint32_t iter_;
};

class VertexReducer : public Reducer {
 public:
  explicit VertexReducer(const VertexProgram& program) : program_(program) {}

  void Reduce(uint64_t key, const std::vector<std::string>& values,
              Emitter* out, Counters* counters) override {
    std::optional<GraphRecord> rec;
    messages_.clear();
    for (const std::string& v : values) {
      if (IsGraphValue(v)) {
        auto g = DecodeGraphRecord(v);
        if (g.ok()) rec = std::move(g).ValueOrDie();
      } else {
        auto m = DecodeMessage(v);
        if (m.ok()) messages_.push_back(std::move(m).ValueOrDie());
      }
    }
    if (!rec) return;  // message to a vertex with no record
    if (program_.update(&*rec, messages_)) counters->Increment("updated");
    out->Emit(key, EncodeGraphRecord(*rec));
  }

 private:
  const VertexProgram& program_;
  std::vector<Message> messages_;
};

// Map-side combiner: passes graph records through and folds the messages
// to one key into one. kMin keeps the smallest payload; kSum adds payloads
// and aux values. With kSum it is also the reducer of STATS' aggregate job.
class FoldCombiner : public Reducer {
 public:
  explicit FoldCombiner(Fold fold) : fold_(fold) {}

  void Reduce(uint64_t key, const std::vector<std::string>& values,
              Emitter* out, Counters*) override {
    Message folded;
    if (fold_ == Fold::kMin) folded.payload = kUnreachable;
    bool have_message = false;
    for (const std::string& v : values) {
      if (IsGraphValue(v)) {
        out->Emit(key, v);
        continue;
      }
      auto m = DecodeMessage(v);
      if (!m.ok()) continue;
      have_message = true;
      if (fold_ == Fold::kMin) {
        folded.payload = std::min(folded.payload, m->payload);
      } else {
        folded.payload += m->payload;
        folded.aux += m->aux;
      }
    }
    if (have_message) out->Emit(key, EncodeMessage(folded.payload, folded.aux));
  }

 private:
  Fold fold_;
};

int64_t MinPayload(const std::vector<Message>& messages) {
  int64_t best = kUnreachable;
  for (const Message& m : messages) best = std::min(best, m.payload);
  return best;
}

// Vertices discovered in the previous iteration (state == iter - 1) send
// dist + 1; a vertex takes the smallest distance offered.
VertexProgram BfsProgram(const BfsParams& params, uint32_t max_iterations) {
  VertexProgram p;
  p.init = [source = params.source](VertexId v) {
    GraphRecord rec;
    rec.state = (v == source) ? 0 : kUnreachable;
    return rec;
  };
  p.message = [](const GraphRecord& rec,
                 uint32_t iter) -> std::optional<std::string> {
    if (rec.state != static_cast<int64_t>(iter) - 1) return std::nullopt;
    return EncodeMessage(rec.state + 1);
  };
  p.update = [](GraphRecord* rec, const std::vector<Message>& messages) {
    const int64_t best = MinPayload(messages);
    if (best >= rec->state) return false;
    rec->state = best;
    return true;
  };
  p.fold = Fold::kMin;
  p.iterations = max_iterations;
  p.until_no_update = true;
  return p;
}

// Min-label propagation: a vertex whose label changed sends it on.
VertexProgram ConnProgram(uint32_t max_iterations) {
  VertexProgram p;
  p.init = [](VertexId v) {
    GraphRecord rec;
    rec.state = static_cast<int64_t>(v);
    rec.changed = 1;
    return rec;
  };
  p.union_adjacency = true;
  p.message = [](const GraphRecord& rec,
                 uint32_t) -> std::optional<std::string> {
    if (!rec.changed) return std::nullopt;
    return EncodeMessage(rec.state);
  };
  p.update = [](GraphRecord* rec, const std::vector<Message>& messages) {
    const int64_t best = MinPayload(messages);
    rec->changed = best < rec->state ? 1 : 0;
    if (rec->changed) rec->state = best;
    return rec->changed == 1;
  };
  p.fold = Fold::kMin;
  p.iterations = max_iterations;
  p.until_no_update = true;
  return p;
}

// Label propagation with hop attenuation; the label's score rides in aux.
VertexProgram CdProgram(const CdParams& params) {
  VertexProgram p;
  p.init = [](VertexId v) {
    GraphRecord rec;
    rec.state = static_cast<int64_t>(v);
    rec.aux = 1.0;
    return rec;
  };
  p.message = [](const GraphRecord& rec,
                 uint32_t) -> std::optional<std::string> {
    return EncodeMessage(rec.state, rec.aux);
  };
  p.update = [hop = params.hop_attenuation](
                 GraphRecord* rec, const std::vector<Message>& messages) {
    if (messages.empty()) return false;
    std::vector<LabelScore> incoming;
    incoming.reserve(messages.size());
    for (const Message& m : messages) incoming.push_back({m.payload, m.aux});
    const LabelScore adopted = CdAdoptLabel(incoming, hop);
    rec->state = adopted.label;
    rec->aux = adopted.score;
    return false;
  };
  p.iterations = params.max_iterations;
  return p;
}

// Rank rides in aux; messages carry rank / out-degree contributions.
VertexProgram PrProgram(const PrParams& params, VertexId num_vertices) {
  const double n = static_cast<double>(num_vertices);
  VertexProgram p;
  p.init = [n](VertexId) {
    GraphRecord rec;
    rec.aux = 1.0 / n;
    return rec;
  };
  p.message = [](const GraphRecord& rec,
                 uint32_t) -> std::optional<std::string> {
    return EncodeMessage(
        0, rec.aux / static_cast<double>(rec.adjacency.size()));
  };
  p.update = [base = (1.0 - params.damping) / n, damping = params.damping](
                 GraphRecord* rec, const std::vector<Message>& messages) {
    double sum = 0.0;
    for (const Message& m : messages) sum += m.aux;
    rec->aux = base + damping * sum;
    return false;
  };
  p.fold = Fold::kSum;
  p.iterations = params.iterations;
  return p;
}

// STATS' first job: vertices exchange adjacency lists, and each computes
// its local clustering coefficient into aux.
VertexProgram LccProgram() {
  VertexProgram p;
  p.init = [](VertexId) { return GraphRecord{}; };
  p.message = [](const GraphRecord& rec,
                 uint32_t) -> std::optional<std::string> {
    if (rec.adjacency.size() < 2) return std::nullopt;
    return EncodeMessage(static_cast<int64_t>(rec.adjacency.size()), 0.0,
                         rec.adjacency);
  };
  p.update = [](GraphRecord* rec, const std::vector<Message>& messages) {
    const std::vector<VertexId>& mine = rec->adjacency;
    const uint64_t deg = mine.size();
    if (deg < 2) return false;
    uint64_t links = 0;
    for (const Message& m : messages) {
      const std::vector<VertexId>& theirs = m.ids;
      size_t a = 0;
      size_t b = 0;
      while (a < theirs.size() && b < mine.size()) {
        if (theirs[a] < mine[b]) {
          ++a;
        } else if (theirs[a] > mine[b]) {
          ++b;
        } else {
          ++links;
          ++a;
          ++b;
        }
      }
    }
    rec->aux = static_cast<double>(links) /
               (static_cast<double>(deg) * static_cast<double>(deg - 1));
    return false;
  };
  return p;
}

// STATS' second job: every graph record sends (1, lcc) to key 0, where
// the kSum FoldCombiner totals them.
class LccAggregateMapper : public Mapper {
 public:
  void Map(const Record& input, Emitter* out, Counters*) override {
    auto rec = DecodeGraphRecord(input.value);
    if (!rec.ok()) return;
    out->Emit(0, EncodeMessage(1, rec->aux));
  }
};

// ------------------------------------------------------- EVO mapper/reducer
//
// Fire records (key = fire index); the graph rides in the distributed
// cache (a binary edge file every mapper loads once).

class EvoMapper : public Mapper {
 public:
  EvoMapper(std::shared_ptr<const Graph> graph, EvoParams params)
      : graph_(std::move(graph)), params_(params) {}

  void Map(const Record& input, Emitter* out, Counters* counters) override {
    uint32_t fire = static_cast<uint32_t>(input.key);
    VertexId ambassador = ForestFireAmbassador(*graph_, params_, fire);
    std::vector<VertexId> burned =
        ForestFireBurn(*graph_, ambassador, params_, fire);
    VertexId new_vertex = graph_->num_vertices() + fire;
    for (VertexId b : burned) {
      out->Emit(new_vertex, EncodeMessage(static_cast<int64_t>(b)));
    }
    counters->Increment("traversed", burned.size());
  }

 private:
  std::shared_ptr<const Graph> graph_;
  EvoParams params_;
};

class EvoReducer : public Reducer {
 public:
  void Reduce(uint64_t key, const std::vector<std::string>& values,
              Emitter* out, Counters*) override {
    for (const std::string& v : values) out->Emit(key, v);
  }
};

// ------------------------------------------------------------- part files

// Calls `fn` on every record of the part files `paths`, in order.
Status ForEachRecord(const std::vector<std::string>& paths,
                     const std::function<Status(const Record&)>& fn) {
  for (const std::string& path : paths) {
    GLY_ASSIGN_OR_RETURN(RecordFileReader reader, RecordFileReader::Open(path));
    Record record;
    for (;;) {
      GLY_ASSIGN_OR_RETURN(bool more, reader.Next(&record));
      if (!more) break;
      GLY_RETURN_NOT_OK(fn(record));
    }
  }
  return Status::OK();
}

// The adjacency a graph record carries: out-neighbours, plus in-neighbours
// of a directed graph when `union_in`.
std::vector<VertexId> Adjacency(const Graph& graph, VertexId v,
                                bool union_in) {
  auto out_nbrs = graph.OutNeighbors(v);
  std::vector<VertexId> adjacency(out_nbrs.begin(), out_nbrs.end());
  if (union_in && !graph.undirected()) {
    auto in_nbrs = graph.InNeighbors(v);
    adjacency.insert(adjacency.end(), in_nbrs.begin(), in_nbrs.end());
    std::sort(adjacency.begin(), adjacency.end());
    adjacency.erase(std::unique(adjacency.begin(), adjacency.end()),
                    adjacency.end());
  }
  return adjacency;
}

// ----------------------------------------------------------------- driver

class Driver {
 public:
  Driver(const PlatformConfig& config, const Graph& graph)
      : config_(config),
        graph_(graph),
        pool_(std::max(1u, config.job.num_mappers)) {}

  Result<AlgorithmOutput> Run(AlgorithmKind kind,
                              const AlgorithmParams& params);

  const ChainStats& chain() const { return chain_; }
  uint64_t traversed() const {
    return traversed_total_ + counters_.Get("traversed");
  }

 private:
  Result<std::vector<std::string>> RunJob(
      const std::vector<std::string>& inputs, const std::string& out_dir,
      MapperFactory mf, ReducerFactory rf, ReducerFactory cf = nullptr);
  Result<std::vector<std::string>> WriteParts(
      const std::string& name, uint64_t count,
      const std::function<std::string(uint64_t)>& value);
  Result<std::vector<std::string>> RunChain(const VertexProgram& program);
  Result<AlgorithmOutput> RunVertexValues(const VertexProgram& program);
  Result<AlgorithmOutput> RunPr(const PrParams& params);
  Result<AlgorithmOutput> RunStats();
  Result<AlgorithmOutput> RunEvo(const EvoParams& params);

  const PlatformConfig& config_;
  const Graph& graph_;
  ThreadPool pool_;
  Counters counters_;
  ChainStats chain_;
  uint64_t traversed_total_ = 0;
};

Result<std::vector<std::string>> Driver::RunJob(
    const std::vector<std::string>& inputs, const std::string& out_dir,
    MapperFactory mf, ReducerFactory rf, ReducerFactory cf) {
  // Chained iterative algorithms stop between jobs: the job itself also
  // polls between splits/groups, so a cancelled chain unwinds within one
  // task's worth of work.
  GLY_RETURN_NOT_OK(CheckCancel(config_.job.cancel));
  Job job(config_.job, std::move(mf), std::move(rf), std::move(cf));
  JobStats stats;
  GLY_ASSIGN_OR_RETURN(auto outputs,
                       job.Run(inputs, out_dir, &pool_, &counters_, &stats));
  ++chain_.jobs_run;
  chain_.total_spill_bytes += stats.spill_bytes;
  chain_.total_shuffle_bytes += stats.shuffle_bytes;
  chain_.total_output_bytes += stats.output_bytes;
  if (stats.map_stage_recovered) ++chain_.map_stages_recovered;
  if (config_.job.cancel != nullptr) config_.job.cancel->Heartbeat();
  return outputs;
}

// Writes records (i, value(i)) for i < count into one part file per
// mapper under work_dir/`name`, record i to part i % parts.
Result<std::vector<std::string>> Driver::WriteParts(
    const std::string& name, uint64_t count,
    const std::function<std::string(uint64_t)>& value) {
  const uint32_t parts = std::max(1u, config_.job.num_mappers);
  const std::string dir = config_.work_dir + "/" + name;
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::vector<std::string> paths;
  std::vector<RecordFileWriter> writers;
  for (uint32_t p = 0; p < parts; ++p) {
    paths.push_back(dir + StringPrintf("/part-%05u", p));
    GLY_ASSIGN_OR_RETURN(RecordFileWriter w,
                         RecordFileWriter::Open(paths.back()));
    writers.push_back(std::move(w));
  }
  for (uint64_t i = 0; i < count; ++i) {
    GLY_RETURN_NOT_OK(writers[i % parts].Append(i, value(i)));
  }
  for (auto& w : writers) GLY_RETURN_NOT_OK(w.Close());
  return paths;
}

// Writes the initial state, then runs one job of `program` per iteration;
// returns the final state's part files.
Result<std::vector<std::string>> Driver::RunChain(
    const VertexProgram& program) {
  GLY_ASSIGN_OR_RETURN(
      std::vector<std::string> state,
      WriteParts("state-init", graph_.num_vertices(), [&](uint64_t v) {
        const VertexId vertex = static_cast<VertexId>(v);
        GraphRecord rec = program.init(vertex);
        rec.adjacency = Adjacency(graph_, vertex, program.union_adjacency);
        return EncodeGraphRecord(rec);
      }));
  const ReducerFactory combiner =
      program.fold == Fold::kNone
          ? nullptr
          : ReducerFactory([fold = program.fold] {
              return std::make_unique<FoldCombiner>(fold);
            });
  for (uint32_t iter = 1; iter <= program.iterations; ++iter) {
    traversed_total_ += counters_.Get("traversed");
    counters_.Reset();
    GLY_ASSIGN_OR_RETURN(
        state,
        RunJob(
            state, config_.work_dir + "/iter-" + std::to_string(iter),
            [&program, iter] {
              return std::make_unique<VertexMapper>(program, iter);
            },
            [&program] { return std::make_unique<VertexReducer>(program); },
            combiner));
    if (program.until_no_update && counters_.Get("updated") == 0) break;
  }
  return state;
}

// BFS, CONN and CD: the final state per vertex is the output.
Result<AlgorithmOutput> Driver::RunVertexValues(const VertexProgram& program) {
  GLY_ASSIGN_OR_RETURN(std::vector<std::string> state, RunChain(program));
  AlgorithmOutput out;
  out.vertex_values.assign(graph_.num_vertices(), 0);
  GLY_RETURN_NOT_OK(ForEachRecord(state, [&](const Record& r) -> Status {
    GLY_ASSIGN_OR_RETURN(GraphRecord rec, DecodeGraphRecord(r.value));
    if (r.key < graph_.num_vertices()) out.vertex_values[r.key] = rec.state;
    return Status::OK();
  }));
  return out;
}

Result<AlgorithmOutput> Driver::RunPr(const PrParams& params) {
  GLY_ASSIGN_OR_RETURN(std::vector<std::string> state,
                       RunChain(PrProgram(params, graph_.num_vertices())));
  AlgorithmOutput out;
  out.vertex_scores.assign(graph_.num_vertices(), 0.0);
  GLY_RETURN_NOT_OK(ForEachRecord(state, [&](const Record& r) -> Status {
    GLY_ASSIGN_OR_RETURN(GraphRecord rec, DecodeGraphRecord(r.value));
    if (r.key < graph_.num_vertices()) out.vertex_scores[r.key] = rec.aux;
    return Status::OK();
  }));
  return out;
}

Result<AlgorithmOutput> Driver::RunStats() {
  GLY_ASSIGN_OR_RETURN(std::vector<std::string> state,
                       RunChain(LccProgram()));
  auto sum = [] { return std::make_unique<FoldCombiner>(Fold::kSum); };
  GLY_ASSIGN_OR_RETURN(
      auto agg,
      RunJob(state, config_.work_dir + "/lcc-agg",
             [] { return std::make_unique<LccAggregateMapper>(); }, sum, sum));
  AlgorithmOutput out;
  out.stats.num_vertices = graph_.num_vertices();
  out.stats.num_edges = graph_.num_edges();
  double lcc_sum = 0.0;
  int64_t count = 0;
  GLY_RETURN_NOT_OK(ForEachRecord(agg, [&](const Record& r) {
    auto m = DecodeMessage(r.value);
    if (m.ok()) {
      lcc_sum += m->aux;
      count += m->payload;
    }
    return Status::OK();
  }));
  out.stats.mean_local_clustering =
      count > 0 ? lcc_sum / static_cast<double>(count) : 0.0;
  return out;
}

Result<AlgorithmOutput> Driver::RunEvo(const EvoParams& params) {
  // Fire-seed input records.
  GLY_ASSIGN_OR_RETURN(
      std::vector<std::string> fires,
      WriteParts("fires", params.num_new_vertices,
                 [](uint64_t) { return std::string(); }));

  // Distributed cache: write the graph once, each mapper instance loads it.
  // (A single shared immutable instance stands in for the per-process copy
  // every Hadoop mapper would deserialize.)
  std::string cache_path = config_.work_dir + "/cache-graph.bin";
  GLY_RETURN_NOT_OK(WriteEdgeListBinary(graph_.ToEdgeList(), cache_path));
  GLY_ASSIGN_OR_RETURN(EdgeList cached_edges, ReadEdgeListBinary(cache_path));
  Result<Graph> cached = graph_.undirected()
                             ? GraphBuilder::Undirected(cached_edges)
                             : GraphBuilder::Directed(cached_edges);
  GLY_RETURN_NOT_OK(cached.status());
  auto shared_graph =
      std::make_shared<const Graph>(std::move(cached).ValueOrDie());

  GLY_ASSIGN_OR_RETURN(
      auto outputs,
      RunJob(fires, config_.work_dir + "/evo-out",
             [shared_graph, params] {
               return std::make_unique<EvoMapper>(shared_graph, params);
             },
             [] { return std::make_unique<EvoReducer>(); }));

  AlgorithmOutput out;
  GLY_RETURN_NOT_OK(ForEachRecord(outputs, [&](const Record& r) {
    auto m = DecodeMessage(r.value);
    if (m.ok()) {
      out.new_edges.Add(static_cast<VertexId>(r.key),
                        static_cast<VertexId>(m->payload));
    }
    return Status::OK();
  }));
  out.new_edges.EnsureVertices(graph_.num_vertices() + params.num_new_vertices);
  return out;
}

Result<AlgorithmOutput> Driver::Run(AlgorithmKind kind,
                                    const AlgorithmParams& params) {
  switch (kind) {
    case AlgorithmKind::kBfs:
      return RunVertexValues(BfsProgram(params.bfs, config_.max_iterations));
    case AlgorithmKind::kConn:
      return RunVertexValues(ConnProgram(config_.max_iterations));
    case AlgorithmKind::kCd:
      return RunVertexValues(CdProgram(params.cd));
    case AlgorithmKind::kPr:
      return RunPr(params.pr);
    case AlgorithmKind::kStats:
      return RunStats();
    case AlgorithmKind::kEvo:
      return RunEvo(params.evo);
  }
  return Status::Internal("unreached");
}

}  // namespace

Result<AlgorithmOutput> RunAlgorithm(const PlatformConfig& config,
                                     const Graph& graph, AlgorithmKind kind,
                                     const AlgorithmParams& params,
                                     ChainStats* stats_out) {
  if (config.work_dir.empty()) {
    return Status::InvalidArgument("PlatformConfig.work_dir is required");
  }
  std::error_code ec;
  fs::create_directories(config.work_dir, ec);

  // Install the harness cancellation token (if any) into the job config so
  // every chained job, map task, and reduce task observes it.
  PlatformConfig run_config = config;
  if (params.cancel != nullptr && run_config.job.cancel == nullptr) {
    run_config.job.cancel = params.cancel;
  }
  Driver driver(run_config, graph);
  Result<AlgorithmOutput> result = driver.Run(kind, params);
  // Remove iteration state (keeps disk usage bounded across bench sweeps).
  // A failed run keeps it only under map-stage checkpointing: the retry
  // restores its manifests and spill runs.
  if (result.ok() || !config.job.checkpoint_map_stage) {
    fs::remove_all(config.work_dir, ec);
  }
  if (!result.ok()) return result.status();
  AlgorithmOutput out = std::move(result).ValueOrDie();
  out.traversed_edges = driver.traversed();
  if (out.traversed_edges == 0) {
    out.traversed_edges = graph.num_adjacency_entries();
  }
  if (stats_out != nullptr) *stats_out = driver.chain();
  return out;
}

}  // namespace gly::mapreduce
