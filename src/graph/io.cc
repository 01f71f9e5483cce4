#include "graph/io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string_view>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/perf_counters.h"
#include "common/trace.h"

namespace gly {

namespace {
constexpr char kMagic[8] = {'G', 'L', 'Y', 'E', 'D', 'G', 'E', '1'};

/// Clamped vertex-id bound of the text parser.
uint64_t IdLimit(const EdgeListParseOptions& options) {
  return std::min<uint64_t>(options.max_vertex_id, kInvalidVertex - 1);
}

/// Parses one text edge line (getline semantics: no trailing newline).
/// On success sets `*keep` (false for comments, blanks, and dropped
/// self-loops) and `*edge` when kept. Every error carries a `path:line:`
/// prefix naming the offending line.
Status ParseEdgeLine(std::string_view raw, const std::string& path,
                     size_t line_no, const EdgeListParseOptions& options,
                     uint64_t id_limit, bool* keep, Edge* edge) {
  *keep = false;
  std::string_view sv = Trim(raw);
  if (sv.empty() || sv[0] == '#') return Status::OK();
  auto fields = SplitWhitespace(sv);
  if (fields.size() < 2) {
    return Status::InvalidArgument(
        StringPrintf("%s:%zu: expected 'src dst'", path.c_str(), line_no));
  }
  // Prefix parse failures (non-numeric tokens, uint64 overflow, trailing
  // garbage) with the offending location.
  auto src_parsed = ParseUint64(fields[0]);
  auto dst_parsed = ParseUint64(fields[1]);
  if (!src_parsed.ok() || !dst_parsed.ok()) {
    const Status& bad =
        src_parsed.ok() ? dst_parsed.status() : src_parsed.status();
    return bad.WithPrefix(StringPrintf("%s:%zu", path.c_str(), line_no));
  }
  uint64_t src = src_parsed.ValueOrDie();
  uint64_t dst = dst_parsed.ValueOrDie();
  if (src > id_limit || dst > id_limit) {
    return Status::InvalidArgument(StringPrintf(
        "%s:%zu: vertex id %llu exceeds limit %llu", path.c_str(), line_no,
        (unsigned long long)std::max(src, dst), (unsigned long long)id_limit));
  }
  if (options.drop_self_loops && src == dst) return Status::OK();
  *keep = true;
  *edge = Edge{static_cast<VertexId>(src), static_cast<VertexId>(dst)};
  return Status::OK();
}

// Runs `fn(c)` for every chunk c in [0, n): across `pool`, or in order on
// the calling thread when there is none.
void ForEachChunk(ThreadPool* pool, size_t n,
                  const std::function<void(size_t)>& fn,
                  const CancelToken* cancel = nullptr) {
  if (pool != nullptr) {
    pool->ParallelFor(0, n, 1, fn, cancel);
    return;
  }
  for (size_t c = 0; c < n; ++c) fn(c);
}

}  // namespace

Status WriteEdgeListText(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << "# graphalytics edge list: " << edges.num_vertices() << " vertices, "
      << edges.num_edges() << " edges\n";
  for (const Edge& e : edges.edges()) {
    out << e.src << ' ' << e.dst << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EdgeList> ReadEdgeListText(const std::string& path,
                                  const EdgeListParseOptions& options,
                                  const EtlOptions& etl) {
  trace::TraceSpan parse_span("etl.parse", "etl");
  perf::SpanCounters parse_counters(&parse_span);
  ThreadPool* pool = etl.pool;

  // Whole-file slurp: chunk boundaries need random access to land on
  // newlines. A short read (disk error mid-file) is an IOError, never a
  // silently truncated graph.
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff file_size = in.tellg();
  if (file_size < 0) return Status::IOError("read failed: " + path);
  std::string buffer;
  buffer.resize(static_cast<size_t>(file_size));
  in.seekg(0);
  in.read(buffer.data(), file_size);
  if (in.bad() || in.gcount() != file_size) {
    return Status::IOError("read failed: " + path);
  }
  in.close();
  const std::string_view text(buffer);

  // Chunk boundaries: several chunks per pool thread (one without a pool),
  // each starting right after a newline so no line is split across chunks.
  std::vector<size_t> bounds;
  bounds.push_back(0);
  const size_t want_chunks =
      pool != nullptr ? std::max<size_t>(1, pool->num_threads() * 4) : 1;
  const size_t approx = std::max<size_t>(1, text.size() / want_chunks);
  for (size_t c = 1; c < want_chunks; ++c) {
    size_t pos = std::min(text.size(), c * approx);
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) break;
    if (nl + 1 > bounds.back() && nl + 1 < text.size()) {
      bounds.push_back(nl + 1);
    }
  }
  bounds.push_back(text.size());
  const size_t num_chunks = bounds.size() - 1;

  // Phase 1: newline counts of every chunk but the last, so each chunk
  // knows the 1-based line number it starts at for its error messages.
  std::vector<size_t> start_line(num_chunks, 0);
  ForEachChunk(pool, num_chunks - 1, [&](size_t c) {
    size_t newlines = 0;
    for (size_t pos = bounds[c]; pos < bounds[c + 1];) {
      size_t nl = text.find('\n', pos);
      if (nl == std::string_view::npos || nl >= bounds[c + 1]) break;
      ++newlines;
      pos = nl + 1;
    }
    start_line[c + 1] = newlines;
  });
  start_line[0] = 1;
  for (size_t c = 1; c < num_chunks; ++c) start_line[c] += start_line[c - 1];

  // Phase 2: parse the chunks. Each failure remembers its line so the
  // earliest one in the file wins.
  struct ChunkResult {
    EdgeList edges;
    Status status = Status::OK();
    size_t error_line = 0;
  };
  const uint64_t id_limit = IdLimit(options);
  std::vector<ChunkResult> chunks(num_chunks);
  ForEachChunk(
      pool, num_chunks,
      [&](size_t c) {
    ChunkResult& out = chunks[c];
    // Cross-thread spans: one per chunk, on whichever thread runs it.
    trace::TraceSpan chunk_span("etl.parse.chunk", "etl");
    chunk_span.SetAttribute("chunk", uint64_t{c});
    size_t line_no = start_line[c] - 1;
    size_t pos = bounds[c];
    while (pos < bounds[c + 1]) {
      if (line_no % 4096 == 0 && Cancelled(etl.cancel)) return;
      size_t nl = text.find('\n', pos);
      const size_t line_end =
          (nl == std::string_view::npos || nl > bounds[c + 1]) ? bounds[c + 1]
                                                               : nl;
      std::string_view line = text.substr(pos, line_end - pos);
      pos = line_end + 1;
      ++line_no;
      bool keep = false;
      Edge edge{0, 0};
      Status s = ParseEdgeLine(line, path, line_no, options, id_limit, &keep,
                               &edge);
      if (!s.ok()) {
        out.status = std::move(s);
        out.error_line = line_no;
        return;
      }
      if (keep) out.edges.Add(edge.src, edge.dst);
    }
      },
      etl.cancel);
  // A cancelled parse may have produced partial chunks; surface the token's
  // Status before the first-error scan so it wins over nothing.
  GLY_RETURN_NOT_OK(CheckCancel(etl.cancel));

  const ChunkResult* first_error = nullptr;
  for (const ChunkResult& chunk : chunks) {
    if (chunk.status.ok()) continue;
    if (first_error == nullptr || chunk.error_line < first_error->error_line) {
      first_error = &chunk;
    }
  }
  if (first_error != nullptr) return first_error->status;

  // The first chunk's list is the result (a single chunk is never copied);
  // the others append to it in file order.
  size_t total = 0;
  for (const ChunkResult& chunk : chunks) total += chunk.edges.num_edges();
  EdgeList edges = std::move(chunks[0].edges);
  edges.Reserve(total);
  for (size_t c = 1; c < num_chunks; ++c) edges.Append(chunks[c].edges);
  if (options.drop_duplicates) edges.Deduplicate();
  parse_span.SetAttribute("edges", uint64_t{edges.num_edges()});
  parse_span.SetAttribute("chunks", uint64_t{num_chunks});
  metrics::AddCounter("etl.edges_parsed", edges.num_edges());
  return edges;
}

Status WriteEdgeListBinary(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(kMagic, sizeof(kMagic));
  uint64_t nv = edges.num_vertices();
  uint64_t ne = edges.num_edges();
  out.write(reinterpret_cast<const char*>(&nv), sizeof(nv));
  out.write(reinterpret_cast<const char*>(&ne), sizeof(ne));
  out.write(reinterpret_cast<const char*>(edges.edges().data()),
            static_cast<std::streamsize>(ne * sizeof(Edge)));
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EdgeList> ReadEdgeListBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  uint64_t nv = 0;
  uint64_t ne = 0;
  in.read(reinterpret_cast<char*>(&nv), sizeof(nv));
  in.read(reinterpret_cast<char*>(&ne), sizeof(ne));
  if (!in) return Status::IOError("truncated header in " + path);
  if (nv > kInvalidVertex) {
    return Status::InvalidArgument("vertex count too large in " + path);
  }
  // Sanity-check the declared edge count against the file size before
  // allocating: a corrupt header must not turn into a huge allocation.
  std::error_code ec;
  uint64_t file_size = std::filesystem::file_size(path, ec);
  constexpr uint64_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(uint64_t);
  if (ec || file_size < kHeaderBytes ||
      ne > (file_size - kHeaderBytes) / sizeof(Edge)) {
    return Status::InvalidArgument(StringPrintf(
        "%s: header declares %llu edges but file has %llu bytes",
        path.c_str(), (unsigned long long)ne, (unsigned long long)file_size));
  }
  EdgeList edges(static_cast<VertexId>(nv));
  edges.mutable_edges().resize(ne);
  in.read(reinterpret_cast<char*>(edges.mutable_edges().data()),
          static_cast<std::streamsize>(ne * sizeof(Edge)));
  if (!in) return Status::IOError("truncated edge data in " + path);
  for (const Edge& e : edges.edges()) {
    if (e.src >= nv || e.dst >= nv) {
      return Status::InvalidArgument("edge endpoint out of range in " + path);
    }
  }
  return edges;
}

Status WriteVertexFile(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  for (VertexId v = 0; v < edges.num_vertices(); ++v) {
    out << v << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status ApplyVertexFile(const std::string& path, EdgeList* edges) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv[0] == '#') continue;
    GLY_ASSIGN_OR_RETURN(uint64_t v, ParseUint64(sv));
    if (v >= kInvalidVertex) {
      return Status::InvalidArgument(
          StringPrintf("%s:%zu: vertex id too large", path.c_str(), line_no));
    }
    edges->EnsureVertices(static_cast<VertexId>(v) + 1);
  }
  // EOF and a failed read are different things: a mid-file error must
  // surface, never silently drop the rest of the ids.
  if (in.bad()) return Status::IOError("read failed: " + path);
  return Status::OK();
}

Result<EdgeList> ReadGraphalyticsDataset(const std::string& prefix,
                                         const EdgeListParseOptions& options,
                                         const EtlOptions& etl) {
  GLY_ASSIGN_OR_RETURN(EdgeList edges,
                       ReadEdgeListText(prefix + ".e", options, etl));
  std::ifstream probe(prefix + ".v");
  if (probe) {
    probe.close();
    GLY_RETURN_NOT_OK(ApplyVertexFile(prefix + ".v", &edges));
  }
  return edges;
}

}  // namespace gly
