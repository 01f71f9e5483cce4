#include "graph/io.h"

#include <algorithm>
#include <charconv>
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

/// Whitespace as `std::isspace` reads it in the "C" locale (and `Trim`
/// strips it): space, \t, \n, \v, \f and \r.
constexpr bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// An InvalidArgument naming `path`'s line `line_no`. Concatenated, not
/// formatted, so a detail that quotes input bytes keeps them all.
Status LineError(const std::string& path, size_t line_no,
                 std::string_view detail) {
  std::string message = path;
  message += ':';
  message += std::to_string(line_no);
  message += ": ";
  message += detail;
  return Status::InvalidArgument(std::move(message));
}

/// Converts all of `token` with `std::from_chars`; on a non-numeric token,
/// trailing garbage (a second id on a `.v` line, say) or uint64 overflow,
/// `ParseUint64`'s message behind the line prefix.
Status ParseId(std::string_view token, const std::string& path,
               size_t line_no, uint64_t* value) {
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  if (ec == std::errc() && ptr == end) return Status::OK();
  std::string detail = "cannot parse uint64: '";
  detail += token;
  detail += '\'';
  return LineError(path, line_no, detail);
}

/// Parses one text edge line (no trailing newline) in place: the first two
/// whitespace-separated fields are `src dst`, later fields are ignored. On
/// success sets `*keep` (false for comments, blanks, and dropped
/// self-loops) and `*edge` when kept. Every error carries a `path:line:`
/// prefix naming the offending line.
Status ParseEdgeLine(std::string_view line, const std::string& path,
                     size_t line_no, const EdgeListParseOptions& options,
                     uint64_t id_limit, bool* keep, Edge* edge) {
  *keep = false;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (p < end && IsSpace(*p)) ++p;
  if (p == end || *p == '#') return Status::OK();
  std::string_view fields[2];
  for (std::string_view& field : fields) {
    while (p < end && IsSpace(*p)) ++p;
    const char* start = p;
    while (p < end && !IsSpace(*p)) ++p;
    if (p == start) return LineError(path, line_no, "expected 'src dst'");
    field = std::string_view(start, static_cast<size_t>(p - start));
  }
  uint64_t src = 0;
  uint64_t dst = 0;
  GLY_RETURN_NOT_OK(ParseId(fields[0], path, line_no, &src));
  GLY_RETURN_NOT_OK(ParseId(fields[1], path, line_no, &dst));
  if (src > id_limit || dst > id_limit) {
    return LineError(path, line_no,
                     "vertex id " + std::to_string(std::max(src, dst)) +
                         " exceeds limit " + std::to_string(id_limit));
  }
  if (options.drop_self_loops && src == dst) return Status::OK();
  *keep = true;
  *edge = Edge{static_cast<VertexId>(src), static_cast<VertexId>(dst)};
  return Status::OK();
}

/// Reads the whole file at `path` into `*buffer`. A short read (disk error
/// mid-file) is an IOError, never silently truncated input.
Status ReadWholeFile(const std::string& path, std::string* buffer) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff file_size = in.tellg();
  if (file_size < 0) return Status::IOError("read failed: " + path);
  buffer->resize(static_cast<size_t>(file_size));
  in.seekg(0);
  in.read(buffer->data(), file_size);
  if (in.bad() || in.gcount() != file_size) {
    return Status::IOError("read failed: " + path);
  }
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
  // newlines.
  std::string buffer;
  GLY_RETURN_NOT_OK(ReadWholeFile(path, &buffer));
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
    start_line[c + 1] = static_cast<size_t>(
        std::count(text.begin() + static_cast<ptrdiff_t>(bounds[c]),
                   text.begin() + static_cast<ptrdiff_t>(bounds[c + 1]), '\n'));
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
  std::string buffer;
  GLY_RETURN_NOT_OK(ReadWholeFile(path, &buffer));
  const std::string_view text(buffer);
  size_t line_no = 0;
  for (size_t pos = 0; pos < text.size();) {
    const size_t nl = std::min(text.find('\n', pos), text.size());
    const std::string_view id = Trim(text.substr(pos, nl - pos));
    pos = nl + 1;
    ++line_no;
    if (id.empty() || id[0] == '#') continue;
    uint64_t v = 0;
    GLY_RETURN_NOT_OK(ParseId(id, path, line_no, &v));
    if (v >= kInvalidVertex) {
      return LineError(path, line_no, "vertex id too large");
    }
    edges->EnsureVertices(static_cast<VertexId>(v) + 1);
  }
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
