// Graph I/O: the Graphalytics dataset interchange formats.
//
// Text format (".e" edge files, as used by LDBC Graphalytics): one edge per
// line, `src dst`, '#'-prefixed comment lines allowed. A companion ".v"
// vertex file (one vertex id per line) is optional; when absent the vertex
// set is inferred from edge endpoints.
//
// Binary format: a compact little-endian dump used for the preconfigured
// dataset cache ("a database for Datasets, which includes preconfigured
// graphs ready to be used").

#pragma once

#include <string>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/threadpool.h"
#include "graph/edge_list.h"

namespace gly {

/// Policy for text-edge-file parsing. Malformed input — truncated lines,
/// non-numeric tokens, ids that overflow VertexId — is always rejected
/// with a `file:line:` prefixed error; the options control cleanup of
/// well-formed but messy input (real-world edge dumps routinely carry
/// self-loops and repeated edges).
struct EdgeListParseOptions {
  bool drop_self_loops = false;  ///< discard edges with src == dst
  bool drop_duplicates = false;  ///< discard repeated (src, dst) pairs
  /// Reject vertex ids above this bound (inclusive). Defaults to the
  /// representable maximum; lower it to catch runaway ids early.
  uint64_t max_vertex_id = kInvalidVertex - 1;
};

/// Writes `edges` as a text edge file (one `src dst` line per edge).
Status WriteEdgeListText(const EdgeList& edges, const std::string& path);

/// Parallelism policy for text ETL. The file is slurped and split at
/// newline boundaries; with a pool the chunks parse concurrently, without
/// one the whole file parses as a single chunk on the calling thread. Edge
/// order, vertex bound and — for malformed input — the `file:line:`
/// error of the earliest offending line are the same either way, so the
/// pool is purely a performance choice.
struct EtlOptions {
  ThreadPool* pool = nullptr;  ///< null = parse inline on the caller
  /// Cooperative cancellation (null = unsupervised): polled every few
  /// thousand lines of each chunk; a cancelled parse returns the token's
  /// Status.
  const CancelToken* cancel = nullptr;
};

/// Reads a text edge file.
Result<EdgeList> ReadEdgeListText(const std::string& path,
                                  const EdgeListParseOptions& options = {},
                                  const EtlOptions& etl = {});

/// Writes the compact binary format (magic, counts, raw edge array).
Status WriteEdgeListBinary(const EdgeList& edges, const std::string& path);

/// Reads the compact binary format.
Result<EdgeList> ReadEdgeListBinary(const std::string& path);

/// Writes the companion ".v" vertex file: one vertex id per line for every
/// vertex in [0, num_vertices). (LDBC Graphalytics datasets ship a ".v"
/// alongside each ".e" so isolated vertices are representable.)
Status WriteVertexFile(const EdgeList& edges, const std::string& path);

/// Reads a ".v" vertex file and raises `edges`' vertex bound to cover every
/// listed id, so vertices that appear only in the vertex file (isolated
/// vertices) are part of the graph.
Status ApplyVertexFile(const std::string& path, EdgeList* edges);

/// Loads a Graphalytics dataset: `<prefix>.e` (required) plus
/// `<prefix>.v` (optional). The edge file honours `etl` (the vertex file
/// is a tiny id list and always reads on the caller).
Result<EdgeList> ReadGraphalyticsDataset(
    const std::string& prefix, const EdgeListParseOptions& options = {},
    const EtlOptions& etl = {});

}  // namespace gly
