// Traversal framework over the GraphStore — the Neo4j Traversal-API analog.
//
// Visits nodes breadth-first from a seed node, streaming (node, depth)
// pairs to a visitor; the direction selects which relationships to follow.

#pragma once

#include <functional>

#include "common/cancellation.h"
#include "graphdb/store.h"

namespace gly::graphdb {

/// Traversal statistics (drives the TEPS metric for this platform).
struct TraversalStats {
  uint64_t nodes_visited = 0;
  uint64_t relationships_expanded = 0;
  uint32_t max_depth = 0;
};

/// Runs a breadth-first traversal from `seed` across the relationships
/// `direction` selects. `visit(node, depth)` is called once per discovered
/// node, the seed first at depth 0. Before the first visit and every 1024
/// visits after it, the walk polls `cancel` (optional) and heartbeats it; a
/// cancelled walk returns the token's Status. Fails on store I/O errors.
Status Traverse(GraphStore* store, VertexId seed, Direction direction,
                const std::function<void(VertexId, uint32_t)>& visit,
                const CancelToken* cancel = nullptr,
                TraversalStats* stats_out = nullptr);

}  // namespace gly::graphdb
