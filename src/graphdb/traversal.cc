#include "graphdb/traversal.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/macros.h"

namespace gly::graphdb {

namespace {

// Record-chain walks are cheap per step, so the token is polled every
// this-many visits.
constexpr uint64_t kCancelPoll = 1024;

}  // namespace

Status Traverse(GraphStore* store, VertexId seed, Direction direction,
                const std::function<void(VertexId, uint32_t)>& visit,
                const CancelToken* cancel, TraversalStats* stats_out) {
  if (seed >= store->node_count()) {
    return Status::InvalidArgument("seed node out of range");
  }
  TraversalStats stats;
  std::vector<uint8_t> seen(store->node_count(), 0);
  std::deque<std::pair<VertexId, uint32_t>> frontier;  // (node, depth)
  frontier.emplace_back(seed, 0);
  seen[seed] = 1;
  std::vector<VertexId> neighbors;
  PageCache::Cursor cursor = store->ReadCursor();
  while (!frontier.empty()) {
    if (stats.nodes_visited % kCancelPoll == 0) {
      GLY_RETURN_NOT_OK(CheckCancel(cancel));
      if (cancel != nullptr) cancel->Heartbeat();
    }
    auto [node, depth] = frontier.front();
    frontier.pop_front();
    ++stats.nodes_visited;
    stats.max_depth = std::max(stats.max_depth, depth);
    visit(node, depth);
    GLY_RETURN_NOT_OK(
        store->CollectNeighbors(node, direction, cursor, &neighbors));
    stats.relationships_expanded += neighbors.size();
    for (VertexId w : neighbors) {
      if (!seen[w]) {
        seen[w] = 1;
        frontier.emplace_back(w, depth + 1);
      }
    }
  }
  if (stats_out != nullptr) *stats_out = stats;
  return Status::OK();
}

}  // namespace gly::graphdb
