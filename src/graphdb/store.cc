#include "graphdb/store.h"

#include <algorithm>
#include <filesystem>
#include <span>

#include "common/macros.h"
#include "common/perf_counters.h"
#include "common/trace.h"

namespace gly::graphdb {

namespace fs = std::filesystem;

namespace {

struct NodeRecord {
  uint64_t first_rel = kNilRecord;
  uint64_t first_prop = kNilRecord;  // reserved: the store has no properties
};

struct RelRecord {
  uint32_t src = 0;
  uint32_t dst = 0;
  uint64_t src_next = kNilRecord;
  uint64_t dst_next = kNilRecord;
  uint64_t in_use = 0;
};

struct MetaRecord {
  uint64_t node_count = 0;
  uint64_t rel_count = 0;
};

static_assert(sizeof(NodeRecord) == 16);
static_assert(sizeof(RelRecord) == 32);

}  // namespace

Result<std::unique_ptr<GraphStore>> GraphStore::Open(
    const StoreConfig& config) {
  if (config.directory.empty()) {
    return Status::InvalidArgument("StoreConfig.directory is required");
  }
  std::error_code ec;
  fs::create_directories(config.directory, ec);
  if (ec) {
    return Status::IOError("cannot create store dir: " + config.directory);
  }
  auto store = std::unique_ptr<GraphStore>(new GraphStore());
  store->cache_ = std::make_unique<PageCache>(config.page_cache_bytes);
  GLY_ASSIGN_OR_RETURN(store->nodes_file_,
                       store->cache_->OpenFile(config.directory + "/nodes.db"));
  GLY_ASSIGN_OR_RETURN(store->rels_file_,
                       store->cache_->OpenFile(config.directory + "/rels.db"));
  GLY_ASSIGN_OR_RETURN(store->meta_file_,
                       store->cache_->OpenFile(config.directory + "/meta.db"));
  GLY_RETURN_NOT_OK(store->LoadCounts());
  return store;
}

Status GraphStore::LoadCounts() {
  MetaRecord meta;
  GLY_RETURN_NOT_OK(cache_->Read(meta_file_, 0, &meta, sizeof(meta)));
  node_count_ = meta.node_count;
  rel_count_ = meta.rel_count;
  return Status::OK();
}

Status GraphStore::SaveCounts() {
  MetaRecord meta{node_count_, rel_count_};
  return cache_->Write(meta_file_, 0, &meta, sizeof(meta));
}

Status GraphStore::BulkImport(const Graph& graph, const CancelToken* cancel) {
  if (node_count_ != 0 || rel_count_ != 0) {
    return Status::InvalidArgument("BulkImport requires an empty store");
  }
  trace::TraceSpan import_span("graphdb.bulk_import", "graphdb");
  perf::SpanCounters import_counters(&import_span);
  import_span.SetAttribute("edges", graph.num_edges());
  // Like neo4j-admin import: records go straight to the store files, one
  // page per write, and are flushed and fsynced at the end.
  constexpr size_t kCancelBatch = 4096;
  constexpr size_t kRelsPerPage = kPageSize / kRelRecordSize;
  constexpr size_t kNodesPerPage = kPageSize / kNodeRecordSize;
  static_assert(kCancelBatch % kNodesPerPage == 0);
  // Chain heads are looked up this many targets ahead of use: a target's
  // head is a random access into `nodes`. The look-ahead stays inside a
  // row: on the SNB person graph it still reaches a third of the records,
  // those of the long rows, and cuts the record loop by about a fifth;
  // looking ahead across rows measured no faster (DESIGN.md §13).
  constexpr size_t kPrefetchDistance = 16;
  const VertexId n = graph.num_vertices();
  std::vector<NodeRecord> nodes(n);
  // The relationship records of the page that ends before `rel_id`.
  std::vector<RelRecord> page;
  page.reserve(kRelsPerPage);
  uint64_t rel_id = 0;
  auto write_page = [&] {
    const Status written =
        cache_->Write(rels_file_, (rel_id - page.size()) * kRelRecordSize,
                      page.data(), page.size() * kRelRecordSize);
    page.clear();
    return written;
  };
  for (VertexId v = 0; v < n; ++v) {
    std::span<const VertexId> row = graph.OutNeighbors(v);
    if (graph.undirected()) {
      // Each mirrored pair once, from its lower endpoint.
      row = row.subspan(static_cast<size_t>(
          std::lower_bound(row.begin(), row.end(), v) - row.begin()));
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (rel_id % kCancelBatch == 0) {
        GLY_RETURN_NOT_OK(CheckCancel(cancel));
        if (cancel != nullptr) cancel->Heartbeat();
      }
      if (i + kPrefetchDistance < row.size()) {
        __builtin_prefetch(&nodes[row[i + kPrefetchDistance]]);
      }
      // A self-loop is on the src chain only.
      const VertexId w = row[i];
      page.push_back({.src = v,
                      .dst = w,
                      .src_next = nodes[v].first_rel,
                      .dst_next = w != v ? nodes[w].first_rel : kNilRecord,
                      .in_use = 1});
      nodes[v].first_rel = rel_id;
      nodes[w].first_rel = rel_id;
      ++rel_id;
      if (page.size() == kRelsPerPage) GLY_RETURN_NOT_OK(write_page());
    }
  }
  if (!page.empty()) GLY_RETURN_NOT_OK(write_page());
  for (VertexId v = 0; v < n; v += kNodesPerPage) {
    if (v % kCancelBatch == 0) GLY_RETURN_NOT_OK(CheckCancel(cancel));
    const size_t count = std::min<size_t>(kNodesPerPage, n - v);
    GLY_RETURN_NOT_OK(cache_->Write(nodes_file_, uint64_t{v} * kNodeRecordSize,
                                    &nodes[v], count * kNodeRecordSize));
  }
  node_count_ = n;
  rel_count_ = rel_id;
  if (cancel != nullptr) cancel->Heartbeat();
  GLY_RETURN_NOT_OK(SaveCounts());
  return Checkpoint();
}

Status GraphStore::CollectNeighbors(VertexId node, Direction direction,
                                    PageCache::Cursor& cursor,
                                    std::vector<VertexId>* out) const {
  out->clear();
  if (node >= node_count_) {
    return Status::InvalidArgument("node out of range");
  }
  // The cursor walks the node record and the whole chain: consecutive
  // records on one page cost one cache lookup.
  NodeRecord node_rec;
  GLY_RETURN_NOT_OK(cursor.Read(nodes_file_, uint64_t{node} * kNodeRecordSize,
                                &node_rec, sizeof(node_rec)));
  const bool outgoing = direction != Direction::kIncoming;
  const bool incoming = direction != Direction::kOutgoing;
  uint64_t rel = node_rec.first_rel;
  while (rel != kNilRecord) {
    RelRecord rec;
    GLY_RETURN_NOT_OK(
        cursor.Read(rels_file_, rel * kRelRecordSize, &rec, sizeof(rec)));
    if (rec.in_use == 0) {
      return Status::NotFound("relationship " + std::to_string(rel));
    }
    // Choose the next pointer by which endpoint this node is. A self-loop
    // is on the src chain only, and is both an out- and an in-edge.
    if (rec.src == node) {
      if (outgoing || rec.dst == node) out->push_back(rec.dst);
      rel = rec.src_next;
    } else if (rec.dst == node) {
      if (incoming) out->push_back(rec.src);
      rel = rec.dst_next;
    } else {
      return Status::Internal("relationship chain corruption at rel " +
                              std::to_string(rel));
    }
  }
  return Status::OK();
}

Status GraphStore::Checkpoint() { return cache_->Flush(); }

uint64_t GraphStore::store_bytes() const {
  return node_count_ * kNodeRecordSize + rel_count_ * kRelRecordSize;
}

}  // namespace gly::graphdb
