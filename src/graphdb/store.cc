#include "graphdb/store.h"

#include <filesystem>

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

Status GraphStore::BulkImport(const EdgeList& edges,
                              const CancelToken* cancel) {
  if (node_count_ != 0 || rel_count_ != 0) {
    return Status::InvalidArgument("BulkImport requires an empty store");
  }
  trace::TraceSpan import_span("graphdb.bulk_import", "graphdb");
  perf::SpanCounters import_counters(&import_span);
  import_span.SetAttribute("edges", edges.num_edges());
  // Like neo4j-admin import: records go straight to the store files, which
  // are flushed and fsynced at the end.
  constexpr size_t kCancelBatch = 4096;
  // Chain heads are looked up this many edges ahead of use: a destination's
  // head is a random access into `nodes`.
  constexpr size_t kPrefetchDistance = 16;
  const VertexId n = edges.num_vertices();
  const size_t m = edges.num_edges();
  std::vector<NodeRecord> nodes(n);
  {
    // Records are written in id order, so one cursor fills each page with
    // a single lookup. It is released before SaveCounts/Checkpoint call
    // back into the cache.
    PageCache::Cursor cursor(*cache_);
    for (size_t i = 0; i < m; ++i) {
      if (i % kCancelBatch == 0) {
        GLY_RETURN_NOT_OK(CheckCancel(cancel));
        if (cancel != nullptr) cancel->Heartbeat();
      }
      if (i + kPrefetchDistance < m) {
        __builtin_prefetch(&nodes[edges.edges()[i + kPrefetchDistance].dst]);
      }
      const Edge& e = edges.edges()[i];
      uint64_t rel_id = i;
      RelRecord rel;
      rel.src = e.src;
      rel.dst = e.dst;
      rel.in_use = 1;
      rel.src_next = nodes[e.src].first_rel;
      nodes[e.src].first_rel = rel_id;
      if (e.dst != e.src) {
        rel.dst_next = nodes[e.dst].first_rel;
        nodes[e.dst].first_rel = rel_id;
      }
      GLY_RETURN_NOT_OK(cursor.Write(rels_file_, rel_id * kRelRecordSize,
                                     &rel, sizeof(rel)));
    }
    for (VertexId v = 0; v < n; ++v) {
      if (v % kCancelBatch == 0) GLY_RETURN_NOT_OK(CheckCancel(cancel));
      GLY_RETURN_NOT_OK(cursor.Write(nodes_file_,
                                     uint64_t{v} * kNodeRecordSize, &nodes[v],
                                     sizeof(NodeRecord)));
    }
  }
  node_count_ = n;
  rel_count_ = m;
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
