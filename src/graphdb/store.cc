#include "graphdb/store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/logging.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/perf_counters.h"
#include "common/trace.h"

namespace gly::graphdb {

namespace fs = std::filesystem;

namespace {

struct NodeRecord {
  uint64_t first_rel = kNilRecord;
  uint64_t first_prop = kNilRecord;
};

struct RelRecord {
  uint32_t src = 0;
  uint32_t dst = 0;
  uint64_t src_next = kNilRecord;
  uint64_t dst_next = kNilRecord;
  uint64_t in_use = 0;
};

struct PropRecord {
  uint32_t key_id = 0;
  uint32_t pad = 0;
  int64_t value = 0;
  uint64_t next = kNilRecord;
};

struct MetaRecord {
  uint64_t node_count = 0;
  uint64_t rel_count = 0;
  uint64_t prop_count = 0;
  uint64_t rel_deleted = 0;
};

static_assert(sizeof(NodeRecord) == 16);
static_assert(sizeof(RelRecord) == 32);
static_assert(sizeof(PropRecord) == 24);

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
  GLY_ASSIGN_OR_RETURN(store->props_file_,
                       store->cache_->OpenFile(config.directory + "/props.db"));
  GLY_ASSIGN_OR_RETURN(store->meta_file_,
                       store->cache_->OpenFile(config.directory + "/meta.db"));
  GLY_ASSIGN_OR_RETURN(Wal wal, Wal::Open(config.directory + "/wal.log"));
  store->wal_ = std::make_unique<Wal>(std::move(wal));
  GLY_RETURN_NOT_OK(store->Recover());
  GLY_RETURN_NOT_OK(store->LoadCounts());
  return store;
}

Status GraphStore::Recover() {
  trace::TraceSpan recover_span("graphdb.wal.recover", "graphdb");
  perf::SpanCounters recover_counters(&recover_span);
  GLY_ASSIGN_OR_RETURN(WalRecovery recovery, wal_->Recover());
  recover_span.SetAttribute("entries", uint64_t{recovery.entries.size()});
  recover_span.SetAttribute("truncated_bytes", recovery.truncated_bytes);
  metrics::AddCounter("graphdb.wal.entries_recovered",
                      recovery.entries.size());
  if (recovery.truncated_bytes > 0) {
    GLY_LOG_WARN << "wal: truncated torn tail of " << recovery.truncated_bytes
                 << " bytes after " << recovery.entries.size()
                 << " valid entries";
  }
  for (const auto& changes : recovery.entries) {
    for (const WalChange& c : changes) {
      GLY_RETURN_NOT_OK(
          cache_->Write(c.file_id, c.offset, c.bytes.data(), c.bytes.size()));
    }
  }
  wal_entries_recovered_ = recovery.entries.size();
  wal_bytes_truncated_ = recovery.truncated_bytes;
  return Status::OK();
}

Status GraphStore::LoadCounts() {
  MetaRecord meta;
  GLY_RETURN_NOT_OK(cache_->Read(meta_file_, 0, &meta, sizeof(meta)));
  node_count_ = meta.node_count;
  rel_count_ = meta.rel_count;
  prop_count_ = meta.prop_count;
  rel_deleted_ = meta.rel_deleted;
  return Status::OK();
}

Status GraphStore::SaveCounts() {
  MetaRecord meta{node_count_, rel_count_, prop_count_, rel_deleted_};
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
  // Bulk path bypasses the WAL (like neo4j-admin import) and checkpoints at
  // the end.
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

Status GraphStore::CollectNeighbors(VertexId node, bool outgoing_only,
                                    std::vector<VertexId>* out) {
  PageCache::Cursor cursor = ReadCursor();
  return CollectNeighbors(
      node, outgoing_only ? Direction::kOutgoing : Direction::kBoth, cursor,
      out);
}

// ------------------------------------------------------------ transactions

GraphStore::Transaction GraphStore::Begin() {
  Transaction tx(this);
  tx.new_node_count_ = node_count_;
  tx.new_rel_count_ = rel_count_;
  tx.new_prop_count_ = prop_count_;
  tx.new_rel_deleted_ = rel_deleted_;
  return tx;
}

Result<std::string> GraphStore::Transaction::ReadShadow(uint32_t file_id,
                                                        uint64_t offset,
                                                        size_t len) {
  std::string data(len, '\0');
  GLY_RETURN_NOT_OK(store_->cache_->Read(file_id, offset, data.data(), len));
  // Apply buffered overlapping writes (last wins).
  for (const WalChange& c : changes_) {
    if (c.file_id != file_id) continue;
    uint64_t lo = std::max(offset, c.offset);
    uint64_t hi = std::min(offset + len, c.offset + c.bytes.size());
    if (lo >= hi) continue;
    std::memcpy(data.data() + (lo - offset), c.bytes.data() + (lo - c.offset),
                hi - lo);
  }
  return data;
}

void GraphStore::Transaction::WriteShadow(uint32_t file_id, uint64_t offset,
                                          const void* data, size_t len) {
  WalChange c;
  c.file_id = file_id;
  c.offset = offset;
  c.bytes.assign(static_cast<const char*>(data),
                 static_cast<const char*>(data) + len);
  changes_.push_back(std::move(c));
}

Result<VertexId> GraphStore::Transaction::CreateNode() {
  VertexId id = static_cast<VertexId>(new_node_count_++);
  NodeRecord rec;
  WriteShadow(store_->nodes_file_, uint64_t{id} * kNodeRecordSize, &rec,
              sizeof(rec));
  return id;
}

Result<uint64_t> GraphStore::Transaction::CreateRelationship(VertexId src,
                                                             VertexId dst) {
  if (src >= new_node_count_ || dst >= new_node_count_) {
    return Status::InvalidArgument("relationship endpoint does not exist");
  }
  uint64_t rel_id = new_rel_count_++;
  GLY_ASSIGN_OR_RETURN(
      std::string src_node_bytes,
      ReadShadow(store_->nodes_file_, uint64_t{src} * kNodeRecordSize,
                 sizeof(NodeRecord)));
  GLY_ASSIGN_OR_RETURN(
      std::string dst_node_bytes,
      ReadShadow(store_->nodes_file_, uint64_t{dst} * kNodeRecordSize,
                 sizeof(NodeRecord)));
  NodeRecord src_node;
  NodeRecord dst_node;
  std::memcpy(&src_node, src_node_bytes.data(), sizeof(src_node));
  std::memcpy(&dst_node, dst_node_bytes.data(), sizeof(dst_node));

  RelRecord rel;
  rel.src = src;
  rel.dst = dst;
  rel.in_use = 1;
  rel.src_next = src_node.first_rel;
  src_node.first_rel = rel_id;
  if (dst != src) {
    rel.dst_next = dst_node.first_rel;
    dst_node.first_rel = rel_id;
  }
  WriteShadow(store_->rels_file_, rel_id * kRelRecordSize, &rel, sizeof(rel));
  WriteShadow(store_->nodes_file_, uint64_t{src} * kNodeRecordSize, &src_node,
              sizeof(src_node));
  if (dst != src) {
    WriteShadow(store_->nodes_file_, uint64_t{dst} * kNodeRecordSize,
                &dst_node, sizeof(dst_node));
  }
  return rel_id;
}

Status GraphStore::Transaction::SetNodeProperty(VertexId node, uint32_t key_id,
                                                int64_t value) {
  if (node >= new_node_count_) {
    return Status::InvalidArgument("node does not exist");
  }
  GLY_ASSIGN_OR_RETURN(
      std::string node_bytes,
      ReadShadow(store_->nodes_file_, uint64_t{node} * kNodeRecordSize,
                 sizeof(NodeRecord)));
  NodeRecord rec;
  std::memcpy(&rec, node_bytes.data(), sizeof(rec));

  // Update in place if the key exists on the chain.
  uint64_t prop = rec.first_prop;
  while (prop != kNilRecord) {
    GLY_ASSIGN_OR_RETURN(std::string prop_bytes,
                         ReadShadow(store_->props_file_,
                                    prop * kPropRecordSize, sizeof(PropRecord)));
    PropRecord pr;
    std::memcpy(&pr, prop_bytes.data(), sizeof(pr));
    if (pr.key_id == key_id) {
      pr.value = value;
      WriteShadow(store_->props_file_, prop * kPropRecordSize, &pr,
                  sizeof(pr));
      return Status::OK();
    }
    prop = pr.next;
  }
  // Prepend a new property record.
  uint64_t prop_id = new_prop_count_++;
  PropRecord pr;
  pr.key_id = key_id;
  pr.value = value;
  pr.next = rec.first_prop;
  rec.first_prop = prop_id;
  WriteShadow(store_->props_file_, prop_id * kPropRecordSize, &pr, sizeof(pr));
  WriteShadow(store_->nodes_file_, uint64_t{node} * kNodeRecordSize, &rec,
              sizeof(rec));
  return Status::OK();
}

Status GraphStore::Transaction::UnlinkFromChain(VertexId node,
                                                uint64_t rel_id) {
  GLY_ASSIGN_OR_RETURN(
      std::string node_bytes,
      ReadShadow(store_->nodes_file_, uint64_t{node} * kNodeRecordSize,
                 sizeof(NodeRecord)));
  NodeRecord node_rec;
  std::memcpy(&node_rec, node_bytes.data(), sizeof(node_rec));

  auto next_of = [node](const RelRecord& rec) {
    return rec.src == node ? rec.src_next : rec.dst_next;
  };

  GLY_ASSIGN_OR_RETURN(std::string victim_bytes,
                       ReadShadow(store_->rels_file_, rel_id * kRelRecordSize,
                                  sizeof(RelRecord)));
  RelRecord victim;
  std::memcpy(&victim, victim_bytes.data(), sizeof(victim));
  const uint64_t successor = next_of(victim);

  if (node_rec.first_rel == rel_id) {
    node_rec.first_rel = successor;
    WriteShadow(store_->nodes_file_, uint64_t{node} * kNodeRecordSize,
                &node_rec, sizeof(node_rec));
    return Status::OK();
  }
  // Walk the (singly linked) chain to the predecessor.
  uint64_t cursor = node_rec.first_rel;
  while (cursor != kNilRecord) {
    GLY_ASSIGN_OR_RETURN(std::string cur_bytes,
                         ReadShadow(store_->rels_file_,
                                    cursor * kRelRecordSize,
                                    sizeof(RelRecord)));
    RelRecord cur;
    std::memcpy(&cur, cur_bytes.data(), sizeof(cur));
    uint64_t next = next_of(cur);
    if (next == rel_id) {
      if (cur.src == node) {
        cur.src_next = successor;
      } else {
        cur.dst_next = successor;
      }
      WriteShadow(store_->rels_file_, cursor * kRelRecordSize, &cur,
                  sizeof(cur));
      return Status::OK();
    }
    cursor = next;
  }
  return Status::Internal("relationship " + std::to_string(rel_id) +
                          " not on chain of node " + std::to_string(node));
}

Status GraphStore::Transaction::DeleteRelationship(uint64_t rel_id) {
  if (rel_id >= new_rel_count_) {
    return Status::NotFound("relationship " + std::to_string(rel_id));
  }
  GLY_ASSIGN_OR_RETURN(std::string rel_bytes,
                       ReadShadow(store_->rels_file_, rel_id * kRelRecordSize,
                                  sizeof(RelRecord)));
  RelRecord rel;
  std::memcpy(&rel, rel_bytes.data(), sizeof(rel));
  if (rel.in_use == 0) {
    return Status::NotFound("relationship " + std::to_string(rel_id) +
                            " already deleted");
  }
  GLY_RETURN_NOT_OK(UnlinkFromChain(rel.src, rel_id));
  if (rel.dst != rel.src) {
    GLY_RETURN_NOT_OK(UnlinkFromChain(rel.dst, rel_id));
  }
  rel.in_use = 0;
  rel.src_next = kNilRecord;
  rel.dst_next = kNilRecord;
  WriteShadow(store_->rels_file_, rel_id * kRelRecordSize, &rel, sizeof(rel));
  ++new_rel_deleted_;
  return Status::OK();
}

Status GraphStore::Transaction::Commit() {
  if (committed_) return Status::InvalidArgument("transaction already committed");
  // Counts ride in the same WAL entry so recovery restores them atomically.
  MetaRecord meta{new_node_count_, new_rel_count_, new_prop_count_,
                  new_rel_deleted_};
  WriteShadow(store_->meta_file_, 0, &meta, sizeof(meta));
  GLY_RETURN_NOT_OK(store_->wal_->Append(changes_));
  for (const WalChange& c : changes_) {
    GLY_RETURN_NOT_OK(store_->cache_->Write(c.file_id, c.offset,
                                            c.bytes.data(), c.bytes.size()));
  }
  store_->node_count_ = new_node_count_;
  store_->rel_count_ = new_rel_count_;
  store_->prop_count_ = new_prop_count_;
  store_->rel_deleted_ = new_rel_deleted_;
  committed_ = true;
  return Status::OK();
}

Result<int64_t> GraphStore::GetNodeProperty(VertexId node, uint32_t key_id) {
  if (node >= node_count_) {
    return Status::InvalidArgument("node out of range");
  }
  NodeRecord rec;
  GLY_RETURN_NOT_OK(cache_->Read(nodes_file_, uint64_t{node} * kNodeRecordSize,
                                 &rec, sizeof(rec)));
  uint64_t prop = rec.first_prop;
  while (prop != kNilRecord) {
    PropRecord pr;
    GLY_RETURN_NOT_OK(cache_->Read(props_file_, prop * kPropRecordSize, &pr,
                                   sizeof(pr)));
    if (pr.key_id == key_id) return pr.value;
    prop = pr.next;
  }
  return Status::NotFound("property " + std::to_string(key_id) + " on node " +
                          std::to_string(node));
}

Status GraphStore::Checkpoint() {
  GLY_RETURN_NOT_OK(cache_->Flush());
  return wal_->Truncate();
}

uint64_t GraphStore::store_bytes() const {
  return node_count_ * kNodeRecordSize + rel_count_ * kRelRecordSize +
         prop_count_ * kPropRecordSize;
}

}  // namespace gly::graphdb
