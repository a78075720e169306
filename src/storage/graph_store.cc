#include "storage/graph_store.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/coding.h"

namespace neosi {

namespace {

/// Recovery event trace, enabled by NEOSI_RECOVER_TRACE=stderr|<path>.
/// Recovery is single-threaded, so no lock is needed. Zero cost when the
/// variable is unset (one getenv on first use).
FILE* RecoverTraceFile() {
  static FILE* f = [] {
    const char* p = std::getenv("NEOSI_RECOVER_TRACE");
    if (p == nullptr || *p == '\0') return static_cast<FILE*>(nullptr);
    if (std::strcmp(p, "stderr") == 0) return stderr;
    return std::fopen(p, "w");
  }();
  return f;
}

#define NEOSI_RECOVER_TRACE(...)                      \
  do {                                                \
    if (FILE* trace_f_ = RecoverTraceFile()) {        \
      std::fprintf(trace_f_, __VA_ARGS__);            \
      std::fputc('\n', trace_f_);                     \
      std::fflush(trace_f_);                          \
    }                                                 \
  } while (0)

/// Encodes a label id list as a dynamic-store blob.
std::string EncodeLabelBlob(const std::vector<LabelId>& labels) {
  std::string blob;
  PutVarint64(&blob, labels.size());
  for (LabelId label : labels) PutVarint32(&blob, label);
  return blob;
}

Status DecodeLabelBlob(Slice input, std::vector<LabelId>* out) {
  uint64_t n;
  if (!GetVarint64(&input, &n)) {
    return Status::Corruption("label blob: count");
  }
  out->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!GetVarint32(&input, &(*out)[i])) {
      return Status::Corruption("label blob: id");
    }
  }
  return Status::OK();
}

bool LabelsFitInline(const std::vector<LabelId>& labels) {
  if (labels.size() > static_cast<size_t>(kInlineLabels)) return false;
  for (LabelId label : labels) {
    if (label >= kEmptyLabelSlot) return false;
  }
  return true;
}

}  // namespace

GraphStore::GraphStore(const DatabaseOptions& options) : options_(options) {}

GraphStore::~GraphStore() {
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
  }
}

Status GraphStore::Open() {
  const bool mem = options_.in_memory;
  const std::string& dir = options_.path;
  if (!mem) {
    // Best-effort directory creation; Open of the files reports real errors.
    ::mkdir(dir.c_str(), 0755);
    // Exclusive directory ownership, taken BEFORE any file is touched: a
    // second opener must fail before its recovery replay can truncate the
    // holder's live WAL. flock (not a pidfile) so a crash-left LOCK file is
    // inert — the lock lives with the open file description and dies with
    // the process.
    const std::string lock_path = dir + "/LOCK";
    const int fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                          0644);
    if (fd < 0) {
      return Status::IOError("cannot open " + lock_path + ": " +
                             std::strerror(errno));
    }
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd);
      return Status::Busy("database directory " + dir +
                          " is locked by another live opener (LOCK held)");
    }
    lock_fd_ = fd;
  }
  auto open_file = [&](const std::string& name,
                       std::unique_ptr<PagedFile>* out) {
    return OpenPagedFile(dir + "/" + name, mem, out);
  };

  std::unique_ptr<PagedFile> f;
  NEOSI_RETURN_IF_ERROR(open_file("nodes.store", &f));
  nodes_ = std::make_unique<RecordStore>(std::move(f), NodeRecord::kSize,
                                         NodeRecord::kMagic, "node-store");
  NEOSI_RETURN_IF_ERROR(nodes_->Open());

  NEOSI_RETURN_IF_ERROR(open_file("rels.store", &f));
  rels_ = std::make_unique<RecordStore>(std::move(f), RelationshipRecord::kSize,
                                        RelationshipRecord::kMagic,
                                        "relationship-store");
  NEOSI_RETURN_IF_ERROR(rels_->Open());

  std::unique_ptr<PagedFile> props_file, strings_file;
  NEOSI_RETURN_IF_ERROR(open_file("props.store", &props_file));
  NEOSI_RETURN_IF_ERROR(open_file("strings.store", &strings_file));
  props_ = std::make_unique<PropertyStore>(std::move(props_file),
                                           std::move(strings_file));
  NEOSI_RETURN_IF_ERROR(props_->Open());

  NEOSI_RETURN_IF_ERROR(open_file("labels.store", &f));
  label_dyn_ = std::make_unique<DynamicStore>(std::move(f), "label-store");
  NEOSI_RETURN_IF_ERROR(label_dyn_->Open());

  NEOSI_RETURN_IF_ERROR(open_file("tokens_label.store", &f));
  label_tokens_ = std::make_unique<TokenStore>(std::move(f), "label-tokens");
  NEOSI_RETURN_IF_ERROR(label_tokens_->Open());

  NEOSI_RETURN_IF_ERROR(open_file("tokens_propkey.store", &f));
  prop_key_tokens_ =
      std::make_unique<TokenStore>(std::move(f), "prop-key-tokens");
  NEOSI_RETURN_IF_ERROR(prop_key_tokens_->Open());

  NEOSI_RETURN_IF_ERROR(open_file("tokens_reltype.store", &f));
  rel_type_tokens_ =
      std::make_unique<TokenStore>(std::move(f), "rel-type-tokens");
  NEOSI_RETURN_IF_ERROR(rel_type_tokens_->Open());

  // The WAL is a rotating chain of segment files in the same directory
  // (wal.000001, wal.000002, …), not one file — see Wal's header comment.
  std::shared_ptr<WalDir> wal_dir;
  if (mem) {
    wal_dir = std::make_shared<InMemoryWalDir>();
  } else {
    wal_dir = std::make_shared<PosixWalDir>(dir);
  }
  WalOptions wal_options;
  wal_options.segment_size = options_.wal_segment_size;
  wal_options.keep_segments = options_.wal_keep_segments;
  wal_options.async_flush = options_.wal_async_flush;
  wal_options.preallocate = options_.wal_preallocate;
  wal_ = std::make_unique<Wal>(std::move(wal_dir), wal_options);
  return wal_->Open();
}

Status GraphStore::SyncDirty(uint64_t* synced, uint64_t* skipped) {
  uint64_t did = 0, skip = 0;
  auto tally = [&](Result<bool> r) -> Status {
    if (!r.ok()) return r.status();
    if (*r) {
      ++did;
    } else {
      ++skip;
    }
    return Status::OK();
  };
  // PropertyStore wraps two files but counts as one unit either way.
  NEOSI_RETURN_IF_ERROR(tally(nodes_->SyncIfDirty()));
  NEOSI_RETURN_IF_ERROR(tally(rels_->SyncIfDirty()));
  NEOSI_RETURN_IF_ERROR(tally(props_->SyncIfDirty()));
  NEOSI_RETURN_IF_ERROR(tally(label_dyn_->SyncIfDirty()));
  NEOSI_RETURN_IF_ERROR(tally(label_tokens_->SyncIfDirty()));
  NEOSI_RETURN_IF_ERROR(tally(prop_key_tokens_->SyncIfDirty()));
  NEOSI_RETURN_IF_ERROR(tally(rel_type_tokens_->SyncIfDirty()));
  if (synced != nullptr) *synced = did;
  if (skipped != nullptr) *skipped = skip;
  return Status::OK();
}

std::vector<WriteGuard> GraphStore::LockNodePair(NodeId a, NodeId b) const {
  const size_t sa = a % kShards, sb = b % kShards;
  std::vector<WriteGuard> guards;
  if (sa == sb) {
    guards.emplace_back(node_shards_[sa].latch);
  } else if (sa < sb) {
    guards.emplace_back(node_shards_[sa].latch);
    guards.emplace_back(node_shards_[sb].latch);
  } else {
    guards.emplace_back(node_shards_[sb].latch);
    guards.emplace_back(node_shards_[sa].latch);
  }
  return guards;
}

Status GraphStore::ReadNodeRecord(NodeId id, NodeRecord* out) const {
  char buf[NodeRecord::kSize];
  NEOSI_RETURN_IF_ERROR(nodes_->Read(id, buf));
  return NodeRecord::DecodeFrom(Slice(buf, NodeRecord::kSize), out);
}

Status GraphStore::WriteNodeRecord(NodeId id, const NodeRecord& rec) {
  char buf[NodeRecord::kSize];
  rec.EncodeTo(buf);
  return nodes_->Write(id, Slice(buf, NodeRecord::kSize));
}

Status GraphStore::ReadRelRecord(RelId id, RelationshipRecord* out) const {
  char buf[RelationshipRecord::kSize];
  NEOSI_RETURN_IF_ERROR(rels_->Read(id, buf));
  return RelationshipRecord::DecodeFrom(
      Slice(buf, RelationshipRecord::kSize), out);
}

Status GraphStore::WriteRelRecord(RelId id, const RelationshipRecord& rec) {
  char buf[RelationshipRecord::kSize];
  rec.EncodeTo(buf);
  return rels_->Write(id, Slice(buf, RelationshipRecord::kSize));
}

Status GraphStore::StoreLabels(NodeRecord* rec,
                               const std::vector<LabelId>& labels,
                               DynId* old_blob) {
  *old_blob = rec->label_overflow;
  rec->label_overflow = kInvalidDynId;
  rec->inline_labels.fill(kEmptyLabelSlot);
  if (LabelsFitInline(labels)) {
    for (size_t i = 0; i < labels.size(); ++i) {
      rec->inline_labels[i] = static_cast<uint16_t>(labels[i]);
    }
    return Status::OK();
  }
  auto blob = label_dyn_->WriteBlob(Slice(EncodeLabelBlob(labels)));
  if (!blob.ok()) return blob.status();
  rec->label_overflow = *blob;
  return Status::OK();
}

Status GraphStore::LoadLabels(const NodeRecord& rec,
                              std::vector<LabelId>* out) const {
  out->clear();
  if (rec.label_overflow != kInvalidDynId) {
    std::string blob;
    NEOSI_RETURN_IF_ERROR(label_dyn_->ReadBlob(rec.label_overflow, &blob));
    return DecodeLabelBlob(Slice(blob), out);
  }
  for (uint16_t slot : rec.inline_labels) {
    if (slot != kEmptyLabelSlot) out->push_back(slot);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Commit-time persistence
//
// Crash-ordering rule for every rewrite below: write the NEW property chain
// / label blob, repoint the record at it, and only then free the OLD one.
// A process death between any two steps then leaves at worst an allocated-
// but-unreferenced chain (a bounded leak that WAL replay may add one more
// of) — never an on-disk record pointing at freed chain records, which
// recovery could only report as corruption. The same rule inverted governs
// the purges: free the record first (replay then skips the op), chains
// second.
// ---------------------------------------------------------------------------

Status GraphStore::PersistNewNode(NodeId id, const std::vector<LabelId>& labels,
                                  const PropertyMap& props, Timestamp ts) {
  WriteGuard guard(NodeShard(id));
  NodeRecord rec;
  rec.in_use = true;
  rec.deleted = false;
  rec.first_rel = kInvalidRelId;
  rec.commit_ts = ts;
  DynId old_blob = kInvalidDynId;  // Fresh record: nothing to free.
  NEOSI_RETURN_IF_ERROR(StoreLabels(&rec, labels, &old_blob));
  auto chain = props_->WriteChain(props);
  if (!chain.ok()) return chain.status();
  rec.first_prop = *chain;
  return WriteNodeRecord(id, rec);
}

Status GraphStore::PersistNodeState(NodeId id,
                                    const std::vector<LabelId>& labels,
                                    const PropertyMap& props, Timestamp ts) {
  WriteGuard guard(NodeShard(id));
  NodeRecord rec;
  NEOSI_RETURN_IF_ERROR(ReadNodeRecord(id, &rec));
  if (!rec.in_use) {
    // Crash-recovery path: the record vanished; recreate it.
    rec = NodeRecord();
    rec.first_rel = kInvalidRelId;
    rec.first_prop = kInvalidPropId;
  }
  rec.in_use = true;
  rec.deleted = false;
  rec.commit_ts = ts;
  const PropId old_chain = rec.first_prop;
  auto chain = props_->WriteChain(props);
  if (!chain.ok()) return chain.status();
  rec.first_prop = *chain;
  DynId old_blob = kInvalidDynId;
  NEOSI_RETURN_IF_ERROR(StoreLabels(&rec, labels, &old_blob));
  NEOSI_RETURN_IF_ERROR(WriteNodeRecord(id, rec));
  if (old_chain != kInvalidPropId && !recovering_) {
    NEOSI_RETURN_IF_ERROR(props_->FreeChain(old_chain));
  }
  if (old_blob != kInvalidDynId && !recovering_) {
    NEOSI_RETURN_IF_ERROR(label_dyn_->FreeBlob(old_blob));
  }
  return Status::OK();
}

Status GraphStore::PersistNodeTombstone(NodeId id, Timestamp ts) {
  WriteGuard guard(NodeShard(id));
  NodeRecord rec;
  NEOSI_RETURN_IF_ERROR(ReadNodeRecord(id, &rec));
  if (!rec.in_use) {
    return Status::Internal("tombstone of free node record " +
                            std::to_string(id));
  }
  // The final committed state of a deleted node has no labels/properties;
  // older versions (with them) live in the object cache until GC.
  const PropId old_chain = rec.first_prop;
  rec.first_prop = kInvalidPropId;
  DynId old_blob = kInvalidDynId;
  NEOSI_RETURN_IF_ERROR(StoreLabels(&rec, {}, &old_blob));
  rec.deleted = true;
  rec.commit_ts = ts;
  NEOSI_RETURN_IF_ERROR(WriteNodeRecord(id, rec));
  if (old_chain != kInvalidPropId && !recovering_) {
    NEOSI_RETURN_IF_ERROR(props_->FreeChain(old_chain));
  }
  if (old_blob != kInvalidDynId && !recovering_) {
    NEOSI_RETURN_IF_ERROR(label_dyn_->FreeBlob(old_blob));
  }
  return Status::OK();
}

Status GraphStore::LinkIntoChain(RelId id, RelationshipRecord* rec,
                                 NodeId node) {
  NodeRecord node_rec;
  NEOSI_RETURN_IF_ERROR(ReadNodeRecord(node, &node_rec));
  const RelId old_head = node_rec.first_rel;

  if (node == rec->src) {
    rec->src_prev = kInvalidRelId;
    rec->src_next = old_head;
  } else {
    rec->dst_prev = kInvalidRelId;
    rec->dst_next = old_head;
  }
  NEOSI_RETURN_IF_ERROR(WriteRelRecord(id, *rec));

  if (old_head != kInvalidRelId) {
    // Field-granular write: the old head's OTHER chain (its other endpoint)
    // may be under surgery concurrently beneath a different node latch.
    RelationshipRecord head;
    NEOSI_RETURN_IF_ERROR(ReadRelRecord(old_head, &head));
    const size_t offset = head.src == node
                              ? RelationshipRecord::kSrcPrevOffset
                              : RelationshipRecord::kDstPrevOffset;
    NEOSI_RETURN_IF_ERROR(rels_->WriteField64(old_head, offset, id));
  }

  node_rec.first_rel = id;
  return WriteNodeRecord(node, node_rec);
}

Status GraphStore::PersistNewRel(RelId id, NodeId src, NodeId dst,
                                 RelTypeId type, const PropertyMap& props,
                                 Timestamp ts) {
  auto guards = LockNodePair(src, dst);
  WriteGuard rel_guard(RelShard(id));

  RelationshipRecord rec;
  rec.in_use = true;
  rec.deleted = false;
  rec.src = src;
  rec.dst = dst;
  rec.type = type;
  rec.commit_ts = ts;
  auto chain = props_->WriteChain(props);
  if (!chain.ok()) return chain.status();
  rec.first_prop = *chain;

  // Link at the head of the source chain, then (unless a self-loop, which
  // participates in the chain once via its src pointers) the destination's.
  NEOSI_RETURN_IF_ERROR(LinkIntoChain(id, &rec, src));
  if (src != dst) {
    NEOSI_RETURN_IF_ERROR(LinkIntoChain(id, &rec, dst));
  }
  return Status::OK();
}

Status GraphStore::PersistRelState(RelId id, const PropertyMap& props,
                                   Timestamp ts) {
  // The full record is rewritten, and its chain pointers are owned by the
  // endpoint node latches (concurrent neighbour link/unlink surgery mutates
  // them) — so take the node pair first, then the rel latch.
  RelationshipRecord peek;
  NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &peek));
  auto guards = LockNodePair(peek.src, peek.dst);
  WriteGuard guard(RelShard(id));
  RelationshipRecord rec;
  NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &rec));
  if (!rec.in_use) {
    return Status::Internal("state write to free relationship record " +
                            std::to_string(id));
  }
  const PropId old_chain = rec.first_prop;
  auto chain = props_->WriteChain(props);
  if (!chain.ok()) return chain.status();
  rec.first_prop = *chain;
  rec.deleted = false;
  rec.commit_ts = ts;
  NEOSI_RETURN_IF_ERROR(WriteRelRecord(id, rec));
  if (old_chain != kInvalidPropId && !recovering_) {
    NEOSI_RETURN_IF_ERROR(props_->FreeChain(old_chain));
  }
  return Status::OK();
}

Status GraphStore::PersistRelTombstone(RelId id, Timestamp ts) {
  RelationshipRecord peek;
  NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &peek));
  auto guards = LockNodePair(peek.src, peek.dst);
  WriteGuard guard(RelShard(id));
  RelationshipRecord rec;
  NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &rec));
  if (!rec.in_use) {
    return Status::Internal("tombstone of free relationship record " +
                            std::to_string(id));
  }
  const PropId old_chain = rec.first_prop;
  rec.first_prop = kInvalidPropId;
  rec.deleted = true;
  rec.commit_ts = ts;
  NEOSI_RETURN_IF_ERROR(WriteRelRecord(id, rec));
  if (old_chain != kInvalidPropId && !recovering_) {
    NEOSI_RETURN_IF_ERROR(props_->FreeChain(old_chain));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// GC purge
// ---------------------------------------------------------------------------

Result<bool> GraphStore::NodeHasRelChain(NodeId id) const {
  ReadGuard guard(NodeShard(id));
  NodeRecord rec;
  NEOSI_RETURN_IF_ERROR(ReadNodeRecord(id, &rec));
  return rec.in_use && rec.first_rel != kInvalidRelId;
}

Status GraphStore::PurgeNode(NodeId id) {
  WriteGuard guard(NodeShard(id));
  NodeRecord rec;
  NEOSI_RETURN_IF_ERROR(ReadNodeRecord(id, &rec));
  if (!rec.in_use) return Status::OK();  // Already purged (recovery replay).
  if (rec.first_rel != kInvalidRelId) {
    return Status::Internal(
        "purge of node with live relationship chain: node " +
        std::to_string(id));
  }
  // Record first, chains second: a crash in between leaks the chains (the
  // replayed purge skips the already-free record), whereas the reverse
  // order would leave an in-use record pointing at freed chains.
  NEOSI_RETURN_IF_ERROR(nodes_->Free(id));
  if (rec.first_prop != kInvalidPropId && !recovering_) {
    NEOSI_RETURN_IF_ERROR(props_->FreeChain(rec.first_prop));
  }
  if (rec.label_overflow != kInvalidDynId && !recovering_) {
    NEOSI_RETURN_IF_ERROR(label_dyn_->FreeBlob(rec.label_overflow));
  }
  return Status::OK();
}

Status GraphStore::UnlinkFromChain(RelId id, const RelationshipRecord& rec,
                                   NodeId node) {
  const RelId prev = rec.PrevFor(node);
  const RelId next = rec.NextFor(node);

  // Every rewrite below checks that the neighbour still points at `id`
  // before touching it, which makes the surgery idempotent: crash-recovery
  // replays it with the pointers logged in the kPurgeRel WAL op.
  if (prev == kInvalidRelId) {
    NodeRecord node_rec;
    NEOSI_RETURN_IF_ERROR(ReadNodeRecord(node, &node_rec));
    if (node_rec.first_rel == id) {
      node_rec.first_rel = next;
      NEOSI_RETURN_IF_ERROR(WriteNodeRecord(node, node_rec));
    }
  } else if (rels_->InUse(prev)) {
    // Field-granular writes: only this endpoint's pointer pair belongs to
    // the latch we hold; the neighbour's other chain may be mutated
    // concurrently under a different node latch.
    RelationshipRecord prev_rec;
    NEOSI_RETURN_IF_ERROR(ReadRelRecord(prev, &prev_rec));
    if (prev_rec.src == node && prev_rec.src_next == id) {
      NEOSI_RETURN_IF_ERROR(rels_->WriteField64(
          prev, RelationshipRecord::kSrcNextOffset, next));
    } else if (prev_rec.src != node && prev_rec.dst_next == id) {
      NEOSI_RETURN_IF_ERROR(rels_->WriteField64(
          prev, RelationshipRecord::kDstNextOffset, next));
    }
  }

  if (next != kInvalidRelId && rels_->InUse(next)) {
    RelationshipRecord next_rec;
    NEOSI_RETURN_IF_ERROR(ReadRelRecord(next, &next_rec));
    if (next_rec.src == node && next_rec.src_prev == id) {
      NEOSI_RETURN_IF_ERROR(rels_->WriteField64(
          next, RelationshipRecord::kSrcPrevOffset, prev));
    } else if (next_rec.src != node && next_rec.dst_prev == id) {
      NEOSI_RETURN_IF_ERROR(rels_->WriteField64(
          next, RelationshipRecord::kDstPrevOffset, prev));
    }
  }
  return Status::OK();
}

Status GraphStore::PurgeRel(RelId id) {
  RelationshipRecord rec;
  {
    // Peek at the endpoints without holding latches, then lock in order.
    std::string buf;
    NEOSI_RETURN_IF_ERROR(rels_->Read(id, &buf));
    NEOSI_RETURN_IF_ERROR(RelationshipRecord::DecodeFrom(Slice(buf), &rec));
  }
  if (!rec.in_use) return Status::OK();  // Already purged.

  auto guards = LockNodePair(rec.src, rec.dst);
  WriteGuard rel_guard(RelShard(id));
  // Re-read under the latches (the unlatched peek could have raced).
  NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &rec));
  if (!rec.in_use) return Status::OK();

  NEOSI_RETURN_IF_ERROR(UnlinkFromChain(id, rec, rec.src));
  if (rec.dst != rec.src) {
    NEOSI_RETURN_IF_ERROR(UnlinkFromChain(id, rec, rec.dst));
  }
  // Record first, chain second (see PurgeNode).
  NEOSI_RETURN_IF_ERROR(rels_->Free(id));
  if (rec.first_prop != kInvalidPropId && !recovering_) {
    NEOSI_RETURN_IF_ERROR(props_->FreeChain(rec.first_prop));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status GraphStore::ReadNodeState(NodeId id, NodeState* out) const {
  ReadGuard guard(NodeShard(id));
  NodeRecord rec;
  NEOSI_RETURN_IF_ERROR(ReadNodeRecord(id, &rec));
  out->in_use = rec.in_use;
  out->deleted = rec.deleted;
  out->commit_ts = rec.commit_ts;
  out->first_rel = rec.first_rel;
  out->labels.clear();
  out->props.clear();
  if (!rec.in_use) return Status::OK();
  NEOSI_RETURN_IF_ERROR(LoadLabels(rec, &out->labels));
  if (rec.first_prop != kInvalidPropId) {
    NEOSI_RETURN_IF_ERROR(props_->ReadChain(rec.first_prop, &out->props));
  }
  return Status::OK();
}

Status GraphStore::ReadRelState(RelId id, RelState* out) const {
  ReadGuard guard(RelShard(id));
  RelationshipRecord rec;
  NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &rec));
  out->in_use = rec.in_use;
  out->deleted = rec.deleted;
  out->src = rec.src;
  out->dst = rec.dst;
  out->type = rec.type;
  out->commit_ts = rec.commit_ts;
  out->props.clear();
  if (!rec.in_use) return Status::OK();
  if (rec.first_prop != kInvalidPropId) {
    NEOSI_RETURN_IF_ERROR(props_->ReadChain(rec.first_prop, &out->props));
  }
  return Status::OK();
}

Status GraphStore::RelChainOf(NodeId id, std::vector<RelId>* out) const {
  ReadGuard guard(NodeShard(id));
  out->clear();
  NodeRecord node_rec;
  NEOSI_RETURN_IF_ERROR(ReadNodeRecord(id, &node_rec));
  if (!node_rec.in_use) return Status::OK();

  RelId cur = node_rec.first_rel;
  uint64_t steps = 0;
  const uint64_t max_steps = rels_->high_id() + 1;
  while (cur != kInvalidRelId) {
    if (++steps > max_steps) {
      return Status::Corruption("relationship chain cycle at node " +
                                std::to_string(id));
    }
    out->push_back(cur);
    RelationshipRecord rec;
    NEOSI_RETURN_IF_ERROR(ReadRelRecord(cur, &rec));
    cur = rec.NextFor(id);
  }
  return Status::OK();
}

Status GraphStore::ApplyRewrite(const EntityKey& key) {
  std::string buf;
  if (key.type == EntityType::kNode) {
    WriteGuard guard(NodeShard(key.id));
    NEOSI_RETURN_IF_ERROR(nodes_->Read(key.id, &buf));
    return nodes_->Write(key.id, Slice(buf));
  }
  // Relationship records' chain pointers are owned by the endpoint node
  // latches; a blind read+write-back must exclude concurrent surgery.
  RelationshipRecord peek;
  NEOSI_RETURN_IF_ERROR(ReadRelRecord(key.id, &peek));
  auto guards = LockNodePair(peek.src, peek.dst);
  WriteGuard guard(RelShard(key.id));
  NEOSI_RETURN_IF_ERROR(rels_->Read(key.id, &buf));
  return rels_->Write(key.id, Slice(buf));
}

Status GraphStore::ForEachNode(const std::function<Status(NodeId)>& fn) const {
  return nodes_->ForEach([&](uint64_t id, const std::string&) {
    return fn(static_cast<NodeId>(id));
  });
}

Status GraphStore::ForEachRel(const std::function<Status(RelId)>& fn) const {
  return rels_->ForEach([&](uint64_t id, const std::string&) {
    return fn(static_cast<RelId>(id));
  });
}

// ---------------------------------------------------------------------------
// WAL replay & recovery
// ---------------------------------------------------------------------------

Status GraphStore::EnsureRelLinked(RelId id) {
  RelationshipRecord rec;
  NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &rec));
  if (!rec.in_use) {
    return Status::Internal("EnsureRelLinked on free record");
  }
  auto guards = LockNodePair(rec.src, rec.dst);
  WriteGuard rel_guard(RelShard(id));
  NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &rec));

  auto linked_in = [&](NodeId node) -> Result<bool> {
    NodeRecord node_rec;
    NEOSI_RETURN_IF_ERROR(ReadNodeRecord(node, &node_rec));
    RelId cur = node_rec.first_rel;
    uint64_t steps = 0;
    const uint64_t max_steps = rels_->high_id() + 1;
    while (cur != kInvalidRelId) {
      if (cur == id) return true;
      if (++steps > max_steps) {
        return Status::Corruption("chain cycle during link repair");
      }
      RelationshipRecord r;
      NEOSI_RETURN_IF_ERROR(ReadRelRecord(cur, &r));
      cur = r.NextFor(node);
    }
    return false;
  };

  auto check = linked_in(rec.src);
  if (!check.ok()) return check.status();
  if (!*check) {
    NEOSI_RETURN_IF_ERROR(LinkIntoChain(id, &rec, rec.src));
  }
  if (rec.dst != rec.src) {
    check = linked_in(rec.dst);
    if (!check.ok()) return check.status();
    if (!*check) {
      NEOSI_RETURN_IF_ERROR(LinkIntoChain(id, &rec, rec.dst));
    }
  }
  return Status::OK();
}

Status GraphStore::ApplyWalOp(const WalOp& op, Timestamp commit_ts) {
  switch (op.type) {
    case WalOpType::kCreateToken: {
      TokenStore* store = nullptr;
      switch (op.token_kind) {
        case TokenKind::kLabel:
          store = label_tokens_.get();
          break;
        case TokenKind::kPropertyKey:
          store = prop_key_tokens_.get();
          break;
        case TokenKind::kRelType:
          store = rel_type_tokens_.get();
          break;
      }
      return store->Restore(static_cast<uint32_t>(op.id), op.name, commit_ts);
    }

    case WalOpType::kCreateNode: {
      NEOSI_RETURN_IF_ERROR(nodes_->EnsureAllocated(op.id));
      NodeRecord rec;
      NEOSI_RETURN_IF_ERROR(ReadNodeRecord(op.id, &rec));
      if (rec.in_use && rec.commit_ts >= commit_ts) {
        if (rec.commit_ts == commit_ts) {
          // This op's own apply may be only partially on disk (record
          // flushed, property chain not, or vice versa): rewrite the full
          // state rather than trusting the chain the record points at.
          return PersistNodeState(op.id, op.labels, op.props, commit_ts);
        }
        return Status::OK();
      }
      return PersistNewNode(op.id, op.labels, op.props, commit_ts);
    }

    case WalOpType::kNodeState: {
      // Full post-state: record-local replay, no pre-state read. Re-apply
      // at ts equality (== means THIS op's apply may be the torn one). The
      // record must exist: its create op either precedes this op in the
      // replayed suffix or was persisted before the stable LSN. A free
      // record means a later purge was already applied — the op is stale,
      // and recreating the record would desync the recycled-id free list.
      if (op.id >= nodes_->high_id()) return Status::OK();
      NodeRecord rec;
      NEOSI_RETURN_IF_ERROR(ReadNodeRecord(op.id, &rec));
      if (!rec.in_use) return Status::OK();
      if (rec.commit_ts > commit_ts) return Status::OK();
      return PersistNodeState(op.id, op.labels, op.props, commit_ts);
    }

    case WalOpType::kDeleteNode: {
      NodeRecord rec;
      NEOSI_RETURN_IF_ERROR(ReadNodeRecord(op.id, &rec));
      if (!rec.in_use || (rec.deleted && rec.commit_ts >= commit_ts)) {
        return Status::OK();
      }
      return PersistNodeTombstone(op.id, commit_ts);
    }

    case WalOpType::kCreateRel: {
      NEOSI_RETURN_IF_ERROR(rels_->EnsureAllocated(op.id));
      RelationshipRecord rec;
      NEOSI_RETURN_IF_ERROR(ReadRelRecord(op.id, &rec));
      if (rec.in_use && rec.commit_ts >= commit_ts) {
        if (rec.commit_ts == commit_ts) {
          // The creating apply may be only partially on disk: rewrite the
          // property chain before repairing the links (see kCreateNode).
          NEOSI_RETURN_IF_ERROR(PersistRelState(op.id, op.props, commit_ts));
        }
        // Record present; repair the chain links if the crash interrupted
        // the surgery between record write and chain rewiring.
        return EnsureRelLinked(op.id);
      }
      return PersistNewRel(op.id, op.src, op.dst, op.rel_type, op.props,
                           commit_ts);
    }

    case WalOpType::kRelState: {
      // Full post-state (see kNodeState). The record must exist: its create
      // op either precedes this op in the replayed suffix or was persisted
      // before the stable LSN. A free record here means a later purge was
      // already applied — the op is stale; skip it.
      if (op.id >= rels_->high_id()) return Status::OK();
      RelationshipRecord rec;
      NEOSI_RETURN_IF_ERROR(ReadRelRecord(op.id, &rec));
      if (!rec.in_use) return Status::OK();
      if (rec.commit_ts > commit_ts) return Status::OK();
      return PersistRelState(op.id, op.props, commit_ts);
    }

    case WalOpType::kDeleteRel: {
      RelationshipRecord rec;
      NEOSI_RETURN_IF_ERROR(ReadRelRecord(op.id, &rec));
      if (!rec.in_use || (rec.deleted && rec.commit_ts >= commit_ts)) {
        return Status::OK();
      }
      return PersistRelTombstone(op.id, commit_ts);
    }

    case WalOpType::kPurgeNode: {
      if (op.id >= nodes_->high_id()) return Status::OK();
      NodeRecord rec;
      NEOSI_RETURN_IF_ERROR(ReadNodeRecord(op.id, &rec));
      // Purges only ever target tombstoned records: a live record here
      // means the id was purged and REUSED — the op is stale, and blindly
      // re-purging would destroy the new tenant.
      if (rec.in_use && !rec.deleted) return Status::OK();
      return PurgeNode(op.id);
    }

    case WalOpType::kPurgeRel: {
      if (op.id >= rels_->high_id()) return Status::OK();
      RelationshipRecord rec;
      NEOSI_RETURN_IF_ERROR(ReadRelRecord(op.id, &rec));
      // Stale purge against a reused id (see kPurgeNode above).
      if (rec.in_use && !rec.deleted) return Status::OK();
      if (!rec.in_use) {
        // Record already freed; redo the neighbour surgery idempotently
        // using the pointers logged at purge time.
        auto guards = LockNodePair(op.src, op.dst);
        RelationshipRecord ghost;
        ghost.src = op.src;
        ghost.dst = op.dst;
        ghost.src_prev = op.src_prev;
        ghost.src_next = op.src_next;
        ghost.dst_prev = op.dst_prev;
        ghost.dst_next = op.dst_next;
        NEOSI_RETURN_IF_ERROR(UnlinkFromChain(op.id, ghost, op.src));
        if (op.dst != op.src) {
          NEOSI_RETURN_IF_ERROR(UnlinkFromChain(op.id, ghost, op.dst));
        }
        return Status::OK();
      }
      return PurgeRel(op.id);
    }

    case WalOpType::kCheckpoint:
      // Marker: consumed by Recover()'s skip logic, a no-op to apply.
      return Status::OK();
  }
  return Status::Corruption("wal replay: unknown op");
}

Result<Timestamp> GraphStore::Recover() {
  Timestamp max_ts = kNoTimestamp;

  // Highest timestamp already persisted in the stores.
  Status s = ForEachNode([&](NodeId id) {
    NodeRecord rec;
    NEOSI_RETURN_IF_ERROR(ReadNodeRecord(id, &rec));
    max_ts = std::max(max_ts, rec.commit_ts);
    return Status::OK();
  });
  if (!s.ok()) return s;
  s = ForEachRel([&](RelId id) {
    RelationshipRecord rec;
    NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &rec));
    max_ts = std::max(max_ts, rec.commit_ts);
    return Status::OK();
  });
  if (!s.ok()) return s;

  // Pass 1: find the last checkpoint marker. Everything below its stable
  // LSN had durably reached the stores when the marker was written (a crash
  // between marker write and prefix truncation leaves such a prefix in the
  // log; it must be skipped, not merely tolerated, to keep replay cost
  // proportional to the un-checkpointed suffix). This pass also truncates
  // any torn tail.
  Lsn replay_from = wal_->HeadLsn();
  s = wal_->ReadFrom(replay_from, [&](Lsn, const WalRecord& record) {
    for (const WalOp& op : record.ops) {
      if (op.type == WalOpType::kCheckpoint) {
        replay_from = std::max<Lsn>(replay_from, op.id);
      }
    }
    return Status::OK();
  });
  if (!s.ok()) return s;

  // Pass 2: replay the suffix at or above the last stable LSN. Replay stays
  // idempotent, so overlap with already-applied state is repaired, not
  // double-applied.
  NEOSI_RECOVER_TRACE("recover: max_persisted_ts=%llu replay_from=%llu",
                      (unsigned long long)max_ts,
                      (unsigned long long)replay_from);
  // Suppress chain/blob frees for the whole replay: after a crash the store
  // files can reflect different flush instants, so a record's old chain
  // pointer may alias records owned by another live chain. Freeing through
  // it would corrupt that chain mid-replay. The reachability sweep below
  // reclaims whatever replay leaked.
  recovering_ = true;
  s = wal_->ReadFrom(replay_from, [&](Lsn lsn, const WalRecord& record) {
    for (const WalOp& op : record.ops) {
      NEOSI_RECOVER_TRACE("replay lsn=%llu ts=%llu op=%d id=%llu",
                          (unsigned long long)lsn,
                          (unsigned long long)record.commit_ts,
                          static_cast<int>(op.type), (unsigned long long)op.id);
      Status apply = ApplyWalOp(op, record.commit_ts);
      if (!apply.ok()) {
        NodeRecord rec;
        if (op.id < nodes_->high_id() && ReadNodeRecord(op.id, &rec).ok()) {
          NEOSI_RECOVER_TRACE(
              "replay FAIL node=%llu in_use=%d deleted=%d rec_ts=%llu "
              "first_prop=%llu: %s",
              (unsigned long long)op.id, rec.in_use ? 1 : 0,
              rec.deleted ? 1 : 0, (unsigned long long)rec.commit_ts,
              (unsigned long long)rec.first_prop,
              apply.ToString().c_str());
        } else {
          NEOSI_RECOVER_TRACE("replay FAIL id=%llu: %s",
                              (unsigned long long)op.id,
                              apply.ToString().c_str());
        }
        return apply;
      }
    }
    max_ts = std::max(max_ts, record.commit_ts);
    return Status::OK();
  });
  recovering_ = false;
  if (!s.ok()) return s;

  // Post-replay sweep: the authoritative reachability set is the first_prop
  // of every live record; everything else in the property store is garbage
  // left behind by the free-suppression above (or by the crash itself).
  std::vector<PropId> roots;
  s = ForEachNode([&](NodeId id) {
    NodeRecord rec;
    NEOSI_RETURN_IF_ERROR(ReadNodeRecord(id, &rec));
    if (rec.first_prop != kInvalidPropId) roots.push_back(rec.first_prop);
    return Status::OK();
  });
  if (!s.ok()) return s;
  s = ForEachRel([&](RelId id) {
    RelationshipRecord rec;
    NEOSI_RETURN_IF_ERROR(ReadRelRecord(id, &rec));
    if (rec.first_prop != kInvalidPropId) roots.push_back(rec.first_prop);
    return Status::OK();
  });
  if (!s.ok()) return s;
  uint64_t swept = 0;
  NEOSI_RETURN_IF_ERROR(props_->SweepUnreachable(roots, &swept));
  NEOSI_RECOVER_TRACE("recover: swept %llu orphan property records",
                      (unsigned long long)swept);

  // Blob reachability audit: the sweep above deliberately leaves overflow
  // blobs of crash-leaked chains in place (a stale record's overflow id can
  // alias a live blob, so freeing through orphans is unsafe). Measure the
  // leak instead: it fails Corruption if any LIVE chain's blob is broken,
  // and the leaked-block gauge lets tests and operators see the bounded
  // per-crash leak and verify it does not grow across clean restarts.
  uint64_t leaked = 0;
  NEOSI_RETURN_IF_ERROR(props_->AuditBlobReachability(roots, &leaked));
  dyn_leaked_blocks_.store(leaked, std::memory_order_relaxed);
  NEOSI_RECOVER_TRACE("recover: %llu dynamic-store blocks leaked",
                      (unsigned long long)leaked);
#ifndef NDEBUG
  // Debug builds additionally re-walk every live chain through the full
  // decode path (records AND overflow blobs), so a blob the audit's mark
  // pass missed or a value torn below the frame CRC trips an assert at
  // reopen instead of at first read.
  for (PropId root : roots) {
    PropertyMap check;
    assert(props_->ReadChain(root, &check).ok());
  }
#endif
  return max_ts;
}

Status GraphStore::Checkpoint() {
  std::lock_guard<std::mutex> guard(checkpoint_mu_);

  // 1. Stable LSN: every record below it has fully reached the stores
  //    (in-flight commits and GC purges pin their record's lsn from append
  //    until store apply). Read BEFORE the store sync so the sync is
  //    guaranteed to cover those applies.
  const Lsn stable = wal_->StableLsn();
  const Lsn head = wal_->HeadLsn();
  if (stable == head) {
    // The cut cannot advance (empty log, or a commit stalled right at the
    // head pins it). Bail before paying fsyncs or appending a marker that
    // would restate the previous checkpoint — a stuck pin must not turn
    // every daemon pass into WAL growth.
    return Status::OK();
  }

  // 2. Incremental store sync: only files dirtied since the last
  //    checkpoint pay an fsync.
  uint64_t synced = 0, skipped = 0;
  NEOSI_RETURN_IF_ERROR(SyncDirty(&synced, &skipped));
  checkpoint_stores_synced_.fetch_add(synced, std::memory_order_relaxed);
  checkpoint_stores_skipped_.fetch_add(skipped, std::memory_order_relaxed);

  if (checkpoint_hooks.stall_before_marker.load(std::memory_order_acquire)) {
    checkpoint_hooks.stalls.fetch_add(1, std::memory_order_relaxed);
    while (
        checkpoint_hooks.stall_before_marker.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  NEOSI_RETURN_IF_ERROR(fault_hooks.Check("checkpoint.pre_marker"));

  // 3. Marker record: declares [.., stable) durably applied. Synced so a
  //    post-crash replay can skip the prefix even if the truncation below
  //    never happened. The marker is MANDATORY on every cut: segment-
  //    granular truncation keeps the pre-stable bytes of the partially-dead
  //    oldest segment on disk, and after a crash recovery rescans the whole
  //    retained chain — without a marker it would replay stale records
  //    below the stable LSN (harmless for the idempotent data ops, but a
  //    stale GC purge replayed against a reused record id is not). When the
  //    log was fully applied at step 1 the cut extends past the marker
  //    itself: the live log reads empty, while the marker frame physically
  //    survives in the active segment to steer any crash-time replay.
  Lsn cut = stable;
  {
    WalRecord marker;
    marker.txn_id = kNoTxn;
    marker.commit_ts = kNoTimestamp;
    marker.ops.push_back(WalOp::Checkpoint(stable));
    Lsn marker_end = 0;
    auto marker_lsn = wal_->Append(marker, /*pin=*/false, &marker_end);
    if (!marker_lsn.ok()) return marker_lsn.status();
    NEOSI_RETURN_IF_ERROR(wal_->Sync());
    checkpoint_markers_.fetch_add(1, std::memory_order_relaxed);
    // Only when the marker landed EXACTLY at the stable LSN is everything
    // below it applied (a commit that slipped in between is unapplied and
    // pinned — the cut must stay below it).
    if (*marker_lsn == stable) cut = marker_end;
  }

  if (checkpoint_hooks.crash_after_marker.load(std::memory_order_acquire)) {
    return Status::IOError("simulated crash between marker and truncation");
  }
  NEOSI_RETURN_IF_ERROR(fault_hooks.Check("checkpoint.post_marker"));

  // 4. Drop the replayed prefix: segments wholly below the cut are
  //    unlinked. Crash-safe in either direction: a crash
  //    before the unlink just leaves dead segments recovery skips via the
  //    marker; the unlink itself only removes fully-applied, fully-synced
  //    records (or the marker, which survives in the active segment).
  NEOSI_RETURN_IF_ERROR(wal_->TruncatePrefix(cut));
  checkpoint_bytes_truncated_.fetch_add(cut - head,
                                        std::memory_order_relaxed);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

GraphStoreStats GraphStore::Stats() const {
  GraphStoreStats stats;
  stats.nodes = nodes_->Stats();
  stats.rels = rels_->Stats();
  stats.props = props_->PropStats();
  stats.strings = props_->DynStats();
  stats.label_dyn = label_dyn_->Stats();
  stats.wal_bytes = wal_->SizeBytes();
  stats.wal_head_lsn = wal_->HeadLsn();
  stats.wal_next_lsn = wal_->NextLsn();
  stats.wal_segments = wal_->SegmentCount();
  stats.wal_physical_bytes = wal_->PhysicalBytes();
  stats.wal_segments_created = wal_->segments_created();
  stats.wal_segments_deleted = wal_->segments_deleted();
  stats.wal_segments_preallocated = wal_->segments_preallocated();
  stats.wal_flushed_lsn = wal_->FlushedLsn();
  stats.wal_poisoned = wal_->poisoned();
  stats.dyn_leaked_blocks = dyn_leaked_blocks_.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  stats.checkpoint_markers =
      checkpoint_markers_.load(std::memory_order_relaxed);
  stats.checkpoint_bytes_truncated =
      checkpoint_bytes_truncated_.load(std::memory_order_relaxed);
  stats.checkpoint_stores_synced =
      checkpoint_stores_synced_.load(std::memory_order_relaxed);
  stats.checkpoint_stores_skipped =
      checkpoint_stores_skipped_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace neosi
