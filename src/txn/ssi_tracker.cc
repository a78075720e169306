#include "txn/ssi_tracker.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace neosi {

namespace {

/// Env-gated event trace (NEOSI_SSI_TRACE=stderr|<path>) for debugging
/// serializability holes: every marker insert, edge link, danger verdict
/// and doom lands in one ordered stream.
FILE* TraceFile() {
  static FILE* f = [] {
    const char* p = std::getenv("NEOSI_SSI_TRACE");
    if (p == nullptr || *p == '\0') return static_cast<FILE*>(nullptr);
    if (std::strcmp(p, "stderr") == 0) return stderr;
    return std::fopen(p, "w");
  }();
  return f;
}

std::mutex& TraceMu() {
  static std::mutex mu;
  return mu;
}

#define NEOSI_SSI_TRACE(...)                          \
  do {                                                \
    if (FILE* trace_f_ = TraceFile()) {               \
      std::lock_guard<std::mutex> trace_g_(TraceMu());\
      std::fprintf(trace_f_, __VA_ARGS__);            \
      std::fputc('\n', trace_f_);                     \
      std::fflush(trace_f_);                          \
    }                                                 \
  } while (0)

/// Out-neighbour view for the danger predicate: committed-or-committing
/// plus the commit timestamp when known (kNoTimestamp = committing, i.e.
/// unknown — treated as "could be first", the conservative direction).
struct OutView {
  bool done = false;
  Timestamp ts = kNoTimestamp;
};

OutView ViewOut(const SsiTxnInfo::OutEdge& e) {
  OutView v;
  if (e.peer == nullptr) {
    v.done = true;
    v.ts = e.anon_commit_ts;
    return v;
  }
  const SsiTxnState s = e.peer->state.load(std::memory_order_acquire);
  if (s == SsiTxnState::kCommitted || s == SsiTxnState::kCommitting) {
    v.done = true;
    v.ts = e.peer->commit_ts.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

SsiTracker::SsiTracker() : shards_(kShardCount) {}

SsiTracker::Shard& SsiTracker::ShardFor(uint64_t key) {
  // Splitmix finalizer: spreads the kind bits and dense ids over shards.
  key *= 0x9E3779B97F4A7C15ULL;
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ULL;
  key ^= key >> 27;
  return shards_[key % kShardCount];
}

// ---------------------------------------------------------------------------
// Registration / lifecycle
// ---------------------------------------------------------------------------

std::shared_ptr<SsiTxnInfo> SsiTracker::Register(TxnId id, bool read_only) {
  auto info = std::make_shared<SsiTxnInfo>();
  info->id = id;
  info->read_only = read_only;
  tracked_txns_.fetch_add(1, std::memory_order_relaxed);
  if (!read_only) active_rw_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> guard(registry_mu_);
  registry_[id] = info;
  // start_ts is still 0 ("older than everything"), which holds the
  // retention horizon down until SetStartTs.
  min_active_start_.store(kNoTimestamp, std::memory_order_release);
  return info;
}

void SsiTracker::SetStartTs(const std::shared_ptr<SsiTxnInfo>& info,
                            Timestamp start_ts) {
  info->start_ts.store(start_ts, std::memory_order_release);
  NEOSI_SSI_TRACE("ST t=%llu ts=%llu", (unsigned long long)info->id,
                  (unsigned long long)start_ts);
  std::lock_guard<std::mutex> guard(registry_mu_);
  RecomputeRegistryLocked();
}

bool SsiTracker::IsSnapshotSafe(Timestamp snapshot_ts) const {
  // Read order matters and mirrors FinishCommit's write order: a finishing
  // read-write peer raises last_rw_commit_ and only then decrements
  // active_rw_, so observing zero active peers here happens-after every
  // finished peer's high-water update. A snapshot below the high-water
  // predates a read-write commit the oracle may not have published yet —
  // that peer is still concurrent with this snapshot and could be the
  // pivot of the read-only anomaly, so the snapshot is not safe.
  if (active_rw_.load(std::memory_order_acquire) != 0) return false;
  return snapshot_ts >= last_rw_commit_.load(std::memory_order_acquire);
}

bool SsiTracker::Prunable(const SsiTxnInfo& info) const {
  const SsiTxnState s = info.state.load(std::memory_order_acquire);
  if (s == SsiTxnState::kAborted) return true;
  if (s != SsiTxnState::kCommitted) return false;
  const Timestamp ts = info.commit_ts.load(std::memory_order_acquire);
  // Retention rule: a finished transaction's markers and edges matter while
  // ANY snapshot older than its commit can still read — either a tracked
  // unfinished transaction (min_active_start_) or a transaction yet to
  // begin (snapshot_floor_: the tracker finishes BEFORE the oracle
  // publishes, so until the floor catches up a newcomer can still acquire
  // a snapshot that predates this commit and needs its rw-edges).
  return ts != kNoTimestamp &&
         ts <= min_active_start_.load(std::memory_order_acquire) &&
         ts <= snapshot_floor_.load(std::memory_order_acquire);
}

void SsiTracker::AdvanceSnapshotFloor(Timestamp ts) {
  Timestamp cur = snapshot_floor_.load(std::memory_order_relaxed);
  while (cur < ts &&
         !snapshot_floor_.compare_exchange_weak(cur, ts,
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
  }
}

void SsiTracker::RecomputeRegistryLocked() {
  Timestamp min_start = kMaxTimestamp;
  for (const auto& [id, info] : registry_) {
    const SsiTxnState s = info->state.load(std::memory_order_acquire);
    if (s == SsiTxnState::kActive || s == SsiTxnState::kCommitting) {
      min_start = std::min(min_start,
                           info->start_ts.load(std::memory_order_acquire));
    }
  }
  min_active_start_.store(min_start, std::memory_order_release);
  for (auto it = registry_.begin(); it != registry_.end();) {
    if (Prunable(*it->second)) {
      // Break the shared_ptr cycle (R.out_ holds W while W.in_ holds R) so
      // the records actually free once the lazy marker pruning lets go.
      {
        std::lock_guard<std::mutex> info_guard(it->second->mu);
        it->second->in_.clear();
        it->second->out_.clear();
      }
      NEOSI_SSI_TRACE("PRUNE t=%llu", (unsigned long long)it->second->id);
      it = registry_.erase(it);
    } else {
      ++it;
    }
  }
}

void SsiTracker::NoteFinished(const std::shared_ptr<SsiTxnInfo>& info) {
  if (!info->read_only) active_rw_.fetch_sub(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> guard(registry_mu_);
  RecomputeRegistryLocked();
}

void SsiTracker::FinishCommit(const std::shared_ptr<SsiTxnInfo>& self,
                              Timestamp ts) {
  // Timestamp before state: an observer that sees kCommitted always reads a
  // valid commit_ts; kCommitting observers treat the timestamp as unknown.
  self->commit_ts.store(ts, std::memory_order_release);
  self->state.store(SsiTxnState::kCommitted, std::memory_order_release);
  if (!self->read_only) {
    // Raise the read-write commit high-water BEFORE NoteFinished drops
    // active_rw_: IsSnapshotSafe reads the counter first, so a probe that
    // sees this transaction uncounted is guaranteed to see its commit
    // timestamp and reject snapshots that predate it.
    Timestamp cur = last_rw_commit_.load(std::memory_order_relaxed);
    while (cur < ts &&
           !last_rw_commit_.compare_exchange_weak(cur, ts,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed)) {
    }
  }
  NEOSI_SSI_TRACE("FC t=%llu ts=%llu", (unsigned long long)self->id,
                  (unsigned long long)ts);
  NoteFinished(self);
}

void SsiTracker::Abort(const std::shared_ptr<SsiTxnInfo>& self) {
  SsiTxnState expected = self->state.load(std::memory_order_acquire);
  do {
    if (expected == SsiTxnState::kAborted ||
        expected == SsiTxnState::kCommitted) {
      return;  // Idempotent; a committed transaction cannot abort.
    }
  } while (!self->state.compare_exchange_weak(expected, SsiTxnState::kAborted,
                                              std::memory_order_acq_rel));
  NEOSI_SSI_TRACE("AB t=%llu", (unsigned long long)self->id);
  NoteFinished(self);
}

Status SsiTracker::FailIfDoomed(const std::shared_ptr<SsiTxnInfo>& self) {
  if (!self->doomed.load(std::memory_order_acquire)) return Status::OK();
  aborts_doomed_.fetch_add(1, std::memory_order_relaxed);
  return Status::SerializationFailure(
      "serializable transaction doomed by a committing peer (pivot of a "
      "dangerous rw-antidependency structure); retry the transaction");
}

// ---------------------------------------------------------------------------
// Markers
// ---------------------------------------------------------------------------

void SsiTracker::AddRead(const std::shared_ptr<SsiTxnInfo>& self,
                         const SsiTarget& target,
                         const std::optional<PropertyValue>& lo,
                         const std::optional<PropertyValue>& hi) {
  Shard& shard = ShardFor(target.key);
  {
    std::lock_guard<std::mutex> guard(shard.mu);
    std::vector<Marker>& markers = shard.markers[target.key];
    std::erase_if(markers,
                  [&](const Marker& m) { return Prunable(*m.reader); });
    for (const Marker& m : markers) {
      if (m.reader == self &&
          (m.range == nullptr || (m.range->lo == lo && m.range->hi == hi))) {
        return;  // Already covered.
      }
    }
    markers.push_back(Marker{
        self, lo || hi ? std::make_unique<Marker::Range>(Marker::Range{lo, hi})
                       : nullptr});
  }
  NEOSI_SSI_TRACE("M t=%llu key=%016llx", (unsigned long long)self->id,
                  (unsigned long long)target.key);
}

std::vector<std::shared_ptr<SsiTxnInfo>> SsiTracker::LinkReaders(
    const std::shared_ptr<SsiTxnInfo>& self, const SsiTarget& target) {
  std::vector<std::shared_ptr<SsiTxnInfo>> readers;
  {
    Shard& shard = ShardFor(target.key);
    std::lock_guard<std::mutex> guard(shard.mu);
    auto it = shard.markers.find(target.key);
    if (it == shard.markers.end()) return readers;
    std::erase_if(it->second,
                  [&](const Marker& m) { return Prunable(*m.reader); });
    for (const Marker& m : it->second) {
      if (m.reader != self && m.Covers(target.value)) {
        readers.push_back(m.reader);
      }
    }
  }
  for (const auto& reader : readers) LinkEdge(reader, self);
  return readers;
}

size_t SsiTracker::MarkerCount(TxnId txn) {
  size_t n = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    for (const auto& [key, markers] : shard.markers) {
      for (const Marker& m : markers) n += m.reader->id == txn;
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Edges & danger evaluation
// ---------------------------------------------------------------------------

void SsiTracker::LinkEdge(const std::shared_ptr<SsiTxnInfo>& reader,
                          const std::shared_ptr<SsiTxnInfo>& writer) {
  if (reader == writer) return;
  SsiTxnInfo* first = reader.get();
  SsiTxnInfo* second = writer.get();
  if (second->id < first->id) std::swap(first, second);
  std::lock_guard<std::mutex> g1(first->mu);
  std::lock_guard<std::mutex> g2(second->mu);
  for (const SsiTxnInfo::OutEdge& e : reader->out_) {
    if (e.peer == writer) return;  // Already recorded.
  }
  reader->out_.push_back(SsiTxnInfo::OutEdge{writer, kNoTimestamp});
  writer->in_.push_back(reader);
  NEOSI_SSI_TRACE("E r=%llu w=%llu", (unsigned long long)reader->id,
                  (unsigned long long)writer->id);
}

bool SsiTracker::DangerousPivot(const SsiTxnInfo& p) {
  const SsiTxnState p_state = p.state.load(std::memory_order_acquire);
  const Timestamp p_ts = p.commit_ts.load(std::memory_order_acquire);
  for (const SsiTxnInfo::OutEdge& e : p.out_) {
    const OutView o = ViewOut(e);
    if (!o.done) continue;  // O unfinished: it did not commit first.
    if (p_state == SsiTxnState::kCommitted && o.ts != kNoTimestamp &&
        p_ts != kNoTimestamp && o.ts > p_ts) {
      continue;  // p committed before this out-neighbour: not dangerous.
    }
    for (const std::shared_ptr<SsiTxnInfo>& in : p.in_) {
      const SsiTxnState i_state = in->state.load(std::memory_order_acquire);
      if (i_state == SsiTxnState::kAborted) continue;
      if (i_state != SsiTxnState::kCommitted) return true;  // I unfinished.
      const Timestamp i_ts = in->commit_ts.load(std::memory_order_acquire);
      // I committed: dangerous when O's commit is not strictly after I's
      // (O first — or its timestamp is unknown, the conservative case).
      if (o.ts == kNoTimestamp || i_ts >= o.ts) return true;
    }
  }
  return false;
}

size_t SsiTracker::DoomActiveInPeers(const std::shared_ptr<SsiTxnInfo>& p) {
  std::vector<std::shared_ptr<SsiTxnInfo>> victims;
  {
    std::lock_guard<std::mutex> guard(p->mu);
    victims = p->in_;
  }
  size_t doomed = 0;
  for (const auto& v : victims) {
    if (v->state.load(std::memory_order_acquire) == SsiTxnState::kActive) {
      v->doomed.store(true, std::memory_order_release);
      ++doomed;
    }
  }
  return doomed;
}

Status SsiTracker::OnReadObservedCommit(
    const std::shared_ptr<SsiTxnInfo>& self, TxnId writer,
    Timestamp writer_commit_ts) {
  std::shared_ptr<SsiTxnInfo> peer;
  if (writer != kNoTxn && writer != self->id) {
    std::lock_guard<std::mutex> guard(registry_mu_);
    auto it = registry_.find(writer);
    if (it != registry_.end()) peer = it->second;
  }
  if (peer) {
    LinkEdge(self, peer);
  } else {
    std::lock_guard<std::mutex> guard(self->mu);
    bool known = false;
    for (const SsiTxnInfo::OutEdge& e : self->out_) {
      if (e.peer == nullptr && e.anon_commit_ts == writer_commit_ts) {
        known = true;
        break;
      }
    }
    if (!known) {
      self->out_.push_back(SsiTxnInfo::OutEdge{nullptr, writer_commit_ts});
    }
  }
  NEOSI_SSI_TRACE("RO t=%llu w=%llu ts=%llu peer=%d",
                  (unsigned long long)self->id, (unsigned long long)writer,
                  (unsigned long long)writer_commit_ts, peer ? 1 : 0);

  // Self as pivot: the new out-edge is committed, so any unfinished (or
  // late-committed) in-neighbour completes the dangerous structure.
  {
    std::lock_guard<std::mutex> guard(self->mu);
    if (DangerousPivot(*self)) {
      aborts_pivot_.fetch_add(1, std::memory_order_relaxed);
      NEOSI_SSI_TRACE("ROKILL t=%llu self-pivot",
                      (unsigned long long)self->id);
      return Status::SerializationFailure(
          "serializable read observed a conflicting commit that makes this "
          "transaction the pivot of a dangerous structure; retry");
    }
  }
  // Committed-pivot rule: the writer already committed; if IT pivots a
  // dangerous structure (an out-neighbour committed first), the only
  // participant left to abort is self — the reader that just discovered
  // the structure (this is how the read-only anomaly's detector dies).
  if (peer &&
      peer->state.load(std::memory_order_acquire) == SsiTxnState::kCommitted) {
    std::lock_guard<std::mutex> guard(peer->mu);
    if (DangerousPivot(*peer)) {
      aborts_pivot_.fetch_add(1, std::memory_order_relaxed);
      NEOSI_SSI_TRACE("ROKILL t=%llu committed-pivot w=%llu",
                      (unsigned long long)self->id,
                      (unsigned long long)writer);
      return Status::SerializationFailure(
          "serializable read observed the committed pivot of a dangerous "
          "structure; retry");
    }
  }
  return Status::OK();
}

Status SsiTracker::OnWrite(const std::shared_ptr<SsiTxnInfo>& self,
                           const SsiTarget& target) {
  LinkReaders(self, target);
  std::lock_guard<std::mutex> guard(self->mu);
  if (DangerousPivot(*self)) {
    aborts_pivot_.fetch_add(1, std::memory_order_relaxed);
    return Status::SerializationFailure(
        "serializable write overlaps a concurrent reader's SIREAD marker "
        "and makes this transaction the pivot of a dangerous structure; "
        "retry");
  }
  return Status::OK();
}

void SsiTracker::OnPostStamp(const std::shared_ptr<SsiTxnInfo>& self,
                             const std::vector<SsiTarget>& writes) {
  for (const SsiTarget& target : writes) {
    for (const auto& reader : LinkReaders(self, target)) {
      const SsiTxnState r_state =
          reader->state.load(std::memory_order_acquire);
      if (r_state == SsiTxnState::kActive ||
          r_state == SsiTxnState::kCommitting) {
        // The new edge may complete a dangerous structure in either
        // direction. Reader as pivot: reader --rw--> self plus any in-edge
        // of the reader. Self as pivot: reader --rw--> self --rw--> O with
        // O committed before self — self is already committed, so the
        // reader (the in-side, still abortable) is the participant that
        // must die; without this rule a reader that walked our chains
        // inside the unstamped window and only later acquires its own
        // out-edges closes an undetectable cycle.
        bool self_pivots;
        {
          std::lock_guard<std::mutex> guard(self->mu);
          self_pivots = DangerousPivot(*self);
        }
        std::lock_guard<std::mutex> guard(reader->mu);
        if (self_pivots || DangerousPivot(*reader)) {
          reader->doomed.store(true, std::memory_order_release);
          NEOSI_SSI_TRACE("PSDOOM t=%llu r=%llu selfpiv=%d",
                          (unsigned long long)self->id,
                          (unsigned long long)reader->id, self_pivots ? 1 : 0);
        }
      } else if (r_state == SsiTxnState::kCommitted) {
        // The reader committed between its chain walk and this rescan and
        // now pivots with self as its (already committed) out-neighbour:
        // the participants left to kill are the reader's own unfinished
        // in-neighbours.
        bool dangerous;
        {
          std::lock_guard<std::mutex> guard(reader->mu);
          dangerous = DangerousPivot(*reader);
        }
        if (dangerous) {
          const size_t n = DoomActiveInPeers(reader);
          NEOSI_SSI_TRACE("PSDOOMIN t=%llu r=%llu n=%zu",
                          (unsigned long long)self->id,
                          (unsigned long long)reader->id, n);
        }
      }
    }
  }
}

Status SsiTracker::PreCommitCheck(
    const std::shared_ptr<SsiTxnInfo>& self,
    const std::vector<SsiTarget>& writes,
    std::unique_lock<std::mutex>* commit_guard) {
  *commit_guard = std::unique_lock<std::mutex>(commit_mu_);
  NEOSI_SSI_TRACE("PCC t=%llu enter", (unsigned long long)self->id);
  // Marker rescan: a reader may have inserted its marker (and even
  // committed) since the write-time OnWrite scans; its edge must exist
  // before the pivot evaluation below or self commits over a dangerous
  // structure nobody can abort any more.
  for (const SsiTarget& target : writes) LinkReaders(self, target);
  if (self->doomed.load(std::memory_order_acquire)) {
    NEOSI_SSI_TRACE("PCC t=%llu doomed", (unsigned long long)self->id);
  }
  NEOSI_RETURN_IF_ERROR(FailIfDoomed(self));
  {
    std::lock_guard<std::mutex> guard(self->mu);
    if (DangerousPivot(*self)) {
      aborts_pivot_.fetch_add(1, std::memory_order_relaxed);
      NEOSI_SSI_TRACE("PCC t=%llu pivot-abort", (unsigned long long)self->id);
      return Status::SerializationFailure(
          "serializable commit would complete a dangerous rw-antidependency "
          "structure with this transaction as the pivot; retry");
    }
  }
  // Self is about to become a committed out-neighbour. Any unfinished
  // in-neighbour that already has in-edges of its own turns into a pivot
  // whose out-neighbour (self) commits first — doom it now, while
  // commit_mu_ still serializes us against its own PreCommitCheck.
  std::vector<std::shared_ptr<SsiTxnInfo>> in_peers;
  {
    std::lock_guard<std::mutex> guard(self->mu);
    in_peers = self->in_;
  }
  for (const auto& p : in_peers) {
    if (p->state.load(std::memory_order_acquire) != SsiTxnState::kActive) {
      continue;
    }
    bool has_live_in = false;
    {
      std::lock_guard<std::mutex> guard(p->mu);
      for (const auto& in : p->in_) {
        if (in->state.load(std::memory_order_acquire) !=
            SsiTxnState::kAborted) {
          has_live_in = true;
          break;
        }
      }
    }
    if (has_live_in) {
      p->doomed.store(true, std::memory_order_release);
      NEOSI_SSI_TRACE("PCCDOOM t=%llu victim=%llu",
                      (unsigned long long)self->id, (unsigned long long)p->id);
    }
  }
  self->state.store(SsiTxnState::kCommitting, std::memory_order_release);
  NEOSI_SSI_TRACE("PCC t=%llu ok", (unsigned long long)self->id);
  return Status::OK();
}

SsiTrackerStats SsiTracker::Stats() const {
  SsiTrackerStats stats;
  stats.tracked_txns = tracked_txns_.load(std::memory_order_relaxed);
  stats.safe_snapshots = safe_snapshots_.load(std::memory_order_relaxed);
  stats.aborts_pivot = aborts_pivot_.load(std::memory_order_relaxed);
  stats.aborts_doomed = aborts_doomed_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace neosi
