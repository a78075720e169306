#include "mvcc/version_chain.h"

#include <memory>

#include "mvcc/epoch.h"

namespace neosi {

namespace {

/// One latch-free walk step: returns `v`'s older link and stores its commit
/// timestamp in `*ts`. The link is loaded FIRST. In the reverse order a
/// walk can see `v` uncommitted, lose the CPU while `v` commits and a prune
/// keeps it as the newest version (nulling its link), and then end on the
/// null link with every committed version missed. A prune nulls the link
/// only after the commit, so a null link loaded first guarantees the
/// timestamp load below sees the commit; a non-null one leads into a
/// suffix the epoch guard keeps alive.
const Version* OlderThenTs(const Version* v, Timestamp* ts) {
  const Version* older = v->older.load(std::memory_order_acquire);
  *ts = v->commit_ts.load(std::memory_order_acquire);
  return older;
}

/// Deletes `v` and every version below it. Only the chain destructor and a
/// retired suffix call this: each owns the whole run down to null.
void DeleteDownward(Version* v) {
  while (v != nullptr) {
    Version* older = v->older.load(std::memory_order_relaxed);
    delete v;
    v = older;
  }
}

/// A chain suffix severed by a prune, retired as one limbo object.
struct RetiredSuffix {
  explicit RetiredSuffix(Version* head) : head(head) {}
  ~RetiredSuffix() { DeleteDownward(head); }
  Version* const head;
};

}  // namespace

VersionChain::~VersionChain() {
  // No retire needed: the object cache deletes an entry only when the
  // epoch drain proves no guard that could reach it is still held, so
  // reaching the destructor means no reader can walk this chain.
  DeleteDownward(head_.load(std::memory_order_relaxed));
}

Result<Version*> VersionChain::InstallUncommitted(TxnId writer,
                                                  VersionData data) {
  // Allocated before the latch; freed after it if the install collapses or
  // fails (the guard below is released first).
  auto version = std::make_unique<Version>();
  version->writer = writer;
  version->data = std::move(data);
  std::lock_guard<SpinLatch> guard(latch_);
  Version* head = head_.load(std::memory_order_relaxed);
  if (head != nullptr && !head->committed()) {
    if (head->writer == writer) {
      // Same transaction writing again: collapse into one pending version
      // (a transaction has exactly one private version per entity). Safe
      // against latch-free readers: they skip uncommitted versions on the
      // commit_ts check alone and never touch this data (the writer itself
      // reads it from its own thread).
      head->data = std::move(version->data);
      return head;
    }
    return Status::Internal(
        "version chain: concurrent uncommitted writers (lock bug)");
  }
  version->older.store(head, std::memory_order_relaxed);
  // Publication point for `writer`, the initial `data` and the link.
  head_.store(version.get(), std::memory_order_release);
  return version.release();
}

Result<bool> VersionChain::CommitHead(TxnId writer, Timestamp ts) {
  std::lock_guard<SpinLatch> guard(latch_);
  Version* head = head_.load(std::memory_order_relaxed);
  if (head == nullptr || head->committed() || head->writer != writer) {
    return Status::Internal("version chain: commit without pending version");
  }
  // Release: publishes the version's data to latch-free readers that
  // acquire-load this timestamp.
  head->commit_ts.store(ts, std::memory_order_release);
  // False for the first version of the entity.
  return head->older.load(std::memory_order_relaxed) != nullptr;
}

void VersionChain::AbortHead(TxnId writer) {
  std::lock_guard<SpinLatch> guard(latch_);
  Version* victim = head_.load(std::memory_order_relaxed);
  if (victim != nullptr && !victim->committed() && victim->writer == writer) {
    head_.store(victim->older.load(std::memory_order_relaxed),
                std::memory_order_release);
    // victim->older stays intact: a latch-free reader standing on the
    // aborted head keeps walking into the surviving chain. Freeing the
    // victim frees it alone.
    epochs_->Retire(std::unique_ptr<Version>(victim));
  }
}

const Version* VersionChain::Visible(Timestamp start_ts, TxnId self) const {
  // Latch-free walk: raw atomic links under an epoch guard (nested in the
  // caller's, which keeps the returned version alive).
  EpochManager::Guard guard(epochs_);
  Timestamp ts = kNoTimestamp;
  for (const Version *v = head_.load(std::memory_order_acquire), *older;
       v != nullptr; v = older) {
    older = OlderThenTs(v, &ts);
    if (ts == kNoTimestamp) {
      if (self != kNoTxn && v->writer == self) return v;  // Own write.
      continue;  // Private to another transaction.
    }
    if (ts <= start_ts) return v;
  }
  return nullptr;
}

const Version* VersionChain::LatestCommitted() const {
  EpochManager::Guard guard(epochs_);
  Timestamp ts = kNoTimestamp;
  for (const Version *v = head_.load(std::memory_order_acquire), *older;
       v != nullptr; v = older) {
    older = OlderThenTs(v, &ts);
    if (ts != kNoTimestamp) return v;
  }
  return nullptr;
}

bool VersionChain::HasUncommitted() const {
  std::lock_guard<SpinLatch> guard(latch_);
  const Version* head = head_.load(std::memory_order_relaxed);
  return head != nullptr && !head->committed();
}

Timestamp VersionChain::NewestCommitTs() const {
  EpochManager::Guard guard(epochs_);
  Timestamp ts = kNoTimestamp;
  for (const Version *v = head_.load(std::memory_order_acquire), *older;
       v != nullptr; v = older) {
    older = OlderThenTs(v, &ts);
    if (ts != kNoTimestamp) return ts;
  }
  return kNoTimestamp;
}

void VersionChain::CommittedNewerThan(
    Timestamp start_ts, std::vector<std::pair<TxnId, Timestamp>>* out) const {
  EpochManager::Guard guard(epochs_);
  Timestamp ts = kNoTimestamp;
  for (const Version *v = head_.load(std::memory_order_acquire), *older;
       v != nullptr; v = older) {
    older = OlderThenTs(v, &ts);
    if (ts == kNoTimestamp) continue;  // Private to an in-flight writer.
    if (ts <= start_ts) break;  // Newest-first: everything older is too.
    out->emplace_back(v->writer, ts);
  }
}

size_t VersionChain::PruneSupersededUpTo(Timestamp watermark) {
  std::lock_guard<SpinLatch> guard(latch_);
  // Find the newest committed version visible at the watermark; everything
  // older is unreachable by any current or future snapshot. (A registered,
  // non-expired snapshot has start_ts >= watermark, so its walk stops at
  // `keep` or newer — it can never be standing INSIDE the severed suffix
  // unless it is already expired, in which case its post-walk
  // SnapshotTooOld check rejects whatever it read; see ARCHITECTURE.md.)
  Version* keep = head_.load(std::memory_order_relaxed);
  for (; keep != nullptr; keep = keep->older.load(std::memory_order_relaxed)) {
    if (keep->committed() &&
        keep->commit_ts.load(std::memory_order_relaxed) <= watermark) {
      break;
    }
  }
  if (keep == nullptr) return 0;
  Version* suffix = keep->older.load(std::memory_order_relaxed);
  size_t dropped = 0;
  for (const Version* v = suffix; v != nullptr;
       v = v->older.load(std::memory_order_relaxed)) {
    ++dropped;
  }
  if (dropped == 0) return 0;
  // The whole suffix is retired as ONE limbo object; its interior links
  // stay intact for any reader still walking inside it.
  keep->older.store(nullptr, std::memory_order_release);
  epochs_->Retire(std::make_unique<RetiredSuffix>(suffix));
  return dropped;
}

size_t VersionChain::Length() const {
  std::lock_guard<SpinLatch> guard(latch_);
  size_t n = 0;
  for (const Version* v = head_.load(std::memory_order_relaxed); v != nullptr;
       v = v->older.load(std::memory_order_relaxed)) {
    ++n;
  }
  return n;
}

size_t VersionChain::ApproximateBytes() const {
  std::lock_guard<SpinLatch> guard(latch_);
  size_t n = 0;
  for (const Version* v = head_.load(std::memory_order_relaxed); v != nullptr;
       v = v->older.load(std::memory_order_relaxed)) {
    n += sizeof(Version);
    // An uncommitted head's data is its writer's, rewritten without the
    // latch; only committed data is immutable.
    if (v->committed()) n += v->data.ApproximateSize();
  }
  return n;
}

}  // namespace neosi
