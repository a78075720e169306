#include "mvcc/version_chain.h"

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
  const Version* older = v->older_raw.load(std::memory_order_acquire);
  *ts = v->commit_ts.load(std::memory_order_acquire);
  return older;
}

}  // namespace

VersionChain::~VersionChain() {
  // Unwind the chain iteratively; a long shared_ptr chain would otherwise
  // destruct recursively and can overflow the stack (E6 builds 1k+ chains).
  // No retire needed: the object cache deletes an entry only when the
  // epoch drain proves no guard that could reach it is still held, so
  // reaching the destructor means no reader can walk this chain.
  std::shared_ptr<Version> cur = std::move(head_);
  while (cur) {
    std::shared_ptr<Version> next = std::move(cur->older);
    cur.reset();
    cur = std::move(next);
  }
}

Result<std::shared_ptr<Version>> VersionChain::InstallUncommitted(
    TxnId writer, VersionData data) {
  auto version = std::make_shared<Version>();
  version->writer = writer;
  version->data = std::move(data);
  std::lock_guard<SpinLatch> guard(latch_);
  if (head_ && !head_->committed()) {
    if (head_->writer == writer) {
      // Same transaction writing again: collapse into one pending version
      // (a transaction has exactly one private version per entity). Safe
      // against latch-free readers: they skip uncommitted versions on the
      // commit_ts check alone and never touch this data (the writer itself
      // reads it from its own thread).
      head_->data = std::move(version->data);
      return head_;
    }
    return Status::Internal(
        "version chain: concurrent uncommitted writers (lock bug)");
  }
  version->older = head_;
  version->older_raw.store(head_.get(), std::memory_order_relaxed);
  head_ = version;
  // Publication point for `writer` and the initial `data`.
  head_raw_.store(version.get(), std::memory_order_release);
  return version;
}

Result<std::shared_ptr<Version>> VersionChain::CommitHead(TxnId writer,
                                                          Timestamp ts) {
  std::lock_guard<SpinLatch> guard(latch_);
  if (!head_ || head_->committed() || head_->writer != writer) {
    return Status::Internal("version chain: commit without pending version");
  }
  // Release: publishes the version's data to latch-free readers that
  // acquire-load this timestamp.
  head_->commit_ts.store(ts, std::memory_order_release);
  if (head_->data.deleted) head_->obsolete_since = ts;  // Tombstone.
  if (head_->older) head_->older->obsolete_since = ts;
  return head_->older;  // May be null (first version of the entity).
}

void VersionChain::AbortHead(TxnId writer) {
  std::lock_guard<SpinLatch> guard(latch_);
  if (head_ && !head_->committed() && head_->writer == writer) {
    std::shared_ptr<Version> victim = std::move(head_);
    head_ = victim->older;
    head_raw_.store(head_.get(), std::memory_order_release);
    // victim->older / older_raw stay intact: a latch-free reader standing
    // on the aborted head keeps walking into the surviving chain.
    epochs_->Retire(std::move(victim));
  }
}

std::shared_ptr<const Version> VersionChain::Visible(Timestamp start_ts,
                                                     TxnId self) const {
  // Latch-free walk: raw atomic links under an epoch guard. Every version
  // reachable here is kept alive by its chain predecessor or by the epoch
  // limbo, so promoting the raw pointer back to an owning one is safe.
  EpochManager::Guard guard(epochs_);
  Timestamp ts = kNoTimestamp;
  for (const Version *v = head_raw_.load(std::memory_order_acquire), *older;
       v != nullptr; v = older) {
    older = OlderThenTs(v, &ts);
    if (ts == kNoTimestamp) {
      if (self != kNoTxn && v->writer == self) {
        return v->shared_from_this();  // Own write.
      }
      continue;  // Private to another transaction.
    }
    if (ts <= start_ts) return v->shared_from_this();
  }
  return nullptr;
}

std::shared_ptr<const Version> VersionChain::LatestCommitted() const {
  EpochManager::Guard guard(epochs_);
  Timestamp ts = kNoTimestamp;
  for (const Version *v = head_raw_.load(std::memory_order_acquire), *older;
       v != nullptr; v = older) {
    older = OlderThenTs(v, &ts);
    if (ts != kNoTimestamp) return v->shared_from_this();
  }
  return nullptr;
}

std::shared_ptr<Version> VersionChain::Head() const {
  std::lock_guard<SpinLatch> guard(latch_);
  return head_;
}

bool VersionChain::HasUncommitted() const {
  std::lock_guard<SpinLatch> guard(latch_);
  return head_ && !head_->committed();
}

Timestamp VersionChain::NewestCommitTs() const {
  EpochManager::Guard guard(epochs_);
  Timestamp ts = kNoTimestamp;
  for (const Version *v = head_raw_.load(std::memory_order_acquire), *older;
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
  for (const Version *v = head_raw_.load(std::memory_order_acquire), *older;
       v != nullptr; v = older) {
    older = OlderThenTs(v, &ts);
    if (ts == kNoTimestamp) continue;  // Private to an in-flight writer.
    if (ts <= start_ts) break;  // Newest-first: everything older is too.
    out->emplace_back(v->writer, ts);
  }
}

bool VersionChain::Remove(const std::shared_ptr<Version>& target) {
  std::lock_guard<SpinLatch> guard(latch_);
  if (!head_) return false;
  if (head_ == target) {
    head_ = head_->older;  // Copy: target's own forward links stay intact.
    head_raw_.store(head_.get(), std::memory_order_release);
    // Retire LAST: the caller's `target` reference keeps the version alive
    // through the splice, and the limbo push (under limbo_mu_) must
    // happen-after every access to target's fields above so the drainer's
    // FreeRetired — which mutates target->older — is ordered after them.
    epochs_->Retire(target);
    return true;
  }
  for (std::shared_ptr<Version> v = head_; v->older; v = v->older) {
    if (v->older == target) {
      // Splice first (target's own forward links stay intact: a latch-free
      // reader standing on target mid-walk keeps walking), retire LAST —
      // the limbo push under limbo_mu_ orders these field accesses before
      // the drainer's FreeRetired mutation of target->older. The caller's
      // `target` reference keeps the version alive meanwhile.
      v->older = target->older;
      v->older_raw.store(target->older.get(), std::memory_order_release);
      epochs_->Retire(target);
      return true;
    }
  }
  return false;
}

size_t VersionChain::PruneSupersededUpTo(Timestamp watermark) {
  std::lock_guard<SpinLatch> guard(latch_);
  // Find the newest committed version visible at the watermark; everything
  // older is unreachable by any current or future snapshot. (A registered,
  // non-expired snapshot has start_ts >= watermark, so its walk stops at
  // `keep` or newer — it can never be standing INSIDE the severed suffix
  // unless it is already expired, in which case its post-walk
  // SnapshotTooOld check rejects whatever it read; see ARCHITECTURE.md.)
  std::shared_ptr<Version> keep;
  for (keep = head_; keep; keep = keep->older) {
    if (keep->committed() &&
        keep->commit_ts.load(std::memory_order_relaxed) <= watermark) {
      break;
    }
  }
  if (!keep) return 0;
  size_t dropped = 0;
  for (std::shared_ptr<Version> v = keep->older; v; v = v->older) ++dropped;
  if (dropped == 0) return 0;
  // The whole suffix is retired as ONE limbo entry; its interior links stay
  // intact for any reader still walking inside it. Sever first, retire
  // LAST: the limbo push (under limbo_mu_) must happen-after every chain-
  // side access to the suffix (the counting walk above, the unlink here) so
  // the drainer's FreeRetired — which mutates the suffix's `older` links —
  // is ordered after them.
  std::shared_ptr<Version> suffix = std::move(keep->older);
  keep->older_raw.store(nullptr, std::memory_order_release);
  epochs_->Retire(std::move(suffix));
  return dropped;
}

size_t VersionChain::Length() const {
  std::lock_guard<SpinLatch> guard(latch_);
  size_t n = 0;
  for (std::shared_ptr<Version> v = head_; v; v = v->older) ++n;
  return n;
}

size_t VersionChain::ApproximateBytes() const {
  std::lock_guard<SpinLatch> guard(latch_);
  size_t n = 0;
  for (Version* v = head_.get(); v; v = v->older.get()) {
    n += sizeof(Version);
    // An uncommitted head's data is its writer's, rewritten without the
    // latch; only committed data is immutable.
    if (v->committed()) n += v->data.ApproximateSize();
  }
  return n;
}

}  // namespace neosi
