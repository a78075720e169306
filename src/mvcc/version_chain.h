// Per-entity version list with snapshot visibility (paper §4: "each object
// representing a node or relationship stores a list of versions ... the
// right version for the reading transaction can be obtained by traversing
// the list of versions").
//
// Committed-visibility walks (Visible / LatestCommitted / NewestCommitTs /
// CommittedNewerThan) are LATCH-FREE: they traverse the raw atomic mirror
// links (`head_raw_` / `Version::older_raw`) under an epoch guard of the
// chain's EpochManager and acquire ZERO latches. Writers still take the
// chain latch, but only to install/commit/abort the head and to unlink for
// GC — and an unlink RETIRES the version into the epoch limbo (its own
// forward link intact) instead of freeing it, so a reader standing on it
// mid-walk keeps walking a valid chain.

#ifndef NEOSI_MVCC_VERSION_CHAIN_H_
#define NEOSI_MVCC_VERSION_CHAIN_H_

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"
#include "mvcc/version.h"

namespace neosi {

class EpochManager;

/// Thread-safe newest-first list of versions for one entity.
class VersionChain {
 public:
  /// `epochs` (non-null, must outlive the chain's retirees) guards the
  /// latch-free reads and receives every unlinked version.
  explicit VersionChain(EpochManager* epochs) : epochs_(epochs) {}
  ~VersionChain();

  VersionChain(const VersionChain&) = delete;
  VersionChain& operator=(const VersionChain&) = delete;

  /// Prepends an uncommitted version owned by `writer`. The engine's write
  /// locks guarantee at most one uncommitted version per entity; a second
  /// concurrent installer is an engine bug and returns Internal.
  Result<std::shared_ptr<Version>> InstallUncommitted(TxnId writer,
                                                      VersionData data);

  /// Stamps the (uncommitted) head with its commit timestamp. Returns the
  /// superseded previous head (now obsolete, to be threaded onto the GC
  /// list) or nullptr if this was the first version. Obsolescence stamps
  /// (`obsolete_since` on the superseded version, and on the head itself
  /// when it is a tombstone) are applied under the chain latch, so commit
  /// stamping is safe with many writers committing concurrently and no
  /// global commit lock. The commit-timestamp store itself is a release:
  /// it is the publication point for the version's data on the latch-free
  /// read path.
  Result<std::shared_ptr<Version>> CommitHead(TxnId writer, Timestamp ts);

  /// Removes the uncommitted head if owned by `writer` (abort path). The
  /// popped head is retired, not freed: a latch-free reader may be standing
  /// on it.
  void AbortHead(TxnId writer);

  /// Snapshot read (paper §3 read rule): the most recent version with
  /// commit_ts <= start_ts, or the uncommitted version when owned by `self`
  /// (read-your-own-writes). Null when nothing is visible. Latch-free. The
  /// version is BORROWED: it stays valid while the caller holds an
  /// EpochManager::Guard on the chain's manager (its own pending version
  /// also stays valid until it commits or aborts).
  const Version* Visible(Timestamp start_ts, TxnId self = kNoTxn) const;

  /// Latest committed version regardless of snapshot (read-committed reads).
  /// Latch-free; borrowed like Visible's.
  const Version* LatestCommitted() const;

  /// The head version (committed or not); null when empty.
  std::shared_ptr<Version> Head() const;

  /// True if any version is uncommitted (i.e. a writer is in flight).
  bool HasUncommitted() const;

  /// Commit timestamp of the newest committed version (kNoTimestamp if
  /// none). Latch-free (used on the write-conflict path, which holds the
  /// entity's write lock but races GC unlinks).
  Timestamp NewestCommitTs() const;

  /// Appends (writer, commit_ts) of every committed version with
  /// commit_ts > start_ts — the versions a snapshot at start_ts cannot see
  /// because their writers committed after it. The SSI read path turns each
  /// into an rw-antidependency conflict-out edge. Stops at the first
  /// committed version <= start_ts (the chain is newest-first). Latch-free.
  void CommittedNewerThan(Timestamp start_ts,
                          std::vector<std::pair<TxnId, Timestamp>>* out) const;

  /// Unlinks a specific version (GC). Returns true if found and removed.
  /// The version is retired into limbo instead of dropping the last
  /// reference.
  bool Remove(const std::shared_ptr<Version>& target);

  /// Drops every version strictly older than the newest committed version
  /// with commit_ts <= watermark (those can never be read again). Returns
  /// the number of versions dropped. The severed suffix retires as ONE
  /// limbo entry (interior links intact for readers inside it).
  size_t PruneSupersededUpTo(Timestamp watermark);

  /// Runs `fn` under the chain latch iff the chain holds exactly one
  /// version and it is committed; returns whether it ran. Object-cache
  /// eviction unpublishes the entry inside `fn`: the store then holds
  /// exactly this state, and a writer's install (also under the latch)
  /// either pins the chain first or lands after the unpublish, where the
  /// writer's confirm step sees it.
  template <typename Fn>
  bool IfSoleCommitted(Fn&& fn) {
    std::lock_guard<SpinLatch> guard(latch_);
    if (!head_ || head_->older || !head_->committed()) return false;
    fn();
    return true;
  }

  /// Number of versions currently in the list.
  size_t Length() const;

  bool Empty() const { return Length() == 0; }

  /// Approximate heap footprint of every resident version (cache
  /// accounting / E9). Walks under the chain latch — the stats path must
  /// not race GC unlinks with an unprotected raw walk. An uncommitted
  /// version counts sizeof(Version) only: its writer rewrites its data
  /// without the latch.
  size_t ApproximateBytes() const;

 private:
  EpochManager* const epochs_;
  mutable SpinLatch latch_;
  std::shared_ptr<Version> head_;
  /// Raw mirror of `head_` for latch-free traversal; every latched mutation
  /// of `head_` release-stores it here.
  std::atomic<Version*> head_raw_{nullptr};
};

}  // namespace neosi

#endif  // NEOSI_MVCC_VERSION_CHAIN_H_
