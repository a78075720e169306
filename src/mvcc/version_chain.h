// Per-entity version list with snapshot visibility (paper §4: "each object
// representing a node or relationship stores a list of versions ... the
// right version for the reading transaction can be obtained by traversing
// the list of versions").
//
// Committed-visibility walks (Visible / LatestCommitted / NewestCommitTs /
// CommittedNewerThan) are LATCH-FREE: they acquire-load the atomic links
// (`head_` / `Version::older`) under an epoch guard of the chain's
// EpochManager and acquire ZERO latches. Writers still take the chain
// latch, but only to install/commit/abort the head and to prune for GC —
// and an unlink RETIRES the version into the epoch limbo (its own forward
// link intact) instead of freeing it, so a reader standing on it mid-walk
// keeps walking a valid chain.

#ifndef NEOSI_MVCC_VERSION_CHAIN_H_
#define NEOSI_MVCC_VERSION_CHAIN_H_

#include <atomic>
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
  /// concurrent installer is an engine bug and returns Internal. The
  /// returned version is borrowed by the writer until CommitHead or
  /// AbortHead: the chain owns it, and eviction skips chains holding a
  /// pending version.
  Result<Version*> InstallUncommitted(TxnId writer, VersionData data);

  /// Stamps the (uncommitted) head with its commit timestamp. Returns
  /// whether it superseded a previous version (now obsolete, to be queued
  /// on the GC list). The commit-timestamp store is a release: it is the
  /// publication point for the version's data on the latch-free read path.
  Result<bool> CommitHead(TxnId writer, Timestamp ts);

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

  /// The head version by an unordered load, for prefetching only: it may
  /// already be superseded, so nothing may be read through it.
  const Version* HeadForPrefetch() const {
    return head_.load(std::memory_order_relaxed);
  }

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
    const Version* head = head_.load(std::memory_order_relaxed);
    if (head == nullptr || head->older.load(std::memory_order_relaxed) ||
        !head->committed()) {
      return false;
    }
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
  /// Newest version; the chain owns every version reachable from here.
  /// Latched mutators release-store it, latch-free walks acquire-load it.
  std::atomic<Version*> head_{nullptr};
};

}  // namespace neosi

#endif  // NEOSI_MVCC_VERSION_CHAIN_H_
