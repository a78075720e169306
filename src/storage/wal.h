// Framed write-ahead log over ROTATING fixed-size segment files.
//
// Layout: the log is a chain of segment files `wal.000001`, `wal.000002`, …
// in the database Dir. Each segment starts with an immutable 32-byte header
//
//   [magic u32][version u32][base_lsn u64][epoch u64][crc32c u32][pad]
//
// written once when the segment enters the chain (and synced by the next
// flush, before any frame in it is acked); frames follow from byte 32. The
// header never changes afterwards, so there is nothing a torn header
// rewrite could destroy — the dual-slot ping-pong header of the single-file
// WAL is gone. A torn header can only exist on the NEWEST segment (a crash
// during its adoption) and Open() simply discards that empty file.
//
// Frame format (unchanged): [payload_len u32][crc32c u32][payload bytes].
// Frames never span segments: Append rolls to a fresh segment when the next
// frame would push the file past `WalOptions::segment_size` (a frame larger
// than a whole segment still gets one to itself). The retiring segment is
// synced BEFORE the new one enters the chain, so a valid-prefix walk may
// stop early only in the newest segment (torn tail, truncated away); a short
// frame walk in any older segment is real corruption and recovery says so.
//
// LSNs are LOGICAL byte offsets, monotonic for the lifetime of the log:
// segment N+1's base is exactly where segment N's frames end, so the lsn
// space is contiguous across rolls and truncations. A frame with lsn
// L lives in the segment with the largest base <= L, at physical offset
// kSegmentHeaderSize + (L - base).
//
// Reclamation — the point of rotation — is UNCONDITIONAL on every backend:
// TruncatePrefix(lsn) advances the logical head and unlinks every segment
// wholly below `lsn`. No PUNCH_HOLE, no quiescent rebase: the on-disk
// footprint is bounded by the live bytes plus at most two partial segments.
// The active segment is never unlinked, which also anchors lsn monotonicity
// across a reopen.
//
// One way in: every segment is BUILT under a `wal.prep.N` name (created,
// truncated, fsynced, dir-synced) and then ADOPTED by renaming it to
// `wal.N` and writing its header. A crash before the rename leaves a prep
// file Open() removes; after it, a newest segment whose header is either
// valid (an empty segment) or torn (discarded, nothing acked lived there).
//
// Crash ordering at the directory level: retire-sync → build (file and dir
// synced) → rename → dir sync (deferred, see below); retirement is unlink →
// dir sync, one segment at a time from the front. The head advance is
// logical (in-memory) and recovery re-derives it from the oldest retained
// segment plus checkpoint markers — replay is idempotent, so the
// segment-granular head after a crash only costs replay work, never
// correctness.
//
// Commit I/O (one durable path, sticky failure, pre-allocation):
//
// Every commit appends its own frame (Append, one write under the append
// latch) and, when durable, waits until the flushed-LSN watermark covers the
// frame's end (FlushTo). Commits group at the fsync, not at the append: one
// fsync pass covers every frame below the cursor it read, so the commits
// that appended while a pass ran share the next one. FlushTo is the one
// place the flush mode matters. With WalOptions::async_flush a dedicated
// flusher thread owns every fsync of the active chain: a committer hands it
// a target LSN (RequestFlush) and blocks in WaitFlushed(target) on per-LSN
// wait slots (the TimestampOracle pattern). Inline, the committer runs the
// pass itself under sync_mu_, re-checking the watermark once it holds the
// mutex, so a peer's pass that covered it while it queued ends its wait
// (PostgreSQL's XLogFlush does the same). Either way an ack is issued only
// once the fsync that covered the record has completed. LSN pins: see
// StableLsn() below.
//
// Sync failures are STICKY: once any fsync/dir-sync of the active chain
// fails, the log is poisoned — every subsequent append/sync/ack fails with
// a non-retryable IOError until the store is reopened and replayed. A
// later fsync returning OK proves nothing: the kernel drops a file's dirty
// pages after reporting an fsync error, so retrying the fsync and acking
// on success silently loses the dropped writes (the PostgreSQL "fsyncgate"
// hole). Recovery-time syncs (inside Open) keep their fail-stop
// behaviour: the open simply fails, nothing is poisoned.
//
// Adopting a segment is one rename plus a BUFFERED header write; the
// header fsync and the rename's dir-sync ride the next flush (the flusher's
// pass in async mode, Sync() inline). Deferral is safe because an ack
// requires a flush, and a flush always syncs the file before the directory
// — an acked frame therefore implies both its segment's header and its dir
// entry are durable. At most one adoption rename may be outstanding: the
// next roll dir-syncs the previous one inline first, so a crash can only
// ever lose the NEWEST segment's dir entry and the chain stays contiguous.
// With WalOptions::preallocate the flusher builds the next segment off-path
// (fallocate-reserved) so a roll only adopts; otherwise, or when no built
// file is ready, the roll builds one inline first.
//
// Fill-ahead: the appender keeps the active segment's bytes written as
// zeros for up to kZeroFillWindow past the append cursor (never past
// segment_size). An append then overwrites allocated blocks inside the
// file size, so the fdatasync that acks it flushes data only, not a new
// i_size and converted extents. The fill never writes below the cursor,
// and a zero frame length ends every frame walk, so the zeros are never
// read as frames. Recovery still truncates the newest segment at its valid
// prefix: that is what removes stale frames lying past a torn one, and
// the next append refills from the cursor.

#ifndef NEOSI_STORAGE_WAL_H_
#define NEOSI_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "common/sync_points.h"
#include "storage/dir.h"
#include "storage/paged_file.h"
#include "storage/wal_ops.h"

namespace neosi {

class Wal;

/// One record read by Wal::Tail, plus its primary LSN (the replica's
/// shipping-cursor unit).
struct ShippedRecord {
  Lsn lsn = 0;
  WalRecord record;
};

/// Tuning knobs for the segmented log.
struct WalOptions {
  /// Roll to a fresh segment once the current one reaches this many bytes.
  uint64_t segment_size = 16ull << 20;  // 16 MiB
  /// Fully-checkpointed segments RETAINED in the chain beyond the live
  /// prefix so a lagging replica can still read them (0 = retire eagerly).
  /// TruncatePrefix keeps this many extra segments below the cut.
  uint64_t keep_segments = 0;
  /// Dedicated flusher thread owns fsync: FlushTo() and Sync() hand it a
  /// target LSN and wait on the flushed-LSN watermark, instead of the
  /// committer running the fsync pass itself. Default OFF at this layer so
  /// raw-Wal unit tests keep deterministic inline syncs; DatabaseOptions
  /// turns it on for the engine.
  bool async_flush = false;
  /// Flusher keeps the next segment built (fallocate-reserved, fsynced,
  /// dir-synced) so a roll only adopts it by rename instead of building it
  /// on the append path. Default OFF at this layer, like async_flush.
  bool preallocate = false;
  /// The owning database's sync points (null: none). A failed "wal.sync.*"
  /// or "wal.dirsync.*" point is that fsync failing: it POISONS the log.
  SyncPoints* sync_points = nullptr;
};

/// The commit path over a Wal. Thread-safe; holds no lock of its own.
class GroupCommitter {
 public:
  explicit GroupCommitter(Wal* wal) : wal_(wal) {}

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Appends `record`'s frame, returning its LSN. When `sync` is true the
  /// frame is on stable storage before this returns (Wal::FlushTo its end;
  /// the fsync may cover other commits' frames too). When `pin` is true the
  /// LSN is pinned (see Wal::Unpin) from the moment the record enters the
  /// log, and released again if the flush fails.
  Result<Lsn> Commit(const WalRecord& record, bool sync, bool pin = false);

  /// Completed fsync passes on the active chain, whoever asked for them
  /// (stats hook: fsyncs per commit is batches() / records()).
  uint64_t batches() const;
  /// Records appended through Commit.
  uint64_t records() const { return records_; }

 private:
  Wal* wal_;
  std::atomic<uint64_t> records_{0};
};

/// Append-only log of WalRecords over rotating segment files.
class Wal {
 public:
  /// Immutable per-segment header preceding the first frame.
  static constexpr uint64_t kSegmentHeaderSize = 32;

  /// How far past the append cursor the active segment is kept zero-filled
  /// (see "Fill-ahead" above). An append whose end comes within half of it
  /// of the fill mark refills up to a whole window past its end.
  static constexpr uint64_t kZeroFillWindow = 256 << 10;

  /// File names inside the Dir.
  static std::string SegmentName(uint64_t index);  ///< "wal.000001"
  static std::string PrepName(uint64_t seq);     ///< "wal.prep.000001"

  /// The replica's tailer: appends every record with LSN >= `cursor` now
  /// readable in the primary's `dir` to *out, in LSN order, and sets
  /// *next_cursor one past the last record shipped (`cursor` when nothing
  /// new arrived). Reads through the same frame and chain walk as
  /// ReadFrom, but never creates, writes, renames or removes a file: a
  /// segment that vanished or whose header does not validate yet is
  /// skipped until the next poll, and an older segment is walked only up
  /// to its successor's base. A read past the end of a file (the primary
  /// truncated a torn tail under the walk) ends the poll with OK; if any
  /// walked segment's header changed under the walk, the poll's batch and
  /// any error it found are dropped. Corruption: `cursor` is below the
  /// oldest retained segment (re-seed the replica), an older segment's
  /// walk does not reach its successor's base, or a frame whose CRC holds
  /// does not decode.
  static Status Tail(Dir& dir, Lsn cursor, std::vector<ShippedRecord>* out,
                     Lsn* next_cursor);

  explicit Wal(std::shared_ptr<Dir> dir, WalOptions options = {});
  ~Wal();

  /// Discovers, orders and validates the segment chain (creating the first
  /// segment for an empty directory), removes leftover `wal.prep.*` files
  /// (and the `wal.free.*` recycle-pool files older versions kept), drops
  /// a half-created newest segment, and positions the append cursor after
  /// the newest segment's valid frame prefix (truncating a torn tail). A
  /// gap or out-of-order base inside the chain is Corruption.
  Status Open();

  /// Appends one record's frame with one write (rolling to a fresh segment
  /// first when the frame does not fit) — the log's one frame-writing path;
  /// returns its LSN. With pin=true the LSN is pinned against prefix
  /// truncation until Unpin(lsn). When `end_lsn` is non-null it receives
  /// the lsn one past the appended frame (a durable commit flushes to it;
  /// the checkpoint cuts the log right after its own marker).
  Result<Lsn> Append(const WalRecord& record, bool pin = false,
                     Lsn* end_lsn = nullptr);

  /// Returns once every frame below `target` is on stable storage (every
  /// older segment was already synced when the chain rolled past it) — the
  /// one place that branches on the flush mode. Async mode hands `target`
  /// to the flusher and waits on the flushed-LSN watermark; inline mode
  /// runs an fsync pass on the calling thread unless, once it holds the
  /// pass mutex, the watermark already covers `target`. `always` skips
  /// that inline re-check. Fails sticky: once any chain sync fails the log
  /// is poisoned (see poisoned()).
  Status FlushTo(Lsn target, bool always = false);

  /// FlushTo(NextLsn()) whose inline pass always runs (the checkpoint and
  /// the replica applier call it).
  Status Sync();

  // --- async flush watermark --------------------------------------------

  /// Asks the flusher to make everything below `target` durable; returns
  /// without waiting. Poison-checked.
  Status RequestFlush(Lsn target);

  /// Blocks until the flushed-LSN watermark covers `target` (then the data
  /// IS durable — even a concurrent poisoning cannot retract that) or the
  /// log is poisoned below it (then the sticky IOError).
  Status WaitFlushed(Lsn target);

  /// Every frame below this LSN is on stable storage.
  Lsn FlushedLsn() const {
    return flushed_lsn_.load(std::memory_order_acquire);
  }

  // --- sticky failure state ---------------------------------------------

  /// True once a sync/dir-sync of the active chain has failed or Poison()
  /// was called. A poisoned log rejects every append/sync/truncate until
  /// the store is reopened (which replays what reached stable storage).
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// The sticky non-retryable IOError handed to every operation on a
  /// poisoned log (names the original cause). OK when not poisoned. Entry
  /// check of every append / sync / truncate path (acquire side of the
  /// poison publication).
  Status PoisonedStatus() const;

  /// Records `cause` (first failure wins) and publishes the poison flag
  /// with release ordering, failing every parked flush waiter. A failed
  /// sync poisons the log itself; a commit that fails after its record was
  /// appended poisons it so no later commit can build on state the record
  /// does not show. No-op before Open() completes — recovery-time failures
  /// stay fail-stop.
  void Poison(const Status& cause);

  /// The commit batcher bound to this log.
  GroupCommitter& group() { return group_; }

  /// Replays every live record in order (from the head). Stops cleanly at a
  /// torn tail in the newest segment (which is then truncated so later
  /// appends start from a clean state); an older segment whose frames do
  /// not end exactly at its successor's base, or a frame whose CRC holds
  /// but which does not decode, is Corruption. Must not race
  /// TruncatePrefix.
  Status ReadAll(const std::function<Status(const WalRecord&)>& fn);

  /// Replays every live record at or above `from`, passing each record's
  /// LSN. Segments wholly below `from` are skipped without any read or CRC
  /// work. Same torn-tail handling as ReadAll.
  Status ReadFrom(Lsn from,
                  const std::function<Status(Lsn, const WalRecord&)>& fn);

  // --- fuzzy checkpoint support ----------------------------------------

  /// Drops the log prefix below `lsn`: advances the logical head and
  /// unlinks every segment wholly below it — unconditional physical
  /// reclamation on every backend. Appends proceed concurrently. `lsn`
  /// below the current head is a no-op; `lsn` above the append cursor is
  /// InvalidArgument. A failed unlink leaves the chain intact (the segment
  /// stays at the front) so a later truncation can retry it.
  Status TruncatePrefix(Lsn lsn);

  /// Releases a pin taken by an Append or group Commit with pin=true. Call exactly once per pinned lsn, after the record's effects
  /// have durably-orderably reached the stores.
  void Unpin(Lsn lsn);

  /// The fuzzy checkpoint's truncation bound: every record below the
  /// returned lsn has been fully applied to the stores (its appender has
  /// unpinned). Never exceeds the append cursor.
  Lsn StableLsn() const;

  /// Currently pinned lsns (test / stats hook).
  size_t PinnedCount() const;

  // --- introspection ----------------------------------------------------

  /// Bytes in the live log: append cursor minus head.
  uint64_t SizeBytes() const {
    return next_lsn_.load(std::memory_order_acquire) -
           head_lsn_.load(std::memory_order_acquire);
  }

  /// First live lsn (everything below is checkpointed away). Segment-
  /// granular after a reopen (the oldest retained segment's base).
  Lsn HeadLsn() const { return head_lsn_.load(std::memory_order_acquire); }

  /// The lsn the next append will receive.
  Lsn NextLsn() const { return next_lsn_.load(std::memory_order_acquire); }

  /// Segments currently in the chain (>= 1; the active one always stays).
  uint64_t SegmentCount() const {
    return segment_count_.load(std::memory_order_acquire);
  }

  /// Bytes of all chain segment files (headers + frames + any dead prefix
  /// not yet rolled past) — the physical footprint rotation bounds.
  uint64_t PhysicalBytes() const;

  /// Segment lifecycle counters: segments that entered the chain, and
  /// retired segments unlinked.
  uint64_t segments_created() const { return segments_created_.load(); }
  uint64_t segments_deleted() const { return segments_deleted_.load(); }
  /// Rolls that adopted a segment the flusher built off-path, instead of
  /// building one inline on the append path.
  uint64_t segments_preallocated() const {
    return segments_preallocated_.load();
  }

  /// Bytes of zeros written ahead of the append cursor (0 on the in-memory
  /// backend, where the fill is a no-op).
  uint64_t zero_filled_bytes() const {
    return zero_filled_bytes_.load(std::memory_order_relaxed);
  }

  /// Physical offset of `lsn` WITHIN its containing segment (test hook:
  /// lets tests inject torn frames at known byte positions).
  uint64_t PhysOf(Lsn lsn) const;

  /// File name of the segment containing `lsn` (test hook).
  std::string SegmentNameOf(Lsn lsn) const;

  /// True while a segment the flusher built waits for a roll to adopt it
  /// (test hook: only a roll consumes it).
  bool HasPreparedSegment() const;


 private:
  friend class GroupCommitter;

  struct Segment {
    uint64_t index = 0;
    Lsn base = 0;
    uint64_t epoch = 0;
    /// Shared so an fsync pass can run outside seg_mu_ while a failed
    /// append's RollbackUnpublishedSegmentsLocked() concurrently pops the
    /// back Segment (fsync of an unlinked file is harmless).
    std::shared_ptr<PagedFile> file;
  };

  /// A built segment file under its `wal.prep.N` name, waiting to be
  /// adopted into the chain by a roll.
  struct PreparedSegment {
    std::string name;
    std::shared_ptr<PagedFile> file;
  };

  static Status WriteSegmentHeader(PagedFile* file, Lsn base, uint64_t epoch);

  /// Decodes `file`'s segment header. *valid is false (status OK) when the
  /// header is absent, torn or fails its CRC; an intact header with an
  /// unsupported version is Corruption.
  static Status ReadSegmentHeader(PagedFile* file, Lsn* base, uint64_t* epoch,
                                  bool* valid);

  /// The chain walk ReadFrom and Tail share. Walks `chain` (ordered by
  /// base) from the frame boundary `from`, skipping segments wholly below
  /// it, and calls `fn` for each decoded record. *end tracks one past the
  /// last frame walked, also when an error stops the walk. An older
  /// segment is walked to its file size, or with `clip` only up to its
  /// successor's base (a tailer may list a stale successor the segment has
  /// grown past); either way its walk must end exactly at that base, or
  /// the chain is Corrupt. A frame whose CRC holds but which does not
  /// decode is Corruption; read errors are returned as they are.
  static Status WalkChain(
      const std::vector<const Segment*>& chain, Lsn from, bool clip,
      const std::function<Status(Lsn, const WalRecord&)>& fn, Lsn* end);

  /// Checks sync point `name` (see WalOptions::sync_points).
  Status Point(const char* name) const {
    return options_.sync_points ? options_.sync_points->Check(name)
                                : Status::OK();
  }

  /// Appends a segment anchored at `base` to the chain: adopts the
  /// flusher's prepared segment when one is ready, else builds one inline
  /// (without a size reservation) and adopts that. Caller holds latch_ (or
  /// is single-threaded Open).
  Status AddSegmentLocked(Lsn base);

  /// Rename-adopts a built segment as the new active segment at `base`:
  /// one rename + a buffered header write, the header fsync and the
  /// rename's dir-sync deferred to the next flush. Caller holds latch_.
  Status AdoptPreparedLocked(Lsn base, std::unique_ptr<PreparedSegment> prep);

  /// Retiring-segment fsync at a roll (named EIO point; poisons on
  /// failure). Caller holds latch_.
  Status SyncRetiringLocked(Segment* retiring);

  /// Fill-ahead after an append that ended at `end_lsn`, physical offset
  /// `end` in the active segment: when `end` comes within half a window of
  /// filled_to_, zero-fills [max(filled_to_, end), min(end + window,
  /// segment_size)). Advisory: a failed fill leaves the mark where it was
  /// and does not poison the log. Caller holds latch_.
  void FillAheadLocked(Lsn end_lsn);

  /// Failure cleanup for the append path: pops (and deletes) the active
  /// segment when its base is at or above the published cursor and it is
  /// not the only one. Such a segment holds no published frame: the append
  /// that rolled to it then failed. Un-rolling it leaves the chain as it
  /// was before that append, so the next append retries the roll with a
  /// freshly built file rather than the one whose write just failed.
  /// Caller holds latch_.
  void RollbackUnpublishedSegmentsLocked();

  /// Segment containing `lsn` (largest base <= lsn); caller holds seg_mu_.
  const Segment* SegmentAtLocked(Lsn lsn) const;

  /// Body of Open(): everything up to the watermark/flusher bring-up.
  Status OpenChain();

  // --- poison / flusher internals ---------------------------------------

  Status PoisonedStatusLocked() const;  // flush_mu_ held

  /// One fsync pass over the active segment: cursor first, file snapshot
  /// second, then fsync, any deferred dir-sync, the watermark advance and
  /// the pass count. Runs on the flusher thread (async mode) or the caller
  /// (inline mode); the caller holds sync_mu_, so a poisoning peer is
  /// always observed.
  Status FlushOnceLocked();

  /// Publishes `upto` into flushed_lsn_ and wakes satisfied waiters.
  void AdvanceFlushed(Lsn upto);

  /// Injected-EIO fidelity: models the kernel dropping the file's DIRTY
  /// pages after a failed fsync — everything beyond the flushed watermark
  /// (clean, previously-synced bytes survive) is truncated away before the
  /// log is poisoned.
  void SimulateSyncLoss(const std::shared_ptr<PagedFile>& file, Lsn base);

  /// Builds a segment file under a fresh `wal.prep.N` name: open,
  /// truncate, size reservation when `reserve`, fsync, dir-sync. The
  /// flusher builds off-path (reserved) into prepared_; a roll builds
  /// inline when nothing is prepared. An fsync/dir-sync failure poisons;
  /// an allocation failure does not. Either way no file is left behind.
  Status BuildSegment(bool reserve, std::unique_ptr<PreparedSegment>* out);

  /// Flusher pass: builds a reserved segment into prepared_ unless one is
  /// already waiting.
  void PrepareSegmentOffPath();

  /// Asks the flusher to (re)build a prepared segment.
  void NudgeFlusherPrep();

  bool UseAsyncFlush() const {
    return options_.async_flush &&
           flusher_running_.load(std::memory_order_acquire);
  }

  void StartFlusher();
  void StopFlusher();
  void FlusherMain();

  std::shared_ptr<Dir> dir_;
  WalOptions options_;

  SpinLatch latch_;  // serializes appends (file write + cursor advance)
  std::atomic<Lsn> head_lsn_{0};
  std::atomic<Lsn> next_lsn_{0};
  /// Physical offset in the active segment below which its bytes past the
  /// cursor are known to be zeros. Guarded by latch_; reset by every roll,
  /// un-roll and valid-prefix truncation of the active segment.
  uint64_t filled_to_ = 0;

  /// Chain of segments ordered by base. Structure guarded by seg_mu_; the
  /// BACK element only changes under latch_ (appends/rolls), the FRONT only
  /// under trunc_mu_ (truncation), and the active segment is never popped —
  /// so an appender holding latch_ may use active_ without seg_mu_.
  mutable std::mutex seg_mu_;
  std::deque<std::unique_ptr<Segment>> segments_;
  std::atomic<Segment*> active_{nullptr};
  std::atomic<uint64_t> segment_count_{0};

  /// Next segment file number; monotonic, so truncation keeps chain
  /// indices contiguous.
  uint64_t next_index_ = 1;
  /// This open's generation, stamped into headers of segments it creates.
  uint64_t epoch_ = 1;

  std::atomic<uint64_t> segments_created_{0};
  std::atomic<uint64_t> segments_deleted_{0};
  std::atomic<uint64_t> segments_preallocated_{0};
  std::atomic<uint64_t> zero_filled_bytes_{0};

  /// Set once Open() succeeds: sync failures before that are fail-stop
  /// (the open errors out), after it they poison.
  std::atomic<bool> open_complete_{false};

  /// Sticky failure flag. Published with RELEASE after poison_cause_ is
  /// recorded under flush_mu_; read with ACQUIRE by PoisonedStatus() and by
  /// FlushOnceLocked()'s pre-fsync check, so a thread that observes the flag
  /// also observes the cause — and, because fsync passes are serialized by
  /// sync_mu_, no sync can report OK after a peer's EIO poisoned the log.
  std::atomic<bool> poisoned_{false};
  Status poison_cause_;  // guarded by flush_mu_

  /// Serializes fsync passes (FlushOnceLocked) so the fault-check →
  /// simulate → poison sequence of one syncer is atomic against a peer's
  /// fsync+check.
  std::mutex sync_mu_;
  /// Completed fsync passes (GroupCommitter::batches()).
  std::atomic<uint64_t> flush_passes_{0};

  /// Flusher thread state. flush_target_ / flusher_stop_ / prep_nudge_ /
  /// flush_waiters_ are guarded by flush_mu_.
  std::thread flusher_;
  std::atomic<bool> flusher_running_{false};
  mutable std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  bool flusher_stop_ = false;
  bool prep_nudge_ = false;
  Lsn flush_target_ = 0;
  std::atomic<Lsn> flushed_lsn_{0};

  /// Commit acks park here until the watermark covers their LSN
  /// (TimestampOracle-style per-target slots: the waker erases the slot
  /// under flush_mu_ and notifies outside it; waiters hold a shared_ptr so
  /// the slot outlives the erase).
  struct FlushWaiter {
    std::condition_variable cv;
  };
  std::map<Lsn, std::shared_ptr<FlushWaiter>> flush_waiters_;

  /// Next segment the flusher built, ready for rename adoption. Guarded by
  /// seg_mu_. prep_seq_ numbers built files; atomic because the flusher
  /// and an inline roll may build at the same time.
  std::unique_ptr<PreparedSegment> prepared_;
  std::atomic<uint64_t> prep_seq_{1};

  /// True while the newest adoption's rename still needs a directory sync
  /// — performed by the next flush, or inline by the NEXT roll (at most
  /// one outstanding).
  std::atomic<bool> dir_sync_pending_{false};

  GroupCommitter group_{this};

  /// Serializes truncations and head updates.
  std::mutex trunc_mu_;

  /// Pinned lsns: appended records whose effects have not yet reached the
  /// stores. Insertion happens before the cursor advance publishes the
  /// record; see StableLsn() for the resulting ordering argument.
  mutable std::mutex pins_mu_;
  std::set<Lsn> pins_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_WAL_H_
