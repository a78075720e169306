#include "storage/wal.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/coding.h"

namespace neosi {

namespace {

constexpr size_t kFrameHeader = 8;  // u32 length + u32 crc

// Segment header byte layout: magic(4) version(4) base(8) epoch(8) crc(4),
// zero-padded to Wal::kSegmentHeaderSize. "NWS1".
constexpr uint32_t kSegmentMagic = 0x3153574e;
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentCrcOffset = 24;

std::string IndexedName(const char* prefix, uint64_t index) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%06llu", prefix,
                static_cast<unsigned long long>(index));
  return buf;
}

/// Walks the valid frame prefix of `file` from `offset` to `size`: for each
/// frame whose length and checksum hold, invokes `fn(frame_offset,
/// payload)`; stops at the first invalid frame (torn tail). Returns the
/// offset one past the last valid frame. The single definition of what "a
/// valid frame prefix" means — Open's cursor scan, replay and the replica's
/// tailer (Wal::Tail) all walk through here.
Result<uint64_t> WalkFrames(
    PagedFile* file, uint64_t offset, uint64_t size,
    const std::function<Status(uint64_t, const Slice&)>& fn) {
  std::vector<char> buf;
  while (offset + kFrameHeader <= size) {
    char header[kFrameHeader];
    NEOSI_RETURN_IF_ERROR(file->ReadAt(offset, kFrameHeader, header));
    const uint32_t len = DecodeFixed32(header);
    const uint32_t crc = DecodeFixed32(header + 4);
    if (len == 0 || offset + kFrameHeader + len > size) break;
    buf.resize(len);
    NEOSI_RETURN_IF_ERROR(file->ReadAt(offset + kFrameHeader, len,
                                       buf.data()));
    if (Crc32c(buf.data(), len) != crc) break;
    NEOSI_RETURN_IF_ERROR(fn(offset, Slice(buf.data(), len)));
    offset += kFrameHeader + len;
  }
  return offset;
}

/// True iff `name` is `prefix` followed by one or more digits; extracts the
/// numeric suffix.
bool ParseIndexed(const std::string& name, const std::string& prefix,
                  uint64_t* index) {
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix))
    return false;
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = value;
  return true;
}

}  // namespace

std::string Wal::SegmentName(uint64_t index) {
  return IndexedName("wal.", index);
}

std::string Wal::PrepName(uint64_t seq) {
  return IndexedName("wal.prep.", seq);
}

Wal::Wal(std::shared_ptr<Dir> dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.segment_size < kSegmentHeaderSize + kFrameHeader) {
    options_.segment_size = kSegmentHeaderSize + kFrameHeader;
  }
}

Wal::~Wal() { StopFlusher(); }

// --- sticky poison state --------------------------------------------------

Status Wal::PoisonedStatusLocked() const {
  return Status::IOError("wal poisoned by an earlier failure (" +
                         poison_cause_.ToString() +
                         "); reopen the store to recover");
}

Status Wal::PoisonedStatus() const {
  if (!poisoned_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> guard(flush_mu_);
  return PoisonedStatusLocked();
}

void Wal::Poison(const Status& cause) {
  // Recovery-time failures stay fail-stop: Open() itself errors out and no
  // state survives to need poisoning.
  if (!open_complete_.load(std::memory_order_acquire)) return;
  std::vector<std::shared_ptr<FlushWaiter>> wake;
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    if (!poisoned_.load(std::memory_order_relaxed)) {
      poison_cause_ = cause;
      // RELEASE-publish after the cause is recorded: PoisonedStatus()'s
      // acquire load then always finds the cause it is about to report.
      poisoned_.store(true, std::memory_order_release);
    }
    // Fail every parked commit ack whose flush will now never happen.
    for (auto& [lsn, waiter] : flush_waiters_) wake.push_back(waiter);
    flush_waiters_.clear();
  }
  for (auto& waiter : wake) waiter->cv.notify_all();
  flush_cv_.notify_all();
}

Status Wal::WriteSegmentHeader(PagedFile* file, Lsn base, uint64_t epoch) {
  char buf[kSegmentHeaderSize] = {};
  EncodeFixed32(buf, kSegmentMagic);
  EncodeFixed32(buf + 4, kSegmentVersion);
  EncodeFixed64(buf + 8, base);
  EncodeFixed64(buf + 16, epoch);
  EncodeFixed32(buf + kSegmentCrcOffset, Crc32c(buf, kSegmentCrcOffset));
  return file->WriteAt(0, buf, kSegmentHeaderSize);
}

Status Wal::ReadSegmentHeader(PagedFile* file, Lsn* base, uint64_t* epoch,
                              bool* valid) {
  *valid = false;
  if (file->Size() < kSegmentHeaderSize) return Status::OK();
  char buf[kSegmentHeaderSize];
  NEOSI_RETURN_IF_ERROR(file->ReadAt(0, kSegmentHeaderSize, buf));
  if (DecodeFixed32(buf) != kSegmentMagic) return Status::OK();
  if (DecodeFixed32(buf + kSegmentCrcOffset) !=
      Crc32c(buf, kSegmentCrcOffset)) {
    return Status::OK();  // Torn header (crash during segment creation).
  }
  if (DecodeFixed32(buf + 4) != kSegmentVersion) {
    return Status::Corruption("wal segment header: unsupported version");
  }
  *base = DecodeFixed64(buf + 8);
  *epoch = DecodeFixed64(buf + 16);
  *valid = true;
  return Status::OK();
}

Status Wal::AddSegmentLocked(Lsn base) {
  std::unique_ptr<PreparedSegment> prep;
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    prep = std::move(prepared_);
  }
  const bool prebuilt = prep != nullptr;
  // Nothing prepared (no flusher, or it has not caught up): build inline.
  // The size reservation is skipped — it only pays off the append path.
  if (!prebuilt) NEOSI_RETURN_IF_ERROR(BuildSegment(/*reserve=*/false, &prep));
  NEOSI_RETURN_IF_ERROR(AdoptPreparedLocked(base, std::move(prep)));
  if (prebuilt) segments_preallocated_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::AdoptPreparedLocked(Lsn base,
                                std::unique_ptr<PreparedSegment> prep) {
  const uint64_t index = next_index_;
  const std::string name = SegmentName(index);
  Status s;
  // At most ONE adoption rename may be un-dir-synced at a time: if the
  // previous one is still pending, make it durable before renaming again —
  // otherwise a crash could persist THIS rename but not the previous one
  // and leave an index gap Open() rightly refuses.
  if (dir_sync_pending_.exchange(false, std::memory_order_acq_rel)) {
    s = Point("wal.dirsync.rename");
    if (s.ok()) s = dir_->SyncDir();
    if (!s.ok()) {
      dir_sync_pending_.store(true, std::memory_order_release);
      Poison(s);
    }
  }
  // The rename replaces any leftover of this index (a failed rollback
  // Remove), so stale frames of a prior life can never be replayed.
  if (s.ok()) s = dir_->Rename(prep->name, name);
  if (s.ok()) {
    // BUFFERED header write — no fsync on the append path. Safe to defer:
    // an ack requires a flush of this (about to be active) file, and that
    // same fsync covers the header. A crash before any flush leaves an
    // invalid header on the NEWEST segment, which Open() discards — and
    // nothing acked can have lived there.
    s = WriteSegmentHeader(prep->file.get(), base, epoch_);
  }
  // The segment file sits in the chain position but is not yet active: a
  // crash RIGHT HERE leaves a chain Open() accepts (a newest segment that
  // is empty, or whose torn header gets it discarded).
  if (s.ok()) s = Point("wal.segment.post_create");
  if (!s.ok()) {
    // A process that keeps running must not leave the file squatting in
    // the chain position ON DISK while it is not adopted in memory: smaller
    // later frames can keep fitting into the previous segment, growing it
    // past this file's recorded base. Whichever name the file has now, take
    // it out. (A real crash performs no cleanup; Open() handles that state
    // instead.)
    prep->file.reset();
    (void)dir_->Remove(name);
    (void)dir_->Remove(prep->name);
    (void)dir_->SyncDir();
    NudgeFlusherPrep();
    return s;
  }
  // The rename's dir entry rides the next flush (or the next roll,
  // whichever comes first).
  dir_sync_pending_.store(true, std::memory_order_release);

  auto segment = std::make_unique<Segment>();
  segment->index = index;
  segment->base = base;
  segment->epoch = epoch_;
  segment->file = std::move(prep->file);
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    segments_.push_back(std::move(segment));
    active_.store(segments_.back().get(), std::memory_order_release);
    segment_count_.store(segments_.size(), std::memory_order_release);
  }
  next_index_ = index + 1;
  filled_to_ = kSegmentHeaderSize;
  segments_created_.fetch_add(1, std::memory_order_relaxed);
  NudgeFlusherPrep();
  return Status::OK();
}

void Wal::FillAheadLocked(Lsn end_lsn) {
  Segment* active = active_.load(std::memory_order_relaxed);
  const uint64_t end = kSegmentHeaderSize + (end_lsn - active->base);
  if (end + kZeroFillWindow / 2 <= filled_to_) return;
  const uint64_t from = std::max(filled_to_, end);
  const uint64_t to = std::min(end + kZeroFillWindow, options_.segment_size);
  if (from >= to) return;
  auto filled = active->file->ZeroFill(from, to);
  if (!filled.ok()) return;  // Advisory: the next append retries.
  filled_to_ = to;
  zero_filled_bytes_.fetch_add(*filled, std::memory_order_relaxed);
}

Status Wal::SyncRetiringLocked(Segment* retiring) {
  Status fault = Point("wal.sync.retiring");
  if (!fault.ok()) {
    SimulateSyncLoss(retiring->file, retiring->base);
    Poison(fault);
    return fault;
  }
  Status s = retiring->file->Sync();
  if (!s.ok()) Poison(s);
  return s;
}

Status Wal::Open() {
  NEOSI_RETURN_IF_ERROR(OpenChain());
  // Everything recovery kept was read back from the files themselves, so
  // the watermark starts at the cursor.
  flushed_lsn_.store(next_lsn_.load(std::memory_order_relaxed),
                     std::memory_order_release);
  // From here on sync failures poison instead of failing the open.
  open_complete_.store(true, std::memory_order_release);
  StartFlusher();
  return Status::OK();
}

Status Wal::OpenChain() {
  std::vector<std::string> names;
  NEOSI_RETURN_IF_ERROR(dir_->List(&names));

  std::vector<std::pair<uint64_t, std::string>> chain_names;
  std::vector<std::string> stale_names;
  for (const std::string& name : names) {
    uint64_t index = 0;
    if (ParseIndexed(name, "wal.prep.", &index) ||
        ParseIndexed(name, "wal.free.", &index)) {
      stale_names.push_back(name);
    } else if (ParseIndexed(name, "wal.", &index)) {
      chain_names.emplace_back(index, name);
    }
    // Anything else in the directory (store files) is not ours.
  }

  // Stale builds from the previous life — headerless scratch, or an
  // adoption whose rename never became durable (then the frames in it were
  // never flushed-acked, see the adoption protocol) — and the recycle-pool
  // files older versions parked retired segments in. None is part of the
  // chain: remove.
  for (const std::string& name : stale_names) {
    NEOSI_RETURN_IF_ERROR(dir_->Remove(name));
  }
  if (!stale_names.empty()) {
    NEOSI_RETURN_IF_ERROR(dir_->SyncDir());
  }
  std::sort(chain_names.begin(), chain_names.end());

  next_index_ = chain_names.empty() ? 1 : chain_names.back().first + 1;

  for (size_t i = 0; i < chain_names.size(); ++i) {
    const auto& [index, name] = chain_names[i];
    std::shared_ptr<PagedFile> file;
    NEOSI_RETURN_IF_ERROR(dir_->Open(name, &file));
    Lsn base = 0;
    uint64_t epoch = 0;
    bool valid = false;
    NEOSI_RETURN_IF_ERROR(
        ReadSegmentHeader(file.get(), &base, &epoch, &valid));
    if (!valid) {
      if (i + 1 == chain_names.size()) {
        // Crash while creating the newest segment: its header never became
        // durable, so no frame can have entered it (appends only target a
        // segment after its header synced). Discard the husk; the next roll
        // reuses its index, keeping the chain contiguous.
        file.reset();
        NEOSI_RETURN_IF_ERROR(dir_->Remove(name));
        NEOSI_RETURN_IF_ERROR(dir_->SyncDir());
        next_index_ = index;
        break;
      }
      return Status::Corruption("wal segment " + name +
                                ": bad header inside the chain");
    }
    auto segment = std::make_unique<Segment>();
    segment->index = index;
    segment->base = base;
    segment->epoch = epoch;
    segment->file = std::move(file);
    segments_.push_back(std::move(segment));
  }

  // Chain validation: indices contiguous (a missing middle segment is a
  // hole in the lsn space), bases strictly increasing (an out-of-order or
  // duplicated base means an orphan from some other life of the log).
  for (size_t i = 1; i < segments_.size(); ++i) {
    if (segments_[i]->index != segments_[i - 1]->index + 1) {
      return Status::Corruption(
          "wal segment gap: " + SegmentName(segments_[i - 1]->index) +
          " is followed by " + SegmentName(segments_[i]->index));
    }
    if (segments_[i]->base <= segments_[i - 1]->base) {
      return Status::Corruption(
          "wal segment order: " + SegmentName(segments_[i]->index) +
          " base does not advance past its predecessor");
    }
  }

  uint64_t max_epoch = 0;
  for (const auto& segment : segments_) {
    max_epoch = std::max(max_epoch, segment->epoch);
  }
  epoch_ = max_epoch + 1;

  if (segments_.empty()) {
    return AddSegmentLocked(0);  // head_lsn_ and next_lsn_ stay 0.
  }

  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    active_.store(segments_.back().get(), std::memory_order_release);
    segment_count_.store(segments_.size(), std::memory_order_release);
  }
  head_lsn_.store(segments_.front()->base, std::memory_order_relaxed);

  // Position the cursor after the newest segment's valid frame prefix,
  // truncating a torn tail (crash mid-append) and the zeros filled ahead of
  // it — and with them any stale frame a torn one hides. Older segments
  // were synced before the chain rolled past them; their frames are
  // validated when replay actually reads them.
  Segment* active = active_.load(std::memory_order_relaxed);
  const uint64_t size = active->file->Size();
  auto end = WalkFrames(active->file.get(), kSegmentHeaderSize, size,
                        [](uint64_t, const Slice&) { return Status::OK(); });
  if (!end.ok()) return end.status();
  if (*end < size) {
    NEOSI_RETURN_IF_ERROR(active->file->Truncate(*end));
  }
  next_lsn_.store(active->base + (*end - kSegmentHeaderSize),
                  std::memory_order_relaxed);
  filled_to_ = *end;
  return Status::OK();
}

void Wal::RollbackUnpublishedSegmentsLocked() {
  const Lsn cursor = next_lsn_.load(std::memory_order_relaxed);
  std::string victim;
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    if (segments_.size() <= 1 || segments_.back()->base < cursor) return;
    next_index_ = segments_.back()->index;
    victim = SegmentName(segments_.back()->index);
    segments_.pop_back();
    active_.store(segments_.back().get(), std::memory_order_release);
    segment_count_.store(segments_.size(), std::memory_order_release);
    // The re-activated segment's fill state is unknown: start the mark at
    // the cursor, so the next append refills from its own end.
    filled_to_ = kSegmentHeaderSize + (cursor - segments_.back()->base);
  }
  // Best-effort, but dir-synced: an un-durable unlink could resurrect this
  // file after a crash with a base the surviving active segment has since
  // grown past, and Open() would refuse the chain. A leftover from a FAILED
  // remove is defused at the next roll, which reuses the index and renames
  // a freshly built file over it.
  (void)dir_->Remove(victim);
  (void)dir_->SyncDir();
}

Result<Lsn> Wal::Append(const WalRecord& record, bool pin, Lsn* end_lsn) {
  // Encode the frame outside the latch: header placeholder, payload, then
  // the header filled in over the payload.
  std::string frame(kFrameHeader, '\0');
  record.EncodeTo(&frame);
  const size_t payload_len = frame.size() - kFrameHeader;
  EncodeFixed32(frame.data(), static_cast<uint32_t>(payload_len));
  EncodeFixed32(frame.data() + 4,
                Crc32c(frame.data() + kFrameHeader, payload_len));

  std::lock_guard<SpinLatch> guard(latch_);
  // Sticky-poison check: an appender must not grow a log whose durability
  // is already unprovable.
  NEOSI_RETURN_IF_ERROR(PoisonedStatus());
  const Lsn lsn = next_lsn_.load(std::memory_order_relaxed);
  Segment* active = active_.load(std::memory_order_relaxed);
  uint64_t phys = kSegmentHeaderSize + (lsn - active->base);
  {
    Status fault = Point("wal.append.mid_frame");
    if (!fault.ok()) {
      // Simulated mid-append crash: half the frame's bytes land, the cursor
      // never advances. Recovery must detect and truncate the torn bytes.
      active->file->WriteAt(phys, frame.data(), frame.size() / 2);
      return fault;
    }
  }
  Status s;
  if (lsn > active->base && phys + frame.size() > options_.segment_size) {
    // Roll: the retiring segment is synced BEFORE the new one enters the
    // chain, so a valid-prefix walk can stop early only in the newest
    // segment. (A frame larger than a whole segment gets one to itself —
    // the roll happens, the oversized write below still succeeds.) This
    // sync stays on the append path even with a flusher: older segments
    // must be fully durable before the chain grows past them. The lsn
    // space is contiguous across the roll: the new segment's base is `lsn`.
    s = SyncRetiringLocked(active);
    if (s.ok()) s = AddSegmentLocked(lsn);
    // Post-roll write-failure crash point: exercises the un-roll below.
    if (s.ok()) s = Point("wal.append.fail_after_roll");
    active = active_.load(std::memory_order_relaxed);
    phys = kSegmentHeaderSize;
  }
  if (s.ok()) s = active->file->WriteAt(phys, frame.data(), frame.size());
  if (!s.ok()) {
    // A failure after a roll leaves a fresh segment with no published
    // frame: un-roll it, so the next append lands back at the cursor
    // (overwriting the partial frame) and retries the roll from scratch.
    RollbackUnpublishedSegmentsLocked();
    return s;
  }
  const Lsn end = lsn + frame.size();
  FillAheadLocked(end);
  if (pin) {
    std::lock_guard<std::mutex> pin_guard(pins_mu_);
    pins_.insert(lsn);
  }
  // Release-publish AFTER the pin is registered: StableLsn() reads the
  // cursor first, so any record it can observe below the cursor has its pin
  // already visible (or has been deliberately appended unpinned).
  next_lsn_.store(end, std::memory_order_release);
  if (end_lsn != nullptr) *end_lsn = end;
  return lsn;
}

Status Wal::FlushTo(Lsn target, bool always) {
  if (UseAsyncFlush()) {
    NEOSI_RETURN_IF_ERROR(RequestFlush(target));
    return WaitFlushed(target);
  }
  std::lock_guard<std::mutex> sync_guard(sync_mu_);
  // Re-check under the pass mutex: while this caller queued, a peer's pass
  // may have read a cursor past `target` — its fsync already covers us.
  if (!always && FlushedLsn() >= target) return Status::OK();
  return FlushOnceLocked();
}

Status Wal::Sync() {
  NEOSI_RETURN_IF_ERROR(PoisonedStatus());
  return FlushTo(next_lsn_.load(std::memory_order_acquire), /*always=*/true);
}

void Wal::SimulateSyncLoss(const std::shared_ptr<PagedFile>& file, Lsn base) {
  // After a failed fsync the kernel keeps the file's CLEAN pages (anything
  // a previous successful fsync covered) but drops the dirty ones — a later
  // fsync returning OK says nothing about them. Model that by truncating
  // everything beyond the flushed watermark; when no flush ever covered
  // this segment, even its header's durability is unknown (adoption writes
  // it buffered), so the whole file goes.
  const Lsn flushed = flushed_lsn_.load(std::memory_order_acquire);
  const uint64_t keep =
      flushed > base ? kSegmentHeaderSize + (flushed - base) : 0;
  if (file->Size() > keep) (void)file->Truncate(keep);
}

Status Wal::FlushOnceLocked() {
  // Serialized by sync_mu_: one syncer's fault-check → page-drop →
  // poison-publish sequence is atomic against a peer's fsync, so no fsync
  // can observe a healthy file, miss the poison flag, and report OK after a
  // peer's EIO already dropped pages (two inline Sync()s, one injected).
  NEOSI_RETURN_IF_ERROR(PoisonedStatus());
  // Cursor FIRST, file snapshot second: any frame below the cursor read
  // here is either in the file snapshotted next, or in an older segment a
  // roll already retiring-synced — so fsyncing the snapshot really does
  // make everything below `durable_upto` durable. (The reverse order could
  // advance the watermark past frames that went into a segment created
  // after the snapshot.)
  const Lsn durable_upto = next_lsn_.load(std::memory_order_acquire);
  // The shared handle keeps the file alive if a failed append un-rolls
  // this segment mid-sync (fsync of an unlinked file is harmless).
  std::shared_ptr<PagedFile> file;
  Lsn base = 0;
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    if (segments_.empty()) {
      AdvanceFlushed(durable_upto);
      return Status::OK();
    }
    file = segments_.back()->file;
    base = segments_.back()->base;
  }
  Status fault = Point("wal.sync.fail");
  if (!fault.ok()) {
    SimulateSyncLoss(file, base);
    Poison(fault);
    return fault;
  }
  Status s = file->Sync();
  if (!s.ok()) {
    Poison(s);
    return s;
  }
  // File BEFORE directory: once the deferred dir-sync lands, the adopted
  // segment's header is already durable, so a crash can never leave a
  // durable dir entry pointing at a headerless file that is not the newest.
  if (dir_sync_pending_.exchange(false, std::memory_order_acq_rel)) {
    Status d = Point("wal.dirsync.rename");
    if (d.ok()) d = dir_->SyncDir();
    if (!d.ok()) {
      dir_sync_pending_.store(true, std::memory_order_release);
      Poison(d);
      return d;
    }
  }
  AdvanceFlushed(durable_upto);
  flush_passes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::RequestFlush(Lsn target) {
  NEOSI_RETURN_IF_ERROR(PoisonedStatus());
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    if (target > flush_target_) flush_target_ = target;
  }
  flush_cv_.notify_all();
  return Status::OK();
}

Status Wal::WaitFlushed(Lsn target) {
  if (flushed_lsn_.load(std::memory_order_acquire) >= target) {
    return Status::OK();
  }
  std::unique_lock<std::mutex> lock(flush_mu_);
  for (;;) {
    // Watermark first: data that made it to disk stays acked even if the
    // log was poisoned a moment later.
    if (flushed_lsn_.load(std::memory_order_acquire) >= target) {
      return Status::OK();
    }
    if (poisoned_.load(std::memory_order_acquire)) {
      return PoisonedStatusLocked();
    }
    auto& ref = flush_waiters_[target];
    if (ref == nullptr) ref = std::make_shared<FlushWaiter>();
    std::shared_ptr<FlushWaiter> slot = ref;  // Pin across the erase.
    slot->cv.wait(lock);
  }
}

void Wal::AdvanceFlushed(Lsn upto) {
  std::vector<std::shared_ptr<FlushWaiter>> wake;
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    if (upto <= flushed_lsn_.load(std::memory_order_relaxed)) return;
    flushed_lsn_.store(upto, std::memory_order_release);
    const auto end = flush_waiters_.upper_bound(upto);
    for (auto it = flush_waiters_.begin(); it != end; ++it) {
      wake.push_back(it->second);
    }
    flush_waiters_.erase(flush_waiters_.begin(), end);
  }
  for (auto& waiter : wake) waiter->cv.notify_all();
}

void Wal::NudgeFlusherPrep() {
  if (!options_.preallocate ||
      !flusher_running_.load(std::memory_order_acquire)) {
    return;
  }
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    prep_nudge_ = true;
  }
  flush_cv_.notify_all();
}

Status Wal::BuildSegment(bool reserve,
                         std::unique_ptr<PreparedSegment>* out) {
  auto prep = std::make_unique<PreparedSegment>();
  prep->name = PrepName(prep_seq_.fetch_add(1, std::memory_order_relaxed));
  Status s = dir_->Open(prep->name, &prep->file);
  if (s.ok()) s = prep->file->Truncate(0);
  if (s.ok() && reserve) s = prep->file->Preallocate(options_.segment_size);
  if (!s.ok()) {
    // Allocation-class failure (ENOSPC and friends): not a durability
    // statement, so no poison. An off-path build leaves the next roll to
    // build inline, which may still succeed with a plain sparse file.
    prep->file.reset();
    (void)dir_->Remove(prep->name);
    return s;
  }
  // The file, then its dir entry: adoption's only directory work is then
  // the rename.
  s = prep->file->Sync();
  if (s.ok()) s = Point("wal.dirsync.create");
  if (s.ok()) s = dir_->SyncDir();
  if (!s.ok()) {
    // An fsync/dir-sync failure in the WAL directory IS a durability
    // statement: fail sticky, same as every other chain sync.
    prep->file.reset();
    (void)dir_->Remove(prep->name);
    Poison(s);
    return s;
  }
  *out = std::move(prep);
  return Status::OK();
}

void Wal::PrepareSegmentOffPath() {
  if (poisoned_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    if (prepared_ != nullptr) return;
  }
  // Only this thread publishes prepared_, so it is still empty below.
  std::unique_ptr<PreparedSegment> prep;
  if (!BuildSegment(/*reserve=*/true, &prep).ok()) return;
  std::lock_guard<std::mutex> guard(seg_mu_);
  prepared_ = std::move(prep);
}

void Wal::StartFlusher() {
  if (!(options_.async_flush || options_.preallocate)) return;
  if (flusher_.joinable()) return;
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    flusher_stop_ = false;
    prep_nudge_ = options_.preallocate;
  }
  flusher_ = std::thread([this] { FlusherMain(); });
  flusher_running_.store(true, std::memory_order_release);
}

void Wal::StopFlusher() {
  if (!flusher_.joinable()) return;
  flusher_running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> guard(flush_mu_);
    flusher_stop_ = true;
  }
  flush_cv_.notify_all();
  flusher_.join();
}

void Wal::FlusherMain() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  for (;;) {
    flush_cv_.wait(lock, [this] {
      if (flusher_stop_) return true;
      if (poisoned_.load(std::memory_order_relaxed)) return false;
      if (flush_target_ > flushed_lsn_.load(std::memory_order_relaxed)) {
        return true;
      }
      return options_.preallocate && prep_nudge_;
    });
    if (flusher_stop_) return;
    if (flush_target_ > flushed_lsn_.load(std::memory_order_relaxed)) {
      lock.unlock();
      {
        // Failure poisons inside the pass, which also fails every waiter —
        // nothing further to do here; the predicate goes quiet.
        std::lock_guard<std::mutex> sync_guard(sync_mu_);
        (void)FlushOnceLocked();
      }
      lock.lock();
      continue;
    }
    if (prep_nudge_) {
      prep_nudge_ = false;
      lock.unlock();
      PrepareSegmentOffPath();
      lock.lock();
    }
  }
}

void Wal::Unpin(Lsn lsn) {
  std::lock_guard<std::mutex> guard(pins_mu_);
  pins_.erase(lsn);
}

Lsn Wal::StableLsn() const {
  // Cursor FIRST, pins second: a pin is registered before the cursor
  // advances past its record, so any record visible below `cursor` is
  // either pinned here or already safely applied.
  const Lsn cursor = next_lsn_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> guard(pins_mu_);
  if (pins_.empty()) return cursor;
  return std::min(cursor, *pins_.begin());
}

size_t Wal::PinnedCount() const {
  std::lock_guard<std::mutex> guard(pins_mu_);
  return pins_.size();
}

Status Wal::TruncatePrefix(Lsn lsn) {
  std::lock_guard<std::mutex> guard(trunc_mu_);
  NEOSI_RETURN_IF_ERROR(PoisonedStatus());
  const Lsn head = head_lsn_.load(std::memory_order_acquire);
  const Lsn next = next_lsn_.load(std::memory_order_acquire);
  if (lsn <= head) return Status::OK();  // Nothing below to drop.
  if (lsn > next) {
    return Status::InvalidArgument("wal truncate beyond append cursor");
  }

  // Every segment wholly below the new head is retired; the logical head
  // advances only once they are gone, so SizeBytes() (= next - head) never
  // under-reports while multi-segment unlinks (with their directory syncs)
  // are still in flight. The head is in-memory only — recovery re-derives
  // it from the oldest retained segment and the checkpoint markers — so
  // this ordering has no crash-consistency implications. The active segment
  // is never retired: it anchors lsn monotonicity and keeps appends
  // untouched, making reclamation a pure unlink of cold files —
  // unconditional on every backend, no hole punching, no quiescent rebase.
  NEOSI_RETURN_IF_ERROR(Point("wal.truncate.pre_unlink"));

  for (;;) {
    std::unique_ptr<Segment> victim;
    {
      std::lock_guard<std::mutex> seg_guard(seg_mu_);
      // A segment's frames end where its successor begins; it is dead iff
      // that end is at or below the new head. keep_segments retains that
      // many extra dead segments for lagging replicas (wal_keep_segments).
      if (segments_.size() <= 1 + options_.keep_segments ||
          segments_[1]->base > lsn) {
        break;
      }
      victim = std::move(segments_.front());
      segments_.pop_front();
      segment_count_.store(segments_.size(), std::memory_order_release);
    }
    Status removed = dir_->Remove(SegmentName(victim->index));
    if (!removed.ok()) {
      // The file is still on disk: put the segment back at the chain front
      // (trunc_mu_ is held, so nothing else moved the front), or the next
      // truncation would unlink its successor and leave a gap Open()
      // refuses.
      std::lock_guard<std::mutex> seg_guard(seg_mu_);
      segments_.push_front(std::move(victim));
      segment_count_.store(segments_.size(), std::memory_order_release);
      return removed;
    }
    segments_deleted_.fetch_add(1, std::memory_order_relaxed);
    // Directory-sync EACH retirement before the next: POSIX gives no
    // ordering between unlinks, and a crash that persisted the second
    // unlink but not the first would leave an index gap Open() rightly
    // refuses to accept. Front-to-back with a sync per step, the survivors
    // are always a contiguous chain suffix.
    Status d = Point("wal.dirsync.unlink");
    if (d.ok()) d = dir_->SyncDir();
    if (!d.ok()) {
      Poison(d);
      return d;
    }
  }
  head_lsn_.store(lsn, std::memory_order_release);
  return Status::OK();
}

Result<Lsn> GroupCommitter::Commit(const WalRecord& record, bool sync,
                                   bool pin) {
  NEOSI_RETURN_IF_ERROR(wal_->PoisonedStatus());
  Lsn end = 0;
  auto lsn = wal_->Append(record, pin, &end);
  if (!lsn.ok()) return lsn;
  records_.fetch_add(1, std::memory_order_relaxed);
  if (sync) {
    Status flushed = wal_->FlushTo(end);
    if (!flushed.ok()) {
      // The caller sees a failed commit and rolls back — release its pin
      // here or StableLsn() would be frozen at this lsn forever (the caller
      // never learns the lsn of a commit that "didn't happen").
      if (pin) wal_->Unpin(*lsn);
      return flushed;
    }
  }
  return lsn;
}

uint64_t GroupCommitter::batches() const {
  return wal_->flush_passes_.load(std::memory_order_relaxed);
}

Status Wal::WalkChain(const std::vector<const Segment*>& chain, Lsn from,
                      bool clip,
                      const std::function<Status(Lsn, const WalRecord&)>& fn,
                      Lsn* end) {
  *end = from;
  for (size_t i = 0; i < chain.size(); ++i) {
    const Segment& seg = *chain[i];
    const bool newest = i + 1 == chain.size();
    const Lsn successor = newest ? 0 : chain[i + 1]->base;
    if (!newest && successor <= from) continue;  // Wholly below.

    uint64_t size = seg.file->Size();
    if (clip && !newest) {
      size = std::min(size, kSegmentHeaderSize + (successor - seg.base));
    }
    const Lsn start = std::max(from, seg.base);
    *end = start;
    NEOSI_RETURN_IF_ERROR(
        WalkFrames(seg.file.get(), kSegmentHeaderSize + (start - seg.base),
                   size,
                   [&](uint64_t offset, const Slice& payload) {
                     const Lsn lsn = seg.base + (offset - kSegmentHeaderSize);
                     WalRecord record;
                     NEOSI_RETURN_IF_ERROR(
                         WalRecord::DecodeFrom(payload, &record));
                     NEOSI_RETURN_IF_ERROR(fn(lsn, record));
                     *end = lsn + kFrameHeader + payload.size();
                     return Status::OK();
                   })
            .status());
    // Older segments were synced before the chain rolled past them, so
    // their frames must walk exactly up to the successor's base — a short
    // or invalid walk here is real corruption, not a torn tail, and
    // silently truncating it would drop durably-acked commits.
    if (!newest && *end != successor) {
      return Status::Corruption("wal segment " + SegmentName(seg.index) +
                                ": frame walk ends at lsn " +
                                std::to_string(*end) +
                                ", not at the next segment's base " +
                                std::to_string(successor));
    }
  }
  return Status::OK();
}

Status Wal::ReadFrom(Lsn from,
                     const std::function<Status(Lsn, const WalRecord&)>& fn) {
  const Lsn head = head_lsn_.load(std::memory_order_acquire);
  const Lsn next = next_lsn_.load(std::memory_order_acquire);
  // `from` must be a frame boundary (the head itself, a marker's stable
  // LSN, or the append cursor) — the scan seeks straight to it inside its
  // segment, and segments wholly below it are skipped without any read or
  // CRC work at all.
  if (from < head) from = head;
  if (from > next) from = next;

  // Snapshot the chain. ReadFrom must not race TruncatePrefix (it runs
  // during single-threaded recovery and in tests).
  std::vector<const Segment*> chain;
  {
    std::lock_guard<std::mutex> guard(seg_mu_);
    chain.reserve(segments_.size());
    for (const auto& segment : segments_) chain.push_back(segment.get());
  }
  if (chain.empty()) return Status::OK();  // Not opened.

  Lsn end = from;
  NEOSI_RETURN_IF_ERROR(WalkChain(chain, from, /*clip=*/false, fn, &end));

  // Torn tail (or zeros filled ahead) in the newest segment: drop it so
  // subsequent appends extend a clean log.
  const Segment& newest = *chain.back();
  const uint64_t offset = kSegmentHeaderSize + (end - newest.base);
  if (offset < newest.file->Size()) {
    NEOSI_RETURN_IF_ERROR(newest.file->Truncate(offset));
  }
  std::lock_guard<SpinLatch> guard(latch_);
  next_lsn_.store(end, std::memory_order_release);
  filled_to_ = std::min(filled_to_, offset);
  // The shave may land below where Open() pegged the flushed watermark; a
  // watermark above the cursor would let a later commit ack without any
  // fsync at all.
  if (flushed_lsn_.load(std::memory_order_relaxed) > end) {
    flushed_lsn_.store(end, std::memory_order_release);
  }
  return Status::OK();
}

Status Wal::Tail(Dir& dir, Lsn cursor, std::vector<ShippedRecord>* out,
                 Lsn* next_cursor) {
  *next_cursor = cursor;

  // Snapshot the directory and open every segment whose header validates.
  // Races with the primary are benign: a file that vanished (retired) or
  // whose header does not validate yet (mid-adoption) is skipped until the
  // next poll. Unlike OpenChain, nothing is repaired or removed.
  std::vector<std::string> names;
  NEOSI_RETURN_IF_ERROR(dir.List(&names));
  std::vector<Segment> listed;
  for (const std::string& name : names) {
    Segment seg;
    if (!ParseIndexed(name, "wal.", &seg.index)) continue;
    Status s = dir.OpenExisting(name, &seg.file);
    if (s.IsNotFound()) continue;
    NEOSI_RETURN_IF_ERROR(s);
    bool valid = false;
    if (!ReadSegmentHeader(seg.file.get(), &seg.base, &seg.epoch, &valid)
             .ok() ||
        !valid) {
      continue;
    }
    listed.push_back(std::move(seg));
  }
  if (listed.empty()) return Status::OK();  // Primary not initialized yet.
  std::sort(listed.begin(), listed.end(),
            [](const Segment& a, const Segment& b) { return a.base < b.base; });
  if (cursor < listed.front().base) {
    return Status::Corruption(
        "replication cursor " + std::to_string(cursor) +
        " is below the primary's oldest retained segment (base " +
        std::to_string(listed.front().base) +
        "): history was checkpointed away; re-seed this replica from a "
        "fresh copy of the primary (see wal_keep_segments)");
  }

  std::vector<const Segment*> chain;
  for (const Segment& seg : listed) chain.push_back(&seg);
  const size_t batch_start = out->size();
  Lsn end = cursor;
  Status walked = WalkChain(
      chain, cursor, /*clip=*/true,
      [out](Lsn lsn, const WalRecord& record) {
        out->push_back(ShippedRecord{lsn, record});
        return Status::OK();
      },
      &end);

  // Identity re-check, a safety net: a segment enters the chain by rename
  // and leaves by unlink, so an open file keeps its header — but a rename
  // can replace a chain name a failed rollback left behind. If any walked
  // segment's header changed, nothing read this poll can be trusted: drop
  // the batch and whatever error the walk found, and let the next poll
  // re-list.
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i + 1 < chain.size() && chain[i + 1]->base <= cursor) continue;
    Lsn base = 0;
    uint64_t epoch = 0;
    bool valid = false;
    if (!ReadSegmentHeader(chain[i]->file.get(), &base, &epoch, &valid).ok() ||
        !valid || base != chain[i]->base || epoch != chain[i]->epoch) {
      out->resize(batch_start);
      return Status::OK();
    }
  }
  // A read past the end of a file: the primary truncated a torn tail under
  // the walk. Ship the frames before it; the next poll reads on.
  if (!walked.ok() && !walked.IsOutOfRange()) return walked;
  *next_cursor = end;
  return Status::OK();
}

Status Wal::ReadAll(const std::function<Status(const WalRecord&)>& fn) {
  return ReadFrom(head_lsn_.load(std::memory_order_acquire),
                  [&fn](Lsn, const WalRecord& record) { return fn(record); });
}

uint64_t Wal::PhysicalBytes() const {
  std::lock_guard<std::mutex> guard(seg_mu_);
  uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->file->Size();
  return total;
}

const Wal::Segment* Wal::SegmentAtLocked(Lsn lsn) const {
  const Segment* best = nullptr;
  for (const auto& segment : segments_) {
    if (segment->base <= lsn) best = segment.get();
  }
  return best != nullptr ? best
                         : (segments_.empty() ? nullptr
                                              : segments_.front().get());
}

uint64_t Wal::PhysOf(Lsn lsn) const {
  std::lock_guard<std::mutex> guard(seg_mu_);
  const Segment* segment = SegmentAtLocked(lsn);
  if (segment == nullptr) return kSegmentHeaderSize;
  return kSegmentHeaderSize + (lsn - segment->base);
}

std::string Wal::SegmentNameOf(Lsn lsn) const {
  std::lock_guard<std::mutex> guard(seg_mu_);
  const Segment* segment = SegmentAtLocked(lsn);
  return segment == nullptr ? std::string() : SegmentName(segment->index);
}

bool Wal::HasPreparedSegment() const {
  std::lock_guard<std::mutex> guard(seg_mu_);
  return prepared_ != nullptr;
}

}  // namespace neosi
