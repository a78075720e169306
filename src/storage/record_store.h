// Fixed-size record store file: the building block of the node,
// relationship, property, dynamic and token stores.
//
// Layout: a header region of `header_size` bytes (magic, record size) then
// record i at byte offset header_size + i * record_size, exactly like
// Neo4j's id-addressed store files. Free records are found by scanning
// in-use flags at open time and kept in an in-memory free list.

#ifndef NEOSI_STORAGE_RECORD_STORE_H_
#define NEOSI_STORAGE_RECORD_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/latch.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/paged_file.h"

namespace neosi {

/// Statistics snapshot for a record store.
struct RecordStoreStats {
  uint64_t high_id = 0;        ///< Exclusive upper bound of allocated ids.
  uint64_t free_records = 0;   ///< Records on the free list.
  uint64_t bytes = 0;          ///< File size in bytes.
};

/// Thread-safe fixed-size record file. Record ids are stable for the life of
/// the record; freed ids are recycled.
class RecordStore {
 public:
  /// Takes ownership of `file`. `magic` identifies the store kind in the
  /// header and is validated on open.
  RecordStore(std::unique_ptr<PagedFile> file, uint32_t record_size,
              uint32_t magic, std::string name);

  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  /// Initializes a fresh store or validates + scans an existing one
  /// (rebuilding the free list from in-use flags).
  Status Open();

  /// Allocates a record id (recycled or fresh). The record bytes are zeroed.
  Result<uint64_t> Allocate();

  /// Returns a record to the free list and clears its in-use flag.
  Status Free(uint64_t id);

  /// Reads the full record into `buf` (record_size bytes). Like Write,
  /// WriteField64, InUse and high_id, takes no latch: only the allocation
  /// paths write high_id, and they publish it with a release store.
  Status Read(uint64_t id, char* buf) const;
  /// Reads the full record into buf (resized to record_size).
  Status Read(uint64_t id, std::string* buf) const {
    buf->resize(record_size_);
    return Read(id, buf->data());
  }

  /// Overwrites the full record; data.size() must equal record_size.
  Status Write(uint64_t id, Slice data);

  /// Overwrites a single 8-byte field at `offset` within the record. Used
  /// for relationship chain-pointer surgery, where different fields of one
  /// record are owned by different latches (see records.h).
  Status WriteField64(uint64_t id, size_t offset, uint64_t value);

  /// True if id < high_id and the record's in-use flag is set.
  bool InUse(uint64_t id) const;

  /// Calls fn(id, record_bytes) for every in-use record. Snapshot of
  /// high_id at call time; concurrent writers may race individual records
  /// (callers quiesce writers for consistent scans).
  Status ForEach(
      const std::function<Status(uint64_t, const std::string&)>& fn) const;

  uint64_t high_id() const { return high_id_.load(std::memory_order_acquire); }
  uint32_t record_size() const { return record_size_; }
  const std::string& name() const { return name_; }
  RecordStoreStats Stats() const;

  Status Sync() { return file_->Sync(); }
  /// Syncs only when the backing file saw writes since the last sync-if-
  /// dirty (fuzzy checkpoints skip clean stores entirely). Returns whether
  /// a sync actually ran.
  Result<bool> SyncIfDirty() { return file_->SyncIfDirty(); }

  /// Ensures `id` is allocated (marks every id in [high_id, id] as used if
  /// needed). Used by WAL replay, where record ids are dictated by the log.
  Status EnsureAllocated(uint64_t id);

 private:
  uint64_t OffsetOf(uint64_t id) const {
    return header_size_ + id * record_size_;
  }
  Status WriteHeader();
  Status ValidateHeader();

  static constexpr uint64_t kHeaderSize = 64;

  std::unique_ptr<PagedFile> file_;
  const uint32_t record_size_;
  const uint32_t magic_;
  const std::string name_;
  const uint64_t header_size_ = kHeaderSize;

  mutable SpinLatch latch_;  // guards free_list_ and writes of high_id_
  std::atomic<uint64_t> high_id_{0};
  std::vector<uint64_t> free_list_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_RECORD_STORE_H_
