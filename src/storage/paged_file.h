// Byte-addressable file abstraction backing the record stores and the WAL.
//
// Two implementations: a heap buffer (the in-memory default; experiments
// measure concurrency control, not disks) and a POSIX pread/pwrite file used
// by the durability / recovery tests and the persistence benches. Files are
// opened through a Dir (storage/dir.h), which picks the implementation.

#ifndef NEOSI_STORAGE_PAGED_FILE_H_
#define NEOSI_STORAGE_PAGED_FILE_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace neosi {

/// Random-access byte file. Implementations must support concurrent reads
/// and serialized writes (callers coordinate writer exclusion per region).
/// A read racing a write of the same bytes is defined behaviour but may see
/// any mix of their old and new contents (the in-memory backend copies
/// whole 8-byte words, so the mix is word-grained there); a caller that
/// reads while another thread may write, such as a replica tailing the
/// WAL, must check what it read (the WAL's frame CRC rejects a torn frame).
class PagedFile {
 public:
  virtual ~PagedFile() = default;

  /// Reads exactly n bytes at offset into buf; OutOfRange on short read.
  virtual Status ReadAt(uint64_t offset, size_t n, char* buf) const = 0;
  /// Writes n bytes at offset, extending the file as needed.
  virtual Status WriteAt(uint64_t offset, const char* data, size_t n) = 0;
  /// Shrinks or grows the file to exactly `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;
  /// Current size in bytes.
  virtual uint64_t Size() const = 0;
  /// Flushes to stable storage (no-op for the in-memory backend).
  virtual Status Sync() = 0;

  /// Reserves physical storage for the first `size` bytes WITHOUT changing
  /// the file size (fallocate KEEP_SIZE on Linux), so later writes into the
  /// range cannot fail with ENOSPC. Advisory: a filesystem that does not
  /// support the call, and every other backend, returns OK and does
  /// nothing. The WAL flusher uses this to build the next segment off the
  /// append path.
  virtual Status Preallocate(uint64_t size) {
    (void)size;
    return Status::OK();
  }

  /// Writes zeros over [from, to), extending the file as needed; returns
  /// the bytes written. The WAL keeps its active segment zero-filled ahead
  /// of the append cursor with this, so an append overwrites allocated
  /// blocks inside the file size and a commit's fdatasync flushes data
  /// only. A no-op returning 0 on backends without such a cost.
  virtual Result<uint64_t> ZeroFill(uint64_t from, uint64_t to) {
    (void)from;
    (void)to;
    return uint64_t{0};
  }

  /// True when writes have landed since the last SyncIfDirty() (or since
  /// open). Fuzzy checkpoints use this to sync only stores that changed.
  bool dirty() const { return dirty_.load(std::memory_order_acquire); }

  /// Sync() iff the file is dirty; returns whether a sync ran. The flag is
  /// cleared BEFORE the sync, so a write racing the fsync re-dirties the
  /// file for the next checkpoint instead of being silently treated as
  /// persisted.
  Result<bool> SyncIfDirty() {
    if (!dirty_.exchange(false)) {
      return false;
    }
    Status s = Sync();
    if (!s.ok()) {
      dirty_.store(true, std::memory_order_release);
      return s;
    }
    return true;
  }

 protected:
  /// Implementations call this AFTER a mutation completes, so that a
  /// cleared dirty flag implies every completed write is fsync-covered.
  /// It stores only while the flag is clear: a store to a set flag would
  /// still take its cache line from every thread reading it, and the
  /// in-memory file's hot directory shares that line. A write racing
  /// SyncIfDirty still re-dirties the file: the load, the store and the
  /// exchange are all seq_cst, so either the load comes after the exchange
  /// in their total order, sees false and stores true, or it comes before
  /// it, the exchange then reads true, and the sync that follows runs after
  /// the write completed.
  void MarkDirty() {
    if (!dirty_.load(std::memory_order_seq_cst)) {
      dirty_.store(true, std::memory_order_seq_cst);
    }
  }

 private:
  std::atomic<bool> dirty_{false};
};

/// Heap-backed file; contents are lost when the object dies.
///
/// The bytes live in fixed 64 KiB chunks, so the file grows a chunk at a
/// time and no write copies the contents: a doubling buffer would hold the
/// old and the new copy at once while a WAL segment grows to its rotation
/// size, and its capacity can overshoot the segment by up to 2x.
///
/// A fixed two-level directory finds a chunk: a root of kRootLeaves leaf
/// pointers, each leaf kLeafChunks chunk pointers. Every pointer is
/// release-published once and neither moves nor is freed before the file
/// dies, so ReadAt and a WriteAt inside the size take no lock: they find
/// their chunks with acquire loads and copy through relaxed atomic 8-byte
/// words (single bytes at unaligned edges). Growth, a write past the end
/// and Truncate serialize on grow_mu_; a write past the end copies its
/// bytes before it release-publishes size_, so a reader that sees the new
/// size sees them. A write or Truncate past kCapacity fails with IOError.
/// Invariant: the chunks covering [0, the largest size so far) are
/// allocated. Bytes past size_ are left as they are (a shrink keeps its
/// chunks and does not clear them, a new chunk is not zeroed); growth
/// zero-fills from the old end instead, so an append never clears a whole
/// chunk.
class InMemoryFile final : public PagedFile {
 public:
  static constexpr size_t kChunkSize = 64 << 10;
  static constexpr size_t kLeafChunks = 1024;  // 64 MiB per leaf.
  static constexpr size_t kRootLeaves = 1024;
  /// Largest size the directory holds: 64 GiB.
  static constexpr uint64_t kCapacity =
      uint64_t{kChunkSize} * kLeafChunks * kRootLeaves;

  ~InMemoryFile() override;

  Status ReadAt(uint64_t offset, size_t n, char* buf) const override;
  Status WriteAt(uint64_t offset, const char* data, size_t n) override;
  Status Truncate(uint64_t size) override;
  uint64_t Size() const override;
  Status Sync() override { return Status::OK(); }

 private:
  struct Leaf {
    std::array<std::atomic<uint64_t*>, kLeafChunks> chunks{};
  };

  /// Calls fn(span, len) on each within-chunk piece of [offset, offset + n),
  /// in order. The range must lie within the allocated chunks.
  template <typename Fn>
  void ForEachSpan(uint64_t offset, size_t n, Fn&& fn) const;
  /// Allocates and publishes the chunks covering [0, end) and zero-fills
  /// [size_, zero_to). Caller holds grow_mu_ and has checked kCapacity.
  void Grow(uint64_t end, uint64_t zero_to);

  std::array<std::atomic<Leaf*>, kRootLeaves> root_{};
  std::atomic<uint64_t> size_{0};
  std::mutex grow_mu_;  // Serializes growth and every store to size_.
  uint64_t chunks_ = 0;  // Chunks allocated; under grow_mu_.
};

/// POSIX file using pread/pwrite.
class PosixFile final : public PagedFile {
 public:
  ~PosixFile() override;

  /// Opens the file at path, creating it if absent when `create` is set;
  /// NotFound if it is absent otherwise. The parent directory must exist.
  static Status Open(const std::string& path, bool create,
                     std::shared_ptr<PagedFile>* out);

  Status ReadAt(uint64_t offset, size_t n, char* buf) const override;
  Status WriteAt(uint64_t offset, const char* data, size_t n) override;
  Status Truncate(uint64_t size) override;
  uint64_t Size() const override;
  Status Sync() override;
  /// fallocate(KEEP_SIZE) on Linux; a no-op elsewhere and on filesystems
  /// that do not support it (an out-of-space error still surfaces).
  Status Preallocate(uint64_t size) override;
  /// Page-sized pwrites of zeros. A larger write lets the page cache back
  /// the range with large folios; each small append then dirties, and the
  /// next fsync writes back, a whole folio instead of one page.
  Result<uint64_t> ZeroFill(uint64_t from, uint64_t to) override;

 private:
  explicit PosixFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_PAGED_FILE_H_
