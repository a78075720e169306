#include "storage/record_store.h"

#include <algorithm>
#include <functional>

#include "common/coding.h"
#include "storage/records.h"

namespace neosi {

RecordStore::RecordStore(std::shared_ptr<PagedFile> file, uint32_t record_size,
                         uint32_t magic, std::string name)
    : file_(std::move(file)),
      record_size_(record_size),
      magic_(magic),
      name_(std::move(name)) {}

Status RecordStore::WriteHeader() {
  char header[kHeaderSize] = {0};
  EncodeFixed32(header, magic_);
  EncodeFixed32(header + 4, 1);  // format version
  EncodeFixed32(header + 8, record_size_);
  EncodeFixed32(header + 12, Crc32c(header, 12));
  return file_->WriteAt(0, header, kHeaderSize);
}

Status RecordStore::ValidateHeader() {
  char header[kHeaderSize];
  NEOSI_RETURN_IF_ERROR(file_->ReadAt(0, kHeaderSize, header));
  if (DecodeFixed32(header) != magic_) {
    return Status::Corruption(name_ + ": bad store magic");
  }
  if (DecodeFixed32(header + 8) != record_size_) {
    return Status::Corruption(name_ + ": record size mismatch");
  }
  if (DecodeFixed32(header + 12) != Crc32c(header, 12)) {
    return Status::Corruption(name_ + ": header checksum mismatch");
  }
  return Status::OK();
}

Status RecordStore::Open() {
  const uint64_t size = file_->Size();
  if (size == 0) {
    return WriteHeader();
  }
  if (size < header_size_) {
    return Status::Corruption(name_ + ": truncated header");
  }
  NEOSI_RETURN_IF_ERROR(ValidateHeader());

  // Rebuild high id and free list by scanning in-use flags.
  const uint64_t records = (size - header_size_) / record_size_;
  std::lock_guard<SpinLatch> guard(latch_);
  high_id_.store(records, std::memory_order_release);
  free_list_.clear();
  std::string rec;
  for (uint64_t id = 0; id < records; ++id) {
    char flag;
    NEOSI_RETURN_IF_ERROR(file_->ReadAt(OffsetOf(id), 1, &flag));
    if ((static_cast<uint8_t>(flag) & kRecordInUse) == 0) {
      free_list_.push_back(id);
    }
  }
  return Status::OK();
}

Result<uint64_t> RecordStore::Allocate() {
  uint64_t id;
  {
    std::lock_guard<SpinLatch> guard(latch_);
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
    } else {
      id = high_id_.load(std::memory_order_relaxed);
      high_id_.store(id + 1, std::memory_order_release);
    }
  }
  NEOSI_RETURN_IF_ERROR(WriteZeros(id));
  return id;
}

Status RecordStore::Free(uint64_t id) {
  if (id >= high_id()) {
    return Status::OutOfRange(name_ + ": free of unallocated id " +
                              std::to_string(id));
  }
  NEOSI_RETURN_IF_ERROR(WriteZeros(id));
  std::lock_guard<SpinLatch> guard(latch_);
  free_list_.push_back(id);
  return Status::OK();
}

Status RecordStore::WriteZeros(uint64_t id) {
  static const char kZeros[256] = {};
  for (uint32_t done = 0; done < record_size_;) {
    const uint32_t n = std::min<uint32_t>(record_size_ - done, sizeof kZeros);
    NEOSI_RETURN_IF_ERROR(file_->WriteAt(OffsetOf(id) + done, kZeros, n));
    done += n;
  }
  return Status::OK();
}

Status RecordStore::Read(uint64_t id, char* buf) const {
  if (id >= high_id()) {
    return Status::OutOfRange(name_ + ": read of unallocated id " +
                              std::to_string(id));
  }
  return file_->ReadAt(OffsetOf(id), record_size_, buf);
}

Status RecordStore::Write(uint64_t id, Slice data) {
  if (data.size() != record_size_) {
    return Status::InvalidArgument(name_ + ": record size mismatch on write");
  }
  if (id >= high_id()) {
    return Status::OutOfRange(name_ + ": write of unallocated id " +
                              std::to_string(id));
  }
  return file_->WriteAt(OffsetOf(id), data.data(), data.size());
}

Status RecordStore::WriteField64(uint64_t id, size_t offset, uint64_t value) {
  if (offset + 8 > record_size_) {
    return Status::InvalidArgument(name_ + ": field write out of record");
  }
  if (id >= high_id()) {
    return Status::OutOfRange(name_ + ": field write of unallocated id " +
                              std::to_string(id));
  }
  char buf[8];
  EncodeFixed64(buf, value);
  return file_->WriteAt(OffsetOf(id) + offset, buf, 8);
}

bool RecordStore::InUse(uint64_t id) const {
  if (id >= high_id()) return false;
  char flag;
  if (!file_->ReadAt(OffsetOf(id), 1, &flag).ok()) return false;
  return (static_cast<uint8_t>(flag) & kRecordInUse) != 0;
}

Status RecordStore::ForEach(
    const std::function<Status(uint64_t, const std::string&)>& fn) const {
  const uint64_t limit = high_id();
  std::string rec;
  for (uint64_t id = 0; id < limit; ++id) {
    NEOSI_RETURN_IF_ERROR(Read(id, &rec));
    if ((static_cast<uint8_t>(rec[0]) & kRecordInUse) != 0) {
      NEOSI_RETURN_IF_ERROR(fn(id, rec));
    }
  }
  return Status::OK();
}

RecordStoreStats RecordStore::Stats() const {
  std::lock_guard<SpinLatch> guard(latch_);
  RecordStoreStats stats;
  stats.high_id = high_id_.load(std::memory_order_relaxed);
  stats.free_records = free_list_.size();
  stats.bytes = file_->Size();
  return stats;
}

Status RecordStore::EnsureAllocated(uint64_t id) {
  std::vector<uint64_t> to_zero;
  {
    std::lock_guard<SpinLatch> guard(latch_);
    const uint64_t high = high_id_.load(std::memory_order_relaxed);
    if (id < high) {
      // Recycled id may sit on the free list; pull it off.
      for (size_t i = 0; i < free_list_.size(); ++i) {
        if (free_list_[i] == id) {
          free_list_[i] = free_list_.back();
          free_list_.pop_back();
          break;
        }
      }
      return Status::OK();
    }
    for (uint64_t gap = high; gap < id; ++gap) {
      free_list_.push_back(gap);
      to_zero.push_back(gap);
    }
    to_zero.push_back(id);
    high_id_.store(id + 1, std::memory_order_release);
  }
  for (uint64_t gap : to_zero) {
    NEOSI_RETURN_IF_ERROR(WriteZeros(gap));
  }
  return Status::OK();
}

}  // namespace neosi
