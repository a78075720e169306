#include "storage/replication_source.h"

#include <algorithm>
#include <string>

#include "common/coding.h"
#include "storage/wal.h"

namespace neosi {

namespace {

constexpr size_t kFrameHeader = 8;  // u32 length + u32 crc

struct TailSegment {
  uint64_t index = 0;
  Lsn base = 0;
  uint64_t epoch = 0;
  std::shared_ptr<PagedFile> file;
};

/// True iff `name` is "wal." followed by digits only (the Wal's
/// "wal.prep.NNNNNN" builds, and the "wal.free.NNNNNN" files older versions
/// kept, fail the all-digits check).
bool ParseSegmentName(const std::string& name, uint64_t* index) {
  constexpr const char* kPrefix = "wal.";
  constexpr size_t kPrefixLen = 4;
  if (name.size() <= kPrefixLen || name.compare(0, kPrefixLen, kPrefix)) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefixLen; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = value;
  return true;
}

/// Reads and validates `file`'s segment header through the Wal's decoder.
/// Returns false (not an error) when the header is unreadable, absent,
/// torn, fails its CRC or has an unsupported version — for a tailer that
/// simply means the file is mid-creation and the next poll will see a
/// settled state.
bool ReadHeader(PagedFile* file, Lsn* base, uint64_t* epoch) {
  bool valid = false;
  return Wal::ReadSegmentHeader(file, base, epoch, &valid).ok() && valid;
}

}  // namespace

Status ReplicationSource::Poll(Lsn cursor, std::vector<ShippedRecord>* out,
                               Lsn* next_cursor) {
  *next_cursor = cursor;

  // Snapshot the directory and open every segment whose header validates.
  // Races are benign by construction: a file that vanished or whose header
  // does not (yet) validate is skipped and re-examined next poll.
  std::vector<std::string> names;
  NEOSI_RETURN_IF_ERROR(dir_->List(&names));
  std::vector<TailSegment> segments;
  for (const std::string& name : names) {
    uint64_t index = 0;
    if (!ParseSegmentName(name, &index)) continue;
    TailSegment seg;
    seg.index = index;
    Status s = dir_->OpenExisting(name, &seg.file);
    if (s.IsNotFound()) continue;  // Raced retirement.
    NEOSI_RETURN_IF_ERROR(s);
    if (!ReadHeader(seg.file.get(), &seg.base, &seg.epoch)) continue;
    segments.push_back(std::move(seg));
  }
  if (segments.empty()) return Status::OK();  // Primary not initialized yet.
  std::sort(segments.begin(), segments.end(),
            [](const TailSegment& a, const TailSegment& b) {
              return a.base < b.base;
            });

  if (cursor < segments.front().base) {
    return Status::Corruption(
        "replication cursor " + std::to_string(cursor) +
        " is below the primary's oldest retained segment (base " +
        std::to_string(segments.front().base) +
        "): history was checkpointed away; re-seed this replica from a "
        "fresh copy of the primary (see wal_keep_segments)");
  }

  std::vector<char> buf;
  for (size_t i = 0; i < segments.size(); ++i) {
    TailSegment& seg = segments[i];
    // A segment's frames end where its successor begins; the newest
    // segment's end is wherever its valid frame prefix stops.
    const bool has_successor = i + 1 < segments.size();
    const Lsn seg_end = has_successor ? segments[i + 1].base : kInvalidId;
    if (has_successor && seg_end <= cursor) continue;

    const size_t batch_start = out->size();
    Lsn lsn = std::max(cursor, seg.base);
    bool clean_stop = true;  // len==0 / short tail, vs CRC/decode failure
    for (;;) {
      if (has_successor && lsn >= seg_end) break;
      const uint64_t offset = Wal::kSegmentHeaderSize + (lsn - seg.base);
      const uint64_t size = seg.file->Size();
      if (offset + kFrameHeader > size) break;
      char header[kFrameHeader];
      if (!seg.file->ReadAt(offset, kFrameHeader, header).ok()) break;
      const uint32_t len = DecodeFixed32(header);
      const uint32_t crc = DecodeFixed32(header + 4);
      if (len == 0 || offset + kFrameHeader + len > size) break;
      buf.resize(len);
      if (!seg.file->ReadAt(offset + kFrameHeader, len, buf.data()).ok()) {
        break;
      }
      if (Crc32c(buf.data(), len) != crc) {
        clean_stop = false;  // In-flight append or changed-under-us bytes.
        break;
      }
      ShippedRecord shipped;
      shipped.lsn = lsn;
      Status decode =
          WalRecord::DecodeFrom(Slice(buf.data(), len), &shipped.record);
      if (!decode.ok()) {
        clean_stop = false;
        break;
      }
      out->push_back(std::move(shipped));
      lsn += kFrameHeader + len;
    }

    // Identity re-check, a safety net: a segment enters the chain by
    // rename and leaves by unlink, so an open file should keep its header —
    // but a rename can replace a chain name that a failed rollback left
    // behind. If the header changed under the reads above, nothing read
    // from it can be trusted: drop this segment's batch and let the next
    // poll re-list. With the identity intact the CRC-verified frames are
    // final bytes of this segment.
    Lsn base_now = 0;
    uint64_t epoch_now = 0;
    if (!ReadHeader(seg.file.get(), &base_now, &epoch_now) ||
        base_now != seg.base || epoch_now != seg.epoch) {
      out->resize(batch_start);
      return Status::OK();
    }

    // Inside the chain every byte up to the successor's base is final: a
    // stop mid-segment there is real corruption, not a torn tail.
    if (has_successor && lsn < seg_end) {
      if (out->size() == batch_start && clean_stop) {
        // No frame at the cursor at all — the cursor points into a segment
        // whose content was checkpointed away and replaced by one with a
        // reused base. Unreachable in practice (bases are monotonic), but
        // report it as the gap it is rather than spin.
        return Status::Corruption(
            "replication cursor " + std::to_string(cursor) +
            " not found in segment with base " + std::to_string(seg.base));
      }
      return Status::Corruption(
          "short frame walk in non-newest wal segment (base " +
          std::to_string(seg.base) + ", lsn " + std::to_string(lsn) +
          ", expected frames to " + std::to_string(seg_end) + ")");
    }

    *next_cursor = lsn;
    cursor = lsn;
    if (!clean_stop) break;  // Tail in flux; ship what we have.
  }
  return Status::OK();
}

}  // namespace neosi
