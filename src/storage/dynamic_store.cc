#include "storage/dynamic_store.h"

#include <algorithm>
#include <vector>

#include "storage/records.h"

namespace neosi {

DynamicStore::DynamicStore(std::shared_ptr<PagedFile> file, std::string name)
    : store_(std::move(file), DynRecord::kSize, DynRecord::kMagic,
             std::move(name)) {}

Result<DynId> DynamicStore::WriteBlob(Slice blob) {
  // Allocate all blocks first so the chain can be linked forward.
  const size_t capacity = DynRecord::kDataCapacity;
  const size_t blocks = std::max<size_t>(1, (blob.size() + capacity - 1) /
                                                capacity);
  std::vector<uint64_t> ids(blocks);
  for (size_t i = 0; i < blocks; ++i) {
    auto alloc = store_.Allocate();
    if (!alloc.ok()) return alloc.status();
    ids[i] = *alloc;
  }

  size_t off = 0;
  char buf[DynRecord::kSize];
  for (size_t i = 0; i < blocks; ++i) {
    DynRecord rec;
    rec.in_use = true;
    rec.next = (i + 1 < blocks) ? ids[i + 1] : kInvalidDynId;
    const size_t n = std::min(capacity, blob.size() - off);
    rec.used = static_cast<uint8_t>(n);
    memcpy(rec.data.data(), blob.data() + off, n);
    off += n;
    rec.EncodeTo(buf);
    NEOSI_RETURN_IF_ERROR(store_.Write(ids[i], Slice(buf, DynRecord::kSize)));
  }
  return ids[0];
}

Status DynamicStore::ReadBlob(DynId head, std::string* out) const {
  out->clear();
  std::string buf;
  DynId id = head;
  // Chain length is bounded by the store size; guard against pointer cycles
  // from corruption.
  uint64_t steps = 0;
  const uint64_t max_steps = store_.high_id() + 1;
  while (id != kInvalidDynId) {
    if (++steps > max_steps) {
      return Status::Corruption("dynamic store: chain cycle at block " +
                                std::to_string(id));
    }
    NEOSI_RETURN_IF_ERROR(store_.Read(id, &buf));
    DynRecord rec;
    NEOSI_RETURN_IF_ERROR(DynRecord::DecodeFrom(Slice(buf), &rec));
    if (!rec.in_use) {
      return Status::Corruption("dynamic store: chain through free block " +
                                std::to_string(id));
    }
    out->append(rec.data.data(), rec.used);
    id = rec.next;
  }
  return Status::OK();
}

Status DynamicStore::FreeBlob(DynId head) {
  std::string buf;
  DynId id = head;
  uint64_t steps = 0;
  const uint64_t max_steps = store_.high_id() + 1;
  while (id != kInvalidDynId) {
    if (++steps > max_steps) {
      return Status::Corruption("dynamic store: chain cycle at block " +
                                std::to_string(id));
    }
    NEOSI_RETURN_IF_ERROR(store_.Read(id, &buf));
    DynRecord rec;
    NEOSI_RETURN_IF_ERROR(DynRecord::DecodeFrom(Slice(buf), &rec));
    NEOSI_RETURN_IF_ERROR(store_.Free(id));
    id = rec.next;
  }
  return Status::OK();
}

}  // namespace neosi
