#include "storage/property_store.h"

#include <unordered_set>
#include <vector>

#include "storage/records.h"

namespace neosi {

PropertyStore::PropertyStore(std::shared_ptr<PagedFile> prop_file,
                             std::shared_ptr<PagedFile> dyn_file)
    : props_(std::move(prop_file), PropertyRecord::kSize,
             PropertyRecord::kMagic, "property-store"),
      dyn_(std::move(dyn_file), "string-store") {}

Status PropertyStore::Open() {
  NEOSI_RETURN_IF_ERROR(props_.Open());
  return dyn_.Open();
}

Result<PropId> PropertyStore::WriteChain(const PropertyMap& props) {
  if (props.empty()) return kInvalidPropId;

  std::vector<PropId> ids;
  ids.reserve(props.size());
  for (size_t i = 0; i < props.size(); ++i) {
    auto alloc = props_.Allocate();
    if (!alloc.ok()) return alloc.status();
    ids.push_back(*alloc);
  }

  size_t i = 0;
  char buf[PropertyRecord::kSize];
  for (const auto& [key, value] : props) {
    PropertyRecord rec;
    rec.in_use = true;
    rec.key = key;
    rec.next = (i + 1 < ids.size()) ? ids[i + 1] : kInvalidPropId;

    std::string encoded;
    value.EncodeTo(&encoded);
    if (encoded.size() <= PropertyRecord::kInlinePayload) {
      rec.inline_len = static_cast<uint8_t>(encoded.size());
      memcpy(rec.inline_payload.data(), encoded.data(), encoded.size());
      rec.overflow = kInvalidDynId;
    } else {
      rec.inline_len = 0;
      auto blob = dyn_.WriteBlob(Slice(encoded));
      if (!blob.ok()) return blob.status();
      rec.overflow = *blob;
    }
    rec.EncodeTo(buf);
    NEOSI_RETURN_IF_ERROR(
        props_.Write(ids[i], Slice(buf, PropertyRecord::kSize)));
    ++i;
  }
  return ids[0];
}

Status PropertyStore::ReadChain(PropId head, PropertyMap* out) const {
  out->clear();
  std::string buf;
  PropId id = head;
  uint64_t steps = 0;
  const uint64_t max_steps = props_.high_id() + 1;
  while (id != kInvalidPropId) {
    if (++steps > max_steps) {
      return Status::Corruption("property chain cycle at record " +
                                std::to_string(id));
    }
    NEOSI_RETURN_IF_ERROR(props_.Read(id, &buf));
    PropertyRecord rec;
    NEOSI_RETURN_IF_ERROR(PropertyRecord::DecodeFrom(Slice(buf), &rec));
    if (!rec.in_use) {
      return Status::Corruption("property chain through free record " +
                                std::to_string(id));
    }

    PropertyValue value;
    if (rec.overflow != kInvalidDynId) {
      std::string blob;
      NEOSI_RETURN_IF_ERROR(dyn_.ReadBlob(rec.overflow, &blob));
      Slice input(blob);
      NEOSI_RETURN_IF_ERROR(PropertyValue::DecodeFrom(&input, &value));
    } else {
      Slice input(rec.inline_payload.data(), rec.inline_len);
      NEOSI_RETURN_IF_ERROR(PropertyValue::DecodeFrom(&input, &value));
    }
    (*out)[rec.key] = std::move(value);
    id = rec.next;
  }
  return Status::OK();
}

Status PropertyStore::FreeChain(PropId head) {
  std::string buf;
  PropId id = head;
  uint64_t steps = 0;
  const uint64_t max_steps = props_.high_id() + 1;
  while (id != kInvalidPropId) {
    if (++steps > max_steps) {
      return Status::Corruption("property chain cycle at record " +
                                std::to_string(id));
    }
    NEOSI_RETURN_IF_ERROR(props_.Read(id, &buf));
    PropertyRecord rec;
    NEOSI_RETURN_IF_ERROR(PropertyRecord::DecodeFrom(Slice(buf), &rec));
    if (rec.overflow != kInvalidDynId) {
      NEOSI_RETURN_IF_ERROR(dyn_.FreeBlob(rec.overflow));
    }
    NEOSI_RETURN_IF_ERROR(props_.Free(id));
    id = rec.next;
  }
  return Status::OK();
}

Status PropertyStore::SweepUnreachable(const std::vector<PropId>& roots,
                                       uint64_t* freed) {
  *freed = 0;
  std::unordered_set<PropId> reachable;
  std::string buf;
  for (PropId root : roots) {
    PropId id = root;
    uint64_t steps = 0;
    const uint64_t max_steps = props_.high_id() + 1;
    while (id != kInvalidPropId) {
      if (++steps > max_steps) {
        return Status::Corruption("property chain cycle at record " +
                                  std::to_string(id));
      }
      if (!reachable.insert(id).second) break;  // shared tail already walked
      NEOSI_RETURN_IF_ERROR(props_.Read(id, &buf));
      PropertyRecord rec;
      NEOSI_RETURN_IF_ERROR(PropertyRecord::DecodeFrom(Slice(buf), &rec));
      if (!rec.in_use) {
        return Status::Corruption("property chain through free record " +
                                  std::to_string(id));
      }
      id = rec.next;
    }
  }

  std::vector<PropId> orphans;
  Status s = props_.ForEach([&](uint64_t id, const std::string&) {
    if (reachable.count(id) == 0) orphans.push_back(id);
    return Status::OK();
  });
  if (!s.ok()) return s;
  for (PropId id : orphans) {
    NEOSI_RETURN_IF_ERROR(props_.Free(id));
  }
  *freed = orphans.size();
  return Status::OK();
}

Status PropertyStore::AuditBlobReachability(const std::vector<PropId>& roots,
                                            uint64_t* leaked_blocks) {
  *leaked_blocks = 0;

  // Pass 1: collect the overflow heads hanging off every reachable property
  // record. Reuses the SweepUnreachable walk (cycle guard, shared-tail
  // break); a broken reachable chain is corruption, not a leak.
  std::unordered_set<PropId> reachable;
  std::vector<DynId> heads;
  std::string buf;
  for (PropId root : roots) {
    PropId id = root;
    uint64_t steps = 0;
    const uint64_t max_steps = props_.high_id() + 1;
    while (id != kInvalidPropId) {
      if (++steps > max_steps) {
        return Status::Corruption("property chain cycle at record " +
                                  std::to_string(id));
      }
      if (!reachable.insert(id).second) break;  // shared tail already walked
      NEOSI_RETURN_IF_ERROR(props_.Read(id, &buf));
      PropertyRecord rec;
      NEOSI_RETURN_IF_ERROR(PropertyRecord::DecodeFrom(Slice(buf), &rec));
      if (!rec.in_use) {
        return Status::Corruption("property chain through free record " +
                                  std::to_string(id));
      }
      if (rec.overflow != kInvalidDynId) heads.push_back(rec.overflow);
      id = rec.next;
    }
  }

  // Pass 2: mark every block of every live blob. Heads can alias (that is
  // the reason SweepUnreachable refuses to free blobs), so break on the
  // first already-marked block.
  std::unordered_set<DynId> live_blocks;
  RecordStore& blocks = dyn_.record_store();
  for (DynId head : heads) {
    DynId id = head;
    uint64_t steps = 0;
    const uint64_t max_steps = blocks.high_id() + 1;
    while (id != kInvalidDynId) {
      if (++steps > max_steps) {
        return Status::Corruption("dynamic store: blob chain cycle at block " +
                                  std::to_string(id));
      }
      if (!live_blocks.insert(id).second) break;  // aliased tail
      NEOSI_RETURN_IF_ERROR(blocks.Read(id, &buf));
      DynRecord rec;
      NEOSI_RETURN_IF_ERROR(DynRecord::DecodeFrom(Slice(buf), &rec));
      if (!rec.in_use) {
        return Status::Corruption(
            "dynamic store: live blob through free block " +
            std::to_string(id));
      }
      id = rec.next;
    }
  }

  // Pass 3: every in-use block no live blob reaches is leaked.
  uint64_t leaked = 0;
  Status s = blocks.ForEach([&](uint64_t id, const std::string&) {
    if (live_blocks.count(id) == 0) ++leaked;
    return Status::OK();
  });
  if (!s.ok()) return s;
  *leaked_blocks = leaked;
  return Status::OK();
}

Status PropertyStore::Sync() {
  NEOSI_RETURN_IF_ERROR(props_.Sync());
  return dyn_.Sync();
}

Result<bool> PropertyStore::SyncIfDirty() {
  auto a = props_.SyncIfDirty();
  if (!a.ok()) return a;
  auto b = dyn_.SyncIfDirty();
  if (!b.ok()) return b;
  return *a || *b;
}

}  // namespace neosi
