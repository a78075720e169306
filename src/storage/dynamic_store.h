// Chained-block storage for byte strings that do not fit in a fixed record
// (long property values, node label overflow lists, long token names).
// Mirrors Neo4j's dynamic string/array stores.

#ifndef NEOSI_STORAGE_DYNAMIC_STORE_H_
#define NEOSI_STORAGE_DYNAMIC_STORE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "storage/record_store.h"

namespace neosi {

/// Stores arbitrary-length blobs as chains of fixed 64-byte blocks.
class DynamicStore {
 public:
  explicit DynamicStore(std::shared_ptr<PagedFile> file,
                        std::string name = "dynamic-store");

  Status Open() { return store_.Open(); }

  /// Writes `blob` into a fresh chain; returns the head block id.
  Result<DynId> WriteBlob(Slice blob);

  /// Reads the whole chain starting at `head` into *out.
  Status ReadBlob(DynId head, std::string* out) const;

  /// Frees every block in the chain starting at `head`.
  Status FreeBlob(DynId head);

  RecordStoreStats Stats() const { return store_.Stats(); }
  Status Sync() { return store_.Sync(); }
  Result<bool> SyncIfDirty() { return store_.SyncIfDirty(); }

  /// Direct access for recovery scans.
  RecordStore& record_store() { return store_; }

 private:
  RecordStore store_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_DYNAMIC_STORE_H_
