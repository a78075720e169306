// Interned token registries for labels, property keys and relationship
// types.
//
// Neo4j never deletes tokens; the paper (§4) therefore VERSIONS them: each
// token records the commit timestamp of the transaction that created it, and
// a reader whose snapshot predates the token simply discards it. GetOrCreate
// is what writers use; visibility-filtered lookup is what readers use.

#ifndef NEOSI_STORAGE_TOKEN_STORE_H_
#define NEOSI_STORAGE_TOKEN_STORE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "common/sync_points.h"
#include "common/types.h"
#include "storage/record_store.h"

namespace neosi {

/// One token: interned name + creation timestamp (paper §4 token versioning).
struct Token {
  uint32_t id = kInvalidToken;
  std::string name;
  Timestamp created_ts = kNoTimestamp;
};

/// Thread-safe persistent token registry. Token ids are dense (0..n-1) and
/// never reused; tokens are never deleted.
class TokenStore {
 public:
  /// GetOrCreate checks "token.page.write" on `sync_points` (if any).
  TokenStore(std::unique_ptr<PagedFile> file, std::string name,
             SyncPoints* sync_points = nullptr);

  /// Loads existing tokens into the in-memory maps.
  Status Open();

  /// Returns the id for `name`, creating the token with `created_ts` if it
  /// does not exist yet. Creation is immediately persisted (tokens are not
  /// transactional in Neo4j and are never rolled back). A new id is first
  /// handed to `log` (the creation's WAL append) and published only once
  /// that succeeds, so no record naming the id can reach the log before
  /// the token's own. Once logged, the id is published even if the page
  /// write then fails (the error is still returned): the record is the
  /// token's copy that recovery and replicas restore, and a retry must get
  /// the same id. Creators serialise on create_mu_; lookups never wait on
  /// `log`.
  Result<uint32_t> GetOrCreate(const std::string& name, Timestamp created_ts,
                               const std::function<Status(uint32_t id)>& log);

  /// WAL replay of a token creation (recovery and replicas): creates `name`
  /// under the `id` it was logged with, because later records refer to the
  /// id and GetOrCreate here could hand out a different one. OK when the
  /// token already exists under that id; Corruption when the name or the
  /// id belongs to another token.
  Status Restore(uint32_t id, const std::string& name, Timestamp created_ts);

  /// Id lookup with snapshot visibility: NotFound if the token is absent OR
  /// was created after `snapshot_ts` (the reader must discard it, §4).
  Result<uint32_t> Lookup(const std::string& name,
                          Timestamp snapshot_ts = kMaxTimestamp) const;

  /// Name of an existing token id.
  Result<std::string> NameOf(uint32_t id) const;

  /// Creation timestamp of an existing token id.
  Result<Timestamp> CreatedTs(uint32_t id) const;

  /// True if token `id` exists and was created at or before `snapshot_ts`.
  bool VisibleAt(uint32_t id, Timestamp snapshot_ts) const;

  /// All tokens visible at `snapshot_ts`, in id order.
  std::vector<Token> VisibleTokens(Timestamp snapshot_ts) const;

  size_t size() const;
  Status Sync() { return store_.Sync(); }
  Result<bool> SyncIfDirty() { return store_.SyncIfDirty(); }

 private:
  /// Persists token `id`'s record page.
  Status WriteRecord(uint32_t id, const std::string& name,
                     Timestamp created_ts);
  /// Makes token `id` visible to lookups (latch_ held exclusively).
  void PublishLocked(uint32_t id, const std::string& name,
                     Timestamp created_ts);

  RecordStore store_;
  SyncPoints* const sync_points_;
  std::mutex create_mu_;  // Serialises GetOrCreate's allocate-log-publish.
  mutable SharedLatch latch_;
  std::unordered_map<std::string, uint32_t> by_name_;
  std::vector<Token> by_id_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_TOKEN_STORE_H_
