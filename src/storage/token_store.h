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
#include <string_view>
#include <vector>

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
///
/// Lookups take no latch and write nothing: they read the published lookup
/// table with one acquire load and then its slots. The table is an
/// insert-only open-addressing name index plus an id-indexed array, both
/// holding pointers to immutable tokens. Creators (serialised on
/// create_mu_) fill a free slot with a release store; a full table is
/// replaced by one of twice the size. Superseded tables stay allocated
/// until the store closes, because a reader may still be probing one; they
/// halve in size going back, so memory stays O(tokens).
class TokenStore {
 public:
  /// GetOrCreate checks "token.page.write" on `sync_points` (if any).
  TokenStore(std::shared_ptr<PagedFile> file, std::string name,
             SyncPoints* sync_points = nullptr);

  /// Loads existing tokens into the lookup table. Runs before the store is
  /// shared between threads.
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

  size_t size() const { return count_.load(std::memory_order_acquire); }
  Status Sync() { return store_.Sync(); }
  Result<bool> SyncIfDirty() { return store_.SyncIfDirty(); }

 private:
  /// One generation of the lookup table. `by_id` has `capacity` slots and
  /// `by_name` twice that (a power of two), so the name index stays at most
  /// half full.
  struct Table {
    explicit Table(size_t capacity)
        : capacity(capacity),
          by_id(new std::atomic<const Token*>[capacity]()),
          by_name(new std::atomic<const Token*>[2 * capacity]()) {}

    const size_t capacity;
    const std::unique_ptr<std::atomic<const Token*>[]> by_id;
    const std::unique_ptr<std::atomic<const Token*>[]> by_name;
  };

  /// Persists token `id`'s record page.
  Status WriteRecord(uint32_t id, const std::string& name,
                     Timestamp created_ts);
  /// Makes token `id` visible to lookups (create_mu_ held, or not yet
  /// shared).
  void Publish(uint32_t id, const std::string& name, Timestamp created_ts);
  /// Fills `token`'s slots in `table`, which has room for it.
  static void Place(Table* table, const Token* token);
  /// The published token named `name` / numbered `id`, or null.
  const Token* FindByName(std::string_view name) const;
  const Token* FindById(uint32_t id) const;

  RecordStore store_;
  SyncPoints* const sync_points_;
  std::mutex create_mu_;  // Serialises creators: GetOrCreate and Restore.
  /// Every token and table generation ever published (create_mu_).
  std::vector<std::unique_ptr<const Token>> tokens_;
  std::vector<std::unique_ptr<Table>> tables_;
  /// The newest generation, tables_.back().
  std::atomic<const Table*> table_{nullptr};
  std::atomic<size_t> count_{0};
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_TOKEN_STORE_H_
