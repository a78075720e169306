#include "storage/token_store.h"

#include "storage/records.h"

namespace neosi {

TokenStore::TokenStore(std::unique_ptr<PagedFile> file, std::string name,
                       SyncPoints* sync_points)
    : store_(std::move(file), TokenRecord::kSize, TokenRecord::kMagic,
             std::move(name)),
      sync_points_(sync_points) {}

Status TokenStore::Open() {
  NEOSI_RETURN_IF_ERROR(store_.Open());
  WriteGuard guard(latch_);
  by_name_.clear();
  by_id_.clear();
  return store_.ForEach([&](uint64_t id, const std::string& raw) {
    TokenRecord rec;
    NEOSI_RETURN_IF_ERROR(TokenRecord::DecodeFrom(Slice(raw), &rec));
    PublishLocked(static_cast<uint32_t>(id), rec.name, rec.created_ts);
    return Status::OK();
  });
}

Result<uint32_t> TokenStore::GetOrCreate(
    const std::string& name, Timestamp created_ts,
    const std::function<Status(uint32_t id)>& log) {
  if (name.empty()) {
    return Status::InvalidArgument("token name must be non-empty");
  }
  if (name.size() > TokenRecord::kMaxNameLen) {
    return Status::InvalidArgument("token name too long (max " +
                                   std::to_string(TokenRecord::kMaxNameLen) +
                                   " bytes): " + name);
  }
  auto lookup = Lookup(name);
  if (lookup.ok()) return lookup;
  std::lock_guard<std::mutex> create(create_mu_);
  lookup = Lookup(name);
  if (lookup.ok()) return lookup;  // Raced creation.

  NEOSI_ASSIGN_OR_RETURN(const uint64_t alloc, store_.Allocate());
  const auto id = static_cast<uint32_t>(alloc);
  Status s = log(id);
  if (!s.ok()) {
    store_.Free(id);  // Never published: nothing can name it.
    return s;
  }
  // The logged id wins even if the page write fails: recovery and replicas
  // restore the token from its record, so a retry must find this id rather
  // than log the name again under another.
  WriteGuard guard(latch_);
  if (sync_points_ != nullptr) s = sync_points_->Check("token.page.write");
  if (s.ok()) s = WriteRecord(id, name, created_ts);
  PublishLocked(id, name, created_ts);
  if (!s.ok()) return s;
  return id;
}

Status TokenStore::Restore(uint32_t id, const std::string& name,
                           Timestamp created_ts) {
  WriteGuard guard(latch_);
  auto it = by_name_.find(name);
  if (it != by_name_.end() && it->second == id) return Status::OK();
  if (it != by_name_.end() ||
      (id < by_id_.size() && by_id_[id].id != kInvalidToken)) {
    return Status::Corruption("logged token " + std::to_string(id) + " \"" +
                              name + "\" clashes with an existing token");
  }
  NEOSI_RETURN_IF_ERROR(store_.EnsureAllocated(id));
  NEOSI_RETURN_IF_ERROR(WriteRecord(id, name, created_ts));
  PublishLocked(id, name, created_ts);
  return Status::OK();
}

Status TokenStore::WriteRecord(uint32_t id, const std::string& name,
                               Timestamp created_ts) {
  TokenRecord rec;
  rec.in_use = true;
  rec.created_ts = created_ts;
  rec.name = name;
  char buf[TokenRecord::kSize];
  rec.EncodeTo(buf);
  return store_.Write(id, Slice(buf, TokenRecord::kSize));
}

void TokenStore::PublishLocked(uint32_t id, const std::string& name,
                               Timestamp created_ts) {
  if (by_id_.size() <= id) by_id_.resize(id + 1);
  Token token;
  token.id = id;
  token.name = name;
  token.created_ts = created_ts;
  by_id_[id] = std::move(token);
  by_name_[name] = id;
}

Result<uint32_t> TokenStore::Lookup(const std::string& name,
                                    Timestamp snapshot_ts) const {
  ReadGuard guard(latch_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("token not found: " + name);
  }
  const Token& token = by_id_[it->second];
  if (token.created_ts > snapshot_ts) {
    // Created after the reader's snapshot: the reader discards it (§4).
    return Status::NotFound("token not visible in snapshot: " + name);
  }
  return token.id;
}

Result<std::string> TokenStore::NameOf(uint32_t id) const {
  ReadGuard guard(latch_);
  if (id >= by_id_.size() || by_id_[id].id == kInvalidToken) {
    return Status::NotFound("token id not found: " + std::to_string(id));
  }
  return by_id_[id].name;
}

Result<Timestamp> TokenStore::CreatedTs(uint32_t id) const {
  ReadGuard guard(latch_);
  if (id >= by_id_.size() || by_id_[id].id == kInvalidToken) {
    return Status::NotFound("token id not found: " + std::to_string(id));
  }
  return by_id_[id].created_ts;
}

bool TokenStore::VisibleAt(uint32_t id, Timestamp snapshot_ts) const {
  ReadGuard guard(latch_);
  if (id >= by_id_.size() || by_id_[id].id == kInvalidToken) return false;
  return by_id_[id].created_ts <= snapshot_ts;
}

std::vector<Token> TokenStore::VisibleTokens(Timestamp snapshot_ts) const {
  ReadGuard guard(latch_);
  std::vector<Token> out;
  for (const Token& token : by_id_) {
    if (token.id != kInvalidToken && token.created_ts <= snapshot_ts) {
      out.push_back(token);
    }
  }
  return out;
}

size_t TokenStore::size() const {
  ReadGuard guard(latch_);
  size_t n = 0;
  for (const Token& token : by_id_) {
    if (token.id != kInvalidToken) ++n;
  }
  return n;
}

}  // namespace neosi
