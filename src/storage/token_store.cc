#include "storage/token_store.h"

#include "storage/records.h"

namespace neosi {

TokenStore::TokenStore(std::unique_ptr<PagedFile> file, std::string name)
    : store_(std::move(file), TokenRecord::kSize, TokenRecord::kMagic,
             std::move(name)) {}

Status TokenStore::Open() {
  NEOSI_RETURN_IF_ERROR(store_.Open());
  WriteGuard guard(latch_);
  by_name_.clear();
  by_id_.clear();
  return store_.ForEach([&](uint64_t id, const std::string& raw) {
    TokenRecord rec;
    NEOSI_RETURN_IF_ERROR(TokenRecord::DecodeFrom(Slice(raw), &rec));
    if (by_id_.size() <= id) by_id_.resize(id + 1);
    Token token;
    token.id = static_cast<uint32_t>(id);
    token.name = rec.name;
    token.created_ts = rec.created_ts;
    by_name_[rec.name] = token.id;
    by_id_[id] = std::move(token);
    return Status::OK();
  });
}

Result<uint32_t> TokenStore::GetOrCreate(const std::string& name,
                                         Timestamp created_ts) {
  if (name.empty()) {
    return Status::InvalidArgument("token name must be non-empty");
  }
  if (name.size() > TokenRecord::kMaxNameLen) {
    return Status::InvalidArgument("token name too long (max " +
                                   std::to_string(TokenRecord::kMaxNameLen) +
                                   " bytes): " + name);
  }
  {
    ReadGuard guard(latch_);
    auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
  }
  WriteGuard guard(latch_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;  // Raced creation.

  auto alloc = store_.Allocate();
  if (!alloc.ok()) return alloc.status();
  const auto id = static_cast<uint32_t>(*alloc);
  NEOSI_RETURN_IF_ERROR(PutLocked(id, name, created_ts));
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
  return PutLocked(id, name, created_ts);
}

Status TokenStore::PutLocked(uint32_t id, const std::string& name,
                             Timestamp created_ts) {
  TokenRecord rec;
  rec.in_use = true;
  rec.created_ts = created_ts;
  rec.name = name;
  char buf[TokenRecord::kSize];
  rec.EncodeTo(buf);
  NEOSI_RETURN_IF_ERROR(store_.Write(id, Slice(buf, TokenRecord::kSize)));

  if (by_id_.size() <= id) by_id_.resize(id + 1);
  Token token;
  token.id = id;
  token.name = name;
  token.created_ts = created_ts;
  by_id_[id] = token;
  by_name_[name] = id;
  return Status::OK();
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
