#include "storage/token_store.h"

#include "storage/records.h"

namespace neosi {

TokenStore::TokenStore(std::shared_ptr<PagedFile> file, std::string name,
                       SyncPoints* sync_points)
    : store_(std::move(file), TokenRecord::kSize, TokenRecord::kMagic,
             std::move(name)),
      sync_points_(sync_points) {}

Status TokenStore::Open() {
  NEOSI_RETURN_IF_ERROR(store_.Open());
  tokens_.clear();
  tables_.clear();
  table_.store(nullptr, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  return store_.ForEach([&](uint64_t id, const std::string& raw) {
    TokenRecord rec;
    NEOSI_RETURN_IF_ERROR(TokenRecord::DecodeFrom(Slice(raw), &rec));
    Publish(static_cast<uint32_t>(id), rec.name, rec.created_ts);
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
  // than log the name again under another. Lookups cannot see the id until
  // the publish, after the page write.
  if (sync_points_ != nullptr) s = sync_points_->Check("token.page.write");
  if (s.ok()) s = WriteRecord(id, name, created_ts);
  Publish(id, name, created_ts);
  if (!s.ok()) return s;
  return id;
}

Status TokenStore::Restore(uint32_t id, const std::string& name,
                           Timestamp created_ts) {
  std::lock_guard<std::mutex> create(create_mu_);
  const Token* named = FindByName(name);
  if (named != nullptr && named->id == id) return Status::OK();
  if (named != nullptr || FindById(id) != nullptr) {
    return Status::Corruption("logged token " + std::to_string(id) + " \"" +
                              name + "\" clashes with an existing token");
  }
  NEOSI_RETURN_IF_ERROR(store_.EnsureAllocated(id));
  NEOSI_RETURN_IF_ERROR(WriteRecord(id, name, created_ts));
  Publish(id, name, created_ts);
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

namespace {

size_t NameHash(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

}  // namespace

void TokenStore::Place(Table* table, const Token* token) {
  table->by_id[token->id].store(token, std::memory_order_release);
  const size_t mask = 2 * table->capacity - 1;
  size_t i = NameHash(token->name) & mask;
  while (table->by_name[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & mask;
  }
  table->by_name[i].store(token, std::memory_order_release);
}

void TokenStore::Publish(uint32_t id, const std::string& name,
                         Timestamp created_ts) {
  tokens_.push_back(std::make_unique<Token>(Token{id, name, created_ts}));
  const Token* token = tokens_.back().get();
  const size_t count = count_.load(std::memory_order_relaxed) + 1;
  Table* table = tables_.empty() ? nullptr : tables_.back().get();
  if (table == nullptr || id >= table->capacity || count > table->capacity) {
    // Grow: a fresh table holding every token, published in one store. The
    // old one stays for readers still probing it.
    size_t capacity = table == nullptr ? 16 : 2 * table->capacity;
    while (capacity <= id || capacity < count) capacity *= 2;
    tables_.push_back(std::make_unique<Table>(capacity));
    table = tables_.back().get();
    for (const auto& each : tokens_) Place(table, each.get());
    table_.store(table, std::memory_order_release);
  } else {
    Place(table, token);
  }
  count_.store(count, std::memory_order_release);
}

const Token* TokenStore::FindByName(std::string_view name) const {
  const Table* table = table_.load(std::memory_order_acquire);
  if (table == nullptr) return nullptr;
  const size_t mask = 2 * table->capacity - 1;
  for (size_t i = NameHash(name) & mask;; i = (i + 1) & mask) {
    const Token* token = table->by_name[i].load(std::memory_order_acquire);
    if (token == nullptr || token->name == name) return token;
  }
}

const Token* TokenStore::FindById(uint32_t id) const {
  const Table* table = table_.load(std::memory_order_acquire);
  if (table == nullptr || id >= table->capacity) return nullptr;
  return table->by_id[id].load(std::memory_order_acquire);
}

Result<uint32_t> TokenStore::Lookup(const std::string& name,
                                    Timestamp snapshot_ts) const {
  const Token* token = FindByName(name);
  if (token == nullptr) {
    return Status::NotFound("token not found: " + name);
  }
  if (token->created_ts > snapshot_ts) {
    // Created after the reader's snapshot: the reader discards it (§4).
    return Status::NotFound("token not visible in snapshot: " + name);
  }
  return token->id;
}

Result<std::string> TokenStore::NameOf(uint32_t id) const {
  const Token* token = FindById(id);
  if (token == nullptr) {
    return Status::NotFound("token id not found: " + std::to_string(id));
  }
  return token->name;
}

Result<Timestamp> TokenStore::CreatedTs(uint32_t id) const {
  const Token* token = FindById(id);
  if (token == nullptr) {
    return Status::NotFound("token id not found: " + std::to_string(id));
  }
  return token->created_ts;
}

bool TokenStore::VisibleAt(uint32_t id, Timestamp snapshot_ts) const {
  const Token* token = FindById(id);
  return token != nullptr && token->created_ts <= snapshot_ts;
}

std::vector<Token> TokenStore::VisibleTokens(Timestamp snapshot_ts) const {
  const Table* table = table_.load(std::memory_order_acquire);
  std::vector<Token> out;
  if (table == nullptr) return out;
  for (size_t id = 0; id < table->capacity; ++id) {
    const Token* token = table->by_id[id].load(std::memory_order_acquire);
    if (token != nullptr && token->created_ts <= snapshot_ts) {
      out.push_back(*token);
    }
  }
  return out;
}

}  // namespace neosi
