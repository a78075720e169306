#include "storage/wal_dir.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace neosi {

namespace {

/// Forwards every PagedFile call to a shared buffer, so that "reopening" a
/// file through the in-memory directory observes all prior writes.
class SharedFileRef final : public PagedFile {
 public:
  explicit SharedFileRef(std::shared_ptr<InMemoryFile> target)
      : target_(std::move(target)) {}

  Status ReadAt(uint64_t offset, size_t n, char* buf) const override {
    return target_->ReadAt(offset, n, buf);
  }
  Status WriteAt(uint64_t offset, const char* data, size_t n) override {
    return target_->WriteAt(offset, data, n);
  }
  Status Truncate(uint64_t size) override { return target_->Truncate(size); }
  uint64_t Size() const override { return target_->Size(); }
  Status Sync() override { return target_->Sync(); }

 private:
  std::shared_ptr<InMemoryFile> target_;
};

}  // namespace

// ------------------------------ PosixWalDir --------------------------------

Status PosixWalDir::List(std::vector<std::string>* names) const {
  names->clear();
  DIR* dir = ::opendir(path_.c_str());
  if (dir == nullptr) {
    return Status::IOError("opendir " + path_ + ": " + strerror(errno));
  }
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names->push_back(name);
  }
  ::closedir(dir);
  return Status::OK();
}

Status PosixWalDir::Open(const std::string& name,
                         std::unique_ptr<PagedFile>* out) {
  return PosixFile::Open(path_ + "/" + name, out);
}

Status PosixWalDir::OpenExisting(const std::string& name,
                                 std::unique_ptr<PagedFile>* out) {
  return PosixFile::OpenExisting(path_ + "/" + name, out);
}

bool PosixWalDir::Exists(const std::string& name) const {
  return ::access((path_ + "/" + name).c_str(), F_OK) == 0;
}

Status PosixWalDir::Remove(const std::string& name) {
  if (::unlink((path_ + "/" + name).c_str()) != 0) {
    return Status::IOError("unlink " + path_ + "/" + name + ": " +
                           strerror(errno));
  }
  return Status::OK();
}

Status PosixWalDir::Rename(const std::string& from, const std::string& to) {
  if (::rename((path_ + "/" + from).c_str(), (path_ + "/" + to).c_str()) !=
      0) {
    return Status::IOError("rename " + path_ + "/" + from + " -> " + to +
                           ": " + strerror(errno));
  }
  return Status::OK();
}

Status PosixWalDir::SyncDir() {
  const int fd = ::open(path_.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir " + path_ + ": " + strerror(errno));
  }
  Status s;
  if (::fsync(fd) != 0) {
    s = Status::IOError("fsync dir " + path_ + ": " + strerror(errno));
  }
  ::close(fd);
  return s;
}

// ----------------------------- InMemoryWalDir ------------------------------

Status InMemoryWalDir::List(std::vector<std::string>* names) const {
  std::lock_guard<std::mutex> guard(mu_);
  names->clear();
  for (const auto& [name, file] : files_) names->push_back(name);
  return Status::OK();
}

Status InMemoryWalDir::Open(const std::string& name,
                            std::unique_ptr<PagedFile>* out) {
  std::lock_guard<std::mutex> guard(mu_);
  auto& slot = files_[name];
  if (slot == nullptr) slot = std::make_shared<InMemoryFile>();
  out->reset(new SharedFileRef(slot));
  return Status::OK();
}

Status InMemoryWalDir::OpenExisting(const std::string& name,
                                    std::unique_ptr<PagedFile>* out) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("in-memory wal dir: " + name);
  }
  out->reset(new SharedFileRef(it->second));
  return Status::OK();
}

bool InMemoryWalDir::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mu_);
  return files_.count(name) != 0;
}

Status InMemoryWalDir::Remove(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  if (files_.erase(name) == 0) {
    return Status::NotFound("in-memory wal dir: " + name);
  }
  return Status::OK();
}

Status InMemoryWalDir::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return Status::NotFound("in-memory wal dir: " + from);
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

}  // namespace neosi
