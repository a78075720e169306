#include "storage/dir.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace neosi {

namespace {

/// The failed call's status: NotFound for ENOENT, IOError otherwise.
Status Errno(const std::string& what) {
  const int err = errno;
  const std::string msg = what + ": " + strerror(err);
  return err == ENOENT ? Status::NotFound(msg) : Status::IOError(msg);
}

}  // namespace

// -------------------------------- PosixDir ---------------------------------

PosixDir::~PosixDir() {
  if (lock_ >= 0) ::close(lock_);  // Closing the fd drops the flock.
}

Result<std::shared_ptr<PosixDir>> PosixDir::OpenLocked(
    const std::string& path) {
  // Best-effort creation; opening LOCK reports a real error.
  ::mkdir(path.c_str(), 0755);
  auto dir = std::make_shared<PosixDir>(path);
  const std::string lock_path = dir->Path("LOCK");
  dir->lock_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (dir->lock_ < 0) return Errno("open " + lock_path);
  if (::flock(dir->lock_, LOCK_EX | LOCK_NB) != 0) {
    return Status::Busy("database directory " + path +
                        " is locked by another live opener (LOCK held)");
  }
  return dir;
}

Status PosixDir::List(std::vector<std::string>* names) const {
  names->clear();
  DIR* dir = ::opendir(path_.c_str());
  if (dir == nullptr) return Errno("opendir " + path_);
  // readdir returns NULL both at the end and on error; only errno tells
  // them apart, and a short listing could hide the newest WAL segments.
  for (;;) {
    errno = 0;
    const struct dirent* entry = ::readdir(dir);
    if (entry == nullptr) break;
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names->push_back(name);
  }
  const int err = errno;
  ::closedir(dir);
  if (err != 0) {
    return Status::IOError("readdir " + path_ + ": " + strerror(err));
  }
  return Status::OK();
}

Status PosixDir::Open(const std::string& name,
                      std::shared_ptr<PagedFile>* out) {
  return PosixFile::Open(Path(name), /*create=*/true, out);
}

Status PosixDir::OpenExisting(const std::string& name,
                              std::shared_ptr<PagedFile>* out) {
  return PosixFile::Open(Path(name), /*create=*/false, out);
}

bool PosixDir::Exists(const std::string& name) const {
  return ::access(Path(name).c_str(), F_OK) == 0;
}

Status PosixDir::Remove(const std::string& name) {
  if (::unlink(Path(name).c_str()) != 0) return Errno("unlink " + Path(name));
  return Status::OK();
}

Status PosixDir::Rename(const std::string& from, const std::string& to) {
  if (::rename(Path(from).c_str(), Path(to).c_str()) != 0) {
    return Errno("rename " + Path(from) + " -> " + to);
  }
  return Status::OK();
}

Status PosixDir::SyncDir() {
  const int fd = ::open(path_.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir " + path_);
  Status s;
  if (::fsync(fd) != 0) s = Errno("fsync dir " + path_);
  ::close(fd);
  return s;
}

// ------------------------------- InMemoryDir -------------------------------

Status InMemoryDir::List(std::vector<std::string>* names) const {
  std::lock_guard<std::mutex> guard(mu_);
  names->clear();
  for (const auto& [name, file] : files_) names->push_back(name);
  return Status::OK();
}

Status InMemoryDir::Open(const std::string& name,
                         std::shared_ptr<PagedFile>* out) {
  std::lock_guard<std::mutex> guard(mu_);
  auto& slot = files_[name];
  if (slot == nullptr) slot = std::make_shared<InMemoryFile>();
  *out = slot;
  return Status::OK();
}

Status InMemoryDir::OpenExisting(const std::string& name,
                                 std::shared_ptr<PagedFile>* out) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("in-memory dir: " + name);
  *out = it->second;
  return Status::OK();
}

bool InMemoryDir::Exists(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mu_);
  return files_.count(name) != 0;
}

Status InMemoryDir::Remove(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  if (files_.erase(name) == 0) {
    return Status::NotFound("in-memory dir: " + name);
  }
  return Status::OK();
}

Status InMemoryDir::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("in-memory dir: " + from);
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

}  // namespace neosi
