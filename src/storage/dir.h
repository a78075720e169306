// The database directory: every file a database owns opens through one Dir.
//
// A database is a flat directory of named byte files: the 8 store files,
// the rotating WAL segment chain (plus the next segment being built before
// it is renamed in), and a replica's shipping-cursor file. Dir is the
// minimal surface all of them need: list, open-or-create, open-existing,
// remove, atomic rename, and a directory-metadata sync for crash-ordering
// the create/rename/unlink transitions.
//
// Two implementations mirror PagedFile's: a POSIX directory for the
// durability and recovery paths, and an in-memory directory whose files
// SURVIVE every handle that opened them. The backend is chosen once, where
// GraphDatabase::Open builds the Dir; tests hold a directory across "kill
// the process, reopen" cycles by passing the same Dir to every open.

#ifndef NEOSI_STORAGE_DIR_H_
#define NEOSI_STORAGE_DIR_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/paged_file.h"

namespace neosi {

/// Flat directory of named byte files. Thread-safety: List/Open/Exists may
/// race each other; Remove/Rename of one name are serialized by the caller
/// (the Wal's truncation mutex, the replica applier's single thread).
class Dir {
 public:
  virtual ~Dir() = default;

  /// Names of every file in the directory (no ordering guarantee).
  virtual Status List(std::vector<std::string>* names) const = 0;

  /// Opens `name`, creating it empty if absent.
  virtual Status Open(const std::string& name,
                      std::shared_ptr<PagedFile>* out) = 0;

  /// Opens `name` only if it already exists; NotFound otherwise. The
  /// replica tailer reads a primary's directory exclusively through this so
  /// a lost race against segment retirement can never create a stray file
  /// in the primary's directory.
  virtual Status OpenExisting(const std::string& name,
                              std::shared_ptr<PagedFile>* out) = 0;

  virtual bool Exists(const std::string& name) const = 0;

  /// Unlinks `name`; NotFound if absent. Open handles keep working until
  /// dropped (POSIX semantics; the in-memory backend shares its buffers).
  virtual Status Remove(const std::string& name) = 0;

  /// Atomically renames `from` to `to`, replacing any existing `to`;
  /// NotFound if `from` is absent.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Persists directory metadata (creates/renames/unlinks) to stable
  /// storage. No-op for the in-memory backend.
  virtual Status SyncDir() = 0;
};

/// POSIX directory; files are PosixFiles inside `path`.
class PosixDir final : public Dir {
 public:
  /// A handle on an existing directory that takes no lock: a replica
  /// tailer's view of a primary's directory.
  explicit PosixDir(std::string path) : path_(std::move(path)) {}
  ~PosixDir() override;

  PosixDir(const PosixDir&) = delete;
  PosixDir& operator=(const PosixDir&) = delete;

  /// A database's own directory: creates `path` if missing, then takes an
  /// exclusive flock on its `LOCK` file before any other file is touched.
  /// A second opener fails fast with Busy, before its recovery replay could
  /// truncate the holder's live WAL. flock, not a pidfile: the lock lives
  /// with the open file description and dies with the process, so a
  /// crash-left LOCK file is inert. Held until the handle is destroyed.
  static Result<std::shared_ptr<PosixDir>> OpenLocked(const std::string& path);

  Status List(std::vector<std::string>* names) const override;
  Status Open(const std::string& name,
              std::shared_ptr<PagedFile>* out) override;
  Status OpenExisting(const std::string& name,
                      std::shared_ptr<PagedFile>* out) override;
  bool Exists(const std::string& name) const override;
  Status Remove(const std::string& name) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status SyncDir() override;

 private:
  std::string Path(const std::string& name) const {
    return path_ + "/" + name;
  }

  std::string path_;
  /// flock'd LOCK-file descriptor; -1 on an unlocked handle.
  int lock_ = -1;
};

/// Heap directory. The buffers live as long as the directory object, so a
/// database reopened over the same InMemoryDir sees everything a previous
/// one wrote, the crash-simulation hook the recovery tests are built on.
class InMemoryDir final : public Dir {
 public:
  Status List(std::vector<std::string>* names) const override;
  Status Open(const std::string& name,
              std::shared_ptr<PagedFile>* out) override;
  Status OpenExisting(const std::string& name,
                      std::shared_ptr<PagedFile>* out) override;
  bool Exists(const std::string& name) const override;
  Status Remove(const std::string& name) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status SyncDir() override { return Status::OK(); }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<PagedFile>> files_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_DIR_H_
