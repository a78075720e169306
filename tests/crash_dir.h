// Power-loss backend for durability tests: a Dir that remembers what was
// synced.
//
// A process crash keeps every byte the kernel accepted; a power loss keeps
// only what an fsync made durable. CrashDir models the second. Per file
// (inode) it keeps the current bytes and the bytes as of that file's last
// Sync(); for the directory it keeps the current name -> inode map and the
// map as of the last SyncDir(). PowerLoss() returns a fresh InMemoryDir
// holding only the synced state: every unsynced write and every unsynced
// create, rename and unlink is dropped. The result is deterministic, the
// harshest state a power loss can leave; seeded partial subsets and torn
// pages are not modelled.
//
// Usage: open a database over a CrashDir with GraphDatabase::Open(options,
// dir), run an acked workload, call PowerLoss(), drop the database, and
// reopen over the survivor (or over a new CrashDir seeded from it to lose
// power again).

#ifndef NEOSI_TESTS_CRASH_DIR_H_
#define NEOSI_TESTS_CRASH_DIR_H_

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/dir.h"

namespace neosi {

class CrashDir final : public Dir {
 public:
  CrashDir() = default;

  /// Starts from every file in `seed`, all of it synced (the survivor of an
  /// earlier PowerLoss()).
  explicit CrashDir(Dir& seed) {
    std::vector<std::string> names;
    EXPECT_TRUE(seed.List(&names).ok());
    for (const std::string& name : names) {
      std::shared_ptr<PagedFile> from;
      EXPECT_TRUE(seed.OpenExisting(name, &from).ok());
      std::string bytes(from->Size(), '\0');
      EXPECT_TRUE(from->ReadAt(0, bytes.size(), bytes.data()).ok());
      auto file = std::make_shared<File>();
      file->bytes_ = file->synced_ = bytes;
      names_[name] = file;
    }
    synced_names_ = names_;
  }

  /// The directory a power loss right now would leave behind.
  std::shared_ptr<InMemoryDir> PowerLoss() const {
    auto survivor = std::make_shared<InMemoryDir>();
    std::lock_guard<std::mutex> guard(mu_);
    for (const auto& [name, file] : synced_names_) {
      const std::string bytes = file->Synced();
      std::shared_ptr<PagedFile> out;
      EXPECT_TRUE(survivor->Open(name, &out).ok());
      EXPECT_TRUE(out->WriteAt(0, bytes.data(), bytes.size()).ok());
    }
    return survivor;
  }

  Status List(std::vector<std::string>* names) const override {
    std::lock_guard<std::mutex> guard(mu_);
    names->clear();
    for (const auto& [name, file] : names_) names->push_back(name);
    return Status::OK();
  }

  Status Open(const std::string& name,
              std::shared_ptr<PagedFile>* out) override {
    std::lock_guard<std::mutex> guard(mu_);
    auto& slot = names_[name];
    if (slot == nullptr) slot = std::make_shared<File>();
    *out = slot;
    return Status::OK();
  }

  Status OpenExisting(const std::string& name,
                      std::shared_ptr<PagedFile>* out) override {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = names_.find(name);
    if (it == names_.end()) return Status::NotFound("crash dir: " + name);
    *out = it->second;
    return Status::OK();
  }

  bool Exists(const std::string& name) const override {
    std::lock_guard<std::mutex> guard(mu_);
    return names_.count(name) != 0;
  }

  Status Remove(const std::string& name) override {
    std::lock_guard<std::mutex> guard(mu_);
    if (names_.erase(name) == 0) {
      return Status::NotFound("crash dir: " + name);
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = names_.find(from);
    if (it == names_.end()) return Status::NotFound("crash dir: " + from);
    std::shared_ptr<File> file = std::move(it->second);
    names_.erase(it);
    names_[to] = std::move(file);
    return Status::OK();
  }

  Status SyncDir() override {
    std::lock_guard<std::mutex> guard(mu_);
    synced_names_ = names_;
    return Status::OK();
  }

 private:
  /// One inode: its current bytes and the bytes its last Sync() made
  /// durable.
  class File final : public PagedFile {
   public:
    Status ReadAt(uint64_t offset, size_t n, char* buf) const override {
      std::lock_guard<std::mutex> guard(mu_);
      if (offset + n > bytes_.size()) {
        return Status::OutOfRange("read past end of crash-dir file");
      }
      memcpy(buf, bytes_.data() + offset, n);
      return Status::OK();
    }
    Status WriteAt(uint64_t offset, const char* data, size_t n) override {
      {
        std::lock_guard<std::mutex> guard(mu_);
        if (offset + n > bytes_.size()) bytes_.resize(offset + n, '\0');
        memcpy(bytes_.data() + offset, data, n);
      }
      MarkDirty();
      return Status::OK();
    }
    Status Truncate(uint64_t size) override {
      {
        std::lock_guard<std::mutex> guard(mu_);
        bytes_.resize(size, '\0');
      }
      MarkDirty();
      return Status::OK();
    }
    uint64_t Size() const override {
      std::lock_guard<std::mutex> guard(mu_);
      return bytes_.size();
    }
    Status Sync() override {
      std::lock_guard<std::mutex> guard(mu_);
      synced_ = bytes_;
      return Status::OK();
    }
    std::string Synced() const {
      std::lock_guard<std::mutex> guard(mu_);
      return synced_;
    }

   private:
    friend class CrashDir;
    mutable std::mutex mu_;
    std::string bytes_;
    std::string synced_;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<File>> names_;
  std::map<std::string, std::shared_ptr<File>> synced_names_;
};

}  // namespace neosi

#endif  // NEOSI_TESTS_CRASH_DIR_H_
