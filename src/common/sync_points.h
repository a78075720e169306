// Named sync points: the one seam through which tests fail, park or order
// the engine at a fixed site (ARCHITECTURE.md, "Sync points"). Each database
// owns one registry. Disarmed, Check(name) is one relaxed atomic load; armed,
// it runs the handler a test installed (tests/sync_points.h). A non-OK
// status means the operation dies there, like a crash or an fsync EIO.

#ifndef NEOSI_COMMON_SYNC_POINTS_H_
#define NEOSI_COMMON_SYNC_POINTS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "common/status.h"

namespace neosi {

enum class SyncPointKind {
  kCrash,     ///< In the kill-and-recover matrix.
  kEio,       ///< In the survive-an-fsync-error matrix.
  kFault,     ///< A fail point outside the matrices.
  kSchedule,  ///< No failure path: a test can only park, order or count it.
};

struct SyncPointInfo {
  const char* name;
  SyncPointKind kind;
};

/// Every point the engine checks; a name missing here cannot be armed.
inline constexpr SyncPointInfo kSyncPoints[] = {
    {"wal.append.mid_frame", SyncPointKind::kCrash},
    {"wal.segment.post_create", SyncPointKind::kCrash},
    {"wal.append.fail_after_roll", SyncPointKind::kCrash},
    {"wal.truncate.pre_unlink", SyncPointKind::kCrash},
    {"checkpoint.pre_marker", SyncPointKind::kCrash},
    {"checkpoint.post_marker", SyncPointKind::kCrash},
    {"wal.sync.fail", SyncPointKind::kEio},
    {"wal.sync.retiring", SyncPointKind::kEio},
    {"wal.dirsync.create", SyncPointKind::kEio},
    {"wal.dirsync.rename", SyncPointKind::kEio},
    {"wal.dirsync.unlink", SyncPointKind::kEio},
    {"token.page.write", SyncPointKind::kFault},
    {"replica.cursor.sync", SyncPointKind::kFault},
    {"commit.pre_apply", SyncPointKind::kFault},
    {"commit.apply.op", SyncPointKind::kFault},
    {"cache.rel.load", SyncPointKind::kFault},
    {"commit.pre_publish", SyncPointKind::kSchedule},
    {"lock.wait", SyncPointKind::kSchedule},
    {"admission.delay", SyncPointKind::kSchedule},
    {"txn.write.pre_install", SyncPointKind::kSchedule},
    {"cache.evict.pre_unpublish", SyncPointKind::kSchedule},
    {"cache.rel_list.pre_publish", SyncPointKind::kSchedule},
    {"store.chain.pre_drop", SyncPointKind::kSchedule},
    {"txn.begin.pre_publish", SyncPointKind::kSchedule},
    {"snapshot.expire.pre_mark", SyncPointKind::kSchedule},
};

/// One database's registry. Thread-safe.
class SyncPoints {
 public:
  /// Decides one arrival: OK to go on, non-OK to fail there. May block.
  using Handler = std::function<Status(const char* point)>;

  SyncPoints() = default;
  SyncPoints(const SyncPoints&) = delete;
  SyncPoints& operator=(const SyncPoints&) = delete;

  Status Check(const char* point) const {
    if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
    return CheckArmed(point);
  }

  /// Installs `handler` (null disarms) for every later arrival.
  void Install(Handler handler) {
    std::lock_guard<std::mutex> guard(mu_);
    handler_ = handler ? std::make_shared<const Handler>(std::move(handler))
                       : nullptr;
    armed_.store(handler_ != nullptr, std::memory_order_relaxed);
  }

 private:
  [[gnu::noinline]] Status CheckArmed(const char* point) const {
    std::unique_lock<std::mutex> lock(mu_);
    const std::shared_ptr<const Handler> handler = handler_;
    lock.unlock();  // A handler may park: never run it under the lock.
    return handler ? (*handler)(point) : Status::OK();
  }

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::shared_ptr<const Handler> handler_;
};

}  // namespace neosi

#endif  // NEOSI_COMMON_SYNC_POINTS_H_
