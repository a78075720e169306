// Reusable crash-point fault-injection harness for the WAL / checkpoint /
// recovery stack.
//
// The model (in the black-box spirit of Huang et al., "Efficient Black-box
// Checking of Snapshot Isolation in Databases"): a SHADOW MODEL tracks, for
// every key, the last value whose commit was ACKED to the client. A crash
// point is armed at one of the named sync points of the WAL or checkpoint
// path (AllCrashPoints; ARCHITECTURE.md, "Sync points", has the whole
// catalogue); the workload runs until the injection fires
// (the in-flight operation fails exactly as if the process died there — no
// further writes happen on that path), the database object is destroyed
// WITHOUT any clean-shutdown work, and a fresh open recovers from the files
// alone. After every recovery the harness asserts:
//
//   - every acked commit's value is exactly what the shadow model says
//     (durability: acked == recovered), and
//   - the single in-flight transaction at the crash is all-or-nothing: its
//     key reads either the pre-crash shadow value or the new value (then
//     folded into the shadow — it WAS durably logged, so it must keep
//     surviving subsequent crashes).
//
// Tiny WAL segments force rotation to happen constantly under the workload,
// so every crash point is exercised against a chain that is mid-rotation,
// and periodic checkpoints make truncation/marker crashes reachable.

#ifndef NEOSI_TESTS_FAULT_INJECTION_H_
#define NEOSI_TESTS_FAULT_INJECTION_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_database.h"
#include "sync_points.h"

namespace neosi {
namespace fault {

/// The catalogued sync points of one kind, in catalogue order.
inline std::vector<std::string> PointsOfKind(SyncPointKind kind) {
  std::vector<std::string> out;
  for (const SyncPointInfo& info : kSyncPoints) {
    if (info.kind == kind) out.emplace_back(info.name);
  }
  return out;
}

/// Every named crash point the WAL / checkpoint path exposes.
inline const std::vector<std::string>& AllCrashPoints() {
  static const std::vector<std::string> points =
      PointsOfKind(SyncPointKind::kCrash);
  return points;
}

/// Every named EIO point on the commit-I/O path: the fsync/dir-sync sites
/// where the kernel can report a write-back error. Unlike the crash points
/// above, the process SURVIVES an injected EIO — the sticky-poison contract
/// (see Wal) is what keeps survival safe: the failed sync may have lost
/// dirty pages (the harness's Wal simulates exactly that), so every later
/// commit must fail until a reopen re-reads what is really on disk.
inline const std::vector<std::string>& AllEioPoints() {
  static const std::vector<std::string> points =
      PointsOfKind(SyncPointKind::kEio);
  return points;
}

/// Arms one named crash point on a database: the Nth time execution reaches
/// it, the operation fails with IOError as if the process died there.
/// Install immediately after open; the database must be discarded after the
/// injection fires.
class CrashPoint : public ArmedPoints {
 public:
  CrashPoint(GraphDatabase* db, std::string point, uint64_t fire_on_hit = 1)
      : ArmedPoints(db), point_(std::move(point)) {
    Fail(point_, fire_on_hit);
  }

  bool fired() const { return Fired(point_); }
  uint64_t hits() const { return Arrivals(point_); }

 private:
  const std::string point_;
};

/// Kill-and-recover loop over an on-disk database with a shadow model.
class CrashLoopHarness {
 public:
  struct Options {
    int keys = 4;
    int rounds = 6;
    int txns_per_round = 40;
    /// Manual checkpoint cadence inside a round (reaches the marker /
    /// truncation crash points deterministically).
    int checkpoint_every = 7;
    /// Tiny segments: the workload rotates the chain many times per round.
    uint64_t wal_segment_size = 2048;
    bool sync_commits = true;
    /// Isolation every harness transaction runs under (the EIO matrix runs
    /// each point under both SI and Serializable — the SSI commit path
    /// takes extra locks around the WAL append and must observe the same
    /// fail-before-ack contract).
    IsolationLevel isolation = IsolationLevel::kSnapshotIsolation;
    /// Commit I/O mode (both combinations of flusher-owned fsync and
    /// off-path pre-allocation are valid; EIO semantics must be identical).
    bool wal_async_flush = true;
    bool wal_preallocate = true;
  };

  explicit CrashLoopHarness(std::filesystem::path dir)
      : CrashLoopHarness(std::move(dir), Options()) {}

  CrashLoopHarness(std::filesystem::path dir, Options options)
      : dir_(std::move(dir)), options_(options) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  /// Shadow model only: the caller opens every database over its own Dir
  /// (GraphDatabase::Open(DbOptions(), dir)), so no directory is made.
  explicit CrashLoopHarness(Options options) : options_(options) {}

  ~CrashLoopHarness() {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  DatabaseOptions DbOptions() const {
    DatabaseOptions options;
    options.in_memory = false;
    options.path = dir_.string();
    options.background_gc_interval_ms = 0;  // Deterministic: no daemons.
    options.checkpoint_interval_ms = 0;
    options.sync_commits = options_.sync_commits;
    options.wal_segment_size = options_.wal_segment_size;
    options.default_isolation = options_.isolation;
    options.wal_async_flush = options_.wal_async_flush;
    options.wal_preallocate = options_.wal_preallocate;
    return options;
  }

  /// Runs `rounds` kill-and-recover rounds with `point` armed to fire mid-
  /// round (the hit index varies per round so successive crashes land at
  /// different states of the chain). Each round re-opens the store, checks
  /// recovered state against the shadow model, then commits until the
  /// injection kills it again.
  void Run(const std::string& point) {
    for (int round = 0; round < options_.rounds; ++round) {
      auto opened = GraphDatabase::Open(DbOptions());
      ASSERT_TRUE(opened.ok()) << "round " << round << ": " << opened.status();
      auto db = std::move(*opened);
      SeedIfNeeded(db.get());
      VerifyRecovered(db.get(), round);
      if (::testing::Test::HasFatalFailure()) return;

      // Vary where in the round the crash lands.
      CrashPoint crash(db.get(), point, /*fire_on_hit=*/1 + (round % 3));
      for (int i = 0; i < options_.txns_per_round; ++i) {
        const NodeId key = keys_[static_cast<size_t>(i) % keys_.size()];
        const int64_t value = static_cast<int64_t>(next_value_++);
        auto txn = db->Begin();
        ASSERT_TRUE(
            txn->SetNodeProperty(key, "v", PropertyValue(value)).ok());
        Status s = txn->Commit();
        if (s.ok()) {
          shadow_[key] = value;
        } else {
          // The injected crash killed this commit in flight: its record may
          // or may not have reached the log — recovery decides, and the
          // outcome must be all-or-nothing.
          pending_ = {key, value};
          break;
        }
        if (options_.checkpoint_every > 0 &&
            (i + 1) % options_.checkpoint_every == 0) {
          // A checkpoint that dies at an injected point changes no logical
          // state; the kill-and-reopen below exercises recovery from it.
          if (!db->Checkpoint().ok()) break;
        }
      }
      EXPECT_TRUE(crash.fired()) << "round " << round << ": " << point
                                 << " reached only " << crash.hits()
                                 << " times, never the armed hit";
      // Kill: destroy the database with no clean-shutdown work (the
      // destructor only joins daemons, which are disabled here).
    }
    // Final recovery after the last kill.
    auto opened = GraphDatabase::Open(DbOptions());
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto db = std::move(*opened);
    SeedIfNeeded(db.get());
    VerifyRecovered(db.get(), options_.rounds);
  }

  /// EIO mode: arms `point` to fail once with EIO, but the process keeps
  /// running (the fsyncgate scenario — a kernel write-back error, not a
  /// crash). Each round asserts the sticky-failure contract end to end:
  ///
  ///   1. the first operation through the armed point fails BEFORE acking
  ///      (a commit that returns an error must be all-or-nothing, exactly
  ///      like a crash, because the Wal drops the unsynced suffix);
  ///   2. the WAL is poisoned from that moment on, and every subsequent
  ///      commit fails with a non-retryable IOError — a later fsync
  ///      returning success must never re-ack data the kernel dropped;
  ///   3. kill + reopen recovers exactly the acked prefix (shadow model).
  void RunEio(const std::string& point) {
    for (int round = 0; round < options_.rounds; ++round) {
      auto opened = GraphDatabase::Open(DbOptions());
      ASSERT_TRUE(opened.ok()) << "round " << round << ": " << opened.status();
      auto db = std::move(*opened);
      SeedIfNeeded(db.get());
      VerifyRecovered(db.get(), round);
      if (::testing::Test::HasFatalFailure()) return;

      CrashPoint eio(db.get(), point, /*fire_on_hit=*/1 + (round % 3));
      bool failed = false;
      for (int i = 0; i < options_.txns_per_round && !failed; ++i) {
        const NodeId key = keys_[static_cast<size_t>(i) % keys_.size()];
        const int64_t value = static_cast<int64_t>(next_value_++);
        auto txn = db->Begin();
        ASSERT_TRUE(
            txn->SetNodeProperty(key, "v", PropertyValue(value)).ok());
        Status s = txn->Commit();
        if (s.ok()) {
          shadow_[key] = value;
        } else {
          // Fail-before-ack: recovery decides all-or-nothing for this one
          // commit, like any crash.
          pending_ = {key, value};
          failed = true;
          break;
        }
        if (options_.checkpoint_every > 0 &&
            (i + 1) % options_.checkpoint_every == 0) {
          // Truncation / marker syncs can be the first to hit the point
          // (e.g. wal.dirsync.unlink only exists on this path). A failed
          // checkpoint acks nothing, so there is no pending entry — but it
          // must poison all the same.
          if (!db->Checkpoint().ok()) failed = true;
        }
      }

      if (failed) {
        // Sticky: the store object is now unusable for writes. Every
        // retry must fail non-retryably until the store is reopened.
        EXPECT_TRUE(db->engine().store.wal().poisoned())
            << "round " << round << ": " << point
            << " failed an operation without poisoning the WAL";
        for (int attempt = 0; attempt < 4; ++attempt) {
          const NodeId key = keys_[static_cast<size_t>(attempt) % keys_.size()];
          const int64_t value = static_cast<int64_t>(next_value_++);
          auto txn = db->Begin();
          ASSERT_TRUE(
              txn->SetNodeProperty(key, "v", PropertyValue(value)).ok());
          Status s = txn->Commit();
          EXPECT_TRUE(s.IsIOError())
              << "round " << round << ", retry " << attempt << ": commit "
              << (s.ok() ? "was ACKED" : "failed retryably") << " on a "
              << "poisoned WAL (" << s.ToString() << ")";
          ASSERT_FALSE(s.ok());  // An acked-on-poison commit would also
                                 // corrupt the shadow model below.
        }
      }
      // Guard against a round that silently tested nothing.
      EXPECT_TRUE(eio.fired()) << "round " << round << ": " << point
                               << " reached only " << eio.hits()
                               << " times, never the armed hit";
      // Kill: destroy without clean-shutdown work; reopen at the top of
      // the next round verifies no acked commit was lost.
    }
    auto opened = GraphDatabase::Open(DbOptions());
    ASSERT_TRUE(opened.ok()) << opened.status();
    auto db = std::move(*opened);
    SeedIfNeeded(db.get());
    VerifyRecovered(db.get(), options_.rounds);
  }

  /// Sum of the on-disk bytes of every WAL file (the chain plus a built
  /// next segment) — the physical footprint segment rotation is supposed
  /// to bound.
  uint64_t WalDiskBytes() const {
    uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("wal.", 0) == 0) {
        const auto size = std::filesystem::file_size(entry, ec);
        // A segment unlinked between readdir and stat (daemon truncation
        // races the sampler) must not throw or poison the gauge.
        if (ec) {
          ec.clear();
          continue;
        }
        total += static_cast<uint64_t>(size);
      }
    }
    return total;
  }

  const std::vector<NodeId>& keys() const { return keys_; }
  const std::map<NodeId, int64_t>& shadow() const { return shadow_; }

  /// Records an externally acked commit in the shadow model (for tests that
  /// drive their own workload but reuse the harness's verification).
  void RecordAck(NodeId key, int64_t value) { shadow_[key] = value; }

  /// Seeds the key set on the first open (committed through the normal
  /// path, so it participates in the shadow model like any other commit).
  void SeedIfNeeded(GraphDatabase* db) {
    if (!keys_.empty()) return;
    auto txn = db->Begin();
    for (int i = 0; i < options_.keys; ++i) {
      auto id = txn->CreateNode({}, {{"v", PropertyValue(int64_t{0})}});
      ASSERT_TRUE(id.ok());
      keys_.push_back(*id);
    }
    ASSERT_TRUE(txn->Commit().ok());
    for (NodeId key : keys_) shadow_[key] = 0;
  }

  /// Asserts the recovered state equals the shadow model, resolving the
  /// in-flight transaction of the previous crash all-or-nothing.
  void VerifyRecovered(GraphDatabase* db, int round) {
    auto reader = db->Begin();
    if (pending_.has_value()) {
      const auto [key, value] = *pending_;
      auto got = reader->GetNodeProperty(key, "v");
      ASSERT_TRUE(got.ok()) << "round " << round;
      const int64_t old_value = shadow_.at(key);
      ASSERT_TRUE(got->AsInt() == old_value || got->AsInt() == value)
          << "round " << round << ": in-flight txn on key " << key
          << " recovered to " << got->AsInt() << ", expected all ("
          << value << ") or nothing (" << old_value << ")";
      // Whatever recovery decided is now durable history.
      shadow_[key] = got->AsInt();
      pending_.reset();
    }
    for (const auto& [key, value] : shadow_) {
      auto got = reader->GetNodeProperty(key, "v");
      ASSERT_TRUE(got.ok()) << "round " << round << ", key " << key;
      ASSERT_EQ(got->AsInt(), value)
          << "round " << round << ": acked commit lost on key " << key;
    }
  }

 private:
  std::filesystem::path dir_;
  Options options_;
  std::vector<NodeId> keys_;
  /// key -> last ACKED value (what recovery must reproduce).
  std::map<NodeId, int64_t> shadow_;
  /// The one in-flight transaction at the injected crash.
  std::optional<std::pair<NodeId, int64_t>> pending_;
  uint64_t next_value_ = 1;
};

}  // namespace fault
}  // namespace neosi

#endif  // NEOSI_TESTS_FAULT_INJECTION_H_
