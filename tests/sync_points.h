// Test-side actions for the engine's named sync points (see
// src/common/sync_points.h): fail a point, park it until released, order it
// after another point, count arrivals and wait for them.
//
//   ArmedPoints points(db.get());
//   points.Park("commit.pre_apply");
//   std::thread committer([&] { txn->Commit(); });
//   ASSERT_TRUE(points.WaitFor("commit.pre_apply"));  // Provably parked.
//   ...act inside the window...
//   points.Release("commit.pre_apply");
//
// One ArmedPoints drives one registry; constructing a second on the same
// registry replaces the first. Destruction releases every parked thread and
// stops failing, but never touches the registry again (a test may destroy
// the database first): the engine's threads keep calling into shared state
// that outlives this object.

#ifndef NEOSI_TESTS_SYNC_POINTS_H_
#define NEOSI_TESTS_SYNC_POINTS_H_

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync_points.h"
#include "graph/graph_database.h"

namespace neosi {

class ArmedPoints {
 public:
  explicit ArmedPoints(SyncPoints* registry)
      : state_(std::make_shared<State>()) {
    registry->Install([state = state_](const char* point) {
      return state->Arrive(point);
    });
  }
  explicit ArmedPoints(GraphDatabase* db)
      : ArmedPoints(&db->engine().store.sync_points()) {}

  ~ArmedPoints() {
    std::lock_guard<std::mutex> guard(state_->mu);
    state_->detached = true;
    state_->cv.notify_all();
  }

  ArmedPoints(const ArmedPoints&) = delete;
  ArmedPoints& operator=(const ArmedPoints&) = delete;

  /// Counts arrivals at `point` without acting on them.
  void Count(const std::string& point) { Arm(point); }

  /// Fails the `nth` arrival at `point` with IOError (nth = 0: every
  /// arrival). A schedule-only point cannot fail.
  void Fail(const std::string& point, uint64_t nth = 0) {
    Point* p = Arm(point);
    if (p == nullptr) return;
    if (Find(point)->kind == SyncPointKind::kSchedule) {
      ADD_FAILURE() << "sync point " << point << " cannot fail";
      return;
    }
    std::lock_guard<std::mutex> guard(state_->mu);
    p->fail = true;
    p->fail_on = nth;
  }

  /// Holds every thread arriving at `point` until Release(point).
  void Park(const std::string& point) {
    Point* p = Arm(point);
    if (p == nullptr) return;
    std::lock_guard<std::mutex> guard(state_->mu);
    p->parked = true;
  }

  void Release(const std::string& point) {
    Point* p = Arm(point);
    if (p == nullptr) return;
    std::lock_guard<std::mutex> guard(state_->mu);
    p->parked = false;
    state_->cv.notify_all();
  }

  /// Arrivals at `successor` wait until `predecessor` has been reached at
  /// least once (RocksDB's SyncPoint dependency).
  void Order(const std::string& predecessor, const std::string& successor) {
    Point* before = Arm(predecessor);
    Point* after = Arm(successor);
    if (before == nullptr || after == nullptr) return;
    std::lock_guard<std::mutex> guard(state_->mu);
    after->after.push_back(before);
  }

  uint64_t Arrivals(const std::string& point) const {
    std::lock_guard<std::mutex> guard(state_->mu);
    auto it = state_->points.find(point);
    return it == state_->points.end() ? 0 : it->second.arrivals;
  }

  /// The catalogue entry for `name`; null if the engine never checks it.
  static const SyncPointInfo* Find(std::string_view name) {
    for (const SyncPointInfo& info : kSyncPoints) {
      if (name == info.name) return &info;
    }
    return nullptr;
  }

  /// True once an armed failure at `point` has been returned.
  bool Fired(const std::string& point) const {
    std::lock_guard<std::mutex> guard(state_->mu);
    auto it = state_->points.find(point);
    return it != state_->points.end() && it->second.fired;
  }

  /// Blocks until `point` has at least `n` arrivals; false at the deadline.
  bool WaitFor(const std::string& point, uint64_t n = 1,
               std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    Point* p = Arm(point);
    if (p == nullptr) return false;
    std::unique_lock<std::mutex> lock(state_->mu);
    return state_->cv.wait_for(lock, timeout,
                               [&] { return p->arrivals >= n; });
  }

 private:
  struct Point {
    uint64_t arrivals = 0;
    bool fail = false;
    uint64_t fail_on = 0;
    bool fired = false;
    bool parked = false;
    std::vector<const Point*> after;
  };

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    // std::map: Point addresses stay stable as points are armed.
    std::map<std::string, Point, std::less<>> points;
    bool detached = false;

    Status Arrive(const char* at) {
      std::unique_lock<std::mutex> lock(mu);
      auto it = points.find(std::string_view(at));
      if (it == points.end() || detached) return Status::OK();
      Point& p = it->second;
      const uint64_t arrival = ++p.arrivals;
      cv.notify_all();
      cv.wait(lock, [&] {
        if (detached) return true;
        if (p.parked) return false;
        for (const Point* before : p.after) {
          if (before->arrivals == 0) return false;
        }
        return true;
      });
      if (detached || !p.fail) return Status::OK();
      if (p.fail_on != 0 && arrival != p.fail_on) return Status::OK();
      p.fired = true;
      return Status::IOError("injected failure at " + std::string(at));
    }
  };

  /// The point's state, armed from now on; null (and a test failure) for a
  /// name the engine never checks.
  Point* Arm(const std::string& point) {
    if (Find(point) == nullptr) {
      ADD_FAILURE() << "unknown sync point \"" << point << "\"";
      return nullptr;
    }
    std::lock_guard<std::mutex> guard(state_->mu);
    return &state_->points[point];
  }

  const std::shared_ptr<State> state_;
};

}  // namespace neosi

#endif  // NEOSI_TESTS_SYNC_POINTS_H_
