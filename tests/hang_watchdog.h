// Hang detection for lifecycle tests. A hung join cannot be unwound by a
// failed assertion — the stuck threads still use the test's objects — so
// a body that overruns its limit ends the process with a non-zero exit and
// a message naming the test, instead of waiting out the ctest timeout.

#ifndef NEOSI_TESTS_HANG_WATCHDOG_H_
#define NEOSI_TESTS_HANG_WATCHDOG_H_

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>

namespace neosi {

/// Runs `body` on the calling thread; exits the process with status 1 if
/// it has not returned within `limit`.
inline void RunWithHangWatchdog(std::chrono::seconds limit,
                                const std::function<void()>& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, limit, [&] { return done; })) {
      const ::testing::TestInfo* test =
          ::testing::UnitTest::GetInstance()->current_test_info();
      std::fprintf(stderr, "%s.%s hung: no return within %lld s\n",
                   test->test_suite_name(), test->name(),
                   static_cast<long long>(limit.count()));
      std::_Exit(1);
    }
  });
  body();
  {
    std::lock_guard<std::mutex> guard(mu);
    done = true;
  }
  cv.notify_all();
  watchdog.join();
}

}  // namespace neosi

#endif  // NEOSI_TESTS_HANG_WATCHDOG_H_
