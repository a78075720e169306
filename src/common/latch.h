// Lightweight synchronization primitives for internal engine state.
//
// These guard in-memory structures (cache buckets, version chains, index
// shards) and are distinct from the transactional LockManager in src/txn,
// which implements the user-visible locking protocol.

#ifndef NEOSI_COMMON_LATCH_H_
#define NEOSI_COMMON_LATCH_H_

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <thread>

namespace neosi {

/// Tells the core this thread is busy-waiting: `pause` on x86, `yield` on
/// aarch64, nothing elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Test-and-set spin latch for very short critical sections. A waiter
/// spins on a plain load with a CPU pause for a bounded count, then yields
/// its timeslice on every further check, so a preempted holder gets a core
/// back instead of every waiter burning a whole timeslice.
class SpinLatch {
 public:
  SpinLatch() = default;
  SpinLatch(const SpinLatch&) = delete;
  SpinLatch& operator=(const SpinLatch&) = delete;

  void lock() {
    int spins = 0;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
        if (spins < kSpinsBeforeYield) {
          ++spins;
          CpuRelax();
        } else {
          std::this_thread::yield();
        }
      }
    }
  }
  bool try_lock() { return !flag_.test_and_set(std::memory_order_acquire); }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  /// Pauses before a waiter starts yielding.
  static constexpr int kSpinsBeforeYield = 64;

  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// Reader-writer latch; thin alias so call sites read as intent.
using SharedLatch = std::shared_mutex;
using ReadGuard = std::shared_lock<std::shared_mutex>;
using WriteGuard = std::unique_lock<std::shared_mutex>;

}  // namespace neosi

#endif  // NEOSI_COMMON_LATCH_H_
