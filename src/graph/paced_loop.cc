#include "graph/paced_loop.h"

#include <chrono>
#include <utility>

namespace neosi {

PacedLoop::PacedLoop(uint64_t interval_ms, PassFn pass)
    : interval_ms_(interval_ms), pass_(std::move(pass)) {}

PacedLoop::~PacedLoop() { Stop(); }

void PacedLoop::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  std::lock_guard<std::mutex> guard(mu_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  // A stale arm from a suppressed episode before Stop() would silence
  // every commit nudge until the fresh thread's first wakeup.
  nudge_armed_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
}

void PacedLoop::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  std::thread joinable;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!thread_.joinable()) return;
    stop_requested_ = true;
    joinable.swap(thread_);
  }
  cv_.notify_all();
  joinable.join();
  running_.store(false, std::memory_order_release);
}

void PacedLoop::Nudge() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    nudged_ = true;
  }
  cv_.notify_all();
}

void PacedLoop::Run() {
  uint64_t wait_ms = interval_ms_;
  for (;;) {
    bool nudged = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                   [this] { return stop_requested_ || nudged_; });
      if (stop_requested_) return;
      nudged = nudged_;
      nudged_ = false;
    }
    // Disarm BEFORE the pass reads its gauges: growth that lands after
    // this point re-nudges for the next wakeup, so none is swallowed by a
    // pass computed against a stale reading.
    nudge_armed_.store(false, std::memory_order_release);

    const Outcome outcome = pass_(nudged);
    wait_ms = outcome.wait_ms;
    if (!outcome.ran) {
      idle_skips_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    passes_.fetch_add(1, std::memory_order_relaxed);
    if (nudged) {
      nudge_passes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      interval_passes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace neosi
