// The one background-daemon loop. GcDaemon and CheckpointDaemon each own a
// PacedLoop and supply only their pass: the loop owns the thread, the
// interval wait, the nudge flag, the armed commit-path nudge, idempotent
// Start/Stop and the pacing counters.
//
// Pacing: the thread sleeps until the wait the previous pass asked for has
// elapsed or a Nudge() arrives, then calls the pass. The pass reports
// whether it ran or skipped as idle, and how long to wait next. Commit
// publication calls NudgeArmed(): above its own threshold a daemon nudges
// once, and the arm collapses the per-commit nudge storm into that one
// notify until the thread has woken.

#ifndef NEOSI_GRAPH_PACED_LOOP_H_
#define NEOSI_GRAPH_PACED_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

namespace neosi {

/// One paced background thread around a pass function.
class PacedLoop {
 public:
  /// What one wakeup did, and when the next one is due absent a nudge.
  struct Outcome {
    bool ran;          ///< false = idle skip.
    uint64_t wait_ms;  ///< Wait before the next wakeup.
  };
  /// Called once per wakeup on the loop's thread; `nudged` is true when a
  /// Nudge() (not the timer) woke it.
  using PassFn = std::function<Outcome(bool nudged)>;

  /// `interval_ms` is the wait before the first wakeup (and the usual
  /// return of a pass).
  PacedLoop(uint64_t interval_ms, PassFn pass);
  ~PacedLoop();

  PacedLoop(const PacedLoop&) = delete;
  PacedLoop& operator=(const PacedLoop&) = delete;

  /// Starts the thread (idempotent).
  void Start();

  /// Stops and joins the thread (idempotent, safe from any number of
  /// threads at once; also done by the destructor). An in-flight pass
  /// completes, then the thread exits.
  void Stop();

  /// Wakes the thread for an immediate pass.
  void Nudge();

  /// Commit-path nudge: the first call since the thread last woke nudges,
  /// later ones cost one atomic exchange.
  void NudgeArmed() {
    if (nudge_armed_.exchange(true, std::memory_order_acq_rel)) return;
    Nudge();
  }

  /// Keeps NudgeArmed() silent until the next wakeup. A pass calls this
  /// when commit nudges cannot help (e.g. a pinned backlog) and it polls on
  /// a short wait instead.
  void SuppressArmedNudges() {
    nudge_armed_.store(true, std::memory_order_release);
  }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Totals across all wakeups so far.
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }
  uint64_t nudge_passes() const {
    return nudge_passes_.load(std::memory_order_relaxed);
  }
  uint64_t interval_passes() const {
    return interval_passes_.load(std::memory_order_relaxed);
  }
  uint64_t idle_skips() const {
    return idle_skips_.load(std::memory_order_relaxed);
  }

 private:
  void Run();

  const uint64_t interval_ms_;
  const PassFn pass_;

  /// Serializes Start()/Stop() end to end, held ACROSS the join (which mu_
  /// cannot be: the thread needs mu_ to observe the stop flag). Without it
  /// two Stop()s could both join one thread, and a Start() racing a
  /// mid-join Stop() could clear stop_requested_ before the outgoing
  /// thread saw it.
  std::mutex lifecycle_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool nudged_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> nudge_armed_{false};

  std::atomic<uint64_t> passes_{0};
  std::atomic<uint64_t> nudge_passes_{0};
  std::atomic<uint64_t> interval_passes_{0};
  std::atomic<uint64_t> idle_skips_{0};

  /// Declared after everything Run() touches.
  std::thread thread_;
};

}  // namespace neosi

#endif  // NEOSI_GRAPH_PACED_LOOP_H_
