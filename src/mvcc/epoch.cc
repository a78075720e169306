#include "mvcc/epoch.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <thread>

namespace neosi {

namespace {

size_t ResolveSlots(size_t slots) {
  if (slots != 0) return slots;
  const size_t hw = std::thread::hardware_concurrency();  // 0 when unknown.
  // Generous headroom over the core count: a reader holds its slot only for
  // one chain walk, but oversubscribed thread pools (benches run 8 threads
  // on any box) must not serialize on slot scarcity.
  return std::max<size_t>(64, 4 * hw);
}

}  // namespace

EpochManager::EpochManager(size_t slots)
    : slot_count_(ResolveSlots(slots)), slots_(new Slot[slot_count_]) {}

EpochManager::~EpochManager() {
  for (LimboEntry& entry : limbo_) Free(entry);
}

size_t EpochManager::Enter() {
  // Probe from a sticky thread-local hint: the same thread re-claims the
  // same slot while uncontended, so the hot path is one CAS on a line this
  // core already owns.
  thread_local size_t hint =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (;;) {
    const uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
    for (size_t probe = 0; probe < slot_count_; ++probe) {
      const size_t slot = (hint + probe) % slot_count_;
      uint64_t expected = kIdle;
      if (slots_[slot].epoch.compare_exchange_strong(
              expected, epoch, std::memory_order_seq_cst,
              std::memory_order_relaxed)) {
        hint = slot;
        // Pairs with the fence in Drain(): either the drainer's scan sees
        // this slot occupied (and spares everything we can reach), or our
        // chain-pointer loads below see every unlink the drain freed.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        return slot;
      }
    }
    // Every slot busy (more concurrent readers than slots — only plausible
    // with a tiny configured slot count). Yield and retry with a fresh
    // epoch so a long wait never publishes a stale one.
    std::this_thread::yield();
  }
}

void EpochManager::Push(LimboEntry entry) {
  // The unlink (or unpublish) stores precede this call in the retiring
  // thread; the seq_cst global load below orders them against reader entry
  // (see the header comment).
  entry.retired_epoch = global_epoch_.load(std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> guard(limbo_mu_);
    limbo_count_ += entry.count;
    total_retired_.fetch_add(entry.count, std::memory_order_relaxed);
    limbo_.push_back(std::move(entry));
    limbo_size_.store(limbo_count_, std::memory_order_relaxed);
  }
}

void EpochManager::Free(LimboEntry& entry) {
  if (entry.object != nullptr) {
    entry.destroy(entry.object);
  } else {
    FreeRetired(std::move(entry.version));
  }
}

size_t EpochManager::Drain() {
  std::vector<LimboEntry> eligible;
  size_t freed = 0;
  {
    std::lock_guard<std::mutex> guard(limbo_mu_);
    if (limbo_.empty()) return 0;
    // Pairs with the fence in Enter(); must precede the slot scan.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    uint64_t min_active = UINT64_MAX;
    for (size_t i = 0; i < slot_count_; ++i) {
      const uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
      if (e != kIdle) min_active = std::min(min_active, e);
    }
    const auto kept_end = std::partition(
        limbo_.begin(), limbo_.end(), [&](const LimboEntry& entry) {
          return entry.retired_epoch >= min_active;
        });
    eligible.assign(std::make_move_iterator(kept_end),
                    std::make_move_iterator(limbo_.end()));
    limbo_.erase(kept_end, limbo_.end());
    for (const LimboEntry& entry : eligible) freed += entry.count;
    limbo_count_ -= freed;
    limbo_size_.store(limbo_count_, std::memory_order_relaxed);
  }
  // Free outside the mutex: unwinding a retired chain suffix is O(length).
  for (LimboEntry& entry : eligible) Free(entry);
  total_freed_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

uint64_t EpochManager::MinActiveEpoch() const {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  uint64_t min_active = UINT64_MAX;
  for (size_t i = 0; i < slot_count_; ++i) {
    const uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (e != kIdle) min_active = std::min(min_active, e);
  }
  return min_active;
}

void EpochManager::FreeRetired(std::shared_ptr<Version> version) {
  while (version) {
    if (version.use_count() > 1) break;  // Another owner finishes the job.
    std::shared_ptr<Version> next = std::move(version->older);
    version.reset();
    version = std::move(next);
  }
}

}  // namespace neosi
