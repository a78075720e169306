#include "txn/active_txn_table.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

namespace neosi {

ActiveTxnTable::~ActiveTxnTable() {
  for (Chunk* chunk = head_.next.load(std::memory_order_acquire); chunk;) {
    delete std::exchange(chunk, chunk->next.load(std::memory_order_relaxed));
  }
}

ActiveTxnTable::Slot* ActiveTxnTable::Claim(uint64_t word) {
  // Probe from a sticky thread-local hint, so a thread re-claims the line
  // its core already owns. Occupied slots are skipped on a plain load.
  thread_local size_t hint =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (Chunk* chunk = &head_;;) {
    for (size_t probe = 0; probe < kChunkSlots; ++probe) {
      const size_t i = (hint + probe) % kChunkSlots;
      Slot& slot = chunk->slots[i];
      uint64_t expected = kFree;
      if (slot.owner_.load(std::memory_order_relaxed) == kFree &&
          slot.owner_.compare_exchange_strong(expected, word,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
        hint = i;
        return &slot;
      }
    }
    // Every slot of this chunk taken: move on, linking a fresh chunk after
    // the last one (a losing linker frees its own and follows the winner).
    Chunk* next = chunk->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      auto fresh = std::make_unique<Chunk>();
      if (chunk->next.compare_exchange_strong(next, fresh.get(),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        next = fresh.release();
      }
    }
    chunk = next;
  }
}

ActiveTxnTable::Slot* ActiveTxnTable::RegisterAtomic(
    TxnId txn, const std::function<Timestamp()>& ts_source,
    bool pins_watermark) {
  const uint64_t word = txn << kIdShift | (pins_watermark ? kPins : 0);
  Slot* slot = Claim(word | kRegistering);
  slot->born_.store(std::chrono::steady_clock::now(),
                    std::memory_order_relaxed);
  Timestamp ts = ts_source();
  if (sync_points_ != nullptr) {
    (void)sync_points_->Check("txn.begin.pre_publish");
  }
  slot->start_ts_.store(ts, std::memory_order_relaxed);
  // Publishes the birth time and start ts to sweeps and scans.
  slot->owner_.store(word, std::memory_order_release);
  // Invariant 1: confirm the published value with a fenced re-read.
  for (;;) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const Timestamp again = ts_source();
    if (again == ts) return slot;
    ts = again;
    slot->start_ts_.store(ts, std::memory_order_relaxed);
  }
}

template <typename Judge>
Timestamp ActiveTxnTable::MinStartTs(Timestamp min_ts, Judge&& judge) const {
  ForEachSlot(*this, [&](const Slot& slot) {
    if (Pins(slot.owner_.load(std::memory_order_acquire)) && judge(slot)) {
      min_ts = std::min(min_ts, slot.start_ts());
    }
  });
  return min_ts;
}

Timestamp ActiveTxnTable::Watermark(Timestamp fallback) const {
  // Pairs with the registrant's fence (invariant 1).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return MinStartTs(fallback, [](const Slot&) { return true; });
}

template <typename Judge>
uint64_t ActiveTxnTable::MarkWhere(Judge&& judge) {
  uint64_t marked = 0;
  ForEachSlot(*this, [&](Slot& slot) {
    uint64_t word = slot.owner_.load(std::memory_order_acquire);
    if (!Pins(word) || !judge(slot)) return;
    if (sync_points_ != nullptr) {
      (void)sync_points_->Check("snapshot.expire.pre_mark");
    }
    if (slot.owner_.compare_exchange_strong(word, word | kExpired,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
      ++marked;
    }
  });
  return marked;
}

SnapshotExpiryOutcome ActiveTxnTable::ExpireSnapshots(
    std::chrono::steady_clock::time_point now, uint64_t max_age_ms,
    bool backlog_pressure) {
  SnapshotExpiryOutcome outcome;
  auto born_by = [](const Slot& slot, std::chrono::steady_clock::time_point t) {
    return slot.born_.load(std::memory_order_relaxed) <= t;
  };
  if (max_age_ms > 0) {
    const auto cutoff = now - std::chrono::milliseconds(max_age_ms);
    outcome.expired_by_age =
        MarkWhere([&](const Slot& slot) { return born_by(slot, cutoff); });
  }
  // Backlog pressure: mark the oldest-start-ts cohort of grace-aged
  // snapshots. A registration racing in between is too young to join it; a
  // later sweep repairs a cohort a release split.
  if (backlog_pressure) {
    const auto graced = now - kBacklogExpiryGrace;
    const Timestamp victim_ts = MinStartTs(
        kMaxTimestamp, [&](const Slot& slot) { return born_by(slot, graced); });
    if (victim_ts != kMaxTimestamp) {
      outcome.expired_by_backlog = MarkWhere([&](const Slot& slot) {
        return born_by(slot, graced) && slot.start_ts() == victim_ts;
      });
    }
  }
  expired_age_.fetch_add(outcome.expired_by_age, std::memory_order_relaxed);
  expired_backlog_.fetch_add(outcome.expired_by_backlog,
                             std::memory_order_relaxed);
  return outcome;
}

uint64_t ActiveTxnTable::ExpireSnapshotsBelow(Timestamp ts) {
  const uint64_t marked =
      MarkWhere([&](const Slot& slot) { return slot.start_ts() < ts; });
  expired_replication_.fetch_add(marked, std::memory_order_relaxed);
  return marked;
}

size_t ActiveTxnTable::ActiveCount() const {
  size_t n = 0;
  ForEachSlot(*this, [&](const Slot& slot) {
    if (slot.owner_.load(std::memory_order_relaxed) != kFree) ++n;
  });
  return n;
}

const ActiveTxnTable::Slot* ActiveTxnTable::Find(TxnId txn) const {
  const Slot* found = nullptr;
  ForEachSlot(*this, [&](const Slot& slot) {
    const uint64_t word = slot.owner_.load(std::memory_order_acquire);
    if (word != kFree && word >> kIdShift == txn) found = &slot;
  });
  return found;
}

}  // namespace neosi
