// Versioned indexes: entry lifecycle, snapshot filtering, range scans,
// compaction (paper §4 index versioning).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "graph/graph_database.h"
#include "index/versioned_index.h"

namespace neosi {
namespace {

Snapshot At(Timestamp ts, TxnId self = kNoTxn) { return {ts, self}; }

TEST(VersionedEntrySet, PendingAddVisibleOnlyToWriter) {
  VersionedEntrySet set;
  set.AddPending(7, /*txn=*/3);
  EXPECT_TRUE(set.Contains(7, At(100, 3)));
  EXPECT_FALSE(set.Contains(7, At(100, 4)));
  EXPECT_FALSE(set.Contains(7, At(kMaxTimestamp)));
}

TEST(VersionedEntrySet, CommittedAddVisibleFromItsTimestamp) {
  VersionedEntrySet set;
  set.CommitAdd(set.AddPending(7, 3), 50);
  EXPECT_FALSE(set.Contains(7, At(49)));
  EXPECT_TRUE(set.Contains(7, At(50)));
  EXPECT_TRUE(set.Contains(7, At(kMaxTimestamp)));
}

TEST(VersionedEntrySet, AbortedAddIsInvisibleUntilFreed) {
  VersionedEntrySet set;
  const uint32_t slot = set.AddPending(7, 3);
  set.AbortAdd(slot);
  EXPECT_FALSE(set.Contains(7, At(kMaxTimestamp, 3)));
  // Closed, not open: a later removal of 7 finds nothing to close.
  EXPECT_EQ(set.RemovePending(7, 4), VersionedEntrySet::kNoSlot);
  EXPECT_EQ(set.SizeIncludingDead(), 1u);
  EXPECT_TRUE(set.Free(slot));
  EXPECT_TRUE(set.Empty());
}

TEST(VersionedEntrySet, RemoveIntervalSemantics) {
  VersionedEntrySet set;
  set.CommitAdd(set.AddPending(7, 1), 10);
  // Pending removal hides from the remover, not from others.
  const uint32_t slot = set.RemovePending(7, 2);
  EXPECT_FALSE(set.Contains(7, At(100, 2)));
  EXPECT_TRUE(set.Contains(7, At(100, 3)));
  // Committed removal: visible in [10, 60), invisible at >= 60.
  set.CommitRemove(slot, 60);
  EXPECT_TRUE(set.Contains(7, At(59)));
  EXPECT_FALSE(set.Contains(7, At(60)));
  // The read-committed "latest" snapshot no longer sees it.
  EXPECT_FALSE(set.Contains(7, At(kMaxTimestamp)));
}

TEST(VersionedEntrySet, AbortRemoveRestoresVisibility) {
  VersionedEntrySet set;
  set.CommitAdd(set.AddPending(7, 1), 10);
  set.AbortRemove(set.RemovePending(7, 2));
  EXPECT_TRUE(set.Contains(7, At(100, 2)));
  EXPECT_TRUE(set.Contains(7, At(kMaxTimestamp)));
}

TEST(VersionedEntrySet, ReAddAfterRemoveCreatesSecondInterval) {
  VersionedEntrySet set;
  set.CommitAdd(set.AddPending(7, 1), 10);
  set.CommitRemove(set.RemovePending(7, 2), 20);
  set.CommitAdd(set.AddPending(7, 3), 30);
  EXPECT_TRUE(set.Contains(7, At(15)));   // First interval.
  EXPECT_FALSE(set.Contains(7, At(25)));  // Gap.
  EXPECT_TRUE(set.Contains(7, At(35)));   // Second interval.
  EXPECT_EQ(set.SizeIncludingDead(), 2u);
}

TEST(VersionedEntrySet, FreedSlotIsReusedByTheNextAdd) {
  VersionedEntrySet set;
  const uint32_t first = set.AddPending(7, 1);
  const uint32_t second = set.AddPending(8, 1);
  set.CommitAdd(first, 10);
  set.CommitAdd(second, 10);
  set.CommitRemove(set.RemovePending(7, 2), 20);
  EXPECT_FALSE(set.Free(first));  // 8 still occupies a slot.
  EXPECT_EQ(set.AddPending(9, 3), first);
  EXPECT_EQ(set.SizeIncludingDead(), 2u);
  // The freed interval is gone from every scan.
  std::vector<uint64_t> seen;
  set.CollectVisible(At(15), &seen);
  EXPECT_EQ(seen, (std::vector<uint64_t>{8}));
  EXPECT_EQ(set.RemovePending(7, 4), VersionedEntrySet::kNoSlot);
}

// Seeded random staging, commit, abort and free sequences over one key, from
// a single entity up to 5,000: they cross kScanLimit and every table growth,
// and a transaction may remove and re-add one entity. After each step the
// set must agree with a brute-force scan of a slot-by-slot model of its
// entries.
class EntrySetModel {
 public:
  EntrySetModel(uint64_t entities, uint64_t seed)
      : entities_(entities), rng_(seed) {}

  void Run(size_t steps) {
    for (size_t step = 0; step < steps; ++step) {
      const uint64_t touched = Step();
      Check(touched);
      for (int i = 0; i < 2; ++i) Check(rng_.Uniform(entities_));
      ASSERT_EQ(set_.SizeIncludingDead(), occupied_) << "step " << step;
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (!txns_.empty()) Finish(0, /*commit=*/true);
    for (uint64_t e = 0; e < entities_; ++e) Check(e);
    // Drain: every closed interval freed, the last Free reports empty.
    for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].state == State::kLive) Close(slot);
    }
    for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].state == State::kClosed) Free(slot);
    }
    EXPECT_TRUE(set_.Empty());
  }

 private:
  enum class State { kFree, kPendingAdd, kLive, kPendingRemove, kClosed };
  struct Slot {
    uint64_t entity = kInvalidId;
    State state = State::kFree;
    bool own_add = false;  ///< The pending removal's txn also added it.
  };
  struct Op {
    bool add;
    uint32_t slot;
  };
  struct Txn {
    TxnId id;
    std::vector<Op> ops;
    std::set<uint64_t> entities;
  };

  /// Brute force: the one slot whose interval for `entity` is open.
  uint32_t ExpectedOpen(uint64_t entity) const {
    uint32_t found = VersionedEntrySet::kNoSlot;
    for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
      const Slot& s = slots_[slot];
      if (s.entity == entity &&
          (s.state == State::kPendingAdd || s.state == State::kLive)) {
        EXPECT_EQ(found, VersionedEntrySet::kNoSlot) << "two open intervals";
        found = slot;
      }
    }
    return found;
  }

  void Check(uint64_t entity) {
    ASSERT_EQ(set_.OpenSlot(entity), ExpectedOpen(entity))
        << "entity " << entity << " of " << entities_;
  }

  /// One random step; returns the entity it touched (or a random one).
  uint64_t Step() {
    const uint64_t roll = rng_.Uniform(100);
    if (roll < 60 || txns_.empty()) return Stage();
    if (roll < 75) {
      Finish(rng_.Uniform(txns_.size()), /*commit=*/true);
    } else if (roll < 85) {
      Finish(rng_.Uniform(txns_.size()), /*commit=*/false);
    } else if (!closed_.empty()) {
      const size_t pick = rng_.Uniform(closed_.size());
      const uint32_t slot = closed_[pick];
      closed_[pick] = closed_.back();
      closed_.pop_back();
      Free(slot);
      return slots_[slot].entity;
    }
    return rng_.Uniform(entities_);
  }

  /// Stages an add or a removal of one entity in a random transaction:
  /// often one it already touched, so removals and re-adds pile up.
  uint64_t Stage() {
    if (txns_.empty() || (txns_.size() < 4 && rng_.Uniform(8) == 0)) {
      txns_.push_back(Txn{next_txn_++, {}, {}});
    }
    Txn& txn = txns_[rng_.Uniform(txns_.size())];
    uint64_t entity = rng_.Uniform(entities_);
    if (!txn.entities.empty() && rng_.Uniform(3) == 0) {
      auto it = txn.entities.begin();
      std::advance(it, rng_.Uniform(txn.entities.size()));
      entity = *it;
    }
    // Long write locks keep an entity to one writer at a time.
    if (owner_.count(entity) != 0 && owner_[entity] != txn.id) return entity;
    owner_[entity] = txn.id;
    txn.entities.insert(entity);
    const uint32_t open = ExpectedOpen(entity);
    if (open == VersionedEntrySet::kNoSlot) {
      const uint32_t slot = set_.AddPending(entity, txn.id);
      if (slot == slots_.size()) slots_.emplace_back();
      EXPECT_EQ(slots_[slot].state, State::kFree) << "slot " << slot;
      slots_[slot] = Slot{entity, State::kPendingAdd, false};
      ++occupied_;
      txn.ops.push_back({true, slot});
    } else {
      EXPECT_EQ(set_.RemovePending(entity, txn.id), open);
      slots_[open].own_add = slots_[open].state == State::kPendingAdd;
      slots_[open].state = State::kPendingRemove;
      txn.ops.push_back({false, open});
    }
    return entity;
  }

  /// Commits (ops in order) or aborts (newest first) transaction `i`.
  void Finish(size_t i, bool commit) {
    Txn txn = std::move(txns_[i]);
    txns_.erase(txns_.begin() + static_cast<std::ptrdiff_t>(i));
    const Timestamp ts = ++clock_;
    if (commit) {
      for (const Op& op : txn.ops) {
        Slot& s = slots_[op.slot];
        if (op.add) {
          set_.CommitAdd(op.slot, ts);
          if (s.state == State::kPendingAdd) s.state = State::kLive;
        } else {
          set_.CommitRemove(op.slot, ts);
          s.state = State::kClosed;
          closed_.push_back(op.slot);
        }
      }
    } else {
      for (auto it = txn.ops.rbegin(); it != txn.ops.rend(); ++it) {
        Slot& s = slots_[it->slot];
        if (it->add) {
          set_.AbortAdd(it->slot);
          s.state = State::kClosed;
          closed_.push_back(it->slot);
        } else {
          set_.AbortRemove(it->slot);
          s.state = s.own_add ? State::kPendingAdd : State::kLive;
        }
      }
    }
    for (uint64_t entity : txn.entities) owner_.erase(entity);
  }

  /// Removes a live interval in a transaction of its own.
  void Close(uint32_t slot) {
    const TxnId txn = next_txn_++;
    ASSERT_EQ(set_.RemovePending(slots_[slot].entity, txn), slot);
    set_.CommitRemove(slot, ++clock_);
    slots_[slot].state = State::kClosed;
  }

  void Free(uint32_t slot) {
    --occupied_;
    EXPECT_EQ(set_.Free(slot), occupied_ == 0);
    slots_[slot].state = State::kFree;
  }

  const uint64_t entities_;
  Random rng_;
  VersionedEntrySet set_;
  std::vector<Slot> slots_;
  size_t occupied_ = 0;
  std::vector<uint32_t> closed_;  ///< Closed slots not yet freed.
  std::vector<Txn> txns_;
  std::map<uint64_t, TxnId> owner_;
  TxnId next_txn_ = 1;
  Timestamp clock_ = 0;
};

TEST(VersionedEntrySet, RandomSequencesAgreeWithABruteForceScan) {
  for (const uint64_t entities : {uint64_t{1}, uint64_t{8}, uint64_t{17},
                                  uint64_t{300}, uint64_t{5000}}) {
    for (const uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
      SCOPED_TRACE(::testing::Message()
                   << entities << " entities, seed " << seed);
      EntrySetModel model(entities, seed);
      model.Run(std::max<size_t>(400, 4 * entities));
      if (HasFatalFailure()) return;
    }
  }
}

/// A label entry's value.
const PropertyValue kLabel;

/// Files `entity` under (token, value) for `txn`, committed at `ts`.
void Add(VersionedIndex& index, uint32_t token, const PropertyValue& value,
         uint64_t entity, TxnId txn, Timestamp ts) {
  index.Commit(index.Stage(/*add=*/true, token, value, entity, txn), ts);
}

/// Removes `entity` from (token, value) for `txn`, committed at `ts`.
void Remove(VersionedIndex& index, uint32_t token, const PropertyValue& value,
            uint64_t entity, TxnId txn, Timestamp ts) {
  index.Commit(index.Stage(/*add=*/false, token, value, entity, txn), ts);
}

std::vector<uint64_t> LabelScan(const VersionedIndex& index, uint32_t label,
                                const Snapshot& snap) {
  return index.Scan(label, std::nullopt, std::nullopt, snap);
}

TEST(VersionedIndex, LabelScanFiltersBySnapshot) {
  VersionedIndex index;
  Add(index, 1, kLabel, 100, 5, 10);
  Add(index, 1, kLabel, 101, 5, 20);
  EXPECT_EQ(LabelScan(index, 1, At(15)), (std::vector<uint64_t>{100}));
  EXPECT_EQ(LabelScan(index, 1, At(25)), (std::vector<uint64_t>{100, 101}));
  EXPECT_TRUE(LabelScan(index, 2, At(25)).empty());  // Unknown label.
}

TEST(VersionedIndex, LabelAndEqualityScansAreInIdOrder) {
  VersionedIndex index;
  for (uint64_t entity : {9, 3, 7, 1}) {
    Add(index, 1, kLabel, entity, 5, 10);
    Add(index, 2, PropertyValue(int64_t{4}), entity, 5, 10);
  }
  const std::vector<uint64_t> ids{1, 3, 7, 9};
  EXPECT_EQ(LabelScan(index, 1, At(10)), ids);
  const PropertyValue four(int64_t{4});
  EXPECT_EQ(index.Scan(2, four, four, At(10)), ids);
}

TEST(VersionedIndex, LabelStatsAndCompaction) {
  VersionedIndex index;
  for (NodeId n = 0; n < 10; ++n) Add(index, 1, kLabel, n, 1, 5);
  for (NodeId n = 0; n < 4; ++n) Remove(index, 1, kLabel, n, 2, 8);
  IndexStats stats = index.Stats();
  EXPECT_EQ(stats.keys, 1u);
  EXPECT_EQ(stats.entries_total, 10u);
  EXPECT_EQ(index.Compact(10), 4u);
  EXPECT_EQ(index.Stats().entries_total, 6u);
  EXPECT_EQ(index.Stats().compacted, 4u);
}

TEST(VersionedIndex, ExactLookup) {
  VersionedIndex index;
  const PropertyValue thirty(int64_t{30}), other(int64_t{31});
  Add(index, 1, thirty, 100, 5, 10);
  EXPECT_EQ(index.Scan(1, thirty, thirty, At(10)).size(), 1u);
  EXPECT_TRUE(index.Scan(1, other, other, At(10)).empty());
  // Same value under a different key id is distinct.
  EXPECT_TRUE(index.Scan(2, thirty, thirty, At(10)).empty());
}

TEST(VersionedIndex, RangeScanOrderedInclusive) {
  VersionedIndex index;
  for (int64_t v = 0; v < 10; ++v) {
    Add(index, 1, PropertyValue(v), 100 + v, 5, 10);
  }
  auto hits = index.Scan(1, PropertyValue(int64_t{3}),
                         PropertyValue(int64_t{6}), At(10));
  EXPECT_EQ(hits, (std::vector<uint64_t>{103, 104, 105, 106}));
  // Open bounds.
  EXPECT_EQ(index.Scan(1, std::nullopt, PropertyValue(int64_t{2}), At(10))
                .size(),
            3u);
  EXPECT_EQ(index.Scan(1, PropertyValue(int64_t{8}), std::nullopt, At(10))
                .size(),
            2u);
  EXPECT_EQ(index.Scan(1, std::nullopt, std::nullopt, At(10)).size(), 10u);
}

TEST(VersionedIndex, RangeScanIsInValueOrder) {
  VersionedIndex index;
  Add(index, 1, PropertyValue(int64_t{2}), 8, 5, 10);
  Add(index, 1, PropertyValue(int64_t{1}), 9, 5, 10);
  Add(index, 1, PropertyValue(int64_t{2}), 4, 5, 10);
  Add(index, 1, PropertyValue(int64_t{1}), 6, 5, 10);
  const auto hits = index.Scan(1, std::nullopt, std::nullopt, At(10));
  ASSERT_EQ(hits.size(), 4u);
  // Value 1's entities, then value 2's.
  EXPECT_EQ(std::set<uint64_t>(hits.begin(), hits.begin() + 2),
            (std::set<uint64_t>{6, 9}));
  EXPECT_EQ(std::set<uint64_t>(hits.begin() + 2, hits.end()),
            (std::set<uint64_t>{4, 8}));
}

TEST(VersionedIndex, RangeScanDoesNotCrossKeys) {
  VersionedIndex index;
  Add(index, 1, PropertyValue(int64_t{5}), 100, 9, 10);
  Add(index, 2, PropertyValue(int64_t{5}), 200, 9, 10);
  auto hits = index.Scan(1, std::nullopt, std::nullopt, At(10));
  EXPECT_EQ(hits, (std::vector<uint64_t>{100}));
}

TEST(VersionedIndex, MixedValueKindsInOneKey) {
  VersionedIndex index;
  Add(index, 1, PropertyValue(int64_t{5}), 1, 9, 10);
  Add(index, 1, PropertyValue("text"), 2, 9, 10);
  Add(index, 1, PropertyValue(true), 3, 9, 10);
  // Full scan sees all three, ordered bool < int < string.
  auto hits = index.Scan(1, std::nullopt, std::nullopt, At(10));
  EXPECT_EQ(hits, (std::vector<uint64_t>{3, 1, 2}));
  // Int-only range.
  auto ints = index.Scan(1, PropertyValue(int64_t{0}),
                         PropertyValue(int64_t{100}), At(10));
  EXPECT_EQ(ints, (std::vector<uint64_t>{1}));
}

TEST(VersionedIndex, ConflictsOutStayInsideTheScannedRange) {
  VersionedIndex index;
  for (int64_t v = 0; v < 4; ++v) {
    Add(index, 1, PropertyValue(v), 100 + v, 5, 20 + v);
  }
  std::vector<Timestamp> conflicts;
  index.CollectConflictsOut(1, PropertyValue(int64_t{1}),
                            PropertyValue(int64_t{2}), 10, &conflicts);
  EXPECT_EQ(conflicts, (std::vector<Timestamp>{21, 22}));
  // Nothing committed after the snapshot is a conflict.
  conflicts.clear();
  index.CollectConflictsOut(1, std::nullopt, std::nullopt, 23, &conflicts);
  EXPECT_TRUE(conflicts.empty());
}

TEST(VersionedIndex, CompactAcrossKeys) {
  VersionedIndex index;
  for (int64_t v = 0; v < 4; ++v) {
    Add(index, 1, PropertyValue(v), 100 + v, 5, 10);
    Remove(index, 1, PropertyValue(v), 100 + v, 6, 20);
  }
  EXPECT_EQ(index.Stats().entries_total, 4u);
  EXPECT_EQ(index.Compact(20), 4u);
  EXPECT_EQ(index.Stats().entries_total, 0u);
  EXPECT_EQ(index.Stats().keys, 0u);  // Every emptied key is erased.
}

TEST(VersionedIndex, ReusedSlotIsInvisibleBeforeItsAdd) {
  VersionedIndex index;
  Add(index, 1, kLabel, 100, 5, 10);
  Remove(index, 1, kLabel, 100, 6, 20);
  Add(index, 1, kLabel, 101, 5, 10);  // Keeps the key alive.
  EXPECT_EQ(index.Compact(20), 1u);
  Add(index, 1, kLabel, 102, 7, 30);  // Takes the freed slot.
  EXPECT_EQ(index.Stats().entries_total, 2u);
  EXPECT_EQ(LabelScan(index, 1, At(25)), (std::vector<uint64_t>{101}));
  EXPECT_EQ(LabelScan(index, 1, At(30)), (std::vector<uint64_t>{101, 102}));
  std::vector<Timestamp> conflicts;
  index.CollectConflictsOut(1, std::nullopt, std::nullopt, 25, &conflicts);
  EXPECT_EQ(conflicts, (std::vector<Timestamp>{30}));
}

/// Stages, in one transaction, entity 7 moving 5 -> 6 -> 5 -> 6 under
/// token 1, from a committed value 5; returns the handles in staging order.
std::vector<IndexHandle> FlipFlop(VersionedIndex& index, TxnId txn) {
  const PropertyValue five(int64_t{5}), six(int64_t{6});
  std::vector<IndexHandle> handles;
  for (int move = 0; move < 3; ++move) {
    const PropertyValue& from = move % 2 == 0 ? five : six;
    const PropertyValue& to = move % 2 == 0 ? six : five;
    handles.push_back(index.Stage(/*add=*/false, 1, from, 7, txn));
    handles.push_back(index.Stage(/*add=*/true, 1, to, 7, txn));
  }
  for (const IndexHandle& handle : handles) EXPECT_NE(handle.set, nullptr);
  return handles;
}

TEST(VersionedIndex, SameTransactionFlipFlopCommitsEmptyIntervals) {
  VersionedIndex index;
  const PropertyValue five(int64_t{5}), six(int64_t{6});
  Add(index, 1, five, 7, 1, 10);
  const std::vector<IndexHandle> handles = FlipFlop(index, 2);
  // The writer sees its last move; everyone else the committed state.
  EXPECT_TRUE(index.Scan(1, five, five, At(100, 2)).empty());
  EXPECT_EQ(index.Scan(1, six, six, At(100, 2)), (std::vector<uint64_t>{7}));
  EXPECT_EQ(index.Scan(1, five, five, At(100, 3)), (std::vector<uint64_t>{7}));
  for (const IndexHandle& handle : handles) index.Commit(handle, 20);
  EXPECT_EQ(index.Scan(1, five, five, At(19)), (std::vector<uint64_t>{7}));
  EXPECT_TRUE(index.Scan(1, five, five, At(20)).empty());
  EXPECT_TRUE(index.Scan(1, six, six, At(19)).empty());
  EXPECT_EQ(index.Scan(1, six, six, At(20)), (std::vector<uint64_t>{7}));
  // [10, 20) plus two empty [20, 20) intervals close; one stays open.
  EXPECT_EQ(index.Stats().entries_total, 4u);
  EXPECT_EQ(index.Compact(20), 3u);
  EXPECT_EQ(index.Stats().entries_total, 1u);
  EXPECT_EQ(index.Stats().keys, 1u);
  // Exactly one open interval is left for a later move to close.
  Remove(index, 1, six, 7, 3, 30);
  EXPECT_TRUE(index.Scan(1, std::nullopt, std::nullopt, At(30)).empty());
}

TEST(VersionedIndex, SameTransactionFlipFlopAbortsNewestFirst) {
  VersionedIndex index;
  const PropertyValue five(int64_t{5}), six(int64_t{6});
  Add(index, 1, five, 7, 1, 10);
  const std::vector<IndexHandle> handles = FlipFlop(index, 2);
  for (auto it = handles.rbegin(); it != handles.rend(); ++it) {
    index.Abort(*it);
  }
  EXPECT_EQ(index.Scan(1, five, five, At(100)), (std::vector<uint64_t>{7}));
  EXPECT_TRUE(index.Scan(1, six, six, At(100)).empty());
  // The three aborted adds close as empty intervals and free at once.
  EXPECT_EQ(index.Stats().entries_total, 4u);
  EXPECT_EQ(index.Compact(kNoTimestamp), 3u);
  EXPECT_EQ(index.Stats().entries_total, 1u);
  EXPECT_EQ(index.Stats().keys, 1u);
  // The committed interval is open again.
  Remove(index, 1, five, 7, 3, 30);
  EXPECT_EQ(index.Scan(1, five, five, At(29)), (std::vector<uint64_t>{7}));
  EXPECT_TRUE(index.Scan(1, five, five, At(30)).empty());
}

TEST(VersionedIndex, RemovalWithoutOpenIntervalCreatesNothing) {
  VersionedIndex index;
  const PropertyValue four(int64_t{4});
  const IndexHandle missing_key = index.Stage(/*add=*/false, 1, four, 7, 2);
  EXPECT_EQ(missing_key.set, nullptr);
  EXPECT_EQ(index.Stats().keys, 0u);
  Add(index, 1, four, 8, 1, 10);
  const IndexHandle missing_entity = index.Stage(/*add=*/false, 1, four, 7, 2);
  EXPECT_EQ(missing_entity.set, nullptr);
  // Null handles commit and abort as no-ops.
  index.Commit(missing_key, 20);
  index.Abort(missing_entity);
  EXPECT_EQ(index.Stats().keys, 1u);
  EXPECT_EQ(index.Stats().entries_total, 1u);
  EXPECT_EQ(index.Compact(kMaxTimestamp - 1), 0u);
}

TEST(VersionedIndex, CompactFreesOnlyAtOrBelowTheWatermark) {
  VersionedIndex index;
  for (uint64_t e = 0; e < 5; ++e) Add(index, 1, kLabel, e, 1, 10);
  // Intervals close at 20, 22 and 21, in that order.
  Remove(index, 1, kLabel, 0, 2, 20);
  Remove(index, 1, kLabel, 1, 3, 22);
  Remove(index, 1, kLabel, 2, 4, 21);
  // A pending removal is not closed and is never freed.
  const IndexHandle pending = index.Stage(/*add=*/false, 1, kLabel, 3, 5);
  // 20 goes; 22 is above the watermark, and 21 waits behind it.
  EXPECT_EQ(index.Compact(21), 1u);
  EXPECT_EQ(index.Stats().entries_total, 4u);
  EXPECT_TRUE(LabelScan(index, 1, At(21)).size() == 3u);  // 1, 3, 4.
  // The second pass frees the rest.
  EXPECT_EQ(index.Compact(22), 2u);
  EXPECT_EQ(index.Compact(kMaxTimestamp - 1), 0u);
  EXPECT_EQ(index.Stats().entries_total, 2u);
  EXPECT_EQ(index.Stats().compacted, 3u);
  index.Abort(pending);
  EXPECT_EQ(LabelScan(index, 1, At(30)), (std::vector<uint64_t>{3, 4}));
}

TEST(VersionedIndex, CompactErasesKeysItEmpties) {
  VersionedIndex index;
  // One entity moves across 1000 distinct values.
  Add(index, 1, PropertyValue(int64_t{0}), 7, 1, 1);
  for (int64_t v = 1; v <= 1000; ++v) {
    const Timestamp ts = static_cast<Timestamp>(v + 1);
    Remove(index, 1, PropertyValue(v - 1), 7, ts, ts);
    Add(index, 1, PropertyValue(v), 7, ts, ts);
  }
  EXPECT_EQ(index.Stats().keys, 1001u);
  EXPECT_EQ(index.Compact(kMaxTimestamp - 1), 1000u);
  EXPECT_EQ(index.Stats().keys, 1u);
  EXPECT_EQ(index.Stats().entries_total, 1u);
  const PropertyValue last(int64_t{1000});
  EXPECT_EQ(index.Scan(1, last, last, At(2000)), (std::vector<uint64_t>{7}));
}

TEST(IndexThroughTransactions, SerializableScansSeeEachEntityOnce) {
  DatabaseOptions options;
  options.in_memory = true;
  options.background_gc_interval_ms = 1;
  auto db = std::move(*GraphDatabase::Open(options));
  constexpr int kNodes = 24;
  constexpr int64_t kValues = 3;
  std::vector<NodeId> nodes;
  {
    auto txn = db->Begin(IsolationLevel::kSnapshotIsolation);
    for (int i = 0; i < kNodes; ++i) {
      auto id = txn->CreateNode({"N"});
      ASSERT_TRUE(id.ok()) << id.status();
      ASSERT_TRUE(
          txn->SetNodeProperty(*id, "v", PropertyValue(int64_t{i % kValues}))
              .ok());
      nodes.push_back(*id);
    }
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  auto writer = [&](IsolationLevel isolation, uint64_t seed) {
    Random rng(seed);
    while (!stop.load()) {
      auto txn = db->Begin(isolation);
      // Move two entities, one of them possibly twice.
      Status s;
      for (int move = 0; move < 3 && s.ok(); ++move) {
        const NodeId id = nodes[rng.Uniform(kNodes)];
        const int64_t value = static_cast<int64_t>(rng.Uniform(kValues));
        s = txn->SetNodeProperty(id, "v", PropertyValue(value));
      }
      if (s.ok()) s = txn->Commit();
      if (s.ok()) commits.fetch_add(1);
      // Conflicts abort the transaction; it is simply dropped.
    }
  };
  std::thread si_writer(writer, IsolationLevel::kSnapshotIsolation, 1);
  std::thread ssi_writer(writer, IsolationLevel::kSerializable, 2);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  int scans = 0;
  while (std::chrono::steady_clock::now() < deadline || commits.load() < 50) {
    auto txn = db->Begin(IsolationLevel::kSerializable);
    auto range = txn->GetNodesByPropertyRange("v", std::nullopt, std::nullopt);
    ASSERT_TRUE(range.ok()) << range.status();
    EXPECT_EQ(std::set<NodeId>(range->begin(), range->end()).size(),
              range->size());
    EXPECT_EQ(range->size(), static_cast<size_t>(kNodes));
    std::multiset<NodeId> by_value;
    for (int64_t v = 0; v < kValues; ++v) {
      auto hits = txn->GetNodesByProperty("v", PropertyValue(v));
      ASSERT_TRUE(hits.ok()) << hits.status();
      by_value.insert(hits->begin(), hits->end());
    }
    EXPECT_EQ(by_value, std::multiset<NodeId>(nodes.begin(), nodes.end()));
    (void)txn->Commit();
    ++scans;
  }
  stop.store(true);
  si_writer.join();
  ssi_writer.join();
  EXPECT_GT(scans, 0);
  // Every closed interval is eventually freed, every emptied key erased:
  // at most one entry per node remains live, across at most kValues keys.
  db->RunGc();
  const IndexStats stats = db->engine().node_prop_index.Stats();
  EXPECT_LE(stats.keys, static_cast<uint64_t>(kValues));
  EXPECT_EQ(stats.entries_total, static_cast<uint64_t>(kNodes));
}

}  // namespace
}  // namespace neosi
