// Versioned indexes: entry lifecycle, snapshot filtering, range scans,
// compaction (paper §4 index versioning).

#include <gtest/gtest.h>

#include <set>

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
  set.AddPending(7, 3);
  set.CommitAdd(7, 3, 50);
  EXPECT_FALSE(set.Contains(7, At(49)));
  EXPECT_TRUE(set.Contains(7, At(50)));
  EXPECT_TRUE(set.Contains(7, At(kMaxTimestamp)));
}

TEST(VersionedEntrySet, AbortAddErasesEntry) {
  VersionedEntrySet set;
  set.AddPending(7, 3);
  set.AbortAdd(7, 3);
  EXPECT_FALSE(set.Contains(7, At(kMaxTimestamp, 3)));
  EXPECT_TRUE(set.Empty());
}

TEST(VersionedEntrySet, RemoveIntervalSemantics) {
  VersionedEntrySet set;
  set.AddPending(7, 1);
  set.CommitAdd(7, 1, 10);
  // Pending removal hides from the remover, not from others.
  set.RemovePending(7, 2);
  EXPECT_FALSE(set.Contains(7, At(100, 2)));
  EXPECT_TRUE(set.Contains(7, At(100, 3)));
  // Committed removal: visible in [10, 60), invisible at >= 60.
  set.CommitRemove(7, 2, 60);
  EXPECT_TRUE(set.Contains(7, At(59)));
  EXPECT_FALSE(set.Contains(7, At(60)));
  // The read-committed "latest" snapshot no longer sees it.
  EXPECT_FALSE(set.Contains(7, At(kMaxTimestamp)));
}

TEST(VersionedEntrySet, AbortRemoveRestoresVisibility) {
  VersionedEntrySet set;
  set.AddPending(7, 1);
  set.CommitAdd(7, 1, 10);
  set.RemovePending(7, 2);
  set.AbortRemove(7, 2);
  EXPECT_TRUE(set.Contains(7, At(100, 2)));
  EXPECT_TRUE(set.Contains(7, At(kMaxTimestamp)));
}

TEST(VersionedEntrySet, ReAddAfterRemoveCreatesSecondInterval) {
  VersionedEntrySet set;
  set.AddPending(7, 1);
  set.CommitAdd(7, 1, 10);
  set.RemovePending(7, 2);
  set.CommitRemove(7, 2, 20);
  set.AddPending(7, 3);
  set.CommitAdd(7, 3, 30);
  EXPECT_TRUE(set.Contains(7, At(15)));   // First interval.
  EXPECT_FALSE(set.Contains(7, At(25)));  // Gap.
  EXPECT_TRUE(set.Contains(7, At(35)));   // Second interval.
  EXPECT_EQ(set.SizeIncludingDead(), 2u);
}

TEST(VersionedEntrySet, CompactDropsClosedIntervalsBelowWatermark) {
  VersionedEntrySet set;
  for (uint64_t e = 0; e < 5; ++e) {
    set.AddPending(e, 1);
    set.CommitAdd(e, 1, 10);
  }
  for (uint64_t e = 0; e < 3; ++e) {
    set.RemovePending(e, 2);
    set.CommitRemove(e, 2, 20 + e);  // Removed at 20, 21, 22.
  }
  EXPECT_EQ(set.Compact(21), 2u);  // Entries removed at 20 and 21.
  EXPECT_EQ(set.SizeIncludingDead(), 3u);
  // Entry removed at 22 still present (a snapshot at 21 may need it).
  EXPECT_TRUE(set.Contains(2, At(21)));
  // Pending removals are never compacted.
  set.RemovePending(3, 5);
  EXPECT_EQ(set.Compact(kMaxTimestamp - 1), 1u);  // Only entity 2's interval.
}

/// A label entry's value.
const PropertyValue kLabel;

/// Files `entity` under (token, value) for `txn`, committed at `ts`.
void Add(VersionedIndex& index, uint32_t token, const PropertyValue& value,
         uint64_t entity, TxnId txn, Timestamp ts) {
  VersionedEntrySet& set = index.SetFor(token, value);
  set.AddPending(entity, txn);
  set.CommitAdd(entity, txn, ts);
}

/// Removes `entity` from (token, value) for `txn`, committed at `ts`.
void Remove(VersionedIndex& index, uint32_t token, const PropertyValue& value,
            uint64_t entity, TxnId txn, Timestamp ts) {
  VersionedEntrySet& set = index.SetFor(token, value);
  set.RemovePending(entity, txn);
  set.CommitRemove(entity, txn, ts);
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
}

}  // namespace
}  // namespace neosi
