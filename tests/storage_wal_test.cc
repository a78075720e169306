// WAL framing, op serialization, torn-tail handling, segment rotation,
// segment build-and-adopt, chain validation, and the zero fill ahead of the
// append cursor.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "storage/wal.h"
#include "sync_points.h"

namespace neosi {
namespace {

WalRecord MakeRecord(TxnId txn, Timestamp ts) {
  WalRecord record;
  record.txn_id = txn;
  record.commit_ts = ts;
  record.ops.push_back(WalOp::CreateNode(
      1, {2, 3}, {{4, PropertyValue("value")}, {5, PropertyValue(int64_t{9})}}));
  record.ops.push_back(
      WalOp::NodeState(1, {2, 7}, {{4, PropertyValue(false)}}));
  record.ops.push_back(WalOp::CreateRel(2, 1, 3, 0, {{4, PropertyValue(1.5)}}));
  record.ops.push_back(WalOp::DeleteRel(2));
  record.ops.push_back(WalOp::DeleteNode(1));
  record.ops.push_back(
      WalOp::CreateToken(TokenKind::kPropertyKey, 4, "weight"));
  record.ops.push_back(WalOp::PurgeNode(9));
  record.ops.push_back(WalOp::PurgeRel(8, 1, 3, 10, 11, 12, 13));
  record.ops.push_back(WalOp::NodeState(1, {2}, {}));
  record.ops.push_back(WalOp::RelState(2, {{4, PropertyValue("x")}}));
  record.ops.push_back(WalOp::RelState(2, {}));
  record.ops.push_back(WalOp::Checkpoint(123456789));
  return record;
}

/// Small single-op record for segment-rotation tests (predictable frames).
WalRecord SmallRecord(TxnId txn, Timestamp ts) {
  WalRecord record;
  record.txn_id = txn;
  record.commit_ts = ts;
  record.ops.push_back(WalOp::DeleteNode(txn));
  return record;
}

std::unique_ptr<Wal> OpenWal(std::shared_ptr<InMemoryDir> dir,
                             WalOptions options = {}) {
  auto wal = std::make_unique<Wal>(std::move(dir), options);
  EXPECT_TRUE(wal->Open().ok());
  return wal;
}

std::vector<Timestamp> ReplayTimestamps(Wal* wal) {
  std::vector<Timestamp> seen;
  EXPECT_TRUE(wal->ReadAll([&](const WalRecord& record) {
                   seen.push_back(record.commit_ts);
                   return Status::OK();
                 })
                  .ok());
  return seen;
}

std::vector<std::string> ListNames(InMemoryDir* dir) {
  std::vector<std::string> names;
  EXPECT_TRUE(dir->List(&names).ok());
  std::sort(names.begin(), names.end());
  return names;
}

TEST(WalOps, RecordRoundTrip) {
  WalRecord record = MakeRecord(42, 99);
  std::string buf;
  record.EncodeTo(&buf);
  WalRecord out;
  ASSERT_TRUE(WalRecord::DecodeFrom(Slice(buf), &out).ok());
  EXPECT_EQ(out.txn_id, 42u);
  EXPECT_EQ(out.commit_ts, 99u);
  ASSERT_EQ(out.ops.size(), record.ops.size());
  EXPECT_EQ(out.ops[0].type, WalOpType::kCreateNode);
  EXPECT_EQ(out.ops[0].labels, (std::vector<LabelId>{2, 3}));
  EXPECT_EQ(out.ops[0].props.at(4), PropertyValue("value"));
  EXPECT_EQ(out.ops[1].type, WalOpType::kNodeState);
  EXPECT_EQ(out.ops[1].labels, (std::vector<LabelId>{2, 7}));
  EXPECT_EQ(out.ops[1].props.at(4), PropertyValue(false));
  EXPECT_EQ(out.ops[2].type, WalOpType::kCreateRel);
  EXPECT_EQ(out.ops[2].src, 1u);
  EXPECT_EQ(out.ops[2].dst, 3u);
  EXPECT_EQ(out.ops[5].name, "weight");
  EXPECT_EQ(out.ops[5].token_kind, TokenKind::kPropertyKey);
  EXPECT_EQ(out.ops[7].type, WalOpType::kPurgeRel);
  EXPECT_EQ(out.ops[7].src_prev, 10u);
  EXPECT_EQ(out.ops[7].dst_next, 13u);
  EXPECT_EQ(out.ops[8].type, WalOpType::kNodeState);
  EXPECT_EQ(out.ops[8].labels, (std::vector<LabelId>{2}));
  EXPECT_TRUE(out.ops[8].props.empty());
  EXPECT_EQ(out.ops[9].type, WalOpType::kRelState);
  EXPECT_EQ(out.ops[9].id, 2u);
  EXPECT_EQ(out.ops[9].props.at(4), PropertyValue("x"));
  EXPECT_EQ(out.ops[10].type, WalOpType::kRelState);
  EXPECT_TRUE(out.ops[10].props.empty());
  EXPECT_EQ(out.ops.back().type, WalOpType::kCheckpoint);
  EXPECT_EQ(out.ops.back().id, 123456789u);
}

// The property map's layout is in-memory only: a multi-property op encodes
// to exactly the bytes the std::map-backed encoder wrote (keys ascending,
// whatever the insertion order), so logs written before and after read the
// same.
TEST(WalOps, MultiPropertyOpBytesAreUnchanged) {
  PropertyMap props;
  props[9] = PropertyValue("nine");
  props[3] = PropertyValue(int64_t{-3});
  props[5] = PropertyValue(true);
  props[1] = PropertyValue(2.5);
  props[7] = PropertyValue();
  props[300] = PropertyValue(std::string(20, 'z'));
  std::string buf;
  WalOp::CreateNode(77, {4, 2}, props).EncodeTo(&buf);
  WalOp::RelState(5, props).EncodeTo(&buf);
  const std::string expected(
      "\x01\x4d\x02\x04\x02\x06\x01\x03\x00\x00\x00\x00\x00\x00\x04\x40"
      "\x03\x02\xfd\xff\xff\xff\xff\xff\xff\xff\x05\x01\x01\x07\x00\x09"
      "\x04\x04\x6e\x69\x6e\x65\xac\x02\x04\x14\x7a\x7a\x7a\x7a\x7a\x7a"
      "\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x10\x05"
      "\x06\x01\x03\x00\x00\x00\x00\x00\x00\x04\x40\x03\x02\xfd\xff\xff"
      "\xff\xff\xff\xff\xff\x05\x01\x01\x07\x00\x09\x04\x04\x6e\x69\x6e"
      "\x65\xac\x02\x04\x14\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a"
      "\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a\x7a",
      121);
  EXPECT_EQ(buf, expected);

  Slice input(buf);
  WalOp node, rel;
  ASSERT_TRUE(WalOp::DecodeFrom(&input, &node).ok());
  ASSERT_TRUE(WalOp::DecodeFrom(&input, &rel).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(node.props, props);
  EXPECT_EQ(rel.props, props);
}

TEST(WalOps, RetiredDeltaTypeBytesAreCorruption) {
  // 3-6, 9 and 10 were the per-property / per-label delta ops. A record
  // carrying one is from a log format this build no longer replays; the
  // decoder must refuse it rather than misread its fields. The full-state
  // ops that replaced them keep their type bytes, so logs written since
  // decode unchanged.
  EXPECT_EQ(static_cast<int>(WalOpType::kNodeState), 15);
  EXPECT_EQ(static_cast<int>(WalOpType::kRelState), 16);
  for (const uint8_t retired : {3, 4, 5, 6, 9, 10}) {
    std::string buf;
    PutVarint64(&buf, 1);  // txn id
    PutVarint64(&buf, 2);  // commit ts
    PutVarint64(&buf, 1);  // op count
    buf.push_back(static_cast<char>(retired));
    PutVarint64(&buf, 7);  // entity id
    PutVarint32(&buf, 4);  // the retired token field
    WalRecord out;
    EXPECT_TRUE(WalRecord::DecodeFrom(Slice(buf), &out).IsCorruption())
        << "type byte " << static_cast<int>(retired);
  }
}

TEST(WalOps, TrailingBytesRejected) {
  WalRecord record = MakeRecord(1, 2);
  std::string buf;
  record.EncodeTo(&buf);
  buf += "extra";
  WalRecord out;
  EXPECT_TRUE(WalRecord::DecodeFrom(Slice(buf), &out).IsCorruption());
}

TEST(Wal, AppendAndReadAll) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  for (int i = 1; i <= 5; ++i) {
    auto lsn = wal->Append(MakeRecord(i, i * 10));
    ASSERT_TRUE(lsn.ok());
  }
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{10, 20, 30, 40, 50}));
}

TEST(Wal, LsnsAreMonotonic) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  Lsn prev = 0;
  for (int i = 0; i < 3; ++i) {
    auto lsn = wal->Append(MakeRecord(1, 1));
    ASSERT_TRUE(lsn.ok());
    if (i > 0) {
      EXPECT_GT(*lsn, prev);
    }
    prev = *lsn;
  }
}

TEST(Wal, TornTailTruncated) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Append(MakeRecord(2, 20)).ok());
  const uint64_t valid = wal->SizeBytes();
  // Simulate a torn frame in the active segment: plausible header, garbage
  // payload.
  std::shared_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(wal->SegmentNameOf(wal->NextLsn()), &raw).ok());
  const char torn[] = "\x40\x00\x00\x00\x99\x99\x99\x99only-half-written";
  ASSERT_TRUE(raw->WriteAt(wal->PhysOf(wal->NextLsn()), torn, sizeof torn).ok());

  EXPECT_EQ(ReplayTimestamps(wal.get()).size(), 2u);
  EXPECT_EQ(wal->SizeBytes(), valid);  // Tail dropped.
  // Appends continue cleanly after truncation.
  ASSERT_TRUE(wal->Append(MakeRecord(3, 30)).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{10, 20, 30}));
}

TEST(Wal, CorruptPayloadStopsReplay) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  const Lsn second = *wal->Append(MakeRecord(2, 20));
  // Flip a payload byte of the second frame: CRC must catch it.
  std::shared_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(wal->SegmentNameOf(second), &raw).ok());
  char byte;
  ASSERT_TRUE(raw->ReadAt(wal->PhysOf(second) + 12, 1, &byte).ok());
  byte ^= 0x40;
  ASSERT_TRUE(raw->WriteAt(wal->PhysOf(second) + 12, &byte, 1).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()), (std::vector<Timestamp>{10}));
}

TEST(Wal, OpenPositionsCursorAfterValidPrefix) {
  auto dir = std::make_shared<InMemoryDir>();
  uint64_t valid;
  {
    auto wal = OpenWal(dir);
    ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
    valid = wal->SizeBytes();
  }
  auto reopened = OpenWal(dir);
  EXPECT_EQ(reopened->SizeBytes(), valid);
}

// ---------------------------------------------------------------------------
// Segment rotation
// ---------------------------------------------------------------------------

WalOptions TinySegments(uint64_t segment_size = 192) {
  WalOptions options;
  options.segment_size = segment_size;
  return options;
}

/// Files in `dir` whose name starts with `prefix`.
int CountPrefixed(InMemoryDir* dir, const std::string& prefix) {
  int count = 0;
  for (const std::string& name : ListNames(dir)) {
    count += name.rfind(prefix, 0) == 0 ? 1 : 0;
  }
  return count;
}

TEST(WalSegments, AppendRollsAtThreshold) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir, TinySegments());
  EXPECT_EQ(wal->SegmentCount(), 1u);

  std::vector<Timestamp> expect;
  for (int i = 1; i <= 24; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    expect.push_back(i * 10);
  }
  EXPECT_GT(wal->SegmentCount(), 1u);
  // Every segment file stays within the configured size.
  for (const std::string& name : ListNames(dir.get())) {
    std::shared_ptr<PagedFile> raw;
    ASSERT_TRUE(dir->Open(name, &raw).ok());
    EXPECT_LE(raw->Size(), 192u) << name;
  }
  // Replay crosses every boundary in order.
  EXPECT_EQ(ReplayTimestamps(wal.get()), expect);
}

TEST(WalSegments, LsnsStayMonotonicAndContiguousAcrossRolls) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir, TinySegments());
  Lsn prev_end = wal->NextLsn();
  for (int i = 1; i <= 40; ++i) {
    const Lsn lsn = *wal->Append(SmallRecord(i, i));
    // Contiguous lsn space: each record starts exactly where the previous
    // one ended, even when the physical write moved to a new segment.
    EXPECT_EQ(lsn, prev_end);
    prev_end = wal->NextLsn();
    EXPECT_GT(prev_end, lsn);
  }
  ASSERT_GT(wal->SegmentCount(), 2u);
  // Replayed lsns come back identical and strictly increasing.
  std::vector<Lsn> lsns;
  ASSERT_TRUE(wal->ReadFrom(0, [&](Lsn lsn, const WalRecord&) {
                   lsns.push_back(lsn);
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(lsns.size(), 40u);
  for (size_t i = 1; i < lsns.size(); ++i) EXPECT_GT(lsns[i], lsns[i - 1]);
}

TEST(WalSegments, FramesDecodeIndividuallyAcrossRolls) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir, TinySegments());
  // Each append returns its own frame's lsn and end; replay hands back the
  // same lsn with the same record, one frame at a time, across every roll.
  std::vector<std::pair<Lsn, Timestamp>> appended;
  for (int i = 1; i <= 16; ++i) {
    Lsn end = 0;
    auto lsn = wal->Append(SmallRecord(i, i * 10), /*pin=*/false, &end);
    ASSERT_TRUE(lsn.ok());
    EXPECT_GT(end, *lsn);
    EXPECT_EQ(end, wal->NextLsn());
    appended.emplace_back(*lsn, i * 10);
  }
  EXPECT_GT(wal->SegmentCount(), 1u);
  std::vector<std::pair<Lsn, Timestamp>> replayed;
  ASSERT_TRUE(wal->ReadFrom(0, [&](Lsn lsn, const WalRecord& record) {
                   replayed.emplace_back(lsn, record.commit_ts);
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(replayed, appended);
}

TEST(WalSegments, OversizedRecordGetsItsOwnSegment) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir, TinySegments(128));
  ASSERT_TRUE(wal->Append(SmallRecord(1, 10)).ok());
  // MakeRecord's frame is far larger than a 128-byte segment: it must still
  // append (one segment to itself) and replay.
  ASSERT_TRUE(wal->Append(MakeRecord(2, 20)).ok());
  ASSERT_TRUE(wal->Append(SmallRecord(3, 30)).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{10, 20, 30}));
}

/// Appends SmallRecord(i, i * 10) for i = first, first + 1, … with
/// "wal.append.fail_after_roll" armed to fail once, until the append that
/// rolls fails; returns that append's i (0 if none failed by `last`). Every
/// earlier i lands in `expect`.
int AppendUntilFailedRoll(Wal* wal, SyncPoints* registry, int first,
                          int last, std::vector<Timestamp>* expect) {
  ArmedPoints points(registry);
  points.Fail("wal.append.fail_after_roll", /*nth=*/1);
  for (int i = first; i <= last; ++i) {
    Status s = wal->Append(SmallRecord(i, i * 10)).status();
    if (!s.ok()) {
      EXPECT_TRUE(s.IsIOError()) << s.ToString();
      return i;
    }
    expect->push_back(i * 10);
  }
  return 0;
}

TEST(WalSegments, FailedWriteAfterRollIsRolledBack) {
  auto dir = std::make_shared<InMemoryDir>();
  SyncPoints registry;
  WalOptions options = TinySegments();
  options.sync_points = &registry;
  auto wal = OpenWal(dir, options);
  ASSERT_TRUE(wal->Append(SmallRecord(1, 10)).ok());

  // Append until one rolls, armed to fail right after the roll: the fresh
  // (empty) segment is un-rolled, leaving the chain as it was before that
  // append.
  std::vector<Timestamp> expect{10};
  const int failed =
      AppendUntilFailedRoll(wal.get(), &registry, 2, 17, &expect);
  ASSERT_GT(failed, 2);
  EXPECT_EQ(wal->SegmentCount(), 1u);  // The fresh segment was un-rolled.

  // The log is fully usable: appends land at the cursor (the failed frame
  // retried rolls for real) and everything replays.
  for (int i = failed; i <= 17; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    expect.push_back(i * 10);
  }
  EXPECT_GT(wal->SegmentCount(), 1u);
  ASSERT_TRUE(wal->Append(SmallRecord(99, 990)).ok());
  expect.push_back(990);
  EXPECT_EQ(ReplayTimestamps(wal.get()), expect);
  // And a reopen sees the same consistent chain.
  wal.reset();
  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
}

TEST(WalSegments, ChainSurvivesReopen) {
  auto dir = std::make_shared<InMemoryDir>();
  std::vector<Timestamp> expect;
  uint64_t segments;
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
      expect.push_back(i * 10);
    }
    segments = wal->SegmentCount();
    ASSERT_GT(segments, 1u);
  }
  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_EQ(reopened->SegmentCount(), segments);
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
  // Appends continue above everything ever written.
  const Lsn next = reopened->NextLsn();
  EXPECT_GT(*reopened->Append(SmallRecord(99, 990)), 0u);
  EXPECT_GT(reopened->NextLsn(), next);
}

// ---------------------------------------------------------------------------
// Prefix truncation = unconditional whole-segment reclamation
// ---------------------------------------------------------------------------

TEST(WalTruncatePrefix, DropsOnlyThePrefix) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Append(MakeRecord(2, 20)).ok());
  const Lsn third = *wal->Append(MakeRecord(3, 30));

  ASSERT_TRUE(wal->TruncatePrefix(third).ok());
  EXPECT_EQ(wal->HeadLsn(), third);
  EXPECT_EQ(ReplayTimestamps(wal.get()), (std::vector<Timestamp>{30}));

  // Appends continue above the truncated prefix; lsns stay monotonic.
  const Lsn fourth = *wal->Append(MakeRecord(4, 40));
  EXPECT_GT(fourth, third);
  EXPECT_EQ(ReplayTimestamps(wal.get()), (std::vector<Timestamp>{30, 40}));
}

TEST(WalTruncatePrefix, AtZeroAndBelowHeadAreNoOps) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  // Truncating an empty log at zero does nothing.
  ASSERT_TRUE(wal->TruncatePrefix(0).ok());
  EXPECT_EQ(wal->HeadLsn(), 0u);
  EXPECT_EQ(wal->SizeBytes(), 0u);

  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  const Lsn second = *wal->Append(MakeRecord(2, 20));
  ASSERT_TRUE(wal->TruncatePrefix(second).ok());
  const uint64_t live = wal->SizeBytes();

  // Zero (and anything at or below the head) must not move the head back.
  ASSERT_TRUE(wal->TruncatePrefix(0).ok());
  ASSERT_TRUE(wal->TruncatePrefix(second).ok());
  EXPECT_EQ(wal->HeadLsn(), second);
  EXPECT_EQ(wal->SizeBytes(), live);
  EXPECT_EQ(ReplayTimestamps(wal.get()).size(), 1u);
}

TEST(WalTruncatePrefix, AtEndEmptiesLogAndBeyondEndIsRejected) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Append(MakeRecord(2, 20)).ok());
  const Lsn end = wal->NextLsn();

  EXPECT_TRUE(wal->TruncatePrefix(end + 1).IsInvalidArgument());

  ASSERT_TRUE(wal->TruncatePrefix(end).ok());
  EXPECT_EQ(wal->SizeBytes(), 0u);
  EXPECT_TRUE(ReplayTimestamps(wal.get()).empty());

  // The log is still appendable, with monotonically continuing lsns.
  const Lsn next = *wal->Append(MakeRecord(3, 30));
  EXPECT_GE(next, end);
  EXPECT_EQ(ReplayTimestamps(wal.get()).size(), 1u);
}

TEST(WalTruncatePrefix, UnlinksWholeSegmentsOnAnyBackend) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir, TinySegments());
  for (int i = 1; i <= 24; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
  }
  const uint64_t before_segments = wal->SegmentCount();
  const uint64_t before_phys = wal->PhysicalBytes();
  ASSERT_GT(before_segments, 2u);

  // Truncate at the append cursor: every segment below the active one is
  // physically unlinked — no hole punching, no quiescent rebase, the file
  // count and byte footprint actually shrink.
  ASSERT_TRUE(wal->TruncatePrefix(wal->NextLsn()).ok());
  EXPECT_EQ(wal->SegmentCount(), 1u);
  EXPECT_LT(wal->PhysicalBytes(), before_phys);
  EXPECT_EQ(wal->segments_deleted(), before_segments - 1);
  EXPECT_EQ(ListNames(dir.get()).size(), 1u);  // Only the active segment.
  EXPECT_TRUE(ReplayTimestamps(wal.get()).empty());

  // Appends and replay continue normally.
  ASSERT_TRUE(wal->Append(SmallRecord(99, 990)).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()), (std::vector<Timestamp>{990}));
}

TEST(WalTruncatePrefix, PartialSegmentStaysUntilWhollyDead) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir, TinySegments());
  std::vector<Lsn> lsns;
  std::vector<Timestamp> ts;
  for (int i = 1; i <= 24; ++i) {
    lsns.push_back(*wal->Append(SmallRecord(i, i * 10)));
    ts.push_back(i * 10);
  }
  ASSERT_GT(wal->SegmentCount(), 2u);
  // Truncate to a mid-chain record: segments wholly below go away, the one
  // containing the cut stays (its tail is live).
  const size_t cut = 13;
  const uint64_t before = wal->SegmentCount();
  ASSERT_TRUE(wal->TruncatePrefix(lsns[cut]).ok());
  EXPECT_LT(wal->SegmentCount(), before);
  EXPECT_GE(wal->SegmentCount(), 1u);
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            std::vector<Timestamp>(ts.begin() + cut, ts.end()));
}

TEST(WalTruncatePrefix, HeadSurvivesReopenAtSegmentGranularity) {
  auto dir = std::make_shared<InMemoryDir>();
  std::vector<Timestamp> live;
  Lsn head_after_truncate;
  {
    auto wal = OpenWal(dir, TinySegments());
    std::vector<Lsn> lsns;
    for (int i = 1; i <= 24; ++i) {
      lsns.push_back(*wal->Append(SmallRecord(i, i * 10)));
    }
    ASSERT_GT(wal->SegmentCount(), 2u);
    ASSERT_TRUE(wal->TruncatePrefix(lsns[13]).ok());
    head_after_truncate = wal->HeadLsn();
    ASSERT_TRUE(wal->ReadAll([&](const WalRecord& record) {
                     live.push_back(record.commit_ts);
                     return Status::OK();
                   })
                    .ok());
  }
  auto reopened = OpenWal(dir, TinySegments());
  // The head is re-derived from the oldest retained segment: at or below
  // the pre-crash logical head, never above it (nothing live is lost).
  EXPECT_LE(reopened->HeadLsn(), head_after_truncate);
  std::vector<Timestamp> replayed = ReplayTimestamps(reopened.get());
  // Replay may include a few already-applied records from the partially
  // truncated segment (idempotent), but the live suffix must be intact.
  ASSERT_GE(replayed.size(), live.size());
  EXPECT_TRUE(std::equal(live.rbegin(), live.rend(), replayed.rbegin()));
}

TEST(WalTruncatePrefix, TornTailAfterTruncationStillDetected) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  ASSERT_TRUE(wal->Append(MakeRecord(1, 10)).ok());
  const Lsn second = *wal->Append(MakeRecord(2, 20));
  ASSERT_TRUE(wal->TruncatePrefix(second).ok());
  ASSERT_TRUE(wal->Append(MakeRecord(3, 30)).ok());

  // Torn frame beyond the valid suffix.
  std::shared_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(wal->SegmentNameOf(wal->NextLsn()), &raw).ok());
  const char torn[] = "\x30\x00\x00\x00\x77\x77\x77\x77half";
  ASSERT_TRUE(raw->WriteAt(wal->PhysOf(wal->NextLsn()), torn, sizeof torn).ok());

  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{20, 30}));  // prefix gone, tail cut
  // The torn bytes were truncated; appends continue cleanly.
  ASSERT_TRUE(wal->Append(MakeRecord(4, 40)).ok());
  EXPECT_EQ(ReplayTimestamps(wal.get()),
            (std::vector<Timestamp>{20, 30, 40}));
}

// ---------------------------------------------------------------------------
// One way in (build, then adopt by rename), one way out (unlink)
// ---------------------------------------------------------------------------

TEST(WalSegments, TruncationLeavesOnlyTheChainAndOnePrepFile) {
  auto dir = std::make_shared<InMemoryDir>();
  WalOptions options = TinySegments();
  options.async_flush = true;
  options.preallocate = true;
  auto wal = OpenWal(dir, options);
  for (int i = 1; i <= 48; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  const uint64_t retired = wal->SegmentCount() - 1;
  ASSERT_GE(retired, 2u);
  ASSERT_TRUE(wal->TruncatePrefix(wal->NextLsn()).ok());

  // Every retired segment was unlinked; what is left is the active
  // segment plus at most the flusher's built next one.
  EXPECT_EQ(wal->segments_deleted(), retired);
  EXPECT_EQ(wal->SegmentCount(), 1u);
  const int prep = CountPrefixed(dir.get(), "wal.prep.");
  EXPECT_LE(prep, 1);
  EXPECT_EQ(ListNames(dir.get()).size(), 1u + prep);
  EXPECT_TRUE(dir->Exists(wal->SegmentNameOf(wal->NextLsn())));
}

TEST(WalSegments, InlineRollsBuildThenAdoptWithoutPreallocation) {
  auto dir = std::make_shared<InMemoryDir>();
  std::vector<Timestamp> expect;
  {
    WalOptions options = TinySegments();
    options.preallocate = false;
    auto wal = OpenWal(dir, options);
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
      expect.push_back(i * 10);
    }
    ASSERT_GT(wal->SegmentCount(), 2u);
    // Every segment, the first one included, was built inline and adopted;
    // none came from a flusher build.
    EXPECT_EQ(wal->segments_created(), wal->SegmentCount());
    EXPECT_EQ(wal->segments_preallocated(), 0u);
    EXPECT_EQ(CountPrefixed(dir.get(), "wal.prep."), 0);
    EXPECT_EQ(ListNames(dir.get()).size(), wal->SegmentCount());
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
}

/// Forwards to an InMemoryDir, failing the Remove calls it is armed for.
class FlakyRemoveDir : public Dir {
 public:
  explicit FlakyRemoveDir(std::shared_ptr<InMemoryDir> inner)
      : inner_(std::move(inner)) {}

  Status List(std::vector<std::string>* names) const override {
    return inner_->List(names);
  }
  Status Open(const std::string& name,
              std::shared_ptr<PagedFile>* out) override {
    return inner_->Open(name, out);
  }
  Status OpenExisting(const std::string& name,
                      std::shared_ptr<PagedFile>* out) override {
    return inner_->OpenExisting(name, out);
  }
  bool Exists(const std::string& name) const override {
    return inner_->Exists(name);
  }
  Status Remove(const std::string& name) override {
    if (fail_removes > 0) {
      --fail_removes;
      return Status::IOError("injected unlink failure: " + name);
    }
    return inner_->Remove(name);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return inner_->Rename(from, to);
  }
  Status SyncDir() override { return inner_->SyncDir(); }

  int fail_removes = 0;

 private:
  std::shared_ptr<InMemoryDir> inner_;
};

TEST(WalTruncatePrefix, FailedUnlinkKeepsTheChainContiguous) {
  auto mem = std::make_shared<InMemoryDir>();
  auto flaky = std::make_shared<FlakyRemoveDir>(mem);
  std::vector<Lsn> lsns;
  std::vector<Timestamp> ts;
  {
    Wal wal(flaky, TinySegments());
    ASSERT_TRUE(wal.Open().ok());
    for (int i = 1; i <= 48; ++i) {
      lsns.push_back(*wal.Append(SmallRecord(i, i * 10)));
      ts.push_back(i * 10);
    }
    const uint64_t segments = wal.SegmentCount();
    ASSERT_GT(segments, 3u);

    // The first retirement's unlink fails: the truncation fails, and the
    // segment stays at the chain front instead of vanishing from it.
    flaky->fail_removes = 1;
    EXPECT_FALSE(wal.TruncatePrefix(lsns[36]).ok());
    EXPECT_EQ(wal.SegmentCount(), segments);
    EXPECT_EQ(wal.segments_deleted(), 0u);

    // A later truncation retries it and retires the rest in order.
    ASSERT_TRUE(wal.TruncatePrefix(lsns[36]).ok());
    EXPECT_LT(wal.SegmentCount(), segments);
    EXPECT_EQ(wal.segments_deleted(), segments - wal.SegmentCount());
  }
  // No gap on disk: reopen accepts the chain and replays the live suffix.
  Wal reopened(mem, TinySegments());
  ASSERT_TRUE(reopened.Open().ok());
  std::vector<Timestamp> replayed;
  ASSERT_TRUE(reopened
                  .ReadAll([&](const WalRecord& record) {
                    replayed.push_back(record.commit_ts);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_GE(replayed.size(), ts.size() - 36);
  EXPECT_TRUE(std::equal(replayed.rbegin(), replayed.rend(), ts.rbegin()));
}

// ---------------------------------------------------------------------------
// Chain validation at Open: orphans, gaps, half-created segments
// ---------------------------------------------------------------------------

TEST(WalChain, HalfCreatedNewestSegmentIsDiscarded) {
  auto dir = std::make_shared<InMemoryDir>();
  std::vector<Timestamp> expect;
  uint64_t last_index_plus_one;
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
      expect.push_back(i * 10);
    }
    last_index_plus_one = wal->SegmentCount() + 1;
  }
  // Simulate a crash during segment creation: a newest segment file whose
  // header never became durable (garbage bytes).
  std::shared_ptr<PagedFile> husk;
  ASSERT_TRUE(dir->Open(Wal::SegmentName(last_index_plus_one), &husk).ok());
  ASSERT_TRUE(husk->WriteAt(0, "garbage-half-written-header", 27).ok());

  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_FALSE(dir->Exists(Wal::SegmentName(last_index_plus_one)));
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
  // Appends continue; the discarded index is never resurrected with stale
  // content (a fresh header is written before any frame).
  ASSERT_TRUE(reopened->Append(SmallRecord(99, 990)).ok());
  expect.push_back(990);

  // The next roll reuses the discarded index, so the chain stays
  // contiguous and opens again (skipping it left a gap Open() refuses).
  const uint64_t segments = reopened->SegmentCount();
  for (int i = 100; reopened->SegmentCount() == segments; ++i) {
    ASSERT_TRUE(reopened->Append(SmallRecord(i, i * 10)).ok());
    expect.push_back(i * 10);
  }
  EXPECT_TRUE(dir->Exists(Wal::SegmentName(last_index_plus_one)));
  reopened.reset();
  auto again = std::make_unique<Wal>(dir, TinySegments());
  ASSERT_TRUE(again->Open().ok());
  EXPECT_EQ(ReplayTimestamps(again.get()), expect);
}

TEST(WalChain, ValidEmptyNewestSegmentIsAccepted) {
  // The state a REAL crash at the post-create point leaves behind: a fully
  // created (valid header, zero frames) segment at the end of the chain
  // that no append ever entered. Open must adopt it, not reject it.
  auto dir = std::make_shared<InMemoryDir>();
  std::vector<Timestamp> expect;
  uint64_t segments;
  Lsn cursor;
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
      expect.push_back(i * 10);
    }
    segments = wal->SegmentCount();
    cursor = wal->NextLsn();
    ASSERT_GT(segments, 1u);
  }
  // Craft the half-adopted segment: valid header anchored at the cursor.
  char header[32] = {};
  EncodeFixed32(header, 0x3153574e);  // "NWS1"
  EncodeFixed32(header + 4, 1);       // version
  EncodeFixed64(header + 8, cursor);  // base
  EncodeFixed64(header + 16, 7);      // epoch
  EncodeFixed32(header + 24, Crc32c(header, 24));
  std::shared_ptr<PagedFile> crafted;
  ASSERT_TRUE(dir->Open(Wal::SegmentName(segments + 1), &crafted).ok());
  ASSERT_TRUE(crafted->WriteAt(0, header, sizeof header).ok());
  crafted.reset();

  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_EQ(reopened->SegmentCount(), segments + 1);
  EXPECT_EQ(reopened->NextLsn(), cursor);
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
  ASSERT_TRUE(reopened->Append(SmallRecord(99, 990)).ok());
  expect.push_back(990);
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
}

TEST(WalChain, LeftoverFreePoolFileIsRemovedAtOpen) {
  // Older versions parked retired segments in a recycle pool under
  // wal.free.N names. Such a file is never part of the chain: reopen drops
  // it, replays the chain alone, and rolls on as usual.
  auto dir = std::make_shared<InMemoryDir>();
  std::vector<Timestamp> expect;
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
      expect.push_back(i * 10);
    }
  }
  // The pool kept a retired segment's bytes as they were: valid header,
  // valid frames.
  std::shared_ptr<PagedFile> retired;
  ASSERT_TRUE(dir->Open(Wal::SegmentName(1), &retired).ok());
  std::vector<char> bytes(retired->Size());
  ASSERT_TRUE(retired->ReadAt(0, bytes.size(), bytes.data()).ok());
  std::shared_ptr<PagedFile> free_file;
  ASSERT_TRUE(dir->Open("wal.free.000003", &free_file).ok());
  ASSERT_TRUE(free_file->WriteAt(0, bytes.data(), bytes.size()).ok());
  free_file.reset();

  auto reopened = OpenWal(dir, TinySegments());
  EXPECT_FALSE(dir->Exists("wal.free.000003"));
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
  const uint64_t segments = reopened->SegmentCount();
  for (int i = 25; i <= 48; ++i) {
    ASSERT_TRUE(reopened->Append(SmallRecord(i, i * 10)).ok());
    expect.push_back(i * 10);
  }
  EXPECT_GT(reopened->SegmentCount(), segments);
  EXPECT_EQ(ReplayTimestamps(reopened.get()), expect);
}

TEST(WalChain, MissingMiddleSegmentIsCorruption) {
  auto dir = std::make_shared<InMemoryDir>();
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    }
    ASSERT_GT(wal->SegmentCount(), 2u);
  }
  // A hole in the middle of the chain is a hole in the lsn space: refuse to
  // open rather than silently replay around missing committed records.
  ASSERT_TRUE(dir->Remove(Wal::SegmentName(2)).ok());
  Wal broken(dir, TinySegments());
  EXPECT_TRUE(broken.Open().IsCorruption());
}

TEST(WalChain, BadHeaderInsideTheChainIsCorruption) {
  auto dir = std::make_shared<InMemoryDir>();
  {
    auto wal = OpenWal(dir, TinySegments());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    }
    ASSERT_GT(wal->SegmentCount(), 2u);
  }
  // Corrupt a NON-newest segment header: unlike the newest (where a torn
  // header means a crash before any frame), this is data loss — fail stop.
  std::shared_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(Wal::SegmentName(2), &raw).ok());
  char byte;
  ASSERT_TRUE(raw->ReadAt(9, 1, &byte).ok());
  byte ^= 0x5a;
  ASSERT_TRUE(raw->WriteAt(9, &byte, 1).ok());
  Wal broken(dir, TinySegments());
  EXPECT_TRUE(broken.Open().IsCorruption());
}

TEST(WalChain, TornFrameInsideOlderSegmentFailsReplayLoudly) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir, TinySegments());
  std::vector<Lsn> lsns;
  for (int i = 1; i <= 24; ++i) {
    lsns.push_back(*wal->Append(SmallRecord(i, i * 10)));
  }
  ASSERT_GT(wal->SegmentCount(), 2u);
  // Corrupt a frame in the FIRST segment: older segments were synced before
  // the chain rolled past them, so this is corruption of durably-acked
  // records — replay must say so, not silently truncate them away.
  std::shared_ptr<PagedFile> raw;
  ASSERT_TRUE(dir->Open(wal->SegmentNameOf(lsns[0]), &raw).ok());
  char byte;
  ASSERT_TRUE(raw->ReadAt(wal->PhysOf(lsns[0]) + 12, 1, &byte).ok());
  byte ^= 0x40;
  ASSERT_TRUE(raw->WriteAt(wal->PhysOf(lsns[0]) + 12, &byte, 1).ok());
  Status s = wal->ReadAll([](const WalRecord&) { return Status::OK(); });
  EXPECT_TRUE(s.IsCorruption()) << s;
}

// ---------------------------------------------------------------------------
// LSN pins / stable LSN (the fuzzy checkpoint's truncation bound)
// ---------------------------------------------------------------------------

TEST(WalPins, StableLsnTracksOldestPin) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  EXPECT_EQ(wal->StableLsn(), wal->NextLsn());

  const Lsn a = *wal->Append(MakeRecord(1, 10), /*pin=*/true);
  const Lsn b = *wal->Append(MakeRecord(2, 20), /*pin=*/true);
  ASSERT_TRUE(wal->Append(MakeRecord(3, 30)).ok());  // unpinned
  EXPECT_EQ(wal->PinnedCount(), 2u);
  EXPECT_EQ(wal->StableLsn(), a);

  wal->Unpin(a);
  EXPECT_EQ(wal->StableLsn(), b);
  wal->Unpin(b);
  EXPECT_EQ(wal->PinnedCount(), 0u);
  EXPECT_EQ(wal->StableLsn(), wal->NextLsn());
}

TEST(WalPins, TruncationNeverPassesAPinAcrossSegments) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir, TinySegments());
  const Lsn pinned = *wal->Append(SmallRecord(1, 10), /*pin=*/true);
  for (int i = 2; i <= 24; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
  }
  ASSERT_GT(wal->SegmentCount(), 2u);
  // The stable lsn is held at the pin, so a checkpoint-driven truncation
  // cannot retire the pin's segment even though the chain rolled past it.
  ASSERT_TRUE(wal->TruncatePrefix(wal->StableLsn()).ok());
  EXPECT_EQ(wal->HeadLsn(), pinned);
  std::vector<Timestamp> replayed = ReplayTimestamps(wal.get());
  ASSERT_EQ(replayed.size(), 24u);
  EXPECT_EQ(replayed.front(), 10u);
  wal->Unpin(pinned);
  ASSERT_TRUE(wal->TruncatePrefix(wal->StableLsn()).ok());
  EXPECT_EQ(wal->SegmentCount(), 1u);
}

// Durable commits in both flush modes: inline (the committer runs the fsync
// pass) and async (the flusher thread does).
class WalFlushModes : public testing::TestWithParam<bool> {
 protected:
  WalOptions Options(WalOptions options = {}) const {
    options.async_flush = GetParam();
    return options;
  }
};

INSTANTIATE_TEST_SUITE_P(Modes, WalFlushModes, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "async"
                                                         : "inline");
                         });

TEST_P(WalFlushModes, GroupCommitPinsEveryPinnedParticipant) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir, Options());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const WalRecord record = MakeRecord(t * kPerThread + i + 1, 1);
        auto lsn = wal->group().Commit(record, /*sync=*/true, /*pin=*/true);
        if (!lsn.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // The record must be pin-protected until we release it.
        if (wal->StableLsn() > *lsn) failures.fetch_add(1);
        wal->Unpin(*lsn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal->PinnedCount(), 0u);
  EXPECT_EQ(wal->StableLsn(), wal->NextLsn());
  EXPECT_GE(wal->FlushedLsn(), wal->NextLsn());
}

TEST_P(WalFlushModes, ConcurrentSyncCommitsAllDurableAndDecodable) {
  auto dir = std::make_shared<InMemoryDir>();
  // Small segments: concurrent durable commits roll the chain many times
  // mid-flight.
  auto wal = OpenWal(dir, Options(TinySegments(512)));

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const WalRecord record =
            MakeRecord(t * kPerThread + i + 1, (t * kPerThread + i + 1) * 10);
        auto lsn = wal->group().Commit(record, /*sync=*/true);
        if (!lsn.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal->group().records(), uint64_t{kThreads * kPerThread});
  EXPECT_GT(wal->SegmentCount(), 1u);
  EXPECT_GE(wal->FlushedLsn(), wal->NextLsn());

  // Every record must decode, exactly once.
  std::vector<TxnId> seen;
  ASSERT_TRUE(wal->ReadAll([&](const WalRecord& record) {
                   seen.push_back(record.txn_id);
                   return Status::OK();
                 })
                  .ok());
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), size_t{kThreads * kPerThread});
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<TxnId>(i + 1));
  }
}

TEST(GroupCommitter, InlineDurableCommitsShareAnFsync) {
  auto dir = std::make_shared<InMemoryDir>();
  SyncPoints registry;
  WalOptions options;
  options.sync_points = &registry;
  auto wal = OpenWal(dir, options);  // Inline flush: committers fsync.
  ArmedPoints points(&registry);
  points.Park("wal.sync.fail");

  // The first committer appends and parks inside its fsync pass, holding
  // the pass mutex; its pass read the cursor before parking.
  std::vector<Result<Lsn>> acks(3, Status::IOError("not acked"));
  std::vector<std::thread> committers;
  committers.emplace_back([&] {
    acks[0] = wal->group().Commit(SmallRecord(1, 10), /*sync=*/true);
  });
  ASSERT_TRUE(points.WaitFor("wal.sync.fail"));
  const Lsn first_end = wal->NextLsn();
  const Lsn frame = first_end;  // The log starts at lsn 0.
  ASSERT_GT(frame, 0u);

  // Two more committers append, then queue behind the parked pass.
  for (int i = 1; i <= 2; ++i) {
    committers.emplace_back([&, i] {
      acks[i] = wal->group().Commit(SmallRecord(i + 1, (i + 1) * 10),
                                    /*sync=*/true);
    });
  }
  while (wal->NextLsn() < first_end + 2 * frame) std::this_thread::yield();
  points.Release("wal.sync.fail");
  for (auto& committer : committers) committer.join();

  // The parked pass covered the first frame only; the next pass covered
  // both queued frames, and the last committer found its frame covered.
  for (const auto& ack : acks) {
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_LT(*ack, wal->FlushedLsn());
  }
  EXPECT_EQ(wal->group().batches(), 2u);
  EXPECT_EQ(wal->group().records(), 3u);
  EXPECT_EQ(wal->FlushedLsn(), wal->NextLsn());
}

// --- sticky poison & async commit I/O ----------------------------------------

TEST(WalPoison, SyncEioPoisonsUntilReopen) {
  auto dir = std::make_shared<InMemoryDir>();
  SyncPoints registry;
  WalOptions options;
  options.sync_points = &registry;
  auto wal = OpenWal(dir, options);  // Inline flush: the caller fsyncs.
  ASSERT_TRUE(wal->Append(SmallRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(wal->Append(SmallRecord(2, 20)).ok());

  {
    ArmedPoints points(&registry);
    points.Fail("wal.sync.fail");
    EXPECT_TRUE(wal->Sync().IsIOError());
    EXPECT_TRUE(wal->poisoned());
  }

  // Sticky: the fault is gone, but the log stays wedged — after a failed
  // fsync the kernel may have dropped the dirty pages, so a later clean
  // fsync acking them would be fsyncgate.
  EXPECT_TRUE(wal->Sync().IsIOError());
  EXPECT_TRUE(wal->Append(SmallRecord(3, 30)).status().IsIOError());
  EXPECT_TRUE(
      wal->Append(SmallRecord(4, 40), /*pin=*/true).status().IsIOError());
  EXPECT_EQ(wal->PinnedCount(), 0u);  // A rejected append pins nothing.
  EXPECT_TRUE(wal->group().Commit(SmallRecord(5, 50), true).status().IsIOError());
  EXPECT_TRUE(wal->PoisonedStatus().IsIOError());

  // Reopen re-reads what is really durable: the synced record survives,
  // the unsynced one was dropped with the failed write-back (the injected
  // EIO simulates exactly the kernel's behavior) — never a torn state.
  wal.reset();
  auto reopened = OpenWal(dir);
  EXPECT_FALSE(reopened->poisoned());
  EXPECT_EQ(ReplayTimestamps(reopened.get()), (std::vector<Timestamp>{10}));
  ASSERT_TRUE(reopened->Append(SmallRecord(6, 60)).ok());
  ASSERT_TRUE(reopened->Sync().ok());
}

TEST(WalPoison, ConcurrentSyncersSeeStickyFailure) {
  auto dir = std::make_shared<InMemoryDir>();
  SyncPoints registry;
  WalOptions options;
  options.sync_points = &registry;
  auto wal = OpenWal(dir, options);
  // Fire on the 5th sync pass so several threads are mid-flight when the
  // EIO lands. The poisoned-flag check-then-publish is what TSan is
  // pointed at: a peer's fsync+watermark-advance must never interleave
  // with the poisoning pass in a way that acks lost bytes.
  ArmedPoints points(&registry);
  points.Fail("wal.sync.fail", /*nth=*/5);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool failed = false;
      for (int i = 0; i < kPerThread; ++i) {
        const TxnId txn = static_cast<TxnId>(t * kPerThread + i + 1);
        Status s = wal->Append(SmallRecord(txn, txn * 10)).status();
        if (s.ok()) s = wal->Sync();
        if (s.ok()) {
          // Per-thread monotonicity: once this thread has seen the sticky
          // failure, nothing it does may be acked again.
          EXPECT_FALSE(failed) << "ack after poison on thread " << t;
        } else {
          EXPECT_TRUE(s.IsIOError()) << s.ToString();
          failed = true;
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(wal->poisoned());
  EXPECT_GT(failures.load(), 0);
  EXPECT_TRUE(wal->Sync().IsIOError());
}

TEST(WalAsyncFlush, WatermarkAcksExactlyTheSyncedPrefix) {
  auto dir = std::make_shared<InMemoryDir>();
  WalOptions options;
  options.async_flush = true;
  auto wal = OpenWal(dir, options);
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
  }
  // Sync() hands the cursor to the flusher and blocks on the watermark.
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->FlushedLsn(), wal->NextLsn());

  // Group commit through the async hand-off: the ack implies the record's
  // LSN is at or below the watermark.
  auto lsn = wal->group().Commit(SmallRecord(9, 90), /*sync=*/true);
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(wal->FlushedLsn(), *lsn);
  EXPECT_EQ(wal->FlushedLsn(), wal->NextLsn());

  wal.reset();
  auto reopened = OpenWal(dir, options);
  EXPECT_EQ(ReplayTimestamps(reopened.get()).size(), 9u);
}

TEST(WalAsyncFlush, PoisonFailsWaitersAndLaterCommits) {
  auto dir = std::make_shared<InMemoryDir>();
  SyncPoints registry;
  WalOptions options;
  options.async_flush = true;
  options.sync_points = &registry;
  auto wal = OpenWal(dir, options);
  ASSERT_TRUE(wal->Append(SmallRecord(1, 10)).ok());
  ASSERT_TRUE(wal->Sync().ok());

  {
    ArmedPoints points(&registry);
    points.Fail("wal.sync.fail");
    ASSERT_TRUE(wal->Append(SmallRecord(2, 20)).ok());
    // The flusher hits the EIO; the blocked waiter must be failed, not left
    // hanging, and the already-durable watermark must not retreat.
    EXPECT_TRUE(wal->Sync().IsIOError());
    EXPECT_TRUE(wal->poisoned());
  }
  EXPECT_TRUE(wal->group().Commit(SmallRecord(3, 30), true).status().IsIOError());

  wal.reset();
  auto reopened = OpenWal(dir, options);
  EXPECT_EQ(ReplayTimestamps(reopened.get()), (std::vector<Timestamp>{10}));
}

TEST(WalPrealloc, RollsAdoptPreparedSegmentsAndReopenDiscardsPrepFiles) {
  auto dir = std::make_shared<InMemoryDir>();
  WalOptions options = TinySegments(192);
  options.async_flush = true;
  options.preallocate = true;
  auto wal = OpenWal(dir, options);
  constexpr int kRecords = 120;
  for (int i = 1; i <= kRecords; ++i) {
    // A loaded host need not schedule the flusher between one Sync and the
    // next roll: wait until its prepared segment exists. Only a roll
    // consumes it, so every roll below is a rename adoption.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!wal->HasPreparedSegment() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  EXPECT_GT(wal->SegmentCount(), 1u);
  EXPECT_GT(wal->segments_preallocated(), 0u);

  // The flusher may leave a prepared-but-unadopted wal.prep.* file behind
  // at shutdown; reopen must discard it (its header was never written, so
  // adopting it would be chain corruption) and replay everything. Reopen
  // without preallocation: the discard does not depend on it, and a new
  // flusher could otherwise prepare a fresh wal.prep.* before the listing.
  wal.reset();
  options.preallocate = false;
  auto reopened = OpenWal(dir, options);
  for (const std::string& name : ListNames(dir.get())) {
    EXPECT_EQ(name.rfind("wal.prep.", 0), std::string::npos) << name;
  }
  EXPECT_EQ(ReplayTimestamps(reopened.get()).size(), size_t{kRecords});
  ASSERT_TRUE(reopened->Append(SmallRecord(kRecords + 1, 9990)).ok());
  ASSERT_TRUE(reopened->Sync().ok());
}

// ---------------------------------------------------------------------------
// Fill-ahead: the active segment stays zero-filled past the append cursor
// ---------------------------------------------------------------------------

/// A PosixDir in a fresh temp directory, removed afterwards.
class WalFillAhead : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("neosi_wal_fill_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
    dir_ = std::make_shared<PosixDir>(path_.string());
  }
  void TearDown() override { std::filesystem::remove_all(path_); }

  std::unique_ptr<Wal> Open(WalOptions options = {}) {
    auto wal = std::make_unique<Wal>(dir_, options);
    EXPECT_TRUE(wal->Open().ok());
    return wal;
  }

  /// The segment holding the append cursor, opened raw.
  std::shared_ptr<PagedFile> ActiveFile(const Wal& wal) {
    std::shared_ptr<PagedFile> file;
    EXPECT_TRUE(dir_->Open(wal.SegmentNameOf(wal.NextLsn()), &file).ok());
    return file;
  }

  std::vector<Timestamp> Replay(Wal* wal) {
    std::vector<Timestamp> seen;
    EXPECT_TRUE(wal->ReadAll([&](const WalRecord& record) {
                     seen.push_back(record.commit_ts);
                     return Status::OK();
                   })
                    .ok());
    return seen;
  }

  std::filesystem::path path_;
  std::shared_ptr<PosixDir> dir_;
};

/// `record` as one on-disk frame: [len u32][crc32c u32][payload].
std::string Frame(const WalRecord& record) {
  std::string payload;
  record.EncodeTo(&payload);
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, Crc32c(payload.data(), payload.size()));
  return frame + payload;
}

/// True iff every byte of `file` in [from, to) is zero.
bool AllZero(const PagedFile& file, uint64_t from, uint64_t to) {
  std::vector<char> buf(to - from);
  if (!file.ReadAt(from, buf.size(), buf.data()).ok()) return false;
  return std::all_of(buf.begin(), buf.end(), [](char c) { return c == 0; });
}

TEST_F(WalFillAhead, CursorToMarkReadsZerosAndTheFileStaysWithinTheSegment) {
  constexpr uint64_t kSegment = 1 << 20;
  static_assert(kSegment > 2 * Wal::kZeroFillWindow);
  auto wal = Open(TinySegments(kSegment));
  std::vector<Timestamp> expect;
  for (int i = 1; wal->SegmentCount() < 3; ++i) {
    ASSERT_TRUE(wal->Append(MakeRecord(i, i)).ok());
    expect.push_back(i);
    if (i % 97 != 0) continue;
    auto file = ActiveFile(*wal);
    const uint64_t cursor = wal->PhysOf(wal->NextLsn());
    const uint64_t size = file->Size();
    ASSERT_LE(size, kSegment);
    // Filled at least half a window ahead, unless the segment ends first.
    EXPECT_GE(size, std::min(cursor + Wal::kZeroFillWindow / 2, kSegment));
    // ...and by at most one window past the append that filled it.
    EXPECT_LE(size, cursor + Wal::kZeroFillWindow);
    EXPECT_TRUE(AllZero(*file, cursor, size)) << "append " << i;
  }
  EXPECT_GT(wal->zero_filled_bytes(), 0u);
  std::vector<std::string> names;
  ASSERT_TRUE(dir_->List(&names).ok());
  for (const std::string& name : names) {
    std::shared_ptr<PagedFile> file;
    ASSERT_TRUE(dir_->Open(name, &file).ok());
    EXPECT_LE(file->Size(), kSegment) << name;
  }
  wal.reset();
  auto reopened = Open(TinySegments(kSegment));
  EXPECT_EQ(Replay(reopened.get()), expect);
}

TEST_F(WalFillAhead, StaleFrameBehindATornFrameIsNeverReplayed) {
  auto wal = Open();
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
  }
  const Lsn cursor = wal->NextLsn();
  const uint64_t phys = wal->PhysOf(cursor);
  // Inside the filled region: a torn frame at the cursor, and behind it a
  // valid frame exactly where the next append (record 4) will end.
  const std::string next = Frame(SmallRecord(4, 40));
  std::string torn = next;
  torn[8] ^= 0x5a;  // Payload no longer matches the crc.
  const std::string stale = Frame(SmallRecord(7, 666));
  {
    auto file = ActiveFile(*wal);
    ASSERT_GE(file->Size(), phys + next.size() + stale.size());
    ASSERT_TRUE(file->WriteAt(phys, torn.data(), torn.size()).ok());
    ASSERT_TRUE(
        file->WriteAt(phys + next.size(), stale.data(), stale.size()).ok());
  }
  wal.reset();  // Crash.

  // Recovery keeps only the prefix before the torn frame...
  wal = Open();
  EXPECT_EQ(wal->NextLsn(), cursor);
  EXPECT_EQ(Replay(wal.get()), (std::vector<Timestamp>{10, 20, 30}));
  // ...and an append that ends exactly at the stale frame's offset never
  // lets a later reopen walk into it.
  ASSERT_TRUE(wal->Append(SmallRecord(4, 40)).ok());
  ASSERT_EQ(wal->PhysOf(wal->NextLsn()), phys + next.size());
  wal.reset();
  wal = Open();
  EXPECT_EQ(Replay(wal.get()), (std::vector<Timestamp>{10, 20, 30, 40}));
}

TEST_F(WalFillAhead, UnrolledSegmentTakesTheNextAppendAndRecovers) {
  SyncPoints registry;
  WalOptions options = TinySegments(4096);
  options.sync_points = &registry;
  auto wal = Open(options);
  std::vector<Timestamp> expect;
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(wal->Append(SmallRecord(i, i * 10)).ok());
    expect.push_back(i * 10);
  }
  // Appends until one rolls and fails right after the roll: the fresh
  // segment is un-rolled and the cursor's segment is active again.
  ASSERT_GT(AppendUntilFailedRoll(wal.get(), &registry, 21, 400, &expect), 0);
  EXPECT_EQ(wal->SegmentCount(), 1u);

  // The next append lands at the cursor, survives the fill behind it, and
  // recovers.
  ASSERT_TRUE(wal->Append(SmallRecord(999, 9990)).ok());
  expect.push_back(9990);
  auto file = ActiveFile(*wal);
  EXPECT_TRUE(AllZero(*file, wal->PhysOf(wal->NextLsn()), file->Size()));
  EXPECT_LE(file->Size(), 4096u);
  EXPECT_EQ(Replay(wal.get()), expect);
  wal.reset();
  wal = Open(TinySegments(4096));
  EXPECT_EQ(Replay(wal.get()), expect);
}

TEST(WalFillAheadInMemory, FileSizeIsTheBytesWritten) {
  auto dir = std::make_shared<InMemoryDir>();
  auto wal = OpenWal(dir);
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(wal->Append(MakeRecord(i, i)).ok());
  }
  std::shared_ptr<PagedFile> file;
  ASSERT_TRUE(dir->Open(wal->SegmentNameOf(wal->NextLsn()), &file).ok());
  EXPECT_EQ(file->Size(), Wal::kSegmentHeaderSize + wal->NextLsn());
  EXPECT_EQ(wal->zero_filled_bytes(), 0u);
}

}  // namespace
}  // namespace neosi
