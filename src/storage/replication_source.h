// Record shipping for read replicas.
//
// A ReplicationSource hands a replica the primary's WAL records in LSN
// order, from wherever the replica's shipping cursor stands, by tailing the
// segment files in the primary's Dir (file-copy shipping: the same process,
// the same machine, or a shared / snapshotted filesystem).
//
// Safety against the live primary:
//  - the source only ever opens EXISTING files (Dir::OpenExisting), so
//    losing a race against segment retirement can never create a stray file
//    in the primary's directory;
//  - a segment's frames are final once a successor segment exists (the Wal
//    syncs the retiring segment before the new one enters the chain), so
//    only the newest segment may have a growing / torn tail;
//  - a segment enters the chain by rename and leaves it by unlink, so a
//    tailer that raced either sees a missing file, a file whose header is
//    not valid yet (skipped until the next poll), or the settled segment;
//    as a safety net the source re-validates the header after reading
//    frames and discards everything from a segment that changed identity
//    mid-read (the next poll re-reads it from the fresh listing);
//  - every frame carries a CRC, so a torn or in-flight write is detected
//    and simply ends the poll (the tail is re-tried on the next pass).
//
// A cursor below the oldest retained segment is unrecoverable (the primary
// checkpointed the history away) and reported as Corruption: the replica
// must be re-seeded from a fresh copy of the primary. wal_keep_segments on
// the primary widens the window.

#ifndef NEOSI_STORAGE_REPLICATION_SOURCE_H_
#define NEOSI_STORAGE_REPLICATION_SOURCE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/dir.h"
#include "storage/wal_ops.h"

namespace neosi {

/// One shipped record plus its primary LSN (the shipping-cursor unit).
struct ShippedRecord {
  Lsn lsn = 0;
  WalRecord record;
};

/// Tails a primary's WAL segments; the ReplicaApplier drains it.
class ReplicationSource {
 public:
  explicit ReplicationSource(std::shared_ptr<Dir> dir)
      : dir_(std::move(dir)) {}

  /// Appends every record with LSN >= `cursor` currently readable at the
  /// source to *out, in LSN order, and sets *next_cursor one past the last
  /// record shipped (== `cursor` when nothing new arrived). A clean "no new
  /// records yet" is OK with an empty batch; Corruption means the cursor
  /// fell behind the source's retained history and the replica must be
  /// re-seeded.
  Status Poll(Lsn cursor, std::vector<ShippedRecord>* out, Lsn* next_cursor);

 private:
  std::shared_ptr<Dir> dir_;
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_REPLICATION_SOURCE_H_
