// Blocking client for the neosi wire protocol.
//
// One Client == one session == at most one open transaction. Not
// thread-safe: a session is a serial command stream, so give each thread
// its own Client (the server multiplexes them over its worker threads).
//
// Every call returns the server-side Status verbatim, so the embedded
// retry contract carries over the wire: Status::IsRetryable() covers
// write-conflict aborts, deadlock victims, SnapshotTooOld,
// SerializationFailure, ReplicaReadOnly, and admission-control Busy sheds.
// A dropped connection (server restart, protocol violation, idle timeout)
// surfaces as IOError; reconnect with Connect() and retry the transaction.

#ifndef NEOSI_SERVER_CLIENT_H_
#define NEOSI_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/views.h"
#include "server/protocol.h"

namespace neosi {

class Client {
 public:
  Client() = default;
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects (closing any previous connection first).
  Status Connect(const std::string& host, uint16_t port);

  /// Closes the socket; the server aborts any transaction left open.
  void Close();

  bool connected() const { return fd_ >= 0; }

  /// What the server reported when the transaction began / committed —
  /// the ordering facts a wire-level history checker needs.
  struct BeginInfo {
    uint64_t txn_id = 0;
    Timestamp start_ts = 0;
  };

  Result<BeginInfo> Begin(
      IsolationLevel isolation = IsolationLevel::kSnapshotIsolation,
      bool read_only = false);
  Result<Timestamp> Commit();
  Status Rollback();
  Status Ping();

  Result<NodeId> CreateNode(const std::vector<std::string>& labels,
                            const NamedProperties& props = {});
  Status SetNodeProperty(NodeId id, const std::string& key,
                         const PropertyValue& value);
  Result<PropertyValue> GetNodeProperty(NodeId id, const std::string& key);
  Result<std::vector<NodeId>> GetNodesByLabel(const std::string& label);
  Result<std::vector<NodeId>> GetNodesByProperty(const std::string& key,
                                                 const PropertyValue& value);
  Result<RelId> CreateRelationship(NodeId src, NodeId dst,
                                   const std::string& type,
                                   const NamedProperties& props = {});

 private:
  /// Frames `payload`, sends it, and reads back one reply frame. On OK the
  /// reply body is left in `*body` (backed by reply_storage_).
  Status RoundTrip(const std::string& payload, Slice* body);
  Status SendAll(const char* data, size_t n);

  /// Receive buffer floor: most replies fit, so one recv reads them whole.
  static constexpr size_t kReplyBufferBytes = 4096;

  int fd_ = -1;
  std::string reply_storage_;  ///< Whole reply frame, header included.
};

}  // namespace neosi

#endif  // NEOSI_SERVER_CLIENT_H_
