#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace neosi {

Status Client::Connect(const std::string& host, uint16_t port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket: " +
                                     std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("connect " + host + ":" + std::to_string(port) +
                           ": " + strerror(err));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::SendAll(const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    Close();
    return Status::IOError("send failed; session dropped");
  }
  return Status::OK();
}

Status Client::RoundTrip(const std::string& payload, Slice* body) {
  if (fd_ < 0) return Status::IOError("client is not connected");
  const std::string frame = EncodeFrame(payload);
  NEOSI_RETURN_IF_ERROR(SendAll(frame.data(), frame.size()));

  // One recv usually brings the whole reply frame; loop only on a short
  // read. The server sends nothing unasked, so nothing follows the frame.
  if (reply_storage_.size() < kReplyBufferBytes) {
    reply_storage_.resize(kReplyBufferBytes);
  }
  size_t have = 0;
  size_t want = kFrameHeaderBytes;
  while (have < want) {
    const ssize_t r = ::recv(fd_, reply_storage_.data() + have,
                             reply_storage_.size() - have, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      Close();
      return Status::IOError(
          r == 0 ? "connection closed by server (session dropped)"
                 : "recv failed");
    }
    have += static_cast<size_t>(r);
    if (want == kFrameHeaderBytes && have >= kFrameHeaderBytes) {
      const uint32_t len = DecodeFixed32(reply_storage_.data());
      if (len > (64u << 20)) {
        Close();
        return Status::Corruption("oversized reply frame");
      }
      want = kFrameHeaderBytes + len;
      if (reply_storage_.size() < want) reply_storage_.resize(want);
    }
  }
  if (have != want) {
    Close();
    return Status::Corruption("bytes after reply frame");
  }
  const Slice reply(reply_storage_.data() + kFrameHeaderBytes,
                    want - kFrameHeaderBytes);
  if (Crc32c(reply) != DecodeFixed32(reply_storage_.data() + 4)) {
    Close();
    return Status::Corruption("reply CRC mismatch");
  }
  Status wire_status;
  NEOSI_RETURN_IF_ERROR(DecodeReply(reply, &wire_status, body));
  return wire_status;
}

Result<Client::BeginInfo> Client::Begin(IsolationLevel isolation,
                                        bool read_only) {
  Slice body;
  NEOSI_RETURN_IF_ERROR(RoundTrip(EncodeBegin(isolation, read_only), &body));
  BeginInfo info;
  if (!GetVarint64(&body, &info.txn_id) ||
      !GetVarint64(&body, &info.start_ts)) {
    return Status::Corruption("begin reply: bad body");
  }
  return info;
}

Result<Timestamp> Client::Commit() {
  Slice body;
  NEOSI_RETURN_IF_ERROR(RoundTrip(EncodeCommit(), &body));
  uint64_t commit_ts = 0;
  if (!GetVarint64(&body, &commit_ts)) {
    return Status::Corruption("commit reply: bad body");
  }
  return static_cast<Timestamp>(commit_ts);
}

Status Client::Rollback() {
  Slice body;
  return RoundTrip(EncodeRollback(), &body);
}

Status Client::Ping() {
  Slice body;
  return RoundTrip(EncodePing(), &body);
}

Result<NodeId> Client::CreateNode(const std::vector<std::string>& labels,
                                  const NamedProperties& props) {
  Slice body;
  NEOSI_RETURN_IF_ERROR(RoundTrip(EncodeCreateNode(labels, props), &body));
  uint64_t id = 0;
  if (!GetVarint64(&body, &id)) {
    return Status::Corruption("create-node reply: bad body");
  }
  return static_cast<NodeId>(id);
}

Status Client::SetNodeProperty(NodeId id, const std::string& key,
                               const PropertyValue& value) {
  Slice body;
  return RoundTrip(EncodeSetNodeProperty(id, key, value), &body);
}

Result<PropertyValue> Client::GetNodeProperty(NodeId id,
                                              const std::string& key) {
  Slice body;
  NEOSI_RETURN_IF_ERROR(RoundTrip(EncodeGetNodeProperty(id, key), &body));
  PropertyValue value;
  NEOSI_RETURN_IF_ERROR(PropertyValue::DecodeFrom(&body, &value));
  return value;
}

namespace {
Result<std::vector<NodeId>> DecodeIdList(Slice body) {
  uint32_t count = 0;
  if (!GetVarint32(&body, &count)) {
    return Status::Corruption("id-list reply: bad count");
  }
  std::vector<NodeId> ids;
  ids.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    if (!GetVarint64(&body, &id)) {
      return Status::Corruption("id-list reply: truncated");
    }
    ids.push_back(static_cast<NodeId>(id));
  }
  return ids;
}
}  // namespace

Result<std::vector<NodeId>> Client::GetNodesByLabel(
    const std::string& label) {
  Slice body;
  NEOSI_RETURN_IF_ERROR(RoundTrip(EncodeGetNodesByLabel(label), &body));
  return DecodeIdList(body);
}

Result<std::vector<NodeId>> Client::GetNodesByProperty(
    const std::string& key, const PropertyValue& value) {
  Slice body;
  NEOSI_RETURN_IF_ERROR(
      RoundTrip(EncodeGetNodesByProperty(key, value), &body));
  return DecodeIdList(body);
}

Result<RelId> Client::CreateRelationship(NodeId src, NodeId dst,
                                         const std::string& type,
                                         const NamedProperties& props) {
  Slice body;
  NEOSI_RETURN_IF_ERROR(
      RoundTrip(EncodeCreateRelationship(src, dst, type, props), &body));
  uint64_t id = 0;
  if (!GetVarint64(&body, &id)) {
    return Status::Corruption("create-rel reply: bad body");
  }
  return static_cast<RelId>(id);
}

}  // namespace neosi
