// Protocol robustness: a hostile or broken client must never crash the
// server or leak a transaction. Malformed frames (bad CRC, oversized
// declared length, truncated bodies, unknown message types), mid-frame and
// mid-transaction disconnects, and a seeded fuzz loop all end the same way:
// the session is dropped, its transaction aborted (locks released, snapshot
// unregistered — verified through DatabaseStats), and the server keeps
// serving everyone else.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "graph/graph_database.h"
#include "server/client.h"
#include "server/server.h"

namespace neosi {
namespace {

/// Raw socket for sending hand-crafted (and deliberately broken) bytes.
class RawConn {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }
  ~RawConn() { Close(); }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  bool Send(const std::string& bytes) {
    return fd_ >= 0 &&
           ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(bytes.size());
  }
  /// True if the server closed the connection (EOF) within `timeout`.
  bool WaitForEof(std::chrono::milliseconds timeout = std::chrono::seconds(2)) {
    SetReceiveTimeout(timeout);
    char buf[256];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;    // EOF: session dropped.
      if (n < 0) return false;    // Timeout: server still talking to us.
    }
  }

  /// Reads up to `count` reply frames (giving up after ~2s of silence, on
  /// EOF or on a malformed reply) and returns their statuses in order.
  std::vector<Status> ReadReplies(size_t count) {
    SetReceiveTimeout(std::chrono::seconds(2));
    std::vector<Status> out;
    std::string buf;
    char chunk[256];
    while (out.size() < count) {
      Slice payload;
      size_t consumed = 0;
      const FrameParse parse = ParseFrame(buf, 64 * 1024, &payload, &consumed);
      if (parse == FrameParse::kMalformed) break;
      if (parse == FrameParse::kOk) {
        Status status;
        Slice body;
        if (!DecodeReply(payload, &status, &body).ok()) break;
        out.push_back(status);
        buf.erase(0, consumed);
        continue;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  void SetReceiveTimeout(std::chrono::milliseconds timeout) {
    timeval tv{};
    tv.tv_sec = timeout.count() / 1000;
    tv.tv_usec = (timeout.count() % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  int fd_ = -1;
};

class ServerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;  // In-memory: protocol behavior only.
    options.background_gc_interval_ms = 0;
    db_ = std::move(*GraphDatabase::Open(options));
    ServerOptions server_options;
    server_options.workers = 2;
    server_options.max_frame_bytes = 64 * 1024;
    server_ = std::move(*Server::Start(db_.get(), server_options));
  }
  void TearDown() override {
    server_->Stop();
    server_.reset();
    db_.reset();
  }

  uint16_t port() const { return server_->port(); }

  /// Spin-waits for the session gauge to drain to `expected` (teardown is
  /// asynchronous: the epoll thread processes the violation).
  bool WaitForSessions(uint64_t expected) {
    for (int i = 0; i < 400; ++i) {
      if (server_->sessions() == expected) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  bool WaitForActiveTxns(uint64_t expected) {
    for (int i = 0; i < 400; ++i) {
      if (db_->Stats().active_txns == expected) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  std::unique_ptr<GraphDatabase> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerProtocolTest, BadCrcDropsSessionWithoutReply) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  std::string frame = EncodeFrame(EncodePing());
  frame[4] ^= 0x5A;  // Corrupt the CRC field.
  ASSERT_TRUE(conn.Send(frame));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
  EXPECT_GE(server_->protocol_errors(), 1u);
}

TEST_F(ServerProtocolTest, CorruptedPayloadDropsSession) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  std::string frame = EncodeFrame(EncodePing());
  frame.back() ^= 0x5A;  // Flip payload bits; CRC now mismatches.
  ASSERT_TRUE(conn.Send(frame));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
}

TEST_F(ServerProtocolTest, OversizedFrameDroppedBeforeBuffering) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  // Declares 16 MiB (over the 64 KiB cap) — the server must reject on the
  // HEADER, not wait for 16 MiB that will never come.
  std::string header;
  PutFixed32(&header, 16u << 20);
  PutFixed32(&header, 0xDEADBEEF);
  ASSERT_TRUE(conn.Send(header));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
}

TEST_F(ServerProtocolTest, TruncatedBodyInsideValidFrameDropsSession) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  // Valid frame (good CRC) whose payload claims kBegin but carries no
  // isolation/read-only bytes: the WORKER detects the violation.
  std::string payload;
  payload.push_back(static_cast<char>(MsgType::kBegin));
  ASSERT_TRUE(conn.Send(EncodeFrame(payload)));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
  EXPECT_GE(server_->protocol_errors(), 1u);
}

TEST_F(ServerProtocolTest, UnknownMessageTypeDropsSession) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  std::string payload;
  payload.push_back(static_cast<char>(0x7F));
  ASSERT_TRUE(conn.Send(EncodeFrame(payload)));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
}

// The core leak check: a client begins a transaction, takes a write lock,
// then vanishes mid-frame. The server must abort the orphaned transaction —
// active_txns back to zero AND the lock actually released, proven by a
// second client writing the same node without conflict.
TEST_F(ServerProtocolTest, MidTxnDisconnectAbortsTxnAndReleasesLocks) {
  NodeId contested;
  {
    Client setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", port()).ok());
    ASSERT_TRUE(setup.Begin().ok());
    auto id = setup.CreateNode({"Hot"}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(id.ok());
    contested = *id;
    ASSERT_TRUE(setup.Commit().ok());
  }
  ASSERT_TRUE(WaitForActiveTxns(0));

  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(holder.Begin().ok());
  ASSERT_TRUE(
      holder.SetNodeProperty(contested, "v", PropertyValue(int64_t{1})).ok());
  EXPECT_EQ(db_->Stats().active_txns, 1u);

  // Vanish without commit or rollback.
  holder.Close();

  ASSERT_TRUE(WaitForActiveTxns(0)) << "orphaned transaction never aborted";
  ASSERT_TRUE(WaitForSessions(0));

  // The write lock is gone: a new transaction updates the same node.
  Client prober;
  ASSERT_TRUE(prober.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(prober.Begin().ok());
  EXPECT_TRUE(
      prober.SetNodeProperty(contested, "v", PropertyValue(int64_t{2})).ok());
  EXPECT_TRUE(prober.Commit().ok());
}

TEST_F(ServerProtocolTest, MidFrameDisconnectWithPartialHeaderIsClean) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  ASSERT_TRUE(conn.Send(std::string("\x08\x00", 2)));  // Half a length field.
  conn.Close();
  EXPECT_TRUE(WaitForSessions(0));
  // Server still serves.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

// Seeded fuzz loop: random garbage, randomly truncated real frames, and
// random bit-flips in real frames — interleaved with genuine traffic. The
// server must end every one of them with a clean drop and ZERO leaked
// transactions.
TEST_F(ServerProtocolTest, SeededFuzzLoopNeverLeaksTransactions) {
  Random rng(20260808);  // Fixed seed: failures reproduce.
  const std::vector<std::string> real_payloads = {
      EncodePing(),
      EncodeBegin(IsolationLevel::kSnapshotIsolation, false),
      EncodeCommit(),
      EncodeRollback(),
      EncodeGetNodesByLabel("Person"),
      EncodeCreateNode({"A", "B"}, {{"k", PropertyValue(int64_t{7})}}),
  };
  for (int round = 0; round < 60; ++round) {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(port()));
    const uint32_t mode = rng.Uniform(4);
    std::string bytes;
    if (mode == 0) {
      // Pure garbage.
      const size_t n = 1 + rng.Uniform(200);
      for (size_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<char>(rng.Uniform(256)));
      }
    } else {
      std::string frame =
          EncodeFrame(real_payloads[rng.Uniform(real_payloads.size())]);
      if (mode == 1) {
        // Truncate.
        frame.resize(rng.Uniform(frame.size()));
      } else if (mode == 2 && !frame.empty()) {
        // Bit-flip somewhere.
        frame[rng.Uniform(frame.size())] ^=
            static_cast<char>(1u << rng.Uniform(8));
      }  // mode == 3: send the valid frame as-is.
      bytes = frame;
    }
    (void)conn.Send(bytes);
    if (rng.Uniform(2) == 0) {
      conn.Close();  // Disconnect, possibly mid-frame.
    } else {
      // Give the server a moment to drop the session itself, then hang up
      // either way; the drains below check that nothing leaked.
      (void)conn.WaitForEof(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(WaitForSessions(0));
  EXPECT_TRUE(WaitForActiveTxns(0)) << "fuzz leaked a transaction";
  // Real traffic still flows afterwards.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(client.Begin().ok());
  EXPECT_TRUE(client.CreateNode({"Survivor"}).ok());
  EXPECT_TRUE(client.Commit().ok());
}

TEST_F(ServerProtocolTest, PipelinedFramesAllAnswered) {
  // Two pings in one write: both must be answered in order (the session
  // processes buffered frames back-to-back without re-arming reads).
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  ASSERT_TRUE(conn.Send(EncodeFrame(EncodePing()) +
                        EncodeFrame(EncodePing())));
  const std::vector<Status> replies = conn.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].ok()) << replies[0];
  EXPECT_TRUE(replies[1].ok()) << replies[1];
}

TEST(ServerIdleTimeout, IdleSessionDroppedAndTxnAborted) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 0;
  auto db = std::move(*GraphDatabase::Open(options));
  ServerOptions server_options;
  server_options.workers = 1;
  server_options.idle_timeout_ms = 100;
  auto server = std::move(*Server::Start(db.get(), server_options));

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(client.Begin().ok());
  EXPECT_EQ(db->Stats().active_txns, 1u);

  // Go silent past the timeout: the sweep must reap us and abort the txn.
  bool dropped = false;
  for (int i = 0; i < 100 && !dropped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    dropped = server->sessions() == 0;
  }
  EXPECT_TRUE(dropped);
  EXPECT_GE(server->idle_drops(), 1u);
  EXPECT_EQ(db->Stats().active_txns, 0u);

  // An ACTIVE session is not swept: ping inside the window repeatedly.
  Client busy;
  ASSERT_TRUE(busy.Connect("127.0.0.1", server->port()).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(busy.Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_TRUE(busy.Ping().ok());
  server->Stop();
}

}  // namespace
}  // namespace neosi
