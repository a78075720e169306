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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "graph/graph_database.h"
#include "server/client.h"
#include "server/server.h"
#include "sync_points.h"

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
  /// asynchronous: a server thread processes the violation).
  bool WaitForSessions(uint64_t expected) {
    for (int i = 0; i < 400; ++i) {
      if (server_->sessions() == expected) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  /// A session count of zero can also mean "not accepted yet"; a counted
  /// protocol error proves the server saw the connection and dropped it.
  bool WaitForProtocolErrors(uint64_t expected) {
    for (int i = 0; i < 400; ++i) {
      if (server_->protocol_errors() >= expected) return true;
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
  // isolation/read-only bytes: only executing it detects the violation.
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
  EXPECT_TRUE(WaitForProtocolErrors(1)) << "a mid-frame hang-up counts";
  EXPECT_TRUE(WaitForSessions(0));
  EXPECT_EQ(server_->protocol_errors(), 1u);
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

/// One balance swap between accounts `a` and `b`. Inside the transaction
/// the session first reads its own tag node, so a reply that reached the
/// wrong session shows up as a foreign tag (or an undecodable body).
/// Returns OK on commit; a retryable conflict is rolled back and returned.
Status TaggedSwap(Client& client, NodeId tag, int64_t owner, NodeId a,
                  NodeId b) {
  NEOSI_RETURN_IF_ERROR(client.Begin().status());
  auto abandon = [&client](const Status& st) {
    if (st.IsRetryable()) (void)client.Rollback();
    return st;
  };
  auto mine = client.GetNodeProperty(tag, "owner");
  if (!mine.ok()) return abandon(mine.status());
  if (mine->AsInt() != owner) {
    return Status::Corruption("read tag " + std::to_string(mine->AsInt()) +
                              " of another session");
  }
  auto va = client.GetNodeProperty(a, "balance");
  if (!va.ok()) return abandon(va.status());
  auto vb = client.GetNodeProperty(b, "balance");
  if (!vb.ok()) return abandon(vb.status());
  Status st = client.SetNodeProperty(a, "balance", *vb);
  if (st.ok()) st = client.SetNodeProperty(b, "balance", *va);
  if (!st.ok()) return abandon(st);
  return client.Commit().status();
}

// Churn: clients connect, swap and hang up, vanish mid-transaction, or hang
// up in the middle of a frame, while steady sessions run swaps throughout.
// Afterwards no session or transaction is left, every mid-frame hang-up was
// counted as exactly one protocol error, no session ever read a reply meant
// for another, and the swaps conserved the balance multiset.
TEST(ServerChurn, ChurnNeverCrossesRepliesOrLeaksSessions) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 0;
  // Conflicts abort at once: a lock wait would pin a server thread, and
  // this test is about the front-end, not about lock queues.
  options.conflict_policy = ConflictPolicy::kFirstUpdaterWinsNoWait;
  auto db = std::move(*GraphDatabase::Open(options));
  ServerOptions server_options;
  server_options.workers = 2;
  auto server = std::move(*Server::Start(db.get(), server_options));
  const uint16_t port = server->port();

  constexpr int kAccounts = 8;
  constexpr int kSteady = 2;
  constexpr int kChurners = 3;
  constexpr int kChurnRounds = 100;
  std::vector<NodeId> accounts;
  std::vector<NodeId> tags;
  std::vector<int64_t> initial;
  {
    Client setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", port).ok());
    ASSERT_TRUE(setup.Begin().ok());
    for (int i = 0; i < kAccounts; ++i) {
      initial.push_back(100 + 7 * i);  // Distinct: a lost swap shows.
      auto id = setup.CreateNode(
          {"Account"}, {{"balance", PropertyValue(initial.back())}});
      ASSERT_TRUE(id.ok()) << id.status();
      accounts.push_back(*id);
    }
    for (int t = 0; t < kSteady + kChurners; ++t) {
      auto id = setup.CreateNode({"Tag"},
                                 {{"owner", PropertyValue(int64_t{t})}});
      ASSERT_TRUE(id.ok()) << id.status();
      tags.push_back(*id);
    }
    ASSERT_TRUE(setup.Commit().ok());
  }

  std::atomic<int> crossed{0};       // Foreign tags and undecodable replies.
  std::atomic<int> unexpected{0};    // Any other non-retryable failure.
  std::atomic<uint64_t> mid_frame_drops{0};
  std::atomic<bool> churning{true};
  auto swap = [&](Client& client, int owner, Random& rng) {
    const uint64_t a = rng.Uniform(kAccounts);
    const uint64_t b = (a + 1 + rng.Uniform(kAccounts - 1)) % kAccounts;
    const Status st =
        TaggedSwap(client, tags[owner], owner, accounts[a], accounts[b]);
    if (st.IsCorruption()) {
      crossed.fetch_add(1);
      ADD_FAILURE() << "session " << owner << ": " << st;
    } else if (!st.ok() && !st.IsRetryable()) {
      unexpected.fetch_add(1);
      ADD_FAILURE() << "session " << owner << ": " << st;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kSteady; ++t) {
    threads.emplace_back([&, t] {
      Random rng(9100 + t);
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
      for (int i = 0; i < 20 || churning.load(); ++i) swap(client, t, rng);
    });
  }
  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    const int owner = kSteady + c;
    churners.emplace_back([&, owner] {
      Random rng(9200 + owner);
      for (int round = 0; round < kChurnRounds; ++round) {
        switch (rng.Uniform(3)) {
          case 0: {  // Connect, swap, hang up cleanly.
            Client client;
            ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
            swap(client, owner, rng);
            break;
          }
          case 1: {  // Vanish with a transaction and a write lock open.
            Client client;
            ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
            if (client.Begin().ok()) {
              (void)client.SetNodeProperty(tags[owner], "scratch",
                                           PropertyValue(int64_t{round}));
            }
            break;
          }
          default: {  // Hang up in the middle of a frame.
            const std::string frame = EncodeFrame(
                EncodeGetNodeProperty(tags[owner], "owner"));
            RawConn conn;
            ASSERT_TRUE(conn.Connect(port));
            ASSERT_TRUE(conn.Send(frame.substr(0, 1 + rng.Uniform(
                                                          frame.size() - 1))));
            conn.Close();
            mid_frame_drops.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : churners) t.join();
  churning.store(false);
  for (std::thread& t : threads) t.join();

  // Every other connection completed a round trip, so once the last drop
  // is counted the server has accepted every connection ever made.
  const uint64_t drops = mid_frame_drops.load();
  EXPECT_GT(drops, 0u);
  for (int i = 0; i < 400 && server->protocol_errors() < drops; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (int i = 0; i < 400 && server->sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->sessions(), 0u);
  EXPECT_EQ(server->protocol_errors(), drops);
  EXPECT_EQ(crossed.load(), 0);
  EXPECT_EQ(unexpected.load(), 0);
  for (int i = 0; i < 400 && db->Stats().active_txns != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(db->Stats().active_txns, 0u) << "churn leaked a transaction";

  std::vector<int64_t> balances;
  auto txn = db->Begin();
  for (NodeId id : accounts) {
    auto v = txn->GetNodeProperty(id, "balance");
    ASSERT_TRUE(v.ok()) << v.status();
    balances.push_back(v->AsInt());
  }
  ASSERT_TRUE(txn->Commit().ok());
  std::sort(balances.begin(), balances.end());
  EXPECT_EQ(balances, initial) << "swaps must conserve the balance multiset";
  server->Stop();
}

// No head-of-line blocking: with two server threads, a commit parked just
// before publication holds one of them, and the other keeps serving a
// second session. The parked commit is then acked once released.
TEST(ServerScheduling, ParkedCommitDoesNotBlockOtherSessions) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 0;
  auto db = std::move(*GraphDatabase::Open(options));
  ServerOptions server_options;
  server_options.workers = 2;
  auto server = std::move(*Server::Start(db.get(), server_options));
  NodeId node;
  {
    auto txn = db->Begin();
    node = *txn->CreateNode({"Row"}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(txn->Commit().ok());
  }

  Client parked;
  ASSERT_TRUE(parked.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(parked.Begin().ok());
  ASSERT_TRUE(parked.SetNodeProperty(node, "v", PropertyValue(int64_t{1})).ok());

  ArmedPoints points(db.get());
  points.Park("commit.pre_publish");
  Result<Timestamp> committed = Status::Aborted("commit never replied");
  std::thread committer([&] { committed = parked.Commit(); });
  ASSERT_TRUE(points.WaitFor("commit.pre_publish"));

  Client other;
  ASSERT_TRUE(other.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(other.Begin(IsolationLevel::kSnapshotIsolation, true).ok());
  for (int i = 0; i < 98; ++i) {
    auto v = other.GetNodeProperty(node, "v");
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_EQ(v->AsInt(), 0) << "the parked commit is not yet published";
  }
  ASSERT_TRUE(other.Commit().ok());  // Round trip 100.
  EXPECT_EQ(points.Arrivals("commit.pre_publish"), 1u);

  points.Release("commit.pre_publish");
  committer.join();
  ASSERT_TRUE(committed.ok()) << committed.status();
  server->Stop();
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
