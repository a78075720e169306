// Network session front-end: a socket server multiplexing client sessions
// over an embedded GraphDatabase.
//
// Shape: `workers` threads share ONE epoll set, and whichever thread takes
// a session's event runs its request to completion: it reads the frame,
// executes it against the engine and sends the reply itself, so a round
// trip costs two wake-ups (client and server) and no cross-thread hand-off.
// There is no thread-per-connection anywhere: a thousand mostly-idle
// sessions cost a thousand fds, not a thousand stacks. Every session fd is
// armed EPOLLONESHOT, so a session has exactly one owner from the moment
// its event fires until that thread re-arms the fd or tears it down:
//
//   waiting     no owner; fd armed EPOLLIN | EPOLLONESHOT; the idle sweep
//               may reap it
//   owned       the thread whose event fired reads, executes and replies
//   backlogged  no owner; fd armed EPOLLOUT | EPOLLONESHOT (the socket
//               buffer could not take the whole reply)
//
// Each thread takes ONE event per epoll_wait: a thread holding a batch
// would run the second session behind the first one's fsync wait. A
// request that blocks (the commit's fsync wait, an admission delay, a lock
// wait) blocks the thread running it, so `workers` bounds how many
// sessions make progress at once.
//
// Admission control gates NEW wire Begins only — established snapshots are
// never aborted by admission (that stays the snapshot-lifecycle policy's
// job). Two signals, each with its own DatabaseStats counter:
//
//   * GC backlog: while engine().gc_list.backlog() sits above the
//     database's snapshot_expire_backlog threshold, a Begin first waits up
//     to admission_delay_ms for the drain (admission_delayed); if the gauge
//     is still over, the Begin is shed with retryable Status::Busy
//     (admission_shed_backlog).
//   * Session cap: with max_sessions wire transactions already open, a
//     Begin is shed immediately (admission_shed_sessions) — open snapshots
//     do not drain on a deadline the way a GC backlog does, so delaying
//     would just burn a worker.
//
// Protocol violations (oversized frame, CRC mismatch, truncated or
// malformed body, a hang-up in the middle of a frame) and idle timeouts
// drop the session: the open transaction is aborted (locks released,
// snapshot unregistered) and the fd closed. The server never replies to a
// frame it cannot trust. The idle sweep never frees a session itself: it
// shuts an idle session's socket down, and the thread that takes the
// resulting event tears it down on the ordinary path.

#ifndef NEOSI_SERVER_SERVER_H_
#define NEOSI_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/graph_database.h"
#include "server/protocol.h"

namespace neosi {

struct ServerOptions {
  /// Listen address. The default binds loopback only.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Threads that wait on the shared epoll set and run each request to
  /// completion; 0 = min(4, hardware_concurrency).
  int workers = 0;
  /// Cap on concurrently OPEN wire transactions (one per session); Begins
  /// beyond it are shed with Status::Busy. 0 = unlimited.
  uint32_t max_sessions = 0;
  /// Sessions idle (no in-flight request) longer than this are dropped and
  /// their transaction aborted. 0 = never.
  uint64_t idle_timeout_ms = 0;
  /// How long a Begin may wait for a GC-backlog drain before being shed.
  uint64_t admission_delay_ms = 5;
  /// Largest accepted frame payload; bigger declared lengths are a
  /// protocol violation (session dropped before buffering anything).
  uint32_t max_frame_bytes = 1 << 20;
};

/// One connected client. Internal, but visible for the session gauge.
class Server {
 public:
  /// Binds, listens, and spins up the worker threads. The database
  /// must outlive the Server; destroy (or Stop) the Server first.
  static Result<std::unique_ptr<Server>> Start(GraphDatabase* db,
                                               const ServerOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Idempotent; joins all threads and aborts every session's transaction.
  void Stop();

  /// The bound port (resolves port 0).
  uint16_t port() const { return port_; }

  /// Live connected-session gauge.
  uint64_t sessions() const {
    return session_gauge_.load(std::memory_order_relaxed);
  }

  /// Sessions dropped for protocol violations (lifetime counter).
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

  /// Sessions dropped by the idle sweep (lifetime counter).
  uint64_t idle_drops() const {
    return idle_drops_.load(std::memory_order_relaxed);
  }

 private:
  struct Session {
    int fd = -1;
    /// steady_clock nanoseconds since which the session has waited for a
    /// request, or kOwned / kBacklogged / kReaped (server.cc). Also the
    /// ownership hand-off: stored (release) once the fd is re-armed,
    /// exchanged (acquire) by the thread its event wakes.
    std::atomic<int64_t> idle_since_ns{0};
    std::string inbuf;          ///< Raw bytes read; frames carved off front.
    std::string outbuf;         ///< Encoded reply frame being written.
    size_t out_off = 0;
    std::unique_ptr<Transaction> txn;
  };

  Server(GraphDatabase* db, const ServerOptions& options);

  Status Listen();
  void WorkerLoop();
  void AcceptAll();

  // Owner-only helpers: the calling thread owns `s` (its event fired).
  void Serve(Session* s);
  /// Reads what has arrived; false if the session was torn down.
  bool ReadInput(Session* s);
  /// Executes every complete buffered frame, then re-arms the session.
  void Pump(Session* s);
  /// Sends outbuf; false if the fd was re-armed for write or torn down.
  bool Flush(Session* s);
  /// Hands the session back to epoll (any thread may take it next).
  void Arm(Session* s, uint32_t events);
  void Teardown(Session* s);

  uint64_t SweepIntervalMs() const;
  /// Shuts idle sessions down when a sweep is due (one thread claims it).
  void SweepIdle();
  /// Stop()-only (all threads joined): best-effort bounded-blocking flush
  /// of every session's pending reply, so a commit the engine already
  /// acked never loses its reply to shutdown (the client would record an
  /// abort for a transaction whose write is durable).
  void FlushPendingRepliesOnStop();

  std::string ExecutePayload(Session* s, const Slice& payload);
  std::string HandleBegin(Session* s, Slice body);

  GraphDatabase* const db_;
  const ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  /// Level-triggered and never drained: once Stop() writes it, every
  /// thread's epoll_wait returns it.
  int stop_fd_ = -1;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> session_gauge_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> idle_drops_{0};
  /// Open wire transactions (the max_sessions admission gauge).
  std::atomic<uint64_t> open_txns_{0};
  /// steady_clock nanoseconds at which the next idle sweep is due.
  std::atomic<int64_t> next_sweep_ns_{0};

  /// All sessions. Keyed by Session*, not fd: accept4 may reuse the fd of
  /// a session being torn down. Guards accept, teardown and the sweep only.
  std::mutex sessions_mu_;
  std::unordered_map<Session*, std::unique_ptr<Session>> sessions_;

  std::vector<std::thread> workers_;
};

}  // namespace neosi

#endif  // NEOSI_SERVER_SERVER_H_
