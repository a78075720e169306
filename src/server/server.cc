#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cstring>

namespace neosi {

namespace {

/// epoll_data.ptr sentinels for the two non-session fds.
void* const kListenTag = nullptr;
void* const kStopTag = reinterpret_cast<void*>(1);

/// Session::idle_since_ns values that are not a timestamp.
constexpr int64_t kOwned = 0;        ///< A thread is serving the session.
constexpr int64_t kBacklogged = -1;  ///< Armed for write: never idle.
constexpr int64_t kReaped = -2;      ///< The idle sweep shut it down.

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool GetProps(Slice* in, NamedProperties* props) {
  uint32_t n = 0;
  if (!GetVarint32(in, &n)) return false;
  if (n > (1u << 16)) return false;  // Hostile count guard.
  for (uint32_t i = 0; i < n; ++i) {
    Slice key;
    PropertyValue value;
    if (!GetLengthPrefixedSlice(in, &key)) return false;
    if (!PropertyValue::DecodeFrom(in, &value).ok()) return false;
    (*props)[key.ToString()] = std::move(value);
  }
  return true;
}

std::string OkReply() { return EncodeReply(Status::OK(), Slice()); }

std::string OkReplyWithBody(const std::string& body) {
  return EncodeReply(Status::OK(), body);
}

std::string ErrorReply(const Status& status) {
  return EncodeReply(status, Slice());
}

std::string IdListReply(const std::vector<uint64_t>& ids) {
  std::string body;
  PutVarint32(&body, static_cast<uint32_t>(ids.size()));
  for (uint64_t id : ids) PutVarint64(&body, id);
  return OkReplyWithBody(body);
}

}  // namespace

Server::Server(GraphDatabase* db, const ServerOptions& options)
    : db_(db), options_(options) {}

Result<std::unique_ptr<Server>> Server::Start(GraphDatabase* db,
                                              const ServerOptions& options) {
  if (db == nullptr) {
    return Status::InvalidArgument("Server::Start: null database");
  }
  std::unique_ptr<Server> server(new Server(db, options));
  NEOSI_RETURN_IF_ERROR(server->Listen());
  int workers = options.workers;
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = static_cast<int>(hw == 0 ? 2 : (hw < 4 ? hw : 4));
  }
  server->workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    server->workers_.emplace_back(&Server::WorkerLoop, server.get());
  }
  return server;
}

Server::~Server() { Stop(); }

Status Server::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IOError("socket: " +
                                             std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IOError("listen: " + std::string(strerror(errno)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || stop_fd_ < 0) {
    return Status::IOError("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLEXCLUSIVE;  // A connection wakes one thread.
  ev.data.ptr = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.ptr = kStopTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev);
  return Status::OK();
}

void Server::Stop() {
  if (stopped_.exchange(true)) return;
  stop_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // All threads are gone; sessions are exclusively ours now. A thread
  // finishes the request it took before it looks at stop_, so first
  // deliver the replies those executions could not send: a Commit the
  // engine applied whose reply evaporated here would leave the client
  // believing in an abort while the write is durable.
  FlushPendingRepliesOnStop();
  // Then abort every still-open transaction so locks release and
  // snapshots unregister.
  for (auto& [key, session] : sessions_) {
    if (session->txn) {
      if (session->txn->IsActive()) session->txn->Abort();
      session->txn.reset();
      open_txns_.fetch_sub(1, std::memory_order_relaxed);
    }
    ::close(session->fd);
  }
  sessions_.clear();
  session_gauge_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (stop_fd_ >= 0) ::close(stop_fd_);
  listen_fd_ = epoll_fd_ = stop_fd_ = -1;
}

void Server::FlushPendingRepliesOnStop() {
  for (auto& [key, session] : sessions_) {
    Session* s = session.get();
    if (s->out_off >= s->outbuf.size()) continue;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (s->out_off < s->outbuf.size()) {
      const ssize_t n = ::send(s->fd, s->outbuf.data() + s->out_off,
                               s->outbuf.size() - s->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        s->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
          std::chrono::steady_clock::now() < deadline) {
        pollfd pfd{s->fd, POLLOUT, 0};
        ::poll(&pfd, 1, 10);
        continue;
      }
      break;  // Peer gone or deadline passed: nothing left to deliver.
    }
  }
}

void Server::WorkerLoop() {
  const int timeout_ms =
      options_.idle_timeout_ms > 0 ? static_cast<int>(SweepIntervalMs()) : -1;
  epoll_event event{};
  while (!stop_.load(std::memory_order_acquire)) {
    // One event at a time: a second ready session must not queue behind
    // this one's fsync wait while another thread sleeps in epoll_wait.
    const int n = ::epoll_wait(epoll_fd_, &event, 1, timeout_ms);
    if (stop_.load(std::memory_order_acquire)) break;
    if (n < 0 && errno != EINTR) break;
    if (n == 1) {
      if (event.data.ptr == kListenTag) {
        AcceptAll();
      } else {
        Serve(static_cast<Session*>(event.data.ptr));
      }
    }
    if (options_.idle_timeout_ms > 0) SweepIdle();
  }
}

void Server::AcceptAll() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or transient error): back to epoll.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto owned = std::make_unique<Session>();
    Session* s = owned.get();
    s->fd = fd;
    s->idle_since_ns.store(NowNs(), std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.emplace(s, std::move(owned));
    }
    session_gauge_.fetch_add(1, std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
    ev.data.ptr = s;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) Teardown(s);
  }
}

void Server::Serve(Session* s) {
  // The acquire half of the hand-off. The thread that armed the fd
  // publishes the session just after epoll_ctl returns, so the event can
  // beat that store by a few instructions: wait them out.
  int64_t was = s->idle_since_ns.exchange(kOwned, std::memory_order_acq_rel);
  while (was == kOwned) {
    std::this_thread::yield();
    was = s->idle_since_ns.exchange(kOwned, std::memory_order_acq_rel);
  }
  if (was == kReaped) {
    idle_drops_.fetch_add(1, std::memory_order_relaxed);
    Teardown(s);
    return;
  }
  // A backlogged session finishes its reply before reading anything new.
  const bool live = was == kBacklogged ? Flush(s) : ReadInput(s);
  if (live) Pump(s);
}

bool Server::ReadInput(Session* s) {
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::read(s->fd, buf, sizeof(buf));
    if (n > 0) {
      s->inbuf.append(buf, static_cast<size_t>(n));
      // A short read drained the socket; bytes arriving later fire the
      // read re-arm, so no second read just to collect EAGAIN.
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // EOF or a socket error. Unanswered bytes mean the peer hung up in
    // the middle of a frame: a protocol violation.
    if (!s->inbuf.empty()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    Teardown(s);
    return false;
  }
}

void Server::Pump(Session* s) {
  while (true) {
    Slice payload;
    size_t consumed = 0;
    switch (ParseFrame(s->inbuf, options_.max_frame_bytes, &payload,
                       &consumed)) {
      case FrameParse::kNeedMore:
        Arm(s, EPOLLIN | EPOLLRDHUP);
        return;
      case FrameParse::kMalformed:
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        Teardown(s);
        return;
      case FrameParse::kOk:
        break;
    }
    const std::string reply = ExecutePayload(s, payload);
    s->inbuf.erase(0, consumed);
    if (reply.empty()) {
      // Malformed body inside a CRC-valid frame: no reply, drop.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Teardown(s);
      return;
    }
    s->outbuf = EncodeFrame(reply);
    // Pipelined requests may already be buffered: serve them too.
    if (!Flush(s)) return;
  }
}

bool Server::Flush(Session* s) {
  while (s->out_off < s->outbuf.size()) {
    const ssize_t n = ::send(s->fd, s->outbuf.data() + s->out_off,
                             s->outbuf.size() - s->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      s->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Arm(s, EPOLLOUT);
      return false;
    }
    Teardown(s);
    return false;
  }
  s->outbuf.clear();
  s->out_off = 0;
  return true;
}

void Server::Arm(Session* s, uint32_t events) {
  epoll_event ev{};
  ev.events = events | EPOLLONESHOT;
  ev.data.ptr = s;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, s->fd, &ev);
  // The release half of the hand-off: the next owner waits for this
  // store, so everything this thread did to `s` (the epoll_ctl included)
  // happens-before its teardown. Only a session waiting for a request
  // can go idle.
  s->idle_since_ns.store((events & EPOLLIN) ? NowNs() : kBacklogged,
                         std::memory_order_release);
}

void Server::Teardown(Session* s) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s->fd, nullptr);
  if (s->txn) {
    if (s->txn->IsActive()) s->txn->Abort();
    s->txn.reset();
    open_txns_.fetch_sub(1, std::memory_order_relaxed);
  }
  std::unique_ptr<Session> owned;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(s);
    owned = std::move(it->second);
    sessions_.erase(it);
  }
  // Closed only once the sweep cannot reach it: accept4 may reuse the fd.
  ::close(s->fd);
  session_gauge_.fetch_sub(1, std::memory_order_relaxed);
}

uint64_t Server::SweepIntervalMs() const {
  return options_.idle_timeout_ms < 100 ? options_.idle_timeout_ms : 100;
}

void Server::SweepIdle() {
  const int64_t now = NowNs();
  int64_t due = next_sweep_ns_.load(std::memory_order_relaxed);
  if (now < due ||
      !next_sweep_ns_.compare_exchange_strong(
          due, now + static_cast<int64_t>(SweepIntervalMs()) * 1000000,
          std::memory_order_relaxed)) {
    return;  // Not due, or another thread claimed this sweep.
  }
  const int64_t limit = static_cast<int64_t>(options_.idle_timeout_ms) * 1000000;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto& [key, s] : sessions_) {
    int64_t since = s->idle_since_ns.load(std::memory_order_relaxed);
    // The CAS fails if the session was taken (or re-armed, which moves
    // its timestamp) since the load.
    if (since > 0 && now - since > limit &&
        s->idle_since_ns.compare_exchange_strong(since, kReaped,
                                                 std::memory_order_relaxed)) {
      // Never freed here: the thread that takes the resulting EOF event
      // tears the session down and counts the drop.
      ::shutdown(s->fd, SHUT_RDWR);
    }
  }
}

std::string Server::ExecutePayload(Session* s, const Slice& payload) {
  Slice in = payload;
  const auto type = static_cast<MsgType>(in[0]);
  in.remove_prefix(1);
  switch (type) {
    case MsgType::kPing:
      return in.empty() ? OkReply() : std::string();

    case MsgType::kBegin:
      return HandleBegin(s, in);

    case MsgType::kCommit: {
      if (!in.empty()) return std::string();
      if (!s->txn) {
        return ErrorReply(
            Status::FailedPrecondition("commit without open transaction"));
      }
      const Status st = s->txn->Commit();
      std::string reply;
      if (st.ok()) {
        std::string body;
        PutVarint64(&body, s->txn->commit_ts());
        reply = OkReplyWithBody(body);
      } else {
        reply = ErrorReply(st);
      }
      s->txn.reset();
      open_txns_.fetch_sub(1, std::memory_order_relaxed);
      return reply;
    }

    case MsgType::kRollback: {
      if (!in.empty()) return std::string();
      if (!s->txn) {
        return ErrorReply(
            Status::FailedPrecondition("rollback without open transaction"));
      }
      if (s->txn->IsActive()) s->txn->Abort();
      s->txn.reset();
      open_txns_.fetch_sub(1, std::memory_order_relaxed);
      return OkReply();
    }

    case MsgType::kCreateNode: {
      if (!s->txn) {
        return ErrorReply(Status::FailedPrecondition("no open transaction"));
      }
      uint32_t nlabels = 0;
      if (!GetVarint32(&in, &nlabels) || nlabels > (1u << 16)) {
        return std::string();
      }
      std::vector<std::string> labels;
      labels.reserve(nlabels);
      for (uint32_t i = 0; i < nlabels; ++i) {
        Slice label;
        if (!GetLengthPrefixedSlice(&in, &label)) return std::string();
        labels.push_back(label.ToString());
      }
      NamedProperties props;
      if (!GetProps(&in, &props) || !in.empty()) return std::string();
      auto id = s->txn->CreateNode(labels, props);
      if (!id.ok()) return ErrorReply(id.status());
      std::string body;
      PutVarint64(&body, *id);
      return OkReplyWithBody(body);
    }

    case MsgType::kSetNodeProperty: {
      if (!s->txn) {
        return ErrorReply(Status::FailedPrecondition("no open transaction"));
      }
      uint64_t node = 0;
      Slice key;
      PropertyValue value;
      if (!GetVarint64(&in, &node) || !GetLengthPrefixedSlice(&in, &key) ||
          !PropertyValue::DecodeFrom(&in, &value).ok() || !in.empty()) {
        return std::string();
      }
      const Status st =
          s->txn->SetNodeProperty(node, key.ToString(), std::move(value));
      return st.ok() ? OkReply() : ErrorReply(st);
    }

    case MsgType::kGetNodeProperty: {
      if (!s->txn) {
        return ErrorReply(Status::FailedPrecondition("no open transaction"));
      }
      uint64_t node = 0;
      Slice key;
      if (!GetVarint64(&in, &node) || !GetLengthPrefixedSlice(&in, &key) ||
          !in.empty()) {
        return std::string();
      }
      auto value = s->txn->GetNodeProperty(node, key.ToString());
      if (!value.ok()) return ErrorReply(value.status());
      std::string body;
      value->EncodeTo(&body);
      return OkReplyWithBody(body);
    }

    case MsgType::kGetNodesByLabel: {
      if (!s->txn) {
        return ErrorReply(Status::FailedPrecondition("no open transaction"));
      }
      Slice label;
      if (!GetLengthPrefixedSlice(&in, &label) || !in.empty()) {
        return std::string();
      }
      auto ids = s->txn->GetNodesByLabel(label.ToString());
      if (!ids.ok()) return ErrorReply(ids.status());
      return IdListReply(*ids);
    }

    case MsgType::kGetNodesByProperty: {
      if (!s->txn) {
        return ErrorReply(Status::FailedPrecondition("no open transaction"));
      }
      Slice key;
      PropertyValue value;
      if (!GetLengthPrefixedSlice(&in, &key) ||
          !PropertyValue::DecodeFrom(&in, &value).ok() || !in.empty()) {
        return std::string();
      }
      auto ids = s->txn->GetNodesByProperty(key.ToString(), value);
      if (!ids.ok()) return ErrorReply(ids.status());
      return IdListReply(*ids);
    }

    case MsgType::kCreateRelationship: {
      if (!s->txn) {
        return ErrorReply(Status::FailedPrecondition("no open transaction"));
      }
      uint64_t src = 0, dst = 0;
      Slice type_name;
      if (!GetVarint64(&in, &src) || !GetVarint64(&in, &dst) ||
          !GetLengthPrefixedSlice(&in, &type_name)) {
        return std::string();
      }
      NamedProperties props;
      if (!GetProps(&in, &props) || !in.empty()) return std::string();
      auto id =
          s->txn->CreateRelationship(src, dst, type_name.ToString(), props);
      if (!id.ok()) return ErrorReply(id.status());
      std::string body;
      PutVarint64(&body, *id);
      return OkReplyWithBody(body);
    }

    case MsgType::kReply:
      break;  // Clients never send replies.
  }
  return std::string();  // Unknown MsgType: protocol violation.
}

std::string Server::HandleBegin(Session* s, Slice body) {
  if (body.size() != 2) return std::string();
  const uint8_t iso_raw = static_cast<uint8_t>(body[0]);
  const uint8_t ro_raw = static_cast<uint8_t>(body[1]);
  if (iso_raw > static_cast<uint8_t>(IsolationLevel::kSerializable) ||
      ro_raw > 1) {
    return std::string();
  }
  if (s->txn) {
    return ErrorReply(
        Status::FailedPrecondition("transaction already open on session"));
  }

  Engine& engine = db_->engine();
  AdmissionCounters& admission = engine.admission;

  // Gate 1 — GC backlog. The same gauge/threshold pair the snapshot
  // lifecycle policy uses for expiry: while reclamation is drowning, taking
  // MORE snapshots (each one pins the watermark) makes the spiral worse, so
  // hold new Begins at the door. Wait briefly for a drain (the GC daemon
  // may be one nudge away), then shed with retryable Busy. Established
  // snapshots are untouched either way.
  const uint64_t threshold = engine.options.snapshot_expire_backlog;
  if (threshold > 0 && engine.gc_list.backlog() > threshold) {
    bool over = true;
    admission.delayed.fetch_add(1, std::memory_order_relaxed);
    (void)engine.store.sync_points().Check("admission.delay");
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.admission_delay_ms);
    while (!stop_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (engine.gc_list.backlog() <= threshold) {
        over = false;
        break;
      }
    }
    if (over) {
      admission.shed_backlog.fetch_add(1, std::memory_order_relaxed);
      return ErrorReply(Status::Busy(
          "admission: GC backlog " +
          std::to_string(engine.gc_list.backlog()) + " over threshold " +
          std::to_string(threshold) + "; retry after drain"));
    }
  }

  // Gate 2 — session cap: reserve an open-transaction slot. Unlike the
  // backlog, an occupied slot has no deadline to drain on, so shed
  // immediately rather than parking a worker.
  if (options_.max_sessions > 0) {
    uint64_t current = open_txns_.load(std::memory_order_relaxed);
    bool reserved = false;
    while (current < options_.max_sessions) {
      if (open_txns_.compare_exchange_weak(current, current + 1,
                                           std::memory_order_relaxed)) {
        reserved = true;
        break;
      }
    }
    if (!reserved) {
      admission.shed_sessions.fetch_add(1, std::memory_order_relaxed);
      return ErrorReply(Status::Busy(
          "admission: " + std::to_string(options_.max_sessions) +
          " sessions already hold transactions; retry later"));
    }
  } else {
    open_txns_.fetch_add(1, std::memory_order_relaxed);
  }

  TransactionOptions txn_options;
  txn_options.read_only = (ro_raw == 1);
  s->txn = db_->Begin(static_cast<IsolationLevel>(iso_raw), txn_options);
  admission.admitted.fetch_add(1, std::memory_order_relaxed);
  std::string reply_body;
  PutVarint64(&reply_body, s->txn->id());
  PutVarint64(&reply_body, s->txn->start_ts());
  return OkReplyWithBody(reply_body);
}

}  // namespace neosi
