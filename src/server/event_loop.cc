#include "server/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace sofos {
namespace server {
namespace {

/// epoll_event.data.u64 value for the eventfd wakeup.
constexpr uint64_t kWakeId = 1;

/// How long a listener stays off epoll after accept() ran out of
/// descriptors before the loop tries again.
constexpr std::chrono::milliseconds kAcceptBackoff{10};

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

EventLoop::EventLoop(const EventLoopOptions& options, LineHandler on_line,
                     HttpHandler on_http, AcceptHandler on_accept)
    : options_(options),
      on_line_(std::move(on_line)),
      on_http_(std::move(on_http)),
      on_accept_(std::move(on_accept)) {}

EventLoop::~EventLoop() {
  Stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Status EventLoop::Start() {
  if (started_.exchange(true)) return Status::OK();
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Status::Internal("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return Status::Internal("eventfd failed");
  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::Internal("epoll_ctl(wake) failed");
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EventLoop::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  Post(Mail{});  // Mail default-constructs to kStop
  if (thread_.joinable()) thread_.join();
}

void EventLoop::Post(Mail mail) {
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    mail_.push_back(std::move(mail));
  }
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    // A full eventfd counter still wakes the loop; ignore short writes.
    ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
    (void)ignored;
  }
}

void EventLoop::AddListener(int listen_fd, ConnKind kind) {
  Mail mail;
  mail.kind = Mail::Kind::kAddListener;
  mail.fd = listen_fd;
  mail.conn_kind = kind;
  Post(std::move(mail));
}

void EventLoop::AddConnection(int fd, ConnKind kind) {
  // Counted at handoff, not when the loop processes the mail: admission
  // gates on open_connections(), and counting late would let an accept
  // burst overshoot the connection cap while kAddConn mail sits queued.
  // The failure paths in ProcessMail (and loop teardown) undo this.
  open_connections_.fetch_add(1, std::memory_order_relaxed);
  Mail mail;
  mail.kind = Mail::Kind::kAddConn;
  mail.fd = fd;
  mail.conn_kind = kind;
  Post(std::move(mail));
}

void EventLoop::Respond(uint64_t conn, std::string bytes,
                        bool close_after_flush) {
  Mail mail;
  mail.kind = Mail::Kind::kRespond;
  mail.conn = conn;
  mail.payload = std::move(bytes);
  mail.close_after_flush = close_after_flush;
  Post(std::move(mail));
}

void EventLoop::Run() {
  std::vector<struct epoll_event> events(64);
  while (true) {
    std::vector<Mail> batch;
    {
      std::lock_guard<std::mutex> lock(mail_mu_);
      batch.swap(mail_);
    }
    ProcessMail(std::move(batch));
    if (stop_requested_) break;

    const int timeout_ms = ResumeListeners();
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only happens during teardown
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t mask = events[i].events;
      if (id == kWakeId) {
        uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto lit = listeners_.find(id);
      if (lit != listeners_.end()) {
        HandleAccept(&lit->second);
        continue;
      }
      auto cit = conns_.find(id);
      if (cit == conns_.end()) continue;  // closed earlier in this batch
      Conn* conn = &cit->second;
      if (mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        HandleReadable(id, conn);
        cit = conns_.find(id);
        if (cit == conns_.end()) continue;
        conn = &cit->second;
      }
      if (mask & EPOLLOUT) {
        if (!FlushOut(id, conn)) continue;
        UpdateInterest(conn);
      }
    }
  }

  // Teardown on the loop thread: every fd registered here is owned here.
  for (auto& [id, conn] : conns_) {
    ::close(conn.fd);
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.clear();
  for (auto& [id, listener] : listeners_) ::close(listener.fd);
  listeners_.clear();
  // Mail that raced with stop never reaches ProcessMail: close handed-off
  // fds and give back their AddConnection() handoff counts.
  std::vector<Mail> leftover;
  {
    std::lock_guard<std::mutex> lock(mail_mu_);
    leftover.swap(mail_);
  }
  for (const Mail& mail : leftover) {
    if (mail.kind == Mail::Kind::kAddConn) {
      ::close(mail.fd);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
    } else if (mail.kind == Mail::Kind::kAddListener) {
      ::close(mail.fd);
    }
  }
}

void EventLoop::ProcessMail(std::vector<Mail> batch) {
  for (Mail& mail : batch) {
    switch (mail.kind) {
      case Mail::Kind::kStop:
        stop_requested_ = true;
        break;
      case Mail::Kind::kAddListener: {
        if (!SetNonBlocking(mail.fd)) {
          // A blocking listener would wedge the loop in HandleAccept's
          // accept-until-EAGAIN drain; refuse it like kAddConn does.
          ::close(mail.fd);
          break;
        }
        const uint64_t id = next_id_++;
        if (!WatchListener(id, mail.fd)) {
          ::close(mail.fd);
          break;
        }
        listeners_.emplace(id, Listener{mail.fd, mail.conn_kind, {}});
        break;
      }
      case Mail::Kind::kAddConn: {
        if (!SetNonBlocking(mail.fd)) {
          ::close(mail.fd);
          open_connections_.fetch_sub(1, std::memory_order_relaxed);
          break;
        }
        const uint64_t id = next_id_++;
        auto [it, inserted] =
            conns_.emplace(id, Conn(options_.max_request_bytes));
        Conn* conn = &it->second;
        conn->fd = mail.fd;
        conn->epoll_id = id;
        conn->kind = mail.conn_kind;
        struct epoll_event ev;
        ::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN | EPOLLRDHUP;
        ev.data.u64 = id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, mail.fd, &ev) != 0) {
          ::close(mail.fd);
          conns_.erase(id);
          open_connections_.fetch_sub(1, std::memory_order_relaxed);
          break;
        }
        conn->armed_events = EPOLLIN | EPOLLRDHUP;
        break;
      }
      case Mail::Kind::kRespond: {
        auto it = conns_.find(mail.conn);
        if (it == conns_.end()) break;  // connection died first — drop
        Conn* conn = &it->second;
        conn->out += mail.payload;
        conn->in_flight = false;
        if (mail.close_after_flush) conn->close_after_flush = true;
        if (!FlushOut(mail.conn, conn)) break;
        // The slot is free again: frame the next pipelined request, or
        // finish an EOF'd connection whose last response just went out.
        ProcessInput(mail.conn, conn);
        it = conns_.find(mail.conn);
        if (it == conns_.end()) break;
        conn = &it->second;
        if (conn->peer_eof && !conn->in_flight && !conn->close_after_flush) {
          conn->close_after_flush = true;
          if (!FlushOut(mail.conn, conn)) break;
        }
        UpdateInterest(conn);
        break;
      }
    }
  }
}

bool EventLoop::WatchListener(uint64_t id, int fd) {
  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void EventLoop::HandleAccept(Listener* listener) {
  while (true) {
    int fd = ::accept(listener->fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // The connection stays queued and the level-triggered listener
        // stays readable: stop watching it until the back-off elapses,
        // or the loop would spin on accept() until a descriptor frees.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener->fd, nullptr);
        listener->paused_until =
            std::chrono::steady_clock::now() + kAcceptBackoff;
      }
      return;  // EAGAIN, descriptor exhaustion, or listener gone
    }
    if (on_accept_) {
      on_accept_(fd, listener->kind);
    } else {
      AddConnection(fd, listener->kind);
    }
  }
}

int EventLoop::ResumeListeners() {
  int timeout_ms = -1;
  for (auto& [id, listener] : listeners_) {
    if (!listener.paused_until.has_value()) continue;
    const auto now = std::chrono::steady_clock::now();
    if (now >= *listener.paused_until) {
      if (WatchListener(id, listener.fd)) {
        listener.paused_until.reset();
        continue;
      }
      listener.paused_until = now + kAcceptBackoff;  // retry the re-arm
    }
    const int due_ms = static_cast<int>(
        std::chrono::ceil<std::chrono::milliseconds>(*listener.paused_until -
                                                     now)
            .count());
    timeout_ms = timeout_ms < 0 ? due_ms : std::min(timeout_ms, due_ms);
  }
  return timeout_ms;
}

void EventLoop::HandleReadable(uint64_t id, Conn* conn) {
  char buf[4096];
  while (!conn->peer_eof && !conn->close_after_flush &&
         conn->in.size() < options_.max_buffered_bytes) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      conn->peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(id, conn);  // hard error (ECONNRESET et al.)
    return;
  }
  ProcessInput(id, conn);
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  conn = &it->second;
  if (conn->peer_eof && !conn->in_flight && !conn->close_after_flush) {
    // Peer finished sending and nothing is pending: flush whatever is
    // queued and close (half-closed clients still get their responses).
    conn->close_after_flush = true;
  }
  if (!FlushOut(id, conn)) return;
  UpdateInterest(conn);
}

void EventLoop::ProcessInput(uint64_t id, Conn* conn) {
  if (conn->kind == ConnKind::kLine) {
    while (!conn->in_flight && !conn->close_after_flush) {
      size_t nl = conn->in.find('\n');
      if (nl == std::string::npos) {
        if (conn->in.size() > options_.max_request_bytes) {
          conn->out += options_.overflow_response;
          conn->close_after_flush = true;
        }
        return;
      }
      std::string line = conn->in.substr(0, nl);
      conn->in.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // blank lines are skipped, not errors
      conn->in_flight = true;
      on_line_(this, id, std::move(line));
    }
    return;
  }
  while (!conn->in_flight && !conn->close_after_flush) {
    HttpRequest request;
    HttpRequestParser::State state = conn->parser.Consume(&conn->in, &request);
    if (state == HttpRequestParser::State::kNeedMore) return;
    if (state == HttpRequestParser::State::kError) {
      conn->out += FormatHttpResponse("400 Bad Request", "text/plain",
                                      conn->parser.error() + "\n");
      conn->close_after_flush = true;
      return;
    }
    conn->in_flight = true;
    on_http_(this, id, std::move(request));
  }
}

bool EventLoop::FlushOut(uint64_t id, Conn* conn) {
  while (conn->out_offset < conn->out.size()) {
    ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_offset,
                       conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(id, conn);  // peer gone mid-write
    return false;
  }
  if (conn->out_offset >= conn->out.size()) {
    conn->out.clear();
    conn->out_offset = 0;
    if (conn->close_after_flush) {
      CloseConn(id, conn);
      return false;
    }
  }
  return true;
}

void EventLoop::UpdateInterest(Conn* conn) {
  uint32_t want = 0;
  const bool read_open = !conn->peer_eof && !conn->close_after_flush &&
                         conn->in.size() < options_.max_buffered_bytes;
  if (read_open) want |= EPOLLIN | EPOLLRDHUP;
  if (conn->out_offset < conn->out.size()) want |= EPOLLOUT;
  if (want == conn->armed_events) return;
  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  ev.events = want;
  ev.data.u64 = conn->epoll_id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->armed_events = want;
}

void EventLoop::CloseConn(uint64_t id, Conn* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(id);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace server
}  // namespace sofos
