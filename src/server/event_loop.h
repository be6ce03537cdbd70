// Epoll event loop for the online server: one thread multiplexing many
// non-blocking connections, so thousands of mostly-idle clients cost a
// few hundred bytes of buffer each instead of a pinned pool thread.
//
// Division of labor:
//
//   - The loop thread owns every socket registered with it: it accepts
//     (listener fds live in the loop too), reads until a complete
//     request is framed (one protocol line, or one HTTP head + body),
//     and writes responses with backpressure — leftover bytes re-arm
//     EPOLLOUT and flush when the peer drains.
//   - Only *parsed requests* leave the loop: the registered handler runs
//     on the loop thread and must not block — it either answers inline
//     via Respond() (cheap verbs, admission sheds, protocol errors) or
//     dispatches the request to a worker pool, whose task calls
//     Respond() later from its own thread.
//
// When accept() runs out of descriptors (EMFILE/ENFILE) the pending
// connection keeps the level-triggered listener readable, so the loop
// takes the listener off epoll and re-arms it after a short back-off
// instead of spinning; the connection is accepted once a descriptor
// frees up.
//
// One request is in flight per connection at a time: the loop stops
// framing further requests on a connection until the response for the
// current one arrives, which keeps responses ordered without any
// per-connection queue (pipelined request bytes simply wait in the read
// buffer). Connections are addressed by loop-local uint64 tokens, never
// by fd, so a response for a connection that died in the meantime is
// dropped instead of reaching a recycled descriptor.
//
// Thread safety: AddConnection/AddListener/Respond/Stop may be called
// from any thread (mailbox + eventfd wakeup); everything else — buffers,
// parser state, epoll interest — is touched only by the loop thread.
// Respond() after Stop() is safe (dropped); Respond() after destruction
// is not — the server keeps its loops alive until the worker pool has
// drained.
#ifndef SOFOS_SERVER_EVENT_LOOP_H_
#define SOFOS_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "server/http.h"

namespace sofos {
namespace server {

/// What the bytes on a connection mean: the SOFOS line protocol or HTTP.
enum class ConnKind {
  kLine,
  kHttp,
};

struct EventLoopOptions {
  /// A protocol line (or HTTP head / body) larger than this is answered
  /// with `overflow_response` (line) / 400 (HTTP) and the connection
  /// closed.
  size_t max_request_bytes = 1u << 20;
  /// Read backpressure: once this many bytes are buffered unparsed (a
  /// pipelining client outrunning its one-in-flight slot), the loop
  /// stops reading the connection until the buffer drains.
  size_t max_buffered_bytes = (1u << 20) + (64u << 10);
  /// Sent verbatim before closing when a line connection exceeds
  /// max_request_bytes (the server passes a framed ERR response).
  std::string overflow_response;
};

class EventLoop {
 public:
  /// Handlers run on the loop thread with a framed request; `conn` is the
  /// token to Respond() to. They must not block.
  using LineHandler =
      std::function<void(EventLoop* loop, uint64_t conn, std::string line)>;
  using HttpHandler =
      std::function<void(EventLoop* loop, uint64_t conn, HttpRequest request)>;
  /// Runs on the loop thread for every fd accepted off a registered
  /// listener. The callee owns the fd: typically admission-check, then
  /// AddConnection() on some loop (not necessarily this one) or respond
  /// and close.
  using AcceptHandler = std::function<void(int fd, ConnKind kind)>;

  EventLoop(const EventLoopOptions& options, LineHandler on_line,
            HttpHandler on_http, AcceptHandler on_accept);
  ~EventLoop();  // implies Stop()

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll/eventfd pair and spawns the loop thread.
  Status Start();

  /// Closes every owned connection and listener and joins the loop
  /// thread. Idempotent. Respond() calls arriving afterwards are dropped.
  void Stop();

  /// Transfers a listening socket into the loop: accepted fds are handed
  /// to the accept handler. The loop closes the listener on Stop().
  void AddListener(int listen_fd, ConnKind kind);

  /// Transfers an accepted connection into the loop (sets O_NONBLOCK).
  void AddConnection(int fd, ConnKind kind);

  /// Delivers the response for the in-flight request on `conn` and
  /// re-opens the connection for its next request; `close_after_flush`
  /// closes it once the bytes are written (QUIT, HTTP, fatal errors).
  /// Unknown/dead tokens are ignored.
  void Respond(uint64_t conn, std::string bytes, bool close_after_flush);

  /// Live connections owned by this loop (listeners excluded).
  size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    uint64_t epoll_id = 0;  // this conn's key (mirrors epoll data.u64)
    ConnKind kind = ConnKind::kLine;
    std::string in;
    std::string out;
    size_t out_offset = 0;  // bytes of `out` already sent
    bool in_flight = false;
    bool close_after_flush = false;
    bool peer_eof = false;
    uint32_t armed_events = 0;  // current epoll interest
    HttpRequestParser parser;

    explicit Conn(size_t max_bytes) : parser(max_bytes) {}
  };

  struct Listener {
    int fd = -1;
    ConnKind kind = ConnKind::kLine;
    /// Set while the listener is off epoll after accept() ran out of
    /// descriptors; Run() re-arms it at this time.
    std::optional<std::chrono::steady_clock::time_point> paused_until;
  };

  struct Mail {
    enum class Kind { kAddConn, kAddListener, kRespond, kStop };
    Kind kind = Kind::kStop;
    int fd = -1;
    ConnKind conn_kind = ConnKind::kLine;
    uint64_t conn = 0;
    std::string payload;
    bool close_after_flush = false;
  };

  void Run();
  void Post(Mail mail);
  void ProcessMail(std::vector<Mail> batch);
  /// Registers a listener with epoll (level-triggered EPOLLIN).
  bool WatchListener(uint64_t id, int fd);
  void HandleAccept(Listener* listener);
  /// Re-arms paused listeners whose back-off has elapsed; returns the
  /// epoll_wait timeout until the next one is due (-1 = none paused).
  int ResumeListeners();
  void HandleReadable(uint64_t id, Conn* conn);
  /// Frames and dispatches as many requests as the one-in-flight rule
  /// allows from the connection's read buffer.
  void ProcessInput(uint64_t id, Conn* conn);
  /// Writes as much of `out` as the socket takes. Returns false when the
  /// connection was closed (write error or close_after_flush drained).
  bool FlushOut(uint64_t id, Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(uint64_t id, Conn* conn);

  EventLoopOptions options_;
  LineHandler on_line_;
  HttpHandler on_http_;
  AcceptHandler on_accept_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::mutex mail_mu_;
  std::vector<Mail> mail_;

  /// Loop-thread state.
  std::map<uint64_t, Conn> conns_;
  std::map<uint64_t, Listener> listeners_;
  uint64_t next_id_ = 16;  // ids below are reserved (wake/listeners)
  bool stop_requested_ = false;

  std::atomic<size_t> open_connections_{0};
};

}  // namespace server
}  // namespace sofos

#endif  // SOFOS_SERVER_EVENT_LOOP_H_
