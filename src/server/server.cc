#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>

#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "server/http.h"
#include "server/io_util.h"
#include "workload/generator.h"

namespace sofos {
namespace server {

namespace {

constexpr size_t kMaxRequestLine = 1u << 20;  // 1 MiB: plenty for SPARQL text

/// 503 body + Retry-After for shedding HTTP /query requests.
std::string HttpOverloadedResponse(int retry_ms) {
  return FormatHttpResponse(
      "503 Service Unavailable", "application/json",
      StrFormat("{\"error\":\"overloaded\",\"retry_ms\":%d}\n", retry_ms),
      StrFormat("Retry-After: %d\r\n", std::max(1, (retry_ms + 999) / 1000)));
}

/// Cached-entry layout: one meta line "<rows>\t<cols>\t<view>\n" followed by
/// the wire body. Keeps the cache a single string while letting a hit
/// regenerate the header without rescanning the payload.
std::string PackCacheEntry(uint64_t rows, uint64_t cols,
                           const std::string& view, const std::string& body) {
  return std::to_string(rows) + '\t' + std::to_string(cols) + '\t' + view +
         '\n' + body;
}

bool UnpackCacheEntry(const std::string& entry, uint64_t* rows, uint64_t* cols,
                      std::string* view, std::string* body) {
  size_t eol = entry.find('\n');
  if (eol == std::string::npos) return false;
  std::istringstream meta(entry.substr(0, eol));
  std::string view_token;
  if (!(meta >> *rows >> *cols >> view_token)) return false;
  *view = view_token;
  body->assign(entry, eol + 1, std::string::npos);
  return true;
}

/// Binds a loopback TCP listener on `port` (0 = ephemeral) and returns
/// the fd, with the bound port in *bound_port. Shared by the protocol
/// and HTTP listeners.
Result<int> BindLoopback(uint16_t port, uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    return Status::Internal(std::string("bind: ") + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    int err = errno;
    ::close(fd);
    return Status::Internal(std::string("listen: ") + std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    int err = errno;
    ::close(fd);
    return Status::Internal(std::string("getsockname: ") + std::strerror(err));
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

SofosServer::SofosServer(core::SofosEngine* engine, const ServerOptions& options)
    : engine_(engine),
      options_(options),
      cache_(options.cache),
      slow_log_(options.slow_query) {}

SofosServer::~SofosServer() { Stop(); }

Status SofosServer::Start() {
  if (running_) return Status::Internal("server already running");

  // The read view sessions resolve must exist before the first byte of
  // traffic; this also validates that the engine has a loaded store.
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    SOFOS_RETURN_IF_ERROR(PublishAndInvalidate());
  }

  // The queue-model admission controller: per-request shedding, plus the
  // retry hint for connections rejected at the max_connections cap.
  // c = the worker pool size; the static busy_retry_ms becomes the
  // model's no-data fallback.
  {
    AdmissionOptions aopts = options_.admission;
    aopts.servers = std::max(1u, options_.max_sessions);
    aopts.fallback_retry_ms = options_.busy_retry_ms;
    admission_ = std::make_unique<AdmissionController>(aopts);
  }
  max_connections_ =
      options_.max_connections != 0 ? options_.max_connections : 4096;

  SOFOS_ASSIGN_OR_RETURN(listen_fd_, BindLoopback(options_.port, &port_));

  if (options_.enable_http) {
    auto http_fd = BindLoopback(options_.http_port, &http_port_);
    if (!http_fd.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return http_fd.status();
    }
    http_listen_fd_ = *http_fd;
  }

  // The loops own every socket, listeners included — no accept threads.
  // loops_ must be fully populated *before* the metrics collector below
  // is registered and the telemetry sampler starts: both read loops_
  // (via open_connections()) from other threads, and it is the
  // collector registration / sampler-thread creation that publishes
  // the finished vector to them. The listener fds are handed over only
  // at the end of Start(), so no callback fires before running_ flips.
  EventLoopOptions lopts;
  lopts.max_request_bytes = kMaxRequestLine;
  lopts.overflow_response =
      FormatError("request line too long") + "\n" + kEndMarker + "\n";
  const unsigned n_loops = std::max(1u, options_.io_threads);
  for (unsigned i = 0; i < n_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(
        lopts,
        [this](EventLoop* loop, uint64_t conn, std::string line) {
          OnLineRequest(loop, conn, std::move(line));
        },
        [this](EventLoop* loop, uint64_t conn, HttpRequest request) {
          OnHttpRequest(loop, conn, std::move(request));
        },
        [this](int fd, ConnKind kind) { OnAccept(fd, kind); }));
    Status started = loops_.back()->Start();
    if (!started.ok()) {
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      if (http_listen_fd_ >= 0) {
        ::close(http_listen_fd_);
        http_listen_fd_ = -1;
      }
      return started;
    }
  }

  // Bridge the server's bespoke stats into the engine's registry so
  // METRICS sees every counter in the process: per-endpoint SLOs under
  // sofos_server_*{endpoint="..."} and the result cache under
  // sofos_cache_*. The callback only reads atomics / per-shard mutexes
  // and runs outside the registry lock, so it is safe from any thread.
  metrics_collector_id_ = engine_->metrics()->RegisterCollector(
      [this](std::vector<MetricSample>* out) {
        auto counter = [out](std::string name, uint64_t v) {
          MetricSample s;
          s.name = std::move(name);
          s.kind = MetricSample::Kind::kCounter;
          s.counter_value = v;
          out->push_back(std::move(s));
        };
        auto gauge = [out](std::string name, double v) {
          MetricSample s;
          s.name = std::move(name);
          s.kind = MetricSample::Kind::kGauge;
          s.gauge_value = v;
          out->push_back(std::move(s));
        };
        auto histogram = [out](std::string name,
                               LatencyHistogram::Snapshot snap) {
          MetricSample s;
          s.name = std::move(name);
          s.kind = MetricSample::Kind::kHistogram;
          s.histogram = std::move(snap);
          out->push_back(std::move(s));
        };
        for (int i = 0; i < static_cast<int>(Endpoint::kNumEndpoints); ++i) {
          const Endpoint endpoint = static_cast<Endpoint>(i);
          const EndpointMetrics& ep = metrics_.ForEndpoint(endpoint);
          const std::string label =
              std::string("{endpoint=\"") + EndpointName(endpoint) + "\"}";
          counter("sofos_server_requests_total" + label,
                  ep.requests.load(std::memory_order_relaxed));
          counter("sofos_server_errors_total" + label,
                  ep.errors.load(std::memory_order_relaxed));
          histogram("sofos_server_request_micros" + label,
                    ep.latency.TakeSnapshot());
        }
        counter("sofos_server_accepted_total", metrics_.accepted());
        counter("sofos_server_rejected_total", metrics_.rejected());
        counter("sofos_server_cache_hits_total", metrics_.cache_hits());
        counter("sofos_server_cache_misses_total", metrics_.cache_misses());
        gauge("sofos_server_queue_depth",
              static_cast<double>(metrics_.queue_depth()));
        gauge("sofos_server_active_sessions",
              static_cast<double>(metrics_.active_sessions()));
        ResultCacheStats cs = cache_.Stats();
        counter("sofos_cache_hits_total", cs.hits);
        counter("sofos_cache_misses_total", cs.misses);
        counter("sofos_cache_insertions_total", cs.insertions);
        counter("sofos_cache_evictions_total", cs.evictions);
        counter("sofos_cache_invalidations_total", cs.invalidations);
        counter("sofos_cache_admission_rejects_total", cs.admission_rejects);
        counter("sofos_cache_ttl_expired_total", cs.ttl_expired);
        counter("sofos_cache_carried_forward_total", cs.carried_forward);
        gauge("sofos_cache_entries", static_cast<double>(cs.entries));
        gauge("sofos_cache_bytes", static_cast<double>(cs.bytes));
        histogram("sofos_cache_age_at_hit_micros", std::move(cs.age_at_hit));
        if (admission_ != nullptr) {
          AdmissionStats as = admission_->Stats();
          counter("sofos_server_admission_admitted_total", as.admitted);
          counter("sofos_server_admission_shed_total", as.shed);
          histogram("sofos_server_admission_estimated_wait_micros",
                    std::move(as.estimated_wait));
          gauge("sofos_server_admission_arrival_per_second",
                as.arrival_per_second);
          gauge("sofos_server_admission_service_micros", as.service_micros);
          gauge("sofos_server_admission_utilization", as.utilization);
          gauge("sofos_server_admission_retry_ms", as.last_retry_ms);
        }
        gauge("sofos_server_open_connections",
              static_cast<double>(open_connections()));
        gauge("sofos_server_inflight_requests",
              static_cast<double>(InFlightRequests()));
      });

  pool_ = std::make_unique<ThreadPool>(std::max(1u, options_.max_sessions));
  // The session pool's queue-wait/task-run/depth figures are the observed
  // arrival/service signals the queue-model admission policy needs; the
  // bridge must unregister before pool_.reset() in Stop().
  pool_collector_id_ = pool_->BridgeMetrics(engine_->metrics());

  if (options_.enable_telemetry) {
    TelemetryOptions topts;
    topts.capacity = options_.history_capacity;
    telemetry_ =
        std::make_unique<TelemetryHistory>(engine_->metrics(), topts);
    telemetry_->StartSampler(options_.sample_period_seconds);
    admission_->SetTelemetry(telemetry_.get());
  }

  running_ = true;
  loops_[0]->AddListener(listen_fd_, ConnKind::kLine);
  if (http_listen_fd_ >= 0) {
    loops_[0]->AddListener(http_listen_fd_, ConnKind::kHttp);
  }
  return Status::OK();
}

void SofosServer::Stop() {
  if (!running_.exchange(false)) return;  // never started or already stopped

  // running_ is already false, so the loop threads shed every *new*
  // request from here on; requests already dispatched to the pool finish
  // and Respond() — drain them before tearing the loops down (a response
  // must never chase a destroyed loop).
  {
    std::unique_lock<std::mutex> lock(in_flight_mu_);
    in_flight_cv_.wait(lock, [this] { return in_flight_requests_ == 0; });
  }
  // The sampler reads the registry through collectors that touch server
  // state; quiesce it before that state starts tearing down. The history
  // itself stays readable after Stop() (the CLI renders it post-serve).
  if (telemetry_ != nullptr) telemetry_->StopSampler();
  // Stopping a loop closes every socket it owns — connections and the
  // listeners we transferred in Start().
  for (auto& loop : loops_) loop->Stop();
  loops_.clear();
  listen_fd_ = -1;
  http_listen_fd_ = -1;
  // The pool bridge captures the pool; it must unregister before the
  // workers join and the pool dies.
  if (pool_collector_id_ != 0) {
    engine_->metrics()->UnregisterCollector(pool_collector_id_);
    pool_collector_id_ = 0;
  }
  pool_.reset();
  // The collector closure captures `this`; it must not outlive the server
  // in the engine's registry (the engine usually does).
  if (metrics_collector_id_ != 0) {
    engine_->metrics()->UnregisterCollector(metrics_collector_id_);
    metrics_collector_id_ = 0;
  }
}

std::shared_ptr<const core::EngineSnapshot> SofosServer::SnapshotForEpoch(
    uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(retained_mu_);
  auto it = retained_.find(epoch);
  return it == retained_.end() ? nullptr : it->second;
}

uint64_t SofosServer::update_batches_applied() const {
  return update_batches_applied_.load(std::memory_order_relaxed);
}

Status SofosServer::PublishAndInvalidate(
    const std::vector<std::string>* untouched_views) {
  auto previous = engine_->CurrentSnapshot();
  const uint64_t previous_epoch = previous != nullptr ? previous->epoch() : 0;
  SOFOS_ASSIGN_OR_RETURN(auto snapshot, engine_->PublishSnapshot());
  if (options_.retain_snapshots) {
    std::lock_guard<std::mutex> lock(retained_mu_);
    retained_[snapshot->epoch()] = snapshot;
  }
  // Carry still-exact routed answers across the epoch bump before the
  // eager eviction drops everything that was not carried.
  if (untouched_views != nullptr && !untouched_views->empty() &&
      previous != nullptr && snapshot->epoch() > previous_epoch) {
    cache_.CarryForward(previous_epoch, snapshot->epoch(), *untouched_views);
  }
  cache_.EvictObsolete(snapshot->epoch());
  return Status::OK();
}

std::string SofosServer::ExecuteRequest(const Request& request,
                                        ExecutedQuery* executed) {
  std::string response;
  Endpoint endpoint = Endpoint::kStats;
  bool always_ok = false;  // STATS/METRICS/SLOW cannot fail
  WallTimer timer;
  switch (request.verb) {
    case Verb::kQuery:
      HandleQuery(request.arg, &response, executed);
      endpoint = Endpoint::kQuery;
      break;
    case Verb::kUpdate:
      HandleUpdate(request.arg, &response);
      endpoint = Endpoint::kUpdate;
      break;
    case Verb::kExplain:
      HandleExplain(request.arg, &response);
      endpoint = Endpoint::kExplain;
      break;
    case Verb::kAnalyze:
      HandleAnalyze(request.arg, &response);
      endpoint = Endpoint::kAnalyze;
      break;
    case Verb::kTrace:
      HandleTrace(request.arg, &response);
      endpoint = Endpoint::kTrace;
      break;
    case Verb::kStats:
      HandleStats(&response);
      endpoint = Endpoint::kStats;
      always_ok = true;
      break;
    case Verb::kMetrics:
      HandleMetrics(&response);
      endpoint = Endpoint::kMetrics;
      always_ok = true;
      break;
    case Verb::kHistory:
      HandleHistory(request.arg, &response);
      endpoint = Endpoint::kHistory;
      break;
    case Verb::kSlow:
      HandleSlow(&response);
      endpoint = Endpoint::kSlow;
      always_ok = true;
      break;
    case Verb::kQuit:
      // OnLineRequest answers QUIT before reaching here.
      return std::string("OK BYE\n") + kEndMarker + "\n";
  }
  const double micros = timer.ElapsedMicros();
  metrics_.ForEndpoint(endpoint).Record(
      micros, always_ok || response.rfind("OK", 0) == 0);
  if (admission_ != nullptr) admission_->OnComplete(micros);
  return response;
}

size_t SofosServer::InFlightRequests() const {
  std::lock_guard<std::mutex> lock(in_flight_mu_);
  return in_flight_requests_;
}

size_t SofosServer::open_connections() const {
  size_t total = 0;
  for (const auto& loop : loops_) total += loop->open_connections();
  return total;
}

void SofosServer::OnAccept(int fd, ConnKind kind) {
  if (!running_) {
    ::close(fd);
    return;
  }
  if (open_connections() >= max_connections_) {
    // Connection-level cap: bounds fds and buffers, not concurrency. The
    // fd is still blocking here (AddConnection flips it), and the
    // rejection fits a socket buffer, so SendAll cannot stall the loop.
    metrics_.RecordRejected();
    const int hint = admission_->ConnectionRetryHintMs(InFlightRequests());
    if (kind == ConnKind::kLine) {
      SendAll(fd, FormatBusy(hint) + "\n" + kEndMarker + "\n");
    } else {
      SendAll(fd, HttpOverloadedResponse(hint));
    }
    ::close(fd);
    return;
  }
  metrics_.RecordAccepted();
  const unsigned target =
      next_loop_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(loops_.size());
  loops_[target]->AddConnection(fd, kind);
}

void SofosServer::OnLineRequest(EventLoop* loop, uint64_t conn,
                                std::string line) {
  if (StrTrim(line).empty()) {
    // The loop already skips blank lines; belt-and-braces for CR-only.
    loop->Respond(conn, "", false);
    return;
  }
  auto request = ParseRequest(line);
  if (!request.ok()) {
    metrics_.RecordProtocolError();
    loop->Respond(conn,
                  FormatError(request.status().ToString()) + "\n" +
                      kEndMarker + "\n",
                  false);
    return;
  }
  if (request->verb == Verb::kQuit) {
    loop->Respond(conn, std::string("OK BYE\n") + kEndMarker + "\n", true);
    return;
  }
  if (!running_) {
    loop->Respond(conn,
                  FormatError("server shutting down") + "\n" + kEndMarker +
                      "\n",
                  true);
    return;
  }
  // Per-request queue-model admission: shed over-SLO arrivals with a
  // load-derived hint but keep the connection — the client retries on
  // the same socket.
  AdmissionDecision decision = admission_->Decide(InFlightRequests());
  if (!decision.admit) {
    metrics_.RecordRejected();
    loop->Respond(conn,
                  FormatBusy(decision.retry_ms) + "\n" + kEndMarker + "\n",
                  false);
    return;
  }
  DispatchToPool(loop, conn, std::move(*request), /*http_sparql=*/"");
}

void SofosServer::OnHttpRequest(EventLoop* loop, uint64_t conn,
                                HttpRequest request) {
  const bool is_query = request.path == "/query";
  if (!is_query) {
    loop->Respond(conn, HttpObservabilityResponse(request), true);
    return;
  }
  std::string sparql;
  if (request.method == "GET") {
    auto it = request.params.find("q");
    if (it != request.params.end()) sparql = it->second;
  } else if (request.method == "POST") {
    sparql = request.body;
  } else {
    loop->Respond(conn,
                  FormatHttpResponse("405 Method Not Allowed", "text/plain",
                                     "GET or POST /query\n"),
                  true);
    return;
  }
  if (StrTrim(sparql).empty()) {
    loop->Respond(
        conn,
        FormatHttpResponse("400 Bad Request", "application/json",
                           "{\"error\":\"missing query: GET /query?q=... or "
                           "POST body\"}\n"),
        true);
    return;
  }
  if (!running_) {
    loop->Respond(conn,
                  FormatHttpResponse("503 Service Unavailable", "text/plain",
                                     "server shutting down\n"),
                  true);
    return;
  }
  AdmissionDecision decision = admission_->Decide(InFlightRequests());
  if (!decision.admit) {
    metrics_.RecordRejected();
    loop->Respond(conn, HttpOverloadedResponse(decision.retry_ms), true);
    return;
  }
  Request wrapped;
  wrapped.verb = Verb::kQuery;
  wrapped.arg = std::string(StrTrim(sparql));
  // Copy before the call: argument evaluation order is unspecified, so
  // `wrapped.arg` must not be read in the same argument list that moves
  // `wrapped`.
  std::string http_sparql = wrapped.arg;
  DispatchToPool(loop, conn, std::move(wrapped), std::move(http_sparql));
}

void SofosServer::DispatchToPool(EventLoop* loop, uint64_t conn,
                                 Request request, std::string http_sparql) {
  {
    std::lock_guard<std::mutex> lock(in_flight_mu_);
    if (!running_) {
      // Raced with Stop() past its drain wait: answer without dispatching
      // (the pool may be tearing down).
      loop->Respond(conn,
                    FormatError("server shutting down") + "\n" + kEndMarker +
                        "\n",
                    true);
      return;
    }
    ++in_flight_requests_;
    const unsigned in_flight = in_flight_requests_;
    const unsigned servers = std::max(1u, options_.max_sessions);
    metrics_.SetQueueDepth(
        static_cast<int64_t>(in_flight > servers ? in_flight - servers : 0));
    metrics_.SetActiveSessions(
        static_cast<int64_t>(in_flight < servers ? in_flight : servers));
  }
  const bool is_http = !http_sparql.empty();
  pool_->Submit(
      [this, loop, conn, request = std::move(request),
       http_sparql = std::move(http_sparql), is_http] {
        ExecutedQuery executed;
        std::string response = is_http
                                   ? HttpQueryResponse(http_sparql, &executed)
                                   : ExecuteRequest(request, &executed);
        loop->Respond(conn, std::move(response), /*close_after_flush=*/is_http);
        // The capture re-runs the query, so it waits until the reply is
        // out: the client never waits for it, and its time stays out of
        // the endpoint histogram and the admission EWMA. It still counts
        // as in flight, so Stop() drains it.
        if (executed.snapshot != nullptr) {
          MaybeCaptureSlowQuery(executed.snapshot,
                                is_http ? http_sparql : request.arg,
                                executed.micros);
        }
        {
          std::lock_guard<std::mutex> lock(in_flight_mu_);
          --in_flight_requests_;
          const unsigned in_flight = in_flight_requests_;
          const unsigned servers = std::max(1u, options_.max_sessions);
          metrics_.SetQueueDepth(static_cast<int64_t>(
              in_flight > servers ? in_flight - servers : 0));
          metrics_.SetActiveSessions(
              static_cast<int64_t>(in_flight < servers ? in_flight : servers));
        }
        in_flight_cv_.notify_all();
      });
}

void SofosServer::HandleQuery(const std::string& arg, std::string* out,
                              ExecutedQuery* executed) {
  QueryOutcome result = ExecuteQuery(arg, executed);
  if (!result.ok) {
    *out = FormatError(result.error) + "\n" + kEndMarker + "\n";
    return;
  }
  *out = FormatQueryHeader(result.rows, result.cols, result.epoch,
                           result.cached, result.view, result.micros) +
         "\n" + result.body + kEndMarker + "\n";
}

SofosServer::QueryOutcome SofosServer::ExecuteQuery(const std::string& arg,
                                                    ExecutedQuery* executed) {
  QueryOutcome result;
  if (arg.empty()) {
    result.error = "usage: QUERY <sparql>";
    return result;
  }
  std::shared_ptr<const core::EngineSnapshot> snapshot =
      engine_->CurrentSnapshot();
  if (snapshot == nullptr) {
    result.error = "no published snapshot";
    return result;
  }
  const bool allow_views = true;
  const bool cache_enabled =
      options_.enable_cache && options_.cache.capacity_bytes > 0;
  std::string key;
  if (cache_enabled) {
    std::string normalized = NormalizeQueryText(arg);
    key = ResultCache::MakeKey(normalized, snapshot->epoch(), allow_views);
    std::string entry;
    if (cache_.Lookup(key, &entry)) {
      uint64_t rows = 0, cols = 0;
      std::string view, body;
      if (UnpackCacheEntry(entry, &rows, &cols, &view, &body)) {
        metrics_.RecordCacheHit();
        // Served-from-cache answers still belong in the recorded workload
        // (the observed traffic includes them); the routing decision is
        // whatever the cached execution made. No signature — the miss
        // that produced this entry recorded the replayable shape.
        core::WorkloadRecorder* recorder = engine_->recorder();
        if (recorder->enabled()) {
          core::RecordedQuery rec;
          rec.normalized_sparql = std::move(normalized);
          rec.used_view = view != "-";
          if (rec.used_view) {
            rec.view_mask = static_cast<uint32_t>(
                std::strtoul(view.c_str(), nullptr, 10));
          }
          rec.epoch = snapshot->epoch();
          rec.result_rows = rows;
          rec.cache_hit = true;
          recorder->Record(std::move(rec));
        }
        result.ok = true;
        result.rows = rows;
        result.cols = cols;
        result.epoch = snapshot->epoch();
        result.cached = true;
        result.view = std::move(view);
        result.micros = 0.0;
        result.body = std::move(body);
        return result;
      }
      // Unreadable entry (cannot happen with our own packing; defensive):
      // fall through to recompute and overwrite it.
    }
    metrics_.RecordCacheMiss();
  }

  auto outcome = snapshot->Answer(arg, allow_views);
  if (!outcome.ok()) {
    result.error = outcome.status().ToString();
    return result;
  }
  std::string view =
      outcome->used_view ? std::to_string(outcome->view_mask) : "-";
  std::string body = FormatQueryBody(outcome->result);
  result.ok = true;
  result.rows = outcome->result_rows;
  result.cols = outcome->result.NumCols();
  result.epoch = snapshot->epoch();
  result.cached = false;
  result.view = view;
  result.micros = outcome->micros;
  result.body = body;
  if (cache_enabled) {
    // The measured execution cost drives cost-aware admission: answers
    // cheaper than the configured floor are recomputed instead of cached.
    // Routed answers are tagged with their view label so an update that
    // provably leaves the view unchanged can carry them forward across
    // the epoch bump; base-graph answers ("") are always invalidated.
    cache_.Insert(key, snapshot->epoch(),
                  PackCacheEntry(outcome->result_rows,
                                 outcome->result.NumCols(), view, body),
                  outcome->micros, /*ttl_seconds=*/-1.0,
                  outcome->used_view ? view : "");
  }
  executed->snapshot = std::move(snapshot);
  executed->micros = outcome->micros;
  return result;
}

void SofosServer::MaybeCaptureSlowQuery(
    const std::shared_ptr<const core::EngineSnapshot>& snapshot,
    const std::string& arg, double observed_micros) {
  if (!slow_log_.ShouldCapture(observed_micros)) return;
  // One bounded, rate-limited diagnostic re-run: EXPLAIN ANALYZE for the
  // per-operator actuals, a traced Answer for the span tree. The re-run
  // is strictly extra work (DispatchToPool calls this after Respond(), so
  // the client already has its response), which is why ShouldCapture()
  // gates it behind the interval rate limit.
  SlowQueryRecord record;
  record.query = arg;
  record.micros = observed_micros;
  record.epoch = snapshot->epoch();
  auto analyze = snapshot->Analyze(arg, /*allow_views=*/true);
  record.analyze_text =
      analyze.ok() ? *analyze : "ANALYZE failed: " + analyze.status().ToString();
  TraceContext trace;
  auto rerun = snapshot->Answer(arg, /*allow_views=*/true, &trace);
  if (rerun.ok()) record.trace_json = trace.ToJson();
  slow_log_.Add(std::move(record));
}

void SofosServer::HandleUpdate(const std::string& arg, std::string* out) {
  // Strict parsing: a malformed argument must not silently fall back to
  // defaults — UPDATE mutates the graph and invalidates the cache, so a
  // typo has to fail loudly instead of applying a batch the client never
  // asked for.
  int batches = 1;
  double fraction = 0.01;
  bool parse_ok = true;
  {
    std::istringstream in(arg);
    std::vector<std::string> tokens;
    std::string token;
    while (in >> token) tokens.push_back(token);
    if (tokens.size() > 2) parse_ok = false;
    if (parse_ok && tokens.size() >= 1) {
      char* end = nullptr;
      long n = std::strtol(tokens[0].c_str(), &end, 10);
      if (end == tokens[0].c_str() || *end != '\0') parse_ok = false;
      else batches = static_cast<int>(n);
    }
    if (parse_ok && tokens.size() == 2) {
      char* end = nullptr;
      double f = std::strtod(tokens[1].c_str(), &end);
      if (end == tokens[1].c_str() || *end != '\0') parse_ok = false;
      else fraction = f;
    }
  }
  if (!parse_ok || batches < 1 || batches > 1000 || fraction <= 0 ||
      fraction > 1) {
    *out = FormatError("usage: UPDATE [1 <= batches <= 1000] "
                       "[0 < fraction <= 1]") +
           "\n" + kEndMarker + "\n";
    return;
  }

  WallTimer timer;
  uint64_t adds = 0, deletes = 0;
  double drift = 0.0;
  bool reselect = false;
  Status status = Status::OK();
  uint64_t epoch = 0;
  {
    // Single-writer section: the engine facade must not see concurrent
    // mutations, and batch seeds must advance deterministically.
    std::lock_guard<std::mutex> lock(update_mu_);
    workload::UpdateStreamOptions options;
    options.num_batches = batches;
    options.batch_fraction = fraction;
    options.seed =
        99 + update_batches_applied_.load(std::memory_order_relaxed);
    auto stream = workload::GenerateUpdateStream(
        engine_->base_snapshot(), engine_->store()->dictionary(), options);
    // Union of view masks the maintenance passes actually changed, so the
    // complement's cached answers can be carried across the epoch bump.
    std::set<uint32_t> touched;
    bool touched_known = true;
    if (!stream.ok()) {
      status = stream.status();
      touched_known = false;
    } else {
      for (const auto& delta : *stream) {
        auto result = engine_->ApplyUpdates(delta);
        if (!result.ok()) {
          status = result.status();
          touched_known = false;  // conservative: invalidate everything
          break;
        }
        update_batches_applied_.fetch_add(1, std::memory_order_relaxed);
        adds += result->adds_applied;
        deletes += result->deletes_applied;
        drift = result->staleness;
        reselect = result->reselect_recommended;
        for (const auto& vm : result->maintenance.views) {
          if (vm.touched()) touched.insert(vm.mask);
        }
      }
    }
    std::vector<std::string> untouched;
    if (touched_known) {
      for (uint32_t mask : engine_->MaterializedMasks()) {
        if (touched.count(mask) == 0) {
          untouched.push_back(std::to_string(mask));
        }
      }
    }
    // Publish whatever state was reached — even a partial multi-batch
    // failure must not leave sessions reading a retired epoch forever.
    Status publish =
        PublishAndInvalidate(touched_known ? &untouched : nullptr);
    if (status.ok()) status = publish;
    epoch = engine_->epoch();
  }
  if (!status.ok()) {
    *out = FormatError(status.ToString()) + "\n" + kEndMarker + "\n";
    return;
  }
  *out = StrFormat("OK UPDATE batches=%d adds=%llu deletes=%llu epoch=%llu "
                   "drift=%.3f reselect=%d micros=%.1f",
                   batches, static_cast<unsigned long long>(adds),
                   static_cast<unsigned long long>(deletes),
                   static_cast<unsigned long long>(epoch), drift,
                   reselect ? 1 : 0, timer.ElapsedMicros()) +
         "\n" + kEndMarker + "\n";
}

void SofosServer::HandleExplain(const std::string& arg, std::string* out) {
  std::shared_ptr<const core::EngineSnapshot> snapshot =
      engine_->CurrentSnapshot();
  if (snapshot == nullptr) {
    *out = FormatError("no published snapshot") + "\n" + kEndMarker + "\n";
    return;
  }
  std::string sparql = arg;
  if (sparql.empty()) {
    if (!snapshot->has_facet()) {
      *out = FormatError("EXPLAIN with no query requires a facet") + "\n" +
             kEndMarker + "\n";
      return;
    }
    sparql = snapshot->RootViewSparql();
  }
  auto plan = snapshot->Explain(sparql);
  if (!plan.ok()) {
    *out = FormatError(plan.status().ToString()) + "\n" + kEndMarker + "\n";
    return;
  }
  std::string body = *plan;
  if (body.empty() || body.back() != '\n') body += '\n';
  *out = StrFormat("OK EXPLAIN epoch=%llu",
                   static_cast<unsigned long long>(snapshot->epoch())) +
         "\n" + body + kEndMarker + "\n";
}

void SofosServer::HandleAnalyze(const std::string& arg, std::string* out) {
  std::shared_ptr<const core::EngineSnapshot> snapshot =
      engine_->CurrentSnapshot();
  if (snapshot == nullptr) {
    *out = FormatError("no published snapshot") + "\n" + kEndMarker + "\n";
    return;
  }
  std::string sparql = arg;
  if (sparql.empty()) {
    if (!snapshot->has_facet()) {
      *out = FormatError("ANALYZE with no query requires a facet") + "\n" +
             kEndMarker + "\n";
      return;
    }
    sparql = snapshot->RootViewSparql();
  }
  auto text = snapshot->Analyze(sparql, /*allow_views=*/true);
  if (!text.ok()) {
    *out = FormatError(text.status().ToString()) + "\n" + kEndMarker + "\n";
    return;
  }
  std::string body = *text;
  if (body.empty() || body.back() != '\n') body += '\n';
  *out = StrFormat("OK ANALYZE epoch=%llu",
                   static_cast<unsigned long long>(snapshot->epoch())) +
         "\n" + body + kEndMarker + "\n";
}

void SofosServer::HandleTrace(const std::string& arg, std::string* out) {
  if (arg.empty()) {
    *out = FormatError("usage: TRACE <sparql>") + "\n" + kEndMarker + "\n";
    return;
  }
  std::shared_ptr<const core::EngineSnapshot> snapshot =
      engine_->CurrentSnapshot();
  if (snapshot == nullptr) {
    *out = FormatError("no published snapshot") + "\n" + kEndMarker + "\n";
    return;
  }
  // Uncached by design: a TRACE is a request to *execute and observe*,
  // so serving a memoized payload would defeat the point.
  TraceContext trace;
  auto outcome = snapshot->Answer(arg, /*allow_views=*/true, &trace);
  if (!outcome.ok()) {
    *out = FormatError(outcome.status().ToString()) + "\n" + kEndMarker + "\n";
    return;
  }
  const size_t spans = trace.Spans().size();
  *out = StrFormat("OK TRACE rows=%llu epoch=%llu view=%s micros=%.1f "
                   "spans=%zu",
                   static_cast<unsigned long long>(outcome->result_rows),
                   static_cast<unsigned long long>(snapshot->epoch()),
                   outcome->used_view
                       ? std::to_string(outcome->view_mask).c_str()
                       : "-",
                   outcome->micros, spans) +
         "\n" + trace.ToJson() + "\n" + kEndMarker + "\n";
}

void SofosServer::HandleMetrics(std::string* out) {
  // Prometheus text exposition of the engine registry — which, via the
  // collector registered in Start(), includes this server's endpoint SLOs
  // and the result cache alongside the engine's phase/view metrics.
  std::string body = engine_->metrics()->PrometheusText();
  if (body.empty() || body.back() != '\n') body += '\n';
  *out = std::string("OK METRICS\n") + body + kEndMarker + "\n";
}

void SofosServer::HandleStats(std::string* out) {
  *out = std::string("OK STATS\n") + StatsJson() + "\n" + kEndMarker + "\n";
}

std::string SofosServer::StatsJson() const {
  std::shared_ptr<const core::EngineSnapshot> snapshot =
      engine_->CurrentSnapshot();
  ResultCacheStats cache_stats = cache_.Stats();
  uint64_t batches = update_batches_applied_.load(std::memory_order_relaxed);
  std::string extra = StrFormat(
      "\"server\": {\"epoch\": %llu, \"triples\": %llu, "
      "\"update_batches\": %llu, \"cache_entries\": %llu, "
      "\"cache_bytes\": %llu, \"cache_evictions\": %llu, "
      "\"cache_invalidations\": %llu, \"cache_admission_rejects\": %llu, "
      "\"cache_ttl_expired\": %llu, \"cache_carried_forward\": %llu, "
      "\"cache_age_at_hit_p50_us\": %.1f}",
      static_cast<unsigned long long>(snapshot ? snapshot->epoch() : 0),
      static_cast<unsigned long long>(snapshot ? snapshot->num_triples() : 0),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(cache_stats.entries),
      static_cast<unsigned long long>(cache_stats.bytes),
      static_cast<unsigned long long>(cache_stats.evictions),
      static_cast<unsigned long long>(cache_stats.invalidations),
      static_cast<unsigned long long>(cache_stats.admission_rejects),
      static_cast<unsigned long long>(cache_stats.ttl_expired),
      static_cast<unsigned long long>(cache_stats.carried_forward),
      cache_stats.age_at_hit.P50());
  // Snapshot-publication latency (the O(changed shards) path): observable
  // online so the COW clone win shows up directly in STATS.
  LatencyHistogram::Snapshot publish = engine_->publish_latency();
  extra += StrFormat(
      ", \"publish\": {\"count\": %llu, \"mean_us\": %.1f, "
      "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f}",
      static_cast<unsigned long long>(publish.count), publish.MeanMicros(),
      publish.P50(), publish.P95(), publish.P99());
  // The full registry view (engine phases, per-view routing, plus this
  // server's own collector-contributed samples) as a nested object — the
  // same figures METRICS exposes, in JSON for programmatic clients.
  extra += ", \"registry\": " + engine_->metrics()->ToJson();
  return metrics_.ToJson(extra);
}

void SofosServer::SampleTelemetryNow() {
  if (telemetry_ != nullptr) telemetry_->Sample();
}

std::string SofosServer::HistoryJson(double window_seconds) const {
  if (telemetry_ == nullptr) {
    return "{\"valid\":false,\"window_seconds\":0,\"samples\":0,"
           "\"rates\":{},\"intervals\":{},\"gauges\":{}}";
  }
  return telemetry_->WindowJson(window_seconds);
}

void SofosServer::HandleHistory(const std::string& arg, std::string* out) {
  double window = 60.0;
  if (!arg.empty()) {
    auto parsed = ParseDouble(arg);
    if (!parsed.ok() || *parsed <= 0) {
      *out = FormatError("usage: HISTORY [window_seconds > 0]") + "\n" +
             kEndMarker + "\n";
      return;
    }
    window = *parsed;
  }
  const size_t samples = telemetry_ != nullptr ? telemetry_->size() : 0;
  *out = StrFormat("OK HISTORY window=%.1f samples=%zu", window, samples) +
         "\n" + HistoryJson(window) + "\n" + kEndMarker + "\n";
}

void SofosServer::HandleSlow(std::string* out) {
  *out = StrFormat("OK SLOW captured=%llu suppressed=%llu threshold_us=%.1f",
                   static_cast<unsigned long long>(slow_log_.captured_total()),
                   static_cast<unsigned long long>(
                       slow_log_.suppressed_total()),
                   slow_log_.threshold_micros()) +
         "\n" + slow_log_.ToJson() + "\n" + kEndMarker + "\n";
}

std::string SofosServer::HealthJson(bool* healthy) const {
  // Healthy = a new request would be admitted right now, as the
  // queue-model estimator sees it (Peek: no counters touched, so scraping
  // /healthz never skews shed statistics). The probe stays readable under
  // saturation because the event loop never blocks on worker threads.
  const size_t in_flight = InFlightRequests();
  const AdmissionDecision peek = admission_->Peek(in_flight);
  if (healthy != nullptr) *healthy = peek.admit;
  std::shared_ptr<const core::EngineSnapshot> snapshot =
      engine_->CurrentSnapshot();
  return StrFormat(
      "{\"status\":\"%s\",\"epoch\":%llu,\"in_flight\":%zu,"
      "\"estimated_wait_us\":%.1f,\"utilization\":%.3f,"
      "\"open_connections\":%zu,\"update_batches\":%llu,"
      "\"telemetry_samples\":%zu}",
      peek.admit ? "ok" : "overloaded",
      static_cast<unsigned long long>(snapshot ? snapshot->epoch() : 0),
      in_flight, peek.estimated_wait_micros, peek.utilization,
      open_connections(),
      static_cast<unsigned long long>(
          update_batches_applied_.load(std::memory_order_relaxed)),
      telemetry_ != nullptr ? telemetry_->size() : static_cast<size_t>(0));
}

std::string SofosServer::HttpObservabilityResponse(const HttpRequest& request) {
  if (request.method != "GET") {
    return FormatHttpResponse("405 Method Not Allowed", "text/plain",
                              "GET only\n");
  }
  if (request.path == "/metrics") {
    return FormatHttpResponse("200 OK", "text/plain; version=0.0.4",
                              engine_->metrics()->PrometheusText());
  }
  if (request.path == "/stats") {
    return FormatHttpResponse("200 OK", "application/json", StatsJson() + "\n");
  }
  if (request.path == "/history") {
    double window = 60.0;
    auto it = request.params.find("window");
    if (it != request.params.end()) {
      auto parsed = ParseDouble(it->second);
      if (!parsed.ok() || *parsed <= 0) {
        return FormatHttpResponse("400 Bad Request", "text/plain",
                                  "window must be a positive number\n");
      }
      window = *parsed;
    }
    return FormatHttpResponse("200 OK", "application/json",
                              HistoryJson(window) + "\n");
  }
  if (request.path == "/slow") {
    return FormatHttpResponse("200 OK", "application/json",
                              slow_log_.ToJson() + "\n");
  }
  if (request.path == "/healthz") {
    bool healthy = false;
    std::string body = HealthJson(&healthy) + "\n";
    return FormatHttpResponse(healthy ? "200 OK" : "503 Service Unavailable",
                              "application/json", body);
  }
  return FormatHttpResponse(
      "404 Not Found", "text/plain",
      "endpoints: /query /metrics /stats /history /slow /healthz\n");
}

std::string SofosServer::HttpQueryResponse(const std::string& sparql,
                                           ExecutedQuery* executed) {
  WallTimer timer;
  QueryOutcome result = ExecuteQuery(sparql, executed);
  std::string response;
  if (!result.ok) {
    response = FormatHttpResponse(
        "400 Bad Request", "application/json",
        "{\"error\":\"" + JsonEscape(result.error) + "\"}\n");
  } else {
    // The TSV body FormatQueryBody produced ("#vars\tv1..." then one
    // row per line) re-encoded as JSON arrays, with the line-protocol
    // header fields inline — one adapter, same execution + cache path.
    std::string json = StrFormat(
        "{\"rows\":%llu,\"cols\":%llu,\"epoch\":%llu,\"cached\":%s,"
        "\"view\":\"%s\",\"micros\":%.1f,",
        static_cast<unsigned long long>(result.rows),
        static_cast<unsigned long long>(result.cols),
        static_cast<unsigned long long>(result.epoch),
        result.cached ? "true" : "false", JsonEscape(result.view).c_str(),
        result.micros);
    json += "\"vars\":[";
    std::istringstream body(result.body);
    std::string line;
    bool first_row = true;
    std::string bindings = "\"bindings\":[";
    bool header_seen = false;
    while (std::getline(body, line)) {
      if (!header_seen) {
        header_seen = true;
        // "#vars\tv1\tv2..." — an empty projection has no tabs at all.
        size_t pos = line.find('\t');
        bool first_var = true;
        while (pos != std::string::npos) {
          size_t next = line.find('\t', pos + 1);
          std::string var = line.substr(
              pos + 1, next == std::string::npos ? std::string::npos
                                                 : next - pos - 1);
          if (!first_var) json += ',';
          first_var = false;
          json += '"' + JsonEscape(var) + '"';
          pos = next;
        }
        continue;
      }
      if (!first_row) bindings += ',';
      first_row = false;
      bindings += '[';
      size_t start = 0;
      bool first_cell = true;
      while (true) {
        size_t tab = line.find('\t', start);
        std::string cell = line.substr(
            start, tab == std::string::npos ? std::string::npos : tab - start);
        if (!first_cell) bindings += ',';
        first_cell = false;
        bindings += '"' + JsonEscape(cell) + '"';
        if (tab == std::string::npos) break;
        start = tab + 1;
      }
      bindings += ']';
    }
    json += "],";
    json += bindings;
    json += "]}\n";
    response = FormatHttpResponse("200 OK", "application/json", json);
  }
  const double micros = timer.ElapsedMicros();
  metrics_.ForEndpoint(Endpoint::kHttpQuery)
      .Record(micros, response.rfind("HTTP/1.0 200", 0) == 0);
  if (admission_ != nullptr) admission_->OnComplete(micros);
  return response;
}

}  // namespace server
}  // namespace sofos
