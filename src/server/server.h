#ifndef SOFOS_SERVER_SERVER_H_
#define SOFOS_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "server/admission.h"
#include "server/event_loop.h"
#include "server/http.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/slow_query_log.h"

namespace sofos {
namespace server {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back with
  /// port() after Start()).
  uint16_t port = 0;
  /// Requests executed concurrently — the size of the worker pool, and
  /// the queue model's server count c.
  unsigned max_sessions = 8;
  /// The retry hint floor for BUSY rejections: the admission controller's
  /// fallback while its model has no data, and the minimum hint for
  /// connections rejected at the max_connections cap (see
  /// AdmissionController).
  int busy_retry_ms = 50;

  /// ---- I/O architecture ----

  /// Event-loop threads. Connections are spread round-robin; each loop
  /// multiplexes its share with epoll.
  unsigned io_threads = 2;
  /// Open-connection cap (0 = default 4096). Accepts past the cap get
  /// BUSY/503 + close — this bounds fd/buffer usage, not concurrency;
  /// mostly-idle connections below it cost no threads.
  unsigned max_connections = 0;
  /// Queue-model admission tuning (SLO budget, retry clamps, telemetry
  /// window). `servers` and `fallback_retry_ms` are overwritten from
  /// max_sessions / busy_retry_ms at Start().
  AdmissionOptions admission;
  /// Query-result cache; capacity_bytes 0 disables caching entirely.
  ResultCacheOptions cache;
  bool enable_cache = true;
  /// Keep a handle on every published epoch snapshot instead of letting
  /// superseded ones die. Test-only: lets the loopback suite re-answer a
  /// query on the exact epoch a response was served from.
  bool retain_snapshots = false;

  /// ---- Continuous telemetry ----

  /// Run the background telemetry sampler (and keep a history ring) while
  /// serving. Off = HISTORY/`/history` report no data but cost nothing.
  bool enable_telemetry = true;
  /// Seconds between background samples of the metrics registry.
  double sample_period_seconds = 1.0;
  /// Retained samples: 360 at 1 s/sample = a 6-minute sliding window.
  size_t history_capacity = 360;

  /// Serve the HTTP/1.0 observability endpoint (GET /metrics /stats
  /// /history /slow /healthz) on a second loopback listener.
  bool enable_http = true;
  /// HTTP port; 0 picks an ephemeral port (read back with http_port()).
  uint16_t http_port = 0;

  /// Slow-query capture (threshold/rate-limit semantics in
  /// server/slow_query_log.h). threshold_micros <= 0 disables capture.
  SlowQueryOptions slow_query;
};

/// The SOFOS online serving subsystem: a concurrent TCP server speaking the
/// line protocol of server/protocol.h over localhost, plus an HTTP port
/// carrying the observability GETs and the /query JSON adapter.
///
/// Architecture: a small set of epoll event-loop threads own every
/// socket — they accept, frame requests from non-blocking reads, and
/// write responses with EPOLLOUT backpressure — and only parsed requests
/// are dispatched to the worker pool (common/thread_pool.h, max_sessions
/// workers). Connection count is therefore decoupled from thread count:
/// thousands of mostly-idle clients cost buffers, not workers. Admission
/// is per *request* through an M/M/c queue model (server/admission.h):
/// estimated-wait-over-SLO arrivals get `BUSY retry_ms=<load-derived>`
/// and the connection stays open. Only the open-connection cap
/// (max_connections) rejects at accept time, with BUSY/503 + close.
///
/// Serving coexists with updates through the engine's epoch snapshots:
/// QUERY/EXPLAIN sessions resolve SofosEngine::CurrentSnapshot() and run
/// entirely against that immutable read view, while UPDATE requests
/// (serialized by an internal writer mutex — the engine facade is single-
/// writer) mutate the live engine and publish a fresh snapshot. In-flight
/// queries finish on their old epoch; later requests see the new one; no
/// reader ever blocks on a writer.
///
/// On top sit a sharded LRU result cache keyed by (normalized query,
/// epoch) — epoch bumps invalidate implicitly, and the writer eagerly
/// evicts dead epochs after publishing — and per-endpoint SLO metrics
/// (request counts, p50/p95/p99 fixed-bucket latency, cache hit rate,
/// queue depth) served by STATS as one JSON line.
class SofosServer {
 public:
  /// `engine` must outlive the server and hold a loaded, finalized store.
  /// The server becomes the engine's only driver: no other thread may call
  /// engine methods (beyond CurrentSnapshot()) while it is running.
  SofosServer(core::SofosEngine* engine, const ServerOptions& options = {});
  ~SofosServer();  // implies Stop()

  SofosServer(const SofosServer&) = delete;
  SofosServer& operator=(const SofosServer&) = delete;

  /// Binds 127.0.0.1, publishes the initial snapshot, starts the event
  /// loops and the worker pool.
  Status Start();

  /// Stops accepting, waits for in-flight requests, closes every
  /// connection. Idempotent.
  void Stop();

  bool running() const { return running_; }
  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }
  /// The bound HTTP observability port (valid after Start() when
  /// options.enable_http; 0 otherwise).
  uint16_t http_port() const { return http_port_; }

  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }
  ResultCacheStats CacheStats() const { return cache_.Stats(); }
  /// Drops all cached results (bench_server's cold/warm boundary).
  void ClearCache() { cache_.Clear(); }

  /// Retained snapshot for `epoch` (requires options.retain_snapshots),
  /// or null.
  std::shared_ptr<const core::EngineSnapshot> SnapshotForEpoch(
      uint64_t epoch) const;

  /// Total UPDATE batches applied since Start() (seeds the deterministic
  /// update stream like the CLI's `update` command does).
  uint64_t update_batches_applied() const;

  /// The queue-model admission controller (valid after Start()).
  AdmissionController* admission() { return admission_.get(); }
  /// Live connections: the sum of the loops' open sockets.
  size_t open_connections() const;

  /// The telemetry history (null unless running with enable_telemetry).
  /// Safe to Sample()/Window() from any thread while the server runs.
  TelemetryHistory* telemetry() { return telemetry_.get(); }
  /// Takes one history sample immediately (test hook — lets suites drive
  /// the ring without waiting out the sampler period). No-op when
  /// telemetry is disabled.
  void SampleTelemetryNow();
  /// The HISTORY verb's JSON body: rates/interval percentiles over the
  /// trailing `window_seconds` ({"valid":false,...} when disabled or not
  /// enough samples yet).
  std::string HistoryJson(double window_seconds) const;

  const SlowQueryLog& slow_queries() const { return slow_log_; }

 private:
  /// One executed query in wire-neutral form, shared by the line
  /// protocol's QUERY and the HTTP/JSON adapter so both surfaces hit the
  /// same cache entries, recorder, and slow-query capture.
  struct QueryOutcome {
    bool ok = false;
    std::string error;  // when !ok
    uint64_t rows = 0;
    uint64_t cols = 0;
    uint64_t epoch = 0;
    bool cached = false;
    std::string view = "-";
    double micros = 0.0;
    std::string body;  // FormatQueryBody bytes (TSV)
  };

  /// The /healthz body; sets *healthy to the admission verdict.
  std::string HealthJson(bool* healthy) const;
  /// The STATS body (shared by the STATS verb and GET /stats).
  std::string StatsJson() const;

  /// Loop-thread callbacks: frame-level admission + dispatch.
  void OnAccept(int fd, ConnKind kind);
  void OnLineRequest(EventLoop* loop, uint64_t conn, std::string line);
  void OnHttpRequest(EventLoop* loop, uint64_t conn, HttpRequest request);
  /// Books the request in flight and hands it to the worker pool; the
  /// task answers through loop->Respond(). `http_sparql` non-empty means
  /// an HTTP /query request (responds with the JSON adapter instead of
  /// the line protocol).
  void DispatchToPool(EventLoop* loop, uint64_t conn, Request request,
                      std::string http_sparql);
  /// In-flight dispatched requests (running + queued), the queue-model's
  /// live input.
  size_t InFlightRequests() const;

  /// A query the engine ran (not a cache hit), kept so slow-query capture
  /// can run after the reply is sent. `snapshot` is null when none ran.
  struct ExecutedQuery {
    std::shared_ptr<const core::EngineSnapshot> snapshot;
    double micros = 0.0;
  };

  /// Runs one parsed non-QUIT request and returns the framed response.
  /// Records endpoint metrics and feeds the admission controller's
  /// service-time EWMA. A QUERY the engine ran is reported in *executed.
  std::string ExecuteRequest(const Request& request, ExecutedQuery* executed);

  /// The shared QUERY execution: cache lookup/fill and workload recording.
  /// Fills *executed when the engine ran the query.
  QueryOutcome ExecuteQuery(const std::string& arg, ExecutedQuery* executed);

  /// ---- HTTP ----

  /// Full response for the observability GETs (/metrics /stats /history
  /// /slow /healthz, plus 404/405 fallbacks). Never runs engine work.
  std::string HttpObservabilityResponse(const HttpRequest& request);
  /// Full response for GET/POST /query (runs the query on a pool worker).
  std::string HttpQueryResponse(const std::string& sparql,
                                ExecutedQuery* executed);

  /// Request handlers append "header\n[body...]\nEND\n" to *out.
  void HandleQuery(const std::string& arg, std::string* out,
                   ExecutedQuery* executed);
  void HandleUpdate(const std::string& arg, std::string* out);
  void HandleExplain(const std::string& arg, std::string* out);
  void HandleAnalyze(const std::string& arg, std::string* out);
  void HandleTrace(const std::string& arg, std::string* out);
  void HandleStats(std::string* out);
  void HandleMetrics(std::string* out);
  void HandleHistory(const std::string& arg, std::string* out);
  void HandleSlow(std::string* out);

  /// Slow-query capture: when the observed latency crosses the threshold
  /// (and the rate limit admits), re-runs `arg` once under EXPLAIN
  /// ANALYZE + tracing on `snapshot` and retains the diagnostics. Runs on
  /// the pool worker after the reply has been handed to the event loop.
  void MaybeCaptureSlowQuery(
      const std::shared_ptr<const core::EngineSnapshot>& snapshot,
      const std::string& arg, double observed_micros);

  /// Publishes the engine's current epoch and eagerly invalidates dead
  /// cache entries. When `untouched_views` is non-null, cached answers
  /// routed through those views are first re-keyed to the new epoch
  /// (ResultCache::CarryForward) instead of evicted — the update provably
  /// left their source view unchanged, so the answers are still exact.
  /// Caller must hold update_mu_.
  Status PublishAndInvalidate(
      const std::vector<std::string>* untouched_views = nullptr);

  core::SofosEngine* engine_;
  ServerOptions options_;
  ServerMetrics metrics_;
  ResultCache cache_;
  /// Registry-collector registration bridging the server's bespoke stats
  /// (endpoint SLOs, cache shards) into the engine's MetricsRegistry for
  /// METRICS / STATS. Registered in Start(), unregistered in Stop(); 0 =
  /// not registered.
  uint64_t metrics_collector_id_ = 0;
  /// Session-pool bridge (sofos_pool_*); 0 = not registered.
  uint64_t pool_collector_id_ = 0;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::unique_ptr<ThreadPool> pool_;

  /// Queue-model admission (created in Start(), kept across Stop() so
  /// late Stats() reads stay valid).
  std::unique_ptr<AdmissionController> admission_;

  /// The loops own every socket (listeners included).
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<unsigned> next_loop_{0};  // round-robin connection placement
  unsigned max_connections_ = 0;        // resolved from options at Start()

  /// HTTP listener (second port). Observability GETs are answered on the
  /// loop thread, never queued on the pool, so /healthz stays responsive
  /// while the pool is saturated.
  int http_listen_fd_ = -1;
  uint16_t http_port_ = 0;

  /// Telemetry history + background sampler (enable_telemetry).
  std::unique_ptr<TelemetryHistory> telemetry_;
  SlowQueryLog slow_log_;

  /// Serializes every mutating engine entry point (UPDATE handling and
  /// snapshot publication).
  std::mutex update_mu_;
  /// Written only under update_mu_; atomic so STATS and monitoring reads
  /// never block behind a long multi-batch update (readers must not wait
  /// on the writer — the same rule the snapshots enforce for queries).
  std::atomic<uint64_t> update_batches_applied_{0};

  /// In-flight dispatched requests (running + pool-queued) — Stop()
  /// drains this to zero before tearing the loops down.
  mutable std::mutex in_flight_mu_;
  std::condition_variable in_flight_cv_;
  unsigned in_flight_requests_ = 0;

  mutable std::mutex retained_mu_;
  std::map<uint64_t, std::shared_ptr<const core::EngineSnapshot>> retained_;
};

}  // namespace server
}  // namespace sofos

#endif  // SOFOS_SERVER_SERVER_H_
