// Queue-model admission control for the online server: replaces the static
// `BUSY retry_ms=50` hint with an M/M/c-style wait estimate driven by the
// observed arrival/service rates in the telemetry history plus the live
// request queue depth.
//
// Model: the session worker pool is c parallel servers. The controller
// estimates the queueing delay a newly admitted request would see as the
// max of two figures:
//
//   - an *instantaneous* estimate from the live queue: with all c servers
//     busy and q requests already waiting, a new arrival waits for q+1
//     service completions spread over c servers, i.e. (q+1) * S / c where
//     S is the mean service time;
//   - a *steady-state* M/M/c estimate from the observed rates: Erlang-C
//     P(wait) over offered load a = lambda/mu, giving
//     Wq = C(c, a) / (c*mu - lambda) while utilization rho < 1 (the
//     formula diverges at saturation — there the live-queue term is the
//     truthful one and dominates anyway).
//
// The two inputs come from different clocks on purpose: the rates smooth
// over the telemetry window (so one idle poll does not flip the verdict),
// the queue depth reacts within one request (so a burst sheds before the
// window catches up).
//
// Decisions: a request is admitted while the estimated wait is within the
// SLO budget, otherwise shed with a load-derived retry hint (the estimated
// time for the backlog to clear, clamped to [min,max]). With no observed
// service time yet (cold start) the controller cannot estimate and admits
// everything, hinting `fallback_retry_ms`.
//
// Thread safety: Decide/Peek/OnComplete/Stats may be called from any
// thread. The model state refresh (telemetry window read) is rate-limited
// and serialized under an internal mutex; counters are relaxed atomics.
#ifndef SOFOS_SERVER_ADMISSION_H_
#define SOFOS_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/latency_histogram.h"
#include "common/telemetry.h"

namespace sofos {
namespace server {

struct AdmissionOptions {
  /// c — the number of parallel servers (the session worker pool size).
  /// The server fills this in from ServerOptions::max_sessions.
  unsigned servers = 8;
  /// Shed a request once its estimated queueing delay exceeds this budget.
  double slo_budget_micros = 50'000.0;
  /// Load-derived retry hints are clamped to [min_retry_ms, max_retry_ms].
  int min_retry_ms = 5;
  int max_retry_ms = 2000;
  /// Hint when the model has no data yet (and the floor for the hint
  /// sent to connections rejected at the open-connection cap). The server
  /// maps ServerOptions::busy_retry_ms here.
  int fallback_retry_ms = 50;
  /// Telemetry window the arrival/service rates are read over.
  double window_seconds = 10.0;
  /// Rates are re-derived from telemetry at most this often; between
  /// refreshes Decide() reuses the cached model state (the live queue
  /// depth is always current).
  double refresh_interval_seconds = 0.25;
  /// EWMA weight of the newest service-time observation (OnComplete),
  /// the cold-start/fallback service signal.
  double service_ewma_alpha = 0.2;
  /// Injectable monotonic clock (seconds); null uses steady_clock.
  std::function<double()> clock_seconds;
};

struct AdmissionDecision {
  bool admit = true;
  /// The retry hint to send when shedding (also filled on admit, for
  /// introspection).
  int retry_ms = 0;
  double estimated_wait_micros = 0.0;
  /// rho = lambda / (c * mu); 0 when rates are unknown.
  double utilization = 0.0;
};

/// Counter/gauge snapshot for the sofos_server_admission_* instruments.
struct AdmissionStats {
  uint64_t admitted = 0;
  uint64_t shed = 0;
  double arrival_per_second = 0.0;  // lambda (0 = unknown)
  double service_micros = 0.0;      // S (0 = unknown)
  double utilization = 0.0;         // rho
  double last_estimated_wait_micros = 0.0;
  double last_retry_ms = 0.0;
  LatencyHistogram::Snapshot estimated_wait;  // distribution of estimates
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options = {});

  /// The telemetry history feeding the rate refresh; null (the default)
  /// leaves only the OnComplete EWMA and the live queue as inputs.
  void SetTelemetry(const TelemetryHistory* telemetry);

  /// Records one completed request's service time (measured around the
  /// handler, excluding queueing) into the EWMA — the fallback service
  /// signal while the telemetry window is still cold, and the seed the
  /// window-derived figure replaces once valid.
  void OnComplete(double service_micros);

  /// The admission verdict for a new request given the live number of
  /// dispatched-but-unfinished requests (running + queued). Updates the
  /// admitted/shed counters and the estimate histogram.
  AdmissionDecision Decide(size_t in_flight_requests);

  /// Decide() without the counter/histogram side effects — the /healthz
  /// probe, so monitoring cannot skew the shed accounting.
  AdmissionDecision Peek(size_t in_flight_requests) const;

  /// The retry hint for a connection rejected at accept time by the
  /// open-connection cap: the load-derived hint raised to at least
  /// fallback_retry_ms (a connection slot freeing up is not predictable
  /// from request rates, so the static floor stays).
  int ConnectionRetryHintMs(size_t in_flight_requests);

  AdmissionStats Stats() const;

  const AdmissionOptions& options() const { return options_; }

  /// Forces a model refresh from telemetry on the next estimate (test
  /// hook — bypasses the refresh rate limit).
  void InvalidateModel();

 private:
  struct ModelState {
    double arrival_per_second = 0.0;  // lambda; 0 = unknown
    double service_micros = 0.0;      // S; 0 = unknown
    double refreshed_at = -1e300;
  };

  double NowSeconds() const;
  /// Refreshes model_ from the telemetry window if the rate limit allows;
  /// returns the current state either way.
  ModelState RefreshedModel() const;
  AdmissionDecision Estimate(size_t in_flight_requests) const;

  AdmissionOptions options_;
  std::function<double()> clock_seconds_;
  const TelemetryHistory* telemetry_ = nullptr;

  mutable std::mutex model_mu_;
  mutable ModelState model_;

  /// EWMA of observed service micros; bit-cast through uint64 atomics so
  /// readers never tear. 0 = no observation yet.
  std::atomic<uint64_t> service_ewma_bits_{0};

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> last_wait_bits_{0};
  std::atomic<uint64_t> last_retry_bits_{0};
  std::atomic<uint64_t> last_util_bits_{0};
  LatencyHistogram estimated_wait_;
};

/// Erlang-C probability that an arrival must queue in an M/M/c system
/// with offered load `a = lambda/mu` erlangs. Exposed for tests; returns
/// 1.0 when a >= c (the formula's domain ends at saturation).
double ErlangC(unsigned c, double a);

}  // namespace server
}  // namespace sofos

#endif  // SOFOS_SERVER_ADMISSION_H_
