/// S1 — online serving under load. Phases:
///
///   cold   first closed-loop pass over the query set (result cache empty)
///   warm   repeated passes over the same set (cache-hot)
///   mixed  same traffic with a concurrent UPDATE stream (epoch bumps
///          invalidate the cache; queries keep serving on snapshots)
///
/// plus:
///
///   open_loop   a fixed-arrival-rate (Poisson) Zipfian mix swept from
///               half capacity to 3x past saturation against a server
///               whose queue-model admission budget is set to the
///               measured closed-loop warm p99. Reports achieved qps,
///               shed rate, admitted-request latency, and schedule-based
///               e2e latency (coordinated-omission-aware) per rate point.
///   idle_connections   4x max_sessions connections parked open while a
///               single client measures warm latency — the tentpole's
///               connections-decoupled-from-threads claim, plus /healthz
///               staying green throughout.
///
/// and a telemetry-overhead A/B: the warm sweep re-run with the whole
/// observability stack off vs. on, alternated for several rounds and
/// compared by per-arm *median* (the round spread is emitted alongside so
/// the regression gate can see the noise floor — a previous best-of
/// comparison produced impossible negative overheads).
///
///   ./bench_server [json_path]
///
/// With `json_path` the results are written as BENCH_server.json (the
/// perf-trajectory artifact consumed by scripts/run_benches.sh).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/bench_util.h"
#include "common/latency_histogram.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/generator.h"

namespace {

using namespace sofos;

constexpr int kClients = 4;
constexpr int kWarmPasses = 5;
// Telemetry A/B: each measured arm runs kAbPasses sweeps; the off/on pair
// is alternated kAbRounds times and compared by per-arm median — medians
// of interleaved rounds cancel the slow drift (thermal, frequency) that a
// best-of comparison turns into impossible negative overheads.
constexpr int kAbPasses = 100;
constexpr int kAbRounds = 5;
// Long enough that the concurrent UPDATE batches land (and invalidate the
// cache) inside the measurement window, not after it.
constexpr int kMixedPasses = 30;
constexpr int kMixedUpdates = 4;
// Open-loop sweep: offered rate as a multiple of measured capacity, each
// point driven for a fixed wall budget by a sender pool large enough that
// the client side is never the bottleneck. The pool must also be much
// larger than the server's worker count: each connection carries one
// request in flight, so sender count bounds the queue depth the admission
// model can observe — too few senders and overload shows up only as
// client-side schedule lateness the server cannot shed against.
constexpr double kOpenLoopMultipliers[] = {0.5, 0.8, 1.5, 3.0};
constexpr double kOpenLoopSeconds = 0.4;
constexpr int kOpenLoopSenders = 24;
constexpr double kZipfExponent = 1.0;

struct PhaseResult {
  std::string name;
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;  // BUSY responses still unserved after client retries
  double wall_ms = 0.0;
  double throughput_qps = 0.0;
  LatencyHistogram::Snapshot latency;
  double cache_hit_rate = 0.0;
};

/// Runs one closed-loop phase: every client thread sweeps the query set
/// `passes` times back-to-back; with_updates adds one updater thread
/// issuing small UPDATE batches throughout. Clients honor BUSY pushback
/// via SendWithRetry, so a shed request costs its retry_ms, not an error.
PhaseResult RunPhase(const std::string& name, server::SofosServer* server,
                     const std::vector<core::WorkloadQuery>& queries,
                     int passes, bool with_updates) {
  PhaseResult result;
  result.name = name;

  uint64_t hits_before = server->metrics().cache_hits();
  uint64_t misses_before = server->metrics().cache_misses();

  std::vector<LatencyHistogram> histograms(kClients);
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<bool> updating{with_updates};

  WallTimer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::BlockingClient client;
      if (!client.Connect(server->port()).ok()) {
        errors.fetch_add(static_cast<uint64_t>(passes) * queries.size());
        return;
      }
      for (int pass = 0; pass < passes; ++pass) {
        for (size_t q = 0; q < queries.size(); ++q) {
          // Stagger start offsets so clients do not sweep in lockstep.
          const auto& query = queries[(q + static_cast<size_t>(c)) % queries.size()];
          WallTimer timer;
          auto response = client.SendWithRetry("QUERY " + query.sparql, 4);
          histograms[c].Record(timer.ElapsedMicros());
          if (!response.ok()) {
            errors.fetch_add(1);
          } else if (response->busy()) {
            shed.fetch_add(1);
          } else if (!response->ok()) {
            errors.fetch_add(1);
          }
        }
      }
      client.Roundtrip("QUIT");
    });
  }
  std::thread updater;
  if (with_updates) {
    updater = std::thread([&] {
      server::BlockingClient client;
      if (!client.Connect(server->port()).ok()) return;
      for (int i = 0; i < kMixedUpdates && updating; ++i) {
        auto response = client.Roundtrip("UPDATE 1 0.005");
        if (!response.ok() || !response->ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      client.Roundtrip("QUIT");
    });
  }
  for (auto& t : clients) t.join();
  updating = false;
  if (updater.joinable()) updater.join();
  result.wall_ms = wall.ElapsedMillis();

  for (const auto& h : histograms) result.latency.Merge(h.TakeSnapshot());
  result.requests = result.latency.count;
  result.errors = errors;
  result.shed = shed;
  result.throughput_qps =
      result.wall_ms > 0
          ? static_cast<double>(result.requests) / (result.wall_ms / 1000.0)
          : 0.0;
  uint64_t hits = server->metrics().cache_hits() - hits_before;
  uint64_t misses = server->metrics().cache_misses() - misses_before;
  result.cache_hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  return result;
}

// ---- Open-loop sweep -------------------------------------------------------

struct OpenLoopPoint {
  std::string name;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  // served (OK) responses per wall second
  double shed_rate = 0.0;     // BUSY / total
  uint64_t requests = 0;
  uint64_t served = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  double wall_ms = 0.0;
  LatencyHistogram::Snapshot admitted;  // send -> response, OK only
  LatencyHistogram::Snapshot e2e;       // *scheduled* arrival -> response:
                                        // includes sender lateness, so
                                        // coordinated omission cannot hide
                                        // saturation
};

/// Drives `offered_qps` of Zipf-mixed QUERY traffic at Poisson arrivals
/// for ~`kOpenLoopSeconds` against `server`, without retries: a BUSY is
/// counted as shed and the next arrival proceeds on schedule. Open loop —
/// the arrival schedule is fixed up front and does not slow down when the
/// server does.
OpenLoopPoint RunOpenLoop(const std::string& name,
                          server::SofosServer* server,
                          const std::vector<core::WorkloadQuery>& queries,
                          double offered_qps, uint64_t seed) {
  OpenLoopPoint point;
  point.name = name;
  point.offered_qps = offered_qps;
  if (offered_qps <= 0.0 || queries.empty()) return point;

  // Precompute the whole schedule: Poisson arrival offsets (micros from
  // phase start) and a Zipf-distributed query index per arrival.
  Rng rng(seed);
  ZipfSampler zipf(queries.size(), kZipfExponent);
  std::vector<double> arrival_micros;
  std::vector<uint32_t> query_index;
  const double mean_gap = 1e6 / offered_qps;
  double t = 0.0;
  while (t < kOpenLoopSeconds * 1e6) {
    t += -std::log(1.0 - rng.UniformDouble()) * mean_gap;
    arrival_micros.push_back(t);
    query_index.push_back(static_cast<uint32_t>(zipf.Sample(&rng)));
  }

  std::vector<LatencyHistogram> admitted(kOpenLoopSenders);
  std::vector<LatencyHistogram> e2e(kOpenLoopSenders);
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> served{0}, shed{0}, errors{0};

  WallTimer wall;
  std::vector<std::thread> senders;
  for (int s = 0; s < kOpenLoopSenders; ++s) {
    senders.emplace_back([&, s] {
      server::BlockingClient client;
      if (!client.Connect(server->port()).ok()) return;
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= arrival_micros.size()) break;
        // Sleep until the scheduled arrival, re-checking on wake. Plain
        // sleeps only: a busy yield-wait for sub-millisecond gaps would
        // steal the very CPU the server needs to drain its queue, and the
        // schedule-based e2e metric already accounts for any oversleep.
        for (;;) {
          const double now = wall.ElapsedMicros();
          const double remaining = arrival_micros[i] - now;
          if (remaining <= 0.0) break;
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<long>(remaining)));
        }
        if (!client.connected() && !client.Connect(server->port()).ok()) {
          errors.fetch_add(1);
          continue;
        }
        WallTimer send_timer;
        auto response =
            client.Roundtrip("QUERY " + queries[query_index[i]].sparql);
        const double finished = wall.ElapsedMicros();
        if (!response.ok()) {
          errors.fetch_add(1);
          client.Close();  // transport fault: reconnect on the next arrival
        } else if (response->busy()) {
          shed.fetch_add(1);
        } else if (response->ok()) {
          served.fetch_add(1);
          admitted[s].Record(send_timer.ElapsedMicros());
          e2e[s].Record(finished - arrival_micros[i]);
        } else {
          errors.fetch_add(1);
        }
      }
      client.Roundtrip("QUIT");
    });
  }
  for (auto& sender : senders) sender.join();
  point.wall_ms = wall.ElapsedMillis();

  point.requests = arrival_micros.size();
  point.served = served;
  point.shed = shed;
  point.errors = errors;
  point.achieved_qps =
      point.wall_ms > 0
          ? static_cast<double>(point.served) / (point.wall_ms / 1000.0)
          : 0.0;
  point.shed_rate =
      point.requests > 0
          ? static_cast<double>(point.shed) / static_cast<double>(point.requests)
          : 0.0;
  for (const auto& h : admitted) point.admitted.Merge(h.TakeSnapshot());
  for (const auto& h : e2e) point.e2e.Merge(h.TakeSnapshot());
  return point;
}

// ---- Idle-connection capacity ----------------------------------------------

struct IdleConnResult {
  int connections = 0;          // idle connections held open
  double baseline_p50_us = 0.0;  // warm QUERY latency, no idle load
  double with_idle_p50_us = 0.0;
  bool healthz_ok = false;
};

LatencyHistogram::Snapshot MeasureWarmLatency(
    server::SofosServer* server,
    const std::vector<core::WorkloadQuery>& queries, int passes) {
  LatencyHistogram histogram;
  server::BlockingClient client;
  if (!client.Connect(server->port()).ok()) return histogram.TakeSnapshot();
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& query : queries) {
      WallTimer timer;
      auto response = client.Roundtrip("QUERY " + query.sparql);
      if (response.ok() && response->ok()) {
        histogram.Record(timer.ElapsedMicros());
      }
    }
  }
  client.Roundtrip("QUIT");
  return histogram.TakeSnapshot();
}

std::string HttpGet(uint16_t port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// ---- JSON ------------------------------------------------------------------

struct AbResult {
  double median_qps_off = 0.0;
  double median_qps_on = 0.0;
  double spread_pct_off = 0.0;  // (max-min)/median per arm — noise floor
  double spread_pct_on = 0.0;
  double overhead_pct = 0.0;
};

void WriteJson(const std::string& path,
               const std::vector<PhaseResult>& phases, size_t num_queries,
               const AbResult& ab, const std::vector<OpenLoopPoint>& open_loop,
               double capacity_qps, double warm_p99_us, double slo_budget_us,
               const IdleConnResult& idle) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"server\",\n");
  std::fprintf(f, "  \"clients\": %d,\n  \"distinct_queries\": %zu,\n",
               kClients, num_queries);
  std::fprintf(f, "  \"phases\": [\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"requests\": %llu, \"errors\": %llu,\n"
        "     \"wall_ms\": %.1f, \"throughput_qps\": %.1f,\n"
        "     \"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
        "\"mean_us\": %.1f,\n"
        "     \"cache_hit_rate\": %.4f}%s\n",
        p.name.c_str(), static_cast<unsigned long long>(p.requests),
        static_cast<unsigned long long>(p.errors), p.wall_ms,
        p.throughput_qps, p.latency.P50(), p.latency.P95(), p.latency.P99(),
        p.latency.MeanMicros(), p.cache_hit_rate,
        i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"telemetry_ab\": {\"rounds\": %d, "
               "\"median_qps_off\": %.1f, \"median_qps_on\": %.1f,\n"
               "    \"qps_spread_pct_off\": %.1f, \"qps_spread_pct_on\": "
               "%.1f},\n",
               kAbRounds, ab.median_qps_off, ab.median_qps_on,
               ab.spread_pct_off, ab.spread_pct_on);
  std::fprintf(f, "  \"telemetry_overhead_pct\": %.2f,\n", ab.overhead_pct);
  if (!open_loop.empty()) {
    std::fprintf(f,
                 "  \"open_loop\": {\"capacity_qps\": %.1f, "
                 "\"closed_loop_warm_p99_us\": %.1f, "
                 "\"slo_budget_us\": %.1f,\n    \"points\": [\n",
                 capacity_qps, warm_p99_us, slo_budget_us);
    for (size_t i = 0; i < open_loop.size(); ++i) {
      const OpenLoopPoint& p = open_loop[i];
      std::fprintf(
          f,
          "      {\"name\": \"%s\", \"offered_qps\": %.1f, "
          "\"achieved_qps\": %.1f, \"shed_rate\": %.4f,\n"
          "       \"requests\": %llu, \"errors\": %llu,\n"
          "       \"admitted_p50_us\": %.1f, \"admitted_p99_us\": %.1f,\n"
          "       \"e2e_p50_us\": %.1f, \"e2e_p99_us\": %.1f}%s\n",
          p.name.c_str(), p.offered_qps, p.achieved_qps, p.shed_rate,
          static_cast<unsigned long long>(p.requests),
          static_cast<unsigned long long>(p.errors), p.admitted.P50(),
          p.admitted.P99(), p.e2e.P50(), p.e2e.P99(),
          i + 1 < open_loop.size() ? "," : "");
    }
    std::fprintf(f, "    ]},\n");
  }
  if (idle.connections > 0) {
    std::fprintf(f,
                 "  \"idle_connections\": {\"connections\": %d, "
                 "\"baseline_p50_us\": %.1f, \"with_idle_p50_us\": %.1f, "
                 "\"healthz_ok\": %d},\n",
                 idle.connections, idle.baseline_p50_us, idle.with_idle_p50_us,
                 idle.healthz_ok ? 1 : 0);
  }
  std::fprintf(f, "  ");
  bench::WriteMemoryJson(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("S1 | Online serving: closed-loop %d clients\n", kClients);

  core::SofosEngine engine;
  bench::LoadEngine(&engine, "geopop", datagen::Scale::kDemo);
  core::TripleCountCostModel model;
  auto selection = engine.SelectViews(model, 3);
  if (!selection.ok() || !engine.MaterializeSelection(*selection).ok()) {
    std::fprintf(stderr, "selection/materialization failed\n");
    return 1;
  }

  workload::WorkloadGenerator generator(&engine.facet(), engine.store());
  workload::WorkloadOptions options;
  options.num_queries = 16;
  options.seed = 7;
  auto queries = generator.Generate(options);
  if (!queries.ok()) {
    std::fprintf(stderr, "workload generation failed\n");
    return 1;
  }

  server::ServerOptions server_options;
  server_options.max_sessions = kClients + 2;  // clients + updater headroom
  server::SofosServer server(&engine, server_options);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "server start: %s\n", status.ToString().c_str());
    return 1;
  }

  std::vector<PhaseResult> phases;
  server.ClearCache();
  phases.push_back(RunPhase("cold", &server, *queries, 1, false));
  phases.push_back(RunPhase("warm", &server, *queries, kWarmPasses, false));
  phases.push_back(RunPhase("mixed", &server, *queries, kMixedPasses, true));
  server.Stop();

  // Telemetry A/B: the warm sweep on a fresh server with the full
  // observability stack off, then on (sampler at 4 Hz — 4x the serving
  // default — plus recorder and HTTP listener). Each arm warms its own
  // cache with one untimed pass first.
  auto run_telemetry_phase = [&](const std::string& name,
                                 bool telemetry_on) -> PhaseResult {
    server::ServerOptions ab_options;
    ab_options.max_sessions = kClients + 2;
    ab_options.enable_telemetry = telemetry_on;
    ab_options.sample_period_seconds = 0.25;
    ab_options.enable_http = telemetry_on;
    engine.recorder()->Enable(telemetry_on);
    server::SofosServer ab_server(&engine, ab_options);
    if (!ab_server.Start().ok()) {
      std::fprintf(stderr, "telemetry A/B server start failed\n");
      return PhaseResult{};
    }
    RunPhase("warmup", &ab_server, *queries, 1, false);
    PhaseResult result =
        RunPhase(name, &ab_server, *queries, kAbPasses, false);
    ab_server.Stop();
    return result;
  };
  // A single warm sweep finishes in ~10ms on this container — far too
  // short to resolve a few-percent qps delta — and back-to-back arms see
  // ±10% run-order noise (scheduling, frequency drift). Interleave the
  // arms for kAbRounds rounds and compare per-arm *medians*: unlike
  // best-of (which once reported an impossible -8% overhead by pairing
  // one arm's lucky round against the other's typical one), the median
  // is drift-robust, and the emitted round spread tells the regression
  // gate how much noise the figure carries.
  std::vector<PhaseResult> rounds_off, rounds_on;
  for (int round = 0; round < kAbRounds; ++round) {
    rounds_off.push_back(run_telemetry_phase("warm_no_telemetry", false));
    rounds_on.push_back(run_telemetry_phase("warm_telemetry", true));
  }
  engine.recorder()->Enable(true);
  auto by_qps = [](const PhaseResult& a, const PhaseResult& b) {
    return a.throughput_qps < b.throughput_qps;
  };
  std::sort(rounds_off.begin(), rounds_off.end(), by_qps);
  std::sort(rounds_on.begin(), rounds_on.end(), by_qps);
  const PhaseResult& median_off = rounds_off[rounds_off.size() / 2];
  const PhaseResult& median_on = rounds_on[rounds_on.size() / 2];
  phases.push_back(median_off);
  phases.push_back(median_on);
  AbResult ab;
  ab.median_qps_off = median_off.throughput_qps;
  ab.median_qps_on = median_on.throughput_qps;
  auto spread_pct = [](const std::vector<PhaseResult>& rounds) {
    const double median = rounds[rounds.size() / 2].throughput_qps;
    return median > 0 ? (rounds.back().throughput_qps -
                         rounds.front().throughput_qps) /
                            median * 100.0
                      : 0.0;
  };
  ab.spread_pct_off = spread_pct(rounds_off);
  ab.spread_pct_on = spread_pct(rounds_on);
  ab.overhead_pct =
      ab.median_qps_off > 0
          ? (1.0 - ab.median_qps_on / ab.median_qps_off) * 100.0
          : 0.0;

  // Open-loop overload sweep + idle-connection phase.
  std::vector<OpenLoopPoint> open_loop;
  IdleConnResult idle;
  double ol_capacity_qps = 0.0;
  double ol_warm_p99_us = 0.0;
  double slo_budget_us = 0.0;
  // The overload sweep runs with the result cache off. Cached answers
  // take tens of microseconds of handler time, so under overload the
  // latency accrues in the IO path while the queue model — which
  // describes the worker pool — sees a nearly idle system and never
  // sheds. Uncached, the pool is the genuine bottleneck and the M/M/c
  // estimate tracks what clients actually experience.
  server::ServerOptions ol_options;
  // The queue model's `c` is the worker-pool size: cap the pool at the
  // machine's parallelism so the modelled aggregate service rate c/S is
  // one the hardware can actually deliver. With more workers than
  // cores, (q+1)*S/c systematically underestimates the real wait and
  // admission sheds far too late.
  ol_options.max_sessions = std::min<unsigned>(
      kClients + 2, std::max(1u, std::thread::hardware_concurrency()));
  // One loop thread: the sweep measures admission quality, and every
  // extra thread contending for the cores inflates the real per-request
  // drain time above the handler-only S the model estimates from.
  ol_options.io_threads = 1;
  ol_options.enable_cache = false;

  // Like-for-like baseline on the same configuration: closed-loop
  // capacity and warm p99 measured uncached, against which the offered
  // multipliers and the admitted-latency bound below are defined.
  {
    server::SofosServer baseline_server(&engine, ol_options);
    if (baseline_server.Start().ok()) {
      RunPhase("ol_baseline_warmup", &baseline_server, *queries, 1, false);
      // 3x the warm pass count: the p99 of this phase sets the offered
      // rates and the admission budget for the whole sweep, so it needs
      // a stabler tail estimate than a display-only phase.
      PhaseResult baseline = RunPhase("open_loop_closed_baseline",
                                      &baseline_server, *queries,
                                      3 * kWarmPasses, false);
      ol_capacity_qps = baseline.throughput_qps;
      ol_warm_p99_us = baseline.latency.P99();
      phases.push_back(baseline);
      baseline_server.Stop();
    }
  }

  // Admission budget tied to the closed-loop warm p99 on this very
  // configuration: ~30% of a round trip of queueing budget, leaving
  // the rest for the request's own (heavy-tailed) service time — total
  // admitted latency then stays within ~2x the closed-loop figure
  // while everything beyond capacity sheds. (The model's estimate
  // bounds the *mean* wait; the admitted tail runs a couple of
  // mean-cutoffs above it, which the reduced budget absorbs.)
  slo_budget_us = std::max(200.0, 0.3 * ol_warm_p99_us);
  ol_options.admission.slo_budget_micros = slo_budget_us;
  server::SofosServer ol_server(&engine, ol_options);
  if (ol_server.Start().ok() && ol_capacity_qps > 0.0) {
    uint64_t seed = 1234;
    for (double multiplier : kOpenLoopMultipliers) {
      // Let the previous point's queue drain and its sender threads
      // exit before the next schedule starts, so points don't
      // contaminate each other's latency tails.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      char name[32];
      std::snprintf(name, sizeof(name), "%.1fx", multiplier);
      open_loop.push_back(RunOpenLoop(name, &ol_server, *queries,
                                      multiplier * ol_capacity_qps, seed++));
    }
    ol_server.Stop();
  } else {
    std::fprintf(stderr, "open-loop server start failed\n");
  }

  // Idle connections: park 4x max_sessions sockets, then show a live
  // client's warm latency and /healthz unmoved.
  server::ServerOptions idle_options;
  server::SofosServer idle_server(&engine, idle_options);
  if (idle_server.Start().ok()) {
    MeasureWarmLatency(&idle_server, *queries, 1);  // warm the cache
    idle.baseline_p50_us =
        MeasureWarmLatency(&idle_server, *queries, 3).P50();
    idle.connections = static_cast<int>(4 * idle_options.max_sessions);
    std::vector<std::unique_ptr<server::BlockingClient>> parked;
    for (int i = 0; i < idle.connections; ++i) {
      auto client = std::make_unique<server::BlockingClient>();
      if (client->Connect(idle_server.port()).ok()) {
        parked.push_back(std::move(client));
      }
    }
    idle.with_idle_p50_us =
        MeasureWarmLatency(&idle_server, *queries, 3).P50();
    idle.healthz_ok =
        HttpGet(idle_server.http_port(), "/healthz").find("HTTP/1.0 200") !=
        std::string::npos;
    parked.clear();
    idle_server.Stop();
  } else {
    std::fprintf(stderr, "idle-connection server start failed\n");
  }

  TablePrinter table({"phase", "requests", "errors", "wall ms", "qps",
                      "p50 us", "p95 us", "p99 us", "hit rate"});
  for (const PhaseResult& p : phases) {
    table.AddRow({p.name, TablePrinter::Cell(p.requests),
                  TablePrinter::Cell(p.errors),
                  TablePrinter::Cell(p.wall_ms, 1),
                  TablePrinter::Cell(p.throughput_qps, 1),
                  TablePrinter::Cell(p.latency.P50(), 1),
                  TablePrinter::Cell(p.latency.P95(), 1),
                  TablePrinter::Cell(p.latency.P99(), 1),
                  TablePrinter::Cell(p.cache_hit_rate, 3)});
  }
  table.Print();
  std::printf(
      "telemetry overhead: %.2f%% of warm qps "
      "(medians of %d rounds; spread off %.1f%% / on %.1f%%)\n",
      ab.overhead_pct, kAbRounds, ab.spread_pct_off, ab.spread_pct_on);

  if (!open_loop.empty()) {
    TablePrinter ol_table({"offered", "offered qps", "achieved qps",
                           "shed rate", "adm p50 us", "adm p99 us",
                           "e2e p99 us", "errors"});
    for (const OpenLoopPoint& p : open_loop) {
      ol_table.AddRow({p.name, TablePrinter::Cell(p.offered_qps, 1),
                       TablePrinter::Cell(p.achieved_qps, 1),
                       TablePrinter::Cell(p.shed_rate, 3),
                       TablePrinter::Cell(p.admitted.P50(), 1),
                       TablePrinter::Cell(p.admitted.P99(), 1),
                       TablePrinter::Cell(p.e2e.P99(), 1),
                       TablePrinter::Cell(p.errors)});
    }
    ol_table.Print();
    std::printf(
        "open loop: capacity %.1f qps (uncached), closed-loop p99 %.1f us, "
        "SLO budget %.1f us\n",
        ol_capacity_qps, ol_warm_p99_us, slo_budget_us);
  }
  if (idle.connections > 0) {
    std::printf(
        "idle connections: %d parked, warm p50 %.1f -> %.1f us, healthz %s\n",
        idle.connections, idle.baseline_p50_us, idle.with_idle_p50_us,
        idle.healthz_ok ? "ok" : "FAILED");
  }

  if (argc > 1) {
    WriteJson(argv[1], phases, queries->size(), ab, open_loop,
              ol_capacity_qps, ol_warm_p99_us, slo_budget_us, idle);
  }

  std::printf(
      "\nReading: warm beats cold by the cache-hit margin; mixed shows\n"
      "epoch-snapshot serving under concurrent updates. The open-loop\n"
      "sweep drives fixed arrival rates past saturation: achieved qps\n"
      "plateaus at capacity while the queue-model admission sheds the\n"
      "excess, keeping admitted-request latency near the closed-loop\n"
      "figure instead of letting queues grow without bound.\n");
  return phases.back().errors == 0 ? 0 : 1;
}
