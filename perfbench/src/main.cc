// sofos_perfbench — runs one workload of the SOFOS serving benchmark
// against an in-process SofosServer and prints its metrics.
//
//   sofos_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --dataset lubm --triples 300000 --distinct_queries 32 ...
//
// perfbench/run.py supplies the workload parameters from
// perfbench/workloads.json. A run sets the system up several times (the
// median is setup_s), drives one timed window of traffic, checks every
// distinct query's served answer against the base-graph answer, probes
// UPDATE latency, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of the same window plus an in-process traced replay
// (--trace 1). The last stdout line is the result JSON.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/registry.h"
#include "load.h"
#include "replay.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "stats.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using sofos::Status;

// ---- Configuration ---------------------------------------------------------

enum class Load { kClosed, kOpenHttp };

struct Config {
  std::string workload;
  uint64_t seed = 1;  // request order, arrival schedule, query draws
  double seconds = 10.0;
  bool trace = false;
  std::string dataset = "lubm";
  uint64_t triples = 300000;
  size_t distinct_queries = 32;
  bool cache = true;
  unsigned max_sessions = 4;
  Load load = Load::kClosed;
  int connections = 2;           // closed-loop clients or open-loop senders
  double read_rate = 0.0;        // open loop, arrivals per second
  int probe_small = 0;           // post-window UPDATE probe: small batches,
  int probe_bulk = 0;            // then bulk batches
  int warmup_queries = 0;
  double latency_limit_us = 0;   // goodput limit on a read's latency
  int slices = 1;                // read figures: median over this many
                                 // equal sub-windows of the window
  std::string spans_out;
};

/// The dataset and query pool are fixed: generated from this seed in every
/// run, so that --seed varies the traffic and not the graph (with both
/// varying, read_p99_us moved by 40-48% of its median between seeds).
constexpr uint64_t kDataSeed = 42;
/// UPDATE batch sizes as fractions of |G|: small batches, and bulk ones in
/// the 2-4.5% band around the delta-vs-full maintenance crossover.
constexpr double kSmallFraction = 0.001;
constexpr double kBulkFraction = 0.025;
/// Setups per run; setup_s is their median.
constexpr int kSetupReps = 3;

[[noreturn]] void Die(int code, const std::string& message) {
  std::fprintf(stderr, "sofos_perfbench: %s\n", message.c_str());
  std::exit(code);
}

Config ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0 || i + 1 >= argc) {
      Die(2, "expected --flag value pairs, got '" + name + "'");
    }
    flags[name.substr(2)] = argv[i + 1];
  }
  auto take = [&](const char* name) -> const std::string* {
    auto it = flags.find(name);
    return it == flags.end() ? nullptr : &it->second;
  };
  auto number = [&](const char* name, double fallback) {
    const std::string* v = take(name);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    double parsed = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0') {
      Die(2, std::string("--") + name + " is not a number: " + *v);
    }
    return parsed;
  };
  Config c;
  const std::string* workload = take("workload");
  if (workload == nullptr) Die(2, "--workload is required");
  c.workload = *workload;
  c.seed = static_cast<uint64_t>(number("seed", 1));
  c.seconds = number("seconds", c.seconds);
  c.trace = number("trace", 0) != 0;
  if (const std::string* v = take("dataset")) c.dataset = *v;
  c.triples = static_cast<uint64_t>(number("triples", double(c.triples)));
  c.distinct_queries =
      static_cast<size_t>(number("distinct_queries", double(c.distinct_queries)));
  c.cache = number("cache", 1) != 0;
  c.max_sessions =
      static_cast<unsigned>(number("max_sessions", c.max_sessions));
  if (const std::string* v = take("load")) {
    if (*v == "closed") c.load = Load::kClosed;
    else if (*v == "open_http") c.load = Load::kOpenHttp;
    else Die(2, "--load must be closed|open_http");
  }
  c.connections = static_cast<int>(number("connections", c.connections));
  c.read_rate = number("read_rate", c.read_rate);
  c.probe_bulk = static_cast<int>(number("probe_bulk", c.probe_bulk));
  c.probe_small = static_cast<int>(number("probe_small", c.probe_small));
  c.warmup_queries = static_cast<int>(number("warmup_queries", 0));
  c.latency_limit_us = number("latency_limit_us", c.latency_limit_us);
  c.slices = static_cast<int>(number("slices", c.slices));
  if (const std::string* v = take("spans_out")) c.spans_out = *v;

  static const std::set<std::string> kKnown = {
      "workload", "seed", "seconds", "trace", "dataset", "triples",
      "distinct_queries", "cache", "max_sessions", "load", "connections",
      "read_rate", "probe_small", "probe_bulk", "warmup_queries",
      "latency_limit_us", "slices", "spans_out"};
  for (const auto& [name, value] : flags) {
    if (kKnown.count(name) == 0) Die(2, "unknown flag --" + name);
  }
  if (c.seconds <= 0 || c.connections < 1 || c.distinct_queries < 1 ||
      c.latency_limit_us <= 0 || c.slices < 1 || c.slices % 2 == 0 ||
      c.probe_small < 1 || c.probe_bulk < 0) {
    Die(2, "invalid workload parameters");
  }
  if (c.load == Load::kOpenHttp && c.read_rate <= 0) {
    Die(2, "open-loop workloads need --read_rate");
  }
  return c;
}

std::string UpdateLine(double fraction) {
  char line[64];
  std::snprintf(line, sizeof(line), "UPDATE 1 %g", fraction);
  return line;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---- Setup -----------------------------------------------------------------

struct SetupTimes {
  double datagen_s = 0, load_s = 0, profile_s = 0, select_s = 0,
         materialize_s = 0, start_s = 0, warmup_s = 0;
  /// setup_s: everything but data generation.
  double Total() const {
    return load_s + profile_s + select_s + materialize_s + start_s + warmup_s;
  }
};

/// Engine first: members are destroyed in reverse, so the server stops
/// before the engine it drives goes away.
struct Deployment {
  std::unique_ptr<sofos::core::SofosEngine> engine;
  std::unique_ptr<sofos::server::SofosServer> server;

  /// Stops the server before the engine it drives is destroyed.
  void TearDown() {
    server.reset();
    engine.reset();
  }
};

/// The distinct query pool: WorkloadGenerator output with the data seed,
/// deduplicated by normalized text, first `n` kept.
std::vector<std::string> MakeQueryPool(const sofos::core::Facet& facet,
                                       sofos::TripleStore* store,
                                       const Config& config) {
  sofos::workload::WorkloadGenerator generator(&facet, store);
  sofos::workload::WorkloadOptions options;
  options.seed = kDataSeed;
  for (int attempt = 0; attempt < 4; ++attempt) {
    options.num_queries = static_cast<int>(config.distinct_queries) << (attempt + 1);
    auto generated = generator.Generate(options);
    if (!generated.ok()) Die(3, "query generation: " + generated.status().ToString());
    std::vector<std::string> pool;
    std::set<std::string> seen;
    for (const auto& query : *generated) {
      std::string text = sofos::server::NormalizeQueryText(query.sparql);
      for (char& ch : text) {
        if (ch == '\n' || ch == '\r') ch = ' ';
      }
      if (seen.insert(text).second) pool.push_back(std::move(text));
      if (pool.size() == config.distinct_queries) return pool;
    }
  }
  Die(3, "the generator yields fewer distinct queries than requested");
}

/// Generates the dataset (timed as datagen, outside setup_s), builds the
/// query pool on the first call, then loads, profiles, selects (triple-count
/// model, k = 3) and materializes.
std::unique_ptr<sofos::core::SofosEngine> BuildEngine(
    const Config& config, std::vector<std::string>* pool, SetupTimes* times) {
  auto start = std::chrono::steady_clock::now();
  auto engine = std::make_unique<sofos::core::SofosEngine>();
  sofos::TripleStore store;
  store.SetShardCount(engine->ResolvedShardCount());
  sofos::datagen::ScaleSpec scale;
  scale.target_triples = config.triples;
  auto spec = sofos::datagen::GenerateByName(config.dataset, scale,
                                             kDataSeed, &store);
  if (!spec.ok()) Die(3, "dataset: " + spec.status().ToString());
  auto facet = sofos::core::Facet::FromSparql(spec->facet_sparql, spec->name,
                                              spec->dim_labels);
  if (!facet.ok()) Die(3, "facet: " + facet.status().ToString());
  if (pool->empty()) *pool = MakeQueryPool(*facet, &store, config);
  times->datagen_s = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  Status status = engine->LoadStore(std::move(store));
  times->load_s = SecondsSince(start);
  start = std::chrono::steady_clock::now();
  if (status.ok()) status = engine->SetFacet(std::move(facet).value());
  if (status.ok()) status = engine->Profile().status();
  times->profile_s = SecondsSince(start);
  if (!status.ok()) Die(3, "load/profile: " + status.ToString());

  start = std::chrono::steady_clock::now();
  auto model = engine->MakeModel(sofos::core::CostModelKind::kTripleCount);
  if (!model.ok()) Die(3, "cost model: " + model.status().ToString());
  auto selection = engine->SelectViews(**model, 3);
  times->select_s = SecondsSince(start);
  if (!selection.ok()) Die(3, "selection: " + selection.status().ToString());

  start = std::chrono::steady_clock::now();
  auto views = engine->MaterializeSelection(*selection);
  times->materialize_s = SecondsSince(start);
  if (!views.ok()) Die(3, "materialize: " + views.status().ToString());
  return engine;
}

/// Starts the server and runs the workload's warm-up queries.
void StartAndWarm(const Config& config, const std::vector<std::string>& pool,
                  Deployment* deployment, SetupTimes* times) {
  sofos::server::ServerOptions options;
  options.max_sessions = config.max_sessions;
  options.io_threads = 1;
  options.enable_cache = config.cache;
  auto start = std::chrono::steady_clock::now();
  deployment->server = std::make_unique<sofos::server::SofosServer>(
      deployment->engine.get(), options);
  Status status = deployment->server->Start();
  times->start_s = SecondsSince(start);
  if (!status.ok()) Die(3, "server start: " + status.ToString());

  start = std::chrono::steady_clock::now();
  const uint16_t port = deployment->server->port();
  const int warm = std::min<int>(config.warmup_queries, static_cast<int>(pool.size()));
  for (int q = 0; q < warm; ++q) {
    bool ok;
    if (config.load == Load::kOpenHttp) {
      std::string response;
      ok = HttpPostQuery(deployment->server->http_port(), pool[q], &response) &&
           ParseHttpReply(response).status == ReplyStatus::kOk;
    } else {
      ok = ParseLineReply(RequestOnce(port, "QUERY " + pool[q])).status ==
           ReplyStatus::kOk;
    }
    if (!ok) Die(3, "warm-up query failed");
  }
  times->warmup_s = SecondsSince(start);
}

// ---- Load plan ---------------------------------------------------------------

/// Closed loop: a seeded order of the pool. Open loop: a Poisson arrival
/// schedule (round(rate * seconds) arrivals placed uniformly at random over
/// the window — a Poisson process conditioned on its count, so every seed
/// offers exactly the same load) with uniformly drawn queries.
LoadPlan MakePlan(const Config& config, size_t pool_size) {
  sofos::Rng rng(config.seed * 0x9E3779B97F4A7C15ull + 17);
  LoadPlan plan;
  plan.seconds = config.seconds;
  if (config.load == Load::kClosed) {
    plan.closed_connections = config.connections;
    for (uint32_t q = 0; q < pool_size; ++q) plan.closed_order.push_back(q);
    rng.Shuffle(&plan.closed_order);
  } else {
    plan.senders = config.connections;
    const size_t n = static_cast<size_t>(std::llround(config.read_rate * config.seconds));
    for (size_t i = 0; i < n; ++i) {
      plan.arrival_us.push_back(rng.UniformDouble(0.0, config.seconds * 1e6));
    }
    std::sort(plan.arrival_us.begin(), plan.arrival_us.end());
    for (size_t i = 0; i < n; ++i) {
      plan.arrival_query.push_back(static_cast<uint32_t>(rng.Uniform(pool_size)));
    }
  }
  return plan;
}

// ---- Registry deltas ---------------------------------------------------------

/// The counters and histogram sums/counts the traced run reads from the
/// engine registry and the result cache (never bucket percentiles).
struct Counters {
  double admitted = 0, shed = 0;
  double est_wait_sum = 0, est_wait_count = 0;
  double pool_wait_sum = 0, pool_wait_count = 0;
  double hits = 0, misses = 0, carried = 0, invalidated = 0;

  static Counters Read(const Deployment& d) {
    Counters c;
    for (const sofos::MetricSample& s : d.engine->metrics()->Collect()) {
      if (s.name == "sofos_server_admission_admitted_total") {
        c.admitted = static_cast<double>(s.counter_value);
      } else if (s.name == "sofos_server_admission_shed_total") {
        c.shed = static_cast<double>(s.counter_value);
      } else if (s.name == "sofos_server_admission_estimated_wait_micros") {
        c.est_wait_sum = s.histogram.sum_micros;
        c.est_wait_count = static_cast<double>(s.histogram.count);
      } else if (s.name == "sofos_pool_queue_wait_micros") {
        c.pool_wait_sum = s.histogram.sum_micros;
        c.pool_wait_count = static_cast<double>(s.histogram.count);
      }
    }
    const auto cache = d.server->CacheStats();
    c.hits = static_cast<double>(cache.hits);
    c.misses = static_cast<double>(cache.misses);
    c.carried = static_cast<double>(cache.carried_forward);
    c.invalidated = static_cast<double>(cache.invalidations);
    return c;
  }

  Counters Minus(const Counters& o) const {
    Counters c;
    c.admitted = admitted - o.admitted;
    c.shed = shed - o.shed;
    c.est_wait_sum = est_wait_sum - o.est_wait_sum;
    c.est_wait_count = est_wait_count - o.est_wait_count;
    c.pool_wait_sum = pool_wait_sum - o.pool_wait_sum;
    c.pool_wait_count = pool_wait_count - o.pool_wait_count;
    c.hits = hits - o.hits;
    c.misses = misses - o.misses;
    c.carried = carried - o.carried;
    c.invalidated = invalidated - o.invalidated;
    return c;
  }
};

/// Steal and total jiffies of all CPUs (/proc/stat): time the hypervisor
/// gave this machine's vCPUs to someone else shows up as steal.
std::pair<double, double> CpuJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

// ---- Output ------------------------------------------------------------------

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    entries_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    char buf[512];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

  void Print() const {
    for (const auto& e : entries_) {
      std::printf("  %-28s %14.4f %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// A reported percentile: printed with its sample count; a run whose
/// sample count cannot support it is rejected rather than reported.
double Reported(const char* name, std::vector<double> samples, double p,
                bool* supported) {
  OrderStat stat = Percentile(&samples, p);
  std::printf("  %s: n=%zu, %zu beyond\n", name, stat.count, stat.beyond);
  if (!stat.supported()) {
    std::fprintf(stderr, "sofos_perfbench: %s has %zu samples beyond it (< 10)\n",
                 name, stat.beyond);
    *supported = false;
  }
  return stat.value;
}

/// The window's read figures. Each is the median over `config.slices`
/// equal sub-windows (by send time), so host interference shorter than
/// about half the window moves none of them; every sub-window must hold
/// enough samples for its own tail percentile. Rates divide a sub-window's
/// OK replies by the time from its start to the last of those replies.
///
/// The tail is p95, not p99: analytic_miss's p99 sits on the edge of four
/// heavy queries (1% of a 400-query closed loop) and jumped between ~58 and
/// ~80 ms from run to run, while p95 falls in a dense part of every
/// workload's distribution. The printed per-slice lines carry p99 too.
struct ReadFigures {
  double p50_us = 0, p95_us = 0, qps = 0, goodput_qps = 0;
  bool supported = true;
};

ReadFigures SliceReads(const std::vector<ReadRecord>& reads, const Config& config) {
  const int k = config.slices;
  const double slice_us = config.seconds * 1e6 / k;
  std::vector<std::vector<double>> latency(k);
  std::vector<double> within(k, 0.0);
  std::vector<double> busy_us(k, 0.0);  // slice start -> its last reply
  for (const ReadRecord& r : reads) {
    if (r.outcome != Outcome::kOk) continue;
    const int s = std::min(k - 1, static_cast<int>(r.start_us / slice_us));
    latency[s].push_back(r.latency_us);
    if (r.latency_us <= config.latency_limit_us) ++within[s];
    busy_us[s] = std::max(busy_us[s], r.start_us + r.latency_us - s * slice_us);
  }
  ReadFigures figures;
  std::vector<double> p50, p95, qps, goodput;
  for (int s = 0; s < k; ++s) {
    const OrderStat mid = Percentile(&latency[s], 0.50);
    const OrderStat tail = Percentile(&latency[s], 0.95);
    const OrderStat far = Percentile(&latency[s], 0.99);
    std::printf("  reads %d/%d: n=%zu, p50 %.1f us (%zu beyond), p95 %.1f us "
                "(%zu beyond), p99 %.1f us (%zu beyond)\n",
                s + 1, k, mid.count, mid.value, mid.beyond, tail.value, tail.beyond,
                far.value, far.beyond);
    figures.supported = figures.supported && mid.supported() && tail.supported();
    p50.push_back(mid.value);
    p95.push_back(tail.value);
    qps.push_back(Ratio(static_cast<double>(latency[s].size()), busy_us[s] / 1e6));
    goodput.push_back(Ratio(within[s], busy_us[s] / 1e6));
  }
  if (!figures.supported) {
    std::fprintf(stderr, "sofos_perfbench: a read percentile has fewer than "
                         "10 samples beyond it\n");
  }
  figures.p50_us = Median(p50);
  figures.p95_us = Median(p95);
  figures.qps = Median(qps);
  figures.goodput_qps = Median(goodput);
  return figures;
}

/// One UPDATE of the post-window probe.
struct ProbeWrite {
  double fraction = 0.0;
  double latency_us = 0.0;  // send -> reply
  bool ok = false;
};

/// The request and update sequence a traced run replays: warm-up, the
/// window's reads in send order, then the probe.
std::vector<ReplayEvent> ReplaySequence(const Config& config, size_t pool_size,
                                        const WindowResult& window,
                                        const std::vector<ProbeWrite>& probe) {
  std::vector<ReplayEvent> events;
  for (size_t q = 0; q < std::min<size_t>(config.warmup_queries, pool_size); ++q) {
    events.push_back({false, static_cast<uint32_t>(q), 0.0});
  }
  for (const ReadRecord& r : window.reads) events.push_back({false, r.query, 0.0});
  for (const ProbeWrite& p : probe) events.push_back({true, 0, p.fraction});
  return events;
}

// ---- The run -----------------------------------------------------------------

int Run(const Config& config) {
  std::printf("workload=%s seed=%llu seconds=%g trace=%d dataset=%s\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, config.dataset.c_str());

  // Set up kSetupReps times; every deployment but the last is torn down.
  std::vector<std::string> pool;
  std::vector<SetupTimes> reps;
  Deployment deployment;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    deployment.TearDown();
    SetupTimes times;
    deployment.engine = BuildEngine(config, &pool, &times);
    StartAndWarm(config, pool, &deployment, &times);
    reps.push_back(times);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : reps) totals.push_back(t.Total());
  const double setup_s = Median(totals);
  const uint64_t triples = deployment.engine->BaseTriples();
  std::printf("setup: %d reps, median %.4f s; triples=%llu distinct_queries=%zu\n",
              kSetupReps, setup_s, static_cast<unsigned long long>(triples),
              pool.size());

  // The timed window.
  sofos::server::SofosServer& server = *deployment.server;
  const LoadPlan plan = MakePlan(config, pool.size());
  const Counters before = Counters::Read(deployment);
  const auto jiffies_before = CpuJiffies();
  WindowResult window = RunWindow(plan, pool, server.port(), server.http_port());
  const auto jiffies_after = CpuJiffies();
  // Peak memory covers setup and the window: it is read before the answer
  // check's reference answers and the update probe allocate their own.
  const double peak_rss_mb = PeakRssMb();
  Counters delta = Counters::Read(deployment).Minus(before);
  const double steal_frac = Ratio(jiffies_after.first - jiffies_before.first,
                                  jiffies_after.second - jiffies_before.second);

  // Answer check: every distinct query's first answer served in the window
  // (re-asked when the window never served it) and every reply's row count,
  // against the base-graph answer of the epoch the window served.
  uint64_t wrong = 0;
  {
    const auto references = ComputeReferences(
        *deployment.engine->CurrentSnapshot(), pool,
        std::max(1u, std::thread::hardware_concurrency()));
    for (size_t q = 0; q < pool.size(); ++q) {
      const std::string& served = window.first_reply[q];
      bool match;
      if (served.empty()) {
        match = LineReplyMatches(references[q],
                                 RequestOnce(server.port(), "QUERY " + pool[q]));
      } else if (plan.closed()) {
        match = LineReplyMatches(references[q], served);
      } else {
        match = HttpReplyMatches(references[q], served);
      }
      if (!match) {
        ++wrong;
        std::fprintf(stderr, "sofos_perfbench: wrong answer for query %zu: %s\n", q,
                     pool[q].c_str());
      }
    }
    for (const ReadRecord& r : window.reads) {
      if (r.outcome == Outcome::kOk && r.rows != references[r.query].rows.size()) {
        ++wrong;
      }
    }
  }

  // Post-window UPDATE probe, sequential on one connection: an unmeasured
  // first write (a server's first update initializes its view maintainer),
  // the small batches, then the bulk ones.
  std::vector<ProbeWrite> probe;
  {
    std::vector<double> fractions(1 + config.probe_small, kSmallFraction);
    fractions.insert(fractions.end(), config.probe_bulk, kBulkFraction);
    LineConnection conn;
    const bool connected = conn.Connect(server.port());
    std::string reply;
    for (double fraction : fractions) {
      ProbeWrite write;
      write.fraction = fraction;
      const auto start = std::chrono::steady_clock::now();
      write.ok = connected && conn.Roundtrip(UpdateLine(fraction), &reply) &&
                 reply.rfind("OK UPDATE", 0) == 0;
      write.latency_us = SecondsSince(start) * 1e6;
      probe.push_back(write);
    }
  }
  // The cache invalidates and carries answers forward only on UPDATE, so
  // those two counts span the window and the probe.
  const Counters after_probe = Counters::Read(deployment);
  delta.carried = after_probe.carried - before.carried;
  delta.invalidated = after_probe.invalidated - before.invalidated;
  const double bytes_per_triple =
      Ratio(static_cast<double>(deployment.engine->CurrentBytes()),
            static_cast<double>(deployment.engine->CurrentTriples()));
  deployment.TearDown();

  // Read and write figures.
  uint64_t reads_failed = 0, cap_waits = 0;
  std::vector<double> latency, io, lag;
  uint64_t misses = 0, routed_misses = 0;
  for (const ReadRecord& r : window.reads) {
    if (!plan.closed()) lag.push_back(r.lag_us);
    if (r.cap_wait) ++cap_waits;
    if (r.outcome != Outcome::kOk) {
      ++reads_failed;
      continue;
    }
    latency.push_back(r.latency_us);
    io.push_back(r.rtt_us - r.engine_us);
    if (!r.cached) {
      ++misses;
      if (r.routed) ++routed_misses;
    }
  }
  std::vector<double> small_ms, bulk_ms;
  uint64_t writes_failed = 0;
  for (size_t k = 0; k < probe.size(); ++k) {
    if (!probe[k].ok) ++writes_failed;
    if (!probe[k].ok || k == 0) continue;
    (probe[k].fraction == kBulkFraction ? bulk_ms : small_ms)
        .push_back(probe[k].latency_us / 1000.0);
  }
  const uint64_t attempted = window.reads.size() + probe.size();
  const uint64_t failed = reads_failed + writes_failed + wrong;
  const bool correct = wrong == 0;
  // The generator, not the server, is the bottleneck when its own lateness
  // makes up half or more of the tail latency it measured.
  const double lag_p99 = Percentile(&lag, 0.99).value;
  std::vector<double> read_latency = latency;
  const bool generator_valid =
      lag_p99 < 0.5 * Percentile(&read_latency, 0.99).value;

  std::printf("window: %.3f s, %zu reads (%llu failed), %zu probe writes "
              "(%llu failed), %llu wrong answers, failed_frac=%.6f\n",
              window.wall_seconds, window.reads.size(),
              static_cast<unsigned long long>(reads_failed), probe.size(),
              static_cast<unsigned long long>(writes_failed),
              static_cast<unsigned long long>(wrong),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the "
              "window\n", 100.0 * steal_frac);
  std::printf("load generator: read lag p99 %.1f us, %llu arrivals waited on the "
              "in-flight cap%s\n",
              lag_p99, static_cast<unsigned long long>(cap_waits),
              generator_valid ? "" : " -- INVALID RUN: the generator, not the "
                                     "server, was the bottleneck");
  {
    // The tail the small-update sample supports (>= 10 samples beyond).
    std::vector<double> tail = small_ms;
    const double p = std::max(0.5, 1.0 - 10.0 / static_cast<double>(tail.size()));
    std::printf("  small updates: n=%zu, p%.0f %.3f ms; bulk updates: n=%zu\n",
                tail.size(), 100 * p, Percentile(&tail, p).value, bulk_ms.size());
  }

  const ReadFigures reads = SliceReads(window.reads, config);
  bool supported = reads.supported;
  MetricSet metrics;
  if (!config.trace) {
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("read_p50_us", reads.p50_us, "us");
    metrics.Add("read_p95_us", reads.p95_us, "us");
    metrics.Add("read_qps", reads.qps, "1/s");
    metrics.Add("goodput_qps", reads.goodput_qps, "1/s");
    metrics.Add("update_p50_ms", Reported("update_p50_ms", small_ms, 0.50, &supported), "ms");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // The traced replay runs on a freshly set-up engine.
    SetupTimes replay_times;
    std::unique_ptr<sofos::core::SofosEngine> engine =
        BuildEngine(config, &pool, &replay_times);
    ReplayOptions options;
    options.cache = config.cache;
    options.read_budget_seconds = 0.25 * config.seconds;
    ReplayResult replay =
        Replay(engine.get(), pool, ReplaySequence(config, pool.size(), window, probe),
               options, config.spans_out);
    engine.reset();
    if (!replay.ok) Die(3, "replay: " + replay.error);
    std::printf("replay: %zu reads (%zu beyond the read budget), %zu writes\n",
                replay.reads_replayed, replay.reads_skipped, replay.writes_replayed);
    std::printf("traced run end-to-end (its window is the one --trace 0 measures; "
                "compare with that run): read_p50_us=%.1f read_p95_us=%.1f "
                "read_qps=%.1f\n",
                reads.p50_us, reads.p95_us, reads.qps);

    auto mean = [&](const char* span, bool self) {
      const auto& table = self ? replay.self_us : replay.duration_us;
      auto it = table.find(span);
      return it == table.end() ? 0.0 : Mean(it->second);
    };
    std::vector<double> exec = replay.exec_view_us;
    exec.insert(exec.end(), replay.exec_base_us.begin(), replay.exec_base_us.end());
    const double exec_mean = Mean(exec);
    const OrderStat exec_p99 = Percentile(&exec, 0.99);
    std::printf("  sparql.exec_p99_us: n=%zu, %zu beyond\n", exec_p99.count,
                exec_p99.beyond);
    std::vector<double> io_copy = io;

    metrics.Add("server.io_p50_us", Percentile(&io_copy, 0.50).value, "us");
    metrics.Add("server.io_p99_us", Percentile(&io_copy, 0.99).value, "us");
    metrics.Add("server.parse_mean_us", mean("server.parse", false), "us");
    metrics.Add("server.format_mean_us", mean("server.format", false), "us");
    metrics.Add("admission.shed_frac", Ratio(delta.shed, delta.admitted + delta.shed), "ratio");
    metrics.Add("admission.admitted", delta.admitted, "count");
    metrics.Add("admission.wait_ratio",
                Ratio(Ratio(delta.est_wait_sum, delta.est_wait_count),
                      Ratio(delta.pool_wait_sum, delta.pool_wait_count)),
                "ratio");
    metrics.Add("pool.queue_wait_mean_us", Ratio(delta.pool_wait_sum, delta.pool_wait_count), "us");
    metrics.Add("cache.hit_ratio", Ratio(delta.hits, delta.hits + delta.misses), "ratio");
    metrics.Add("cache.carried_forward", delta.carried, "count");
    metrics.Add("cache.invalidated", delta.invalidated, "count");
    metrics.Add("cache.lookup_mean_us", mean("cache.lookup", false), "us");
    metrics.Add("cache.insert_mean_us", mean("cache.insert", false), "us");
    metrics.Add("core.view_hit_ratio",
                Ratio(static_cast<double>(routed_misses), static_cast<double>(misses)), "ratio");
    metrics.Add("core.route_mean_us", mean("engine.route", true), "us");
    metrics.Add("core.publish_mean_us", mean("core.publish", false), "us");
    metrics.Add("sparql.parse_mean_us", mean("engine.parse", true), "us");
    metrics.Add("sparql.exec_mean_us", exec_mean, "us");
    metrics.Add("sparql.exec_p99_us", exec_p99.value, "us");
    metrics.Add("sparql.exec_view_mean_us", Mean(replay.exec_view_us), "us");
    metrics.Add("sparql.exec_base_mean_us", Mean(replay.exec_base_us), "us");
    metrics.Add("sparql.rows_scanned_per_row",
                Ratio(static_cast<double>(replay.rows_scanned),
                      static_cast<double>(replay.result_rows)),
                "ratio");
    metrics.Add("maint.bulk_update_ms", Median(bulk_ms), "ms");
    metrics.Add("maint.root_mean_ms", Mean(replay.root_query_ms), "ms");
    metrics.Add("maint.views_mean_ms", Mean(replay.maintain_ms), "ms");
    metrics.Add("maint.delta_batches", static_cast<double>(replay.delta_batches), "count");
    metrics.Add("maint.full_batches", static_cast<double>(replay.full_batches), "count");
    metrics.Add("maint.bindings_per_op",
                Ratio(static_cast<double>(replay.delta_bindings),
                      static_cast<double>(replay.delta_ops)),
                "ratio");
    metrics.Add("rdf.merge_mean_ms", Mean(replay.merge_ms), "ms");
    metrics.Add("rdf.bytes_per_triple", bytes_per_triple, "B");
    metrics.Add("setup.datagen_s", median_of(&SetupTimes::datagen_s), "s");
    metrics.Add("setup.load_s", median_of(&SetupTimes::load_s), "s");
    metrics.Add("setup.profile_s", median_of(&SetupTimes::profile_s), "s");
    metrics.Add("setup.select_s", median_of(&SetupTimes::select_s), "s");
    metrics.Add("setup.materialize_s", median_of(&SetupTimes::materialize_s), "s");
    metrics.Add("setup.start_s", median_of(&SetupTimes::start_s), "s");
    metrics.Add("setup.warmup_s", median_of(&SetupTimes::warmup_s), "s");
    metrics.Add("loadgen.lag_p99_us", lag_p99, "us");
    metrics.Add("loadgen.cap_wait_frac",
                Ratio(static_cast<double>(cap_waits), static_cast<double>(window.reads.size())),
                "ratio");
    metrics.Add("loadgen.valid", generator_valid ? 1.0 : 0.0, "bool");
    metrics.Add("loadgen.steal_frac", steal_frac, "ratio");
    metrics.Add("trace.overhead_frac",
                Ratio(replay.traced_answer_us, replay.untraced_answer_us) - 1.0, "ratio");
  }
  metrics.Print();
  if (!supported) return 4;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return perfbench::Run(perfbench::ParseFlags(argc, argv));
}
