/// Continuous-telemetry tests: the TelemetryHistory ring (wraparound,
/// counter rates and histogram interval percentiles under an injectable
/// clock), LatencyHistogram::Snapshot::Subtract, Prometheus label-value
/// escaping with hostile labels, the thread pool's bridged queue/task
/// instrumentation, the workload recorder (eviction, export, and the
/// replay invariant: re-running the exported workload reproduces the
/// recorded routing decisions), the server's HISTORY/SLOW verbs,
/// slow-query capture rate limiting, the HTTP observability endpoint
/// (/metrics /stats /history /slow /healthz; the saturation flip to 503
/// is covered in event_loop_test.cc), and a concurrent sampler-vs-traffic
/// stress that runs under the TSan lane (scripts/run_tsan.sh, label
/// `telemetry`).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_histogram.h"
#include "common/metrics_registry.h"
#include "common/string_util.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/facet.h"
#include "core/workload_recorder.h"
#include "datagen/registry.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/server.h"
#include "server/slow_query_log.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace sofos {
namespace {

using server::BlockingClient;
using server::ServerOptions;
using server::SlowQueryLog;
using server::SlowQueryOptions;
using server::SofosServer;

// ---- TelemetryHistory: ring, rates, intervals under a fake clock ----------

TEST(TelemetryHistoryTest, WindowNeedsTwoSamples) {
  MetricsRegistry registry;
  registry.Counter("sofos_x_total")->Add(5);
  double now = 100.0;
  TelemetryOptions options;
  options.clock_seconds = [&now] { return now; };
  TelemetryHistory history(&registry, options);

  EXPECT_FALSE(history.Window(60.0).valid);
  history.Sample();
  EXPECT_FALSE(history.Window(60.0).valid);
  now = 101.0;
  history.Sample();
  EXPECT_TRUE(history.Window(60.0).valid);
  // A window too narrow to reach back to the older sample is invalid too.
  EXPECT_FALSE(history.Window(0.5).valid);
}

TEST(TelemetryHistoryTest, CounterRatesAndRingWraparound) {
  MetricsRegistry registry;
  MetricCounter* counter = registry.Counter("sofos_req_total");
  registry.Gauge("sofos_depth")->Set(2.0);
  double now = 100.0;
  TelemetryOptions options;
  options.capacity = 4;
  options.clock_seconds = [&now] { return now; };
  TelemetryHistory history(&registry, options);

  history.Sample();  // t=100, counter=0
  counter->Add(10);
  now = 110.0;
  history.Sample();  // t=110, counter=10
  counter->Add(30);
  now = 120.0;
  history.Sample();  // t=120, counter=40

  TelemetryWindow wide = history.Window(60.0);
  ASSERT_TRUE(wide.valid);
  EXPECT_EQ(wide.samples_in_window, 3u);
  EXPECT_DOUBLE_EQ(wide.window_seconds, 20.0);
  EXPECT_DOUBLE_EQ(wide.newest_at_seconds, 120.0);
  ASSERT_TRUE(wide.rates.count("sofos_req_total"));
  EXPECT_EQ(wide.rates.at("sofos_req_total").delta, 40u);
  EXPECT_DOUBLE_EQ(wide.rates.at("sofos_req_total").per_second, 2.0);
  ASSERT_TRUE(wide.gauges.count("sofos_depth"));
  EXPECT_DOUBLE_EQ(wide.gauges.at("sofos_depth"), 2.0);

  // A narrower window baselines against the closer sample.
  TelemetryWindow narrow = history.Window(10.0);
  ASSERT_TRUE(narrow.valid);
  EXPECT_EQ(narrow.rates.at("sofos_req_total").delta, 30u);
  EXPECT_DOUBLE_EQ(narrow.rates.at("sofos_req_total").per_second, 3.0);

  // Wraparound: capacity 4 keeps only the newest four samples; a window
  // reaching past the evicted ones baselines at the oldest *retained*.
  for (int i = 0; i < 6; ++i) {
    counter->Add(1);
    now += 10.0;
    history.Sample();
  }
  EXPECT_EQ(history.size(), 4u);
  TelemetryWindow all = history.Window(1e6);
  ASSERT_TRUE(all.valid);
  EXPECT_EQ(all.samples_in_window, 4u);
  EXPECT_EQ(all.rates.at("sofos_req_total").delta, 3u);  // 3 retained steps
  EXPECT_DOUBLE_EQ(all.window_seconds, 30.0);
}

TEST(TelemetryHistoryTest, CounterBornMidWindowBaselinesAtZero) {
  MetricsRegistry registry;
  double now = 100.0;
  TelemetryOptions options;
  options.clock_seconds = [&now] { return now; };
  TelemetryHistory history(&registry, options);

  history.Sample();
  registry.Counter("sofos_late_total")->Add(7);  // born after first sample
  now = 110.0;
  history.Sample();

  TelemetryWindow window = history.Window(60.0);
  ASSERT_TRUE(window.valid);
  ASSERT_TRUE(window.rates.count("sofos_late_total"));
  EXPECT_EQ(window.rates.at("sofos_late_total").delta, 7u);
  EXPECT_DOUBLE_EQ(window.rates.at("sofos_late_total").per_second, 0.7);
}

TEST(TelemetryHistoryTest, BackwardsCounterClampsToZeroDelta) {
  // A collector-exported counter that resets (process restart semantics)
  // must not wrap the unsigned delta into garbage rates.
  MetricsRegistry registry;
  uint64_t external = 100;
  uint64_t collector_id =
      registry.RegisterCollector([&external](std::vector<MetricSample>* out) {
        MetricSample s;
        s.name = "sofos_external_total";
        s.kind = MetricSample::Kind::kCounter;
        s.counter_value = external;
        out->push_back(std::move(s));
      });
  double now = 100.0;
  TelemetryOptions options;
  options.clock_seconds = [&now] { return now; };
  TelemetryHistory history(&registry, options);

  history.Sample();
  external = 40;  // went backwards
  now = 110.0;
  history.Sample();

  TelemetryWindow window = history.Window(60.0);
  ASSERT_TRUE(window.valid);
  EXPECT_EQ(window.rates.at("sofos_external_total").delta, 0u);
  EXPECT_DOUBLE_EQ(window.rates.at("sofos_external_total").per_second, 0.0);
  registry.UnregisterCollector(collector_id);
}

TEST(TelemetryHistoryTest, HistogramIntervalPercentilesNotLifetime) {
  MetricsRegistry registry;
  LatencyHistogram* hist = registry.Histogram("sofos_exec_micros");
  double now = 100.0;
  TelemetryOptions options;
  options.clock_seconds = [&now] { return now; };
  TelemetryHistory history(&registry, options);

  // 200 fast samples before the window, 100 slow ones inside it: the
  // interval distribution must show only the slow ones, while the
  // lifetime snapshot would be dominated by the fast majority.
  for (int i = 0; i < 200; ++i) hist->Record(10.0);
  history.Sample();
  for (int i = 0; i < 100; ++i) hist->Record(5000.0);
  now = 110.0;
  history.Sample();

  TelemetryWindow window = history.Window(60.0);
  ASSERT_TRUE(window.valid);
  ASSERT_TRUE(window.intervals.count("sofos_exec_micros"));
  const LatencyHistogram::Snapshot& delta =
      window.intervals.at("sofos_exec_micros");
  EXPECT_EQ(delta.count, 100u);
  // Upper-bound estimate stays within one geometric bucket (ratio 1.5).
  EXPECT_GE(delta.P50(), 5000.0);
  EXPECT_LE(delta.P50(), 5000.0 * 1.5);
  EXPECT_GE(delta.P99(), 5000.0);

  std::string json = history.WindowJson(60.0);
  EXPECT_NE(json.find("\"valid\":true"), std::string::npos);
  EXPECT_NE(json.find("\"sofos_exec_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(SnapshotSubtractTest, SaturatesAndRecomputesCount) {
  LatencyHistogram hist;
  for (int i = 0; i < 50; ++i) hist.Record(100.0);
  LatencyHistogram::Snapshot older = hist.TakeSnapshot();
  for (int i = 0; i < 30; ++i) hist.Record(100.0);
  LatencyHistogram::Snapshot newer = hist.TakeSnapshot();

  LatencyHistogram::Snapshot delta = newer.Subtract(older);
  EXPECT_EQ(delta.count, 30u);
  EXPECT_NEAR(delta.sum_micros, 30 * 100.0, 1.0);
  EXPECT_GE(delta.P50(), 100.0);
  EXPECT_LE(delta.P50(), 150.0);

  // Subtracting a *newer* snapshot saturates to empty instead of
  // underflowing the unsigned buckets.
  LatencyHistogram::Snapshot inverted = older.Subtract(newer);
  EXPECT_EQ(inverted.count, 0u);
  EXPECT_GE(inverted.sum_micros, 0.0);
}

// ---- Prometheus exposition: hostile label values ---------------------------

TEST(PrometheusEscapingTest, HostileLabelValuesAreEscaped) {
  MetricsRegistry registry;
  // Raw label values contain a quote, a backslash, and a newline — the
  // three characters the exposition format requires escaping. The
  // registry's identity is the raw name; only rendering escapes.
  registry.Counter("sofos_rows_total{view=\"a\"b\\c\"}")->Add(3);
  registry.Counter("sofos_rows_total{view=\"x\ny\"}")->Add(4);
  std::string text = registry.PrometheusText();

  EXPECT_NE(text.find("sofos_rows_total{view=\"a\\\"b\\\\c\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sofos_rows_total{view=\"x\\ny\"} 4"), std::string::npos)
      << text;
  // The raw (unescaped) forms must not leak into the exposition: a bare
  // newline inside a label value breaks the line-oriented format.
  EXPECT_EQ(text.find("view=\"x\ny\""), std::string::npos);
  EXPECT_EQ(text.find("view=\"a\"b"), std::string::npos);
}

// ---- NormalizeSparql (shared cache-key / recorder form) --------------------

TEST(NormalizeSparqlTest, CollapsesWhitespaceOutsideLiterals) {
  EXPECT_EQ(NormalizeSparql("  SELECT   ?x\n WHERE\t{ ?x ?p ?o }  "),
            "SELECT ?x WHERE { ?x ?p ?o }");
  // Quoted literals keep their spacing verbatim.
  EXPECT_EQ(NormalizeSparql("FILTER(?n =  \"a  b\")"),
            "FILTER(?n = \"a  b\")");
}

// ---- Thread pool instrumentation ------------------------------------------

TEST(ThreadPoolTelemetryTest, BridgedQueueAndTaskMetrics) {
  ThreadPool pool(2);
  MetricsRegistry registry;
  uint64_t collector_id = pool.BridgeMetrics(&registry);

  constexpr uint64_t kTasks = 8;
  std::vector<std::future<void>> futures;
  for (uint64_t i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }));
  }
  for (auto& f : futures) f.get();
  // A task's future resolves inside its closure, *before* the worker
  // stamps the run-time histogram — poll briefly for the last record.
  for (int i = 0; i < 1000 && pool.TaskRunSnapshot().count < kTasks; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_EQ(pool.QueueDepth(), 0u);
  EXPECT_EQ(pool.QueueWaitSnapshot().count, kTasks);
  EXPECT_EQ(pool.TaskRunSnapshot().count, kTasks);
  // Every task slept ~1ms; the run-time distribution must reflect it.
  EXPECT_GE(pool.TaskRunSnapshot().P50(), 1000.0);

  bool saw_wait = false, saw_run = false, saw_depth = false;
  for (const MetricSample& s : registry.Collect()) {
    if (s.name == "sofos_pool_queue_wait_micros") {
      saw_wait = true;
      EXPECT_EQ(s.kind, MetricSample::Kind::kHistogram);
      EXPECT_EQ(s.histogram.count, kTasks);
    } else if (s.name == "sofos_pool_task_micros") {
      saw_run = true;
      EXPECT_EQ(s.histogram.count, kTasks);
    } else if (s.name == "sofos_pool_queue_depth") {
      saw_depth = true;
      EXPECT_EQ(s.kind, MetricSample::Kind::kGauge);
    }
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_run);
  EXPECT_TRUE(saw_depth);
  registry.UnregisterCollector(collector_id);
}

// ---- WorkloadRecorder unit behavior ---------------------------------------

TEST(WorkloadRecorderTest, EvictionCountersAndDisable) {
  core::WorkloadRecorder recorder(2);
  core::RecordedQuery q;
  q.normalized_sparql = "q";
  q.has_signature = true;
  recorder.Record(q);
  recorder.Record(q);
  recorder.Record(q);  // evicts the oldest
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.recorded_total(), 3u);
  EXPECT_EQ(recorder.dropped_total(), 1u);

  recorder.Enable(false);
  recorder.Record(q);
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.recorded_total(), 3u);

  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(WorkloadRecorderTest, ExportSkipsSignaturelessEntries) {
  core::WorkloadRecorder recorder(8);
  core::RecordedQuery with;
  with.normalized_sparql = "SELECT ?x WHERE { ?x ?p ?o }";
  with.has_signature = true;
  with.signature.group_mask = 3;
  core::RecordedQuery without;  // e.g. a server cache hit
  without.normalized_sparql = "SELECT ?x WHERE { ?x ?p ?o }";
  without.cache_hit = true;
  recorder.Record(with);
  recorder.Record(without);
  recorder.Record(with);

  std::vector<core::WorkloadQuery> exported = recorder.ExportWorkload();
  ASSERT_EQ(exported.size(), 2u);
  EXPECT_EQ(exported[0].id, "rec-0");
  EXPECT_EQ(exported[1].id, "rec-2");
  EXPECT_EQ(exported[0].signature.group_mask, 3u);
  EXPECT_EQ(exported[0].sparql, with.normalized_sparql);
}

// ---- Engine fixture (mirrors server_test.cc's SnapshotTest) ---------------

class TelemetryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TripleStore store;
    auto spec =
        datagen::GenerateByName("geopop", datagen::Scale::kTiny, 42, &store);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto facet = core::Facet::FromSparql(spec->facet_sparql, spec->name,
                                         spec->dim_labels);
    ASSERT_TRUE(facet.ok()) << facet.status().ToString();
    SOFOS_ASSERT_OK(engine_.LoadStore(std::move(store)));
    SOFOS_ASSERT_OK(engine_.SetFacet(std::move(facet).value()));
    SOFOS_ASSERT_OK(engine_.Profile().status());
    core::TripleCountCostModel model;
    SOFOS_ASSERT_OK_AND_ASSIGN(auto selection, engine_.SelectViews(model, 2));
    SOFOS_ASSERT_OK(engine_.MaterializeSelection(selection).status());
  }

  core::SofosEngine engine_;
};

TEST_F(TelemetryEngineTest, RecorderExportReplayReproducesRouting) {
  SOFOS_ASSERT_OK_AND_ASSIGN(auto snap, engine_.PublishSnapshot());

  workload::WorkloadGenerator generator(&engine_.facet(), engine_.store());
  workload::WorkloadOptions options;
  options.num_queries = 6;
  options.seed = 11;
  SOFOS_ASSERT_OK_AND_ASSIGN(auto queries, generator.Generate(options));

  engine_.recorder()->Clear();
  for (const auto& q : queries) {
    SOFOS_ASSERT_OK(snap->Answer(q.sparql, true).status());
  }

  std::vector<core::RecordedQuery> recorded = engine_.recorder()->Snapshot();
  ASSERT_EQ(recorded.size(), queries.size());
  for (const auto& r : recorded) {
    EXPECT_TRUE(r.has_signature) << r.normalized_sparql;
    EXPECT_EQ(r.epoch, snap->epoch());
    EXPECT_FALSE(r.cache_hit);
  }

  // The acceptance invariant: replaying the exported workload through the
  // engine at the same epoch reproduces every recorded routing decision.
  std::vector<core::WorkloadQuery> exported =
      engine_.recorder()->ExportWorkload();
  ASSERT_EQ(exported.size(), recorded.size());
  SOFOS_ASSERT_OK_AND_ASSIGN(auto report, engine_.RunWorkload(exported, true));
  ASSERT_EQ(report.outcomes.size(), recorded.size());
  for (size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].used_view, recorded[i].used_view)
        << exported[i].sparql;
    if (recorded[i].used_view) {
      EXPECT_EQ(report.outcomes[i].view_mask, recorded[i].view_mask)
          << exported[i].sparql;
    }
    EXPECT_EQ(report.outcomes[i].result_rows, recorded[i].result_rows);
  }
}

// ---- SlowQueryLog unit behavior -------------------------------------------

TEST(SlowQueryLogTest, ThresholdAndRateLimit) {
  double now = 0.0;
  SlowQueryOptions options;
  options.threshold_micros = 1000.0;
  options.min_interval_seconds = 10.0;
  options.capacity = 2;
  options.clock_seconds = [&now] { return now; };
  SlowQueryLog log(options);

  EXPECT_FALSE(log.ShouldCapture(500.0));  // below threshold
  EXPECT_TRUE(log.ShouldCapture(2000.0));  // first capture admits
  EXPECT_FALSE(log.ShouldCapture(2000.0));  // rate-limited
  EXPECT_EQ(log.suppressed_total(), 1u);
  now = 11.0;
  EXPECT_TRUE(log.ShouldCapture(2000.0));  // interval elapsed

  server::SlowQueryRecord record;
  record.query = "q";
  record.micros = 2000.0;
  log.Add(record);
  log.Add(record);
  log.Add(record);  // capacity 2: oldest evicted
  EXPECT_EQ(log.size(), 2u);
  EXPECT_NE(log.ToJson().find("\"micros\":2000.0"), std::string::npos);

  // threshold_micros <= 0 disables capture entirely.
  SlowQueryOptions off;
  off.threshold_micros = 0.0;
  SlowQueryLog disabled(off);
  EXPECT_FALSE(disabled.ShouldCapture(1e9));
}

// ---- Loopback server: HISTORY/SLOW verbs, HTTP endpoint -------------------

class TelemetryServerTest : public TelemetryEngineTest {};

/// One-shot HTTP/1.0 GET against the observability listener; returns the
/// full response (status line + headers + body) read to EOF.
std::string HttpGet(uint16_t port, const std::string& target,
                    const std::string& method = "GET") {
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
  std::string request =
      method + " " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
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

/// Polls `done` for up to 10 s (asynchronous server-side effects).
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Percent-encodes everything but unreserved characters, for GET /query.
std::string UrlEncode(const std::string& in) {
  std::string out;
  for (unsigned char c : in) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out += StrFormat("%%%02X", c);
    }
  }
  return out;
}

TEST_F(TelemetryServerTest, HistoryVerbReportsWindowRates) {
  ServerOptions options;
  // No background interference: the test drives sampling by hand.
  options.sample_period_seconds = 3600.0;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));

  server.SampleTelemetryNow();
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto answer,
      client.Roundtrip("QUERY " + engine_.facet().CanonicalQuerySparql(1)));
  ASSERT_TRUE(answer.ok()) << answer.header;
  server.SampleTelemetryNow();

  SOFOS_ASSERT_OK_AND_ASSIGN(auto history, client.Roundtrip("HISTORY 60"));
  ASSERT_TRUE(history.ok()) << history.header;
  EXPECT_NE(history.header.find("OK HISTORY window=60.0"), std::string::npos);
  ASSERT_EQ(history.body.size(), 1u);
  EXPECT_NE(history.body[0].find("\"valid\":true"), std::string::npos);
  EXPECT_NE(history.body[0].find("sofos_engine_queries_total"), std::string::npos);
  EXPECT_NE(history.body[0].find("\"rates\""), std::string::npos);

  SOFOS_ASSERT_OK_AND_ASSIGN(auto bad, client.Roundtrip("HISTORY nope"));
  EXPECT_FALSE(bad.ok());
  SOFOS_ASSERT_OK_AND_ASSIGN(auto negative, client.Roundtrip("HISTORY -5"));
  EXPECT_FALSE(negative.ok());

  client.Roundtrip("QUIT");
  server.Stop();
  // History stays readable after Stop() (post-mortem inspection).
  EXPECT_NE(server.HistoryJson(60.0).find("\"valid\":true"),
            std::string::npos);
}

TEST_F(TelemetryServerTest, SlowQueryCaptureIsRateLimited) {
  ServerOptions options;
  options.slow_query.threshold_micros = 0.001;  // everything is "slow"
  options.slow_query.min_interval_seconds = 3600.0;  // admit exactly one
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));

  // Three distinct queries (cache misses, so each one crosses the capture
  // path); the rate limit admits only the first.
  for (uint32_t mask = 1; mask <= 3; ++mask) {
    SOFOS_ASSERT_OK_AND_ASSIGN(
        auto response,
        client.Roundtrip("QUERY " +
                         engine_.facet().CanonicalQuerySparql(mask)));
    ASSERT_TRUE(response.ok()) << response.header;
  }
  // Capture runs after each reply is sent; wait for all three decisions.
  WaitFor([&] {
    return server.slow_queries().captured_total() +
               server.slow_queries().suppressed_total() >= 3;
  });
  EXPECT_EQ(server.slow_queries().captured_total(), 1u);
  EXPECT_GE(server.slow_queries().suppressed_total(), 2u);

  SOFOS_ASSERT_OK_AND_ASSIGN(auto slow, client.Roundtrip("SLOW"));
  ASSERT_TRUE(slow.ok()) << slow.header;
  EXPECT_NE(slow.header.find("OK SLOW captured=1"), std::string::npos);
  std::string body = slow.BodyText();
  EXPECT_NE(body.find("\"analyze\""), std::string::npos);
  EXPECT_NE(body.find("\"trace\""), std::string::npos);
  EXPECT_NE(body.find("\"epoch\""), std::string::npos);

  client.Roundtrip("QUIT");
  server.Stop();
}

TEST_F(TelemetryServerTest, SlowQueryCaptureDoesNotDelayTheReply) {
  // The capture log's clock stalls (for at most 2 s) until the client has
  // read its reply. Capture running before the reply would therefore hold
  // the reply back for the whole stall.
  std::atomic<bool> reply_read{false};
  ServerOptions options;
  options.slow_query.threshold_micros = 1.0;
  options.slow_query.min_interval_seconds = 0.0;
  options.slow_query.clock_seconds = [&reply_read] {
    const auto start = std::chrono::steady_clock::now();
    while (!reply_read.load() &&
           std::chrono::steady_clock::now() - start < std::chrono::seconds(2)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  // Line protocol.
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));
  // One line, as the line protocol carries it.
  std::string line_query = engine_.facet().CanonicalQuerySparql(1);
  std::replace(line_query.begin(), line_query.end(), '\n', ' ');
  auto start = std::chrono::steady_clock::now();
  SOFOS_ASSERT_OK_AND_ASSIGN(auto response, client.Roundtrip("QUERY " + line_query));
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start).count();
  reply_read.store(true);
  ASSERT_TRUE(response.ok()) << response.header;
  EXPECT_LT(seconds, 1.0);
  ASSERT_TRUE(WaitFor([&] { return server.slow_queries().captured_total() == 1; }));

  // HTTP /query.
  reply_read.store(false);
  const std::string http_query = engine_.facet().CanonicalQuerySparql(2);
  start = std::chrono::steady_clock::now();
  std::string http = HttpGet(server.http_port(), "/query?q=" + UrlEncode(http_query));
  seconds = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start).count();
  reply_read.store(true);
  EXPECT_NE(http.find("HTTP/1.0 200"), std::string::npos) << http;
  EXPECT_LT(seconds, 1.0);
  ASSERT_TRUE(WaitFor([&] { return server.slow_queries().captured_total() == 2; }));

  std::vector<server::SlowQueryRecord> records = server.slow_queries().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].query, line_query);
  EXPECT_EQ(records[1].query, http_query);
  std::string slow = HttpGet(server.http_port(), "/slow");
  EXPECT_NE(slow.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(slow.find("\"analyze\""), std::string::npos);

  client.Roundtrip("QUIT");
  server.Stop();
}

TEST_F(TelemetryServerTest, HttpEndpointsRoundTrip) {
  ServerOptions options;
  options.sample_period_seconds = 3600.0;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  ASSERT_GT(server.http_port(), 0);

  // Two manual samples bracket one query so /history has a valid window.
  server.SampleTelemetryNow();
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto answer,
      client.Roundtrip("QUERY " + engine_.facet().CanonicalQuerySparql(2)));
  ASSERT_TRUE(answer.ok()) << answer.header;
  server.SampleTelemetryNow();

  std::string metrics = HttpGet(server.http_port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("sofos_engine_queries_total"), std::string::npos);

  std::string stats = HttpGet(server.http_port(), "/stats");
  EXPECT_NE(stats.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(stats.find("\"endpoints\""), std::string::npos);

  std::string history = HttpGet(server.http_port(), "/history?window=60");
  EXPECT_NE(history.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(history.find("\"valid\":true"), std::string::npos);
  EXPECT_NE(HttpGet(server.http_port(), "/history?window=junk")
                .find("HTTP/1.0 400"),
            std::string::npos);

  std::string slow = HttpGet(server.http_port(), "/slow");
  EXPECT_NE(slow.find("HTTP/1.0 200"), std::string::npos);

  std::string health = HttpGet(server.http_port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);

  EXPECT_NE(HttpGet(server.http_port(), "/nope").find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.http_port(), "/metrics", "POST")
                .find("HTTP/1.0 405"),
            std::string::npos);

  client.Roundtrip("QUIT");
  server.Stop();
}

TEST_F(TelemetryServerTest, ConcurrentSamplerTrafficAndReaders) {
  // TSan target: background sampler at an aggressive period, concurrent
  // query sessions, an updater bumping epochs, and HTTP/HISTORY readers
  // all racing over the same registry/history/recorder/slow-log.
  ServerOptions options;
  options.sample_period_seconds = 0.005;
  options.slow_query.threshold_micros = 1.0;
  options.slow_query.min_interval_seconds = 0.0;
  options.slow_query.capacity = 4;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  constexpr int kClients = 3, kQueriesPerClient = 12;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      BlockingClient client;
      if (!client.Connect(server.port()).ok()) {
        ++errors;
        return;
      }
      for (int i = 0; i < kQueriesPerClient; ++i) {
        uint32_t mask = static_cast<uint32_t>((c + i) % 4);
        auto response = client.Roundtrip(
            "QUERY " + engine_.facet().CanonicalQuerySparql(mask));
        if (!response.ok() || !response->ok()) ++errors;
      }
      client.Roundtrip("QUIT");
    });
  }
  threads.emplace_back([&] {
    BlockingClient client;
    if (!client.Connect(server.port()).ok()) {
      ++errors;
      return;
    }
    for (int i = 0; i < 2; ++i) {
      auto response = client.Roundtrip("UPDATE 1 0.01");
      if (!response.ok() || !response->ok()) ++errors;
    }
    client.Roundtrip("QUIT");
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 20; ++i) {
      server.HistoryJson(60.0);
      HttpGet(server.http_port(), "/metrics");
      HttpGet(server.http_port(), "/healthz");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);

  // The sampler ran throughout; the ring must hold real samples and the
  // recorder must have seen every non-cached query.
  ASSERT_NE(server.telemetry(), nullptr);
  EXPECT_GT(server.telemetry()->size(), 1u);
  EXPECT_GT(engine_.recorder()->recorded_total(), 0u);
  server.Stop();
}

}  // namespace
}  // namespace sofos
