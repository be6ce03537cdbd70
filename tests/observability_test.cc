/// Observability subsystem tests: LatencyHistogram::Merge edge cases, the
/// trace span layer (nesting, cross-thread handoff, disabled no-op), the
/// MetricsRegistry (instrument identity, collectors, Prometheus/JSON
/// exposition completeness), EXPLAIN ANALYZE consistency (per-operator
/// actuals vs ExecStats totals, shape invariance across shard counts),
/// result-cache TTLs under a fake clock, and the server's
/// ANALYZE/TRACE/METRICS verbs over loopback. Runs under the TSan lane
/// (scripts/run_tsan.sh, label `observability`).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_histogram.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/engine.h"
#include "core/facet.h"
#include "datagen/registry.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "sparql/query_engine.h"
#include "tests/test_util.h"

namespace sofos {
namespace {

using server::BlockingClient;
using server::ResultCache;
using server::ResultCacheOptions;
using server::ServerOptions;
using server::SofosServer;

// ---- LatencyHistogram::Merge edge cases -----------------------------------

TEST(LatencyHistogramMergeTest, EmptyMergeEmptyStaysEmpty) {
  LatencyHistogram::Snapshot a, b;
  a.Merge(b);
  EXPECT_EQ(a.count, 0u);
  EXPECT_EQ(a.sum_micros, 0.0);
  EXPECT_EQ(a.P50(), 0.0);
  EXPECT_EQ(a.P99(), 0.0);
  EXPECT_EQ(a.MeanMicros(), 0.0);
}

TEST(LatencyHistogramMergeTest, EmptyMergeNonEmptyAdopts) {
  LatencyHistogram hist;
  for (int i = 1; i <= 100; ++i) hist.Record(static_cast<double>(i));
  LatencyHistogram::Snapshot a;
  LatencyHistogram::Snapshot b = hist.TakeSnapshot();
  a.Merge(b);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum_micros, b.sum_micros);
  EXPECT_EQ(a.P50(), b.P50());
  EXPECT_EQ(a.P99(), b.P99());
}

TEST(LatencyHistogramMergeTest, SaturatedTopBucketMergesWithoutOverflow) {
  // Samples far beyond the last bucket boundary all clamp into the top
  // bucket; merging two saturated snapshots must add counts, keep the
  // percentile pinned at the top bucket's upper bound, and preserve sums.
  LatencyHistogram h1, h2;
  // Past the top bucket's lower bound (1.5^54 us ~ 3.2e9) but small enough
  // that 1500 samples stay inside the histogram's uint64 nanosecond sum.
  const double huge = 1e10;
  for (int i = 0; i < 1000; ++i) h1.Record(huge);
  for (int i = 0; i < 500; ++i) h2.Record(huge);
  LatencyHistogram::Snapshot a = h1.TakeSnapshot();
  LatencyHistogram::Snapshot b = h2.TakeSnapshot();
  ASSERT_EQ(a.counts[LatencyHistogram::kNumBuckets - 1], 1000u);
  a.Merge(b);
  EXPECT_EQ(a.count, 1500u);
  EXPECT_EQ(a.counts[LatencyHistogram::kNumBuckets - 1], 1500u);
  const double top =
      LatencyHistogram::BucketUpperMicros(LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(a.P50(), top);
  EXPECT_EQ(a.P99(), top);
  EXPECT_NEAR(a.sum_micros, 1500.0 * huge, 1500.0 * huge * 1e-6);
}

TEST(LatencyHistogramMergeTest, CrossThreadRecordDuringSnapshot) {
  // TakeSnapshot is documented safe against concurrent Record: every
  // snapshot must be internally consistent (bucket sum == count is not
  // guaranteed under relaxed ordering, but counts never exceed the total
  // recorded so far and merging per-thread snapshots reaches the final
  // tally).
  LatencyHistogram hist;
  constexpr int kThreads = 4, kPerThread = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<double>((t + 1) * 10 + i % 7));
      }
    });
  }
  std::thread snapshotter([&hist, &done] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      LatencyHistogram::Snapshot snap = hist.TakeSnapshot();
      EXPECT_GE(snap.count, last);  // monotone under concurrent recording
      EXPECT_LE(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
      last = snap.count;
    }
  });
  for (auto& r : recorders) r.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();
  LatencyHistogram::Snapshot final_snap = hist.TakeSnapshot();
  EXPECT_EQ(final_snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_sum = 0;
  for (uint64_t c : final_snap.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, final_snap.count);
}

// ---- Trace spans ----------------------------------------------------------

TEST(TraceTest, DisabledSpansAreNoops) {
  ScopedSpan span(nullptr, "never.recorded");
  EXPECT_FALSE(span.enabled());
  EXPECT_EQ(span.id(), 0u);
  span.Close();  // must be a harmless no-op
}

TEST(TraceTest, NestedSpansLinkParentToChild) {
  TraceContext ctx;
  {
    ScopedSpan root(&ctx, "root");
    ASSERT_GT(root.id(), 0u);
    {
      ScopedSpan child(&ctx, "child", root.id());
      ScopedSpan grandchild(&ctx, "grandchild", child.id());
      (void)grandchild;
    }
  }
  std::vector<TraceSpan> spans = ctx.Spans();
  ASSERT_EQ(spans.size(), 3u);
  // Spans are appended on close: innermost first.
  EXPECT_EQ(spans[0].name, "grandchild");
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[2].name, "root");
  EXPECT_EQ(spans[0].parent_id, spans[1].id);
  EXPECT_EQ(spans[1].parent_id, spans[2].id);
  EXPECT_EQ(spans[2].parent_id, 0u);
  for (const TraceSpan& s : spans) {
    EXPECT_GE(s.end_micros, s.start_micros);
  }
  // Children start no earlier than the parent and end no later than the
  // parent closed.
  EXPECT_GE(spans[1].start_micros, spans[2].start_micros);
  EXPECT_LE(spans[1].end_micros, spans[2].end_micros);
}

TEST(TraceTest, ThreadHandoffPreservesTheTree) {
  TraceContext ctx;
  uint64_t parent_id = 0;
  {
    ScopedSpan parent(&ctx, "parent");
    parent_id = parent.id();
    // The handoff pattern: capture the parent's id by value into worker
    // closures; each worker opens its own span on its own thread.
    std::vector<std::thread> workers;
    for (int i = 0; i < 3; ++i) {
      workers.emplace_back([&ctx, parent_id] {
        ScopedSpan child(&ctx, "worker", parent_id);
        (void)child;
      });
    }
    for (auto& w : workers) w.join();
  }
  std::vector<TraceSpan> spans = ctx.Spans();
  ASSERT_EQ(spans.size(), 4u);
  const uint64_t main_hash = TraceContext::CurrentThreadHash();
  int workers_seen = 0;
  for (const TraceSpan& s : spans) {
    if (s.name != "worker") continue;
    ++workers_seen;
    EXPECT_EQ(s.parent_id, parent_id);
    EXPECT_NE(s.thread_hash, main_hash);
  }
  EXPECT_EQ(workers_seen, 3);
}

TEST(TraceTest, ToJsonSortsByStartAndEscapes) {
  TraceContext ctx;
  {
    ScopedSpan outer(&ctx, "outer \"quoted\"");
    ScopedSpan inner(&ctx, "inner", outer.id());
  }
  std::string json = ctx.ToJson();
  // Sorted by start time: the outer span leads even though it closed last.
  size_t outer_pos = json.find("outer \\\"quoted\\\"");
  size_t inner_pos = json.find("\"inner\"");
  ASSERT_NE(outer_pos, std::string::npos) << json;
  ASSERT_NE(inner_pos, std::string::npos) << json;
  EXPECT_LT(outer_pos, inner_pos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

// ---- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAreStableAndSingletons) {
  MetricsRegistry registry;
  MetricCounter* c1 = registry.Counter("sofos_test_total");
  MetricCounter* c2 = registry.Counter("sofos_test_total");
  EXPECT_EQ(c1, c2);
  c1->Add(3);
  c2->Add();
  EXPECT_EQ(c1->Value(), 4u);

  MetricGauge* g = registry.Gauge("sofos_test_depth");
  g->Set(2.5);
  g->Add(-0.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.0);

  LatencyHistogram* h = registry.Histogram("sofos_test_micros");
  EXPECT_EQ(h, registry.Histogram("sofos_test_micros"));
  h->Record(10.0);
  EXPECT_EQ(h->TakeSnapshot().count, 1u);
}

TEST(MetricsRegistryTest, CollectReturnsEveryInstrumentSorted) {
  MetricsRegistry registry;
  registry.Counter("sofos_b_total")->Add(7);
  registry.Gauge("sofos_a_gauge")->Set(1.0);
  registry.Histogram("sofos_c_micros")->Record(5.0);
  std::vector<MetricSample> samples = registry.Collect();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "sofos_a_gauge");
  EXPECT_EQ(samples[1].name, "sofos_b_total");
  EXPECT_EQ(samples[2].name, "sofos_c_micros");
  EXPECT_EQ(samples[1].counter_value, 7u);
  EXPECT_EQ(samples[2].kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(samples[2].histogram.count, 1u);
}

TEST(MetricsRegistryTest, CollectorsContributeUntilUnregistered) {
  MetricsRegistry registry;
  registry.Counter("sofos_owned_total")->Add(1);
  uint64_t id = registry.RegisterCollector([](std::vector<MetricSample>* out) {
    MetricSample s;
    s.name = "sofos_bridged_total{endpoint=\"query\"}";
    s.kind = MetricSample::Kind::kCounter;
    s.counter_value = 42;
    out->push_back(std::move(s));
  });
  std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("sofos_owned_total 1"), std::string::npos) << text;
  EXPECT_NE(text.find("sofos_bridged_total{endpoint=\"query\"} 42"),
            std::string::npos)
      << text;
  registry.UnregisterCollector(id);
  text = registry.PrometheusText();
  EXPECT_EQ(text.find("sofos_bridged_total"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, PrometheusTextExposesEveryKind) {
  MetricsRegistry registry;
  registry.Counter("sofos_reqs_total")->Add(2);
  registry.Gauge("sofos_depth")->Set(3.0);
  LatencyHistogram* h = registry.Histogram("sofos_lat_micros");
  for (int i = 0; i < 100; ++i) h->Record(100.0);
  std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE sofos_reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("sofos_reqs_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sofos_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sofos_lat_micros summary"), std::string::npos);
  EXPECT_NE(text.find("sofos_lat_micros{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("sofos_lat_micros_count 100"), std::string::npos);

  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"sofos_reqs_total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"sofos_lat_micros\""), std::string::npos) << json;
}

// ---- Result cache TTLs ----------------------------------------------------

TEST(ResultCacheTtlTest, EntriesExpireLazilyOnLookup) {
  double now = 0.0;
  ResultCacheOptions options;
  options.shards = 1;
  options.default_ttl_seconds = 10.0;
  options.clock_seconds = [&now] { return now; };
  ResultCache cache(options);

  cache.Insert("k", 1, "payload");
  std::string payload;
  EXPECT_TRUE(cache.Lookup("k", &payload));
  now = 9.9;  // still inside the window
  EXPECT_TRUE(cache.Lookup("k", &payload));
  now = 10.0;  // age == ttl: expired
  EXPECT_FALSE(cache.Lookup("k", &payload));
  auto stats = cache.Stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.ttl_expired, 1u);
  EXPECT_EQ(stats.entries, 0u);  // the expired entry was erased
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ResultCacheTtlTest, PerEntryTtlOverridesAndZeroNeverExpires) {
  double now = 0.0;
  ResultCacheOptions options;
  options.shards = 1;
  options.default_ttl_seconds = 5.0;
  options.clock_seconds = [&now] { return now; };
  ResultCache cache(options);

  const double kAdmit = 1e6;  // cost above any admission floor
  cache.Insert("short", 1, "a", kAdmit, 1.0);   // explicit 1s
  cache.Insert("inherit", 1, "b", kAdmit);      // -1: inherits 5s default
  cache.Insert("forever", 1, "c", kAdmit, 0.0); // 0: never expires
  std::string payload;
  now = 2.0;
  EXPECT_FALSE(cache.Lookup("short", &payload));
  EXPECT_TRUE(cache.Lookup("inherit", &payload));
  EXPECT_TRUE(cache.Lookup("forever", &payload));
  now = 1e9;
  EXPECT_FALSE(cache.Lookup("inherit", &payload));
  EXPECT_TRUE(cache.Lookup("forever", &payload));
  EXPECT_EQ(cache.Stats().ttl_expired, 2u);
}

TEST(ResultCacheTtlTest, ReinsertRefreshesTheWindow) {
  double now = 0.0;
  ResultCacheOptions options;
  options.shards = 1;
  options.default_ttl_seconds = 10.0;
  options.clock_seconds = [&now] { return now; };
  ResultCache cache(options);

  cache.Insert("k", 1, "v1");
  now = 8.0;
  cache.Insert("k", 1, "v2");  // refresh resets inserted_at
  now = 15.0;                  // 7s after the refresh, 15s after the first
  std::string payload;
  EXPECT_TRUE(cache.Lookup("k", &payload));
  EXPECT_EQ(payload, "v2");
}

TEST(ResultCacheTtlTest, AgeAtHitIsRecorded) {
  double now = 0.0;
  ResultCacheOptions options;
  options.shards = 1;
  options.clock_seconds = [&now] { return now; };
  ResultCache cache(options);

  cache.Insert("k", 1, "v");
  now = 2.0;  // hit at age 2s = 2e6 us
  std::string payload;
  ASSERT_TRUE(cache.Lookup("k", &payload));
  auto stats = cache.Stats();
  ASSERT_EQ(stats.age_at_hit.count, 1u);
  EXPECT_GE(stats.age_at_hit.P50(), 2e6);
  EXPECT_LE(stats.age_at_hit.P50(), 2e6 * 1.5);  // one bucket ratio
}

// ---- EXPLAIN ANALYZE consistency ------------------------------------------

class AnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spec = datagen::GenerateByName("geopop", datagen::Scale::kDemo, 42,
                                        &store_);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto facet = core::Facet::FromSparql(spec->facet_sparql, spec->name,
                                         spec->dim_labels);
    ASSERT_TRUE(facet.ok()) << facet.status().ToString();
    facet_ = std::move(facet).value();
    root_query_ = facet_.ViewQuerySparql(facet_.FullMask());
  }

  TripleStore store_;
  core::Facet facet_;
  std::string root_query_;
};

TEST_F(AnalyzeTest, OperatorActualsSumToExecTotals) {
  sparql::ExecOptions options;
  options.analyze = true;
  sparql::QueryEngine qe(&store_, options);

  // Micros: operator times are inclusive, so the root's time is the sum of
  // every operator's self time; it must account for >= 95% of the measured
  // exec wall time (the remainder is the driver's pull loop) and never
  // exceed it. The bound is a statement about an undisturbed run — when the
  // whole suite runs in parallel, scheduler preemption between query setup
  // and the root operator's first pull can inflate the wall side — so take
  // the best of a few attempts. The structural checks hold on every attempt.
  bool micros_bound_met = false;
  double best_ratio = 0.0;
  std::string last_text;
  double last_exec = 0.0;
  for (int attempt = 0; attempt < 5 && !micros_bound_met; ++attempt) {
    sparql::QueryResult result;
    auto text = qe.Analyze(root_query_, &result);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    ASSERT_FALSE(result.stats.operators.empty());

    // Rows: the root operator's output is exactly the query's output.
    const sparql::OperatorStats& root = result.stats.operators.back();
    EXPECT_EQ(root.rows_out, result.stats.output_rows);
    EXPECT_EQ(result.stats.output_rows, result.NumRows());
    EXPECT_LE(root.micros, result.stats.exec_micros * 1.001);

    // The rendering carries the per-operator actuals and the totals line.
    EXPECT_NE(text->find("(actual rows="), std::string::npos);
    EXPECT_NE(text->find("TOTALS output_rows="), std::string::npos);

    double ratio = root.micros / result.stats.exec_micros;
    best_ratio = std::max(best_ratio, ratio);
    micros_bound_met = ratio >= 0.95;
    last_text = *text;
    last_exec = result.stats.exec_micros;
  }
  EXPECT_TRUE(micros_bound_met)
      << "best root/exec ratio over 5 attempts: " << best_ratio << "\n"
      << last_text << "\nexec=" << last_exec;
}

/// Reduces an ANALYZE rendering to its shape: operator labels, estimates
/// and row counts — everything that must be invariant across shard counts
/// (timings and batch counts are not).
std::vector<std::string> AnalyzeShape(const std::string& text,
                                      const std::vector<sparql::OperatorStats>& ops) {
  std::vector<std::string> shape;
  for (const auto& op : ops) {
    shape.push_back(op.label + " est=" + std::to_string(op.est_rows) +
                    " rows=" + std::to_string(op.rows_out));
  }
  // Plus the totals' row figures from the rendering.
  size_t totals = text.find("TOTALS ");
  if (totals != std::string::npos) {
    size_t plan = text.find(" plan=", totals);
    shape.push_back(text.substr(totals, plan - totals));
  }
  return shape;
}

TEST_F(AnalyzeTest, ShapeIsInvariantAcrossShards) {
  auto run = [this](TripleStore* store) {
    sparql::ExecOptions options;
    options.analyze = true;
    sparql::QueryEngine qe(store, options);
    sparql::QueryResult result;
    auto text = qe.Analyze(root_query_, &result);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return AnalyzeShape(text.ok() ? *text : "", result.stats.operators);
  };

  std::vector<std::string> reference = run(&store_);
  ASSERT_FALSE(reference.empty());

  // A re-sharded copy of the same data must produce the identical shape.
  TripleStore sharded;
  sharded.SetShardCount(8);
  auto spec = datagen::GenerateByName("geopop", datagen::Scale::kDemo, 42,
                                      &sharded);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(run(&sharded), reference);
}

// ---- Engine registry + server verbs ---------------------------------------

class ObservabilityEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TripleStore store;
    auto spec = datagen::GenerateByName("geopop", datagen::Scale::kTiny, 42,
                                        &store);
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

TEST_F(ObservabilityEngineTest, EnginePhasesAndViewHitsReachTheRegistry) {
  MetricsRegistry* registry = engine_.metrics();
  // Mutations already refreshed the state gauges during SetUp.
  auto gauge = [&](const char* name) { return registry->Gauge(name)->Value(); };
  EXPECT_GT(gauge("sofos_engine_epoch"), 0.0);
  EXPECT_EQ(gauge("sofos_engine_materialized_views"), 2.0);
  EXPECT_GT(gauge("sofos_engine_base_triples"), 0.0);
  EXPECT_GE(gauge("sofos_engine_current_triples"),
            gauge("sofos_engine_base_triples"));
  EXPECT_GE(gauge("sofos_engine_storage_amplification"), 1.0);

  // A routed query ticks the phase histograms (rewrite included), the
  // query counter, and the per-view labeled hit and benefit counters —
  // through the engine's own entry point, then through a published
  // snapshot (the server's path).
  const core::Facet& facet = engine_.facet();
  const core::LatticeProfile& profile = *engine_.profile();
  const uint64_t root_rows = profile.views[facet.FullMask()].result_rows;
  std::optional<uint32_t> mask;
  for (uint32_t m : engine_.MaterializedMasks()) {
    if (profile.views[m].result_rows < root_rows) mask = m;
  }
  ASSERT_TRUE(mask.has_value()) << "no materialized view below the root";
  std::string sparql = facet.CanonicalQuerySparql(*mask);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto outcome, engine_.AnswerSparql(sparql, true));
  ASSERT_TRUE(outcome.used_view);
  const uint64_t benefit_per_hit =
      root_rows - profile.views[outcome.view_mask].result_rows;
  ASSERT_GT(benefit_per_hit, 0u);

  const std::string label = facet.MaskLabel(outcome.view_mask);
  const std::string labeled = "sofos_view_hits_total{view=\"" + label + "\"}";
  const std::string benefit =
      "sofos_view_benefit_rows_total{view=\"" + label + "\"}";
  auto expect_counts = [&](uint64_t n, const char* path) {
    SCOPED_TRACE(path);
    EXPECT_EQ(registry->Counter("sofos_engine_queries_total")->Value(), n);
    EXPECT_EQ(registry->Counter("sofos_engine_view_hits_total")->Value(), n);
    EXPECT_EQ(registry->Counter(labeled)->Value(), n);
    EXPECT_EQ(registry->Counter(benefit)->Value(), n * benefit_per_hit);
    for (const char* phase :
         {"sofos_engine_parse_micros", "sofos_engine_route_micros",
          "sofos_engine_rewrite_micros", "sofos_engine_exec_micros"}) {
      EXPECT_EQ(registry->Histogram(phase)->TakeSnapshot().count, n) << phase;
    }
  };
  expect_counts(1, "SofosEngine::AnswerSparql");

  SOFOS_ASSERT_OK_AND_ASSIGN(auto snapshot, engine_.PublishSnapshot());
  SOFOS_ASSERT_OK_AND_ASSIGN(auto served, snapshot->Answer(sparql, true));
  ASSERT_TRUE(served.used_view);
  ASSERT_EQ(served.view_mask, outcome.view_mask);
  expect_counts(2, "EngineSnapshot::Answer");

  // The labeled counter round-trips through the Prometheus exposition.
  std::string text = registry->PrometheusText();
  EXPECT_NE(text.find(labeled + " 2"), std::string::npos) << text;
}

TEST_F(ObservabilityEngineTest, SnapshotTracingProducesPhaseSpans) {
  SOFOS_ASSERT_OK_AND_ASSIGN(auto snap, engine_.PublishSnapshot());
  std::string sparql = engine_.facet().CanonicalQuerySparql(0);
  TraceContext trace;
  SOFOS_ASSERT_OK(snap->Answer(sparql, true, &trace).status());
  std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_GE(spans.size(), 3u);
  uint64_t answer_id = 0;
  bool saw_parse = false, saw_exec = false;
  for (const TraceSpan& s : spans) {
    if (s.name == "snapshot.answer") answer_id = s.id;
  }
  ASSERT_GT(answer_id, 0u);
  for (const TraceSpan& s : spans) {
    if (s.name == "engine.parse") {
      saw_parse = true;
      EXPECT_EQ(s.parent_id, answer_id);
    }
    if (s.name == "engine.exec") {
      saw_exec = true;
      EXPECT_EQ(s.parent_id, answer_id);
    }
  }
  EXPECT_TRUE(saw_parse);
  EXPECT_TRUE(saw_exec);
  // Untraced answers on the same snapshot still work (null context).
  SOFOS_ASSERT_OK(snap->Answer(sparql, true).status());
}

class ObservabilityServerTest : public ObservabilityEngineTest {};

TEST_F(ObservabilityServerTest, AnalyzeTraceAndMetricsVerbs) {
  ServerOptions options;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));

  // Warm the endpoints so METRICS has figures for each counter family.
  std::string sparql = engine_.facet().CanonicalQuerySparql(1);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto q1, client.Roundtrip("QUERY " + sparql));
  ASSERT_TRUE(q1.ok()) << q1.header;
  SOFOS_ASSERT_OK_AND_ASSIGN(auto q2, client.Roundtrip("QUERY " + sparql));
  ASSERT_TRUE(q2.ok()) << q2.header;  // cache hit
  SOFOS_ASSERT_OK_AND_ASSIGN(auto upd, client.Roundtrip("UPDATE 1 0.05"));
  ASSERT_TRUE(upd.ok()) << upd.header;

  // ANALYZE: defaults to the root view and returns the annotated plan.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto analyze, client.Roundtrip("ANALYZE"));
  ASSERT_TRUE(analyze.ok()) << analyze.header;
  std::string analyze_body = analyze.BodyText();
  EXPECT_NE(analyze_body.find("(actual rows="), std::string::npos);
  EXPECT_NE(analyze_body.find("TOTALS output_rows="), std::string::npos);

  // ANALYZE of a query a materialized view answers reports the routing
  // decision the real QUERY path would take.
  std::vector<uint32_t> masks = engine_.MaterializedMasks();
  ASSERT_FALSE(masks.empty());
  std::string routed_sparql = engine_.facet().CanonicalQuerySparql(masks[0]);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto analyze2,
                             client.Roundtrip("ANALYZE " + routed_sparql));
  ASSERT_TRUE(analyze2.ok()) << analyze2.header;
  std::string analyze2_body = analyze2.BodyText();
  EXPECT_NE(analyze2_body.find("ROUTED view="), std::string::npos)
      << analyze2_body;
  EXPECT_NE(analyze2_body.find("TOTALS"), std::string::npos);

  // TRACE: executes and returns the span dump; the argument is required.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto trace, client.Roundtrip("TRACE " + sparql));
  ASSERT_TRUE(trace.ok()) << trace.header;
  EXPECT_NE(trace.header.find("spans="), std::string::npos);
  std::string trace_body = trace.BodyText();
  EXPECT_EQ(trace_body.rfind("[", 0), 0u) << trace_body;
  EXPECT_NE(trace_body.find("\"snapshot.answer\""), std::string::npos)
      << trace_body;
  SOFOS_ASSERT_OK_AND_ASSIGN(auto bare, client.Roundtrip("TRACE"));
  EXPECT_FALSE(bare.ok());

  // METRICS: the whole registry in Prometheus text — engine phases, server
  // endpoints, cache counters, publish latency, maintenance counters.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto metrics, client.Roundtrip("METRICS"));
  ASSERT_TRUE(metrics.ok()) << metrics.header;
  std::string body = metrics.BodyText();
  for (const char* name : {
           "sofos_engine_queries_total",
           "sofos_engine_parse_micros",
           "sofos_engine_exec_micros",
           "sofos_engine_maintain_micros",
           "sofos_engine_publish_micros",
           "sofos_engine_updates_total",
           "sofos_engine_epoch",
           "sofos_engine_staleness_drift",
           "sofos_server_requests_total{endpoint=\"query\"}",
           "sofos_server_requests_total{endpoint=\"update\"}",
           "sofos_server_request_micros{endpoint=\"query\"",
           "sofos_server_accepted_total",
           "sofos_server_cache_hits_total",
           "sofos_cache_hits_total",
           "sofos_cache_misses_total",
           "sofos_cache_ttl_expired_total",
           "sofos_cache_age_at_hit_micros",
       }) {
    EXPECT_NE(body.find(name), std::string::npos) << "missing " << name;
  }

  // STATS carries the registry snapshot alongside the legacy figures.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto stats, client.Roundtrip("STATS"));
  ASSERT_TRUE(stats.ok()) << stats.header;
  EXPECT_NE(stats.body[0].find("\"registry\""), std::string::npos);
  EXPECT_NE(stats.body[0].find("cache_ttl_expired"), std::string::npos);

  server.Stop();
}

}  // namespace
}  // namespace sofos
