/// Online serving subsystem tests: the shared latency histogram, the
/// protocol codec, the sharded LRU result cache (eviction, epoch
/// invalidation, concurrency), the engine's epoch-snapshot handle, and a
/// loopback integration suite — concurrent sessions issuing interleaved
/// QUERY and UPDATE traffic whose responses must be byte-identical to
/// direct EngineSnapshot::Answer calls at the matching epoch. The whole
/// file runs under the TSan lane (scripts/run_tsan.sh, label `server`).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_histogram.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/facet.h"
#include "datagen/registry.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace sofos {
namespace {

using server::BlockingClient;
using server::ClientResponse;
using server::NormalizeQueryText;
using server::ParseRequest;
using server::ResultCache;
using server::ResultCacheOptions;
using server::ServerOptions;
using server::SofosServer;
using server::Verb;

// ---- LatencyHistogram -----------------------------------------------------

TEST(LatencyHistogramTest, EmptyAndSingleSample) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.TakeSnapshot().P50(), 0.0);
  hist.Record(100.0);
  auto snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, 1u);
  // The estimate is the upper bound of the sample's bucket: within one
  // bucket ratio (1.5x) above the true value.
  EXPECT_GE(snap.P50(), 100.0);
  EXPECT_LE(snap.P50(), 150.0);
  EXPECT_EQ(snap.P50(), snap.P99());
}

TEST(LatencyHistogramTest, PercentilesOrderAndBounds) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  auto snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_LE(snap.P50(), snap.P95());
  EXPECT_LE(snap.P95(), snap.P99());
  // True p50 = 500, p95 = 950, p99 = 990; upper-bound estimates stay
  // within one bucket ratio.
  EXPECT_GE(snap.P50(), 500.0);
  EXPECT_LE(snap.P50(), 500.0 * 1.5);
  EXPECT_GE(snap.P99(), 990.0);
  EXPECT_LE(snap.P99(), 990.0 * 1.5);
  EXPECT_NEAR(snap.MeanMicros(), 500.5, 1.0);
}

TEST(LatencyHistogramTest, MergeAndConcurrentRecord) {
  LatencyHistogram hist;
  constexpr int kThreads = 4, kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<double>(t * 100 + i % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  auto snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kPerThread));

  LatencyHistogram::Snapshot merged;
  merged.Merge(snap);
  merged.Merge(snap);
  EXPECT_EQ(merged.count, 2 * snap.count);
  EXPECT_EQ(merged.P95(), snap.P95());
}

// ---- Protocol -------------------------------------------------------------

TEST(ProtocolTest, ParseRequests) {
  auto query = ParseRequest("QUERY SELECT ?x WHERE { ?x ?p ?o }");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->verb, Verb::kQuery);
  EXPECT_EQ(query->arg, "SELECT ?x WHERE { ?x ?p ?o }");

  auto update = ParseRequest("  UPDATE 2 0.05  ");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->verb, Verb::kUpdate);
  EXPECT_EQ(update->arg, "2 0.05");

  auto stats = ParseRequest("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->verb, Verb::kStats);
  EXPECT_TRUE(stats->arg.empty());

  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("  ").ok());
  EXPECT_FALSE(ParseRequest("FETCH x").ok());
  EXPECT_FALSE(ParseRequest("query lowercase").ok());
}

TEST(ProtocolTest, NormalizeQueryText) {
  EXPECT_EQ(NormalizeQueryText("  SELECT   ?x\nWHERE\t{ ?x ?p ?o }  "),
            "SELECT ?x WHERE { ?x ?p ?o }");
  EXPECT_EQ(NormalizeQueryText("a b"), NormalizeQueryText("a\n\n   b"));
  EXPECT_NE(NormalizeQueryText("a b"), NormalizeQueryText("a c"));
}

TEST(ProtocolTest, NormalizePreservesStringLiterals) {
  // Whitespace inside literals is significant: FILTER(?x = "a b") and
  // FILTER(?x = "a  b") are different queries and must not share a key.
  EXPECT_NE(NormalizeQueryText("FILTER(?x = \"a b\")"),
            NormalizeQueryText("FILTER(?x = \"a  b\")"));
  EXPECT_NE(NormalizeQueryText("FILTER(?x = 'a\tb')"),
            NormalizeQueryText("FILTER(?x = 'a b')"));
  // ...while whitespace around literals still collapses.
  EXPECT_EQ(NormalizeQueryText("FILTER( ?x  =  \"a  b\" )"),
            "FILTER( ?x = \"a  b\" )");
  // Escaped quotes do not terminate the literal early.
  EXPECT_EQ(NormalizeQueryText("\"a\\\"  b\"   c"), "\"a\\\"  b\" c");
  // An unterminated literal copies the tail verbatim instead of crashing.
  EXPECT_EQ(NormalizeQueryText("x  \"unterminated   "), "x \"unterminated   ");
}

TEST(ProtocolTest, CacheKeySeparatesEpochAndFlags) {
  std::string q = "SELECT ?x WHERE { ?x ?p ?o }";
  EXPECT_NE(ResultCache::MakeKey(q, 1, true), ResultCache::MakeKey(q, 2, true));
  EXPECT_NE(ResultCache::MakeKey(q, 1, true), ResultCache::MakeKey(q, 1, false));
  EXPECT_EQ(ResultCache::MakeKey(q, 3, true), ResultCache::MakeKey(q, 3, true));
}

// ---- ResultCache ----------------------------------------------------------

TEST(ResultCacheTest, HitMissAndLruEviction) {
  ResultCacheOptions options;
  options.shards = 1;  // single shard: deterministic LRU order
  options.capacity_bytes = 100;
  ResultCache cache(options);

  std::string payload;
  EXPECT_FALSE(cache.Lookup("a", &payload));
  cache.Insert("a", 1, std::string(40, 'A'));
  cache.Insert("b", 1, std::string(40, 'B'));
  EXPECT_TRUE(cache.Lookup("a", &payload));
  EXPECT_EQ(payload, std::string(40, 'A'));

  // 40+40+40 > 100: evicts the least-recently-used entry, which is "b"
  // ("a" was just touched).
  cache.Insert("c", 1, std::string(40, 'C'));
  EXPECT_TRUE(cache.Lookup("a", &payload));
  EXPECT_TRUE(cache.Lookup("c", &payload));
  EXPECT_FALSE(cache.Lookup("b", &payload));

  auto stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 80u);

  // Oversized payloads are refused outright, not cached-then-evicted.
  cache.Insert("huge", 1, std::string(200, 'H'));
  EXPECT_FALSE(cache.Lookup("huge", &payload));
}

TEST(ResultCacheTest, CostAwareAdmission) {
  ResultCacheOptions options;
  options.shards = 1;
  options.capacity_bytes = 1 << 20;
  options.min_cost_micros = 100.0;
  ResultCache cache(options);
  std::string payload;

  // Cheap answers are refused outright — recomputing a point lookup is
  // cheaper than letting it evict an expensive analytical result...
  cache.Insert("cheap", 1, "point-lookup", /*cost_micros=*/5.0);
  EXPECT_FALSE(cache.Lookup("cheap", &payload));
  // ...while expensive and unknown-cost answers are admitted.
  cache.Insert("expensive", 1, "analytical", /*cost_micros=*/250.0);
  EXPECT_TRUE(cache.Lookup("expensive", &payload));
  cache.Insert("unknown", 1, "no-cost-given");
  EXPECT_TRUE(cache.Lookup("unknown", &payload));

  auto stats = cache.Stats();
  EXPECT_EQ(stats.admission_rejects, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.entries, 2u);

  // The default floor of 0 admits everything (historical behavior).
  ResultCache open_cache(ResultCacheOptions{});
  open_cache.Insert("tiny", 1, "x", /*cost_micros=*/0.0);
  EXPECT_TRUE(open_cache.Lookup("tiny", &payload));
  EXPECT_EQ(open_cache.Stats().admission_rejects, 0u);
}

TEST(ResultCacheTest, EpochInvalidation) {
  ResultCache cache;
  std::string q = "SELECT ?x WHERE { ?x ?p ?o }";
  cache.Insert(ResultCache::MakeKey(q, 1, true), 1, "epoch1-answer");
  cache.Insert(ResultCache::MakeKey(q, 2, true), 2, "epoch2-answer");

  // Keys embed the epoch: a bumped epoch can never hit an old entry.
  std::string payload;
  EXPECT_TRUE(cache.Lookup(ResultCache::MakeKey(q, 1, true), &payload));
  EXPECT_EQ(payload, "epoch1-answer");
  EXPECT_FALSE(cache.Lookup(ResultCache::MakeKey(q, 3, true), &payload));

  // Eager invalidation drops everything below the live epoch.
  cache.EvictObsolete(2);
  EXPECT_FALSE(cache.Lookup(ResultCache::MakeKey(q, 1, true), &payload));
  EXPECT_TRUE(cache.Lookup(ResultCache::MakeKey(q, 2, true), &payload));
  auto stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, CarryForwardKeepsUntouchedViewAnswers) {
  ResultCache cache;
  std::string q1 = "SELECT ?a WHERE { ?a ?p 1 }";
  std::string q2 = "SELECT ?b WHERE { ?b ?p 2 }";
  std::string q3 = "SELECT ?c WHERE { ?c ?p 3 }";
  const double inf = std::numeric_limits<double>::infinity();
  // Routed answers carry their view label; base answers carry "".
  cache.Insert(ResultCache::MakeKey(q1, 1, true), 1, "view3-answer", inf,
               -1.0, "3");
  cache.Insert(ResultCache::MakeKey(q2, 1, true), 1, "view5-answer", inf,
               -1.0, "5");
  cache.Insert(ResultCache::MakeKey(q3, 1, true), 1, "base-answer", inf,
               -1.0, "");

  // The update touched view 5 but not view 3: only view 3's answer is
  // still provably exact and survives the epoch bump.
  EXPECT_EQ(cache.CarryForward(1, 2, {"3"}), 1u);
  cache.EvictObsolete(2);

  std::string payload;
  EXPECT_TRUE(cache.Lookup(ResultCache::MakeKey(q1, 2, true), &payload));
  EXPECT_EQ(payload, "view3-answer");
  EXPECT_FALSE(cache.Lookup(ResultCache::MakeKey(q1, 1, true), &payload));
  EXPECT_FALSE(cache.Lookup(ResultCache::MakeKey(q2, 2, true), &payload));
  EXPECT_FALSE(cache.Lookup(ResultCache::MakeKey(q3, 2, true), &payload));

  auto stats = cache.Stats();
  EXPECT_EQ(stats.carried_forward, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // A fresher answer at the new epoch wins over a carried one.
  cache.Insert(ResultCache::MakeKey(q1, 2, true), 2, "recomputed", inf, -1.0,
               "3");
  EXPECT_TRUE(cache.Lookup(ResultCache::MakeKey(q1, 2, true), &payload));
  EXPECT_EQ(payload, "recomputed");

  // No qualifying views or a non-advancing epoch carries nothing.
  EXPECT_EQ(cache.CarryForward(2, 3, {}), 0u);
  EXPECT_EQ(cache.CarryForward(2, 2, {"3"}), 0u);
}

TEST(ResultCacheTest, ConcurrentHitMissUnderPool) {
  ResultCache cache;
  ThreadPool pool(4);
  constexpr int kTasks = 16, kOpsPerTask = 500;
  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < kTasks; ++t) {
    futures.push_back(pool.Submit([&cache, &observed_hits, t] {
      for (int i = 0; i < kOpsPerTask; ++i) {
        std::string key = "key-" + std::to_string(i % 50);
        std::string payload;
        if (cache.Lookup(key, &payload)) {
          // A hit must always return a fully formed payload for its key.
          EXPECT_EQ(payload, "payload-for-" + key);
          observed_hits.fetch_add(1);
        } else {
          cache.Insert(key, 7, "payload-for-" + key);
        }
      }
      (void)t;
    }));
  }
  for (auto& f : futures) f.get();

  auto stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kTasks * kOpsPerTask));
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 50u);
}

// ---- Engine epoch snapshots ----------------------------------------------

class SnapshotTest : public ::testing::Test {
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

  core::maintenance::GraphDelta MakeDelta(uint64_t seed) {
    workload::UpdateStreamOptions options;
    options.num_batches = 1;
    options.batch_fraction = 0.02;
    options.seed = seed;
    auto stream = workload::GenerateUpdateStream(
        engine_.base_snapshot(), engine_.store()->dictionary(), options);
    EXPECT_TRUE(stream.ok());
    return (*stream)[0];
  }

  core::SofosEngine engine_;
};

TEST_F(SnapshotTest, EpochBumpsOnMutations) {
  uint64_t e0 = engine_.epoch();
  EXPECT_GT(e0, 0u);  // LoadStore/SetFacet/Profile/Materialize all bumped

  SOFOS_ASSERT_OK(engine_.ApplyUpdates(MakeDelta(7)).status());
  EXPECT_GT(engine_.epoch(), e0);

  uint64_t e1 = engine_.epoch();
  SOFOS_ASSERT_OK(engine_.DropMaterializedViews());
  EXPECT_GT(engine_.epoch(), e1);
}

TEST_F(SnapshotTest, PublishIsIdempotentPerEpoch) {
  EXPECT_EQ(engine_.CurrentSnapshot(), nullptr);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto snap1, engine_.PublishSnapshot());
  SOFOS_ASSERT_OK_AND_ASSIGN(auto snap2, engine_.PublishSnapshot());
  EXPECT_EQ(snap1.get(), snap2.get());  // same epoch: no rebuild
  EXPECT_EQ(engine_.CurrentSnapshot().get(), snap1.get());

  SOFOS_ASSERT_OK(engine_.ApplyUpdates(MakeDelta(8)).status());
  SOFOS_ASSERT_OK_AND_ASSIGN(auto snap3, engine_.PublishSnapshot());
  EXPECT_NE(snap3.get(), snap1.get());
  EXPECT_GT(snap3->epoch(), snap1->epoch());
}

TEST_F(SnapshotTest, PublishLatencyIsRecordedPerBuild) {
  EXPECT_EQ(engine_.publish_latency().count, 0u);
  SOFOS_ASSERT_OK(engine_.PublishSnapshot().status());
  EXPECT_EQ(engine_.publish_latency().count, 1u);
  SOFOS_ASSERT_OK(engine_.PublishSnapshot().status());  // epoch no-op
  EXPECT_EQ(engine_.publish_latency().count, 1u);
  SOFOS_ASSERT_OK(engine_.ApplyUpdates(MakeDelta(12)).status());
  SOFOS_ASSERT_OK(engine_.PublishSnapshot().status());
  EXPECT_EQ(engine_.publish_latency().count, 2u);

  // The offline workload report carries the same histogram shape, so the
  // snapshot cost is observable next to query latencies.
  workload::WorkloadGenerator generator(&engine_.facet(), engine_.store());
  workload::WorkloadOptions options;
  options.num_queries = 2;
  options.seed = 3;
  SOFOS_ASSERT_OK_AND_ASSIGN(auto queries, generator.Generate(options));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto report, engine_.RunWorkload(queries, true));
  EXPECT_EQ(report.publish.count, 2u);
  EXPECT_NE(report.Summary().find("publish["), std::string::npos);
}

TEST_F(SnapshotTest, SnapshotAnswersMatchEngineAndSurviveUpdates) {
  workload::WorkloadGenerator generator(&engine_.facet(), engine_.store());
  workload::WorkloadOptions options;
  options.num_queries = 6;
  options.seed = 11;
  SOFOS_ASSERT_OK_AND_ASSIGN(auto queries, generator.Generate(options));

  SOFOS_ASSERT_OK_AND_ASSIGN(auto snap, engine_.PublishSnapshot());
  std::vector<std::string> before;
  for (const auto& q : queries) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto engine_outcome,
                               engine_.AnswerSparql(q.sparql, true));
    SOFOS_ASSERT_OK_AND_ASSIGN(auto snap_outcome, snap->Answer(q.sparql, true));
    EXPECT_EQ(engine_outcome.used_view, snap_outcome.used_view);
    std::string body = server::FormatQueryBody(snap_outcome.result);
    EXPECT_EQ(server::FormatQueryBody(engine_outcome.result), body);
    before.push_back(std::move(body));
  }

  // Mutate the engine: the old snapshot must keep answering exactly as it
  // did pre-update (epoch isolation), byte for byte.
  SOFOS_ASSERT_OK(engine_.ApplyUpdates(MakeDelta(9)).status());
  for (size_t i = 0; i < queries.size(); ++i) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto again, snap->Answer(queries[i].sparql, true));
    EXPECT_EQ(server::FormatQueryBody(again.result), before[i]) << queries[i].sparql;
  }
}

// ---- Loopback server ------------------------------------------------------

class ServerTest : public SnapshotTest {};

TEST_F(ServerTest, SingleSessionBasics) {
  ServerOptions options;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  ASSERT_GT(server.port(), 0);

  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));

  // STATS before any traffic: valid JSON-ish single line.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto stats, client.Roundtrip("STATS"));
  EXPECT_TRUE(stats.ok()) << stats.header;
  ASSERT_EQ(stats.body.size(), 1u);
  EXPECT_NE(stats.body[0].find("\"endpoints\""), std::string::npos);
  EXPECT_NE(stats.body[0].find("\"cache\""), std::string::npos);
  // Snapshot-publication latency and admission accounting are part of the
  // online observability surface.
  EXPECT_NE(stats.body[0].find("\"publish\""), std::string::npos);
  EXPECT_NE(stats.body[0].find("\"cache_admission_rejects\""),
            std::string::npos);

  // QUERY twice: second one is a cache hit with the identical body.
  std::string sparql = engine_.facet().CanonicalQuerySparql(1);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto first, client.Roundtrip("QUERY " + sparql));
  ASSERT_TRUE(first.ok()) << first.header;
  EXPECT_NE(first.header.find("cached=0"), std::string::npos);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto second, client.Roundtrip("QUERY " + sparql));
  ASSERT_TRUE(second.ok()) << second.header;
  EXPECT_NE(second.header.find("cached=1"), std::string::npos);
  EXPECT_EQ(first.BodyText(), second.BodyText());
  EXPECT_EQ(server.metrics().cache_hits(), 1u);

  // EXPLAIN defaults to the root view query.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto explain, client.Roundtrip("EXPLAIN"));
  EXPECT_TRUE(explain.ok()) << explain.header;
  EXPECT_FALSE(explain.body.empty());

  // Unknown verbs produce ERR without killing the session.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto bad, client.Roundtrip("NOPE"));
  EXPECT_FALSE(bad.ok());
  SOFOS_ASSERT_OK_AND_ASSIGN(auto parse_err, client.Roundtrip("QUERY not sparql"));
  EXPECT_FALSE(parse_err.ok());

  SOFOS_ASSERT_OK_AND_ASSIGN(auto bye, client.Roundtrip("QUIT"));
  EXPECT_TRUE(bye.ok());
  server.Stop();
}

TEST_F(ServerTest, UpdateBumpsEpochAndInvalidatesCache) {
  ServerOptions options;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());
  BlockingClient client;
  SOFOS_ASSERT_OK(client.Connect(server.port()));

  std::string request = "QUERY " + engine_.facet().CanonicalQuerySparql(0);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto before, client.Roundtrip(request));
  ASSERT_TRUE(before.ok()) << before.header;

  SOFOS_ASSERT_OK_AND_ASSIGN(auto update, client.Roundtrip("UPDATE 1 0.05"));
  ASSERT_TRUE(update.ok()) << update.header;
  EXPECT_EQ(server.update_batches_applied(), 1u);

  // The cached epoch died with the update; the re-query is a fresh miss
  // on the new epoch.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto after, client.Roundtrip(request));
  ASSERT_TRUE(after.ok()) << after.header;
  EXPECT_NE(after.header.find("cached=0"), std::string::npos);
  EXPECT_EQ(server.CacheStats().invalidations, 1u);

  // Bad argument ranges and malformed arguments are command errors, not
  // session killers — and crucially not silent fall-backs to defaults
  // (a typo must never mutate the graph).
  SOFOS_ASSERT_OK_AND_ASSIGN(auto bad, client.Roundtrip("UPDATE 0 9"));
  EXPECT_FALSE(bad.ok());
  for (const char* malformed :
       {"UPDATE abc", "UPDATE 2x", "UPDATE 1 0.5oops", "UPDATE 1 0.5 extra"}) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto response, client.Roundtrip(malformed));
    EXPECT_FALSE(response.ok()) << malformed << " -> " << response.header;
  }
  EXPECT_EQ(server.update_batches_applied(), 1u);  // none of those applied
  server.Stop();
}

TEST_F(ServerTest, SaturationRejectsWithRetryHint) {
  ServerOptions options;
  // Admission happens per *request*, so only the open-connection cap
  // rejects at accept time: with room for one connection, the second is
  // answered BUSY and closed.
  options.max_connections = 1;
  options.busy_retry_ms = 77;
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  BlockingClient first;
  SOFOS_ASSERT_OK(first.Connect(server.port()));
  // Roundtrip proves the connection is accepted and being served.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto stats, first.Roundtrip("STATS"));
  ASSERT_TRUE(stats.ok());

  BlockingClient second;
  SOFOS_ASSERT_OK(second.Connect(server.port()));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto busy, second.Roundtrip("STATS"));
  EXPECT_TRUE(busy.busy()) << busy.header;
  // The hint is load-derived but floored at busy_retry_ms; with no
  // request in flight it is exactly the floor, though a slow run (TSan)
  // may push the queue-model estimate above it.
  size_t hint_at = busy.header.find("retry_ms=");
  ASSERT_NE(hint_at, std::string::npos) << busy.header;
  EXPECT_GE(std::atoi(busy.header.c_str() + hint_at + 9), 77) << busy.header;
  EXPECT_GE(server.metrics().rejected(), 1u);
  // The rejected connection was closed after the BUSY line.
  EXPECT_FALSE(second.Roundtrip("STATS").ok());

  // Once the first connection leaves, capacity frees up.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto bye, first.Roundtrip("QUIT"));
  ASSERT_TRUE(bye.ok());
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    BlockingClient third;
    SOFOS_ASSERT_OK(third.Connect(server.port()));
    auto response = third.Roundtrip("STATS");
    served = response.ok() && response->ok();
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(served);
  server.Stop();
}

/// The acceptance-criteria scenario: >= 4 concurrent sessions issuing
/// interleaved QUERY and UPDATE traffic; every QUERY response must be
/// byte-identical to a direct EngineSnapshot::Answer on the epoch the
/// response reports.
TEST_F(ServerTest, ConcurrentMixedTrafficMatchesSnapshotsByteExactly) {
  workload::WorkloadGenerator generator(&engine_.facet(), engine_.store());
  workload::WorkloadOptions wopts;
  wopts.num_queries = 8;
  wopts.seed = 23;
  SOFOS_ASSERT_OK_AND_ASSIGN(auto queries, generator.Generate(wopts));

  ServerOptions options;
  options.max_sessions = 6;
  options.retain_snapshots = true;  // keep every epoch for the re-check
  SofosServer server(&engine_, options);
  SOFOS_ASSERT_OK(server.Start());

  struct Observation {
    std::string sparql;
    uint64_t epoch = 0;
    std::string body;
  };
  constexpr int kQueryThreads = 4, kRequestsPerThread = 24;
  std::vector<std::vector<Observation>> observations(kQueryThreads + 1);
  std::vector<std::string> failures(kQueryThreads);

  // One observed query from the main thread, synchronously before any
  // update and again after all of them, pins both the first and the last
  // epoch — the concurrent interleave below then only has to fill the
  // middle.
  auto observe_now = [&](const std::string& sparql) {
    BlockingClient probe;
    SOFOS_ASSERT_OK(probe.Connect(server.port()));
    SOFOS_ASSERT_OK_AND_ASSIGN(auto response,
                               probe.Roundtrip("QUERY " + sparql));
    ASSERT_TRUE(response.ok()) << response.header;
    size_t pos = response.header.find("epoch=");
    ASSERT_NE(pos, std::string::npos);
    Observation obs;
    obs.sparql = sparql;
    obs.epoch = std::strtoull(response.header.c_str() + pos + 6, nullptr, 10);
    obs.body = response.BodyText();
    observations[kQueryThreads].push_back(std::move(obs));
    probe.Roundtrip("QUIT");
  };
  observe_now(queries[0].sparql);

  std::vector<std::thread> clients;
  for (int t = 0; t < kQueryThreads; ++t) {
    clients.emplace_back([&, t] {
      BlockingClient client;
      Status status = client.Connect(server.port());
      if (!status.ok()) {
        failures[t] = status.ToString();
        return;
      }
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string& sparql = queries[(t + i) % queries.size()].sparql;
        auto response = client.Roundtrip("QUERY " + sparql);
        if (!response.ok()) {
          failures[t] = response.status().ToString();
          return;
        }
        if (!response->ok()) {
          failures[t] = response->header;
          return;
        }
        // Header: OK QUERY rows=.. cols=.. epoch=<e> cached=..
        size_t pos = response->header.find("epoch=");
        if (pos == std::string::npos) {
          failures[t] = "no epoch in: " + response->header;
          return;
        }
        Observation obs;
        obs.sparql = sparql;
        obs.epoch = std::strtoull(response->header.c_str() + pos + 6, nullptr, 10);
        obs.body = response->BodyText();
        observations[t].push_back(std::move(obs));
      }
      client.Roundtrip("QUIT");
    });
  }
  // One updater interleaves epoch bumps with the query traffic.
  std::string update_failure;
  std::thread updater([&] {
    BlockingClient client;
    Status status = client.Connect(server.port());
    if (!status.ok()) {
      update_failure = status.ToString();
      return;
    }
    for (int i = 0; i < 5; ++i) {
      auto response = client.Roundtrip("UPDATE 1 0.02");
      if (!response.ok() || !response->ok()) {
        update_failure = response.ok() ? response->header
                                       : response.status().ToString();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    client.Roundtrip("QUIT");
  });

  for (auto& t : clients) t.join();
  updater.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  EXPECT_EQ(update_failure, "");
  EXPECT_EQ(server.update_batches_applied(), 5u);
  observe_now(queries[0].sparql);  // pins the final epoch
  server.Stop();

  // Re-answer every observed (query, epoch) pair directly on the retained
  // snapshot of that epoch: the served bytes must match exactly.
  size_t total = 0;
  std::set<uint64_t> epochs_seen;
  for (const auto& per_thread : observations) {
    for (const Observation& obs : per_thread) {
      auto snapshot = server.SnapshotForEpoch(obs.epoch);
      ASSERT_NE(snapshot, nullptr) << "epoch " << obs.epoch << " not retained";
      auto direct = snapshot->Answer(obs.sparql, /*allow_views=*/true);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ(obs.body, server::FormatQueryBody(direct->result))
          << "epoch " << obs.epoch << " query " << obs.sparql;
      epochs_seen.insert(obs.epoch);
      ++total;
    }
  }
  EXPECT_EQ(total,
            static_cast<size_t>(kQueryThreads) * kRequestsPerThread + 2);
  // The interleave actually spanned epochs (queries before and after
  // updates), otherwise this test proves nothing about isolation.
  EXPECT_GT(epochs_seen.size(), 1u);

  // Metrics sanity: all requests metered, cache saw traffic.
  const auto& qm = server.metrics().ForEndpoint(server::Endpoint::kQuery);
  EXPECT_EQ(qm.requests.load(),
            static_cast<uint64_t>(kQueryThreads) * kRequestsPerThread + 2);
  EXPECT_GT(server.metrics().cache_hits() + server.metrics().cache_misses(),
            0u);
}

}  // namespace
}  // namespace sofos
