/// Tests for the sharded copy-on-write TripleStore:
///   - shard invariance: Scan() byte-identity, statistics, query answers,
///     Explain output, and maintenance blank labels across
///     shard_count ∈ {1, 2, 8} on every bundled dataset
///   - COW aliasing: Clone() shares every shard; ApplyDelta() replaces
///     exactly the delta-touched shards and leaves clones byte-stable
///   - repartitioning via SetShardCount and the shared-dictionary contract

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "tests/core_test_util.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace sofos {
namespace {

using core::maintenance::GraphDelta;
using core::maintenance::TermTriple;
using testing::ExpectSameAnswers;

Term Iri(const std::string& s) { return Term::Iri("http://t/" + s); }

/// A random but deterministic graph used by the store-level tests.
void BuildRandomGraph(TripleStore* store, uint64_t seed, int n = 400) {
  Rng rng(seed);
  const int kSubjects = 40, kPredicates = 7, kObjects = 25;
  for (int i = 0; i < n; ++i) {
    store->Add(Iri("s" + std::to_string(rng.Uniform(kSubjects))),
               Iri("p" + std::to_string(rng.Uniform(kPredicates))),
               Iri("o" + std::to_string(rng.Uniform(kObjects))));
  }
  store->Finalize();
}

/// Exact (order-preserving) byte image of a scan: the id triples in the
/// order the range returns them.
std::vector<std::tuple<TermId, TermId, TermId>> ScanImage(
    const TripleStore& store, TermId s, TermId p, TermId o) {
  std::vector<std::tuple<TermId, TermId, TermId>> out;
  for (const Triple& t : store.Scan(s, p, o)) out.emplace_back(t.s, t.p, t.o);
  return out;
}

TEST(ShardInvarianceTest, ScanByteIdentityAcrossShardCounts) {
  TripleStore reference;
  BuildRandomGraph(&reference, 42);
  ASSERT_EQ(reference.shard_count(), 1u);

  for (size_t shards : {2u, 8u}) {
    SCOPED_TRACE("shard_count=" + std::to_string(shards));
    TripleStore sharded;
    sharded.SetShardCount(shards);
    BuildRandomGraph(&sharded, 42);  // same dictionary ids: same build order
    EXPECT_EQ(sharded.shard_count(), shards);

    const auto& all = reference.triples();
    ASSERT_EQ(sharded.triples().size(), all.size());
    // Every bound/unbound combination, exact order included.
    Rng rng(7);
    for (int trial = 0; trial < 80; ++trial) {
      uint64_t mask = rng.Uniform(8);
      TermId s = (mask & 1) ? all[rng.Uniform(all.size())].s : kNullTermId;
      TermId p = (mask & 2) ? all[rng.Uniform(all.size())].p : kNullTermId;
      TermId o = (mask & 4) ? all[rng.Uniform(all.size())].o : kNullTermId;
      EXPECT_EQ(ScanImage(sharded, s, p, o), ScanImage(reference, s, p, o))
          << "pattern mask=" << mask;
    }

    // Statistics are shard-invariant.
    EXPECT_EQ(sharded.NumTriples(), reference.NumTriples());
    EXPECT_EQ(sharded.NumNodes(), reference.NumNodes());
    EXPECT_EQ(sharded.NumPredicates(), reference.NumPredicates());
    for (const auto& [pred, stats] : reference.predicate_stats()) {
      const PredicateStats* other = sharded.StatsFor(pred);
      ASSERT_NE(other, nullptr);
      EXPECT_EQ(other->triples, stats.triples);
      EXPECT_EQ(other->distinct_subjects, stats.distinct_subjects);
      EXPECT_EQ(other->distinct_objects, stats.distinct_objects);
    }
  }
}

TEST(ShardInvarianceTest, SingleShardServesFullScanFromCanonical) {
  TripleStore store;
  BuildRandomGraph(&store, 5);
  // The unbound pattern is the canonical array itself — same bytes, same
  // storage — at every shard count.
  EXPECT_EQ(store.Scan(kNullTermId, kNullTermId, kNullTermId).begin(),
            store.triples().data());
  store.SetShardCount(8);
  EXPECT_EQ(store.Scan(kNullTermId, kNullTermId, kNullTermId).begin(),
            store.triples().data());
}

TEST(ShardInvarianceTest, ApplyDeltaMatchesRebuildAtEveryShardCount) {
  for (size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shard_count=" + std::to_string(shards));
    TripleStore store;
    store.SetShardCount(shards);
    testing::BuildFigure1Graph(&store);

    auto iri = [](const std::string& s) {
      return Term::Iri("http://example.org/" + s);
    };
    store.StageDelete(iri("France"), iri("language"), Term::String("French"));
    store.StageDelete(iri("Atlantis"), iri("name"), Term::String("Atlantis"));
    store.StageAdd(iri("Spain"), iri("name"), Term::String("Spain"));
    store.StageAdd(iri("Germany"), iri("language"), Term::String("German"));
    store.StageAdd(iri("Canada"), iri("year"), Term::Integer(2019));
    store.StageDelete(iri("Canada"), iri("year"), Term::Integer(2019));
    DeltaApplyResult result = store.ApplyDelta();
    EXPECT_EQ(result.adds_applied, 1u);
    EXPECT_EQ(result.deletes_applied, 1u);
    EXPECT_GT(result.shards_rebuilt, 0u);
    EXPECT_LE(result.shards_rebuilt, 2 * shards);

    // Control: the same final triple set built through the legacy path.
    TripleStore control;
    const Dictionary& dict = store.dictionary();
    for (const Triple& t : store.triples()) {
      control.Add(dict.term(t.s), dict.term(t.p), dict.term(t.o));
    }
    control.Finalize();
    EXPECT_EQ(store.NumTriples(), control.NumTriples());
    EXPECT_EQ(store.NumNodes(), control.NumNodes());
    EXPECT_EQ(store.NumPredicates(), control.NumPredicates());
    for (const Triple& t : store.triples()) {
      auto cs = control.dictionary().Lookup(dict.term(t.s));
      auto cp = control.dictionary().Lookup(dict.term(t.p));
      auto co = control.dictionary().Lookup(dict.term(t.o));
      ASSERT_TRUE(cs && cp && co);
      EXPECT_EQ(store.Count(t.s, kNullTermId, kNullTermId),
                control.Count(*cs, kNullTermId, kNullTermId));
      EXPECT_EQ(store.Count(kNullTermId, t.p, kNullTermId),
                control.Count(kNullTermId, *cp, kNullTermId));
      EXPECT_EQ(store.Count(kNullTermId, kNullTermId, t.o),
                control.Count(kNullTermId, kNullTermId, *co));
      EXPECT_EQ(store.Count(t.s, kNullTermId, t.o),
                control.Count(*cs, kNullTermId, *co));
      EXPECT_EQ(store.Count(kNullTermId, t.p, t.o),
                control.Count(kNullTermId, *cp, *co));
      EXPECT_TRUE(store.Contains(t.s, t.p, t.o));
    }
  }
}

TEST(ShardInvarianceTest, SetShardCountRepartitionsInPlace) {
  TripleStore store;
  BuildRandomGraph(&store, 11);
  auto before = ScanImage(store, kNullTermId, kNullTermId, kNullTermId);
  uint64_t nodes = store.NumNodes();

  ThreadPool pool(4);
  store.SetShardCount(4, &pool);
  EXPECT_EQ(store.shard_count(), 4u);
  EXPECT_EQ(ScanImage(store, kNullTermId, kNullTermId, kNullTermId), before);
  EXPECT_EQ(store.NumNodes(), nodes);

  store.SetShardCount(1);
  EXPECT_EQ(store.shard_count(), 1u);
  EXPECT_EQ(ScanImage(store, kNullTermId, kNullTermId, kNullTermId), before);
  EXPECT_EQ(store.NumNodes(), nodes);
}

TEST(ShardInvarianceTest, ParallelFinalizeAndDeltaMatchSerial) {
  ThreadPool pool(4);
  TripleStore serial, parallel;
  serial.SetShardCount(8);
  parallel.SetShardCount(8);
  BuildRandomGraph(&serial, 17);
  {
    Rng rng(17);
    const int kSubjects = 40, kPredicates = 7, kObjects = 25;
    for (int i = 0; i < 400; ++i) {
      parallel.Add(Iri("s" + std::to_string(rng.Uniform(kSubjects))),
                   Iri("p" + std::to_string(rng.Uniform(kPredicates))),
                   Iri("o" + std::to_string(rng.Uniform(kObjects))));
    }
    parallel.Finalize(&pool);
  }
  EXPECT_EQ(ScanImage(parallel, kNullTermId, kNullTermId, kNullTermId),
            ScanImage(serial, kNullTermId, kNullTermId, kNullTermId));

  for (TripleStore* store : {&serial, &parallel}) {
    store->StageAdd(Iri("s1"), Iri("p1"), Iri("fresh"));
    store->StageDelete(Iri("s1"), Iri("p1"), Iri("o1"));
  }
  DeltaApplyResult a = serial.ApplyDelta(nullptr);
  DeltaApplyResult b = parallel.ApplyDelta(&pool);
  EXPECT_EQ(a.adds_applied, b.adds_applied);
  EXPECT_EQ(a.deletes_applied, b.deletes_applied);
  EXPECT_EQ(a.shards_rebuilt, b.shards_rebuilt);
  EXPECT_EQ(ScanImage(parallel, kNullTermId, kNullTermId, kNullTermId),
            ScanImage(serial, kNullTermId, kNullTermId, kNullTermId));
  EXPECT_EQ(serial.NumNodes(), parallel.NumNodes());
}

TEST(CowTest, CloneAliasesEveryShardAndTheCanonicalArray) {
  TripleStore store;
  store.SetShardCount(8);
  BuildRandomGraph(&store, 3);
  TripleStore clone = store.Clone();

  EXPECT_EQ(clone.CanonicalIdentity(), store.CanonicalIdentity());
  for (int f = 0; f < TripleStore::kNumFamilies; ++f) {
    for (size_t k = 0; k < 8; ++k) {
      EXPECT_EQ(clone.ShardIdentity(static_cast<TripleStore::Family>(f), k),
                store.ShardIdentity(static_cast<TripleStore::Family>(f), k));
    }
  }
}

TEST(CowTest, ApplyDeltaRebuildsOnlyTouchedShards) {
  constexpr size_t kShards = 8;
  TripleStore store;
  store.SetShardCount(kShards);
  BuildRandomGraph(&store, 9);
  TripleStore clone = store.Clone();

  // One added triple with a brand-new subject/object: exactly one bucket
  // per family may change (the subject lands in the canonical array).
  TermId s = store.Intern(Iri("fresh-subject"));
  TermId p = store.Intern(Iri("p1"));
  TermId o = store.Intern(Iri("fresh-object"));
  store.StageAdd(s, p, o);
  DeltaApplyResult result = store.ApplyDelta();
  ASSERT_EQ(result.adds_applied, 1u);
  EXPECT_EQ(result.shards_rebuilt, 2u);  // one bucket in each family

  const size_t touched[TripleStore::kNumFamilies] = {
      TripleStore::ShardIndexFor(p, kShards),
      TripleStore::ShardIndexFor(o, kShards),
  };
  EXPECT_NE(store.CanonicalIdentity(), clone.CanonicalIdentity());
  for (int f = 0; f < TripleStore::kNumFamilies; ++f) {
    for (size_t k = 0; k < kShards; ++k) {
      auto family = static_cast<TripleStore::Family>(f);
      if (k == touched[f]) {
        EXPECT_NE(store.ShardIdentity(family, k), clone.ShardIdentity(family, k))
            << "family " << f << " bucket " << k << " must be rebuilt";
      } else {
        EXPECT_EQ(store.ShardIdentity(family, k), clone.ShardIdentity(family, k))
            << "family " << f << " bucket " << k << " must stay aliased";
      }
    }
  }
}

TEST(CowTest, CloneAnswersAreStableWhileTheOriginalMutates) {
  TripleStore store;
  store.SetShardCount(4);
  BuildRandomGraph(&store, 21);
  TripleStore clone = store.Clone();

  TermId p1 = store.Intern(Iri("p1"));
  auto before_full = ScanImage(clone, kNullTermId, kNullTermId, kNullTermId);
  auto before_pred = ScanImage(clone, kNullTermId, p1, kNullTermId);
  // Pin a live range into the clone's shard: must survive the original's
  // mutation (the shard stays alive via the clone's shared_ptr).
  TripleStore::ScanRange pinned = clone.Scan(kNullTermId, p1, kNullTermId);
  const Triple first = pinned.empty() ? Triple{} : *pinned.begin();

  store.StageAdd(Iri("brand-new"), Iri("p1"), Iri("value"));
  store.StageDelete(clone.triples()[0].s, clone.triples()[0].p,
                    clone.triples()[0].o);
  store.ApplyDelta();

  EXPECT_EQ(ScanImage(clone, kNullTermId, kNullTermId, kNullTermId),
            before_full);
  EXPECT_EQ(ScanImage(clone, kNullTermId, p1, kNullTermId), before_pred);
  if (!pinned.empty()) {
    EXPECT_EQ(*pinned.begin(), first);  // pointer still valid, same bytes
  }
  EXPECT_NE(store.NumTriples(), 0u);
}

TEST(CowTest, CloneSharesTheAppendOnlyDictionary) {
  TripleStore store;
  BuildRandomGraph(&store, 2);
  TripleStore clone = store.Clone();
  size_t before = clone.NumTerms();
  TermId id = store.Intern(Iri("interned-after-clone"));
  // Shared dictionary: the clone sees the new term under the same id.
  EXPECT_EQ(clone.NumTerms(), before + 1);
  EXPECT_EQ(clone.dictionary().term(id), Iri("interned-after-clone"));
}

/// Full-pipeline shard invariance: profile, selection, materialization,
/// workload answers, Explain output, and incremental maintenance
/// (including mvm_ blank labels) must be byte-identical at every shard
/// count.
struct PipelineImage {
  std::vector<std::string> triples_after_updates;  // decoded, incl. labels
  std::string explain;
  std::vector<sparql::QueryResult> answers;
  uint64_t publishes = 0;
};

PipelineImage RunPipeline(const std::string& dataset, unsigned shard_count) {
  PipelineImage image;
  core::SofosEngine engine;
  engine.SetShardCount(shard_count);
  testing::SetUpEngine(&engine, dataset);
  EXPECT_EQ(engine.store()->shard_count(),
            static_cast<size_t>(std::max(1u, shard_count)));  // applied at load
  testing::MustProfile(&engine);
  core::TripleCountCostModel model;
  auto selection = engine.SelectViews(model, 3);
  EXPECT_TRUE(selection.ok());
  EXPECT_TRUE(engine.MaterializeSelection(*selection).ok());

  workload::UpdateStreamOptions options;
  options.num_batches = 2;
  options.batch_fraction = 0.03;
  options.delete_fraction = 0.4;
  options.seed = 19;
  auto stream = workload::GenerateUpdateStream(
      engine.base_snapshot(), engine.store()->dictionary(), options);
  EXPECT_TRUE(stream.ok());
  for (const GraphDelta& delta : *stream) {
    auto outcome = engine.ApplyUpdates(delta);
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(engine.PublishSnapshot().ok());
  }
  image.publishes = engine.publish_latency().count;

  // Decoded triples (sorted for dictionary-id independence) capture the
  // maintained graph including maintenance blank labels byte-for-byte.
  const Dictionary& dict = engine.store()->dictionary();
  for (const Triple& t : engine.store()->triples()) {
    image.triples_after_updates.push_back(dict.term(t.s).ToNTriples() + " " +
                                          dict.term(t.p).ToNTriples() + " " +
                                          dict.term(t.o).ToNTriples());
  }
  std::sort(image.triples_after_updates.begin(),
            image.triples_after_updates.end());

  std::string root = engine.facet().ViewQuerySparql(engine.facet().FullMask());
  auto explain = engine.ExplainSparql(root);
  EXPECT_TRUE(explain.ok());
  image.explain = explain.ok() ? *explain : "";

  workload::WorkloadGenerator generator(&engine.facet(), engine.store());
  workload::WorkloadOptions wopts;
  wopts.num_queries = 6;
  wopts.seed = 31;
  auto queries = generator.Generate(wopts);
  EXPECT_TRUE(queries.ok());
  for (const auto& query : *queries) {
    auto outcome = engine.Answer(query, /*allow_views=*/true);
    EXPECT_TRUE(outcome.ok());
    image.answers.push_back(outcome.ok() ? outcome->result
                                         : sparql::QueryResult{});
  }
  return image;
}

void ExpectPipelineInvariant(const std::string& dataset) {
  PipelineImage reference = RunPipeline(dataset, 1);
  EXPECT_GT(reference.publishes, 0u);
  for (unsigned shards : {2u, 8u}) {
    SCOPED_TRACE(dataset + " shard_count=" + std::to_string(shards));
    PipelineImage image = RunPipeline(dataset, shards);
    // Maintained graph — blank labels included — byte-identical.
    EXPECT_EQ(image.triples_after_updates, reference.triples_after_updates);
    // Plans don't see the shard layout.
    EXPECT_EQ(image.explain, reference.explain);
    ASSERT_EQ(image.answers.size(), reference.answers.size());
    for (size_t i = 0; i < reference.answers.size(); ++i) {
      ExpectSameAnswers(image.answers[i], reference.answers[i],
                        dataset + " query " + std::to_string(i));
    }
  }
}

TEST(ShardPipelineTest, InvariantOnGeopop) { ExpectPipelineInvariant("geopop"); }
TEST(ShardPipelineTest, InvariantOnLubm) { ExpectPipelineInvariant("lubm"); }
TEST(ShardPipelineTest, InvariantOnSwdf) { ExpectPipelineInvariant("swdf"); }

TEST(ShardPipelineTest, AutoShardCountFollowsThreadCount) {
  core::SofosEngine engine;  // shard knob left at 0 = auto
  testing::SetUpEngine(&engine, "geopop");
  engine.SetNumThreads(1);
  EXPECT_EQ(engine.store()->shard_count(), 1u);
  // Growing the pool re-resolves the auto shard count (power of two).
  engine.SetNumThreads(4);
  EXPECT_EQ(engine.store()->shard_count(), 4u);
  engine.SetNumThreads(3);
  EXPECT_EQ(engine.store()->shard_count(), 4u);
  // A pinned knob is left alone by thread changes.
  engine.SetShardCount(2);
  engine.SetNumThreads(8);
  EXPECT_EQ(engine.store()->shard_count(), 2u);
}

TEST(ShardPipelineTest, SnapshotsStayOnTheirEpochAcrossUpdates) {
  core::SofosEngine engine;
  engine.SetShardCount(4);
  testing::SetUpEngine(&engine, "geopop");
  testing::MustProfile(&engine);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto snap_result, engine.PublishSnapshot());
  std::shared_ptr<const core::EngineSnapshot> old_snap = snap_result;
  std::string root = engine.facet().ViewQuerySparql(engine.facet().FullMask());
  SOFOS_ASSERT_OK_AND_ASSIGN(auto before, old_snap->Answer(root, true));

  workload::UpdateStreamOptions options;
  options.num_batches = 1;
  options.batch_fraction = 0.05;
  options.seed = 5;
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto stream,
      workload::GenerateUpdateStream(engine.base_snapshot(),
                                     engine.store()->dictionary(), options));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto outcome, engine.ApplyUpdates(stream[0]));
  EXPECT_GT(outcome.adds_applied + outcome.deletes_applied, 0u);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto fresh, engine.PublishSnapshot());
  EXPECT_NE(fresh->epoch(), old_snap->epoch());

  // The old snapshot still answers from its shards — byte-stable even
  // though the engine's store rebuilt the touched ones.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto after, old_snap->Answer(root, true));
  ExpectSameAnswers(before.result, after.result, "old epoch answer");
  // Publishing the same epoch twice builds once (histogram counts builds).
  uint64_t builds = engine.publish_latency().count;
  SOFOS_ASSERT_OK(engine.PublishSnapshot().status());
  EXPECT_EQ(engine.publish_latency().count, builds);
}

}  // namespace
}  // namespace sofos
