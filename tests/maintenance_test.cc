/// Tests for the incremental update & view-maintenance subsystem:
///   - TripleStore staged-delta merge vs full rebuild (every index,
///     statistics, set-algebra edge cases, mutation-path exclusion)
///   - ApplyUpdates + ViewMaintainer vs full rebuild + rematerialization
///     on randomized insert/delete batches across all bundled datasets
///   - thread-count invariance of parallel maintenance
///   - staleness-driven re-selection triggering

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/maintenance/delta.h"
#include "gtest/gtest.h"
#include "rdf/vocab.h"
#include "tests/core_test_util.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace sofos {
namespace {

using core::maintenance::GraphDelta;
using core::maintenance::TermTriple;
using testing::ExpectSameAnswers;
using testing::MustExecute;

/// Decodes a store's canonical triples into sorted N-Triples lines —
/// content identity independent of dictionary ids.
std::vector<std::string> DecodedTriples(const TripleStore& store) {
  std::vector<std::string> lines;
  lines.reserve(store.NumTriples());
  const Dictionary& dict = store.dictionary();
  for (const Triple& t : store.triples()) {
    lines.push_back(dict.term(t.s).ToNTriples() + " " +
                    dict.term(t.p).ToNTriples() + " " +
                    dict.term(t.o).ToNTriples());
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(StoreDeltaTest, ApplyDeltaMatchesFullRebuild) {
  TripleStore store;
  testing::BuildFigure1Graph(&store);

  auto iri = [](const std::string& s) {
    return Term::Iri("http://example.org/" + s);
  };
  // Deletes of existing triples, adds of new ones, plus the edge cases:
  // delete of an absent triple, add of a present triple, and a triple
  // staged on both sides (must survive).
  store.StageDelete(iri("France"), iri("language"), Term::String("French"));
  store.StageDelete(iri("Italy"), iri("population"), Term::Integer(60000000));
  store.StageDelete(iri("Atlantis"), iri("name"), Term::String("Atlantis"));
  store.StageAdd(iri("Spain"), iri("name"), Term::String("Spain"));
  store.StageAdd(iri("Spain"), iri("population"), Term::Integer(47000000));
  store.StageAdd(iri("Germany"), iri("language"), Term::String("German"));
  store.StageAdd(iri("Canada"), iri("year"), Term::Integer(2019));
  store.StageDelete(iri("Canada"), iri("year"), Term::Integer(2019));

  uint64_t before = store.NumTriples();
  DeltaApplyResult result = store.ApplyDelta();
  // 2 real deletes; "Atlantis" is absent, "Canada year" is re-added.
  EXPECT_EQ(result.deletes_applied, 2u);
  // Spain name/population are new; "Germany language" and "Canada year"
  // already exist.
  EXPECT_EQ(result.adds_applied, 2u);
  EXPECT_EQ(store.NumTriples(), before);  // +2 -2
  EXPECT_TRUE(store.finalized());
  EXPECT_FALSE(store.HasStagedDelta());

  // Control: the same final triple set built through the legacy path.
  TripleStore control;
  for (const Triple& t : store.triples()) {
    const Dictionary& dict = store.dictionary();
    control.Add(dict.term(t.s), dict.term(t.p), dict.term(t.o));
  }
  control.Finalize();
  EXPECT_EQ(DecodedTriples(store), DecodedTriples(control));
  EXPECT_EQ(store.NumNodes(), control.NumNodes());
  EXPECT_EQ(store.NumPredicates(), control.NumPredicates());

  // Statistics and all six index orders answer like the control store.
  const Dictionary& dict = store.dictionary();
  for (const auto& [pred, stats] : store.predicate_stats()) {
    auto control_pred = control.dictionary().Lookup(dict.term(pred));
    ASSERT_TRUE(control_pred.has_value());
    const PredicateStats* control_stats = control.StatsFor(*control_pred);
    ASSERT_NE(control_stats, nullptr);
    EXPECT_EQ(stats.triples, control_stats->triples);
    EXPECT_EQ(stats.distinct_subjects, control_stats->distinct_subjects);
    EXPECT_EQ(stats.distinct_objects, control_stats->distinct_objects);
  }
  // Every bound-prefix pattern family over a sample of terms.
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
    EXPECT_EQ(store.Count(t.s, t.p, kNullTermId),
              control.Count(*cs, *cp, kNullTermId));
    EXPECT_EQ(store.Count(kNullTermId, t.p, t.o),
              control.Count(kNullTermId, *cp, *co));
    EXPECT_EQ(store.Count(t.s, kNullTermId, t.o),
              control.Count(*cs, kNullTermId, *co));
    EXPECT_TRUE(store.Contains(t.s, t.p, t.o));
    EXPECT_TRUE(control.Contains(*cs, *cp, *co));
  }
}

TEST(StoreDeltaTest, ParallelMergeMatchesSerial) {
  ThreadPool pool(4);
  TripleStore serial, parallel;
  testing::BuildFigure1Graph(&serial);
  testing::BuildFigure1Graph(&parallel);

  auto iri = [](const std::string& s) {
    return Term::Iri("http://example.org/" + s);
  };
  for (TripleStore* store : {&serial, &parallel}) {
    store->StageAdd(iri("Spain"), iri("language"), Term::String("Spanish"));
    store->StageDelete(iri("Italy"), iri("language"), Term::String("Italian"));
  }
  DeltaApplyResult a = serial.ApplyDelta(nullptr);
  DeltaApplyResult b = parallel.ApplyDelta(&pool);
  EXPECT_EQ(a.adds_applied, b.adds_applied);
  EXPECT_EQ(a.deletes_applied, b.deletes_applied);
  EXPECT_EQ(DecodedTriples(serial), DecodedTriples(parallel));
}

TEST(StoreDeltaTest, ParallelFinalizeMatchesSerial) {
  ThreadPool pool(4);
  TripleStore serial, parallel;
  testing::BuildFigure1Graph(&serial);  // Finalizes serially
  for (const Triple& t : serial.triples()) {
    parallel.Add(serial.dictionary().term(t.s), serial.dictionary().term(t.p),
                 serial.dictionary().term(t.o));
  }
  parallel.Finalize(&pool);
  EXPECT_EQ(DecodedTriples(serial), DecodedTriples(parallel));
  EXPECT_EQ(serial.NumNodes(), parallel.NumNodes());
  EXPECT_EQ(serial.NumPredicates(), parallel.NumPredicates());
}

TEST(StoreDeltaDeathTest, MutationPathsCannotInterleave) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TripleStore store;
  testing::BuildFigure1Graph(&store);
  store.StageAdd(Term::Iri("http://example.org/X"),
                 Term::Iri("http://example.org/name"), Term::String("X"));
  // The legacy mutation path must refuse to run over a pending delta.
  EXPECT_DEATH(store.Add(Term::Iri("http://example.org/Y"),
                         Term::Iri("http://example.org/name"),
                         Term::String("Y")),
               "staged delta is pending");
  EXPECT_DEATH(store.ReplaceTriples({}), "staged delta is pending");
  store.DiscardStagedDelta();
  // After discarding, the legacy path works again.
  store.Add(Term::Iri("http://example.org/Y"),
            Term::Iri("http://example.org/name"), Term::String("Y"));
  store.Finalize();
  // And staging requires a finalized store.
  store.Add(Term::Iri("http://example.org/Z"),
            Term::Iri("http://example.org/name"), Term::String("Z"));
  EXPECT_DEATH(store.StageAdd(Term::Iri("http://example.org/W"),
                              Term::Iri("http://example.org/name"),
                              Term::String("W")),
               "finalized store");
}

/// Canonical key for a term triple (tracking the expected base set).
std::string TripleKey(const TermTriple& t) {
  return t.s.ToNTriples() + " " + t.p.ToNTriples() + " " + t.o.ToNTriples();
}

/// Runs the full evolving-KG scenario on `dataset` with `num_threads` and
/// checks every batch against full rebuild + rematerialization.
void RunMaintenanceScenario(const std::string& dataset, unsigned num_threads) {
  SCOPED_TRACE(dataset + " threads=" + std::to_string(num_threads));

  core::SofosEngine inc;
  testing::SetUpEngine(&inc, dataset);
  inc.SetNumThreads(num_threads);
  testing::MustProfile(&inc);
  core::TripleCountCostModel model;
  SOFOS_ASSERT_OK_AND_ASSIGN(auto selection, inc.SelectViews(model, 3));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto views, inc.MaterializeSelection(selection));
  ASSERT_FALSE(views.empty());

  // Independent term-level tracking of the expected base set.
  std::map<std::string, TermTriple> expected_base;
  {
    const Dictionary& dict = inc.store()->dictionary();
    for (const Triple& t : inc.base_snapshot()) {
      TermTriple tt{dict.term(t.s), dict.term(t.p), dict.term(t.o)};
      expected_base.emplace(TripleKey(tt), tt);
    }
  }

  workload::UpdateStreamOptions options;
  options.num_batches = 3;
  options.batch_fraction = 0.02;
  options.delete_fraction = 0.4;
  options.seed = 7;
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto stream,
      workload::GenerateUpdateStream(inc.base_snapshot(),
                                     inc.store()->dictionary(), options));
  ASSERT_EQ(stream.size(), 3u);

  for (size_t batch = 0; batch < stream.size(); ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const GraphDelta& delta = stream[batch];
    ASSERT_FALSE(delta.empty());
    SOFOS_ASSERT_OK_AND_ASSIGN(auto outcome, inc.ApplyUpdates(delta));
    EXPECT_FALSE(outcome.maintenance.skipped);

    // Advance the expected base: (G \ deletes) ∪ adds.
    for (const TermTriple& t : delta.deletes) expected_base.erase(TripleKey(t));
    for (const TermTriple& t : delta.adds) {
      expected_base.emplace(TripleKey(t), t);
    }

    // The engine's base snapshot must track the expected set exactly.
    {
      std::vector<std::string> snapshot_lines;
      const Dictionary& dict = inc.store()->dictionary();
      for (const Triple& t : inc.base_snapshot()) {
        snapshot_lines.push_back(dict.term(t.s).ToNTriples() + " " +
                                 dict.term(t.p).ToNTriples() + " " +
                                 dict.term(t.o).ToNTriples());
      }
      std::sort(snapshot_lines.begin(), snapshot_lines.end());
      std::vector<std::string> expected_lines;
      for (const auto& [key, value] : expected_base) {
        (void)value;
        expected_lines.push_back(key);
      }
      std::sort(expected_lines.begin(), expected_lines.end());
      ASSERT_EQ(snapshot_lines, expected_lines);
    }

    // Reference: full rebuild from scratch + full rematerialization of the
    // same view set.
    core::SofosEngine ref;
    {
      TripleStore store;
      for (const auto& [key, t] : expected_base) {
        (void)key;
        store.Add(t.s, t.p, t.o);
      }
      store.Finalize();
      SOFOS_ASSERT_OK(ref.LoadStore(std::move(store)));
      TripleStore dummy;
      auto spec = datagen::GenerateByName(dataset, datagen::Scale::kTiny, 42,
                                          &dummy);
      ASSERT_TRUE(spec.ok());
      auto facet = core::Facet::FromSparql(spec->facet_sparql, spec->name,
                                           spec->dim_labels);
      ASSERT_TRUE(facet.ok());
      SOFOS_ASSERT_OK(ref.SetFacet(std::move(facet).value()));
      testing::MustProfile(&ref);
      SOFOS_ASSERT_OK(ref.MaterializeViews(selection.views).status());
    }

    // Same size G+: encodings carry the same rows (labels aside).
    EXPECT_EQ(inc.CurrentTriples(), ref.CurrentTriples());
    EXPECT_EQ(inc.BaseTriples(), ref.BaseTriples());

    // Every materialized view's encoding answers its canonical roll-up
    // query identically.
    core::Rewriter rewriter(&inc.facet());
    for (uint32_t mask : selection.views) {
      core::QuerySignature sig;
      sig.group_mask = mask;
      SOFOS_ASSERT_OK_AND_ASSIGN(std::string rewritten,
                                 rewriter.RewriteToView(sig, mask));
      ExpectSameAnswers(MustExecute(inc.store(), rewritten),
                        MustExecute(ref.store(), rewritten),
                        dataset + " view query mask " + std::to_string(mask));
    }

    // A workload routed through the views answers identically on both.
    workload::WorkloadGenerator generator(&ref.facet(), ref.store());
    workload::WorkloadOptions wopts;
    wopts.num_queries = 8;
    wopts.seed = 11 + batch;
    SOFOS_ASSERT_OK_AND_ASSIGN(auto queries, generator.Generate(wopts));
    for (const auto& query : queries) {
      SOFOS_ASSERT_OK_AND_ASSIGN(auto inc_out,
                                 inc.Answer(query, /*allow_views=*/true));
      SOFOS_ASSERT_OK_AND_ASSIGN(auto ref_out,
                                 ref.Answer(query, /*allow_views=*/true));
      ExpectSameAnswers(inc_out.result, ref_out.result,
                        dataset + " workload " + query.id);
    }
  }
}

TEST(ViewMaintenanceTest, MatchesFullRematerializationGeo) {
  RunMaintenanceScenario("geopop", 1);
}

TEST(ViewMaintenanceTest, MatchesFullRematerializationLubm) {
  RunMaintenanceScenario("lubm", 1);
}

TEST(ViewMaintenanceTest, MatchesFullRematerializationSwdf) {
  RunMaintenanceScenario("swdf", 1);
}

TEST(ViewMaintenanceTest, MatchesFullRematerializationParallel) {
  RunMaintenanceScenario("geopop", 4);
  RunMaintenanceScenario("lubm", 4);
}

TEST(ViewMaintenanceTest, ThreadCountInvariance) {
  // The maintained graph — including fresh blank-node labels — must be
  // byte-identical no matter how many threads maintain it.
  auto run = [](unsigned num_threads) {
    core::SofosEngine engine;
    testing::SetUpEngine(&engine, "geopop");
    engine.SetNumThreads(num_threads);
    testing::MustProfile(&engine);
    core::TripleCountCostModel model;
    auto selection = engine.SelectViews(model, 3);
    EXPECT_TRUE(selection.ok());
    EXPECT_TRUE(engine.MaterializeSelection(*selection).ok());

    workload::UpdateStreamOptions options;
    options.num_batches = 2;
    options.batch_fraction = 0.05;
    options.seed = 13;
    auto stream = workload::GenerateUpdateStream(
        engine.base_snapshot(), engine.store()->dictionary(), options);
    EXPECT_TRUE(stream.ok());
    for (const GraphDelta& delta : *stream) {
      auto outcome = engine.ApplyUpdates(delta);
      EXPECT_TRUE(outcome.ok());
    }
    return DecodedTriples(*engine.store());
  };
  std::vector<std::string> serial = run(1);
  std::vector<std::string> parallel = run(4);
  EXPECT_EQ(serial, parallel);
}

TEST(ViewMaintenanceTest, MaintainerRebuildDoesNotCollideBlankLabels) {
  // Regression: the maintainer is rebuilt whenever the view set changes,
  // and its fresh-row counter must resume past the "mvm_" labels already
  // in the store — otherwise a later fresh key re-interns an existing
  // blank and attaches a second group key to it.
  core::SofosEngine engine;
  testing::SetUpEngine(&engine, "geopop");
  testing::MustProfile(&engine);
  uint32_t root_mask = engine.facet().FullMask();
  SOFOS_ASSERT_OK(engine.MaterializeViews({root_mask}).status());

  workload::UpdateStreamOptions options;
  options.num_batches = 2;
  options.batch_fraction = 0.08;
  options.delete_fraction = 0.3;
  options.seed = 29;
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto stream,
      workload::GenerateUpdateStream(engine.base_snapshot(),
                                     engine.store()->dictionary(), options));

  SOFOS_ASSERT_OK_AND_ASSIGN(auto first, engine.ApplyUpdates(stream[0]));
  ASSERT_FALSE(first.maintenance.views.empty());
  ASSERT_GT(first.maintenance.views[0].rows_added, 0u)
      << "scenario must mint fresh view rows to exercise the counter";

  // Changing the view set discards the maintainer; the next update
  // rebuilds it over a store that already contains mvm_ rows.
  SOFOS_ASSERT_OK(engine.MaterializeViews({0}).status());
  SOFOS_ASSERT_OK_AND_ASSIGN(auto second, engine.ApplyUpdates(stream[1]));
  ASSERT_GT(second.maintenance.views[0].rows_added, 0u)
      << "scenario must mint fresh view rows after the rebuild";

  // Reference: full rebuild + rematerialization of the same final state.
  core::SofosEngine ref;
  {
    TripleStore store;
    const Dictionary& dict = engine.store()->dictionary();
    for (const Triple& t : engine.base_snapshot()) {
      store.Add(dict.term(t.s), dict.term(t.p), dict.term(t.o));
    }
    store.Finalize();
    SOFOS_ASSERT_OK(ref.LoadStore(std::move(store)));
    TripleStore dummy;
    auto spec =
        datagen::GenerateByName("geopop", datagen::Scale::kTiny, 42, &dummy);
    ASSERT_TRUE(spec.ok());
    auto facet = core::Facet::FromSparql(spec->facet_sparql, spec->name,
                                         spec->dim_labels);
    ASSERT_TRUE(facet.ok());
    SOFOS_ASSERT_OK(ref.SetFacet(std::move(facet).value()));
    testing::MustProfile(&ref);
    SOFOS_ASSERT_OK(ref.MaterializeViews({root_mask, 0}).status());
  }
  EXPECT_EQ(engine.CurrentTriples(), ref.CurrentTriples());
  core::Rewriter rewriter(&engine.facet());
  for (uint32_t mask : {root_mask, 0u}) {
    core::QuerySignature sig;
    sig.group_mask = mask;
    SOFOS_ASSERT_OK_AND_ASSIGN(std::string rewritten,
                               rewriter.RewriteToView(sig, mask));
    ExpectSameAnswers(MustExecute(engine.store(), rewritten),
                      MustExecute(ref.store(), rewritten),
                      "view query after maintainer rebuild, mask " +
                          std::to_string(mask));
  }
}

TEST(ViewMaintenanceTest, OffPatternDeltaSkipsMaintenance) {
  core::SofosEngine engine;
  testing::SetUpEngine(&engine, "geopop");
  testing::MustProfile(&engine);
  SOFOS_ASSERT_OK(engine.MaterializeViews({engine.facet().FullMask()}).status());

  GraphDelta delta;
  delta.adds.push_back(TermTriple{Term::Iri("http://example.org/meta"),
                                  Term::Iri("http://example.org/comment"),
                                  Term::String("not a facet predicate")});
  uint64_t before = engine.CurrentTriples();
  SOFOS_ASSERT_OK_AND_ASSIGN(auto outcome, engine.ApplyUpdates(delta));
  EXPECT_TRUE(outcome.maintenance.skipped);
  EXPECT_EQ(outcome.adds_applied, 1u);
  EXPECT_EQ(engine.CurrentTriples(), before + 1);
  EXPECT_EQ(outcome.maintenance.root_rows_changed, 0u);
}

TEST(ViewMaintenanceTest, ReservedVocabularyRejected) {
  core::SofosEngine engine;
  testing::SetUpEngine(&engine, "geopop");
  GraphDelta delta;
  delta.adds.push_back(
      TermTriple{Term::Iri("http://example.org/x"),
                 Term::Iri("http://sofos.ics.forth.gr/vocab#value"),
                 Term::Integer(1)});
  auto outcome = engine.ApplyUpdates(delta);
  EXPECT_FALSE(outcome.ok());
}

using core::maintenance::MaintainMode;
using core::maintenance::MaintainOptions;

/// Engine over `dataset` with 3 greedily selected views and the given
/// maintenance-mode policy.
void SetUpMaintenanceEngine(core::SofosEngine* engine,
                            const std::string& dataset,
                            MaintainOptions::Mode mode,
                            unsigned num_threads = 1) {
  testing::SetUpEngine(engine, dataset);
  engine->SetNumThreads(num_threads);
  testing::MustProfile(engine);
  core::TripleCountCostModel model;
  SOFOS_ASSERT_OK_AND_ASSIGN(auto selection, engine->SelectViews(model, 3));
  SOFOS_ASSERT_OK(engine->MaterializeSelection(selection).status());
  MaintainOptions options;
  options.mode = mode;
  engine->SetMaintainOptions(options);
}

/// Tentpole equivalence property: the delta-rule path and the
/// recompute-and-diff path must produce byte-identical maintained graphs
/// (fresh blank labels included) across every delta shape.
TEST(DeltaMaintenanceTest, DeltaMatchesFullAcrossShapes) {
  for (const std::string dataset : {"geopop", "lubm"}) {
    core::SofosEngine delta_engine, full_engine;
    SetUpMaintenanceEngine(&delta_engine, dataset,
                           MaintainOptions::Mode::kForceDelta);
    SetUpMaintenanceEngine(&full_engine, dataset,
                           MaintainOptions::Mode::kForceFull);

    // Adds-only, deletes-only and mixed batches, in sequence over the
    // same evolving graph.
    const double delete_fractions[] = {0.0, 1.0, 0.5};
    int shape = 0;
    for (double delete_fraction : delete_fractions) {
      SCOPED_TRACE(dataset + " delete_fraction=" +
                   std::to_string(delete_fraction));
      workload::UpdateStreamOptions options;
      options.num_batches = 1;
      options.batch_fraction = 0.03;
      options.delete_fraction = delete_fraction;
      options.seed = 17 + shape++;
      SOFOS_ASSERT_OK_AND_ASSIGN(
          auto stream, workload::GenerateUpdateStream(
                           delta_engine.base_snapshot(),
                           delta_engine.store()->dictionary(), options));
      SOFOS_ASSERT_OK_AND_ASSIGN(auto delta_out,
                                 delta_engine.ApplyUpdates(stream[0]));
      SOFOS_ASSERT_OK_AND_ASSIGN(auto full_out,
                                 full_engine.ApplyUpdates(stream[0]));
      if (!delta_out.maintenance.skipped) {
        EXPECT_EQ(delta_out.maintenance.mode, MaintainMode::kDelta)
            << delta_out.maintenance.Summary();
        EXPECT_EQ(full_out.maintenance.mode, MaintainMode::kFull);
      }
      ASSERT_EQ(DecodedTriples(*delta_engine.store()),
                DecodedTriples(*full_engine.store()));

      // Satellite: ApplyUpdates refreshes the profile's view sizes from
      // the maintained row counts — no re-profiling, yet routing and
      // staleness see fresh numbers.
      for (const core::MaterializedView& mv : delta_engine.materialized()) {
        EXPECT_EQ(delta_engine.profile()->ForMask(mv.mask).result_rows,
                  mv.rows)
            << "mask " << mv.mask;
      }
      uint32_t root_mask = delta_engine.facet().FullMask();
      EXPECT_EQ(
          delta_engine.profile()->ForMask(root_mask).result_rows,
          MustExecute(delta_engine.store(),
                      delta_engine.facet().ViewQuerySparql(root_mask))
              .NumRows());
    }
  }
}

TEST(DeltaMaintenanceTest, NoOpAndCancellingDeltasStayOnDeltaPath) {
  core::SofosEngine engine;
  SetUpMaintenanceEngine(&engine, "geopop", MaintainOptions::Mode::kForceDelta);

  // A base triple that carries a facet-pattern predicate (updates sample
  // from exactly this population).
  workload::UpdateStreamOptions options;
  options.num_batches = 1;
  options.batch_fraction = 0.02;
  options.delete_fraction = 1.0;
  options.seed = 23;
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto stream,
      workload::GenerateUpdateStream(engine.base_snapshot(),
                                     engine.store()->dictionary(), options));
  ASSERT_FALSE(stream[0].deletes.empty());
  TermTriple present = stream[0].deletes[0];

  std::vector<std::string> before = DecodedTriples(*engine.store());

  // Delete-then-readd of the same triple: the add wins, the effective
  // delta is empty, and the delta path must recognize the no-op.
  GraphDelta cancelling;
  cancelling.adds.push_back(present);
  cancelling.deletes.push_back(present);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto outcome, engine.ApplyUpdates(cancelling));
  EXPECT_FALSE(outcome.maintenance.skipped);
  EXPECT_EQ(outcome.maintenance.mode, MaintainMode::kDelta);
  EXPECT_EQ(outcome.maintenance.delta_bindings, 0u);
  EXPECT_EQ(outcome.maintenance.root_rows_changed, 0u);
  EXPECT_EQ(DecodedTriples(*engine.store()), before);

  // Add of a present triple + delete of an absent one: also effectively
  // empty.
  GraphDelta noop;
  noop.adds.push_back(present);
  noop.deletes.push_back(TermTriple{Term::Iri("http://example.org/ghost"),
                                    present.p, Term::Integer(123456)});
  SOFOS_ASSERT_OK_AND_ASSIGN(auto outcome2, engine.ApplyUpdates(noop));
  EXPECT_EQ(outcome2.maintenance.mode, MaintainMode::kDelta);
  EXPECT_EQ(outcome2.maintenance.root_rows_changed, 0u);
  EXPECT_EQ(DecodedTriples(*engine.store()), before);
}

TEST(DeltaMaintenanceTest, MinMaxGroupsFallBackToTargetedReeval) {
  // MAX is not additively repairable: every touched group must be
  // re-evaluated exactly (regrouped_keys), and the result must still be
  // byte-identical to full recompute.
  auto make = [](core::SofosEngine* engine, MaintainOptions::Mode mode) {
    TripleStore store;
    store.SetShardCount(engine->ResolvedShardCount());
    auto spec =
        datagen::GenerateByName("geopop", datagen::Scale::kTiny, 42, &store);
    ASSERT_TRUE(spec.ok());
    std::string max_facet = spec->facet_sparql;
    size_t pos = max_facet.find("SUM(?pop)");
    ASSERT_NE(pos, std::string::npos);
    max_facet.replace(pos, 9, "MAX(?pop)");
    // geopop has exactly one observation per (country, language, year), so
    // the full 4-dim grouping puts one row in every group and a delete can
    // only empty its group — which skips targeted re-evaluation entirely.
    // Drop ?year from the head and GROUP BY (the `geo:year` pattern stays)
    // so each group keeps one row per year and a delete leaves survivors
    // whose max must be re-evaluated.
    size_t head = max_facet.find("?year (MAX");
    ASSERT_NE(head, std::string::npos);
    max_facet.erase(head, 6);
    size_t tail = max_facet.rfind(" ?year");
    ASSERT_NE(tail, std::string::npos);
    max_facet.erase(tail, 6);
    std::vector<std::string> labels(spec->dim_labels.begin(),
                                    spec->dim_labels.end() - 1);
    auto facet = core::Facet::FromSparql(max_facet, "geomax", labels);
    ASSERT_TRUE(facet.ok()) << facet.status().ToString();
    SOFOS_ASSERT_OK(engine->LoadStore(std::move(store)));
    SOFOS_ASSERT_OK(engine->SetFacet(std::move(facet).value()));
    testing::MustProfile(engine);
    SOFOS_ASSERT_OK(
        engine->MaterializeViews({engine->facet().FullMask(), 0}).status());
    MaintainOptions options;
    options.mode = mode;
    engine->SetMaintainOptions(options);
  };
  core::SofosEngine delta_engine, full_engine;
  make(&delta_engine, MaintainOptions::Mode::kForceDelta);
  make(&full_engine, MaintainOptions::Mode::kForceFull);

  workload::UpdateStreamOptions options;
  options.num_batches = 2;
  options.batch_fraction = 0.05;
  options.delete_fraction = 1.0;  // deletes can retract a group's max
  options.seed = 31;
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto stream, workload::GenerateUpdateStream(
                       delta_engine.base_snapshot(),
                       delta_engine.store()->dictionary(), options));
  uint64_t regrouped = 0;
  for (const GraphDelta& delta : stream) {
    SOFOS_ASSERT_OK_AND_ASSIGN(auto delta_out,
                               delta_engine.ApplyUpdates(delta));
    SOFOS_ASSERT_OK(full_engine.ApplyUpdates(delta).status());
    if (!delta_out.maintenance.skipped) {
      EXPECT_EQ(delta_out.maintenance.mode, MaintainMode::kDelta);
    }
    regrouped += delta_out.maintenance.regrouped_keys;
    ASSERT_EQ(DecodedTriples(*delta_engine.store()),
              DecodedTriples(*full_engine.store()));
  }
  EXPECT_GT(regrouped, 0u)
      << "MIN/MAX deltas must exercise the targeted re-evaluation path";
}

TEST(DeltaMaintenanceTest, MinMaxTieOfIntegerAndDoubleMatchesFreshView) {
  // Group g=a holds "1"^^xsd:integer (h=x) and "1"^^xsd:double (h=y):
  // equal numbers, distinct terms. MIN keeps the integer and MAX the
  // double, in the view query and in the maintained view alike, before
  // and after an update to group a that leaves both extremes alone.
  auto ex = [](const std::string& s) { return Term::Iri("http://tie/" + s); };
  auto observation = [&](const std::string& o, const std::string& h,
                         const Term& v) {
    return std::vector<TermTriple>{{ex(o), ex("g"), ex("a")},
                                   {ex(o), ex("h"), ex(h)},
                                   {ex(o), ex("v"), v}};
  };
  for (const std::string agg : {"MIN", "MAX"}) {
    for (MaintainOptions::Mode mode :
         {MaintainOptions::Mode::kForceFull, MaintainOptions::Mode::kForceDelta}) {
      SCOPED_TRACE(agg + (mode == MaintainOptions::Mode::kForceFull ? " full"
                                                                    : " delta"));
      core::SofosEngine engine;
      TripleStore store;
      for (const auto& obs : {observation("o1", "x", Term::Integer(1)),
                              observation("o2", "y", Term::Double(1.0))}) {
        for (const TermTriple& t : obs) store.Add(t.s, t.p, t.o);
      }
      store.Finalize();
      auto facet = core::Facet::FromSparql(
          "SELECT ?g ?h (" + agg + "(?v) AS ?agg) WHERE { ?o <http://tie/g> ?g . "
          "?o <http://tie/h> ?h . ?o <http://tie/v> ?v } GROUP BY ?g ?h",
          "tie");
      ASSERT_TRUE(facet.ok()) << facet.status().ToString();
      SOFOS_ASSERT_OK(engine.LoadStore(std::move(store)));
      SOFOS_ASSERT_OK(engine.SetFacet(std::move(facet).value()));
      testing::MustProfile(&engine);
      const uint32_t g_view = 1;  // {g}
      SOFOS_ASSERT_OK(
          engine.MaterializeViews({g_view, engine.facet().FullMask()}).status());
      MaintainOptions options;
      options.mode = mode;
      engine.SetMaintainOptions(options);

      const Term expected = agg == "MIN" ? Term::Integer(1) : Term::Double(1.0);
      auto check = [&](const std::string& when) {
        sparql::QueryResult fresh = MustExecute(
            engine.store(), engine.facet().ViewQuerySparql(g_view));
        ASSERT_EQ(fresh.NumRows(), 1u) << when;
        EXPECT_EQ(fresh.rows[0][1], expected)
            << when << ": " << fresh.rows[0][1].ToNTriples();
        sparql::QueryResult maintained = MustExecute(
            engine.store(),
            "SELECT ?v WHERE { ?b <" + std::string(vocab::kSofosView) + "> <" +
                vocab::ViewIri("tie", g_view) + "> . ?b <" +
                std::string(vocab::kSofosValue) + "> ?v }");
        ASSERT_EQ(maintained.NumRows(), 1u) << when;
        EXPECT_EQ(maintained.rows[0][0], fresh.rows[0][1])
            << when << ": " << maintained.rows[0][0].ToNTriples();
      };
      check("materialized");
      GraphDelta delta;
      delta.adds = observation("o3", "x", Term::Integer(agg == "MIN" ? 7 : -7));
      SOFOS_ASSERT_OK_AND_ASSIGN(auto outcome, engine.ApplyUpdates(delta));
      ASSERT_FALSE(outcome.maintenance.skipped);
      check("maintained");
    }
  }
}

TEST(DeltaMaintenanceTest, CrossoverPolicySwitchesModes) {
  core::SofosEngine engine;
  SetUpMaintenanceEngine(&engine, "geopop", MaintainOptions::Mode::kAuto);

  workload::UpdateStreamOptions options;
  options.num_batches = 2;
  options.batch_fraction = 0.02;
  options.seed = 37;
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto stream,
      workload::GenerateUpdateStream(engine.base_snapshot(),
                                     engine.store()->dictionary(), options));

  // A zero crossover classifies every non-empty delta as "large": the
  // fallback full recompute must kick in.
  MaintainOptions full_biased;
  full_biased.crossover_fraction = 0.0;
  engine.SetMaintainOptions(full_biased);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto full_out, engine.ApplyUpdates(stream[0]));
  ASSERT_FALSE(full_out.maintenance.skipped);
  EXPECT_EQ(full_out.maintenance.mode, MaintainMode::kFull);

  // A permissive crossover keeps the same-sized delta on the delta path.
  MaintainOptions delta_biased;
  delta_biased.crossover_fraction = 1.0;
  engine.SetMaintainOptions(delta_biased);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto delta_out, engine.ApplyUpdates(stream[1]));
  ASSERT_FALSE(delta_out.maintenance.skipped);
  EXPECT_EQ(delta_out.maintenance.mode, MaintainMode::kDelta);
}

TEST(DeltaMaintenanceTest, DeltaPathThreadCountInvariance) {
  // The delta path's maintained graph — fresh blank labels included —
  // must be byte-identical no matter how many threads maintain it.
  auto run = [](unsigned num_threads) {
    core::SofosEngine engine;
    SetUpMaintenanceEngine(&engine, "geopop",
                           MaintainOptions::Mode::kForceDelta, num_threads);
    workload::UpdateStreamOptions options;
    options.num_batches = 2;
    options.batch_fraction = 0.05;
    options.seed = 13;
    auto stream = workload::GenerateUpdateStream(
        engine.base_snapshot(), engine.store()->dictionary(), options);
    EXPECT_TRUE(stream.ok());
    for (const GraphDelta& delta : *stream) {
      auto outcome = engine.ApplyUpdates(delta);
      EXPECT_TRUE(outcome.ok());
      if (outcome.ok() && !outcome->maintenance.skipped) {
        EXPECT_EQ(outcome->maintenance.mode, MaintainMode::kDelta);
      }
    }
    return DecodedTriples(*engine.store());
  };
  std::vector<std::string> serial = run(1);
  std::vector<std::string> parallel = run(4);
  EXPECT_EQ(serial, parallel);
}

/// One random facet over a dataset's canonical pattern: a connected subset
/// of its triple patterns, a random aggregate and 1-4 of the dataset's
/// dimensions that the subset binds. Empty when the draw fails.
std::string RandomFacetSparql(const datagen::DatasetSpec& spec, Rng* rng,
                              std::vector<std::string>* dims) {
  // The canonical facet's WHERE lines, with their variables.
  struct Line {
    std::string text;
    std::vector<std::string> vars;
  };
  std::vector<Line> lines;
  const std::string& sparql = spec.facet_sparql;
  const size_t open = sparql.find('{');
  const size_t close = sparql.find('}');
  size_t pos = open + 1;
  while (pos < close) {
    size_t dot = sparql.find(" .", pos);
    if (dot == std::string::npos || dot > close) break;
    Line line;
    line.text = sparql.substr(pos, dot - pos);
    for (size_t q = line.text.find('?'); q != std::string::npos;
         q = line.text.find('?', q + 1)) {
      size_t e = line.text.find(' ', q);
      line.vars.push_back(line.text.substr(q + 1, e == std::string::npos
                                                      ? std::string::npos
                                                      : e - q - 1));
    }
    lines.push_back(std::move(line));
    pos = dot + 2;
  }
  const std::string prefix = sparql.substr(0, sparql.find("SELECT"));

  // A connected subset of 3..n lines.
  const size_t k = 3 + rng->Uniform(lines.size() - 2);
  std::vector<size_t> picked = rng->SampleIndices(lines.size(), k);
  std::set<std::string> reach(lines[picked[0]].vars.begin(),
                              lines[picked[0]].vars.end());
  std::set<size_t> joined = {picked[0]};
  for (bool grew = true; grew;) {
    grew = false;
    for (size_t i : picked) {
      if (joined.count(i) > 0) continue;
      for (const std::string& v : lines[i].vars) {
        if (reach.count(v) == 0) continue;
        joined.insert(i);
        reach.insert(lines[i].vars.begin(), lines[i].vars.end());
        grew = true;
        break;
      }
    }
  }
  if (joined.size() != picked.size()) return "";

  // Dimensions: dataset dimensions the subset binds; the aggregate runs
  // over one of the other variables.
  std::vector<std::string> dim_pool, agg_pool;
  for (const std::string& v : reach) {
    bool is_dim = std::find(spec.dim_vars.begin(), spec.dim_vars.end(), v) !=
                  spec.dim_vars.end();
    (is_dim ? dim_pool : agg_pool).push_back(v);
  }
  if (dim_pool.empty() || agg_pool.empty()) return "";
  dims->clear();
  for (size_t i : rng->SampleIndices(dim_pool.size(),
                                     1 + rng->Uniform(dim_pool.size()))) {
    dims->push_back(dim_pool[i]);
  }
  std::sort(dims->begin(), dims->end());
  const char* kAggs[] = {"COUNT", "SUM", "MIN", "MAX"};
  const std::string agg = kAggs[rng->Uniform(4)];
  std::string head, group;
  for (const std::string& d : *dims) {
    head += " ?" + d;
    group += " ?" + d;
  }
  std::string where;
  for (size_t i : picked) where += " " + lines[i].text + " .";
  return prefix + "SELECT" + head + " (" + agg + "(?" + rng->Pick(agg_pool) +
         ") AS ?agg) WHERE {" + where + " } GROUP BY" + group;
}

/// Randomized delta-vs-full property: over random facets (COUNT, SUM,
/// MIN, MAX over 3-6 patterns) on all three generators, and add-only,
/// delete-only and mixed batches of 0.1% to 5%, the graph maintained in
/// delta (or automatic) mode is byte-identical to the one recomputed under
/// kForceFull after every batch. lubm's own facet at 2.5% is the batch
/// whose {studentType, courseLevel, subOrganizationOf} delta lists once
/// formed a 1.5M-row cross product.
TEST(DeltaMaintenanceTest, RandomFacetsDeltaMatchesFull) {
  Rng rng(4242);
  uint64_t delta_batches = 0, full_batches = 0, regrouped = 0;
  const double kFractions[] = {0.001, 0.005, 0.01, 0.025, 0.05};
  const double kDeleteFractions[] = {0.0, 1.0, 0.4};
  int trial = 0;
  for (const std::string dataset : {"geopop", "lubm", "swdf"}) {
    TripleStore probe;
    auto spec = datagen::GenerateByName(dataset, datagen::Scale::kTiny, 42,
                                        &probe);
    ASSERT_TRUE(spec.ok());
    for (int f = 0; f < 7; ++f, ++trial) {
      std::vector<std::string> dims;
      std::string facet_sparql;
      if (dataset == "lubm" && f == 0) {
        facet_sparql = spec->facet_sparql;
        dims = spec->dim_vars;
      }
      while (facet_sparql.empty()) {
        facet_sparql = RandomFacetSparql(*spec, &rng, &dims);
      }
      SCOPED_TRACE(dataset + " facet: " + facet_sparql);
      const bool lubm_canonical = dataset == "lubm" && f == 0;
      const MaintainOptions::Mode mode =
          trial % 2 == 0 || lubm_canonical ? MaintainOptions::Mode::kForceDelta
                                           : MaintainOptions::Mode::kAuto;
      core::SofosEngine engine, full;
      for (core::SofosEngine* e : {&engine, &full}) {
        testing::SetUpEngine(e, dataset);
        auto facet = core::Facet::FromSparql(facet_sparql, "rand", dims);
        ASSERT_TRUE(facet.ok()) << facet.status().ToString();
        SOFOS_ASSERT_OK(e->SetFacet(std::move(facet).value()));
        testing::MustProfile(e);
        core::TripleCountCostModel model;
        SOFOS_ASSERT_OK_AND_ASSIGN(auto selection, e->SelectViews(model, 3));
        SOFOS_ASSERT_OK(e->MaterializeSelection(selection).status());
        MaintainOptions options;
        options.mode = e == &engine ? mode : MaintainOptions::Mode::kForceFull;
        e->SetMaintainOptions(options);
      }
      for (int b = 0; b < 3; ++b) {
        workload::UpdateStreamOptions options;
        options.num_batches = 1;
        options.batch_fraction =
            lubm_canonical ? 0.025 : kFractions[rng.Uniform(5)];
        options.delete_fraction = kDeleteFractions[rng.Uniform(3)];
        options.seed = 1000 + static_cast<uint64_t>(trial * 10 + b);
        SCOPED_TRACE("batch " + std::to_string(b) + " fraction " +
                     std::to_string(options.batch_fraction) + " deletes " +
                     std::to_string(options.delete_fraction));
        SOFOS_ASSERT_OK_AND_ASSIGN(
            auto stream,
            workload::GenerateUpdateStream(engine.base_snapshot(),
                                           engine.store()->dictionary(),
                                           options));
        SOFOS_ASSERT_OK_AND_ASSIGN(auto out, engine.ApplyUpdates(stream[0]));
        SOFOS_ASSERT_OK_AND_ASSIGN(auto ref, full.ApplyUpdates(stream[0]));
        EXPECT_EQ(out.adds_applied, ref.adds_applied);
        EXPECT_EQ(out.deletes_applied, ref.deletes_applied);
        if (out.maintenance.mode == MaintainMode::kDelta) ++delta_batches;
        if (out.maintenance.mode == MaintainMode::kFull) ++full_batches;
        regrouped += out.maintenance.regrouped_keys;
        ASSERT_EQ(DecodedTriples(*engine.store()),
                  DecodedTriples(*full.store()));
        EXPECT_EQ(engine.BaseTriples(), engine.base_snapshot().size());
      }
    }
  }
  EXPECT_GT(delta_batches, 0u);
  EXPECT_GT(full_batches, 0u);
  EXPECT_GT(regrouped, 0u);
}

TEST(StalenessTest, DriftTriggersReselection) {
  core::SofosEngine engine;
  testing::SetUpEngine(&engine, "geopop");
  testing::MustProfile(&engine);
  SOFOS_ASSERT_OK(engine.MaterializeViews({engine.facet().FullMask()}).status());
  ASSERT_TRUE(engine.staleness_monitor().has_baseline());

  workload::UpdateStreamOptions options;
  options.num_batches = 1;
  options.batch_fraction = 0.02;
  options.seed = 3;
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto stream,
      workload::GenerateUpdateStream(engine.base_snapshot(),
                                     engine.store()->dictionary(), options));

  // With an unreachable threshold nothing triggers; with a zero threshold
  // any churn does. Same delta, decided purely by the monitor.
  core::maintenance::StalenessOptions lax;
  lax.drift_threshold = 1e9;
  engine.SetStalenessOptions(lax);
  testing::MustProfile(&engine);  // re-anchor the baseline
  SOFOS_ASSERT_OK_AND_ASSIGN(auto calm, engine.ApplyUpdates(stream[0]));
  EXPECT_FALSE(calm.reselect_recommended);
  EXPECT_GT(calm.staleness, 0.0);

  core::maintenance::StalenessOptions strict;
  strict.drift_threshold = 1e-9;
  engine.SetStalenessOptions(strict);
  testing::MustProfile(&engine);
  options.seed = 4;
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto stream2,
      workload::GenerateUpdateStream(engine.base_snapshot(),
                                     engine.store()->dictionary(), options));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto drifted, engine.ApplyUpdates(stream2[0]));
  EXPECT_TRUE(drifted.reselect_recommended);
  EXPECT_GT(engine.staleness_monitor().drift(), 0.0);

  // Re-profiling (the re-selection flow) resets the baseline.
  testing::MustProfile(&engine);
  EXPECT_FALSE(engine.staleness_monitor().ShouldReselect());
  EXPECT_EQ(engine.staleness_monitor().drift(), 0.0);
}

}  // namespace
}  // namespace sofos
