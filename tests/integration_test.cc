/// End-to-end integration: the full SOFOS pipeline (load → facet → profile
/// → select → materialize → answer → verify) on all three demo datasets and
/// all automatic cost models, plus the view-maintenance extension.

#include "core/engine.h"
#include "core/training.h"
#include "gtest/gtest.h"
#include "tests/core_test_util.h"
#include "workload/generator.h"

namespace sofos {
namespace {

using core::CostModelKind;
using core::SofosEngine;
using testing::ExpectSameAnswers;
using testing::MustProfile;
using testing::SetUpEngine;

/// One full pipeline run per (dataset, model) pair.
class FullPipelineTest
    : public ::testing::TestWithParam<std::tuple<std::string, CostModelKind>> {};

TEST_P(FullPipelineTest, SelectMaterializeAnswerVerify) {
  const auto& [dataset, kind] = GetParam();
  SofosEngine engine;
  SetUpEngine(&engine, dataset);
  MustProfile(&engine);

  if (kind == CostModelKind::kLearned) {
    core::LearnedTrainingOptions options;
    options.repetitions = 1;
    options.epochs = 120;
    ASSERT_TRUE(core::TrainLearnedModel(&engine, options).ok());
  }

  auto model = engine.MakeModel(kind);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto selection = engine.SelectViews(**model, 4);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->views.size(), 4u);

  workload::WorkloadGenerator generator(&engine.facet(), engine.store());
  workload::WorkloadOptions options;
  options.num_queries = 12;
  options.seed = 5;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok());

  // Baseline before expansion.
  std::vector<sparql::QueryResult> baseline;
  for (const auto& query : *queries) {
    auto outcome = engine.Answer(query, false);
    ASSERT_TRUE(outcome.ok()) << query.sparql;
    baseline.push_back(std::move(outcome->result));
  }

  ASSERT_TRUE(engine.MaterializeSelection(*selection).ok());
  EXPECT_GT(engine.StorageAmplification(), 1.0);

  size_t hits = 0;
  for (size_t i = 0; i < queries->size(); ++i) {
    auto outcome = engine.Answer((*queries)[i], true);
    ASSERT_TRUE(outcome.ok()) << outcome->executed_sparql;
    if (outcome->used_view) ++hits;
    ExpectSameAnswers(std::move(baseline[i]), std::move(outcome->result),
                      dataset + "/" + (*queries)[i].id);
  }
  // With 4 informative views at least some queries must route; Random may
  // legitimately miss everything only on adversarial draws, so the bound
  // is weak but still meaningful.
  if (kind != CostModelKind::kRandom) {
    EXPECT_GT(hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndModels, FullPipelineTest,
    ::testing::Combine(::testing::Values("lubm", "geopop", "swdf"),
                       ::testing::Values(CostModelKind::kRandom,
                                         CostModelKind::kTripleCount,
                                         CostModelKind::kAggValueCount,
                                         CostModelKind::kNodeCount)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, CostModelKind>>&
           info) {
      return std::get<0>(info.param) + "_" +
             core::CostModelKindName(std::get<1>(info.param));
    });

// ------------------------------------------------- view maintenance

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetUpEngine(&engine_, "geopop");
    MustProfile(&engine_);
  }
  SofosEngine engine_;
};

TEST_F(MaintenanceTest, UpdateRefreshesMaterializedViews) {
  ASSERT_TRUE(engine_.MaterializeViews({engine_.facet().FullMask(), 0b0110}).ok());

  core::WorkloadQuery query;
  query.id = "per-country";
  query.signature.group_mask = 0b0010;
  query.sparql =
      "PREFIX geo: <http://sofos.example.org/geo#>\n"
      "SELECT ?country (SUM(?pop) AS ?agg) WHERE {\n"
      "  ?obs geo:country ?country . ?obs geo:language ?language .\n"
      "  ?obs geo:year ?year . ?obs geo:population ?pop .\n"
      "  ?country geo:partOf ?continent .\n"
      "} GROUP BY ?country";

  auto before = engine_.Answer(query, true);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->used_view);

  // Append a brand-new country with one observation, through the
  // full-recompute path.
  core::maintenance::MaintainOptions options;
  options.mode = core::maintenance::MaintainOptions::Mode::kForceFull;
  engine_.SetMaintainOptions(options);
  auto geo = [](const std::string& l) {
    return Term::Iri("http://sofos.example.org/geo#" + l);
  };
  const Term country = geo("country/NEW");
  const Term obs = Term::Blank("obs_new");
  core::maintenance::GraphDelta delta;
  delta.adds = {{country, geo("partOf"), geo("continent/Europe")},
                {obs, geo("country"), country},
                {obs, geo("language"), geo("lang/L0")},
                {obs, geo("year"), Term::Integer(2019)},
                {obs, geo("population"), Term::Integer(123456)}};
  SOFOS_ASSERT_OK_AND_ASSIGN(core::UpdateOutcome outcome,
                             engine_.ApplyUpdates(delta));
  EXPECT_EQ(outcome.maintenance.mode, core::maintenance::MaintainMode::kFull);
  EXPECT_EQ(outcome.adds_applied, 5u);

  // Views are still materialized and now reflect the new data.
  EXPECT_EQ(engine_.MaterializedMasks().size(), 2u);
  auto after = engine_.Answer(query, true);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->used_view);
  EXPECT_EQ(after->result.NumRows(), before->result.NumRows() + 1);

  // And they agree with the base graph post-update (the golden property).
  auto base = engine_.Answer(query, false);
  ASSERT_TRUE(base.ok());
  ExpectSameAnswers(std::move(base->result), std::move(after->result),
                    "refreshed view vs updated base");
}

TEST_F(MaintenanceTest, UpdateWithoutViewsJustGrowsBase) {
  uint64_t before = engine_.BaseTriples();
  core::maintenance::GraphDelta delta;
  delta.adds = {{Term::Iri("http://x/a"), Term::Iri("http://x/b"),
                 Term::Iri("http://x/c")}};
  SOFOS_ASSERT_OK(engine_.ApplyUpdates(delta).status());
  EXPECT_EQ(engine_.BaseTriples(), before + 1);
  EXPECT_TRUE(engine_.materialized().empty());
  EXPECT_DOUBLE_EQ(engine_.StorageAmplification(), 1.0);
}

// ------------------------------------------------- ad-hoc SPARQL routing

class AdHocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetUpEngine(&engine_, "geopop");
    MustProfile(&engine_);
    ASSERT_TRUE(
        engine_.MaterializeViews({engine_.facet().FullMask(), 0b0011}).ok());
  }
  SofosEngine engine_;
};

TEST_F(AdHocTest, FacetShapedQueryIsRoutedToView) {
  auto outcome = engine_.AnswerSparql(
      "PREFIX geo: <http://sofos.example.org/geo#>\n"
      "SELECT ?continent (SUM(?pop) AS ?agg) WHERE {\n"
      "  ?obs geo:country ?country . ?obs geo:language ?language .\n"
      "  ?obs geo:year ?year . ?obs geo:population ?pop .\n"
      "  ?country geo:partOf ?continent .\n"
      "} GROUP BY ?continent");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->used_view);
  EXPECT_EQ(outcome->view_mask, 0b0011u);  // smaller answerable view wins
  EXPECT_GT(outcome->result.NumRows(), 0u);
}

TEST_F(AdHocTest, FilteredFacetQueryRoutesAndMatchesBase) {
  const std::string query =
      "PREFIX geo: <http://sofos.example.org/geo#>\n"
      "SELECT ?country (SUM(?pop) AS ?agg) WHERE {\n"
      "  ?obs geo:country ?country . ?obs geo:language ?language .\n"
      "  ?obs geo:year ?year . ?obs geo:population ?pop .\n"
      "  ?country geo:partOf ?continent .\n"
      "  FILTER(?continent = <http://sofos.example.org/geo#continent/Europe>)\n"
      "} GROUP BY ?country";
  auto routed = engine_.AnswerSparql(query, true);
  auto base = engine_.AnswerSparql(query, false);
  ASSERT_TRUE(routed.ok() && base.ok());
  EXPECT_TRUE(routed->used_view);
  EXPECT_FALSE(base->used_view);
  ExpectSameAnswers(std::move(base->result), std::move(routed->result),
                    "ad-hoc filtered query");
}

TEST_F(AdHocTest, NonFacetQueryFallsBackToBaseGraph) {
  // Different shape (no aggregation over the facet pattern): runs
  // unrewritten, still succeeds.
  auto outcome = engine_.AnswerSparql(
      "PREFIX geo: <http://sofos.example.org/geo#>\n"
      "SELECT ?lang WHERE { ?lang geo:spokenIn ?c } LIMIT 5");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->used_view);
  EXPECT_GT(outcome->result.NumRows(), 0u);
}

TEST_F(AdHocTest, ParseErrorsSurface) {
  auto outcome = engine_.AnswerSparql("SELECT WHERE broken {");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kParseError);
}

// ------------------------------------------------- routing with model

TEST(RoutingTest, RoutingModelOverridesDefault) {
  SofosEngine engine;
  SetUpEngine(&engine, "geopop");
  MustProfile(&engine);
  ASSERT_TRUE(
      engine.MaterializeViews({engine.facet().FullMask(), 0b0011}).ok());

  core::WorkloadQuery query;
  query.id = "apex";
  query.signature.group_mask = 0;
  query.sparql =
      "PREFIX geo: <http://sofos.example.org/geo#>\n"
      "SELECT (SUM(?pop) AS ?agg) WHERE {\n"
      "  ?obs geo:country ?country . ?obs geo:language ?language .\n"
      "  ?obs geo:year ?year . ?obs geo:population ?pop .\n"
      "  ?country geo:partOf ?continent . }";

  // Default routing: fewest rows → {continent,country}.
  auto def = engine.Answer(query, true);
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(def->view_mask, 0b0011u);

  // A perverse user-defined router that prefers the full view.
  core::UserDefinedCostModel prefer_full(
      {{engine.facet().FullMask(), 1.0}, {0b0011, 100.0}}, 1e6, 1e9);
  auto forced = engine.Answer(query, true, &prefer_full);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced->view_mask, engine.facet().FullMask());
}

}  // namespace
}  // namespace sofos
