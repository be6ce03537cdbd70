#include "sparql/planner.h"

#include "gtest/gtest.h"
#include "sparql/parser.h"
#include "tests/test_util.h"

namespace sofos {
namespace sparql {
namespace {

Term Ex(const std::string& s) { return Term::Iri("http://ex/" + s); }

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A graph with skewed predicate cardinalities: p_common has 100
    // triples, p_rare has 2.
    for (int i = 0; i < 100; ++i) {
      store_.Add(Ex("s" + std::to_string(i)), Ex("p_common"), Ex("o"));
    }
    store_.Add(Ex("s1"), Ex("p_rare"), Ex("x"));
    store_.Add(Ex("s2"), Ex("p_rare"), Ex("y"));
    store_.Finalize();
  }

  Plan MustPlan(const std::string& text) {
    auto query = Parser::Parse(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    query_ = std::move(query).value();
    auto plan = Planner::Build(&query_, store_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(plan).value();
  }

  TripleStore store_;
  Query query_;  // must outlive the plan
};

TEST_F(PlannerTest, StartsWithSmallestPattern) {
  Plan plan = MustPlan(
      "SELECT ?s WHERE { ?s <http://ex/p_common> ?a . ?s <http://ex/p_rare> ?b }");
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].pattern.p.term().lexical(), "http://ex/p_rare");
  EXPECT_EQ(plan.steps[0].est_cardinality, 2u);
  EXPECT_EQ(plan.steps[1].est_cardinality, 100u);
}

TEST_F(PlannerTest, PrefersConnectedPatterns) {
  // Even though the second p_rare pattern is small, the planner must join
  // connected patterns before jumping to a disconnected one.
  Plan plan = MustPlan(
      "SELECT ?s WHERE { ?s <http://ex/p_rare> ?a . "
      "?s <http://ex/p_common> ?b . ?z <http://ex/p_rare> ?w }");
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_TRUE(plan.steps[1].connected);
  EXPECT_EQ(plan.steps[1].pattern.p.term().lexical(), "http://ex/p_common");
  EXPECT_FALSE(plan.steps[2].connected) << "cross product must be flagged";
}

TEST_F(PlannerTest, EmptyGuaranteedWhenConstantMissing) {
  Plan plan = MustPlan("SELECT ?s WHERE { ?s <http://ex/never_seen> ?o }");
  EXPECT_TRUE(plan.empty_guaranteed);
}

TEST_F(PlannerTest, FiltersPushedToEarliestStep) {
  Plan plan = MustPlan(
      "SELECT ?s WHERE { ?s <http://ex/p_rare> ?a . ?s <http://ex/p_common> ?b . "
      "FILTER(?a = <http://ex/x>) FILTER(?b = <http://ex/o>) }");
  ASSERT_EQ(plan.steps.size(), 2u);
  // ?a is bound after step 0 (the p_rare scan), ?b only after step 1.
  ASSERT_EQ(plan.steps[0].filters.size(), 1u);
  ASSERT_EQ(plan.steps[1].filters.size(), 1u);
}

TEST_F(PlannerTest, ExplainMentionsEveryStage) {
  Plan plan = MustPlan(
      "SELECT DISTINCT ?s (COUNT(?b) AS ?n) WHERE { ?s <http://ex/p_common> ?b . "
      "FILTER(?s != <http://ex/s1>) } GROUP BY ?s "
      "HAVING (COUNT(?b) > 0) ORDER BY DESC(?n) LIMIT 3 OFFSET 1");
  std::string text = plan.ToString();
  EXPECT_NE(text.find("SCAN"), std::string::npos);
  EXPECT_NE(text.find("FILTER"), std::string::npos);
  EXPECT_NE(text.find("AGGREGATE"), std::string::npos);
  EXPECT_NE(text.find("HAVING"), std::string::npos);
  EXPECT_NE(text.find("PROJECT"), std::string::npos);
  EXPECT_NE(text.find("DISTINCT"), std::string::npos);
  EXPECT_NE(text.find("ORDER BY"), std::string::npos);
  EXPECT_NE(text.find("SLICE"), std::string::npos);
}

TEST_F(PlannerTest, EstimatesAreExactForBoundPatterns) {
  Plan plan = MustPlan(
      "SELECT ?o WHERE { <http://ex/s1> <http://ex/p_rare> ?o }");
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].est_cardinality, 1u);
}

TEST_F(PlannerTest, AggSlotsAssignedInDiscoveryOrder) {
  Plan plan = MustPlan(
      "SELECT ?s (SUM(?b) AS ?x) (COUNT(?b) AS ?y) WHERE { "
      "?s <http://ex/p_common> ?b } GROUP BY ?s");
  ASSERT_EQ(plan.agg_specs.size(), 2u);
  EXPECT_EQ(plan.agg_specs[0]->agg, AggKind::kSum);
  EXPECT_EQ(plan.agg_specs[0]->agg_slot, 0);
  EXPECT_EQ(plan.agg_specs[1]->agg, AggKind::kCount);
  EXPECT_EQ(plan.agg_specs[1]->agg_slot, 1);
}

TEST_F(PlannerTest, BareAggregatesProjectBySlot) {
  // Aggregate output rows are [group vars..., aggregates...]; a bare
  // aggregate select item copies its slot, an expression over one is
  // still evaluated.
  Plan plan = MustPlan(
      "SELECT ?s (SUM(?b) AS ?x) (COUNT(?b) + 1 AS ?y) (AVG(?b) AS ?z) "
      "WHERE { ?s <http://ex/p_common> ?b } GROUP BY ?s");
  ASSERT_EQ(plan.outputs.size(), 4u);
  EXPECT_EQ(plan.outputs[0].direct_slot, 0);
  EXPECT_EQ(plan.outputs[1].direct_slot, 1);  // group vars + agg slot 0
  EXPECT_EQ(plan.outputs[1].expr, nullptr);
  EXPECT_EQ(plan.outputs[2].direct_slot, -1);
  EXPECT_NE(plan.outputs[2].expr, nullptr);
  EXPECT_EQ(plan.outputs[3].direct_slot, 3);  // group vars + agg slot 2

  Plan ungrouped = MustPlan(
      "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/p_rare> ?o }");
  ASSERT_EQ(ungrouped.outputs.size(), 1u);
  EXPECT_EQ(ungrouped.outputs[0].direct_slot, 0);
}

TEST_F(PlannerTest, RequiresFinalizedStore) {
  TripleStore fresh;
  fresh.Add(Ex("a"), Ex("b"), Ex("c"));
  auto query = Parser::Parse("SELECT ?s WHERE { ?s ?p ?o }");
  ASSERT_TRUE(query.ok());
  Query q = std::move(query).value();
  EXPECT_FALSE(Planner::Build(&q, fresh).ok());
}

TEST_F(PlannerTest, RejectsEmptyWhere) {
  // The parser cannot produce an empty WHERE, but the planner guards anyway.
  Query q;
  q.select_all = true;
  EXPECT_FALSE(Planner::Build(&q, store_).ok());
}

TEST_F(PlannerTest, SelectStarCannotCombineWithGroupBy) {
  auto query = Parser::Parse(
      "SELECT * WHERE { ?s ?p ?o } GROUP BY ?s");
  ASSERT_TRUE(query.ok());
  Query q = std::move(query).value();
  EXPECT_FALSE(Planner::Build(&q, store_).ok());
}

}  // namespace
}  // namespace sparql
}  // namespace sofos
