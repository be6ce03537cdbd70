#include "gtest/gtest.h"
#include "sparql/query_engine.h"
#include "tests/test_util.h"

namespace sofos {
namespace {

using sparql::QueryResult;
using testing::BuildFigure1Graph;
using testing::MustExecute;

class AggTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildFigure1Graph(&store_); }

  /// Finds the row whose first column equals `key` and returns column 1.
  static const Term& Lookup(const QueryResult& r, const Term& key) {
    for (size_t i = 0; i < r.rows.size(); ++i) {
      if (r.rows[i][0] == key) return r.rows[i][1];
    }
    ADD_FAILURE() << "key not found: " << key.ToNTriples();
    static Term dummy;
    return dummy;
  }

  TripleStore store_;
};

TEST_F(AggTest, CountStarNoGroup) {
  QueryResult r = MustExecute(
      &store_, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64().value(),
            static_cast<int64_t>(store_.NumTriples()));
}

TEST_F(AggTest, CountGroupedByLanguage) {
  // Paper Example 1.1: "in how many countries is French an official
  // language?"
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?l (COUNT(?c) AS ?n) WHERE { "
      "?c <http://example.org/language> ?l } GROUP BY ?l");
  ASSERT_EQ(r.NumRows(), 4u);  // French, German, Italian, English
  EXPECT_EQ(Lookup(r, Term::String("French")).AsInt64().value(), 2);
  EXPECT_EQ(Lookup(r, Term::String("German")).AsInt64().value(), 1);
}

TEST_F(AggTest, SumGroupedByLanguage) {
  // Paper Example 1.1: "total amount of French-speaking population".
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?l (SUM(?p) AS ?total) WHERE { "
      "?c <http://example.org/language> ?l . "
      "?c <http://example.org/population> ?p } GROUP BY ?l");
  EXPECT_EQ(Lookup(r, Term::String("French")).AsInt64().value(),
            67000000 + 37000000);
  EXPECT_EQ(Lookup(r, Term::String("English")).AsInt64().value(), 37000000);
}

TEST_F(AggTest, AvgProducesDouble) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT (AVG(?p) AS ?avg) WHERE { "
      "?c <http://example.org/population> ?p . "
      "?c <http://example.org/partOf> <http://example.org/EU> }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble().value(),
                   (67000000.0 + 82000000.0 + 60000000.0) / 3.0);
}

TEST_F(AggTest, MinMax) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) WHERE { "
      "?c <http://example.org/population> ?p }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64().value(), 37000000);
  EXPECT_EQ(r.rows[0][1].AsInt64().value(), 82000000);
}

TEST_F(AggTest, MinMaxOnStrings) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT (MIN(?l) AS ?first) (MAX(?l) AS ?last) WHERE { "
      "?c <http://example.org/language> ?l }");
  EXPECT_EQ(r.rows[0][0].lexical(), "English");
  EXPECT_EQ(r.rows[0][1].lexical(), "Italian");
}

TEST(AggOrderTest, MinMaxCompareLargeIntegersExactly) {
  // 2^53 + 1 and 2^53 are distinct integers that round to the same double.
  TripleStore store;
  store.Add(Term::Iri("http://t/a"), Term::Iri("http://t/v"),
            Term::Integer(9007199254740993));
  store.Add(Term::Iri("http://t/b"), Term::Iri("http://t/v"),
            Term::Integer(9007199254740992));
  store.Finalize();
  QueryResult r = MustExecute(
      &store, "SELECT (MIN(?v) AS ?m) (MAX(?v) AS ?x) WHERE { ?s <http://t/v> ?v }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0], Term::Integer(9007199254740992));
  EXPECT_EQ(r.rows[0][1], Term::Integer(9007199254740993));
}

TEST(AggOrderTest, MinMaxOfEqualIntegerAndDoubleIgnoreStreamOrder) {
  // "1"^^xsd:integer and "1"^^xsd:double are equal numbers but distinct
  // terms: MIN keeps the integer and MAX the double, whichever the scan
  // meets first.
  for (bool integer_first : {true, false}) {
    TripleStore store;
    store.Add(Term::Iri("http://t/a"), Term::Iri("http://t/v"),
              integer_first ? Term::Integer(1) : Term::Double(1.0));
    store.Add(Term::Iri("http://t/b"), Term::Iri("http://t/v"),
              integer_first ? Term::Double(1.0) : Term::Integer(1));
    store.Finalize();
    QueryResult r = MustExecute(
        &store,
        "SELECT (MIN(?v) AS ?m) (MAX(?v) AS ?x) WHERE { ?s <http://t/v> ?v }");
    ASSERT_EQ(r.NumRows(), 1u);
    EXPECT_EQ(r.rows[0][0], Term::Integer(1)) << integer_first;
    EXPECT_EQ(r.rows[0][1], Term::Double(1.0)) << integer_first;
  }
}

TEST_F(AggTest, CountDistinct) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT (COUNT(DISTINCT ?cont) AS ?n) WHERE { "
      "?c <http://example.org/partOf> ?cont }");
  EXPECT_EQ(r.rows[0][0].AsInt64().value(), 2);
}

TEST_F(AggTest, SumDistinctDeduplicates) {
  // Canada appears twice (two languages); DISTINCT sums its population once.
  QueryResult plain = MustExecute(
      &store_,
      "SELECT (SUM(?p) AS ?t) WHERE { ?c <http://example.org/language> ?l . "
      "?c <http://example.org/population> ?p . "
      "?c <http://example.org/partOf> <http://example.org/NA> }");
  QueryResult distinct = MustExecute(
      &store_,
      "SELECT (SUM(DISTINCT ?p) AS ?t) WHERE { ?c <http://example.org/language> ?l . "
      "?c <http://example.org/population> ?p . "
      "?c <http://example.org/partOf> <http://example.org/NA> }");
  EXPECT_EQ(plain.rows[0][0].AsInt64().value(), 74000000);
  EXPECT_EQ(distinct.rows[0][0].AsInt64().value(), 37000000);
}

TEST_F(AggTest, GroupByTwoVariables) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?cont ?l (COUNT(*) AS ?n) WHERE { "
      "?c <http://example.org/partOf> ?cont . "
      "?c <http://example.org/language> ?l } GROUP BY ?cont ?l");
  // (EU,French) (EU,German) (EU,Italian) (NA,French) (NA,English)
  EXPECT_EQ(r.NumRows(), 5u);
}

TEST_F(AggTest, AggregateOverEmptyInputCountZero) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT (COUNT(*) AS ?n) (SUM(?p) AS ?s) WHERE { "
      "?c <http://example.org/language> \"Klingon\" . "
      "?c <http://example.org/population> ?p }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64().value(), 0);
  EXPECT_EQ(r.rows[0][1].AsInt64().value(), 0);  // SUM of empty = 0
}

TEST_F(AggTest, AvgOverEmptyInputUnbound) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT (AVG(?p) AS ?a) WHERE { "
      "?c <http://example.org/language> \"Klingon\" . "
      "?c <http://example.org/population> ?p }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_FALSE(r.bound[0][0]);
}

TEST_F(AggTest, GroupedQueryOverEmptyInputHasNoRows) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?l (COUNT(*) AS ?n) WHERE { "
      "?c <http://example.org/language> \"Klingon\" . "
      "?c <http://example.org/language> ?l } GROUP BY ?l");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(AggTest, HavingFiltersGroups) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?l (COUNT(?c) AS ?n) WHERE { "
      "?c <http://example.org/language> ?l } GROUP BY ?l HAVING (COUNT(?c) > 1)");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].lexical(), "French");
}

TEST_F(AggTest, ExpressionOverAggregates) {
  // The AVG roll-up shape the view rewriter emits: SUM(x)/SUM(y).
  QueryResult r = MustExecute(
      &store_,
      "SELECT ((SUM(?p) / COUNT(?p)) AS ?avg) WHERE { "
      "?c <http://example.org/population> ?p . "
      "?c <http://example.org/partOf> <http://example.org/EU> }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble().value(),
                   (67000000.0 + 82000000.0 + 60000000.0) / 3.0);
}

TEST_F(AggTest, SumOfDoublesIsDouble) {
  store_.Add(Term::Iri("http://example.org/X"),
             Term::Iri("http://example.org/score"), Term::Double(1.5));
  store_.Add(Term::Iri("http://example.org/Y"),
             Term::Iri("http://example.org/score"), Term::Double(2.25));
  store_.Finalize();
  QueryResult r = MustExecute(
      &store_,
      "SELECT (SUM(?s) AS ?t) WHERE { ?x <http://example.org/score> ?s }");
  EXPECT_EQ(r.rows[0][0].datatype(), Term::Datatype::kDouble);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble().value(), 3.75);
}

TEST_F(AggTest, SumSkipsNonNumericValues) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT (SUM(?l) AS ?t) (COUNT(?l) AS ?n) WHERE { "
      "?c <http://example.org/language> ?l }");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64().value(), 0);  // strings don't sum
  EXPECT_EQ(r.rows[0][1].AsInt64().value(), 5);  // but they do count
}

TEST_F(AggTest, OrderByAggregateAlias) {
  sparql::QueryEngine engine(&store_);
  auto r = engine.Execute(
      "SELECT ?l (SUM(?p) AS ?total) WHERE { "
      "?c <http://example.org/language> ?l . "
      "?c <http://example.org/population> ?p } GROUP BY ?l "
      "ORDER BY DESC(?total) LIMIT 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->rows[0][0].lexical(), "French");
}

TEST_F(AggTest, ErrorUngroupedVariableProjected) {
  sparql::QueryEngine engine(&store_);
  auto r = engine.Execute(
      "SELECT ?c (COUNT(*) AS ?n) WHERE { ?c <http://example.org/language> ?l } "
      "GROUP BY ?l");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AggTest, ErrorGroupByUnknownVariable) {
  sparql::QueryEngine engine(&store_);
  auto r = engine.Execute(
      "SELECT ?z (COUNT(*) AS ?n) WHERE { ?c <http://example.org/language> ?l } "
      "GROUP BY ?z");
  EXPECT_FALSE(r.ok());
}

TEST_F(AggTest, ErrorAggregateInWhereFilter) {
  sparql::QueryEngine engine(&store_);
  auto r = engine.Execute(
      "SELECT ?c WHERE { ?c <http://example.org/language> ?l . "
      "FILTER(COUNT(?l) > 1) }");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace sofos
