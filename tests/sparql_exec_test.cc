#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "sparql/delta_join.h"
#include "sparql/query_engine.h"
#include "tests/test_util.h"

namespace sofos {
namespace {

using sparql::BgpVariables;
using sparql::EvaluateSeededBgp;
using sparql::PatternPatch;
using sparql::PatternTerm;
using sparql::QueryEngine;
using sparql::QueryResult;
using sparql::Row;
using sparql::SeededJoinResult;
using sparql::TriplePattern;
using sparql::VariableTable;
using testing::BuildFigure1Graph;
using testing::MustExecute;

Term Ex(const std::string& s) { return Term::Iri("http://example.org/" + s); }

class Figure1Test : public ::testing::Test {
 protected:
  void SetUp() override { BuildFigure1Graph(&store_); }
  TripleStore store_;
};

TEST_F(Figure1Test, SingleWildcardPattern) {
  QueryResult r = MustExecute(&store_, "SELECT ?s ?p ?o WHERE { ?s ?p ?o }");
  EXPECT_EQ(r.NumRows(), store_.NumTriples());
  EXPECT_EQ(r.NumCols(), 3u);
}

TEST_F(Figure1Test, BoundPredicateScan) {
  QueryResult r = MustExecute(
      &store_, "SELECT ?c ?l WHERE { ?c <http://example.org/language> ?l }");
  EXPECT_EQ(r.NumRows(), 5u);  // Canada has two languages
}

TEST_F(Figure1Test, BoundObjectScan) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c WHERE { ?c <http://example.org/language> \"French\" }");
  ASSERT_EQ(r.NumRows(), 2u);  // France, Canada
}

TEST_F(Figure1Test, JoinTwoPatterns) {
  // Countries in the EU with their language.
  QueryResult r = MustExecute(&store_,
                              "SELECT ?c ?l WHERE { "
                              "?c <http://example.org/partOf> <http://example.org/EU> . "
                              "?c <http://example.org/language> ?l }");
  EXPECT_EQ(r.NumRows(), 3u);  // France, Germany, Italy
}

TEST_F(Figure1Test, ThreeWayJoin) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?name ?pop WHERE { "
      "?c <http://example.org/language> \"French\" . "
      "?c <http://example.org/name> ?name . "
      "?c <http://example.org/population> ?pop }");
  ASSERT_EQ(r.NumRows(), 2u);
}

TEST_F(Figure1Test, EmptyResultForAbsentConstant) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c WHERE { ?c <http://example.org/language> \"Klingon\" }");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(Figure1Test, EmptyResultForAbsentPredicate) {
  QueryResult r = MustExecute(
      &store_, "SELECT ?c WHERE { ?c <http://example.org/nosuch> ?x }");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(Figure1Test, FilterNumericComparison) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c WHERE { ?c <http://example.org/population> ?p . "
      "FILTER(?p > 61000000) }");
  // France (67M), Germany (82M).
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(Figure1Test, FilterIriEquality) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c WHERE { ?c <http://example.org/partOf> ?cont . "
      "FILTER(?cont = <http://example.org/NA>) }");
  EXPECT_EQ(r.NumRows(), 1u);  // Canada
}

TEST_F(Figure1Test, FilterStringEquality) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c WHERE { ?c <http://example.org/language> ?l . "
      "FILTER(?l = \"German\") }");
  EXPECT_EQ(r.NumRows(), 1u);
}

TEST_F(Figure1Test, FilterConjunctionAndDisjunction) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c WHERE { ?c <http://example.org/language> ?l . "
      "?c <http://example.org/population> ?p . "
      "FILTER((?l = \"French\" && ?p > 40000000) || ?l = \"Italian\") }");
  // France (French, 67M) and Italy.
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(Figure1Test, FilterNegation) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c ?l WHERE { ?c <http://example.org/language> ?l . "
      "FILTER(!(?l = \"French\")) }");
  EXPECT_EQ(r.NumRows(), 3u);  // German, Italian, English
}

TEST_F(Figure1Test, FilterArithmetic) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c WHERE { ?c <http://example.org/population> ?p . "
      "FILTER(?p / 1000000 >= 80) }");
  EXPECT_EQ(r.NumRows(), 1u);  // Germany
}

TEST_F(Figure1Test, FilterRegex) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c WHERE { ?c <http://example.org/name> ?n . "
      "FILTER(REGEX(?n, \"^It\")) }");
  EXPECT_EQ(r.NumRows(), 1u);
}

TEST_F(Figure1Test, FilterTypeErrorDropsRow) {
  // Comparing a string-valued language with a number is a type error; SPARQL
  // drops those rows rather than failing the query.
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?c WHERE { ?c <http://example.org/language> ?l . FILTER(?l > 5) }");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(Figure1Test, DistinctDeduplicates) {
  QueryResult all = MustExecute(
      &store_, "SELECT ?cont WHERE { ?c <http://example.org/partOf> ?cont }");
  QueryResult distinct = MustExecute(
      &store_,
      "SELECT DISTINCT ?cont WHERE { ?c <http://example.org/partOf> ?cont }");
  EXPECT_EQ(all.NumRows(), 4u);
  EXPECT_EQ(distinct.NumRows(), 2u);  // EU, NA
}

TEST_F(Figure1Test, OrderByAscendingAndDescending) {
  sparql::QueryEngine engine(&store_);
  auto asc = engine.Execute(
      "SELECT DISTINCT ?p WHERE { ?c <http://example.org/population> ?p } "
      "ORDER BY ?p");
  ASSERT_TRUE(asc.ok());
  ASSERT_EQ(asc->NumRows(), 4u);
  EXPECT_EQ(asc->rows[0][0].AsInt64().value(), 37000000);
  EXPECT_EQ(asc->rows[3][0].AsInt64().value(), 82000000);

  auto desc = engine.Execute(
      "SELECT DISTINCT ?p WHERE { ?c <http://example.org/population> ?p } "
      "ORDER BY DESC(?p)");
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->rows[0][0].AsInt64().value(), 82000000);
}

TEST_F(Figure1Test, LimitAndOffset) {
  sparql::QueryEngine engine(&store_);
  auto r = engine.Execute(
      "SELECT DISTINCT ?p WHERE { ?c <http://example.org/population> ?p } "
      "ORDER BY ?p LIMIT 2 OFFSET 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 2u);
  EXPECT_EQ(r->rows[0][0].AsInt64().value(), 60000000);
  EXPECT_EQ(r->rows[1][0].AsInt64().value(), 67000000);
}

TEST_F(Figure1Test, SelectStarBindsAllPatternVars) {
  QueryResult r = MustExecute(
      &store_, "SELECT * WHERE { ?c <http://example.org/language> ?l }");
  EXPECT_EQ(r.NumCols(), 2u);
}

TEST_F(Figure1Test, ProjectionExpression) {
  sparql::QueryEngine engine(&store_);
  auto r = engine.Execute(
      "SELECT ?c ((?p / 1000000) AS ?millions) WHERE "
      "{ ?c <http://example.org/population> ?p } ORDER BY DESC(?millions) LIMIT 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble().value(), 82.0);
}

TEST_F(Figure1Test, RepeatedVariableInPattern) {
  // ?x partOf ?x can never match (no reflexive edges).
  QueryResult r = MustExecute(
      &store_, "SELECT ?x WHERE { ?x <http://example.org/partOf> ?x }");
  EXPECT_EQ(r.NumRows(), 0u);

  // Add a reflexive edge and re-finalize: now exactly one row.
  store_.Add(Ex("Loop"), Ex("partOf"), Ex("Loop"));
  store_.Finalize();
  QueryResult r2 = MustExecute(
      &store_, "SELECT ?x WHERE { ?x <http://example.org/partOf> ?x }");
  EXPECT_EQ(r2.NumRows(), 1u);
}

TEST_F(Figure1Test, CrossProductWhenDisconnected) {
  QueryResult r = MustExecute(
      &store_,
      "SELECT ?a ?b WHERE { ?a <http://example.org/partOf> <http://example.org/NA> . "
      "?b <http://example.org/partOf> <http://example.org/EU> }");
  EXPECT_EQ(r.NumRows(), 3u);  // 1 x 3
}

TEST_F(Figure1Test, ExplainShowsPlan) {
  QueryEngine engine(&store_);
  auto explain = engine.Explain(
      "SELECT ?c WHERE { ?c <http://example.org/language> \"French\" . "
      "?c <http://example.org/population> ?p . FILTER(?p > 1) }");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("SCAN"), std::string::npos);
  EXPECT_NE(explain->find("IJOIN"), std::string::npos);
  EXPECT_NE(explain->find("FILTER"), std::string::npos);
}

TEST_F(Figure1Test, PlannerStartsWithMostSelectivePattern) {
  QueryEngine engine(&store_);
  // "language French" (2 rows) is more selective than "population ?p" (4
  // subjects / 5 rows); it must be scanned first.
  auto explain = engine.Explain(
      "SELECT ?c WHERE { ?c <http://example.org/population> ?p . "
      "?c <http://example.org/language> \"French\" }");
  ASSERT_TRUE(explain.ok());
  size_t scan_pos = explain->find("SCAN");
  ASSERT_NE(scan_pos, std::string::npos);
  EXPECT_NE(explain->find("French", scan_pos), std::string::npos);
}

TEST_F(Figure1Test, StatsCountScannedRows) {
  QueryEngine engine(&store_);
  auto r = engine.Execute("SELECT ?s ?p ?o WHERE { ?s ?p ?o }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.rows_scanned, store_.NumTriples());
  EXPECT_EQ(r->stats.output_rows, store_.NumTriples());
}

TEST_F(Figure1Test, ErrorUnfinalizedStore) {
  TripleStore fresh;
  fresh.Add(Ex("a"), Ex("b"), Ex("c"));
  QueryEngine engine(&fresh);
  auto r = engine.Execute("SELECT ?s WHERE { ?s ?p ?o }");
  EXPECT_FALSE(r.ok());
}

TEST_F(Figure1Test, ErrorParseFailurePropagates) {
  QueryEngine engine(&store_);
  EXPECT_FALSE(engine.Execute("SELEC ?s WHERE { ?s ?p ?o }").ok());
}

TEST_F(Figure1Test, ResultToTableRenders) {
  QueryResult r = MustExecute(
      &store_, "SELECT ?c WHERE { ?c <http://example.org/language> \"French\" }");
  std::string table = r.ToTable();
  EXPECT_NE(table.find("?c"), std::string::npos);
  EXPECT_NE(table.find("France"), std::string::npos);
}

/// Patched-scan oracle for EvaluateSeededBgp: evaluating a seeded sub-BGP
/// with every remaining pattern patched by an effective delta must equal,
/// row for row and in order (seed_index included), the unpatched call on a
/// copy of the store that merged the same delta through ApplyDelta. Random
/// small stores, deltas and sub-BGPs; enough seeds in some trials that the
/// hash-build path runs too.
TEST(SeededBgpPatchTest, PatchedScansMatchMergedStore) {
  Rng rng(20231);
  const int kNodes = 12;
  const int kPreds = 4;
  auto node = [](int i) { return Term::Iri("http://t/n" + std::to_string(i)); };
  auto pred = [](int i) { return Term::Iri("http://t/p" + std::to_string(i)); };
  uint64_t adds_hit = 0, deletes_hit = 0, trials_with_rows = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Two stores interning the same terms in the same order, so ids agree;
    // node kNodes is interned last and only ever appears in adds, so its
    // subject block lies past the base store's directory.
    TripleStore base, merged;
    std::vector<TermId> nodes, preds;
    for (TripleStore* store : {&base, &merged}) {
      nodes.clear();
      preds.clear();
      for (int i = 0; i < kPreds; ++i) preds.push_back(store->Intern(pred(i)));
      for (int i = 0; i <= kNodes; ++i) nodes.push_back(store->Intern(node(i)));
    }
    auto random_triple = [&](int node_count) {
      return Triple{nodes[rng.Uniform(node_count)], rng.Pick(preds),
                    nodes[rng.Uniform(node_count)]};
    };
    std::set<Triple> graph;
    const size_t target = 20 + rng.Uniform(120);
    while (graph.size() < target) graph.insert(random_triple(kNodes));
    for (const Triple& t : graph) {
      base.Add(t.s, t.p, t.o);
      merged.Add(t.s, t.p, t.o);
    }
    base.Finalize();
    merged.Finalize();

    // An effective delta: adds absent from the graph, deletes present.
    std::set<Triple> add_set;
    const size_t num_adds = rng.Uniform(25);
    while (add_set.size() < num_adds) {
      Triple t = random_triple(kNodes + 1);
      if (graph.count(t) == 0) add_set.insert(t);
    }
    std::vector<Triple> adds(add_set.begin(), add_set.end());
    std::vector<Triple> deletes;
    std::vector<Triple> present(graph.begin(), graph.end());
    for (size_t i : rng.SampleIndices(present.size(), rng.Uniform(25))) {
      deletes.push_back(present[i]);
    }
    rng.Shuffle(&adds);  // patch order must not matter
    rng.Shuffle(&deletes);
    for (const Triple& t : adds) merged.StageAdd(t.s, t.p, t.o);
    for (const Triple& t : deletes) merged.StageDelete(t.s, t.p, t.o);
    merged.ApplyDelta();
    const PatternPatch delta(adds, deletes);

    // A random BGP of 2-4 patterns over four variables and constants.
    const char* var_names[] = {"a", "b", "c", "d"};
    std::vector<TriplePattern> patterns(2 + rng.Uniform(3));
    for (TriplePattern& tp : patterns) {
      auto position = [&](bool predicate) {
        if (rng.Chance(0.65)) {
          return PatternTerm::Var(var_names[rng.Uniform(predicate ? 1 : 4) +
                                            (predicate ? 3 : 0)]);
        }
        return PatternTerm::Const(predicate ? pred(rng.Uniform(kPreds))
                                            : node(rng.Uniform(kNodes + 1)));
      };
      tp.s = position(false);
      tp.p = position(true);
      tp.o = position(false);
    }
    const VariableTable vars = BgpVariables(patterns);
    // Pattern 0 plays the seeded (already matched) pattern.
    std::vector<size_t> remaining;
    for (size_t j = 1; j < patterns.size(); ++j) remaining.push_back(j);
    std::vector<int> bound_slots;
    for (const PatternTerm* term : {&patterns[0].s, &patterns[0].p,
                                    &patterns[0].o}) {
      if (term->is_var()) bound_slots.push_back(*vars.Get(term->var()));
    }
    std::sort(bound_slots.begin(), bound_slots.end());
    bound_slots.erase(std::unique(bound_slots.begin(), bound_slots.end()),
                      bound_slots.end());
    std::vector<Row> seeds(rng.Chance(0.5) ? 1 + rng.Uniform(8)
                                           : 64 + rng.Uniform(200));
    for (Row& seed : seeds) {
      seed.assign(vars.size(), kNullTermId);
      for (int slot : bound_slots) {
        seed[static_cast<size_t>(slot)] =
            vars.names()[static_cast<size_t>(slot)] == "d"
                ? rng.Pick(preds)
                : nodes[rng.Uniform(kNodes + 1)];
      }
    }

    std::vector<const PatternPatch*> patches(patterns.size(), &delta);
    SOFOS_ASSERT_OK_AND_ASSIGN(
        SeededJoinResult patched,
        EvaluateSeededBgp(base, vars, patterns, remaining, bound_slots, seeds,
                          patches));
    SOFOS_ASSERT_OK_AND_ASSIGN(
        SeededJoinResult oracle,
        EvaluateSeededBgp(merged, vars, patterns, remaining, bound_slots,
                          seeds));
    ASSERT_EQ(patched.rows, oracle.rows);
    ASSERT_EQ(patched.seed_index, oracle.seed_index);

    // Coverage: the delta must change answers in both directions.
    SOFOS_ASSERT_OK_AND_ASSIGN(
        SeededJoinResult before,
        EvaluateSeededBgp(base, vars, patterns, remaining, bound_slots, seeds));
    std::map<Row, int> diff;
    for (const Row& row : patched.rows) ++diff[row];
    for (const Row& row : before.rows) --diff[row];
    bool gained = false, lost = false;
    for (const auto& [row, count] : diff) {
      (void)row;
      gained |= count > 0;
      lost |= count < 0;
    }
    adds_hit += gained ? 1 : 0;
    deletes_hit += lost ? 1 : 0;
    trials_with_rows += patched.rows.empty() ? 0 : 1;
  }
  EXPECT_GT(adds_hit, 10u);
  EXPECT_GT(deletes_hit, 10u);
  EXPECT_GT(trials_with_rows, 50u);
}

}  // namespace
}  // namespace sofos
