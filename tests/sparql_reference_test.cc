/// Property tests pitting the optimizing engine (join reordering, hash
/// joins, filter pushdown, TermId filter kernels, hash aggregation) against
/// the reference evaluator of tests/reference_evaluator.h on randomized
/// graphs and queries. Any divergence is a planner or executor bug.

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "rdf/vocab.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/planner.h"
#include "sparql/query_engine.h"
#include "tests/reference_evaluator.h"

namespace sofos {
namespace sparql {
namespace {

/// Size of a random graph. Small graphs keep a tiny vocabulary so that
/// joins hit and cross products stay cheap; large ones have enough
/// triples per predicate for the planner to choose hash probes.
struct GraphShape {
  int triples;
  int nodes;
  bool large;
};

constexpr GraphShape kSmall{60, 8, false};
constexpr GraphShape kLarge{1500, 150, true};

/// Predicates are skewed (p/0 is eight times as frequent as p/3), so
/// patterns differ in size and a large pattern can precede a smaller one in
/// a join order. Objects mix IRIs, integers, doubles and a few strings. The
/// doubles are dyadic, so every sum of them is exact in any order; one of
/// them is the non-canonical "1.50", beside the canonical "1.5".
TripleStore RandomGraph(Rng* rng, const GraphShape& shape) {
  static const int kPredicateWeights[] = {8, 4, 2, 1};
  static const char* const kDoubles[] = {"0.5", "1.25", "2.75", "1.5", "1.50"};
  static const char* const kStrings[] = {"a", "b", "ab"};
  TripleStore store;
  for (int i = 0; i < shape.triples; ++i) {
    Term s = Term::Iri("http://n/" + std::to_string(rng->Uniform(shape.nodes)));
    int draw = static_cast<int>(rng->Uniform(15));
    int p = 0;
    while (draw >= kPredicateWeights[p]) draw -= kPredicateWeights[p++];
    Term o;
    const double kind = rng->UniformDouble();
    if (kind < 0.55) {
      o = Term::Iri("http://n/" + std::to_string(rng->Uniform(shape.nodes)));
    } else if (kind < 0.82) {
      o = Term::Integer(rng->UniformInt(0, 5));
    } else if (kind < 0.94) {
      // TypedLiteral keeps the lexical form as written.
      o = Term::TypedLiteral(kDoubles[rng->Uniform(5)], vocab::kXsdDouble)
              .value();
    } else {
      o = Term::String(kStrings[rng->Uniform(3)]);
    }
    store.Add(s, Term::Iri("http://p/" + std::to_string(p)), o);
  }
  store.Finalize();
  return store;
}

/// A random query over the graph's vocabulary: 1-3 triple patterns over
/// ?a ?b ?c and constants, an optional FILTER, then either a plain
/// projection (variables, `*`, an unknown variable, a computed expression;
/// optionally DISTINCT) or an aggregation (GROUP BY, possibly repeating a
/// variable, COUNT(*) and
/// COUNT/SUM/AVG/MIN/MAX with or without DISTINCT over a variable or an
/// expression, a computed expression over aggregates, HAVING with one or
/// two constraints), then optional ORDER BY (in an aggregation, possibly
/// by an aggregate the projection drops) and OFFSET/LIMIT.
///
/// On large graphs every predicate is a constant and every pattern after
/// the first shares a variable with an earlier one, so no query is a large
/// cross product.
std::string RandomQuery(Rng* rng, const GraphShape& shape) {
  static const std::vector<std::string> kVars = {"?a", "?b", "?c"};
  auto node = [&] {
    return "<http://n/" + std::to_string(rng->Uniform(shape.nodes)) + ">";
  };
  std::vector<std::string> used;  // pattern variables, first use first

  std::string where;
  const int patterns = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < patterns; ++i) {
    std::string s = rng->Chance(0.7) ? rng->Pick(kVars) : node();
    std::string p = !shape.large && rng->Chance(0.5)
                        ? rng->Pick(kVars)
                        : "<http://p/" + std::to_string(rng->Uniform(4)) + ">";
    std::string o;
    if (rng->Chance(0.6)) {
      o = rng->Pick(kVars);
    } else {
      o = rng->Chance(0.5) ? node() : std::to_string(rng->UniformInt(0, 5));
    }
    if (shape.large && !used.empty()) {
      // Join on a variable an earlier pattern binds.
      const std::string joined = rng->Pick(used);
      if (rng->Chance(0.5)) {
        s = joined;
      } else {
        o = joined;
      }
    }
    for (const std::string* term : {&s, &p, &o}) {
      if ((*term)[0] == '?' &&
          std::find(used.begin(), used.end(), *term) == used.end()) {
        used.push_back(*term);
      }
    }
    where += "  " + s + " " + p + " " + o + " .\n";
  }
  auto var = [&] { return used.empty() ? std::string("?a") : rng->Pick(used); };

  if (rng->Chance(0.4)) {
    switch (rng->Uniform(4)) {
      case 0:
        where += "  FILTER(" + var() + " = " + node() + ")\n";
        break;
      case 1:
        where += "  FILTER(" + var() + " > " +
                 std::to_string(rng->UniformInt(0, 5)) + ")\n";
        break;
      case 2:
        where += "  FILTER(" + var() + " != " + node() + " && " + var() +
                 " <= " + std::to_string(rng->UniformInt(1, 5)) + ")\n";
        break;
      default:
        where += "  FILTER(BOUND(" + var() + "))\n";
    }
  }

  static const char* const kAggs[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};
  static const char* const kComputed[] = {"(%s + 1)", "STR(%s)", "ABS(%s)",
                                          "(%s * 2)"};
  // An aggregate argument: mostly a variable, which the engine reads from
  // its column, sometimes an expression, which goes through ExprEvaluator.
  auto argument = [&] {
    if (!rng->Chance(0.25)) return var();
    const std::string form = kComputed[rng->Uniform(4)];
    const size_t at = form.find("%s");
    return form.substr(0, at) + var() + form.substr(at + 2);
  };

  std::vector<std::string> items;    // select clause entries
  std::vector<std::string> columns;  // their output names
  std::string tail;
  bool aggregated = false;
  if (rng->Chance(0.55)) {
    aggregated = true;
    std::vector<std::string> group = used;
    rng->Shuffle(&group);
    group.resize(std::min<size_t>(group.size(), rng->Uniform(3)));
    for (const std::string& g : group) {
      items.push_back(g);
      columns.push_back(g);
    }
    auto aggregate = [&] {
      if (rng->Chance(0.15)) return std::string("COUNT(*)");
      return std::string(kAggs[rng->Uniform(5)]) + "(" +
             (rng->Chance(0.3) ? "DISTINCT " : "") + argument() + ")";
    };
    const int aggs = 1 + static_cast<int>(rng->Uniform(3));
    for (int i = 0; i < aggs; ++i) {
      const std::string name = "?agg" + std::to_string(i);
      items.push_back("(" + aggregate() + " AS " + name + ")");
      columns.push_back(name);
    }
    if (rng->Chance(0.25)) {
      items.push_back("(" + aggregate() + " * 2 + " + aggregate() +
                      " AS ?expr)");
      columns.push_back("?expr");
    }
    if (!group.empty()) {
      tail += " GROUP BY";
      for (const std::string& g : group) tail += " " + g;
      // SPARQL lets GROUP BY repeat a variable; the group row then has a
      // column per entry.
      if (rng->Chance(0.15)) tail += " " + group.front();
    }
    if (rng->Chance(0.4)) {
      static const char* const kOps[] = {">", ">=", "<", "!="};
      tail += " HAVING";
      const int constraints = 1 + static_cast<int>(rng->Uniform(2));
      for (int i = 0; i < constraints; ++i) {
        tail += " (" + aggregate() + " " + kOps[rng->Uniform(4)] + " " +
                std::to_string(rng->UniformInt(0, 4)) + ")";
      }
    }
  } else if (rng->Chance(0.15) && !used.empty()) {
    items.push_back("*");
    columns = used;
  } else {
    for (const std::string& v : kVars) {
      if (rng->Chance(0.6)) {
        items.push_back(v);
        columns.push_back(v);
      }
    }
    if (rng->Chance(0.15)) {
      items.push_back("?ghost");
      columns.push_back("?ghost");
    }
    if (items.empty() || rng->Chance(0.25)) {
      items.push_back("(" + var() + " + 1 AS ?expr)");
      columns.push_back("?expr");
    }
  }

  const bool slice = rng->Chance(0.35);
  if (rng->Chance(0.4)) {
    // Under a slice the keys order every column: rows tied on all of them
    // are equal, so the cut cannot tell engine and reference apart.
    std::vector<std::string> keys = columns;
    rng->Shuffle(&keys);
    if (!slice) keys.resize(1 + rng->Uniform(keys.size()));
    if (aggregated && rng->Chance(0.4)) {
      // An aggregate the projection drops.
      keys.insert(keys.begin() + static_cast<long>(rng->Uniform(keys.size() + 1)),
                  "(" + std::string(kAggs[rng->Uniform(5)]) + "(" + argument() +
                      "))");
    }
    tail += " ORDER BY";
    for (const std::string& key : keys) {
      tail += rng->Chance(0.5) ? " " + key : " DESC(" + key + ")";
    }
  }
  if (slice) {
    if (rng->Chance(0.7)) tail += " LIMIT " + std::to_string(rng->Uniform(6));
    if (rng->Chance(0.6)) {
      tail += " OFFSET " + std::to_string(1 + rng->Uniform(3));
    }
  }

  std::string select = rng->Chance(0.25) ? "SELECT DISTINCT" : "SELECT";
  for (const std::string& item : items) select += " " + item;
  return select + " WHERE {\n" + where + "}" + tail;
}

/// How often each query shape ran, so the test can assert that the shapes
/// it claims to cover occurred.
struct ShapeCounts {
  int group_by = 0;
  int group_by_repeated = 0;  // a GROUP BY naming a variable twice
  int having = 0;
  std::array<int, 5> agg_kinds{};  // indexed by AggKind
  int distinct_agg = 0;
  int order_by = 0;
  int order_by_aggregate = 0;  // an ORDER BY key holding an aggregate
  int limit = 0;
  int offset = 0;
  int hash_probe = 0;
};

void CountAggregates(const Expr* expr, ShapeCounts* counts) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kAggregate) {
    ++counts->agg_kinds[static_cast<size_t>(expr->agg)];
    if (expr->agg_distinct) ++counts->distinct_agg;
    return;
  }
  CountAggregates(expr->lhs.get(), counts);
  CountAggregates(expr->rhs.get(), counts);
  CountAggregates(expr->operand.get(), counts);
  for (const auto& arg : expr->args) CountAggregates(arg.get(), counts);
}

void CountShape(const std::string& text, const TripleStore& store,
                ShapeCounts* counts) {
  auto query = Parser::Parse(text);
  ASSERT_TRUE(query.ok()) << text;
  if (!query->group_by.empty()) ++counts->group_by;
  std::vector<std::string> grouped = query->group_by;
  std::sort(grouped.begin(), grouped.end());
  if (std::adjacent_find(grouped.begin(), grouped.end()) != grouped.end()) {
    ++counts->group_by_repeated;
  }
  if (!query->having.empty()) ++counts->having;
  if (!query->order_by.empty()) ++counts->order_by;
  for (const OrderKey& key : query->order_by) {
    if (key.expr->ContainsAggregate()) {
      ++counts->order_by_aggregate;
      break;
    }
  }
  if (query->limit >= 0) ++counts->limit;
  if (query->offset > 0) ++counts->offset;
  for (const SelectItem& item : query->select) {
    CountAggregates(item.expr.get(), counts);
  }
  for (const ExprPtr& having : query->having) {
    CountAggregates(having.get(), counts);
  }
  auto plan = Planner::Build(&*query, store);
  ASSERT_TRUE(plan.ok()) << text;
  for (const PatternStep& step : plan->steps) {
    if (step.algo == JoinAlgo::kHashProbe) {
      ++counts->hash_probe;
      break;
    }
  }
}

TEST(ReferenceAgreementTest, RandomQueriesMatchReference) {
  struct Seed {
    uint64_t seed;
    GraphShape shape;
    int trials;
  };
  const Seed seeds[] = {{101, kSmall, 40}, {202, kSmall, 40},
                        {303, kSmall, 40}, {404, kSmall, 40},
                        {505, kSmall, 40}, {606, kSmall, 40},
                        {707, kLarge, 80}, {808, kLarge, 80},
                        {909, kLarge, 80}};
  ShapeCounts counts;
  testing::AggregateCoverage coverage;
  for (const Seed& seed : seeds) {
    Rng rng(seed.seed);
    TripleStore store = RandomGraph(&rng, seed.shape);
    for (int trial = 0; trial < seed.trials; ++trial) {
      const std::string query = RandomQuery(&rng, seed.shape);
      const std::string context =
          "seed " + std::to_string(seed.seed) + " trial " +
          std::to_string(trial) + ":\n" + query;
      QueryEngine engine(&store);
      auto actual = engine.Execute(query);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString() << "\n"
                               << context;
      testing::ExpectMatchesReference(*actual, query, &store, context);
      CountShape(query, store, &counts);
      // Coverage is counted on a second evaluation, so the comparison
      // above stays the helper's own.
      testing::ReferenceEvaluator observer(&store, &coverage);
      ASSERT_TRUE(observer.Evaluate(query).ok()) << context;
    }
  }
  EXPECT_GT(counts.group_by, 0);
  EXPECT_GT(counts.group_by_repeated, 0);
  EXPECT_GT(counts.having, 0);
  for (size_t kind = 0; kind < counts.agg_kinds.size(); ++kind) {
    EXPECT_GT(counts.agg_kinds[kind], 0)
        << AggKindName(static_cast<AggKind>(kind));
  }
  EXPECT_GT(counts.distinct_agg, 0);
  EXPECT_GT(counts.order_by, 0);
  EXPECT_GT(counts.order_by_aggregate, 0);
  // Every aggregate path fired, not just every query shape.
  EXPECT_GT(coverage.distinct_column, 0);
  EXPECT_GT(coverage.distinct_computed, 0);
  EXPECT_GT(coverage.minmax_mixed, 0);
  EXPECT_EQ(coverage.minmax_kinds,
            testing::AggregateCoverage::kIri |
                testing::AggregateCoverage::kString |
                testing::AggregateCoverage::kInteger |
                testing::AggregateCoverage::kDouble);
  EXPECT_GT(coverage.sum_mixed, 0);
  EXPECT_GT(coverage.sum_non_numeric, 0);
  EXPECT_GT(coverage.empty_ungrouped, 0);
  EXPECT_GT(counts.limit, 0);
  EXPECT_GT(counts.offset, 0);
  EXPECT_GT(counts.hash_probe, 0);
  std::printf(
      "shapes: group_by=%d group_by_repeated=%d having=%d count=%d sum=%d "
      "avg=%d min=%d max=%d distinct_agg=%d order_by=%d order_by_aggregate=%d "
      "limit=%d offset=%d hash_probe=%d\n",
      counts.group_by, counts.group_by_repeated, counts.having,
      counts.agg_kinds[0], counts.agg_kinds[1], counts.agg_kinds[2],
      counts.agg_kinds[3], counts.agg_kinds[4],
      counts.distinct_agg, counts.order_by, counts.order_by_aggregate,
      counts.limit, counts.offset, counts.hash_probe);
  std::printf(
      "aggregate paths: distinct_column=%d distinct_computed=%d "
      "minmax_mixed=%d sum_mixed=%d sum_non_numeric=%d empty_ungrouped=%d\n",
      coverage.distinct_column, coverage.distinct_computed,
      coverage.minmax_mixed, coverage.sum_mixed, coverage.sum_non_numeric,
      coverage.empty_ungrouped);
}

TEST(ReferenceAgreementTest, GroupTableGrowsPastItsInitialCapacity) {
  // More groups than four times the aggregate's initial index size, so the
  // group index grows at least three times while rows keep arriving. Two
  // key columns, every aggregate kind, DISTINCT and a computed argument.
  const int kGroups = 4 * static_cast<int>(kAggregateInitialSlots) + 37;
  TripleStore store;
  for (int i = 0; i < kGroups; ++i) {
    const Term s = Term::Iri("http://g/" + std::to_string(i));
    store.Add(s, Term::Iri("http://g/kind"),
              Term::Iri("http://g/k" + std::to_string(i % 3)));
    for (int j = 0; j < 1 + i % 4; ++j) {
      store.Add(s, Term::Iri("http://g/v"), Term::Integer((i * 7 + j) % 50));
    }
    store.Add(s, Term::Iri("http://g/w"), Term::Double(0.25 * (i % 9)));
  }
  store.Finalize();
  const std::string query =
      "SELECT ?s ?k (COUNT(?v) AS ?n) (SUM(?v) AS ?sum) (AVG(?w) AS ?avg) "
      "(MIN(?v) AS ?lo) (MAX(STR(?v)) AS ?hi) (COUNT(DISTINCT ?v) AS ?d) "
      "WHERE { ?s <http://g/kind> ?k . ?s <http://g/v> ?v . "
      "?s <http://g/w> ?w } GROUP BY ?s ?k";
  QueryEngine engine(&store);
  auto actual = engine.Execute(query);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_GE(actual->NumRows(), 4 * kAggregateInitialSlots);
  testing::ExpectMatchesReference(*actual, query, &store, "large group by");
}

TEST(ReferenceAgreementTest, DoubleSumsInAnotherOrderMatchWithinTolerance) {
  // The engine starts from the smallest pattern, ?g <has> ?i, and meets
  // the items as i1, i2, i3. The reference follows the textual order from
  // ?x <link> ?i and meets them as i3, i1, i2. (0.1 + 0.2) + 0.6 and
  // (0.6 + 0.1) + 0.2 differ in the last bit.
  auto iri = [](const std::string& name) {
    return Term::Iri("http://t/" + name);
  };
  TripleStore store;
  const char* const items[] = {"i1", "i2", "i3"};
  const double values[] = {0.1, 0.2, 0.6};
  for (int i = 0; i < 3; ++i) {
    store.Add(iri("g"), iri("has"), iri(items[i]));
    store.Add(iri(items[i]), iri("val"), Term::Double(values[i]));
  }
  store.Add(iri("x1"), iri("link"), iri("i3"));
  store.Add(iri("x2"), iri("link"), iri("i1"));
  store.Add(iri("x3"), iri("link"), iri("i2"));
  store.Add(iri("x4"), iri("link"), iri("j1"));  // keeps <link> the largest
  store.Finalize();

  const std::string query =
      "SELECT ?g (SUM(?v) AS ?s) (AVG(?v) AS ?a) WHERE { "
      "?x <http://t/link> ?i . ?g <http://t/has> ?i . ?i <http://t/val> ?v } "
      "GROUP BY ?g";
  QueryEngine engine(&store);
  auto actual = engine.Execute(query);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  testing::ReferenceEvaluator reference(&store);
  auto expected = reference.Evaluate(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(actual->NumRows(), 1u);
  ASSERT_EQ(expected->NumRows(), 1u);
  // The sums must really differ, or this test no longer reaches the
  // helper's tolerance.
  EXPECT_NE(actual->rows[0][1], expected->rows[0][1]);
  testing::ExpectMatchesReference(*actual, query, &store, "double sums");
}

}  // namespace
}  // namespace sparql
}  // namespace sofos
