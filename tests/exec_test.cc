/// Vectorized-executor test suite (CTest label `exec`, also run under the
/// TSan lane): batch-boundary edge cases, selection-vector behavior, and
/// byte-identity of the batch engine against the legacy row-at-a-time
/// Volcano executor on every bundled dataset, including through
/// ApplyUpdates maintenance at 1 and 4 engine threads.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/registry.h"
#include "gtest/gtest.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/planner.h"
#include "sparql/query_engine.h"
#include "tests/core_test_util.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace sofos {
namespace {

using sparql::ExecMode;
using sparql::ExecOptions;
using sparql::QueryEngine;
using sparql::QueryResult;

/// Exact comparison: same column names, same rows in the same order, same
/// bound flags — the byte-identity contract (no canonical sorting).
void ExpectByteIdentical(const QueryResult& a, const QueryResult& b,
                         const std::string& context) {
  ASSERT_EQ(a.var_names, b.var_names) << context;
  ASSERT_EQ(a.NumRows(), b.NumRows()) << context;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.bound[r], b.bound[r]) << context << " row " << r;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!a.bound[r][c]) continue;
      ASSERT_EQ(a.rows[r][c], b.rows[r][c])
          << context << " row " << r << " col " << c << ": "
          << a.rows[r][c].ToNTriples() << " vs " << b.rows[r][c].ToNTriples();
    }
  }
}

QueryResult MustRun(TripleStore* store, const std::string& sparql,
                    const ExecOptions& options) {
  QueryEngine engine(store, options);
  auto result = engine.Execute(sparql);
  EXPECT_TRUE(result.ok()) << sparql << ": " << result.status().ToString();
  return result.ok() ? std::move(result).value() : QueryResult{};
}

ExecOptions Volcano() {
  ExecOptions options;
  options.mode = ExecMode::kVolcano;
  return options;
}

/// Queries covering every operator: scans, index joins, cross products,
/// repeated variables, filters (early and late), aggregation with HAVING,
/// DISTINCT, ORDER BY, OFFSET/LIMIT, expression projection, unbound vars.
const char* kFigure1Queries[] = {
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    "SELECT ?c WHERE { ?c <http://example.org/language> \"French\" }",
    "SELECT ?c ?l ?p WHERE { ?c <http://example.org/language> ?l . "
    "?c <http://example.org/population> ?p }",
    "SELECT ?c ?y WHERE { ?c <http://example.org/population> ?p . "
    "?p <http://example.org/year> ?y }",
    // Cross product (disconnected patterns).
    "SELECT ?a ?b WHERE { ?a <http://example.org/language> \"French\" . "
    "?b <http://example.org/language> \"German\" }",
    // Repeated variable inside one pattern.
    "SELECT ?x WHERE { ?x ?p ?x }",
    // Filters at different pipeline depths.
    "SELECT ?c ?l WHERE { ?c <http://example.org/language> ?l . "
    "FILTER(?l != \"French\") }",
    "SELECT ?c WHERE { ?c <http://example.org/language> ?l . "
    "?c <http://example.org/partOf> ?r . FILTER(?r = <http://example.org/EU>) "
    "FILTER(?l = \"French\") }",
    // All rows filtered out.
    "SELECT ?c WHERE { ?c <http://example.org/language> ?l . "
    "FILTER(?l = \"Klingon\") }",
    // Aggregation: grouped, HAVING, ordered, sliced.
    "SELECT ?l (COUNT(?c) AS ?n) WHERE { ?c <http://example.org/language> ?l } "
    "GROUP BY ?l",
    "SELECT ?r (COUNT(?c) AS ?n) (MIN(?l) AS ?m) WHERE { "
    "?c <http://example.org/partOf> ?r . ?c <http://example.org/language> ?l } "
    "GROUP BY ?r HAVING (COUNT(?c) > 1) ORDER BY DESC(?n)",
    // Aggregate over empty input: still one COUNT = 0 group.
    "SELECT (COUNT(?c) AS ?n) WHERE { ?c <http://example.org/language> "
    "\"Klingon\" }",
    // Constant absent from the dictionary: empty-guaranteed plan.
    "SELECT (COUNT(?c) AS ?n) WHERE { ?c <http://example.org/never_seen> ?x }",
    "SELECT DISTINCT ?r WHERE { ?c <http://example.org/partOf> ?r }",
    "SELECT ?c WHERE { ?c <http://example.org/language> ?l } "
    "ORDER BY ?l ?c LIMIT 3 OFFSET 1",
    // LIMIT without ORDER BY: stream-order slice (early pipeline exit).
    "SELECT ?s WHERE { ?s ?p ?o } LIMIT 2",
    // Expression projection and unknown projected variable.
    "SELECT ?c (?y + 1 AS ?next) ?ghost WHERE { "
    "?p2 <http://example.org/year> ?y . ?c <http://example.org/population> ?p2 }",
};

class Figure1ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::BuildFigure1Graph(&store_);
    store_.Finalize();
  }
  TripleStore store_;
};

TEST_F(Figure1ExecTest, BatchSerialByteIdenticalToVolcano) {
  for (const char* q : kFigure1Queries) {
    QueryResult reference = MustRun(&store_, q, Volcano());
    QueryResult batch = MustRun(&store_, q, ExecOptions{});
    ExpectByteIdentical(reference, batch, std::string("serial batch: ") + q);
  }
}

TEST_F(Figure1ExecTest, BatchBoundaryEdgeCases) {
  // Batch size 1, a size matching the row count exactly, one bigger and one
  // smaller: boundaries must never change results.
  const size_t total_rows = store_.NumTriples();
  for (size_t batch_size :
       {size_t{1}, size_t{2}, total_rows, total_rows + 1, size_t{7}}) {
    for (const char* q : kFigure1Queries) {
      QueryResult reference = MustRun(&store_, q, Volcano());
      ExecOptions options;
      options.batch_size = batch_size;
      QueryResult batch = MustRun(&store_, q, options);
      ExpectByteIdentical(reference, batch,
                          "batch_size=" + std::to_string(batch_size) + ": " + q);
    }
  }
}

TEST_F(Figure1ExecTest, EmptyStore) {
  TripleStore empty;
  empty.Finalize();
  // Intern a term so the pattern constant resolves but matches nothing.
  (void)empty.Intern(Term::Iri("http://example.org/language"));
  empty.Finalize();
  for (const char* q :
       {"SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }"}) {
    QueryResult reference = MustRun(&empty, q, Volcano());
    QueryResult batch = MustRun(&empty, q, ExecOptions{});
    ExpectByteIdentical(reference, batch, std::string("empty store: ") + q);
  }
}

TEST_F(Figure1ExecTest, StatsMatchAcrossModes) {
  const char* q =
      "SELECT ?r (COUNT(?c) AS ?n) WHERE { ?c <http://example.org/partOf> ?r . "
      "?c <http://example.org/language> ?l . FILTER(?l != \"German\") } "
      "GROUP BY ?r";
  QueryEngine reference_engine(&store_, Volcano());
  auto reference = reference_engine.Execute(q);
  ASSERT_TRUE(reference.ok());

  QueryEngine engine(&store_);
  auto result = engine.Execute(q);
  ASSERT_TRUE(result.ok());
  // Row counters are mode-invariant for fully drained queries (this plan
  // has no hash joins, so no extra build-side scan).
  EXPECT_EQ(result->stats.rows_scanned, reference->stats.rows_scanned);
  EXPECT_EQ(result->stats.intermediate_rows,
            reference->stats.intermediate_rows);
  EXPECT_EQ(result->stats.filtered_rows, reference->stats.filtered_rows);
  EXPECT_EQ(result->stats.output_rows, reference->stats.output_rows);
  EXPECT_GT(result->stats.exec_micros, 0.0);
}

// ---------------------------------------------------------------------------
// Hash-join coverage: a synthetic store large enough to trip the planner's
// hash-probe thresholds (leading scan >= kHashProbeMinRows).
// ---------------------------------------------------------------------------

class HashJoinExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Shaped like the facet patterns the planner sees: a tiny anchor
    // pattern (groupLabel, one triple per group — scanned first), a
    // fan-out join (inGroup, one triple per item), and a smaller pattern
    // (hasValue, every other item) whose probe:build ratio trips the
    // hash-join thresholds.
    auto iri = [](const std::string& s) {
      return Term::Iri("http://example.org/" + s);
    };
    const Term group_label = iri("groupLabel");
    const Term in_group = iri("inGroup");
    const Term has_value = iri("hasValue");
    for (int g = 0; g < 7; ++g) {
      store_.Add(iri("group" + std::to_string(g)), group_label,
                 Term::String("G" + std::to_string(g)));
    }
    for (int i = 0; i < 200; ++i) {
      Term item = iri("item" + std::to_string(i));
      store_.Add(item, in_group, iri("group" + std::to_string(i % 7)));
      if (i % 2 == 0) store_.Add(item, has_value, Term::Integer(i % 23));
    }
    store_.Finalize();
  }

  static constexpr const char* kJoinQuery =
      "SELECT ?gl (SUM(?v) AS ?sum) (COUNT(?i) AS ?n) WHERE { "
      "?g <http://example.org/groupLabel> ?gl . "
      "?i <http://example.org/inGroup> ?g . "
      "?i <http://example.org/hasValue> ?v } GROUP BY ?gl";

  TripleStore store_;
};

TEST_F(HashJoinExecTest, PlannerPicksHashProbe) {
  auto query = sparql::Parser::Parse(kJoinQuery);
  ASSERT_TRUE(query.ok());
  auto plan = sparql::Planner::Build(&*query, store_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 3u);
  EXPECT_EQ(plan->steps[0].algo, sparql::JoinAlgo::kScan);
  // Step 1 fans out over the anchor (probe hint still tiny): index loop.
  EXPECT_EQ(plan->steps[1].algo, sparql::JoinAlgo::kIndexLoop);
  // Step 2: 200 probe rows against a 100-triple build — hash probe.
  EXPECT_EQ(plan->steps[2].algo, sparql::JoinAlgo::kHashProbe);
  ASSERT_EQ(plan->steps[2].key_positions.size(), 1u);
  EXPECT_EQ(plan->steps[2].key_positions[0], 0);  // subject is the key
  EXPECT_NE(plan->ToString().find("HJOIN"), std::string::npos);
}

TEST_F(HashJoinExecTest, HashJoinByteIdenticalToVolcano) {
  QueryResult reference = MustRun(&store_, kJoinQuery, Volcano());
  ExpectByteIdentical(reference, MustRun(&store_, kJoinQuery, ExecOptions{}),
                      "batch");
}

TEST(ScanFieldOrderTest, MatchesIndexSelection) {
  using A = std::array<int, 3>;
  EXPECT_EQ(TripleStore::ScanFieldOrder(true, true, true), (A{0, 1, 2}));
  EXPECT_EQ(TripleStore::ScanFieldOrder(true, true, false), (A{0, 1, 2}));
  EXPECT_EQ(TripleStore::ScanFieldOrder(true, false, true), (A{0, 2, 1}));
  EXPECT_EQ(TripleStore::ScanFieldOrder(true, false, false), (A{0, 1, 2}));
  EXPECT_EQ(TripleStore::ScanFieldOrder(false, true, true), (A{1, 2, 0}));
  EXPECT_EQ(TripleStore::ScanFieldOrder(false, true, false), (A{1, 0, 2}));
  EXPECT_EQ(TripleStore::ScanFieldOrder(false, false, true), (A{2, 0, 1}));
  EXPECT_EQ(TripleStore::ScanFieldOrder(false, false, false), (A{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Dataset-level byte-identity: the engine's whole query surface (root view,
// canonical queries, maintained graphs) on geopop/lubm/swdf.
// ---------------------------------------------------------------------------

class DatasetExecTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetExecTest, RootAndCanonicalQueriesByteIdentical) {
  core::SofosEngine engine;
  testing::SetUpEngine(&engine, GetParam());
  TripleStore* store = engine.store();
  const core::Facet& facet = engine.facet();

  std::vector<std::string> queries;
  queries.push_back(facet.ViewQuerySparql(facet.FullMask()));
  queries.push_back(facet.ViewQuerySparql(0));
  for (uint32_t mask = 0; mask < (1u << facet.num_dims()); mask += 3) {
    queries.push_back(facet.CanonicalQuerySparql(mask));
  }

  for (const std::string& q : queries) {
    QueryResult reference = MustRun(store, q, Volcano());
    ExpectByteIdentical(reference, MustRun(store, q, ExecOptions{}),
                        std::string(GetParam()) + ": " + q);
  }
}

TEST_P(DatasetExecTest, MaintainedGraphByteIdenticalAcrossThreads) {
  // ApplyUpdates repairs the root table and the views (parallel at 4
  // threads); the maintained graph — including fresh blank labels — must be
  // byte-identical to the single-threaded engine, and the post-update root
  // view must still match the Volcano reference executor.
  auto run = [&](unsigned threads) {
    auto engine = std::make_unique<core::SofosEngine>();
    testing::SetUpEngine(engine.get(), GetParam());
    engine->SetNumThreads(threads);
    testing::MustProfile(engine.get());
    core::TripleCountCostModel model;
    auto selection = engine->SelectViews(model, 3);
    EXPECT_TRUE(selection.ok());
    EXPECT_TRUE(engine->MaterializeSelection(*selection).ok());

    workload::UpdateStreamOptions options;
    options.num_batches = 2;
    options.batch_fraction = 0.05;
    options.seed = 29;
    auto stream = workload::GenerateUpdateStream(
        engine->base_snapshot(), engine->store()->dictionary(), options);
    EXPECT_TRUE(stream.ok());
    for (const auto& delta : *stream) {
      auto outcome = engine->ApplyUpdates(delta);
      EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    }
    return engine;
  };

  auto serial = run(1);
  auto parallel = run(4);

  auto decode = [](const TripleStore& store) {
    std::vector<std::string> lines;
    for (const Triple& t : store.triples()) {
      lines.push_back(store.dictionary().term(t.s).ToNTriples() + " " +
                      store.dictionary().term(t.p).ToNTriples() + " " +
                      store.dictionary().term(t.o).ToNTriples());
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(decode(*serial->store()), decode(*parallel->store()));

  const core::Facet& facet = serial->facet();
  std::string root = facet.ViewQuerySparql(facet.FullMask());
  QueryResult reference = MustRun(serial->store(), root, Volcano());
  ExpectByteIdentical(reference, MustRun(serial->store(), root, ExecOptions{}),
                      std::string(GetParam()) + " post-update root view");
}

INSTANTIATE_TEST_SUITE_P(Datasets, DatasetExecTest,
                         ::testing::Values("geopop", "lubm", "swdf"));

TEST(FilterKernelExecTest, GeopopSliceMatchesVolcanoRowsAndInternOrder) {
  // A facet slice whose filters all compile to TermId kernels (IRI
  // equality, a year range, != an IRI absent from the graph), with
  // bare-variable aggregates of every kind. Each engine runs on a fresh
  // copy of the graph, so the literals the query interns can be compared
  // in order.
  const std::string query =
      "PREFIX geo: <http://sofos.example.org/geo#>\n"
      "SELECT ?country (SUM(?pop) AS ?sum) (AVG(?pop) AS ?avg) "
      "(COUNT(?obs) AS ?n) (COUNT(DISTINCT ?year) AS ?years) "
      "(MIN(?pop) AS ?lo) (MAX(?pop) AS ?hi) WHERE {\n"
      "  ?obs geo:country ?country . ?obs geo:language ?language .\n"
      "  ?obs geo:year ?year . ?obs geo:population ?pop .\n"
      "  ?country geo:partOf ?continent .\n"
      "  FILTER(?continent = <http://sofos.example.org/geo#continent/Europe>"
      " || ?continent = <http://sofos.example.org/geo#continent/Asia>)\n"
      "  FILTER(?year >= 2017 && ?year <= 2018)\n"
      "  FILTER(?language != <http://sofos.example.org/geo#lang/absent>)\n"
      "} GROUP BY ?country";

  struct Run {
    QueryResult result;
    std::vector<std::string> interned;  // terms the query added, in order
  };
  auto run = [&](const ExecOptions& options) {
    TripleStore store;
    auto spec = datagen::GenerateByName("geopop", datagen::Scale::kTiny, 42, &store);
    EXPECT_TRUE(spec.ok());
    const size_t before = store.dictionary().size();
    Run out;
    out.result = MustRun(&store, query, options);
    for (size_t id = before + 1; id <= store.dictionary().size(); ++id) {
      out.interned.push_back(
          store.dictionary().term(static_cast<TermId>(id)).ToNTriples());
    }
    return out;
  };

  Run reference = run(Volcano());
  ASSERT_GT(reference.result.NumRows(), 0u);
  ASSERT_FALSE(reference.interned.empty());
  Run batch = run(ExecOptions{});
  ExpectByteIdentical(reference.result, batch.result, "batch");
  EXPECT_EQ(reference.interned, batch.interned);
}

// ---------------------------------------------------------------------------
// Engine level.
// ---------------------------------------------------------------------------

TEST(ExecEngineTest, WorkloadInvariantUnderThreadCount) {
  auto run = [](unsigned threads) {
    core::SofosEngine engine;
    testing::SetUpEngine(&engine, "geopop");
    engine.SetNumThreads(threads);
    testing::MustProfile(&engine);
    workload::WorkloadGenerator generator(&engine.facet(), engine.store());
    workload::WorkloadOptions options;
    options.num_queries = 12;
    options.seed = 5;
    auto queries = generator.Generate(options);
    EXPECT_TRUE(queries.ok());
    auto report = engine.RunWorkload(*queries, /*allow_views=*/false);
    EXPECT_TRUE(report.ok());
    return std::move(report).value();
  };

  core::WorkloadReport reference = run(1);
  for (unsigned threads : {4u, 2u}) {
    core::WorkloadReport report = run(threads);
    ASSERT_EQ(report.outcomes.size(), reference.outcomes.size());
    EXPECT_EQ(report.total_rows_scanned, reference.total_rows_scanned)
        << threads;
    for (size_t i = 0; i < report.outcomes.size(); ++i) {
      EXPECT_EQ(report.outcomes[i].result_rows,
                reference.outcomes[i].result_rows);
      testing::ExpectSameAnswers(report.outcomes[i].result,
                                 reference.outcomes[i].result,
                                 "query " + std::to_string(i));
    }
  }
}

TEST(ExecEngineTest, ExplainShowsBatchSchedule) {
  core::SofosEngine engine;
  testing::SetUpEngine(&engine, "lubm");
  engine.SetNumThreads(4);
  auto text = engine.ExplainSparql(
      engine.facet().ViewQuerySparql(engine.facet().FullMask()));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("SCAN"), std::string::npos);
  EXPECT_NE(text->find("PHYSICAL batch size=1024 leaf_rows="),
            std::string::npos);
  EXPECT_NE(text->find("hash_joins="), std::string::npos);
  EXPECT_EQ(text->find("dop="), std::string::npos);
  EXPECT_EQ(text->find("morsels="), std::string::npos);
}

}  // namespace
}  // namespace sofos
