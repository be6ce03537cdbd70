#include "workload/generator.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "rdf/vocab.h"
#include "sparql/parser.h"
#include "sparql/query_engine.h"
#include "tests/core_test_util.h"

namespace sofos {
namespace workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::SetUpEngine(&engine_, "geopop"); }
  core::SofosEngine engine_;
};

TEST_F(WorkloadTest, GeneratesRequestedCount) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 12;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  EXPECT_EQ(queries->size(), 12u);
  std::set<std::string> ids;
  for (const auto& query : *queries) ids.insert(query.id);
  EXPECT_EQ(ids.size(), 12u) << "query ids must be unique";
}

TEST_F(WorkloadTest, AllQueriesParseAndExecute) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 30;
  options.seed = 17;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok());
  sparql::QueryEngine qe(engine_.store());
  for (const auto& query : *queries) {
    ASSERT_TRUE(sparql::Parser::Parse(query.sparql).ok()) << query.sparql;
    auto result = qe.Execute(query.sparql);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << query.sparql;
  }
}

TEST_F(WorkloadTest, SingleEqualityFiltersAreSatisfiable) {
  // Constants come from the data, so a query with exactly ONE equality
  // filter always matches something. (Conjunctions of filters on different
  // dimensions may legitimately be jointly empty, e.g. a country paired
  // with the wrong continent.)
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 40;
  options.filter_prob = 1.0;
  options.max_filters = 1;
  options.range_prob = 0.0;  // equality only
  options.seed = 23;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok());
  sparql::QueryEngine qe(engine_.store());
  size_t filtered = 0;
  for (const auto& query : *queries) {
    if (query.signature.constraints.size() != 1) continue;
    ++filtered;
    auto result = qe.Execute(query.sparql);
    ASSERT_TRUE(result.ok()) << query.sparql;
    EXPECT_GT(result->NumRows(), 0u) << query.sparql;
  }
  EXPECT_GT(filtered, 20u);
}

TEST_F(WorkloadTest, SignatureMatchesRenderedSparql) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 25;
  options.seed = 29;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok());
  core::Rewriter rewriter(&engine_.facet());
  for (const auto& query : *queries) {
    auto parsed = sparql::Parser::Parse(query.sparql);
    ASSERT_TRUE(parsed.ok());
    auto sig = rewriter.AnalyzeQuery(*parsed);
    ASSERT_TRUE(sig.ok()) << sig.status().ToString() << "\n" << query.sparql;
    EXPECT_EQ(sig->group_mask, query.signature.group_mask) << query.sparql;
    EXPECT_EQ(sig->filter_mask, query.signature.filter_mask) << query.sparql;
  }
}

TEST_F(WorkloadTest, DeterministicForSeed) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 10;
  options.seed = 31;
  auto a = generator.Generate(options);
  auto b = generator.Generate(options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].sparql, (*b)[i].sparql);
  }
  options.seed = 32;
  auto c = generator.Generate(options);
  ASSERT_TRUE(c.ok());
  bool any_different = false;
  for (size_t i = 0; i < a->size(); ++i) {
    any_different |= (*a)[i].sparql != (*c)[i].sparql;
  }
  EXPECT_TRUE(any_different);
}

TEST_F(WorkloadTest, GroupDimProbabilityShapesQueries) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions all_dims;
  all_dims.num_queries = 10;
  all_dims.group_dim_prob = 1.0;
  all_dims.filter_prob = 0.0;
  auto full = generator.Generate(all_dims);
  ASSERT_TRUE(full.ok());
  for (const auto& query : *full) {
    EXPECT_EQ(query.signature.group_mask, engine_.facet().FullMask());
    EXPECT_EQ(query.signature.filter_mask, 0u);
  }

  WorkloadOptions no_dims;
  no_dims.num_queries = 10;
  no_dims.group_dim_prob = 0.0;
  no_dims.filter_prob = 0.0;
  auto apex = generator.Generate(no_dims);
  ASSERT_TRUE(apex.ok());
  for (const auto& query : *apex) {
    EXPECT_EQ(query.signature.group_mask, 0u);
    EXPECT_EQ(query.sparql.find("GROUP BY"), std::string::npos);
  }
}

TEST_F(WorkloadTest, RangeFiltersOnNumericDims) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 50;
  options.filter_prob = 1.0;
  options.range_prob = 1.0;
  options.seed = 37;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok());
  bool saw_range = false;
  for (const auto& query : *queries) {
    for (const auto& c : query.signature.constraints) {
      if (c.usage == core::DimUsage::kFilteredRange) {
        saw_range = true;
        EXPECT_NE(c.filter_sparql.find(">="), std::string::npos);
        EXPECT_NE(c.filter_sparql.find("<="), std::string::npos);
      }
    }
  }
  EXPECT_TRUE(saw_range) << "year is numeric: range filters must appear";
}

/// The vector algorithm the generator ran before it read the store: a full
/// copy of the base, a per-predicate object map, and a working copy
/// advanced after every batch. Kept here as the reference the store-backed
/// generator must reproduce byte for byte.
std::vector<core::maintenance::GraphDelta> ReferenceUpdateStream(
    const std::vector<Triple>& base, const Dictionary& dict,
    const UpdateStreamOptions& options) {
  using core::maintenance::GraphDelta;
  using core::maintenance::TermTriple;
  Rng rng(options.seed);
  std::unordered_map<TermId, std::vector<TermId>> objects_by_pred;
  for (const Triple& t : base) objects_by_pred[t.p].push_back(t.o);
  std::vector<Triple> current = base;
  auto decode = [&](const Triple& t) {
    return TermTriple{dict.term(t.s), dict.term(t.p), dict.term(t.o)};
  };
  std::vector<GraphDelta> stream;
  for (int b = 0; b < options.num_batches; ++b) {
    size_t ops = static_cast<size_t>(static_cast<double>(base.size()) *
                                     options.batch_fraction);
    ops = std::max(ops, static_cast<size_t>(std::max(options.min_batch_ops, 1)));
    size_t num_deletes = static_cast<size_t>(static_cast<double>(ops) *
                                             options.delete_fraction);
    num_deletes = std::min(num_deletes, current.size() > 1 ? current.size() - 1
                                                           : size_t{0});
    size_t num_adds = ops - std::min(ops, num_deletes);
    GraphDelta delta;
    std::vector<Triple> batch_deletes;
    for (size_t i : rng.SampleIndices(current.size(), num_deletes)) {
      batch_deletes.push_back(current[i]);
      delta.deletes.push_back(decode(current[i]));
    }
    std::sort(batch_deletes.begin(), batch_deletes.end());
    std::vector<Triple> batch_adds;
    for (size_t i = 0; i < num_adds; ++i) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const Triple& donor = current[rng.Uniform(current.size())];
        const std::vector<TermId>& pool = objects_by_pred[donor.p];
        Triple candidate{donor.s, donor.p, pool[rng.Uniform(pool.size())]};
        if (std::binary_search(current.begin(), current.end(), candidate) ||
            std::binary_search(batch_adds.begin(), batch_adds.end(),
                               candidate)) {
          continue;
        }
        batch_adds.insert(std::lower_bound(batch_adds.begin(),
                                           batch_adds.end(), candidate),
                          candidate);
        delta.adds.push_back(decode(candidate));
        break;
      }
    }
    current = ApplySortedDelta(current, batch_adds, batch_deletes);
    stream.push_back(std::move(delta));
  }
  return stream;
}

std::vector<std::string> DeltaLines(
    const core::maintenance::GraphDelta& delta) {
  std::vector<std::string> lines;
  for (const auto* side : {&delta.deletes, &delta.adds}) {
    lines.push_back(side == &delta.adds ? "adds" : "deletes");
    for (const auto& t : *side) {
      lines.push_back(t.s.ToNTriples() + " " + t.p.ToNTriples() + " " +
                      t.o.ToNTriples());
    }
  }
  return lines;
}

/// The store-backed generator (rank access through the base view's block
/// index, membership through the store, object pools from PSO runs) must
/// emit byte-identical batches to the vector algorithm run over a
/// brute-force base: the decoded store minus every view-encoding row.
/// Views are materialized and a fresh base subject is interned after them,
/// so base and encoding blocks interleave in SPO order.
TEST(UpdateStreamTest, StoreBackedBatchesMatchVectorAlgorithm) {
  for (const std::string dataset : {"geopop", "lubm", "swdf"}) {
    SCOPED_TRACE(dataset);
    core::SofosEngine engine;
    testing::SetUpEngine(&engine, dataset);
    testing::MustProfile(&engine);
    core::TripleCountCostModel model;
    SOFOS_ASSERT_OK_AND_ASSIGN(auto selection, engine.SelectViews(model, 3));
    SOFOS_ASSERT_OK(engine.MaterializeSelection(selection).status());

    // A fresh subject, interned after every encoding blank, that reuses a
    // base predicate and object.
    const Triple sample = *engine.base_snapshot().begin();
    const Dictionary& dict = engine.store()->dictionary();
    core::maintenance::GraphDelta fresh;
    for (int i = 0; i < 3; ++i) {
      fresh.adds.push_back(
          {Term::Iri("http://example.org/fresh" + std::to_string(i)),
           dict.term(sample.p), dict.term(sample.o)});
    }
    SOFOS_ASSERT_OK(engine.ApplyUpdates(fresh).status());

    // Brute-force base: drop the subject block of every subject with a
    // triple in the reserved sofos: vocabulary.
    std::set<TermId> rows;
    for (const Triple& t : engine.store()->triples()) {
      if (dict.term(t.p).lexical().rfind(vocab::kSofosNs, 0) == 0) {
        rows.insert(t.s);
      }
    }
    ASSERT_FALSE(rows.empty());
    std::vector<Triple> base;
    bool base_after_row = false;
    for (const Triple& t : engine.store()->triples()) {
      if (rows.count(t.s) > 0) continue;
      base_after_row |= t.s > *rows.begin();
      base.push_back(t);
    }
    ASSERT_TRUE(base_after_row) << "base and encoding blocks must interleave";

    const core::BaseGraphView view = engine.base_snapshot();
    ASSERT_EQ(view.size(), base.size());
    ASSERT_EQ(engine.BaseTriples(), base.size());
    ASSERT_TRUE(std::equal(view.begin(), view.end(), base.begin()));
    for (size_t rank = 0; rank < base.size(); ++rank) {
      ASSERT_EQ(view[rank], base[rank]) << "rank " << rank;
    }

    for (int num_batches : {1, 3}) {
      for (double fraction : {0.01, 0.05}) {
        UpdateStreamOptions options;
        options.num_batches = num_batches;
        options.batch_fraction = fraction;
        options.seed = 99 + static_cast<uint64_t>(num_batches);
        SCOPED_TRACE("batches " + std::to_string(num_batches) + " fraction " +
                     std::to_string(fraction));
        SOFOS_ASSERT_OK_AND_ASSIGN(
            auto stream, GenerateUpdateStream(view, dict, options));
        auto reference = ReferenceUpdateStream(base, dict, options);
        ASSERT_EQ(stream.size(), reference.size());
        for (size_t b = 0; b < stream.size(); ++b) {
          ASSERT_FALSE(stream[b].empty());
          EXPECT_EQ(DeltaLines(stream[b]), DeltaLines(reference[b]))
              << "batch " << b;
        }
      }
    }
  }
}

}  // namespace
}  // namespace workload
}  // namespace sofos
