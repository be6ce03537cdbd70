#include "core/profiler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "core/cost_model.h"
#include "gtest/gtest.h"
#include "rdf/vocab.h"
#include "tests/core_test_util.h"

namespace sofos {
namespace core {
namespace {

using testing::MustProfile;
using testing::SetUpEngine;

constexpr const char* kViewQueries = "sofos_engine_view_queries_total";

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { SetUpEngine(&engine_, "geopop"); }
  SofosEngine engine_;
};

TEST_F(ProfilerTest, ProfilesWholeLattice) {
  const LatticeProfile& profile = MustProfile(&engine_);
  EXPECT_EQ(profile.views.size(), 16u);
  EXPECT_EQ(profile.mode, ProfileMode::kExact);
  EXPECT_GT(profile.base_triples, 0u);
  EXPECT_GT(profile.base_nodes, 0u);
  EXPECT_GT(profile.base_pattern_rows, 0u);
  for (const ViewStats& stats : profile.views) {
    EXPECT_FALSE(stats.estimated);
    EXPECT_GT(stats.result_rows, 0u) << engine_.facet().MaskLabel(stats.mask);
  }
}

TEST_F(ProfilerTest, ApexHasExactlyOneRow) {
  const LatticeProfile& profile = MustProfile(&engine_);
  EXPECT_EQ(profile.ForMask(0).result_rows, 1u);
  // Apex encoding: one blank node, view link + value + rows = 3 triples.
  EXPECT_EQ(profile.ForMask(0).encoded_triples, 3u);
}

TEST_F(ProfilerTest, RowsAreMonotoneUpTheLattice) {
  // A view with more dimensions cannot have fewer groups.
  const LatticeProfile& profile = MustProfile(&engine_);
  Lattice lattice(&engine_.facet());
  for (uint32_t mask = 0; mask < profile.views.size(); ++mask) {
    for (uint32_t parent : lattice.Parents(mask)) {
      EXPECT_GE(profile.ForMask(parent).result_rows,
                profile.ForMask(mask).result_rows)
          << engine_.facet().MaskLabel(parent) << " vs "
          << engine_.facet().MaskLabel(mask);
    }
  }
}

TEST_F(ProfilerTest, EncodedTriplesMatchFormula) {
  const LatticeProfile& profile = MustProfile(&engine_);
  for (const ViewStats& stats : profile.views) {
    uint64_t per_row = static_cast<uint64_t>(Lattice::Level(stats.mask)) + 3;
    EXPECT_EQ(stats.encoded_triples, stats.result_rows * per_row);
    EXPECT_GT(stats.encoded_nodes, stats.result_rows);  // blanks + values
    EXPECT_GT(stats.encoded_bytes, 0u);
  }
}

TEST_F(ProfilerTest, BasePatternRowsMatchesDirectCount) {
  const LatticeProfile& profile = MustProfile(&engine_);
  // Count pattern bindings directly.
  sparql::QueryEngine qe(engine_.store());
  auto result = qe.Execute(
      "PREFIX geo: <http://sofos.example.org/geo#>\n"
      "SELECT (COUNT(?pop) AS ?n) WHERE {\n"
      "  ?obs geo:country ?country . ?obs geo:language ?language .\n"
      "  ?obs geo:year ?year . ?obs geo:population ?pop .\n"
      "  ?country geo:partOf ?continent . }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(profile.base_pattern_rows,
            static_cast<uint64_t>(result->rows[0][0].AsInt64().value()));
}

TEST_F(ProfilerTest, SampledModeMarksEstimates) {
  ProfileOptions options;
  options.mode = ProfileMode::kSampled;
  options.sample_rate = 0.25;
  auto profile = engine_.Profile(options);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  // The root is always exact; everything else estimated.
  uint32_t full = engine_.facet().FullMask();
  EXPECT_FALSE((*profile)->ForMask(full).estimated);
  EXPECT_TRUE((*profile)->ForMask(0b0011).estimated);
  EXPECT_EQ((*profile)->ForMask(0).result_rows, 1u);
}

TEST_F(ProfilerTest, SampledEstimatesAreInTheRightBallpark) {
  auto exact = engine_.Profile();
  ASSERT_TRUE(exact.ok());
  std::vector<uint64_t> exact_rows;
  for (const auto& v : (*exact)->views) exact_rows.push_back(v.result_rows);

  ProfileOptions options;
  options.mode = ProfileMode::kSampled;
  options.sample_rate = 0.5;
  auto sampled = engine_.Profile(options);
  ASSERT_TRUE(sampled.ok());
  // Estimates never exceed the root cardinality and are positive.
  uint64_t root_rows = exact_rows[engine_.facet().FullMask()];
  for (const auto& v : (*sampled)->views) {
    EXPECT_LE(v.result_rows, root_rows);
    EXPECT_GT(v.result_rows, 0u);
  }
}

// ------------------------------------------------------- roll-up oracle
//
// The profiler and the materializer derive every view from the facet's
// root table. The reference here is the per-view SPARQL evaluation: each
// view's stats as the string-set computation over its view query's
// result, and each materialized view's rows as that result in order.

/// ViewStats computed from the view query's decoded result.
ViewStats ReferenceStats(uint32_t mask, const sparql::QueryResult& result) {
  ViewStats stats;
  stats.mask = mask;
  stats.result_rows = result.NumRows();
  stats.encoded_triples =
      stats.result_rows * (static_cast<uint64_t>(Lattice::Level(mask)) + 3);
  std::set<std::string> terms;
  for (size_t r = 0; r < result.rows.size(); ++r) {
    for (size_t c = 0; c < result.rows[r].size(); ++c) {
      if (result.bound[r][c]) terms.insert(result.rows[r][c].ToNTriples());
    }
  }
  stats.encoded_nodes = stats.result_rows + 1 + terms.size();
  stats.encoded_bytes =
      stats.encoded_triples * sizeof(Triple) * 6 + stats.encoded_nodes * 48;
  return stats;
}

/// Runs the view query of `mask` unsorted: its rows in output order.
sparql::QueryResult ViewQueryRows(SofosEngine* engine, uint32_t mask) {
  sparql::QueryEngine qe(engine->store());
  auto result = qe.Execute(engine->facet().ViewQuerySparql(mask));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : sparql::QueryResult{};
}

/// The encoded rows of view `mask` read back from G+ in blank-label order,
/// laid out like the view query: grouped dims, ?agg, ?rows.
sparql::QueryResult EncodedRows(SofosEngine* engine, uint32_t mask) {
  const Facet& facet = engine->facet();
  sparql::QueryEngine qe(engine->store());
  auto triples = qe.Execute("SELECT ?b ?p ?o WHERE { ?b <" +
                            std::string(vocab::kSofosView) + "> <" +
                            vocab::ViewIri(facet.name(), mask) +
                            "> . ?b ?p ?o }");
  EXPECT_TRUE(triples.ok()) << triples.status().ToString();
  std::vector<std::string> columns;
  for (size_t d = 0; d < facet.num_dims(); ++d) {
    if ((mask >> d) & 1u) columns.push_back(vocab::DimPredicate(facet.dims()[d].var));
  }
  columns.push_back(std::string(vocab::kSofosValue));
  columns.push_back(std::string(vocab::kSofosRows));
  // Blank label mv_<facet>_<mask>_<n>: order by n.
  std::map<uint64_t, std::vector<const Term*>> by_label;
  const std::string prefix =
      "mv_" + facet.name() + "_" + std::to_string(mask) + "_";
  for (const auto& row : triples->rows) {
    EXPECT_EQ(row[0].lexical().rfind(prefix, 0), 0u) << row[0].lexical();
    uint64_t n = std::stoull(row[0].lexical().substr(prefix.size()));
    auto& cells = by_label[n];
    cells.resize(columns.size(), nullptr);
    for (size_t c = 0; c < columns.size(); ++c) {
      if (row[1].lexical() == columns[c]) cells[c] = &row[2];
    }
  }
  sparql::QueryResult out;
  for (const auto& [label, cells] : by_label) {
    std::vector<Term> terms;
    std::vector<bool> bound;
    for (const Term* cell : cells) {
      terms.push_back(cell != nullptr ? *cell : Term());
      bound.push_back(cell != nullptr);
    }
    out.rows.push_back(std::move(terms));
    out.bound.push_back(std::move(bound));
  }
  return out;
}

/// Profiles `engine` and checks every view against its view query, then
/// materializes the whole lattice and checks every encoded row. Returns the
/// view queries the profile and the materialization evaluated.
std::pair<uint64_t, uint64_t> CheckAgainstViewQueries(SofosEngine* engine,
                                                      const std::string& context) {
  MetricCounter* queries = engine->metrics()->Counter(kViewQueries);
  const uint64_t before_profile = queries->Value();
  const LatticeProfile& profile = MustProfile(engine);
  const uint64_t profile_queries = queries->Value() - before_profile;
  EXPECT_EQ(profile.view_queries, profile_queries) << context;
  for (uint32_t mask = 0; mask < profile.views.size(); ++mask) {
    const ViewStats& got = profile.ForMask(mask);
    const ViewStats want = ReferenceStats(mask, ViewQueryRows(engine, mask));
    const std::string where = context + " mask " + std::to_string(mask);
    EXPECT_EQ(got.mask, want.mask) << where;
    EXPECT_EQ(got.result_rows, want.result_rows) << where;
    EXPECT_EQ(got.encoded_triples, want.encoded_triples) << where;
    EXPECT_EQ(got.encoded_nodes, want.encoded_nodes) << where;
    EXPECT_EQ(got.encoded_bytes, want.encoded_bytes) << where;
    EXPECT_FALSE(got.estimated) << where;
  }

  const uint64_t before_materialize = queries->Value();
  auto views = engine->MaterializeViews(engine->lattice().AllMasks());
  EXPECT_TRUE(views.ok()) << context << ": " << views.status().ToString();
  const uint64_t materialize_queries = queries->Value() - before_materialize;
  for (uint32_t mask : engine->lattice().AllMasks()) {
    const std::string where = context + " G+ mask " + std::to_string(mask);
    sparql::QueryResult want = ViewQueryRows(engine, mask);
    sparql::QueryResult got = EncodedRows(engine, mask);
    EXPECT_EQ(got.rows.size(), want.rows.size()) << where;
    if (got.rows.size() != want.rows.size()) continue;
    for (size_t r = 0; r < want.rows.size(); ++r) {
      for (size_t c = 0; c < want.rows[r].size(); ++c) {
        EXPECT_EQ(got.bound[r][c], want.bound[r][c])
            << where << " row " << r << " col " << c;
        if (!want.bound[r][c] || !got.bound[r][c]) continue;
        EXPECT_EQ(got.rows[r][c], want.rows[r][c])
            << where << " row " << r << " col " << c << ": "
            << got.rows[r][c].ToNTriples() << " vs "
            << want.rows[r][c].ToNTriples();
      }
    }
  }
  return {profile_queries, materialize_queries};
}

const char* const kAggregates[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};

/// `facet_sparql` with its aggregate function replaced by `agg`.
std::string WithAggregate(std::string facet_sparql, const std::string& agg) {
  for (const std::string old : kAggregates) {
    const size_t pos = facet_sparql.find("(" + old + "(?");
    if (pos != std::string::npos) {
      return facet_sparql.replace(pos + 1, old.size(), agg);
    }
  }
  return facet_sparql;
}

TEST(RollupOracleTest, BundledFacetsMatchViewQueries) {
  for (const std::string dataset : {"geopop", "lubm", "swdf"}) {
    for (const char* agg : kAggregates) {
      for (unsigned threads : {1u, 2u, 4u, 8u}) {
        const std::string context = dataset + "/" + agg + "/threads=" +
                                    std::to_string(threads);
        SCOPED_TRACE(context);
        SofosEngine engine;
        engine.SetNumThreads(threads);
        TripleStore store;
        store.SetShardCount(engine.ResolvedShardCount());
        auto spec = datagen::GenerateByName(dataset, datagen::Scale::kTiny, 42,
                                            &store);
        ASSERT_TRUE(spec.ok()) << spec.status().ToString();
        const std::string sparql = WithAggregate(spec->facet_sparql, agg);
        ASSERT_NE(sparql.find(std::string("(") + agg + "(?"), std::string::npos);
        auto facet = Facet::FromSparql(sparql, spec->name, spec->dim_labels);
        ASSERT_TRUE(facet.ok()) << facet.status().ToString();
        SOFOS_ASSERT_OK(engine.LoadStore(std::move(store)));
        SOFOS_ASSERT_OK(engine.SetFacet(std::move(facet).value()));
        // Integer measures (or none): one root evaluation per Profile(),
        // and materialization only encodes roll-ups of it.
        auto [profiled, materialized] = CheckAgainstViewQueries(&engine, context);
        EXPECT_EQ(profiled, 1u);
        EXPECT_EQ(materialized, 0u);
      }
    }
  }
}

/// Observations with xsd:integer and xsd:double measures over three
/// dimensions: an integer/double tie (1 vs 1.0), integers beyond 2^53,
/// -0.0 next to 0.0, a NaN, and a non-numeric measure.
void BuildMixedMeasureGraph(TripleStore* store) {
  auto ex = [](const std::string& s) { return Term::Iri("http://mixed/" + s); };
  const Term measures[] = {
      Term::Integer(1),
      Term::Double(1.0),
      Term::Integer(9007199254740993),
      Term::Integer(9007199254740992),
      Term::Double(-0.0),
      Term::Double(0.0),
      Term::Integer(-4),
      Term::Double(2.5),
      Term::Double(std::numeric_limits<double>::quiet_NaN()),
      Term::String("n/a"),
      Term::Integer(7),
      Term::Double(7.0),
  };
  int obs = 0;
  for (int g = 0; g < 3; ++g) {
    for (int h = 0; h < 2; ++h) {
      for (int k = 0; k < 2; ++k) {
        for (int i = 0; i < 2; ++i) {
          Term o = ex("obs" + std::to_string(obs));
          store->Add(o, ex("g"), ex("g" + std::to_string(g)));
          store->Add(o, ex("h"), ex("h" + std::to_string(h)));
          store->Add(o, ex("k"), Term::Integer(k));
          store->Add(o, ex("v"), measures[(obs * 5 + g) % 12]);
          ++obs;
        }
      }
    }
  }
  store->Finalize();
}

void SetUpMixedEngine(SofosEngine* engine, const std::string& agg,
                      const std::string& predicate, unsigned threads) {
  engine->SetNumThreads(threads);
  TripleStore store;
  store.SetShardCount(engine->ResolvedShardCount());
  BuildMixedMeasureGraph(&store);
  auto facet = Facet::FromSparql(
      "SELECT ?g ?h ?k (" + agg + "(?v) AS ?agg) WHERE { ?o <http://mixed/g> ?g "
      ". ?o <http://mixed/h> ?h . ?o <http://mixed/k> ?k . ?o <http://mixed/" +
          predicate + "> ?v } GROUP BY ?g ?h ?k",
      "mixed");
  ASSERT_TRUE(facet.ok()) << facet.status().ToString();
  SOFOS_ASSERT_OK(engine->LoadStore(std::move(store)));
  SOFOS_ASSERT_OK(engine->SetFacet(std::move(facet).value()));
}

TEST(RollupOracleTest, MixedMeasuresMatchViewQueries) {
  for (const char* agg : kAggregates) {
    for (unsigned threads : {1u, 4u}) {
      const std::string context =
          std::string("mixed/") + agg + "/threads=" + std::to_string(threads);
      SCOPED_TRACE(context);
      SofosEngine engine;
      SetUpMixedEngine(&engine, agg, "v", threads);
      auto [profiled, materialized] = CheckAgainstViewQueries(&engine, context);
      const std::string name = agg;
      if (name == "SUM" || name == "AVG") {
        // Double sums depend on addition order: every view but the root
        // runs its view query (7 of the 8 views, profiled and materialized).
        EXPECT_EQ(profiled, 8u);
        EXPECT_EQ(materialized, 7u);
      } else {
        // COUNT is an integer; MIN/MAX pick root cells by TotalCompare.
        EXPECT_EQ(profiled, 1u);
        EXPECT_EQ(materialized, 0u);
      }
    }
  }
}

TEST(RollupOracleTest, EmptyPatternMatchesViewQueries) {
  for (const char* agg : kAggregates) {
    const std::string context = std::string("empty/") + agg;
    SCOPED_TRACE(context);
    SofosEngine engine;
    SetUpMixedEngine(&engine, agg, "absent", 4);
    auto [profiled, materialized] = CheckAgainstViewQueries(&engine, context);
    EXPECT_EQ(profiled, 1u);
    EXPECT_EQ(materialized, 0u);
    // The apex is the only non-empty view.
    EXPECT_EQ(engine.profile()->ForMask(0).result_rows, 1u);
    EXPECT_EQ(engine.profile()->ForMask(engine.facet().FullMask()).result_rows,
              0u);
  }
}

TEST(RootTableReuseTest, VariablePredicateReevaluatesAfterMaterializing) {
  // A variable predicate also matches the view-encoding triples, so each
  // materialization changes the root view: the next one must see the
  // encodings already in G+, as its view query does.
  SofosEngine engine;
  TripleStore store;
  BuildMixedMeasureGraph(&store);
  auto facet = Facet::FromSparql(
      "SELECT ?o (COUNT(?v) AS ?agg) WHERE { ?o ?p ?v } GROUP BY ?o", "open");
  ASSERT_TRUE(facet.ok()) << facet.status().ToString();
  SOFOS_ASSERT_OK(engine.LoadStore(std::move(store)));
  SOFOS_ASSERT_OK(engine.SetFacet(std::move(facet).value()));
  MustProfile(&engine);
  MetricCounter* queries = engine.metrics()->Counter(kViewQueries);
  const uint64_t before = queries->Value();
  SOFOS_ASSERT_OK(engine.MaterializeViews({0}).status());
  EXPECT_EQ(queries->Value(), before);  // G unchanged since Profile()

  sparql::QueryResult want = ViewQueryRows(&engine, 1);
  SOFOS_ASSERT_OK(engine.MaterializeViews({1}).status());
  EXPECT_EQ(queries->Value(), before + 1);  // G+ gained the apex encoding
  sparql::QueryResult got = EncodedRows(&engine, 1);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t r = 0; r < want.rows.size(); ++r) {
    EXPECT_EQ(got.rows[r], want.rows[r]) << "row " << r;
  }
}

TEST(ProfilerApexTest, ApexOfEmptyFacetIsExactInBothModes) {
  // A pattern that matches nothing still has a one-row apex (an aggregate
  // without GROUP BY over no input): 1 row, 3 triples, as materialized.
  for (ProfileMode mode : {ProfileMode::kExact, ProfileMode::kSampled}) {
    SofosEngine engine;
    SetUpMixedEngine(&engine, "SUM", "absent", 1);
    ProfileOptions options;
    options.mode = mode;
    SOFOS_ASSERT_OK_AND_ASSIGN(const LatticeProfile* profile,
                               engine.Profile(options));
    SOFOS_ASSERT_OK_AND_ASSIGN(auto views, engine.MaterializeViews({0}));
    ASSERT_EQ(views.size(), 1u);
    const ViewStats& apex = profile->ForMask(0);
    EXPECT_EQ(apex.result_rows, 1u);
    EXPECT_EQ(apex.result_rows, views[0].rows);
    EXPECT_EQ(apex.encoded_triples, 3u);
    EXPECT_EQ(apex.encoded_triples, views[0].triples_added);
    EXPECT_FALSE(apex.estimated);
  }
}

// ------------------------------------------------------------ cost models

TEST_F(ProfilerTest, HeuristicCostModelsReadProfile) {
  const LatticeProfile& profile = MustProfile(&engine_);
  TripleCountCostModel triples;
  AggValueCountCostModel aggvalues;
  NodeCountCostModel nodes;
  RandomCostModel random;

  uint32_t full = engine_.facet().FullMask();
  EXPECT_EQ(triples.ViewCost(full, profile),
            static_cast<double>(profile.ForMask(full).encoded_triples));
  EXPECT_EQ(aggvalues.ViewCost(full, profile),
            static_cast<double>(profile.ForMask(full).result_rows));
  EXPECT_EQ(nodes.ViewCost(full, profile),
            static_cast<double>(profile.ForMask(full).encoded_nodes));
  EXPECT_EQ(random.ViewCost(full, profile), 1.0);
  EXPECT_TRUE(random.IsConstant());
  EXPECT_FALSE(triples.IsConstant());

  EXPECT_EQ(triples.BaseCost(profile), static_cast<double>(profile.base_triples));
  EXPECT_EQ(aggvalues.BaseCost(profile),
            static_cast<double>(profile.base_pattern_rows));
  EXPECT_EQ(nodes.BaseCost(profile), static_cast<double>(profile.base_nodes));
}

TEST_F(ProfilerTest, CoarseViewsAreCheaperThanBaseFineViewsMayNotBe) {
  const LatticeProfile& profile = MustProfile(&engine_);
  TripleCountCostModel triples;
  AggValueCountCostModel aggvalues;
  for (const ViewStats& stats : profile.views) {
    // Aggregated-value counts never exceed the raw pattern bindings.
    EXPECT_LE(aggvalues.ViewCost(stats.mask, profile),
              aggvalues.BaseCost(profile));
    // Coarse views are smaller than the base graph under the triple count;
    // for fine-grained views the RDF blank-node encoding (dims + 3 triples
    // per group) can exceed the base graph — the space-amplification
    // pitfall the paper demonstrates, so we do NOT assert it universally.
    if (Lattice::Level(stats.mask) <= 1) {
      EXPECT_LT(triples.ViewCost(stats.mask, profile), triples.BaseCost(profile))
          << engine_.facet().MaskLabel(stats.mask);
    }
  }
}

TEST_F(ProfilerTest, UserDefinedCostModel) {
  const LatticeProfile& profile = MustProfile(&engine_);
  UserDefinedCostModel model({{0b0001, 5.0}, {0b0010, 7.0}}, 100.0, 1000.0);
  EXPECT_EQ(model.ViewCost(0b0001, profile), 5.0);
  EXPECT_EQ(model.ViewCost(0b0010, profile), 7.0);
  EXPECT_EQ(model.ViewCost(0b1111, profile), 100.0);
  EXPECT_EQ(model.BaseCost(profile), 1000.0);
}

TEST_F(ProfilerTest, CostModelKindNamesRoundTrip) {
  for (CostModelKind kind : AllCostModelKinds()) {
    auto parsed = ParseCostModelKind(CostModelKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseCostModelKind("nope").ok());
}

}  // namespace
}  // namespace core
}  // namespace sofos
