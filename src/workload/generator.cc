#include "workload/generator.h"

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"
#include "common/string_util.h"
#include "sparql/query_engine.h"

namespace sofos {
namespace workload {

using core::DimConstraint;
using core::DimUsage;
using core::QuerySignature;
using core::WorkloadQuery;

Result<std::vector<Term>> WorkloadGenerator::DimValues(int dim, int max_constants) {
  const std::string& var = facet_->dims()[static_cast<size_t>(dim)].var;
  std::string pattern;
  for (const auto& tp : facet_->pattern()) {
    pattern += "  " + tp.ToString() + " .\n";
  }
  std::string query = "SELECT DISTINCT ?" + var + " WHERE {\n" + pattern +
                      "} LIMIT " + std::to_string(max_constants);
  sparql::QueryEngine engine(store_);
  SOFOS_ASSIGN_OR_RETURN(sparql::QueryResult result, engine.Execute(query));
  std::vector<Term> values;
  for (size_t r = 0; r < result.rows.size(); ++r) {
    if (result.bound[r][0]) values.push_back(result.rows[r][0]);
  }
  return values;
}

Result<std::vector<WorkloadQuery>> WorkloadGenerator::Generate(
    const WorkloadOptions& options) {
  Rng rng(options.seed);
  const size_t num_dims = facet_->num_dims();

  // Sample the constant pools once per dimension.
  std::vector<std::vector<Term>> pools(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    SOFOS_ASSIGN_OR_RETURN(pools[d],
                           DimValues(static_cast<int>(d), options.max_constants));
  }

  std::string pattern;
  for (const auto& tp : facet_->pattern()) {
    pattern += "  " + tp.ToString() + " .\n";
  }

  std::vector<WorkloadQuery> queries;
  queries.reserve(static_cast<size_t>(options.num_queries));
  for (int q = 0; q < options.num_queries; ++q) {
    WorkloadQuery query;
    query.id = "q" + std::to_string(q);
    QuerySignature& sig = query.signature;

    for (size_t d = 0; d < num_dims; ++d) {
      if (rng.Chance(options.group_dim_prob)) sig.group_mask |= 1u << d;
    }

    // Filters: random dims (grouped or not) with constants from the pool.
    int filters = 0;
    for (int attempt = 0; attempt < options.max_filters; ++attempt) {
      if (!rng.Chance(options.filter_prob)) continue;
      size_t d = rng.Uniform(num_dims);
      if ((sig.filter_mask >> d) & 1u) continue;  // one filter per dim
      if (pools[d].empty()) continue;
      const std::string& var = facet_->dims()[d].var;

      DimConstraint constraint;
      constraint.dim = static_cast<int>(d);
      bool numeric = pools[d][0].is_numeric();
      if (numeric && rng.Chance(options.range_prob) && pools[d].size() >= 2) {
        const Term& a = rng.Pick(pools[d]);
        const Term& b = rng.Pick(pools[d]);
        auto av = a.AsInt64().ValueOr(0);
        auto bv = b.AsInt64().ValueOr(0);
        int64_t lo = std::min(av, bv), hi = std::max(av, bv);
        constraint.usage = DimUsage::kFilteredRange;
        constraint.filter_sparql = StrFormat(
            "?%s >= %lld && ?%s <= %lld", var.c_str(),
            static_cast<long long>(lo), var.c_str(), static_cast<long long>(hi));
      } else {
        const Term& value = rng.Pick(pools[d]);
        constraint.usage = DimUsage::kFilteredEq;
        constraint.filter_sparql =
            "?" + var + " = " + value.ToNTriples();
      }
      sig.filter_mask |= 1u << d;
      sig.constraints.push_back(std::move(constraint));
      ++filters;
    }
    (void)filters;

    // Render the SPARQL against the base graph.
    std::string select = "SELECT";
    std::string group;
    for (size_t d = 0; d < num_dims; ++d) {
      if ((sig.group_mask >> d) & 1u) {
        select += " ?" + facet_->dims()[d].var;
        group += " ?" + facet_->dims()[d].var;
      }
    }
    select += " (" + sparql::AggKindName(facet_->agg_kind()) + "(?" +
              facet_->agg_var() + ") AS ?agg)";
    std::string where = " WHERE {\n" + pattern;
    for (const DimConstraint& c : sig.constraints) {
      where += "  FILTER(" + c.filter_sparql + ")\n";
    }
    where += "}";
    query.sparql = select + where;
    if (!group.empty()) query.sparql += " GROUP BY" + group;

    queries.push_back(std::move(query));
  }
  return queries;
}

namespace {

/// A sorted triple vector with the base view's graph interface: the working
/// graph from the second batch on.
struct SortedTriples {
  const std::vector<Triple>* triples;
  size_t size() const { return triples->size(); }
  const Triple& operator[](size_t rank) const { return (*triples)[rank]; }
  bool Contains(const Triple& t) const {
    return std::binary_search(triples->begin(), triples->end(), t);
  }
};

/// One sampled batch: the triples in the order they were drawn, plus the
/// adds kept sorted for the duplicate check.
struct SampledBatch {
  std::vector<Triple> deletes;  // draw order
  std::vector<Triple> adds;     // draw order
  std::vector<Triple> sorted_adds;
};

/// Samples one batch against `current` (size(), rank access in SPO order,
/// Contains()). Every random draw happens in a fixed order, so a seed
/// yields the same batch whichever representation backs `current`.
template <typename Graph, typename ObjectPool>
SampledBatch SampleBatch(const Graph& current, size_t ops,
                         double delete_fraction, ObjectPool&& objects_of,
                         Rng* rng) {
  SampledBatch batch;
  size_t num_deletes =
      static_cast<size_t>(static_cast<double>(ops) * delete_fraction);
  num_deletes = std::min(num_deletes, current.size() > 1 ? current.size() - 1
                                                         : size_t{0});
  const size_t num_adds = ops - std::min(ops, num_deletes);
  for (size_t i : rng->SampleIndices(current.size(), num_deletes)) {
    batch.deletes.push_back(current[i]);
  }
  for (size_t i = 0; i < num_adds; ++i) {
    // A handful of recombination attempts per insert; graphs where every
    // (s, p, o') already exists simply yield a smaller batch.
    for (int attempt = 0; attempt < 16; ++attempt) {
      const Triple donor = current[rng->Uniform(current.size())];
      const TripleStore::ScanRange& pool = objects_of(donor.p);
      Triple candidate{donor.s, donor.p,
                       pool.begin()[rng->Uniform(pool.size())].o};
      std::vector<Triple>& sorted = batch.sorted_adds;
      if (current.Contains(candidate) ||
          std::binary_search(sorted.begin(), sorted.end(), candidate)) {
        continue;
      }
      sorted.insert(std::lower_bound(sorted.begin(), sorted.end(), candidate),
                    candidate);
      batch.adds.push_back(candidate);
      break;
    }
  }
  return batch;
}

}  // namespace

Result<std::vector<core::maintenance::GraphDelta>> GenerateUpdateStream(
    const core::BaseGraphView& base, const Dictionary& dict,
    const UpdateStreamOptions& options) {
  using core::maintenance::GraphDelta;
  using core::maintenance::TermTriple;

  if (options.num_batches < 0 || options.batch_fraction < 0 ||
      options.delete_fraction < 0 || options.delete_fraction > 1) {
    return Status::InvalidArgument("invalid update-stream options");
  }
  if (base.empty()) {
    return Status::InvalidArgument("update stream requires a non-empty base");
  }

  Rng rng(options.seed);

  // Object pools per predicate, from the initial base: inserts recombine
  // an existing (s, p) with another object of the same predicate. A
  // predicate's objects in base SPO order are the o column of its PSO run.
  std::unordered_map<TermId, TripleStore::ScanRange> pools;
  auto objects_of = [&](TermId p) -> const TripleStore::ScanRange& {
    auto it = pools.find(p);
    if (it == pools.end()) it = pools.emplace(p, base.WithPredicate(p)).first;
    return it->second;
  };

  auto decode = [&](const Triple& t) {
    return TermTriple{dict.term(t.s), dict.term(t.p), dict.term(t.o)};
  };

  size_t ops = static_cast<size_t>(static_cast<double>(base.size()) *
                                   options.batch_fraction);
  ops = std::max(ops,
                 static_cast<size_t>(std::max(options.min_batch_ops, 1)));

  // The graph each batch is sampled against: the base view itself for the
  // first batch, then a sorted copy that absorbs every batch so far, so
  // every delete hits a live triple and every insert is new at apply time.
  std::vector<Triple> current;
  std::vector<GraphDelta> stream;
  stream.reserve(static_cast<size_t>(options.num_batches));
  for (int b = 0; b < options.num_batches; ++b) {
    SampledBatch batch =
        b == 0 ? SampleBatch(base, ops, options.delete_fraction, objects_of,
                             &rng)
               : SampleBatch(SortedTriples{&current}, ops,
                             options.delete_fraction, objects_of, &rng);
    GraphDelta delta;
    for (const Triple& t : batch.deletes) delta.deletes.push_back(decode(t));
    for (const Triple& t : batch.adds) delta.adds.push_back(decode(t));
    stream.push_back(std::move(delta));
    if (b + 1 == options.num_batches) break;  // no later batch reads it

    // Advance the working graph with the shared delta semantics.
    std::sort(batch.deletes.begin(), batch.deletes.end());
    if (b == 0) current.assign(base.begin(), base.end());
    current = ApplySortedDelta(current, batch.sorted_adds, batch.deletes);
  }
  return stream;
}

}  // namespace workload
}  // namespace sofos
