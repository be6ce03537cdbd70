#ifndef SOFOS_WORKLOAD_GENERATOR_H_
#define SOFOS_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/base_graph.h"
#include "core/facet.h"
#include "core/maintenance/delta.h"
#include "core/workload_types.h"
#include "rdf/triple_store.h"

namespace sofos {
namespace workload {

/// Knobs for random analytical-query generation (paper §3.2: "the system
/// runs a set of queries randomly generated from the facet F"; §4: "a query
/// workload composed of different parametrized queries for a given query
/// template").
struct WorkloadOptions {
  int num_queries = 30;
  /// Probability that each dimension appears in GROUP BY.
  double group_dim_prob = 0.5;
  /// Probability of attempting each additional FILTER (up to max_filters).
  double filter_prob = 0.6;
  int max_filters = 2;
  /// Probability that a numeric dimension's filter is a range instead of
  /// an equality.
  double range_prob = 0.5;
  /// Distinct constants sampled per dimension for filter instantiation.
  int max_constants = 64;
  uint64_t seed = 42;
};

/// Generates parameterized analytical queries from a facet: random grouping
/// subsets plus equality/range filters whose constants are sampled from the
/// actual graph, so every filter is satisfiable.
class WorkloadGenerator {
 public:
  /// `store` must be finalized; it is queried for dimension constants.
  WorkloadGenerator(const core::Facet* facet, TripleStore* store)
      : facet_(facet), store_(store) {}

  Result<std::vector<core::WorkloadQuery>> Generate(const WorkloadOptions& options);

 private:
  /// Distinct values of dimension `dim` (up to max_constants).
  Result<std::vector<Term>> DimValues(int dim, int max_constants);

  const core::Facet* facet_;
  TripleStore* store_;
};

/// Knobs for synthetic update-stream generation (the evolving-KG scenario:
/// insert/delete mixes sized relative to the graph).
struct UpdateStreamOptions {
  int num_batches = 5;
  /// Operations per batch as a fraction of the base graph size.
  double batch_fraction = 0.01;
  /// Share of each batch's operations that are deletes (rest are inserts).
  double delete_fraction = 0.4;
  /// Floor on operations per batch (keeps tiny graphs interesting).
  int min_batch_ops = 4;
  uint64_t seed = 42;
};

/// Generates a deterministic stream of update batches against the base
/// graph `base` (SofosEngine::base_snapshot(), or BaseGraphView(store) for
/// a store without views). Deletes sample live base triples by rank;
/// inserts recombine the (s, p) of one existing triple with the object of
/// another triple of the same predicate, so inserts stay schema-consistent
/// and can both shift aggregate values and mint fresh group keys in facet
/// views. Batches are sequentially consistent: each one is generated
/// against the graph state left by applying all previous ones.
///
/// The first batch reads the view in place — rank access, membership, and
/// per-predicate object pools that are the o column of each predicate's
/// PSO run — so a one-batch stream copies nothing. Only a stream of two or
/// more batches materializes the evolving graph, after its first batch.
/// The batches for a seed are the same whatever backs the graph.
Result<std::vector<core::maintenance::GraphDelta>> GenerateUpdateStream(
    const core::BaseGraphView& base, const Dictionary& dict,
    const UpdateStreamOptions& options);

}  // namespace workload
}  // namespace sofos

#endif  // SOFOS_WORKLOAD_GENERATOR_H_
