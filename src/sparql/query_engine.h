#ifndef SOFOS_SPARQL_QUERY_ENGINE_H_
#define SOFOS_SPARQL_QUERY_ENGINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/executor.h"

namespace sofos {
namespace sparql {

/// Decoded query results: one row of Terms per solution. Unbound positions
/// carry a default-constructed empty IRI with `bound[...] == false` encoded
/// as an empty lexical (helpers below expose bound-ness explicitly).
struct QueryResult {
  std::vector<std::string> var_names;
  std::vector<std::vector<Term>> rows;
  std::vector<std::vector<bool>> bound;  // parallel to rows
  ExecStats stats;

  size_t NumRows() const { return rows.size(); }
  size_t NumCols() const { return var_names.size(); }

  /// Renders an aligned text table (for examples and the CLI).
  std::string ToTable(size_t max_rows = 50) const;

  /// Sorts rows by the total term order; makes result comparison in tests
  /// independent of execution order.
  void SortCanonical();
};

/// Facade tying parser, planner and executor together — the query-processing
/// component of the Sofos online module (paper Figure 2).
///
/// The store must be finalized. Execution may intern new literal terms
/// (aggregate results) into the store's dictionary but never adds triples,
/// so independent QueryEngine instances over the same store may Execute()
/// concurrently (dictionary interning is internally synchronized).
///
/// `options` sets the batch size and the instrumentation; results are
/// identical for every setting (see the Executor determinism contract).
class QueryEngine {
 public:
  explicit QueryEngine(TripleStore* store) : store_(store) {}
  QueryEngine(TripleStore* store, const ExecOptions& options)
      : store_(store), options_(options) {}

  /// Parses and runs a query.
  Result<QueryResult> Execute(std::string_view sparql);

  /// Runs a pre-parsed query. `query` may have aggregate slots assigned as
  /// a side effect of planning.
  Result<QueryResult> Execute(Query* query);

  /// Runs a query and returns the executor's rows as TermIds in result
  /// column order, without decoding them into Terms.
  Result<RowBuffer> ExecuteIds(std::string_view sparql);

  /// Returns the plan rendering plus the physical batch schedule (batch
  /// size, leaf-scan rows, hash joins) this engine's options would execute
  /// it with, for diagnostics.
  Result<std::string> Explain(std::string_view sparql);

  /// EXPLAIN ANALYZE: executes the query with per-operator instrumentation
  /// (ExecOptions::analyze) and returns the physical schedule plus the plan
  /// tree annotated with actual rows/batches/micros next to the planner's
  /// estimates, then a totals line. If `result_out` is non-null the decoded
  /// result is moved there, so callers can both show actuals and use rows.
  Result<std::string> Analyze(std::string_view sparql,
                              QueryResult* result_out = nullptr);

  TripleStore* store() { return store_; }

 private:
  TripleStore* store_;
  ExecOptions options_;
};

}  // namespace sparql
}  // namespace sofos

#endif  // SOFOS_SPARQL_QUERY_ENGINE_H_
