#ifndef SOFOS_SPARQL_PLANNER_H_
#define SOFOS_SPARQL_PLANNER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/binding.h"

namespace sofos {
namespace sparql {

/// Physical join algorithm of one pattern step (batch engine). The first
/// step is always kScan. kIndexLoop probes the store's permutation indexes
/// once per input row; kHashProbe probes a hash table built once from the
/// step's full pattern scan (the build side) and then probed read-only.
/// Both algorithms emit the matches of each probe row in
/// the same order (see TripleStore::ScanFieldOrder), so the choice never
/// changes query results — only speed.
enum class JoinAlgo { kScan, kIndexLoop, kHashProbe };

/// Hash-probe decision thresholds (Planner::Build). A step becomes a hash
/// join when its build side has at most kHashBuildMaxRows triples, the
/// probe-side hint (the largest pattern joined so far — pipelines fan out)
/// reaches kHashProbeMinRows, and the probe is at least 2x the build:
/// replacing an O(log n) index probe with an O(1) bucket lookup only
/// amortizes the build passes when each build triple is probed about twice
/// — measured on the bundled datasets, a 1:1 ratio is a wash that loses
/// the build cost. Below the thresholds the index nested-loop join wins.
inline constexpr uint64_t kHashBuildMaxRows = 4ull << 20;
inline constexpr uint64_t kHashProbeMinRows = 64;
inline constexpr uint64_t kHashProbePerBuildRow = 2;

/// The probe-side hint above (largest pattern so far) underestimates
/// pipelines that *fan out*: joining through a high-fanout predicate (e.g.
/// university –member→ student) multiplies the width beyond any single
/// pattern. Planner::Build therefore also tracks a width estimate that
/// compounds per-step predicate fanouts (TripleStore::AvgSubjectFanout /
/// AvgObjectFanout) and uses it as an additional hash-probe trigger — but
/// only once the estimated width reaches this floor. Fanout products are
/// noisy small-sample estimates at toy scale, and the bundled demo
/// datasets (≲ 20k triples) must keep bit-identical plans across releases
/// (tests assert plan strings); at the million-triple scales where the
/// width actually exceeds this floor, the compounding is dominated by real
/// fanout and the hint is reliable.
inline constexpr uint64_t kFanoutHintMinRows = 64ull << 10;

/// One basic-graph-pattern step in execution order. The first step is an
/// index scan; every later step joins the rows produced so far against its
/// pattern.
struct PatternStep {
  TriplePattern pattern;           // surface form, for EXPLAIN
  std::array<int, 3> slots;        // var slot per position (-1 = constant)
  std::array<TermId, 3> consts;    // constant id per position (kNullTermId = var)
  uint64_t est_cardinality = 0;    // exact count of the pattern in isolation
  bool connected = false;          // shares a variable with earlier steps
  std::vector<const Expr*> filters;  // filters fully bound after this step

  // ---- Physical (batch-engine) annotations ----
  JoinAlgo algo = JoinAlgo::kIndexLoop;
  /// Positions (0=s, 1=p, 2=o) whose variable is already bound by earlier
  /// steps — the equi-join key of this step. Empty for cross products.
  std::vector<int> key_positions;
  /// Field priority of the index an index-loop probe would scan (bound set
  /// = constants + keys); the hash join sorts its buckets by this order so
  /// both algorithms emit matches identically.
  std::array<int, 3> match_order{{0, 1, 2}};
};

/// Physical plan for the linear pipeline:
///   scan → (index join)* → [aggregate → having → order] → project →
///   distinct → [order] → slice.
/// An aggregate query orders its group rows before projection, as SPARQL
/// does, so a sort key may name an aggregate or a select alias the
/// projection drops; any other query orders its projected rows.
struct Plan {
  VariableTable pattern_vars;
  std::vector<PatternStep> steps;
  bool empty_guaranteed = false;  // constant term absent from the dictionary

  // Aggregation (populated iff is_aggregate).
  bool is_aggregate = false;
  std::vector<const Expr*> agg_specs;  // kAggregate nodes, slot i = agg_specs[i]
  std::vector<int> group_slots;        // pattern_vars slots of GROUP BY vars
  std::vector<std::string> group_names;
  VariableTable group_vars;            // layout of aggregate output rows
  std::vector<const Expr*> having;

  // Projection.
  struct OutputItem {
    std::string name;
    const Expr* expr = nullptr;  // evaluated when direct_slot < 0
    int direct_slot = -1;        // copy-through slot in the input layout
  };
  std::vector<OutputItem> outputs;
  VariableTable output_vars;

  bool distinct = false;
  /// (expr, ascending). In an aggregate query a key's select aliases are
  /// replaced by the aliased expressions (copies owned by `owned_keys`),
  /// so every key evaluates over the group row.
  std::vector<std::pair<const Expr*, bool>> order_keys;
  std::vector<std::shared_ptr<const Expr>> owned_keys;
  int64_t limit = -1;
  int64_t offset = 0;

  /// EXPLAIN-style rendering: one line per pipeline stage with estimates.
  std::string ToString() const;
};

/// Builds a physical plan. Join order: start from the pattern with the
/// smallest exact cardinality, then greedily add the connected pattern with
/// the smallest cardinality (falling back to a cross product only when no
/// remaining pattern shares a variable). Filters are pushed to the earliest
/// step at which all their variables are bound.
///
/// `query` is mutated only to assign Expr::agg_slot on aggregate nodes; the
/// plan stores pointers into the query, which must outlive it.
class Planner {
 public:
  static Result<Plan> Build(Query* query, const TripleStore& store);
};

}  // namespace sparql
}  // namespace sofos

#endif  // SOFOS_SPARQL_PLANNER_H_
