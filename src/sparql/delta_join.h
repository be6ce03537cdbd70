#ifndef SOFOS_SPARQL_DELTA_JOIN_H_
#define SOFOS_SPARQL_DELTA_JOIN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/binding.h"

namespace sofos {
namespace sparql {

/// Output of a seeded BGP evaluation: one fully-extended row per solution,
/// in deterministic (seed-major, match-order-minor) order, plus the index
/// of the seed row each solution grew from — so callers folding signed
/// delta bindings can recover each solution's sign/weight.
struct SeededJoinResult {
  std::vector<Row> rows;
  std::vector<uint32_t> seed_index;
  uint64_t rows_scanned = 0;
};

/// A pending change to one pattern's relation: triples to add to and
/// remove from what the store returns for it. `adds` must be absent from
/// the store and `deletes` present in it (an effective delta), in any
/// order; triples that do not match the pattern are never scanned. The
/// constructor sorts both lists once in each of the store's five scan
/// orders, so one patch serves any number of evaluations, read-only.
class PatternPatch {
 public:
  /// The patch sorted in one scan order (a TripleStore::ScanFieldOrder
  /// field priority).
  struct Run {
    std::array<int, 3> order{{0, 1, 2}};
    std::vector<Triple> adds;
    std::vector<Triple> deletes;
  };

  PatternPatch(std::vector<Triple> adds, std::vector<Triple> deletes);

  bool empty() const {
    return runs_[0].adds.empty() && runs_[0].deletes.empty();
  }
  /// The run in SPO order.
  const Run& spo() const { return runs_[0]; }
  /// The run in `order`, which must be one of the store's scan orders.
  const Run& RunFor(const std::array<int, 3>& order) const;

 private:
  std::array<Run, 5> runs_;
};

/// Slot layout for a BGP: every variable of `patterns`, first occurrence
/// in (pattern, s/p/o) order. Seed rows passed to EvaluateSeededBgp must
/// use this width and layout.
VariableTable BgpVariables(const std::vector<TriplePattern>& patterns);

/// Evaluates the sub-BGP `patterns[remaining[...]]` once per seed row —
/// the Δ-pattern-join primitive of incremental view maintenance: a seed
/// binds the variables of the already-matched (delta) patterns, and the
/// remaining patterns are joined against `store` starting from it.
///
/// `bound_slots` lists the slots (in `vars` layout) bound in *every* seed;
/// it drives the same greedy ordering, join-key derivation, match-order
/// and hash-build-vs-index-probe decisions the batch planner makes
/// (planner.h thresholds), so per-seed match streams are emitted in
/// PatternStep::match_order — deterministic and identical to what a full
/// evaluation of the BGP would produce for those bindings. Unbound seed
/// slots act as wildcards. Stages reuse the batch executor's shared-build
/// hash-table machinery; the whole evaluation is serial and allocates
/// O(result) rows.
///
/// `patches[i]`, when present and non-null, is merged into every scan of
/// `patterns[i]`: its deletes are skipped and its adds merged in at their
/// place in the scan order. A patched pattern's counts, plan decisions,
/// hash builds and match streams are then exactly those of `store` with
/// the patch applied through TripleStore::ApplyDelta — which lets the
/// maintainer read the post-delta graph before anything merges.
///
/// With `remaining` empty, echoes the seeds. A constant term absent from
/// the dictionary proves the sub-BGP empty (no rows).
Result<SeededJoinResult> EvaluateSeededBgp(
    const TripleStore& store, const VariableTable& vars,
    const std::vector<TriplePattern>& patterns,
    const std::vector<size_t>& remaining, const std::vector<int>& bound_slots,
    const std::vector<Row>& seeds,
    const std::vector<const PatternPatch*>& patches = {});

}  // namespace sparql
}  // namespace sofos

#endif  // SOFOS_SPARQL_DELTA_JOIN_H_
