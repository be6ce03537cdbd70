#ifndef SOFOS_CORE_MAINTENANCE_VIEW_MAINTAINER_H_
#define SOFOS_CORE_MAINTENANCE_VIEW_MAINTAINER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/facet.h"
#include "core/maintenance/delta.h"
#include "core/materializer.h"
#include "core/root_table.h"
#include "rdf/triple_store.h"
#include "sparql/binding.h"

namespace sofos {

class ThreadPool;

namespace core {
namespace maintenance {

/// Maintenance figures for one materialized view.
struct ViewMaintenance {
  uint32_t mask = 0;
  uint64_t rows_added = 0;    // fresh group keys encoded
  uint64_t rows_deleted = 0;  // group keys whose contributions vanished
  uint64_t rows_updated = 0;  // existing keys whose value/rows changed
  uint64_t triples_added = 0;
  uint64_t triples_deleted = 0;

  /// True when the pass changed this view's encoding in any way — the
  /// per-view touched signal result-cache carry-forward keys on.
  bool touched() const {
    return rows_added + rows_deleted + rows_updated > 0;
  }
};

/// Which algorithm a maintenance pass ran (sofos_maintain_mode_total).
enum class MaintainMode { kSkip = 0, kDelta, kFull };
const char* MaintainModeName(MaintainMode mode);

/// Maintenance algorithm knobs (SofosEngine::SetMaintainOptions).
struct MaintainOptions {
  enum class Mode {
    kAuto,        // delta when legal and under the crossover, else full
    kForceDelta,  // delta whenever legal (tests; crossover ignored)
    kForceFull,   // always recompute-and-diff (the measured baseline)
  };
  Mode mode = Mode::kAuto;
  /// kAuto cost crossover: the delta path runs while the effective
  /// pattern-relevant delta holds at most this fraction of the base
  /// triples; larger batches recompute the root outright. The default was
  /// picked from bench_maintenance's delta-size sweep (the measured
  /// crossover sits above 5% on the bundled datasets; 2% keeps headroom
  /// for join-heavier facets).
  double crossover_fraction = 0.02;
};

/// Aggregate figures of one maintenance pass over all materialized views.
struct MaintenanceReport {
  std::vector<ViewMaintenance> views;
  uint64_t root_rows_changed = 0;  // root-view group keys that changed
  uint64_t triples_added = 0;      // encoding triples merged into G+
  uint64_t triples_deleted = 0;
  double root_query_micros = 0.0;  // root repair: Δ join or full evaluation
  double maintain_micros = 0.0;    // per-view delta staging (all views)
  double merge_micros = 0.0;       // final ApplyDelta into the store
  /// Which root-repair algorithm ran (kSkip until MaintainAll sets it).
  MaintainMode mode = MaintainMode::kSkip;
  /// Signed Δ-join bindings folded into the root table (delta mode only).
  uint64_t delta_bindings = 0;
  /// Root group keys repaired by targeted re-evaluation instead of
  /// additive folding (MIN/MAX groups, double-valued aggregates).
  uint64_t regrouped_keys = 0;
  /// True when the base delta could not touch the facet pattern, so no
  /// maintenance work ran at all (root table and encodings still valid).
  bool skipped = false;

  std::string Summary() const;
};

/// Incrementally repairs the blank-node encodings of materialized views
/// after a base-graph delta, instead of rematerializing every view and
/// re-finalizing the store.
///
/// Roll-up algebra: every lattice view is a roll-up of the root view (the
/// one grouping by ALL facet dimensions), because the partition of pattern
/// bindings by the full dimension tuple refines the partition by any
/// subset. The maintainer keeps the facet's RootTable (core/root_table.h:
/// full group key → aggregate decomposition and contributing rows), the
/// same table the profiler and the materializer derive views from:
/// Initialize adopts the engine's table instead of evaluating the root
/// again. Per coarser view it adds additive roll-up accumulators and a
/// projected-key → root-key bucket index. One maintenance pass then costs:
///
///   1. repair the cached root table — in **delta mode** by evaluating the
///      Δ of the facet-pattern join directly from the staged adds/deletes
///      (counting-based IVM: signed bindings from seeded joins of the
///      delta triples against the post-delta store, inclusion–exclusion
///      over the touched patterns; see ComputeDeltaDiff and the README's
///      Δ algebra section), or in **full mode** (the automatic fallback
///      for large deltas and variable-predicate patterns) by recomputing
///      the root with one query and diffing against the cache;
///   2. both modes emit the same root-table diff (changed keys with old
///      and new cells);
///   3. per materialized view (fanned out over the thread pool): fold the
///      diff into the view's additive accumulators — COUNT and SUM roll
///      up by addition, AVG is stored as SUM (the encoding contract, see
///      Materializer) so it also rolls up by addition — touching
///      O(|Δ root keys|) view rows; MIN/MAX and double-valued groups are
///      re-derived exactly from the bucket index's root cells;
///   4. stage the per-row triple edits (adjust sofos:value / sofos:rows,
///      encode fresh rows, tombstone vanished rows) and merge them with
///      one TripleStore::ApplyDelta.
///
/// Exactness: maintained values equal what full rematerialization would
/// store, byte-for-byte for integer aggregates (COUNT, SUM over
/// xsd:integer — every bundled dataset). Any group touched by a
/// double-valued binding is repaired by targeted re-evaluation, so its
/// value matches a fresh evaluation of that group; double *roll-ups*
/// still add per-group subtotals in a fixed order and can differ from a
/// from-scratch fold in the last ulps (tests compare those numerically).
///
/// Threading: per-view staging only reads the store (const scans), the
/// shared root diff and its own accumulators, and interns new literals
/// through the internally synchronized dictionary, so views fan out
/// safely. Fresh blank-node labels come from a per-view counter over keys
/// processed in sorted key order, making the maintained graph independent
/// of the thread count in both modes.
class ViewMaintainer {
 public:
  ViewMaintainer(TripleStore* store, const Facet* facet);

  /// Captures the pre-update state: adopts `root`, the root table of the
  /// *current* graph, builds every view's roll-up accumulators and bucket
  /// index from it, and indexes the blank-node rows of every materialized
  /// view. Must run while the store still reflects the state the views
  /// were materialized against (i.e. before the base delta merges).
  Status Initialize(const std::vector<MaterializedView>& views,
                    RootTable root);
  bool initialized() const { return initialized_; }

  void SetOptions(const MaintainOptions& options) { options_ = options; }
  const MaintainOptions& options() const { return options_; }

  /// True iff the delta can affect facet-pattern bindings (some add or
  /// delete uses a pattern predicate; conservatively true when a pattern
  /// predicate is a variable). Non-affecting deltas need no maintenance —
  /// the cached root table stays valid.
  bool Affects(const GraphDelta& delta) const;

  /// Captures the *effective* base delta for the next MaintainAll — must
  /// be called BEFORE the base delta merges into the store (membership
  /// tests run against the pre-delta graph). `add_ids` / `delete_ids` are
  /// the interned delta triples, sorted and deduplicated. Normalization
  /// (G' = (G \ D) ∪ A): adds already present and deletes of absent or
  /// re-added triples drop out; triples off the facet-pattern predicates
  /// drop out too, so the cost crossover measures the relevant delta.
  /// Without this call MaintainAll falls back to full recompute.
  Status PrepareDelta(const std::vector<Triple>& add_ids,
                      const std::vector<Triple>& delete_ids);

  /// Repairs all view encodings against the store's current (post-delta)
  /// base data; call AFTER the base delta merged. Leaves the store
  /// finalized and the internal caches advanced to the new state.
  Result<MaintenanceReport> MaintainAll(ThreadPool* pool = nullptr);

  /// Current root-view table size — the fresh row count of the root view,
  /// used to refresh routing statistics without re-profiling.
  uint64_t root_rows() const { return root_.size(); }

 private:
  /// A group key: one interned id per facet dimension for the root table,
  /// one per retained dimension for a view's rows. kNullTermId = unbound.
  using Key = std::vector<TermId>;

  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  /// One changed root-table key: the cell before and after the repair.
  /// Both repair modes reduce to a sorted vector of these; everything
  /// downstream (view roll-up, staging) is mode-agnostic.
  struct RootDiff {
    Key key;
    RootCell old_cell;
    RootCell new_cell;
    bool had_old = false;
    bool has_new = false;
  };

  /// One encoded view row in the store.
  struct RowInfo {
    TermId blank = kNullTermId;
    TermId value_id = kNullTermId;  // kNullTermId when the triple is absent
    TermId rows_id = kNullTermId;
  };

  /// Additive roll-up state of one view row: the running aggregate
  /// decomposition plus the projecting-root-key census that decides
  /// liveness and whether an exact re-fold is needed.
  struct ViewCell {
    int64_t isum = 0;
    double dsum = 0.0;
    int64_t rows = 0;
    uint32_t root_keys = 0;     // live root keys projecting into this row
    uint32_t double_roots = 0;  // of those, cells with saw_double
  };

  /// Mutable per-view state; only its owning maintenance task touches it.
  struct ViewState {
    uint32_t mask = 0;
    TermId view_iri_id = kNullTermId;
    std::vector<int> dims;  // facet dim indices retained by mask, ascending
    std::unordered_map<Key, RowInfo, KeyHash> rows;
    /// Roll-up accumulators (non-root views; the root view reads the root
    /// table directly), maintained additively from the root diff.
    std::unordered_map<Key, ViewCell, KeyHash> cells;
    /// Projected key → sorted root keys projecting into it: the bucket
    /// index that makes MIN/MAX and double-group re-derivation O(bucket)
    /// instead of O(root table).
    std::unordered_map<Key, std::vector<Key>, KeyHash> buckets;
    uint64_t next_fresh = 0;  // fresh blank-node counter
  };

  /// Triple edits staged by one view's maintenance task.
  struct StagedEdits {
    std::vector<Triple> adds;
    std::vector<Triple> deletes;
    ViewMaintenance stats;
  };

  /// The effective delta PrepareDelta captured (consumed by MaintainAll).
  struct PendingDelta {
    std::vector<Triple> adds;
    std::vector<Triple> deletes;
    bool prepared = false;
  };

  Status IndexViewRows(ViewState* view) const;
  /// Folds the cached root table into `view`'s accumulators and bucket
  /// index (Initialize; skipped for the root view).
  void BuildViewAccumulators(ViewState* view) const;
  Key ProjectKey(const Key& root_key, const ViewState& view) const;

  /// Delta-rule root repair: turns the pending effective delta into a
  /// root-table diff via signed Δ-join bindings (read-only on root_).
  /// Returns false when the algebra detects an inconsistency (negative
  /// group count) — the caller falls back to full recompute.
  Result<bool> ComputeDeltaDiff(std::vector<RootDiff>* diff,
                                MaintenanceReport* report) const;
  /// Exact evaluation of one root group: the facet BGP with the dimension
  /// slots pre-bound to `key` (the MIN/MAX and double-group fallback).
  Result<RootCell> EvalRootGroup(const Key& key) const;
  /// Full-recompute fallback: evaluates the root and lockstep-diffs it
  /// against the cache; replaces root_ with the fresh table.
  Result<std::vector<RootDiff>> ComputeFullDiff();
  /// Applies a key-sorted diff to root_ (RootTable::Apply).
  void ApplyRootDiff(const std::vector<RootDiff>& diff);

  /// Rolls the root diff up into one view and stages the triple edits.
  /// Mutates only `view` and `out`; reads root_ in its post-repair state.
  void MaintainView(ViewState* view, const std::vector<RootDiff>& diff,
                    StagedEdits* out) const;

  TripleStore* store_;
  const Facet* facet_;
  bool initialized_ = false;
  MaintainOptions options_;

  // Interned encoding vocabulary (filled by Initialize).
  TermId view_pred_id_ = kNullTermId;
  TermId value_pred_id_ = kNullTermId;
  TermId rows_pred_id_ = kNullTermId;
  std::vector<TermId> dim_pred_ids_;  // per facet dimension

  // Δ-join layout over the facet pattern (filled by Initialize).
  sparql::VariableTable vars_;
  std::vector<int> dim_slots_;  // per facet dimension, in vars_ layout
  int agg_slot_ = -1;
  /// Every pattern predicate is a constant — the delta rules' legality
  /// condition (a variable predicate makes every triple a potential
  /// binding, so the pass falls back to full recompute).
  bool pattern_delta_ok_ = false;

  PendingDelta pending_;
  RootTable root_;
  std::vector<ViewState> views_;
};

}  // namespace maintenance
}  // namespace core
}  // namespace sofos

#endif  // SOFOS_CORE_MAINTENANCE_VIEW_MAINTAINER_H_
