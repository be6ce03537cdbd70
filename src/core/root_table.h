#ifndef SOFOS_CORE_ROOT_TABLE_H_
#define SOFOS_CORE_ROOT_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/facet.h"
#include "rdf/triple_store.h"
#include "sparql/value.h"

namespace sofos {
namespace core {

/// One root-view group: the interned ?agg and ?rows literals plus their
/// numeric decomposition, which mirrors the executor's aggregate
/// accumulator so that integer sums roll up to exactly what a view query
/// computes.
struct RootCell {
  TermId value_id = kNullTermId;  // kNullTermId = unbound
  TermId rows_id = kNullTermId;
  int64_t isum = 0;
  double dsum = 0.0;
  bool saw_double = false;
  uint64_t rows = 0;

  bool SameEncoding(const RootCell& other) const {
    return value_id == other.value_id && rows_id == other.rows_id;
  }
};

/// The root view of a facet (the view query grouping by every dimension),
/// evaluated once and kept at the TermId level. Every lattice view is a
/// roll-up of it, because the partition of pattern bindings by the full
/// dimension tuple refines the partition by any subset: the data-cube
/// lattice of Harinarayan, Rajaraman & Ullman. The profiler derives every
/// ViewStats from it, the materializer encodes roll-ups of it, and the view
/// maintainer keeps it current across base-graph updates.
///
/// Rows are sorted by group key (ascending TermIds in facet dimension
/// order), the order the root view query emits them in.
class RootTable {
 public:
  RootTable() = default;
  explicit RootTable(size_t num_dims) : num_dims_(num_dims) {}

  /// Evaluates the root view query over `store`.
  static Result<RootTable> Evaluate(TripleStore* store, const Facet& facet);

  size_t num_dims() const { return num_dims_; }
  size_t size() const { return cells_.size(); }
  /// Row `r`'s group key: num_dims() ids (kNullTermId = unbound).
  const TermId* key(size_t r) const { return keys_.data() + r * num_dims_; }
  const RootCell& cell(size_t r) const { return cells_[r]; }

  /// Row index of `key` (num_dims() ids), or size() when absent.
  size_t Find(const TermId* key) const;

  /// Appends a row; keys must arrive in strictly ascending order.
  void Append(const TermId* key, const RootCell& cell);

  /// One change to a group: `key` loses its row, if any, and gains `cell`
  /// unless it is null.
  struct Edit {
    const TermId* key;
    const RootCell* cell;
  };
  /// Applies edits given in strictly ascending key order, in one pass that
  /// copies the unchanged runs between them.
  void Apply(const std::vector<Edit>& edits);

  /// Σ rows over all groups: the number of facet-pattern bindings.
  uint64_t PatternRows() const;

 private:
  /// First row whose key is not less than `key`.
  size_t LowerBound(const TermId* key) const;

  size_t num_dims_ = 0;
  std::vector<TermId> keys_;  // row-major, num_dims_ ids per row
  std::vector<RootCell> cells_;
};

/// The rows of one lattice view in its view query's output order
/// (ascending group key).
struct ViewRows {
  uint32_t mask = 0;
  size_t width = 0;          // grouped dimensions: popcount(mask)
  std::vector<TermId> keys;  // row-major, `width` ids per row
  /// The aggregate per row, in one or both of two forms. `sums` holds the
  /// integer aggregate of an exact additive roll-up (COUNT, SUM, AVG
  /// stored as SUM), whose literal is Term::Integer(sum). `values` holds
  /// the interned literal where one exists already: the root's own cells,
  /// MIN/MAX picks and view-query rows (kNullTermId = unbound). Empty when
  /// not filled.
  std::vector<int64_t> sums;
  std::vector<TermId> values;
  std::vector<uint64_t> rows;  // contributing pattern bindings per group

  size_t size() const { return rows.size(); }
  const TermId* key(size_t r) const { return keys.data() + r * width; }
};

/// Derives lattice views from a root table. Read-only after construction,
/// so any number of threads may roll up concurrently.
///
/// COUNT, integer SUM and AVG (stored as SUM) roll up by integer addition,
/// and so does ?rows. MIN/MAX keep the root cell that Value::TotalCompare
/// orders first (last), which is exact because TotalCompare orders distinct
/// terms consistently. A SUM/AVG root with an xsd:double cell is not
/// exact: double addition depends on the order the executor streams the
/// bindings in, so every view except the root itself is then computed by
/// its view query (ComputeView).
class LatticeRollup {
 public:
  LatticeRollup(const RootTable* root, const Facet* facet,
                const Dictionary& dict);

  /// Groups the root rows `subset` (ascending row indices; every row when
  /// null) by the dimensions in `mask`. The apex over no rows has one row,
  /// as an aggregate without GROUP BY over no input does.
  ViewRows Rollup(uint32_t mask,
                  const std::vector<uint32_t>* subset = nullptr) const;

  /// True when view `mask` needs its view query instead of a roll-up.
  bool NeedsQuery(uint32_t mask) const {
    return !exact_ && mask != facet_->FullMask();
  }

  /// The rows of view `mask`: Rollup(mask), or its view query evaluated
  /// over `store` when NeedsQuery(mask).
  Result<ViewRows> ComputeView(uint32_t mask, TripleStore* store) const;

 private:
  const RootTable* root_;
  const Facet* facet_;
  bool exact_ = true;
  /// MIN/MAX facets: each root row's decoded aggregate value.
  std::vector<sparql::Value> values_;
};

}  // namespace core
}  // namespace sofos

#endif  // SOFOS_CORE_ROOT_TABLE_H_
