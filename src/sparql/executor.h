#ifndef SOFOS_SPARQL_EXECUTOR_H_
#define SOFOS_SPARQL_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/triple_store.h"
#include "sparql/binding.h"
#include "sparql/planner.h"

namespace sofos {

class TraceContext;

namespace sparql {

/// Per-operator actuals, collected only when ExecOptions::analyze is set
/// (EXPLAIN ANALYZE). One entry per physical operator in pipeline order:
/// per plan step a scan/join slot plus an optional FILTER slot, then the
/// tail as applicable: AGGREGATE / HAVING / ORDER BY / PROJECT / DISTINCT /
/// SLICE for an aggregate query, PROJECT / DISTINCT / ORDER BY / SLICE for
/// any other. The slot layout is derived from the Plan alone, so it is
/// identical across batch sizes and shard counts. `micros` is inclusive
/// wall time, so self time (inclusive minus child inclusive) sums to
/// ~exec_micros.
struct OperatorStats {
  std::string label;            // "SCAN <pattern>", "FILTER <expr>", ...
  uint64_t est_rows = 0;        // planner estimate (pattern steps only)
  uint64_t rows_out = 0;        // live rows emitted by this operator
  uint64_t batches = 0;         // successful Next() calls
  double micros = 0.0;          // inclusive time spent in Next()
  uint64_t hash_build_rows = 0; // HJOIN: build-side triples
  double build_micros = 0.0;    // HJOIN: build time
};

/// Execution counters. The paper's online module reports per-query work;
/// these counters feed its statistics (Sofos GUI panel ④) and the learned
/// cost model's training features.
///
/// Row counters depend only on the plan for fully drained queries, never on
/// batch boundaries. Queries that stop pulling early (LIMIT with no
/// pipeline breaker above the scan) count only the work actually consumed.
struct ExecStats {
  uint64_t rows_scanned = 0;       // triples touched by scans and joins
  uint64_t intermediate_rows = 0;  // rows flowing between pattern steps
  uint64_t filtered_rows = 0;      // rows dropped by FILTER/HAVING
  uint64_t output_rows = 0;
  double plan_micros = 0.0;
  double exec_micros = 0.0;  // wall clock of Run()
  /// Per-operator actuals; empty unless ExecOptions::analyze was set.
  std::vector<OperatorStats> operators;
};

/// Per-query execution knobs. No setting changes results (rows, order,
/// interned literals); see the Executor determinism contract.
struct ExecOptions {
  /// Rows per RowBatch between operators. Production callers keep the
  /// default; tests vary it to reach batch boundaries.
  size_t batch_size = 1024;
  /// Collect per-operator actuals into ExecStats::operators (EXPLAIN
  /// ANALYZE). Off by default: the instrumented wrappers time every
  /// Next() call, which is not free on the hot path.
  bool analyze = false;
  /// When non-null, the executor records spans (the run, hash builds)
  /// into this context; null costs one branch per span site.
  TraceContext* trace = nullptr;
  /// Span id the executor's root span is parented under (0 = root) —
  /// lets engine-level phase spans own the executor subtree.
  uint64_t trace_parent = 0;
};

/// Initial slot count of the aggregate operator's group index: a constant,
/// not a knob. The index doubles whenever it is half full.
inline constexpr size_t kAggregateInitialSlots = 256;

/// A fixed-capacity columnar batch of solution rows: one uint32 TermId
/// vector per variable slot plus an optional selection vector. Operators
/// fill batches bottom-up; FILTER/DISTINCT/slice drop rows by shrinking
/// `sel` instead of moving data. Row order (physical index order, filtered
/// through `sel` in ascending order) is the stream order — batch boundaries
/// never affect results.
class RowBatch {
 public:
  RowBatch() = default;

  /// (Re)shapes the batch to `width` columns of `capacity` rows, clears all
  /// cells to kNullTermId and drops the selection vector.
  void Reset(size_t width, size_t capacity);

  /// Like Reset but leaves cell contents undefined — for operators that
  /// overwrite every column of every row they emit (joins copy the full
  /// probe row; aggregate/sort outputs write all cells).
  void ResetShape(size_t width, size_t capacity);

  size_t width() const { return width_; }
  size_t capacity() const { return capacity_; }
  size_t rows() const { return rows_; }
  void set_rows(size_t rows) { rows_ = rows; }

  TermId* Col(size_t c) { return data_.data() + c * capacity_; }
  const TermId* Col(size_t c) const { return data_.data() + c * capacity_; }
  TermId At(size_t c, size_t r) const { return Col(c)[r]; }

  /// Number of live rows (selection applied).
  size_t ActiveCount() const { return has_sel_ ? sel_.size() : rows_; }
  /// Physical index of the i-th live row; ascending in i.
  uint32_t ActiveIndex(size_t i) const {
    return has_sel_ ? sel_[i] : static_cast<uint32_t>(i);
  }
  bool has_sel() const { return has_sel_; }
  const std::vector<uint32_t>& sel() const { return sel_; }
  /// Installs a selection vector (indices must be ascending physical rows).
  void SetSel(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    has_sel_ = true;
  }

  /// Copies physical row `r` into `out` (resized to width).
  void GatherRow(uint32_t r, Row* out) const;

 private:
  size_t width_ = 0;
  size_t capacity_ = 0;
  size_t rows_ = 0;
  std::vector<TermId> data_;  // column-major: data_[c * capacity_ + r]
  std::vector<uint32_t> sel_;
  bool has_sel_ = false;
};

/// Executor output: `rows` solution rows of `width` TermIds each
/// (kNullTermId = unbound), row-major in one buffer.
struct RowBuffer {
  size_t width = 0;
  size_t rows = 0;
  std::vector<TermId> cells;

  const TermId* row(size_t r) const { return cells.data() + r * width; }
};

/// Vectorized operator interface: Next() fills `out` with the next batch
/// (possibly with a selection vector) and returns false at end of stream.
/// Errors abort the query.
class BatchOperator {
 public:
  virtual ~BatchOperator() = default;
  virtual Result<bool> Next(RowBatch* out) = 0;
};

/// Builds the operator tree for `plan` and runs it to completion on the
/// caller's thread.
///
/// The dictionary is mutable because aggregation and expression projection
/// intern freshly computed literals (sums, averages); interning never
/// invalidates the store's indexes.
///
/// Determinism contract: for a fixed plan, the output row stream — and the
/// order in which fresh literals are interned — is identical at every
/// batch_size. Hash and index joins emit each probe row's matches in the
/// same index order (PatternStep::match_order), so flipping a step's
/// JoinAlgo never changes the stream either.
///
/// Thread safety: one Executor serves one query, but any number of
/// Executors may Run() concurrently over the same finalized store — they
/// perform const index scans only, and Dictionary::Intern is internally
/// synchronized (see rdf/dictionary.h).
class Executor {
 public:
  Executor(const Plan* plan, const TripleStore* store, Dictionary* dict,
           ExecOptions options = {});

  /// Runs the full pipeline and appends its output rows (in output_vars
  /// layout) to `out`, setting its width.
  Status Run(RowBuffer* out, ExecStats* stats);

  /// One-line rendering of how the batch engine would run `plan` under
  /// `options` (batch size, leaf-scan rows, hash joins) — the EXPLAIN
  /// companion to Plan::ToString().
  static std::string DescribePhysical(const Plan& plan, const TripleStore& store,
                                      const ExecOptions& options);

  /// EXPLAIN ANALYZE rendering: the plan tree with per-operator actuals
  /// (rows/batches/self-micros next to the planner's estimates) plus a
  /// totals line. `stats` must come from a Run() with options.analyze set;
  /// with no collected operators, renders the plan with a note instead.
  static std::string RenderAnalyze(const Plan& plan, const ExecStats& stats);

 private:
  Status RunBatch(RowBuffer* out, ExecStats* stats);

  const Plan* plan_;
  const TripleStore* store_;
  Dictionary* dict_;
  ExecOptions options_;
};

}  // namespace sparql
}  // namespace sofos

#endif  // SOFOS_SPARQL_EXECUTOR_H_
