#include "sparql/executor.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "sparql/delta_join.h"
#include "sparql/expression.h"
#include "sparql/value.h"

namespace sofos {
namespace sparql {

namespace {

uint64_t HashRow(const Row& row) {
  return Fnv1a64(row.data(), row.size() * sizeof(TermId));
}

struct RowHash {
  size_t operator()(const Row& row) const { return static_cast<size_t>(HashRow(row)); }
};

inline TermId TripleField(const Triple& t, int f) {
  switch (f) {
    case 0:
      return t.s;
    case 1:
      return t.p;
    default:
      return t.o;
  }
}

/// Binds the variable positions of `step` from `triple` into `row`.
/// Returns false when a repeated variable binds inconsistently (e.g. the
/// pattern `?x ?p ?x` against a triple whose s != o) or when the triple
/// conflicts with values already present in the row.
bool BindStep(const PatternStep& step, const Triple& triple, Row* row) {
  const TermId fields[3] = {triple.s, triple.p, triple.o};
  for (int i = 0; i < 3; ++i) {
    int slot = step.slots[i];
    if (slot < 0) continue;
    TermId current = (*row)[static_cast<size_t>(slot)];
    if (current == kNullTermId) {
      (*row)[static_cast<size_t>(slot)] = fields[i];
    } else if (current != fields[i]) {
      return false;
    }
  }
  return true;
}

/// Column-wise counterpart of BindStep: binds into physical row `j` of a
/// batch. Identical accept/reject semantics.
bool BindStepAt(const PatternStep& step, const Triple& triple, RowBatch* batch,
                size_t j) {
  const TermId fields[3] = {triple.s, triple.p, triple.o};
  for (int i = 0; i < 3; ++i) {
    int slot = step.slots[i];
    if (slot < 0) continue;
    TermId* col = batch->Col(static_cast<size_t>(slot));
    if (col[j] == kNullTermId) {
      col[j] = fields[i];
    } else if (col[j] != fields[i]) {
      return false;
    }
  }
  return true;
}

/// Clears the slots `step` may have written into row `j` (after a failed
/// bind, so the next attempt starts from nulls like a fresh row).
void UnbindStepAt(const PatternStep& step, RowBatch* batch, size_t j) {
  for (int i = 0; i < 3; ++i) {
    if (step.slots[i] >= 0) {
      batch->Col(static_cast<size_t>(step.slots[i]))[j] = kNullTermId;
    }
  }
}

/// Copies physical row `r` of `src` into physical row `j` of `dst` (all
/// columns; both batches share the same width).
inline void CopyRowInto(const RowBatch& src, uint32_t r, RowBatch* dst, size_t j) {
  for (size_t c = 0; c < src.width(); ++c) {
    dst->Col(c)[j] = src.At(c, r);
  }
}

// ---------------------------------------------------------------------------
// Aggregate accumulation, shared verbatim by the row and batch engines so
// the two can never diverge (the batch engine's byte-identity contract).
// ---------------------------------------------------------------------------

struct AggAccum {
  uint64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  bool saw_double = false;
  bool has_best = false;
  Value best;
  std::unordered_set<TermId> distinct_ids;
};

/// Accumulates one bound, error-free argument value `v` of a non-COUNT(*)
/// aggregate. The batch engine calls this directly for bare-variable
/// arguments it decodes itself; AggAccumulate calls it for everything else.
Status AggAccumulateValue(const Expr& spec, const Value& v, Dictionary* dict,
                          AggAccum* acc) {
  if (spec.agg_distinct) {
    SOFOS_ASSIGN_OR_RETURN(Term term, v.ToTerm());
    TermId id = dict->Intern(term);
    if (!acc->distinct_ids.insert(id).second) return Status::OK();
  }

  ++acc->count;
  switch (spec.agg) {
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (!v.is_numeric()) break;  // non-numeric values are skipped
      if (v.type() == Value::Type::kDouble) {
        acc->saw_double = true;
        acc->dsum += v.double_value();
      } else {
        acc->isum += v.int_value();
      }
      break;
    case AggKind::kMin:
      if (!acc->has_best || v.TotalCompare(acc->best) < 0) {
        acc->best = v;
        acc->has_best = true;
      }
      break;
    case AggKind::kMax:
      if (!acc->has_best || v.TotalCompare(acc->best) > 0) {
        acc->best = v;
        acc->has_best = true;
      }
      break;
  }
  return Status::OK();
}

Status AggAccumulate(const Expr& spec, const Row& in, const ExprEvaluator& eval,
                     Dictionary* dict, AggAccum* acc) {
  if (spec.count_star) {
    ++acc->count;
    return Status::OK();
  }
  auto value = eval.Eval(*spec.agg_arg, in);
  // SPARQL semantics: rows whose aggregate expression errors (including
  // unbound) are skipped by the aggregate, not the whole group.
  if (!value.ok() || value.value().is_unbound()) return Status::OK();
  return AggAccumulateValue(spec, value.value(), dict, acc);
}

Result<TermId> AggFinalize(const Expr& spec, const AggAccum& acc,
                           Dictionary* dict) {
  Value result;
  switch (spec.agg) {
    case AggKind::kCount:
      result = Value::Int(static_cast<int64_t>(acc.count));
      break;
    case AggKind::kSum:
      if (acc.saw_double) {
        result = Value::MakeDouble(acc.dsum + static_cast<double>(acc.isum));
      } else {
        result = Value::Int(acc.isum);  // SUM of empty input is 0
      }
      break;
    case AggKind::kAvg:
      if (acc.count == 0) return kNullTermId;
      result = Value::MakeDouble((acc.dsum + static_cast<double>(acc.isum)) /
                                 static_cast<double>(acc.count));
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      if (!acc.has_best) return kNullTermId;
      result = acc.best;
      break;
  }
  SOFOS_ASSIGN_OR_RETURN(Term term, result.ToTerm());
  return dict->Intern(term);
}

// ---------------------------------------------------------------------------
// Legacy row-at-a-time (Volcano) operators — ExecMode::kVolcano. Kept as
// the reference semantics the batch engine is asserted against and as the
// bench baseline.
// ---------------------------------------------------------------------------

/// Scan of the first pattern step.
class ScanOp : public Operator {
 public:
  ScanOp(const TripleStore* store, const PatternStep* step, size_t width,
         ExecStats* stats)
      : step_(step), width_(width), stats_(stats) {
    range_ = store->Scan(step->consts[0], step->consts[1], step->consts[2]);
    next_ = range_.begin();
  }

  Result<bool> Next(Row* row) override {
    while (next_ != range_.end()) {
      const Triple& t = *next_++;
      ++stats_->rows_scanned;
      row->assign(width_, kNullTermId);
      if (BindStep(*step_, t, row)) return true;
    }
    return false;
  }

 private:
  const PatternStep* step_;
  size_t width_;
  ExecStats* stats_;
  TripleStore::ScanRange range_;
  const Triple* next_ = nullptr;
};

/// Index nested-loop join: for every input row, substitutes the bound
/// variables into the pattern and scans the matching index range.
class IndexJoinOp : public Operator {
 public:
  IndexJoinOp(std::unique_ptr<Operator> child, const TripleStore* store,
              const PatternStep* step, ExecStats* stats)
      : child_(std::move(child)), store_(store), step_(step), stats_(stats) {}

  Result<bool> Next(Row* row) override {
    while (true) {
      while (cursor_ != range_.end()) {
        const Triple& t = *cursor_++;
        ++stats_->rows_scanned;
        *row = current_;
        if (BindStep(*step_, t, row)) return true;
      }
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(&current_));
      if (!has) return false;
      ++stats_->intermediate_rows;
      TermId ids[3];
      for (int i = 0; i < 3; ++i) {
        if (step_->slots[i] >= 0) {
          ids[i] = current_[static_cast<size_t>(step_->slots[i])];  // may be null
        } else {
          ids[i] = step_->consts[i];
        }
      }
      range_ = store_->Scan(ids[0], ids[1], ids[2]);
      cursor_ = range_.begin();
    }
  }

 private:
  std::unique_ptr<Operator> child_;
  const TripleStore* store_;
  const PatternStep* step_;
  ExecStats* stats_;
  Row current_;
  TripleStore::ScanRange range_;
  const Triple* cursor_ = nullptr;
};

/// FILTER evaluation; SPARQL semantics: an evaluation error removes the row.
class FilterOp : public Operator {
 public:
  FilterOp(std::unique_ptr<Operator> child, std::vector<const Expr*> filters,
           const Dictionary* dict, const VariableTable* vars, ExecStats* stats,
           int agg_base = -1)
      : child_(std::move(child)),
        filters_(std::move(filters)),
        eval_(dict, vars, agg_base),
        stats_(stats) {}

  Result<bool> Next(Row* row) override {
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      bool pass = true;
      for (const Expr* f : filters_) {
        auto verdict = eval_.EvalBool(*f, *row);
        if (!verdict.ok() || !verdict.value()) {
          pass = false;
          break;
        }
      }
      if (pass) return true;
      ++stats_->filtered_rows;
    }
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<const Expr*> filters_;
  ExprEvaluator eval_;
  ExecStats* stats_;
};

/// Hash aggregation. Materializes all groups on the first Next() call and
/// then streams [group vars..., agg results...] rows.
class AggregateOp : public Operator {
 public:
  AggregateOp(std::unique_ptr<Operator> child, const Plan* plan,
              const Dictionary* dict, Dictionary* mutable_dict, ExecStats* stats)
      : child_(std::move(child)),
        plan_(plan),
        eval_(dict, &plan->pattern_vars),
        dict_(mutable_dict),
        stats_(stats) {}

  Result<bool> Next(Row* row) override {
    if (!materialized_) {
      SOFOS_RETURN_IF_ERROR(Materialize());
      materialized_ = true;
    }
    if (cursor_ >= results_.size()) return false;
    *row = results_[cursor_++];
    return true;
  }

 private:
  Status Materialize() {
    const size_t num_groups_vars = plan_->group_slots.size();
    const size_t num_aggs = plan_->agg_specs.size();
    // Group key -> accumulators. std::map keeps the output deterministic.
    std::map<Row, std::vector<AggAccum>> groups;

    Row in;
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(&in));
      if (!has) break;
      ++stats_->intermediate_rows;
      Row key(num_groups_vars);
      for (size_t i = 0; i < num_groups_vars; ++i) {
        key[i] = in[static_cast<size_t>(plan_->group_slots[i])];
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      if (inserted) it->second.resize(num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) {
        SOFOS_RETURN_IF_ERROR(
            AggAccumulate(*plan_->agg_specs[a], in, eval_, dict_, &it->second[a]));
      }
    }

    // SPARQL: an aggregate query with no GROUP BY over an empty input still
    // produces one group (COUNT = 0, SUM = 0, others unbound).
    if (groups.empty() && num_groups_vars == 0) {
      groups.try_emplace(Row{}).first->second.resize(num_aggs);
    }

    for (auto& [key, accums] : groups) {
      Row out(num_groups_vars + num_aggs, kNullTermId);
      std::copy(key.begin(), key.end(), out.begin());
      for (size_t a = 0; a < num_aggs; ++a) {
        SOFOS_ASSIGN_OR_RETURN(TermId id,
                               AggFinalize(*plan_->agg_specs[a], accums[a], dict_));
        out[num_groups_vars + a] = id;
      }
      results_.push_back(std::move(out));
    }
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  const Plan* plan_;
  ExprEvaluator eval_;
  Dictionary* dict_;
  ExecStats* stats_;
  bool materialized_ = false;
  std::vector<Row> results_;
  size_t cursor_ = 0;
};

/// Projection into the output layout; expression results are interned.
/// Expression evaluation errors yield unbound outputs (SPARQL semantics).
class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, const Plan* plan,
            const Dictionary* dict, Dictionary* mutable_dict,
            const VariableTable* input_vars, int agg_base)
      : child_(std::move(child)),
        plan_(plan),
        eval_(dict, input_vars, agg_base),
        dict_(mutable_dict) {}

  Result<bool> Next(Row* row) override {
    Row in;
    SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(&in));
    if (!has) return false;
    row->assign(plan_->outputs.size(), kNullTermId);
    for (size_t i = 0; i < plan_->outputs.size(); ++i) {
      const Plan::OutputItem& item = plan_->outputs[i];
      if (item.direct_slot >= 0) {
        (*row)[i] = in[static_cast<size_t>(item.direct_slot)];
        continue;
      }
      if (item.expr == nullptr) continue;
      auto value = eval_.Eval(*item.expr, in);
      if (!value.ok() || value.value().is_unbound()) continue;
      auto term = value.value().ToTerm();
      if (!term.ok()) continue;
      (*row)[i] = dict_->Intern(term.value());
    }
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  const Plan* plan_;
  ExprEvaluator eval_;
  Dictionary* dict_;
};

class DistinctOp : public Operator {
 public:
  explicit DistinctOp(std::unique_ptr<Operator> child) : child_(std::move(child)) {}

  Result<bool> Next(Row* row) override {
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      if (seen_.insert(*row).second) return true;
    }
  }

 private:
  std::unique_ptr<Operator> child_;
  std::unordered_set<Row, RowHash> seen_;
};

/// ORDER BY: materializes and sorts by evaluated keys using the total
/// order (evaluation errors sort as unbound, i.e. first).
class OrderByOp : public Operator {
 public:
  OrderByOp(std::unique_ptr<Operator> child, const Plan* plan,
            const Dictionary* dict, int agg_base)
      : child_(std::move(child)),
        plan_(plan),
        eval_(dict, &plan->output_vars, agg_base) {}

  Result<bool> Next(Row* row) override {
    if (!materialized_) {
      SOFOS_RETURN_IF_ERROR(Materialize());
      materialized_ = true;
    }
    if (cursor_ >= rows_.size()) return false;
    *row = std::move(rows_[cursor_++].row);
    return true;
  }

 private:
  struct Keyed {
    Row row;
    std::vector<Value> keys;
  };

  Status Materialize() {
    Row in;
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(&in));
      if (!has) break;
      Keyed keyed;
      keyed.row = in;
      for (const auto& [expr, asc] : plan_->order_keys) {
        (void)asc;
        auto v = eval_.Eval(*expr, in);
        keyed.keys.push_back(v.ok() ? v.value() : Value::Unbound());
      }
      rows_.push_back(std::move(keyed));
    }
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < plan_->order_keys.size(); ++i) {
                         int c = a.keys[i].TotalCompare(b.keys[i]);
                         if (c != 0) {
                           return plan_->order_keys[i].second ? c < 0 : c > 0;
                         }
                       }
                       return false;
                     });
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  const Plan* plan_;
  ExprEvaluator eval_;
  bool materialized_ = false;
  std::vector<Keyed> rows_;
  size_t cursor_ = 0;
};

class SliceOp : public Operator {
 public:
  SliceOp(std::unique_ptr<Operator> child, int64_t offset, int64_t limit)
      : child_(std::move(child)), offset_(offset), limit_(limit) {}

  Result<bool> Next(Row* row) override {
    while (skipped_ < offset_) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      ++skipped_;
    }
    if (limit_ >= 0 && emitted_ >= limit_) return false;
    SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    ++emitted_;
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  int64_t offset_;
  int64_t limit_;
  int64_t skipped_ = 0;
  int64_t emitted_ = 0;
};

/// Produces no rows; used for plans that are provably empty. Aggregate
/// handling still applies above it, so COUNT over an impossible pattern
/// correctly returns 0.
class EmptyOp : public Operator {
 public:
  Result<bool> Next(Row*) override { return false; }
};

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE instrumentation (ExecOptions::analyze): a plan-derived
// slot layout shared by both engines, plus timing wrappers that record
// per-operator actuals into ExecStats::operators. The layout depends only
// on the Plan, so the slot sequence — and with it the ANALYZE output shape
// — is identical across ExecMode and shard count.
// ---------------------------------------------------------------------------

struct SlotLayout {
  std::vector<int> step_op;      // slot of step i's scan/join operator
  std::vector<int> step_filter;  // slot of step i's FILTER, -1 if none
  int aggregate = -1;
  int having = -1;
  int project = -1;
  int distinct = -1;
  int order_by = -1;
  int slice = -1;
  size_t step_slots = 0;  // leading slots: the pattern steps and their filters
  size_t total = 0;
};

SlotLayout ComputeSlotLayout(const Plan& plan) {
  SlotLayout layout;
  int next = 0;
  if (plan.empty_guaranteed || plan.steps.empty()) {
    next = 1;  // single EMPTY leaf
  } else {
    for (const PatternStep& step : plan.steps) {
      layout.step_op.push_back(next++);
      layout.step_filter.push_back(step.filters.empty() ? -1 : next++);
    }
  }
  layout.step_slots = static_cast<size_t>(next);
  if (plan.is_aggregate) {
    layout.aggregate = next++;
    if (!plan.having.empty()) layout.having = next++;
  }
  layout.project = next++;
  if (plan.distinct) layout.distinct = next++;
  if (!plan.order_keys.empty()) layout.order_by = next++;
  if (plan.limit >= 0 || plan.offset > 0) layout.slice = next++;
  layout.total = static_cast<size_t>(next);
  return layout;
}

std::vector<OperatorStats> BuildOperatorSlots(const Plan& plan,
                                              const SlotLayout& layout) {
  std::vector<OperatorStats> slots(layout.total);
  if (plan.empty_guaranteed || plan.steps.empty()) {
    slots[0].label = "EMPTY";
  } else {
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const PatternStep& step = plan.steps[i];
      const char* op = i == 0 ? "SCAN"
                              : (step.algo == JoinAlgo::kHashProbe ? "HJOIN"
                                                                   : "IJOIN");
      OperatorStats& s = slots[static_cast<size_t>(layout.step_op[i])];
      s.label = StrFormat("%s %s", op, step.pattern.ToString().c_str());
      s.est_rows = step.est_cardinality;
      if (layout.step_filter[i] >= 0) {
        std::string label = "FILTER ";
        for (size_t k = 0; k < step.filters.size(); ++k) {
          if (k) label += " && ";
          label += step.filters[k]->ToString();
        }
        slots[static_cast<size_t>(layout.step_filter[i])].label =
            std::move(label);
      }
    }
  }
  if (layout.aggregate >= 0) slots[layout.aggregate].label = "AGGREGATE";
  if (layout.having >= 0) slots[layout.having].label = "HAVING";
  slots[layout.project].label = "PROJECT";
  if (layout.distinct >= 0) slots[layout.distinct].label = "DISTINCT";
  if (layout.order_by >= 0) slots[layout.order_by].label = "ORDER BY";
  if (layout.slice >= 0) slots[layout.slice].label = "SLICE";
  return slots;
}

/// Times every Next() call of the wrapped operator and counts its output.
/// `micros` is inclusive (contains the whole subtree below); the renderer
/// subtracts child time to show self time.
class TimedOp : public Operator {
 public:
  TimedOp(std::unique_ptr<Operator> inner, OperatorStats* slot)
      : inner_(std::move(inner)), slot_(slot) {}

  Result<bool> Next(Row* row) override {
    WallTimer timer;
    auto result = inner_->Next(row);
    slot_->micros += timer.ElapsedMicros();
    if (result.ok() && result.value()) {
      ++slot_->batches;
      ++slot_->rows_out;
    }
    return result;
  }

 private:
  std::unique_ptr<Operator> inner_;
  OperatorStats* slot_;
};

class TimedBatchOp : public BatchOperator {
 public:
  TimedBatchOp(std::unique_ptr<BatchOperator> inner, OperatorStats* slot)
      : inner_(std::move(inner)), slot_(slot) {}

  Result<bool> Next(RowBatch* out) override {
    WallTimer timer;
    auto result = inner_->Next(out);
    slot_->micros += timer.ElapsedMicros();
    if (result.ok() && result.value()) {
      ++slot_->batches;
      slot_->rows_out += out->ActiveCount();
    }
    return result;
  }

 private:
  std::unique_ptr<BatchOperator> inner_;
  OperatorStats* slot_;
};

}  // namespace

// ---------------------------------------------------------------------------
// RowBatch
// ---------------------------------------------------------------------------

void RowBatch::Reset(size_t width, size_t capacity) {
  ResetShape(width, capacity);
  std::fill(data_.begin(), data_.end(), kNullTermId);
}

void RowBatch::ResetShape(size_t width, size_t capacity) {
  width_ = width;
  capacity_ = capacity;
  rows_ = 0;
  data_.resize(width * capacity);
  sel_.clear();
  has_sel_ = false;
}

void RowBatch::GatherRow(uint32_t r, Row* out) const {
  out->resize(width_);
  for (size_t c = 0; c < width_; ++c) {
    (*out)[c] = At(c, r);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Batch (vectorized) operators — ExecMode::kBatch.
// ---------------------------------------------------------------------------

class BatchEmptyOp : public BatchOperator {
 public:
  Result<bool> Next(RowBatch*) override { return false; }
};

/// Leaf: scans a pattern's range into batches.
class BatchScanOp : public BatchOperator {
 public:
  BatchScanOp(TripleStore::ScanRange range, const PatternStep* step, size_t width,
              size_t batch_size, ExecStats* stats)
      : range_(std::move(range)),  // owns the backing of materialized scans
        next_(range_.begin()),
        end_(range_.end()),
        step_(step),
        width_(width),
        batch_size_(batch_size),
        stats_(stats) {}

  Result<bool> Next(RowBatch* out) override {
    if (next_ == end_) return false;
    out->Reset(width_, batch_size_);
    size_t j = 0;
    while (next_ != end_ && j < batch_size_) {
      const Triple& t = *next_++;
      ++stats_->rows_scanned;
      if (BindStepAt(*step_, t, out, j)) {
        ++j;
      } else {
        UnbindStepAt(*step_, out, j);
      }
    }
    out->set_rows(j);
    return j > 0 || next_ != end_;
  }

 private:
  TripleStore::ScanRange range_;
  const Triple* next_;
  const Triple* end_;
  const PatternStep* step_;
  size_t width_;
  size_t batch_size_;
  ExecStats* stats_;
};

/// Key of a shared-build join hash table: the probe values at the step's
/// key positions (unused positions stay 0, which no valid id uses).
struct HashKey {
  std::array<TermId, 3> v{{kNullTermId, kNullTermId, kNullTermId}};
  bool operator==(const HashKey& other) const { return v == other.v; }
};

struct HashKeyHash {
  size_t operator()(const HashKey& k) const {
    return static_cast<size_t>(Fnv1a64(k.v.data(), sizeof(k.v)));
  }
};

/// Orders triples by an explicit field priority (PatternStep::match_order).
struct TripleFieldLess {
  std::array<int, 3> order;
  bool operator()(const Triple& x, const Triple& y) const {
    for (int f : order) {
      TermId a = TripleField(x, f), b = TripleField(y, f);
      if (a != b) return a < b;
    }
    return false;
  }
};

}  // namespace

namespace internal {

/// Shared build side of a hash-join step: one contiguous triple array
/// grouped by join-key value plus a key → (offset, length) index — a flat
/// layout so a build of n triples costs two passes and one hash map, not
/// one heap-allocated bucket per distinct key (keys are near-unique in
/// star-shaped facet patterns). Built once per query, then probed
/// read-only.
struct JoinHashTable {
  struct Range {
    uint32_t offset = 0;
    uint32_t length = 0;
  };
  std::unordered_map<HashKey, Range, HashKeyHash> ranges;
  std::vector<Triple> triples;
};

}  // namespace internal

namespace {

using internal::JoinHashTable;

std::unique_ptr<JoinHashTable> BuildJoinHashTable(const TripleStore* store,
                                                  const PatternStep& step,
                                                  ExecStats* stats) {
  auto table = std::make_unique<JoinHashTable>();
  TripleStore::ScanRange range =
      store->Scan(step.consts[0], step.consts[1], step.consts[2]);
  stats->rows_scanned += range.size();

  auto key_of = [&step](const Triple& t) {
    HashKey key;
    for (int pos : step.key_positions) {
      key.v[static_cast<size_t>(pos)] = TripleField(t, pos);
    }
    return key;
  };

  // Pass 1: per-key counts -> contiguous offsets.
  table->ranges.reserve(range.size());
  for (const Triple& t : range) {
    ++table->ranges[key_of(t)].length;
  }
  uint32_t offset = 0;
  for (auto& [key, r] : table->ranges) {
    (void)key;
    r.offset = offset;
    offset += r.length;
    r.length = 0;  // reused as the placement cursor in pass 2
  }

  // Pass 2: stable placement in scan order, so each key's run keeps the
  // build index's relative order.
  table->triples.resize(range.size());
  for (const Triple& t : range) {
    JoinHashTable::Range& r = table->ranges[key_of(t)];
    table->triples[r.offset + r.length++] = t;
  }

  // Each run must match the index order a nested-loop probe would scan
  // (PatternStep::match_order) so both algorithms emit identical row
  // streams. The build scan's index order already guarantees this for
  // every reachable bound-set/key combination, so the check below is a
  // cheap O(n) verification pass in practice — but it keeps the contract
  // independent of TripleStore's index-selection details.
  TripleFieldLess less{step.match_order};
  for (const auto& [key, r] : table->ranges) {
    (void)key;
    Triple* begin = table->triples.data() + r.offset;
    Triple* end = begin + r.length;
    if (!std::is_sorted(begin, end, less)) std::sort(begin, end, less);
  }
  return table;
}

/// Join step over batches. With a hash table it is the probe side of a
/// shared-build hash join; without one it is a vectorized index nested-loop
/// join. Both emit, per probe row (in stream order), the matching triples
/// in PatternStep::match_order — so the output stream is identical either
/// way, and identical to the legacy row engine.
class BatchJoinOp : public BatchOperator {
 public:
  BatchJoinOp(std::unique_ptr<BatchOperator> child, const TripleStore* store,
              const PatternStep* step, const JoinHashTable* table, size_t width,
              size_t batch_size, ExecStats* stats)
      : child_(std::move(child)),
        store_(store),
        step_(step),
        table_(table),
        width_(width),
        batch_size_(batch_size),
        stats_(stats) {}

  Result<bool> Next(RowBatch* out) override {
    out->ResetShape(width_, batch_size_);
    size_t j = 0;
    while (j < batch_size_) {
      if (cursor_ != cursor_end_) {
        const Triple& t = *cursor_++;
        ++stats_->rows_scanned;
        CopyRowInto(input_, probe_row_, out, j);
        if (BindStepAt(*step_, t, out, j)) ++j;
        continue;
      }
      SOFOS_ASSIGN_OR_RETURN(bool more, AdvanceProbe());
      if (!more) break;
    }
    out->set_rows(j);
    return j > 0;
  }

 private:
  /// Moves to the next probe row that has at least one candidate match;
  /// pulls child batches as needed. Returns false at end of input.
  Result<bool> AdvanceProbe() {
    while (true) {
      while (pos_ < input_.ActiveCount()) {
        probe_row_ = input_.ActiveIndex(pos_++);
        ++stats_->intermediate_rows;
        if (BeginMatches()) return true;
      }
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(&input_));
      if (!has) return false;
      pos_ = 0;
    }
  }

  /// Points cursor_ at the candidate matches of probe_row_. Returns false
  /// when the row has none.
  bool BeginMatches() {
    TermId ids[3];
    for (int i = 0; i < 3; ++i) {
      if (step_->slots[i] >= 0) {
        ids[i] = input_.At(static_cast<size_t>(step_->slots[i]), probe_row_);
      } else {
        ids[i] = step_->consts[i];
      }
    }
    if (table_ != nullptr) {
      HashKey key;
      bool keys_bound = true;
      for (int pos : step_->key_positions) {
        if (ids[pos] == kNullTermId) {
          keys_bound = false;  // defensive: fall back to an index probe
          break;
        }
        key.v[static_cast<size_t>(pos)] = ids[pos];
      }
      if (keys_bound) {
        auto it = table_->ranges.find(key);
        if (it == table_->ranges.end()) {
          cursor_ = cursor_end_ = nullptr;
          return false;
        }
        cursor_ = table_->triples.data() + it->second.offset;
        cursor_end_ = cursor_ + it->second.length;
        return true;
      }
    }
    // Keep the range alive in a member: materialized scans own their
    // triples, and cursor_ must stay valid across Next() calls.
    probe_range_ = store_->Scan(ids[0], ids[1], ids[2]);
    cursor_ = probe_range_.begin();
    cursor_end_ = probe_range_.end();
    return cursor_ != cursor_end_;
  }

  std::unique_ptr<BatchOperator> child_;
  const TripleStore* store_;
  const PatternStep* step_;
  const JoinHashTable* table_;
  size_t width_;
  size_t batch_size_;
  ExecStats* stats_;
  RowBatch input_;
  size_t pos_ = 0;
  uint32_t probe_row_ = 0;
  TripleStore::ScanRange probe_range_;
  const Triple* cursor_ = nullptr;
  const Triple* cursor_end_ = nullptr;
};

/// FILTER/HAVING over batches: refines the selection vector in place, never
/// moves row data. Skips fully-filtered batches instead of emitting them.
/// Conjuncts inside the FilterKernel grammar are compiled once here and
/// evaluated on the batch's TermIds; the rest go through ExprEvaluator on
/// a gathered row.
class BatchFilterOp : public BatchOperator {
 public:
  BatchFilterOp(std::unique_ptr<BatchOperator> child,
                const std::vector<const Expr*>& filters, const Dictionary* dict,
                const VariableTable* vars, ExecStats* stats, int agg_base = -1)
      : child_(std::move(child)),
        eval_(dict, vars, agg_base),
        cache_(dict),
        stats_(stats) {
    for (const Expr* f : filters) {
      conjuncts_.push_back({f, FilterKernel::Compile(*f, *vars, *dict)});
    }
  }

  Result<bool> Next(RowBatch* out) override {
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      std::vector<uint32_t> keep;
      keep.reserve(out->ActiveCount());
      const TermId* cols = out->Col(0);
      for (size_t i = 0; i < out->ActiveCount(); ++i) {
        uint32_t r = out->ActiveIndex(i);
        bool gathered = false;
        bool pass = true;
        for (const Conjunct& c : conjuncts_) {
          if (c.kernel != nullptr) {
            pass = c.kernel->Eval(cols, out->capacity(), r, &cache_) ==
                   FilterKernel::Verdict::kTrue;
          } else {
            if (!gathered) {
              out->GatherRow(r, &scratch_);
              gathered = true;
            }
            auto verdict = eval_.EvalBool(*c.expr, scratch_);
            pass = verdict.ok() && verdict.value();
          }
          if (!pass) break;
        }
        if (pass) {
          keep.push_back(r);
        } else {
          ++stats_->filtered_rows;
        }
      }
      if (keep.empty()) continue;
      out->SetSel(std::move(keep));
      return true;
    }
  }

 private:
  struct Conjunct {
    const Expr* expr;
    std::unique_ptr<const FilterKernel> kernel;  // null: use ExprEvaluator
  };

  std::unique_ptr<BatchOperator> child_;
  std::vector<Conjunct> conjuncts_;
  ExprEvaluator eval_;
  TermValueCache cache_;
  ExecStats* stats_;
  Row scratch_;
};

/// Hash aggregation over batches. Accumulation runs in stream order with
/// the shared AggAccumulateValue (identical values, including float
/// addition order, to the row engine); output groups are sorted by key,
/// matching the row engine's std::map materialization byte for byte.
/// A bare-variable argument is read from its column: non-DISTINCT
/// COUNT(?v) counts bound ids, every other aggregate decodes the id
/// through the operator's TermValueCache. Other arguments are evaluated
/// by ExprEvaluator on a gathered row.
class BatchAggregateOp : public BatchOperator {
 public:
  BatchAggregateOp(std::unique_ptr<BatchOperator> child, const Plan* plan,
                   const Dictionary* dict, Dictionary* mutable_dict,
                   size_t batch_size, ExecStats* stats)
      : child_(std::move(child)),
        plan_(plan),
        eval_(dict, &plan->pattern_vars),
        cache_(dict),
        dict_(mutable_dict),
        batch_size_(batch_size),
        stats_(stats) {
    for (const Expr* spec : plan->agg_specs) {
      const bool bare_var =
          !spec->count_star && spec->agg_arg->kind == Expr::Kind::kVar;
      arg_slots_.push_back(
          bare_var ? plan->pattern_vars.Get(spec->agg_arg->var).value_or(-1)
                   : -1);
    }
  }

  Result<bool> Next(RowBatch* out) override {
    if (!materialized_) {
      SOFOS_RETURN_IF_ERROR(Materialize());
      materialized_ = true;
    }
    if (cursor_ >= results_.size()) return false;
    const size_t width = plan_->group_slots.size() + plan_->agg_specs.size();
    out->ResetShape(width, batch_size_);
    size_t j = 0;
    while (cursor_ < results_.size() && j < batch_size_) {
      const Row& row = results_[cursor_++];
      for (size_t c = 0; c < width; ++c) out->Col(c)[j] = row[c];
      ++j;
    }
    out->set_rows(j);
    return true;
  }

 private:
  Status Materialize() {
    const size_t num_group_vars = plan_->group_slots.size();
    const size_t num_aggs = plan_->agg_specs.size();
    // Open-addressed-in-spirit grouping: a hash index over insertion-ordered
    // group storage, much cheaper than the row engine's std::map of rows;
    // the deterministic sorted output order is restored at the end.
    std::unordered_map<Row, size_t, RowHash> index;
    std::vector<std::pair<Row, std::vector<AggAccum>>> groups;

    RowBatch in;
    Row key(num_group_vars);
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(&in));
      if (!has) break;
      for (size_t i = 0; i < in.ActiveCount(); ++i) {
        uint32_t r = in.ActiveIndex(i);
        ++stats_->intermediate_rows;
        for (size_t g = 0; g < num_group_vars; ++g) {
          key[g] = in.At(static_cast<size_t>(plan_->group_slots[g]), r);
        }
        auto [it, inserted] = index.try_emplace(key, groups.size());
        if (inserted) {
          groups.emplace_back(key, std::vector<AggAccum>(num_aggs));
        }
        std::vector<AggAccum>& accums = groups[it->second].second;
        bool gathered = false;
        for (size_t a = 0; a < num_aggs; ++a) {
          const Expr& spec = *plan_->agg_specs[a];
          const int slot = arg_slots_[a];
          if (slot < 0) {
            if (!spec.count_star && !gathered) {
              in.GatherRow(r, &scratch_);
              gathered = true;
            }
            SOFOS_RETURN_IF_ERROR(
                AggAccumulate(spec, scratch_, eval_, dict_, &accums[a]));
            continue;
          }
          const TermId id = in.At(static_cast<size_t>(slot), r);
          if (id == kNullTermId) continue;  // unbound arguments are skipped
          if (spec.agg == AggKind::kCount && !spec.agg_distinct) {
            ++accums[a].count;
            continue;
          }
          SOFOS_RETURN_IF_ERROR(
              AggAccumulateValue(spec, cache_.Get(id), dict_, &accums[a]));
        }
      }
    }

    // SPARQL: an aggregate query with no GROUP BY over an empty input still
    // produces one group (COUNT = 0, SUM = 0, others unbound).
    if (groups.empty() && num_group_vars == 0) {
      groups.emplace_back(Row{}, std::vector<AggAccum>(num_aggs));
    }

    // Ascending group-key order — exactly the row engine's std::map order.
    std::vector<size_t> order(groups.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&groups](size_t a, size_t b) {
      return groups[a].first < groups[b].first;
    });

    results_.reserve(groups.size());
    for (size_t g : order) {
      Row out(num_group_vars + num_aggs, kNullTermId);
      std::copy(groups[g].first.begin(), groups[g].first.end(), out.begin());
      for (size_t a = 0; a < num_aggs; ++a) {
        SOFOS_ASSIGN_OR_RETURN(
            TermId id, AggFinalize(*plan_->agg_specs[a], groups[g].second[a], dict_));
        out[num_group_vars + a] = id;
      }
      results_.push_back(std::move(out));
    }
    return Status::OK();
  }

  std::unique_ptr<BatchOperator> child_;
  const Plan* plan_;
  ExprEvaluator eval_;
  TermValueCache cache_;
  /// Per aggregate: the slot of a bare-variable argument that the pattern
  /// binds, read from the batch; -1 for COUNT(*) and every other argument.
  std::vector<int> arg_slots_;
  Dictionary* dict_;
  size_t batch_size_;
  ExecStats* stats_;
  Row scratch_;
  bool materialized_ = false;
  std::vector<Row> results_;
  size_t cursor_ = 0;
};

/// Projection into the output layout; expression results are interned.
class BatchProjectOp : public BatchOperator {
 public:
  BatchProjectOp(std::unique_ptr<BatchOperator> child, const Plan* plan,
                 const Dictionary* dict, Dictionary* mutable_dict,
                 const VariableTable* input_vars, int agg_base)
      : child_(std::move(child)),
        plan_(plan),
        eval_(dict, input_vars, agg_base),
        dict_(mutable_dict) {}

  Result<bool> Next(RowBatch* out) override {
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(&in_));
      if (!has) return false;
      const size_t n = in_.ActiveCount();
      if (n == 0) continue;
      const size_t width = plan_->outputs.size();
      out->Reset(width, n);
      for (size_t i = 0; i < n; ++i) {
        uint32_t r = in_.ActiveIndex(i);
        bool gathered = false;
        for (size_t c = 0; c < width; ++c) {
          const Plan::OutputItem& item = plan_->outputs[c];
          if (item.direct_slot >= 0) {
            out->Col(c)[i] = in_.At(static_cast<size_t>(item.direct_slot), r);
            continue;
          }
          if (item.expr == nullptr) continue;
          if (!gathered) {
            in_.GatherRow(r, &scratch_);
            gathered = true;
          }
          auto value = eval_.Eval(*item.expr, scratch_);
          if (!value.ok() || value.value().is_unbound()) continue;
          auto term = value.value().ToTerm();
          if (!term.ok()) continue;
          out->Col(c)[i] = dict_->Intern(term.value());
        }
      }
      out->set_rows(n);
      return true;
    }
  }

 private:
  std::unique_ptr<BatchOperator> child_;
  const Plan* plan_;
  ExprEvaluator eval_;
  Dictionary* dict_;
  RowBatch in_;
  Row scratch_;
};

class BatchDistinctOp : public BatchOperator {
 public:
  explicit BatchDistinctOp(std::unique_ptr<BatchOperator> child)
      : child_(std::move(child)) {}

  Result<bool> Next(RowBatch* out) override {
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      std::vector<uint32_t> keep;
      keep.reserve(out->ActiveCount());
      for (size_t i = 0; i < out->ActiveCount(); ++i) {
        uint32_t r = out->ActiveIndex(i);
        out->GatherRow(r, &scratch_);
        if (seen_.insert(scratch_).second) keep.push_back(r);
      }
      if (keep.empty()) continue;
      out->SetSel(std::move(keep));
      return true;
    }
  }

 private:
  std::unique_ptr<BatchOperator> child_;
  std::unordered_set<Row, RowHash> seen_;
  Row scratch_;
};

/// ORDER BY over batches: materializes rows plus evaluated keys, stable-sorts
/// with the same comparator as the row engine, streams batches back out.
class BatchOrderByOp : public BatchOperator {
 public:
  BatchOrderByOp(std::unique_ptr<BatchOperator> child, const Plan* plan,
                 const Dictionary* dict, int agg_base, size_t batch_size)
      : child_(std::move(child)),
        plan_(plan),
        eval_(dict, &plan->output_vars, agg_base),
        batch_size_(batch_size) {}

  Result<bool> Next(RowBatch* out) override {
    if (!materialized_) {
      SOFOS_RETURN_IF_ERROR(Materialize());
      materialized_ = true;
    }
    if (cursor_ >= rows_.size()) return false;
    const size_t width = plan_->outputs.size();
    out->ResetShape(width, batch_size_);
    size_t j = 0;
    while (cursor_ < rows_.size() && j < batch_size_) {
      const Row& row = rows_[cursor_++].row;
      for (size_t c = 0; c < width; ++c) out->Col(c)[j] = row[c];
      ++j;
    }
    out->set_rows(j);
    return true;
  }

 private:
  struct Keyed {
    Row row;
    std::vector<Value> keys;
  };

  Status Materialize() {
    RowBatch in;
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(&in));
      if (!has) break;
      for (size_t i = 0; i < in.ActiveCount(); ++i) {
        Keyed keyed;
        in.GatherRow(in.ActiveIndex(i), &keyed.row);
        for (const auto& [expr, asc] : plan_->order_keys) {
          (void)asc;
          auto v = eval_.Eval(*expr, keyed.row);
          keyed.keys.push_back(v.ok() ? v.value() : Value::Unbound());
        }
        rows_.push_back(std::move(keyed));
      }
    }
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < plan_->order_keys.size(); ++i) {
                         int c = a.keys[i].TotalCompare(b.keys[i]);
                         if (c != 0) {
                           return plan_->order_keys[i].second ? c < 0 : c > 0;
                         }
                       }
                       return false;
                     });
    return Status::OK();
  }

  std::unique_ptr<BatchOperator> child_;
  const Plan* plan_;
  ExprEvaluator eval_;
  size_t batch_size_;
  bool materialized_ = false;
  std::vector<Keyed> rows_;
  size_t cursor_ = 0;
};

/// OFFSET/LIMIT over batches; stops pulling its child once the limit is
/// reached (so upstream work can stop).
class BatchSliceOp : public BatchOperator {
 public:
  BatchSliceOp(std::unique_ptr<BatchOperator> child, int64_t offset, int64_t limit)
      : child_(std::move(child)), offset_(offset), limit_(limit) {}

  Result<bool> Next(RowBatch* out) override {
    while (true) {
      if (limit_ >= 0 && emitted_ >= limit_) return false;
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      std::vector<uint32_t> keep;
      for (size_t i = 0; i < out->ActiveCount(); ++i) {
        if (skipped_ < offset_) {
          ++skipped_;
          continue;
        }
        if (limit_ >= 0 && emitted_ >= limit_) break;
        keep.push_back(out->ActiveIndex(i));
        ++emitted_;
      }
      if (keep.empty()) continue;
      out->SetSel(std::move(keep));
      return true;
    }
  }

 private:
  std::unique_ptr<BatchOperator> child_;
  int64_t offset_;
  int64_t limit_;
  int64_t skipped_ = 0;
  int64_t emitted_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(const Plan* plan, const TripleStore* store, Dictionary* dict,
                   ExecOptions options)
    : plan_(plan), store_(store), dict_(dict), options_(options) {}

std::unique_ptr<Operator> Executor::BuildVolcanoPipeline(ExecStats* stats) {
  std::unique_ptr<Operator> op;
  const size_t width = plan_->pattern_vars.size();

  const bool analyze = options_.analyze;
  SlotLayout layout;
  if (analyze) {
    layout = ComputeSlotLayout(*plan_);
    if (stats->operators.size() != layout.total) {
      stats->operators = BuildOperatorSlots(*plan_, layout);
    }
  }
  // Wraps `inner` with the timing instrumentation when ANALYZE is on.
  auto timed = [&](std::unique_ptr<Operator> inner,
                   int slot) -> std::unique_ptr<Operator> {
    if (!analyze || slot < 0) return inner;
    return std::make_unique<TimedOp>(std::move(inner),
                                     &stats->operators[slot]);
  };

  if (plan_->empty_guaranteed || plan_->steps.empty()) {
    op = timed(std::make_unique<EmptyOp>(), analyze ? 0 : -1);
  } else {
    for (size_t i = 0; i < plan_->steps.size(); ++i) {
      const PatternStep& step = plan_->steps[i];
      const int slot = analyze ? layout.step_op[i] : -1;
      if (i == 0) {
        op = std::make_unique<ScanOp>(store_, &step, width, stats);
      } else {
        op = std::make_unique<IndexJoinOp>(std::move(op), store_, &step, stats);
      }
      op = timed(std::move(op), slot);
      if (!step.filters.empty()) {
        op = timed(std::make_unique<FilterOp>(std::move(op), step.filters,
                                              dict_, &plan_->pattern_vars,
                                              stats),
                   analyze ? layout.step_filter[i] : -1);
      }
    }
  }

  int agg_base = -1;
  const VariableTable* project_input = &plan_->pattern_vars;
  if (plan_->is_aggregate) {
    op = timed(std::make_unique<AggregateOp>(std::move(op), plan_, dict_, dict_,
                                             stats),
               layout.aggregate);
    agg_base = static_cast<int>(plan_->group_slots.size());
    project_input = &plan_->group_vars;
    if (!plan_->having.empty()) {
      // HAVING is evaluated over the aggregate output layout: group vars
      // first, then one slot per aggregate (reached via agg_base).
      op = timed(std::make_unique<FilterOp>(std::move(op), plan_->having,
                                            dict_, &plan_->group_vars, stats,
                                            agg_base),
                 layout.having);
    }
  }

  op = timed(std::make_unique<ProjectOp>(std::move(op), plan_, dict_, dict_,
                                         project_input, agg_base),
             layout.project);
  if (plan_->distinct) {
    op = timed(std::make_unique<DistinctOp>(std::move(op)), layout.distinct);
  }
  if (!plan_->order_keys.empty()) {
    op = timed(std::make_unique<OrderByOp>(std::move(op), plan_, dict_,
                                           agg_base),
               layout.order_by);
  }
  if (plan_->limit >= 0 || plan_->offset > 0) {
    op = timed(std::make_unique<SliceOp>(std::move(op), plan_->offset,
                                         plan_->limit),
               layout.slice);
  }
  return op;
}

Status Executor::RunVolcano(RowBuffer* out, ExecStats* stats) {
  ScopedSpan run_span(options_.trace, "exec.volcano", options_.trace_parent);
  std::unique_ptr<Operator> root = BuildVolcanoPipeline(stats);
  Row row;
  while (true) {
    SOFOS_ASSIGN_OR_RETURN(bool has, root->Next(&row));
    if (!has) break;
    out->cells.insert(out->cells.end(), row.begin(), row.end());
    ++out->rows;
  }
  return Status::OK();
}

Status Executor::RunBatch(RowBuffer* out, ExecStats* stats) {
  const size_t width = plan_->pattern_vars.size();
  const size_t batch_size = std::max<size_t>(1, options_.batch_size);

  const bool analyze = options_.analyze;
  SlotLayout layout;
  if (analyze) {
    layout = ComputeSlotLayout(*plan_);
    if (stats->operators.size() != layout.total) {
      stats->operators = BuildOperatorSlots(*plan_, layout);
    }
  }
  ScopedSpan run_span(options_.trace, "exec.batch", options_.trace_parent);
  // Wraps `inner` to record its actuals into `slot` when ANALYZE is on.
  auto timed = [&](std::unique_ptr<BatchOperator> inner,
                   int slot) -> std::unique_ptr<BatchOperator> {
    if (!analyze || slot < 0) return inner;
    return std::make_unique<TimedBatchOp>(std::move(inner),
                                          &stats->operators[slot]);
  };

  // Build sides of the plan's hash joins, built before the pipeline runs.
  std::vector<std::unique_ptr<internal::JoinHashTable>> tables(
      plan_->steps.size());
  if (!plan_->empty_guaranteed) {
    for (size_t i = 1; i < plan_->steps.size(); ++i) {
      if (plan_->steps[i].algo == JoinAlgo::kHashProbe) {
        ScopedSpan build_span(options_.trace, "exec.hash_build",
                              run_span.id());
        WallTimer build_timer;
        OperatorStats* slot =
            analyze ? &stats->operators[layout.step_op[i]] : nullptr;
        tables[i] = BuildJoinHashTable(store_, plan_->steps[i], stats);
        if (slot != nullptr) {
          slot->hash_build_rows += tables[i]->triples.size();
          slot->build_micros += build_timer.ElapsedMicros();
        }
      }
    }
  }

  // Scan → joins → pushed-down filters over the leaf pattern's full range.
  std::unique_ptr<BatchOperator> op;
  if (plan_->empty_guaranteed || plan_->steps.empty()) {
    op = timed(std::make_unique<BatchEmptyOp>(), 0);
  } else {
    for (size_t i = 0; i < plan_->steps.size(); ++i) {
      const PatternStep& step = plan_->steps[i];
      if (i == 0) {
        op = std::make_unique<BatchScanOp>(
            store_->Scan(step.consts[0], step.consts[1], step.consts[2]),
            &step, width, batch_size, stats);
      } else {
        op = std::make_unique<BatchJoinOp>(std::move(op), store_, &step,
                                           tables[i].get(), width, batch_size,
                                           stats);
      }
      op = timed(std::move(op), analyze ? layout.step_op[i] : -1);
      if (!step.filters.empty()) {
        op = timed(std::make_unique<BatchFilterOp>(std::move(op), step.filters,
                                                   dict_, &plan_->pattern_vars,
                                                   stats),
                   analyze ? layout.step_filter[i] : -1);
      }
    }
  }

  // Tail: aggregation, HAVING, projection, DISTINCT, ORDER BY, slice.
  int agg_base = -1;
  const VariableTable* project_input = &plan_->pattern_vars;
  if (plan_->is_aggregate) {
    op = timed(std::make_unique<BatchAggregateOp>(std::move(op), plan_, dict_,
                                                  dict_, batch_size, stats),
               layout.aggregate);
    agg_base = static_cast<int>(plan_->group_slots.size());
    project_input = &plan_->group_vars;
    if (!plan_->having.empty()) {
      op = timed(std::make_unique<BatchFilterOp>(std::move(op), plan_->having,
                                                 dict_, &plan_->group_vars,
                                                 stats, agg_base),
                 layout.having);
    }
  }
  op = timed(std::make_unique<BatchProjectOp>(std::move(op), plan_, dict_,
                                              dict_, project_input, agg_base),
             layout.project);
  if (plan_->distinct) {
    op = timed(std::make_unique<BatchDistinctOp>(std::move(op)),
               layout.distinct);
  }
  if (!plan_->order_keys.empty()) {
    op = timed(std::make_unique<BatchOrderByOp>(std::move(op), plan_, dict_,
                                                agg_base, batch_size),
               layout.order_by);
  }
  if (plan_->limit >= 0 || plan_->offset > 0) {
    op = timed(std::make_unique<BatchSliceOp>(std::move(op), plan_->offset,
                                              plan_->limit),
               layout.slice);
  }

  RowBatch batch;
  while (true) {
    SOFOS_ASSIGN_OR_RETURN(bool has, op->Next(&batch));
    if (!has) break;
    const size_t n = batch.ActiveCount();
    const size_t first = out->cells.size();
    out->cells.resize(first + n * out->width);
    for (size_t c = 0; c < out->width; ++c) {
      const TermId* col = batch.Col(c);
      TermId* cell = out->cells.data() + first + c;
      for (size_t i = 0; i < n; ++i, cell += out->width) {
        *cell = col[batch.ActiveIndex(i)];
      }
    }
    out->rows += n;
  }
  return Status::OK();
}

Status Executor::Run(RowBuffer* out, ExecStats* stats) {
  WallTimer timer;
  out->width = plan_->outputs.size();
  Status status = options_.mode == ExecMode::kVolcano ? RunVolcano(out, stats)
                                                      : RunBatch(out, stats);
  stats->exec_micros += timer.ElapsedMicros();
  if (!status.ok()) return status;
  stats->output_rows += out->rows;
  return Status::OK();
}

std::string Executor::DescribePhysical(const Plan& plan, const TripleStore& store,
                                       const ExecOptions& options) {
  if (options.mode == ExecMode::kVolcano) {
    return "PHYSICAL volcano (row-at-a-time, serial)\n";
  }
  if (plan.empty_guaranteed || plan.steps.empty()) {
    return "PHYSICAL batch (empty plan)\n";
  }
  const PatternStep& leaf = plan.steps.front();
  const uint64_t leaf_rows =
      store.Count(leaf.consts[0], leaf.consts[1], leaf.consts[2]);
  size_t hash_joins = 0;
  for (const PatternStep& step : plan.steps) {
    if (step.algo == JoinAlgo::kHashProbe) ++hash_joins;
  }
  return StrFormat("PHYSICAL batch size=%zu leaf_rows=%llu hash_joins=%zu\n",
                   options.batch_size,
                   static_cast<unsigned long long>(leaf_rows), hash_joins);
}

namespace {

/// Self time of slot `i`: inclusive micros minus the child's inclusive
/// micros (the previous slot in the linear pipeline), clamped at 0.
double SelfMicros(const std::vector<OperatorStats>& slots, size_t i) {
  double self = slots[i].micros - (i > 0 ? slots[i - 1].micros : 0.0);
  return self < 0.0 ? 0.0 : self;
}

}  // namespace

std::string Executor::RenderAnalyze(const Plan& plan, const ExecStats& stats) {
  SlotLayout layout = ComputeSlotLayout(plan);
  std::string out;
  if (stats.operators.size() != layout.total) {
    // Stats were not collected with ANALYZE (or the plan changed); render
    // the estimates-only plan rather than mismatched actuals.
    return plan.ToString() + "ANALYZE: no operator stats collected\n";
  }
  for (size_t i = 0; i < stats.operators.size(); ++i) {
    const OperatorStats& slot = stats.operators[i];
    const bool is_step = i < layout.step_slots;
    const bool is_filter = slot.label.rfind("FILTER", 0) == 0;
    // FILTER slots indent under their step, matching Plan::ToString.
    out += is_filter ? "   " + slot.label : slot.label;
    if (is_step && !is_filter && slot.label != "EMPTY") {
      out += StrFormat("  [est=%llu]",
                       static_cast<unsigned long long>(slot.est_rows));
    }
    out += StrFormat("  (actual rows=%llu batches=%llu self=%.1fus",
                     static_cast<unsigned long long>(slot.rows_out),
                     static_cast<unsigned long long>(slot.batches),
                     SelfMicros(stats.operators, i));
    if (slot.hash_build_rows > 0 || slot.build_micros > 0) {
      out += StrFormat(" build_rows=%llu build=%.1fus",
                       static_cast<unsigned long long>(slot.hash_build_rows),
                       slot.build_micros);
    }
    out += ")\n";
  }
  out += StrFormat(
      "TOTALS output_rows=%llu rows_scanned=%llu intermediate_rows=%llu "
      "filtered_rows=%llu plan=%.1fus exec=%.1fus\n",
      static_cast<unsigned long long>(stats.output_rows),
      static_cast<unsigned long long>(stats.rows_scanned),
      static_cast<unsigned long long>(stats.intermediate_rows),
      static_cast<unsigned long long>(stats.filtered_rows), stats.plan_micros,
      stats.exec_micros);
  return out;
}

// ---------------------------------------------------------------------------
// Seeded BGP evaluation (delta_join.h) — the Δ-pattern-join primitive of
// incremental view maintenance. Lives in this TU to reuse the batch
// engine's private machinery (BindStep, BuildJoinHashTable, HashKey): the
// maintenance delta path must emit exactly the match streams a full
// evaluation would, and sharing the code is how that stays true.
// ---------------------------------------------------------------------------

VariableTable BgpVariables(const std::vector<TriplePattern>& patterns) {
  VariableTable vars;
  for (const TriplePattern& tp : patterns) {
    for (const PatternTerm* term : {&tp.s, &tp.p, &tp.o}) {
      if (term->is_var()) vars.GetOrAdd(term->var());
    }
  }
  return vars;
}

Result<SeededJoinResult> EvaluateSeededBgp(
    const TripleStore& store, const VariableTable& vars,
    const std::vector<TriplePattern>& patterns,
    const std::vector<size_t>& remaining, const std::vector<int>& bound_slots,
    const std::vector<Row>& seeds) {
  SeededJoinResult out;
  if (seeds.empty()) return out;
  if (remaining.empty()) {
    out.rows = seeds;
    out.seed_index.resize(seeds.size());
    for (size_t i = 0; i < seeds.size(); ++i) {
      out.seed_index[i] = static_cast<uint32_t>(i);
    }
    return out;
  }

  // ---- Resolve constants and estimate cardinalities (planner step 1). ----
  struct Candidate {
    const TriplePattern* pattern = nullptr;
    std::array<TermId, 3> consts{{kNullTermId, kNullTermId, kNullTermId}};
    std::array<const std::string*, 3> vars{{nullptr, nullptr, nullptr}};
    uint64_t est = 0;
  };
  const Dictionary& dict = store.dictionary();
  std::vector<Candidate> candidates;
  candidates.reserve(remaining.size());
  for (size_t idx : remaining) {
    if (idx >= patterns.size()) {
      return Status::Internal("EvaluateSeededBgp: pattern index out of range");
    }
    const TriplePattern& tp = patterns[idx];
    Candidate c;
    c.pattern = &tp;
    const PatternTerm* positions[3] = {&tp.s, &tp.p, &tp.o};
    for (int i = 0; i < 3; ++i) {
      if (positions[i]->is_var()) {
        c.vars[i] = &positions[i]->var();
      } else {
        auto id = dict.Lookup(positions[i]->term());
        if (!id.has_value()) return out;  // constant absent: sub-BGP is empty
        c.consts[i] = *id;
      }
    }
    c.est = store.Count(c.consts[0], c.consts[1], c.consts[2]);
    candidates.push_back(std::move(c));
  }

  // ---- Greedy order (planner step 2, seeds pre-binding bound_slots). ----
  std::unordered_set<std::string> bound;
  for (int slot : bound_slots) {
    if (slot < 0 || static_cast<size_t>(slot) >= vars.size()) {
      return Status::Internal("EvaluateSeededBgp: bound slot out of range");
    }
    bound.insert(vars.names()[static_cast<size_t>(slot)]);
  }
  std::vector<PatternStep> steps;
  steps.reserve(candidates.size());
  std::vector<bool> used(candidates.size(), false);
  for (size_t step_idx = 0; step_idx < candidates.size(); ++step_idx) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (const auto* var : candidates[i].vars) {
        if (var != nullptr && bound.count(*var) > 0) {
          connected = true;
          break;
        }
      }
      // Prefer connected patterns; break ties by cardinality, then by the
      // position in `remaining` (first wins) — fully deterministic.
      if (best >= 0 && !connected && best_connected) continue;
      if (best < 0 || (connected && !best_connected) ||
          (connected == best_connected &&
           candidates[i].est < candidates[static_cast<size_t>(best)].est)) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    Candidate& chosen = candidates[static_cast<size_t>(best)];
    used[static_cast<size_t>(best)] = true;

    PatternStep step;
    step.pattern = *chosen.pattern;
    step.consts = chosen.consts;
    step.est_cardinality = chosen.est;
    step.connected = best_connected;
    for (int i = 0; i < 3; ++i) {
      if (chosen.vars[i] != nullptr && bound.count(*chosen.vars[i]) > 0) {
        step.key_positions.push_back(i);
      }
    }
    for (int i = 0; i < 3; ++i) {
      if (chosen.vars[i] != nullptr) {
        auto slot = vars.Get(*chosen.vars[i]);
        if (!slot.has_value()) {
          return Status::Internal("EvaluateSeededBgp: variable ?" +
                                  *chosen.vars[i] + " missing from layout");
        }
        step.slots[i] = *slot;
        bound.insert(*chosen.vars[i]);
      } else {
        step.slots[i] = -1;
      }
    }
    bool bound_pos[3];
    for (int f = 0; f < 3; ++f) {
      bound_pos[f] = step.consts[f] != kNullTermId ||
                     std::find(step.key_positions.begin(),
                               step.key_positions.end(),
                               f) != step.key_positions.end();
    }
    step.match_order =
        TripleStore::ScanFieldOrder(bound_pos[0], bound_pos[1], bound_pos[2]);
    steps.push_back(std::move(step));
  }

  // ---- Materialized stage-by-stage execution. ----
  const size_t width = vars.size();
  std::vector<Row> cur = seeds;
  for (const Row& row : cur) {
    if (row.size() != width) {
      return Status::Internal("EvaluateSeededBgp: seed width mismatch");
    }
  }
  std::vector<uint32_t> sidx(cur.size());
  for (size_t i = 0; i < sidx.size(); ++i) sidx[i] = static_cast<uint32_t>(i);

  ExecStats build_stats;
  for (const PatternStep& step : steps) {
    if (cur.empty()) break;
    // Same hash-build-vs-index-probe decision as the batch planner, with
    // the *actual* probe-side row count instead of an estimate.
    std::unique_ptr<internal::JoinHashTable> table;
    if (!step.key_positions.empty() && step.est_cardinality > 0 &&
        step.est_cardinality <= kHashBuildMaxRows &&
        cur.size() >= kHashProbeMinRows &&
        cur.size() >= kHashProbePerBuildRow * step.est_cardinality) {
      table = BuildJoinHashTable(&store, step, &build_stats);
    }
    std::vector<Row> next;
    std::vector<uint32_t> nidx;
    for (size_t r = 0; r < cur.size(); ++r) {
      const Row& row = cur[r];
      TermId ids[3];
      for (int i = 0; i < 3; ++i) {
        ids[i] = step.slots[i] >= 0 ? row[static_cast<size_t>(step.slots[i])]
                                    : step.consts[i];
      }
      const Triple* begin = nullptr;
      const Triple* end = nullptr;
      TripleStore::ScanRange range;  // keeps compact-layout backing alive
      if (table != nullptr) {
        HashKey key;
        for (int pos : step.key_positions) {
          key.v[static_cast<size_t>(pos)] = ids[pos];
        }
        auto it = table->ranges.find(key);
        if (it == table->ranges.end()) continue;
        begin = table->triples.data() + it->second.offset;
        end = begin + it->second.length;
      } else {
        range = store.Scan(ids[0], ids[1], ids[2]);
        begin = range.begin();
        end = range.end();
      }
      for (const Triple* t = begin; t != end; ++t) {
        ++out.rows_scanned;
        Row extended = row;
        if (BindStep(step, *t, &extended)) {
          next.push_back(std::move(extended));
          nidx.push_back(sidx[r]);
        }
      }
    }
    cur = std::move(next);
    sidx = std::move(nidx);
  }
  out.rows_scanned += build_stats.rows_scanned;
  out.rows = std::move(cur);
  out.seed_index = std::move(sidx);
  return out;
}

}  // namespace sparql
}  // namespace sofos
