#include "sparql/executor.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "sparql/aggregate.h"
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
// EXPLAIN ANALYZE instrumentation (ExecOptions::analyze): a plan-derived
// slot layout plus a timing wrapper that records per-operator actuals into
// ExecStats::operators. The layout depends only on the Plan, so the slot
// sequence — and with it the ANALYZE output shape — is identical across
// batch sizes and shard counts.
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
    if (!plan.order_keys.empty()) layout.order_by = next++;
  }
  layout.project = next++;
  if (plan.distinct) layout.distinct = next++;
  if (!plan.is_aggregate && !plan.order_keys.empty()) {
    layout.order_by = next++;
  }
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
// Batch (vectorized) operators.
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

/// Builds the hash table of `step` over `range`, the scan of the step's
/// constants.
std::unique_ptr<JoinHashTable> BuildJoinHashTable(
    const TripleStore::ScanRange& range, const PatternStep& step,
    ExecStats* stats) {
  auto table = std::make_unique<JoinHashTable>();
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
/// way.
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

/// Group keys packed `width` ids per group in one array, behind an
/// open-addressing index of group numbers (slot value = group + 1, 0 =
/// empty) that doubles at half load. Groups are numbered in insertion
/// order.
class GroupTable {
 public:
  explicit GroupTable(size_t width)
      : width_(width), slots_(kAggregateInitialSlots, 0) {}

  size_t size() const { return size_; }
  const TermId* key(uint32_t group) const {
    return keys_.data() + static_cast<size_t>(group) * width_;
  }

  /// The group of `key` (width ids); adds it when new, setting `*added`.
  uint32_t FindOrAdd(const TermId* key, bool* added) {
    const size_t mask = slots_.size() - 1;
    for (size_t idx = Hash(key) & mask;; idx = (idx + 1) & mask) {
      const uint32_t slot = slots_[idx];
      if (slot == 0) break;
      if (std::equal(key, key + width_, this->key(slot - 1))) {
        *added = false;
        return slot - 1;
      }
    }
    const uint32_t group = static_cast<uint32_t>(size_++);
    keys_.insert(keys_.end(), key, key + width_);
    if (size_ * 2 > slots_.size()) {
      slots_.assign(slots_.size() * 2, 0);
      for (uint32_t g = 0; g < size_; ++g) Place(g);
    } else {
      Place(group);
    }
    *added = true;
    return group;
  }

 private:
  size_t Hash(const TermId* key) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < width_; ++i) {
      h = (h ^ key[i]) * 0xff51afd7ed558ccdull;
    }
    return static_cast<size_t>(h ^ (h >> 32));
  }

  void Place(uint32_t group) {
    const size_t mask = slots_.size() - 1;
    size_t idx = Hash(key(group)) & mask;
    while (slots_[idx] != 0) idx = (idx + 1) & mask;
    slots_[idx] = group + 1;
  }

  size_t width_;
  size_t size_ = 0;
  std::vector<TermId> keys_;
  std::vector<uint32_t> slots_;
};

/// Hash aggregation over batches into a flat group table: group keys are
/// packed TermIds (GroupTable) and every group's accumulators sit in one
/// POD array, num_aggs per group. Accumulation runs in stream order, row by
/// row, and every argument path ends in one AggFolder::Accumulate; output
/// groups are sorted by ascending group-key TermIds, the order view
/// encodings and core::ViewRows rely on, and finalized into one flat
/// buffer.
///
/// A bare-variable argument is read from its column: non-DISTINCT COUNT(?v)
/// counts bound ids, and every other aggregate reads the batch's numbers
/// with one Dictionary::Numbers call per column, decoding through the
/// dictionary only MIN/MAX's non-numeric values. Other arguments are
/// evaluated by ExprEvaluator on a gathered row. DISTINCT keeps one
/// operator-wide set of (group, aggregate, canonical id).
class BatchAggregateOp : public BatchOperator {
 public:
  BatchAggregateOp(std::unique_ptr<BatchOperator> child, const Plan* plan,
                   Dictionary* dict, size_t batch_size, ExecStats* stats)
      : child_(std::move(child)),
        plan_(plan),
        eval_(dict, &plan->pattern_vars),
        dict_(dict),
        folder_(dict),
        batch_size_(batch_size),
        stats_(stats),
        groups_(plan->group_slots.size()) {
    for (const Expr* spec : plan->agg_specs) {
      Arg arg;
      if (!spec->count_star) {
        if (spec->agg_arg->kind == Expr::Kind::kVar) {
          arg.slot = plan->pattern_vars.Get(spec->agg_arg->var).value_or(-1);
        }
        arg.computed = arg.slot < 0;
      }
      if (arg.slot >= 0 &&
          (spec->agg != AggKind::kCount || spec->agg_distinct)) {
        // One numbers buffer per column, shared by its aggregates.
        auto known = std::find(number_slots_.begin(), number_slots_.end(),
                               arg.slot);
        arg.numbers = static_cast<int>(known - number_slots_.begin());
        if (known == number_slots_.end()) number_slots_.push_back(arg.slot);
      }
      args_.push_back(arg);
    }
    numbers_.resize(number_slots_.size());
  }

  Result<bool> Next(RowBatch* out) override {
    if (!materialized_) {
      SOFOS_RETURN_IF_ERROR(Materialize());
      materialized_ = true;
    }
    const size_t width = plan_->group_slots.size() + plan_->agg_specs.size();
    if (cursor_ >= num_results_) return false;
    out->ResetShape(width, batch_size_);
    size_t j = 0;
    for (; cursor_ < num_results_ && j < batch_size_; ++cursor_, ++j) {
      const TermId* row = results_.data() + cursor_ * width;
      for (size_t c = 0; c < width; ++c) out->Col(c)[j] = row[c];
    }
    out->set_rows(j);
    return true;
  }

 private:
  /// Where aggregate a's argument comes from.
  struct Arg {
    int slot = -1;       // column of a bare pattern variable
    int numbers = -1;    // index into numbers_ when the column's numbers
                         // are read
    bool computed = false;  // evaluated by ExprEvaluator
  };

  struct DistinctKey {
    uint32_t group;
    uint32_t agg;
    TermId id;
    bool operator==(const DistinctKey& o) const {
      return group == o.group && agg == o.agg && id == o.id;
    }
  };
  struct DistinctKeyHash {
    size_t operator()(const DistinctKey& k) const {
      return static_cast<size_t>(Fnv1a64(&k, sizeof(k)));
    }
  };

  /// Folds one bound argument of aggregate `a` into group `group`.
  Status Fold(size_t a, uint32_t group, const AggArg& arg) {
    const Expr& spec = *plan_->agg_specs[a];
    if (spec.agg_distinct && !spec.count_star) {
      SOFOS_ASSIGN_OR_RETURN(TermId id, folder_.CanonicalId(arg));
      if (!distinct_.insert({group, static_cast<uint32_t>(a), id}).second) {
        return Status::OK();
      }
    }
    folder_.Accumulate(spec.agg, arg,
                       &states_[group * plan_->agg_specs.size() + a]);
    return Status::OK();
  }

  Status Materialize() {
    const size_t num_group_vars = plan_->group_slots.size();
    const size_t num_aggs = plan_->agg_specs.size();
    RowBatch in;
    std::vector<TermId> key(num_group_vars);
    std::vector<TermId> ids;
    while (true) {
      SOFOS_ASSIGN_OR_RETURN(bool has, child_->Next(&in));
      if (!has) break;
      const size_t n = in.ActiveCount();
      for (size_t k = 0; k < number_slots_.size(); ++k) {
        const TermId* col = in.Col(static_cast<size_t>(number_slots_[k]));
        ids.resize(n);
        for (size_t i = 0; i < n; ++i) ids[i] = col[in.ActiveIndex(i)];
        numbers_[k].resize(n);
        dict_->Numbers(ids.data(), n, numbers_[k].data());
      }
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = in.ActiveIndex(i);
        ++stats_->intermediate_rows;
        for (size_t g = 0; g < num_group_vars; ++g) {
          key[g] = in.At(static_cast<size_t>(plan_->group_slots[g]), r);
        }
        bool added = false;
        const uint32_t group = groups_.FindOrAdd(key.data(), &added);
        if (added) states_.resize(states_.size() + num_aggs);
        bool gathered = false;
        for (size_t a = 0; a < num_aggs; ++a) {
          const Arg& arg = args_[a];
          if (arg.computed) {
            if (!gathered) {
              in.GatherRow(r, &scratch_);
              gathered = true;
            }
            // SPARQL: an argument that errors (or is unbound) skips the
            // row for this aggregate, not the whole group.
            auto value = eval_.Eval(*plan_->agg_specs[a]->agg_arg, scratch_);
            if (!value.ok() || value.value().is_unbound()) continue;
            SOFOS_RETURN_IF_ERROR(Fold(a, group, AggFolder::ArgOf(*value)));
            continue;
          }
          AggArg value;
          if (arg.slot >= 0) {
            value.id = in.At(static_cast<size_t>(arg.slot), r);
            if (value.id == kNullTermId) continue;  // unbound: skipped
            if (arg.numbers >= 0) value.number = numbers_[arg.numbers][i];
          }
          SOFOS_RETURN_IF_ERROR(Fold(a, group, value));
        }
      }
    }

    // SPARQL: an aggregate query with no GROUP BY over an empty input still
    // produces one group (COUNT = 0, SUM = 0, others unbound).
    if (groups_.size() == 0 && num_group_vars == 0) {
      bool added = false;
      groups_.FindOrAdd(key.data(), &added);
      states_.resize(num_aggs);
    }

    std::vector<uint32_t> order(groups_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(
          groups_.key(a), groups_.key(a) + num_group_vars, groups_.key(b),
          groups_.key(b) + num_group_vars);
    });

    num_results_ = order.size();
    results_.resize(order.size() * (num_group_vars + num_aggs));
    TermId* cell = results_.data();
    for (uint32_t g : order) {
      cell = std::copy(groups_.key(g), groups_.key(g) + num_group_vars, cell);
      for (size_t a = 0; a < num_aggs; ++a) {
        SOFOS_ASSIGN_OR_RETURN(
            *cell++, folder_.Finalize(plan_->agg_specs[a]->agg,
                                      states_[g * num_aggs + a]));
      }
    }
    return Status::OK();
  }

  std::unique_ptr<BatchOperator> child_;
  const Plan* plan_;
  ExprEvaluator eval_;
  Dictionary* dict_;
  AggFolder folder_;
  size_t batch_size_;
  ExecStats* stats_;
  std::vector<Arg> args_;  // per aggregate
  /// Columns whose numbers a batch reads, and their decodes for the
  /// batch's active rows.
  std::vector<int> number_slots_;
  std::vector<std::vector<TermNumber>> numbers_;
  GroupTable groups_;
  std::vector<AggState> states_;  // num_aggs per group, in group order
  std::unordered_set<DistinctKey, DistinctKeyHash> distinct_;
  Row scratch_;
  bool materialized_ = false;
  std::vector<TermId> results_;  // row-major output rows
  size_t num_results_ = 0;
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
/// them by Value::TotalCompare, streams batches back out as wide as its
/// input. Keys are evaluated over the operator's input rows, laid out as
/// `vars` (with aggregate results from `agg_base` on).
class BatchOrderByOp : public BatchOperator {
 public:
  BatchOrderByOp(std::unique_ptr<BatchOperator> child, const Plan* plan,
                 const Dictionary* dict, const VariableTable* vars,
                 int agg_base, size_t batch_size)
      : child_(std::move(child)),
        plan_(plan),
        eval_(dict, vars, agg_base),
        batch_size_(batch_size) {}

  Result<bool> Next(RowBatch* out) override {
    if (!materialized_) {
      SOFOS_RETURN_IF_ERROR(Materialize());
      materialized_ = true;
    }
    if (cursor_ >= rows_.size()) return false;
    out->ResetShape(width_, batch_size_);
    size_t j = 0;
    while (cursor_ < rows_.size() && j < batch_size_) {
      const Row& row = rows_[cursor_++].row;
      for (size_t c = 0; c < width_; ++c) out->Col(c)[j] = row[c];
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
      width_ = in.width();
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
  size_t width_ = 0;
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
        const PatternStep& step = plan_->steps[i];
        tables[i] = BuildJoinHashTable(
            store_->Scan(step.consts[0], step.consts[1], step.consts[2]), step,
            stats);
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

  // Tail: aggregation, HAVING, ORDER BY of an aggregate query (before
  // projection, as SPARQL orders), projection, DISTINCT, ORDER BY of any
  // other query (over the projected row), slice.
  int agg_base = -1;
  const VariableTable* project_input = &plan_->pattern_vars;
  if (plan_->is_aggregate) {
    op = timed(std::make_unique<BatchAggregateOp>(std::move(op), plan_, dict_,
                                                  batch_size, stats),
               layout.aggregate);
    agg_base = static_cast<int>(plan_->group_slots.size());
    project_input = &plan_->group_vars;
    if (!plan_->having.empty()) {
      op = timed(std::make_unique<BatchFilterOp>(std::move(op), plan_->having,
                                                 dict_, &plan_->group_vars,
                                                 stats, agg_base),
                 layout.having);
    }
    if (!plan_->order_keys.empty()) {
      op = timed(std::make_unique<BatchOrderByOp>(std::move(op), plan_, dict_,
                                                  &plan_->group_vars, agg_base,
                                                  batch_size),
                 layout.order_by);
    }
  }
  op = timed(std::make_unique<BatchProjectOp>(std::move(op), plan_, dict_,
                                              dict_, project_input, agg_base),
             layout.project);
  if (plan_->distinct) {
    op = timed(std::make_unique<BatchDistinctOp>(std::move(op)),
               layout.distinct);
  }
  if (!plan_->is_aggregate && !plan_->order_keys.empty()) {
    op = timed(std::make_unique<BatchOrderByOp>(std::move(op), plan_, dict_,
                                                &plan_->output_vars, -1,
                                                batch_size),
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
  Status status = RunBatch(out, stats);
  stats->exec_micros += timer.ElapsedMicros();
  if (!status.ok()) return status;
  stats->output_rows += out->rows;
  return Status::OK();
}

std::string Executor::DescribePhysical(const Plan& plan, const TripleStore& store,
                                       const ExecOptions& options) {
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

PatternPatch::PatternPatch(std::vector<Triple> adds,
                           std::vector<Triple> deletes) {
  // The five orders Scan() serves: SPO, SOP, PSO, POS and OSP.
  const std::array<int, 3> orders[5] = {
      TripleStore::ScanFieldOrder(true, false, false),
      TripleStore::ScanFieldOrder(true, false, true),
      TripleStore::ScanFieldOrder(false, true, false),
      TripleStore::ScanFieldOrder(false, true, true),
      TripleStore::ScanFieldOrder(false, false, true)};
  for (size_t i = 0; i < runs_.size(); ++i) {
    Run& run = runs_[i];
    run.order = orders[i];
    run.adds = i + 1 < runs_.size() ? adds : std::move(adds);
    run.deletes = i + 1 < runs_.size() ? deletes : std::move(deletes);
    const TripleFieldLess less{run.order};
    std::sort(run.adds.begin(), run.adds.end(), less);
    std::sort(run.deletes.begin(), run.deletes.end(), less);
  }
}

const PatternPatch::Run& PatternPatch::RunFor(
    const std::array<int, 3>& order) const {
  for (const Run& run : runs_) {
    if (run.order == order) return run;
  }
  return runs_[0];  // the fully unbound scan is SPO
}

namespace {

/// The stretch of a patch run that matches the bound fields of a scan
/// (kNullTermId = unbound). The bound fields lead the run's order
/// (TripleStore::ScanFieldOrder), so the matches are contiguous.
struct PatchSlices {
  const Triple* add_begin;
  const Triple* add_end;
  const Triple* del_begin;
  const Triple* del_end;
};

PatchSlices SlicePatch(const PatternPatch::Run& run, TermId s, TermId p,
                       TermId o) {
  const TripleFieldLess less{run.order};
  const TermId max = std::numeric_limits<TermId>::max();
  const Triple lo{s, p, o};
  const Triple hi{s == kNullTermId ? max : s, p == kNullTermId ? max : p,
                  o == kNullTermId ? max : o};
  auto bounded = [&](const std::vector<Triple>& v) {
    const Triple* first =
        std::lower_bound(v.data(), v.data() + v.size(), lo, less);
    return std::make_pair(
        first, std::upper_bound(first, v.data() + v.size(), hi, less));
  };
  const auto [add_begin, add_end] = bounded(run.adds);
  const auto [del_begin, del_end] = bounded(run.deletes);
  return PatchSlices{add_begin, add_end, del_begin, del_end};
}

const PatternPatch::Run& PatchRunFor(const PatternPatch& patch, TermId s,
                                     TermId p, TermId o) {
  return patch.RunFor(TripleStore::ScanFieldOrder(
      s != kNullTermId, p != kNullTermId, o != kNullTermId));
}

/// What store.Count(s, p, o) returns once `patch` merges.
uint64_t PatchedCount(const TripleStore& store, const PatternPatch& patch,
                      TermId s, TermId p, TermId o) {
  const PatchSlices slices = SlicePatch(PatchRunFor(patch, s, p, o), s, p, o);
  return store.Count(s, p, o) + (slices.add_end - slices.add_begin) -
         (slices.del_end - slices.del_begin);
}

/// What store.Scan(s, p, o) returns once `patch` merges, in the same index
/// order: the store range with the patch's deletes skipped and its adds
/// merged in at their place, in one linear pass like MergeDelta.
TripleStore::ScanRange PatchedScan(const TripleStore& store,
                                   const PatternPatch& patch, TermId s,
                                   TermId p, TermId o) {
  TripleStore::ScanRange range = store.Scan(s, p, o);
  const PatternPatch::Run& run = PatchRunFor(patch, s, p, o);
  const PatchSlices slices = SlicePatch(run, s, p, o);
  if (slices.add_begin == slices.add_end &&
      slices.del_begin == slices.del_end) {
    return range;
  }
  const TripleFieldLess less{run.order};
  auto out = std::make_shared<std::vector<Triple>>();
  out->reserve(range.size() + (slices.add_end - slices.add_begin));
  const Triple* add = slices.add_begin;
  const Triple* del = slices.del_begin;
  for (const Triple& t : range) {
    while (add != slices.add_end && less(*add, t)) out->push_back(*add++);
    while (del != slices.del_end && less(*del, t)) ++del;
    if (del != slices.del_end && *del == t) {
      ++del;
      continue;
    }
    out->push_back(t);
  }
  out->insert(out->end(), add, slices.add_end);
  if (out->empty()) return TripleStore::ScanRange();
  const Triple* begin = out->data();
  const Triple* end = begin + out->size();
  return TripleStore::ScanRange(begin, end, std::move(out));
}

}  // namespace

Result<SeededJoinResult> EvaluateSeededBgp(
    const TripleStore& store, const VariableTable& vars,
    const std::vector<TriplePattern>& patterns,
    const std::vector<size_t>& remaining, const std::vector<int>& bound_slots,
    const std::vector<Row>& seeds,
    const std::vector<const PatternPatch*>& patches) {
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
    const PatternPatch* patch = nullptr;  // null: the store as it stands
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
    if (idx < patches.size()) c.patch = patches[idx];
    c.est = c.patch != nullptr ? PatchedCount(store, *c.patch, c.consts[0],
                                              c.consts[1], c.consts[2])
                               : store.Count(c.consts[0], c.consts[1],
                                             c.consts[2]);
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
  std::vector<const PatternPatch*> step_patches;
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
    step_patches.push_back(chosen.patch);
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
  for (size_t k = 0; k < steps.size(); ++k) {
    const PatternStep& step = steps[k];
    const PatternPatch* patch = step_patches[k];
    auto scan = [&](TermId s, TermId p, TermId o) {
      return patch != nullptr ? PatchedScan(store, *patch, s, p, o)
                              : store.Scan(s, p, o);
    };
    if (cur.empty()) break;
    // Same hash-build-vs-index-probe decision as the batch planner, with
    // the *actual* probe-side row count instead of an estimate.
    std::unique_ptr<internal::JoinHashTable> table;
    if (!step.key_positions.empty() && step.est_cardinality > 0 &&
        step.est_cardinality <= kHashBuildMaxRows &&
        cur.size() >= kHashProbeMinRows &&
        cur.size() >= kHashProbePerBuildRow * step.est_cardinality) {
      table = BuildJoinHashTable(
          scan(step.consts[0], step.consts[1], step.consts[2]), step,
          &build_stats);
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
        range = scan(ids[0], ids[1], ids[2]);
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
