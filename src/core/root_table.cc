#include "core/root_table.h"

#include <algorithm>
#include <numeric>

#include "sparql/query_engine.h"

namespace sofos {
namespace core {

namespace {

bool KeyLess(const TermId* a, const TermId* b, size_t n) {
  return std::lexicographical_compare(a, a + n, b, b + n);
}

/// Stable LSD radix sort of root row indices by the key columns `dims`
/// (most significant first), 11 bits per pass: a handful of linear passes
/// where a comparison sort would cost O(n log n) indirect key compares.
void SortByColumns(const RootTable& root, const std::vector<size_t>& dims,
                   std::vector<uint32_t>* order) {
  constexpr int kBits = 11;
  constexpr uint32_t kMask = (1u << kBits) - 1;
  std::vector<uint32_t> next(order->size());
  for (auto it = dims.rbegin(); it != dims.rend(); ++it) {
    const size_t d = *it;
    TermId max_id = 0;
    for (uint32_t r : *order) max_id = std::max(max_id, root.key(r)[d]);
    for (int shift = 0; shift < 32 && (shift == 0 || (max_id >> shift) != 0);
         shift += kBits) {
      std::vector<uint32_t> start(kMask + 2, 0);
      auto digit = [&](uint32_t r) {
        return (root.key(r)[d] >> shift) & kMask;
      };
      for (uint32_t r : *order) ++start[digit(r) + 1];
      for (size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
      for (uint32_t r : *order) next[start[digit(r)]++] = r;
      order->swap(next);
    }
  }
}

/// The numbers of column `col` of every row of `raw`, from the
/// dictionary's numeric column.
std::vector<TermNumber> ColumnNumbers(const Dictionary& dict,
                                      const sparql::RowBuffer& raw,
                                      size_t col) {
  std::vector<TermId> ids(raw.rows);
  for (size_t r = 0; r < raw.rows; ++r) ids[r] = raw.row(r)[col];
  return dict.Numbers(ids);
}

/// Integer value of a ?rows literal (COUNT is always an xsd:integer).
uint64_t RowsOf(const TermNumber& number) {
  return number.kind == TermNumber::Kind::kInteger
             ? static_cast<uint64_t>(number.integer)
             : 0;
}

}  // namespace

Result<RootTable> RootTable::Evaluate(TripleStore* store, const Facet& facet) {
  sparql::QueryEngine engine(store);
  SOFOS_ASSIGN_OR_RETURN(
      sparql::RowBuffer raw,
      engine.ExecuteIds(facet.ViewQuerySparql(facet.FullMask())));

  // Row layout of the view query: the dimensions in facet order, then
  // ?agg, then ?rows.
  const size_t num_dims = facet.num_dims();
  const Dictionary& dict = store->dictionary();
  const std::vector<TermNumber> values = ColumnNumbers(dict, raw, num_dims);
  const std::vector<TermNumber> rows = ColumnNumbers(dict, raw, num_dims + 1);
  RootTable table(num_dims);
  table.keys_.reserve(raw.rows * num_dims);
  table.cells_.reserve(raw.rows);
  for (size_t r = 0; r < raw.rows; ++r) {
    const TermId* row = raw.row(r);
    if (r > 0 && !KeyLess(raw.row(r - 1), row, num_dims)) {
      return Status::Internal("root view rows are not in group-key order");
    }
    RootCell cell;
    cell.value_id = row[num_dims];
    cell.rows_id = row[num_dims + 1];
    if (values[r].kind == TermNumber::Kind::kDouble) {
      cell.dsum = values[r].real;
      cell.saw_double = true;
    } else if (values[r].kind == TermNumber::Kind::kInteger) {
      cell.isum = values[r].integer;
    }
    cell.rows = RowsOf(rows[r]);
    table.Append(row, cell);
  }
  return table;
}

size_t RootTable::LowerBound(const TermId* key) const {
  size_t lo = 0, hi = size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (KeyLess(this->key(mid), key, num_dims_)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t RootTable::Find(const TermId* key) const {
  const size_t r = LowerBound(key);
  if (r < size() && std::equal(key, key + num_dims_, this->key(r))) return r;
  return size();
}

void RootTable::Append(const TermId* key, const RootCell& cell) {
  keys_.insert(keys_.end(), key, key + num_dims_);
  cells_.push_back(cell);
}

void RootTable::Apply(const std::vector<Edit>& edits) {
  RootTable next(num_dims_);
  next.keys_.reserve(keys_.size() + edits.size() * num_dims_);
  next.cells_.reserve(cells_.size() + edits.size());
  auto copy_rows = [&](size_t from, size_t to) {
    next.keys_.insert(next.keys_.end(), keys_.begin() + from * num_dims_,
                      keys_.begin() + to * num_dims_);
    next.cells_.insert(next.cells_.end(), cells_.begin() + from,
                       cells_.begin() + to);
  };
  size_t r = 0;
  for (const Edit& edit : edits) {
    const size_t at = LowerBound(edit.key);
    copy_rows(r, at);
    r = at;
    if (r < size() && std::equal(edit.key, edit.key + num_dims_, key(r))) ++r;
    if (edit.cell != nullptr) next.Append(edit.key, *edit.cell);
  }
  copy_rows(r, size());
  *this = std::move(next);
}

uint64_t RootTable::PatternRows() const {
  uint64_t total = 0;
  for (const RootCell& cell : cells_) total += cell.rows;
  return total;
}

LatticeRollup::LatticeRollup(const RootTable* root, const Facet* facet,
                             const Dictionary& dict)
    : root_(root), facet_(facet) {
  switch (facet->agg_kind()) {
    case sparql::AggKind::kCount:
      break;
    case sparql::AggKind::kSum:
    case sparql::AggKind::kAvg:
      for (size_t r = 0; r < root->size(); ++r) {
        if (root->cell(r).saw_double) exact_ = false;
      }
      break;
    case sparql::AggKind::kMin:
    case sparql::AggKind::kMax: {
      // Numbers come from the dictionary's numeric column; only other
      // values are decoded.
      std::vector<TermId> ids(root->size());
      for (size_t r = 0; r < root->size(); ++r) ids[r] = root->cell(r).value_id;
      const std::vector<TermNumber> numbers = dict.Numbers(ids);
      values_.reserve(root->size());
      for (size_t r = 0; r < root->size(); ++r) {
        if (numbers[r].kind == TermNumber::Kind::kInteger) {
          values_.push_back(sparql::Value::Int(numbers[r].integer));
        } else if (numbers[r].kind == TermNumber::Kind::kDouble) {
          values_.push_back(sparql::Value::MakeDouble(numbers[r].real));
        } else {
          values_.push_back(ids[r] == kNullTermId
                                ? sparql::Value()
                                : sparql::Value::FromTerm(dict.term(ids[r])));
        }
      }
      break;
    }
  }
}

ViewRows LatticeRollup::Rollup(uint32_t mask,
                               const std::vector<uint32_t>* subset) const {
  ViewRows out;
  out.mask = mask;
  std::vector<size_t> dims;
  for (size_t d = 0; d < facet_->num_dims(); ++d) {
    if ((mask >> d) & 1u) dims.push_back(d);
  }
  out.width = dims.size();

  std::vector<uint32_t> order;
  if (subset != nullptr) {
    order = *subset;
  } else {
    order.resize(root_->size());
    std::iota(order.begin(), order.end(), 0u);
  }
  // Root rows sorted by the projected key. The root is sorted by its full
  // key, so a mask keeping a prefix of the dimensions keeps root order.
  bool prefix = true;
  for (size_t j = 0; j < dims.size(); ++j) prefix &= dims[j] == j;
  auto same_group = [&](uint32_t a, uint32_t b) {
    for (size_t d : dims) {
      if (root_->key(a)[d] != root_->key(b)[d]) return false;
    }
    return true;
  };
  if (!prefix) SortByColumns(*root_, dims, &order);

  const sparql::AggKind kind = facet_->agg_kind();
  const bool minmax =
      kind == sparql::AggKind::kMin || kind == sparql::AggKind::kMax;
  // The root's own rows keep their interned cells.
  const bool identity = subset == nullptr && mask == facet_->FullMask();
  const bool summed = !minmax && exact_;
  if (order.empty() && mask != 0) return out;
  size_t begin = 0;
  do {
    int64_t sum = 0;
    uint64_t rows = 0;
    const uint32_t* best = nullptr;  // MIN/MAX: the picked root row
    size_t end = begin;
    for (; end < order.size() && same_group(order[begin], order[end]); ++end) {
      const RootCell& cell = root_->cell(order[end]);
      rows += cell.rows;
      sum += cell.isum;
      if (!minmax || cell.value_id == kNullTermId) continue;
      const int c = best == nullptr
                        ? 0
                        : values_[order[end]].TotalCompare(values_[*best]);
      if (best == nullptr || (kind == sparql::AggKind::kMin ? c < 0 : c > 0)) {
        best = &order[end];
      }
    }
    for (size_t d : dims) out.keys.push_back(root_->key(order[begin])[d]);
    if (summed) out.sums.push_back(sum);
    if (identity) {
      out.values.push_back(root_->cell(order[begin]).value_id);
    } else if (minmax) {
      out.values.push_back(best == nullptr ? kNullTermId
                                           : root_->cell(*best).value_id);
    }
    out.rows.push_back(rows);
    begin = end;
  } while (begin < order.size());
  return out;
}

Result<ViewRows> LatticeRollup::ComputeView(uint32_t mask,
                                            TripleStore* store) const {
  if (!NeedsQuery(mask)) return Rollup(mask);
  sparql::QueryEngine engine(store);
  SOFOS_ASSIGN_OR_RETURN(sparql::RowBuffer raw,
                         engine.ExecuteIds(facet_->ViewQuerySparql(mask)));
  ViewRows out;
  out.mask = mask;
  out.width = static_cast<size_t>(__builtin_popcount(mask));
  const std::vector<TermNumber> rows =
      ColumnNumbers(store->dictionary(), raw, out.width + 1);
  for (size_t r = 0; r < raw.rows; ++r) {
    const TermId* row = raw.row(r);
    out.keys.insert(out.keys.end(), row, row + out.width);
    out.values.push_back(row[out.width]);
    out.rows.push_back(RowsOf(rows[r]));
  }
  return out;
}

}  // namespace core
}  // namespace sofos
