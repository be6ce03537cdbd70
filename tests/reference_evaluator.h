#ifndef SOFOS_TESTS_REFERENCE_EVALUATOR_H_
#define SOFOS_TESTS_REFERENCE_EVALUATOR_H_

/// A deliberately naive SPARQL evaluator, the oracle the batch engine is
/// checked against, and the helper that compares the two.
///
/// The reference shares the parser, `Value` and `ExprEvaluator` with the
/// engine (the meaning of one expression) and nothing of the planner or
/// the executor:
///
///   - BGP: nested loops in the query's textual pattern order, one
///     `TripleStore::Scan` per pattern with the row's bound ids filled in.
///     No join reordering, no hash join, no filter pushdown.
///   - FILTER: after the whole BGP, through `ExprEvaluator::EvalBool`.
///   - Aggregation: groups collect into a `std::map` keyed on the group's
///     TermIds; COUNT(*) and COUNT/SUM/AVG/MIN/MAX, with or without
///     DISTINCT, are computed on `Value`s. HAVING and projected expressions
///     run through `ExprEvaluator` over the group row
///     [group vars..., aggregate results...] with `agg_base`.
///   - ORDER BY (`Value::TotalCompare`) in SPARQL's place: an aggregate
///     query orders its group rows before projecting them, with the keys
///     evaluated over the group row extended by every select alias (the
///     algebra's Extend); any other query orders its projected rows, as the
///     engine's pipeline does.
///   - DISTINCT, OFFSET/LIMIT, `SELECT *` and unknown projected variables
///     (unbound).
///
/// The aggregate results are interned into the store's dictionary, because
/// HAVING and the projection read them by id. A test that compares the
/// literals a query interns must give the reference a store of its own.

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "rdf/triple_store.h"
#include "sparql/expression.h"
#include "sparql/parser.h"
#include "sparql/query_engine.h"

namespace sofos {
namespace testing {

/// Row `r` of `result` as N-Triples terms ("UNBOUND" for unbound cells).
inline std::string RenderRow(const sparql::QueryResult& result, size_t r) {
  std::string out;
  for (size_t c = 0; c < result.rows[r].size(); ++c) {
    out += result.bound[r][c] ? result.rows[r][c].ToNTriples() : "UNBOUND";
    out += ' ';
  }
  return out;
}

/// ORDER BY keys of every row of `result` for a query without
/// aggregation. Keys are evaluated over the projected row, as the engine's
/// pipeline does (project → distinct → order by): a key is an expression
/// over the output columns, and any other variable reads as unbound. An
/// evaluation error sorts as unbound.
inline std::vector<std::vector<sparql::Value>> OrderKeys(
    const sparql::Query& query, const sparql::QueryResult& result) {
  Dictionary dict;
  sparql::VariableTable vars;
  for (const std::string& name : result.var_names) vars.GetOrAdd(name);
  const sparql::ExprEvaluator eval(&dict, &vars);
  std::vector<std::vector<sparql::Value>> keys;
  for (size_t r = 0; r < result.rows.size(); ++r) {
    sparql::Row ids(result.var_names.size(), kNullTermId);
    for (size_t c = 0; c < ids.size(); ++c) {
      if (result.bound[r][c]) ids[c] = dict.Intern(result.rows[r][c]);
    }
    std::vector<sparql::Value> row_keys;
    for (const sparql::OrderKey& key : query.order_by) {
      auto v = eval.Eval(*key.expr, ids);
      row_keys.push_back(v.ok() ? v.value() : sparql::Value::Unbound());
    }
    keys.push_back(std::move(row_keys));
  }
  return keys;
}

/// How often the reference met each aggregate case, so a property test can
/// assert that the cases it claims to cover occurred.
struct AggregateCoverage {
  int distinct_column = 0;    // DISTINCT skipped a repeat of a variable
  int distinct_computed = 0;  // DISTINCT skipped a repeat of an expression
  /// MIN/MAX groups whose values span two or more of IRI, string, integer
  /// and double, and the union of the kinds those groups saw.
  int minmax_mixed = 0;
  unsigned minmax_kinds = 0;
  int sum_mixed = 0;        // SUM/AVG groups that added an integer and a double
  int sum_non_numeric = 0;  // SUM/AVG groups that counted a non-number
  int empty_ungrouped = 0;  // aggregation without GROUP BY over no solutions

  /// Bits of minmax_kinds.
  static constexpr unsigned kIri = 1, kString = 2, kInteger = 4, kDouble = 8;
};

class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(TripleStore* store,
                              AggregateCoverage* coverage = nullptr)
      : store_(store), coverage_(coverage) {}

  /// The ORDER BY keys of the rows the last Evaluate() returned, row by row
  /// (empty without ORDER BY).
  const std::vector<std::vector<sparql::Value>>& sort_keys() const {
    return keys_;
  }

  Result<sparql::QueryResult> Evaluate(std::string_view text) {
    SOFOS_ASSIGN_OR_RETURN(sparql::Query query, sparql::Parser::Parse(text));
    return Evaluate(&query);
  }

  /// `query` is mutated only to assign Expr::agg_slot.
  Result<sparql::QueryResult> Evaluate(sparql::Query* query) {
    sparql::VariableTable vars;
    for (const sparql::TriplePattern& tp : query->where) {
      for (const sparql::PatternTerm* pt : {&tp.s, &tp.p, &tp.o}) {
        if (pt->is_var()) vars.GetOrAdd(pt->var());
      }
    }
    std::vector<sparql::Row> solutions;
    MatchBgp(*query, vars, &solutions);

    const sparql::ExprEvaluator eval(&store_->dictionary(), &vars);
    std::vector<sparql::Row> kept;
    for (sparql::Row& row : solutions) {
      if (PassesAll(query->filters, eval, row)) kept.push_back(std::move(row));
    }

    sparql::QueryResult out;
    keys_.clear();
    if (query->IsAggregateQuery()) {
      if (query->select_all) {
        return Status::InvalidArgument("SELECT * with aggregation");
      }
      SOFOS_RETURN_IF_ERROR(Aggregate(query, vars, kept, &out));
      if (query->distinct) Distinct(&out);
    } else {
      SetColumns(*query, vars, &out);
      for (const sparql::Row& row : kept) {
        AppendRow(*query, vars, eval, row, &out);
      }
      if (query->distinct) Distinct(&out);
      if (!query->order_by.empty()) {
        keys_ = OrderKeys(*query, out);
        Select(SortedOrder(*query), &out);
      }
    }
    Slice(query->offset, query->limit, &out);
    return out;
  }

 private:
  /// A triple pattern with its constants resolved: per position either a
  /// constant id or a variable slot.
  struct Pattern {
    TermId consts[3] = {kNullTermId, kNullTermId, kNullTermId};
    int slots[3] = {-1, -1, -1};
  };

  struct Accum {
    uint64_t count = 0;
    sparql::Value sum = sparql::Value::Int(0);
    bool has_best = false;
    sparql::Value best;
    std::set<std::string> seen;  // DISTINCT: the terms counted so far
    unsigned kinds = 0;          // AggregateCoverage kind bits of the values
    bool non_numeric = false;    // a non-number was counted
  };

  /// FILTER and HAVING: a row passes when every constraint is true; an
  /// evaluation error drops it.
  static bool PassesAll(const std::vector<sparql::ExprPtr>& constraints,
                        const sparql::ExprEvaluator& eval,
                        const sparql::Row& row) {
    for (const sparql::ExprPtr& constraint : constraints) {
      auto verdict = eval.EvalBool(*constraint, row);
      if (!verdict.ok() || !verdict.value()) return false;
    }
    return true;
  }

  static sparql::Value Add(const sparql::Value& a, const sparql::Value& b) {
    if (a.type() == sparql::Value::Type::kInt &&
        b.type() == sparql::Value::Type::kInt) {
      return sparql::Value::Int(a.int_value() + b.int_value());
    }
    return sparql::Value::MakeDouble(a.double_value() + b.double_value());
  }

  /// Mirrors the planner's walk: aggregate nodes of the select items, then
  /// HAVING, then ORDER BY, numbered in discovery order.
  static void AssignAggSlots(sparql::Expr* expr,
                             std::vector<const sparql::Expr*>* specs) {
    if (expr == nullptr) return;
    if (expr->kind == sparql::Expr::Kind::kAggregate) {
      expr->agg_slot = static_cast<int>(specs->size());
      specs->push_back(expr);
      return;
    }
    AssignAggSlots(expr->lhs.get(), specs);
    AssignAggSlots(expr->rhs.get(), specs);
    AssignAggSlots(expr->operand.get(), specs);
    for (auto& arg : expr->args) AssignAggSlots(arg.get(), specs);
  }

  /// All solutions of the BGP (filters not applied).
  void MatchBgp(const sparql::Query& query, const sparql::VariableTable& vars,
                std::vector<sparql::Row>* out) const {
    std::vector<Pattern> patterns;
    for (const sparql::TriplePattern& tp : query.where) {
      Pattern pattern;
      const sparql::PatternTerm* positions[3] = {&tp.s, &tp.p, &tp.o};
      for (int i = 0; i < 3; ++i) {
        if (positions[i]->is_var()) {
          pattern.slots[i] = *vars.Get(positions[i]->var());
          continue;
        }
        auto id = store_->dictionary().Lookup(positions[i]->term());
        if (!id.has_value()) return;  // a constant absent from the graph
        pattern.consts[i] = *id;
      }
      patterns.push_back(pattern);
    }
    sparql::Row row(vars.size(), kNullTermId);
    Extend(patterns, 0, &row, out);
  }

  /// Binds patterns[index..] in order, one Scan per pattern.
  void Extend(const std::vector<Pattern>& patterns, size_t index,
              sparql::Row* row, std::vector<sparql::Row>* out) const {
    if (index == patterns.size()) {
      out->push_back(*row);
      return;
    }
    const Pattern& pattern = patterns[index];
    TermId ids[3];
    for (int i = 0; i < 3; ++i) {
      ids[i] = pattern.slots[i] >= 0
                   ? (*row)[static_cast<size_t>(pattern.slots[i])]
                   : pattern.consts[i];
    }
    for (const Triple& t : store_->Scan(ids[0], ids[1], ids[2])) {
      const TermId fields[3] = {t.s, t.p, t.o};
      sparql::Row next = *row;
      bool consistent = true;
      for (int i = 0; i < 3 && consistent; ++i) {
        if (pattern.slots[i] < 0) continue;
        TermId& cell = next[static_cast<size_t>(pattern.slots[i])];
        if (cell == kNullTermId) {
          cell = fields[i];
        } else {
          consistent = cell == fields[i];  // a variable repeated in the pattern
        }
      }
      if (consistent) Extend(patterns, index + 1, &next, out);
    }
  }

  /// Appends the projection of `row` to `out`: for `SELECT *` every
  /// variable of `vars`; otherwise per select item a variable of `vars`
  /// (unbound when unknown) or an expression evaluated by `eval` (unbound
  /// on an error).
  void AppendRow(const sparql::Query& query, const sparql::VariableTable& vars,
                 const sparql::ExprEvaluator& eval, const sparql::Row& row,
                 sparql::QueryResult* out) const {
    std::vector<Term> terms;
    std::vector<bool> bound;
    auto cell = [&](TermId id) {
      bound.push_back(id != kNullTermId);
      terms.push_back(id != kNullTermId ? store_->dictionary().term(id)
                                        : Term());
    };
    if (query.select_all) {
      for (size_t slot = 0; slot < vars.size(); ++slot) cell(row[slot]);
    }
    for (size_t i = 0; !query.select_all && i < query.select.size(); ++i) {
      const sparql::Expr& expr = *query.select[i].expr;
      if (expr.kind == sparql::Expr::Kind::kVar) {
        auto slot = vars.Get(expr.var);
        cell(slot.has_value() ? row[static_cast<size_t>(*slot)] : kNullTermId);
        continue;
      }
      auto value = eval.Eval(expr, row);
      Result<Term> term = Status::TypeError("unbound");
      if (value.ok() && !value->is_unbound()) term = value->ToTerm();
      bound.push_back(term.ok());
      terms.push_back(term.ok() ? term.value() : Term());
    }
    out->rows.push_back(std::move(terms));
    out->bound.push_back(std::move(bound));
  }

  static void SetColumns(const sparql::Query& query,
                         const sparql::VariableTable& vars,
                         sparql::QueryResult* out) {
    if (query.select_all) {
      out->var_names = vars.names();
      return;
    }
    for (const sparql::SelectItem& item : query.select) {
      out->var_names.push_back(item.alias);
    }
  }

  void Accumulate(const sparql::Expr& spec, const sparql::Row& row,
                  const sparql::ExprEvaluator& eval, Accum* acc) const {
    if (spec.count_star) {
      ++acc->count;
      return;
    }
    // An erroring or unbound argument skips the row for this aggregate.
    auto value = eval.Eval(*spec.agg_arg, row);
    if (!value.ok() || value.value().is_unbound()) return;
    const sparql::Value& v = value.value();
    if (spec.agg_distinct &&
        !acc->seen.insert(v.ToTerm().value().ToNTriples()).second) {
      if (coverage_ != nullptr) {
        ++(spec.agg_arg->kind == sparql::Expr::Kind::kVar
               ? coverage_->distinct_column
               : coverage_->distinct_computed);
      }
      return;
    }
    switch (v.type()) {
      case sparql::Value::Type::kIri:
        acc->kinds |= AggregateCoverage::kIri;
        break;
      case sparql::Value::Type::kString:
        acc->kinds |= AggregateCoverage::kString;
        break;
      case sparql::Value::Type::kInt:
        acc->kinds |= AggregateCoverage::kInteger;
        break;
      case sparql::Value::Type::kDouble:
        acc->kinds |= AggregateCoverage::kDouble;
        break;
      default:
        break;
    }
    acc->non_numeric |= !v.is_numeric();
    // Every counted value is in AVG's denominator; a non-numeric one adds
    // nothing to SUM/AVG's sum. This is the engine's rule.
    ++acc->count;
    switch (spec.agg) {
      case sparql::AggKind::kCount:
        break;
      case sparql::AggKind::kSum:
      case sparql::AggKind::kAvg:
        if (v.is_numeric()) acc->sum = Add(acc->sum, v);
        break;
      case sparql::AggKind::kMin:
      case sparql::AggKind::kMax: {
        const int c = acc->has_best ? v.TotalCompare(acc->best) : 0;
        if (!acc->has_best ||
            (spec.agg == sparql::AggKind::kMin ? c < 0 : c > 0)) {
          acc->best = v;
          acc->has_best = true;
        }
        break;
      }
    }
  }

  /// COUNT of nothing is 0 and SUM of nothing is 0; AVG, MIN and MAX of
  /// nothing are unbound. SUM stays an integer unless a double was added.
  static sparql::Value Finalize(const sparql::Expr& spec, const Accum& acc) {
    switch (spec.agg) {
      case sparql::AggKind::kCount:
        return sparql::Value::Int(static_cast<int64_t>(acc.count));
      case sparql::AggKind::kSum:
        return acc.sum;
      case sparql::AggKind::kAvg:
        if (acc.count == 0) return sparql::Value::Unbound();
        return sparql::Value::MakeDouble(acc.sum.double_value() /
                                         static_cast<double>(acc.count));
      case sparql::AggKind::kMin:
      case sparql::AggKind::kMax:
        return acc.has_best ? acc.best : sparql::Value::Unbound();
    }
    return sparql::Value::Unbound();
  }

  /// Counts the coverage cases a finished group shows.
  void Cover(const sparql::Expr& spec, const Accum& acc) const {
    if (coverage_ == nullptr || spec.count_star) return;
    const unsigned numbers =
        AggregateCoverage::kInteger | AggregateCoverage::kDouble;
    switch (spec.agg) {
      case sparql::AggKind::kSum:
      case sparql::AggKind::kAvg:
        if ((acc.kinds & numbers) == numbers) ++coverage_->sum_mixed;
        if (acc.non_numeric) ++coverage_->sum_non_numeric;
        break;
      case sparql::AggKind::kMin:
      case sparql::AggKind::kMax:
        if (__builtin_popcount(acc.kinds) >= 2) {
          ++coverage_->minmax_mixed;
          coverage_->minmax_kinds |= acc.kinds;
        }
        break;
      case sparql::AggKind::kCount:
        break;
    }
  }

  Status Aggregate(sparql::Query* query, const sparql::VariableTable& vars,
                   const std::vector<sparql::Row>& solutions,
                   sparql::QueryResult* out) {
    std::vector<const sparql::Expr*> specs;
    for (auto& item : query->select) AssignAggSlots(item.expr.get(), &specs);
    for (auto& h : query->having) AssignAggSlots(h.get(), &specs);
    for (auto& k : query->order_by) AssignAggSlots(k.expr.get(), &specs);

    sparql::VariableTable group_vars;
    std::vector<size_t> key_slots;
    for (const std::string& name : query->group_by) {
      auto slot = vars.Get(name);
      if (!slot.has_value()) {
        return Status::InvalidArgument("GROUP BY ?" + name + " is not bound");
      }
      key_slots.push_back(static_cast<size_t>(*slot));
      group_vars.GetOrAdd(name);
    }

    const sparql::ExprEvaluator arg_eval(&store_->dictionary(), &vars);
    std::map<sparql::Row, std::vector<Accum>> groups;
    for (const sparql::Row& row : solutions) {
      sparql::Row key;
      for (size_t slot : key_slots) key.push_back(row[slot]);
      std::vector<Accum>& accums = groups[key];
      accums.resize(specs.size());
      for (size_t a = 0; a < specs.size(); ++a) {
        Accumulate(*specs[a], row, arg_eval, &accums[a]);
      }
    }
    // No GROUP BY over empty input: one group of empty aggregates.
    if (groups.empty() && key_slots.empty()) {
      groups[sparql::Row{}].resize(specs.size());
      if (coverage_ != nullptr) ++coverage_->empty_ungrouped;
    }

    const int agg_base = static_cast<int>(key_slots.size());
    Dictionary* dict = store_->mutable_dictionary();
    const sparql::ExprEvaluator eval(dict, &group_vars, agg_base);
    std::vector<sparql::Row> rows;
    for (const auto& [key, accums] : groups) {
      sparql::Row row = key;
      for (size_t a = 0; a < specs.size(); ++a) {
        Cover(*specs[a], accums[a]);
        const sparql::Value value = Finalize(*specs[a], accums[a]);
        row.push_back(value.is_unbound() ? kNullTermId
                                         : dict->Intern(value.ToTerm().value()));
      }
      if (PassesAll(query->having, eval, row)) rows.push_back(std::move(row));
    }

    std::vector<size_t> order = Iota(rows.size());
    if (!query->order_by.empty()) {
      // Extend each group row by the select aliases, then evaluate the keys
      // over it. A repeated GROUP BY variable's second column and the
      // aggregate columns get names no query can spell.
      sparql::VariableTable extended;
      for (size_t k = 0; k < query->group_by.size(); ++k) {
        const std::string& name = query->group_by[k];
        extended.GetOrAdd(extended.Get(name).has_value()
                              ? " key" + std::to_string(k)
                              : name);
      }
      for (size_t a = 0; a < specs.size(); ++a) {
        extended.GetOrAdd(" agg" + std::to_string(a));
      }
      std::vector<const sparql::Expr*> aliased;
      for (const sparql::SelectItem& item : query->select) {
        if (extended.Get(item.alias).has_value()) continue;
        extended.GetOrAdd(item.alias);
        aliased.push_back(item.expr.get());
      }
      const sparql::ExprEvaluator key_eval(dict, &extended, agg_base);
      for (const sparql::Row& row : rows) {
        sparql::Row wide = row;
        for (const sparql::Expr* expr : aliased) {
          auto value = eval.Eval(*expr, row);
          Result<Term> term = Status::TypeError("unbound");
          if (value.ok() && !value->is_unbound()) term = value->ToTerm();
          wide.push_back(term.ok() ? dict->Intern(*term) : kNullTermId);
        }
        std::vector<sparql::Value> row_keys;
        for (const sparql::OrderKey& key : query->order_by) {
          auto v = key_eval.Eval(*key.expr, wide);
          row_keys.push_back(v.ok() ? v.value() : sparql::Value::Unbound());
        }
        keys_.push_back(std::move(row_keys));
      }
      order = SortedOrder(*query);
    }

    SetColumns(*query, group_vars, out);
    std::vector<std::vector<sparql::Value>> keys;
    for (size_t r : order) {
      AppendRow(*query, group_vars, eval, rows[r], out);
      if (!keys_.empty()) keys.push_back(std::move(keys_[r]));
    }
    keys_ = std::move(keys);
    return Status::OK();
  }

  static std::vector<size_t> Iota(size_t n) {
    std::vector<size_t> out(n);
    std::iota(out.begin(), out.end(), size_t{0});
    return out;
  }

  /// Row order by keys_: a stable sort, so tied rows keep their order.
  std::vector<size_t> SortedOrder(const sparql::Query& query) const {
    std::vector<size_t> order = Iota(keys_.size());
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < query.order_by.size(); ++k) {
        const int c = keys_[a][k].TotalCompare(keys_[b][k]);
        if (c != 0) return query.order_by[k].ascending ? c < 0 : c > 0;
      }
      return false;
    });
    return order;
  }

  /// Keeps the rows at `order`, in that order, with their sort keys.
  void Select(const std::vector<size_t>& order, sparql::QueryResult* out) {
    sparql::QueryResult kept;
    kept.var_names = out->var_names;
    std::vector<std::vector<sparql::Value>> keys;
    for (size_t r : order) {
      kept.rows.push_back(std::move(out->rows[r]));
      kept.bound.push_back(std::move(out->bound[r]));
      if (!keys_.empty()) keys.push_back(std::move(keys_[r]));
    }
    *out = std::move(kept);
    keys_ = std::move(keys);
  }

  /// Keeps the first of each set of equal rows.
  void Distinct(sparql::QueryResult* out) {
    std::set<std::string> seen;
    std::vector<size_t> order;
    for (size_t r = 0; r < out->rows.size(); ++r) {
      if (seen.insert(RenderRow(*out, r)).second) order.push_back(r);
    }
    Select(order, out);
  }

  void Slice(int64_t offset, int64_t limit, sparql::QueryResult* out) {
    std::vector<size_t> order;
    for (size_t r = static_cast<size_t>(offset); r < out->rows.size(); ++r) {
      if (limit >= 0 && order.size() >= static_cast<size_t>(limit)) break;
      order.push_back(r);
    }
    Select(order, out);
  }

  TripleStore* store_;
  AggregateCoverage* coverage_;
  std::vector<std::vector<sparql::Value>> keys_;  // ORDER BY keys per row
};

namespace reference_internal {

/// True when `expr` contains a SUM or AVG aggregate.
inline bool HasSumOrAvg(const sparql::Expr* expr) {
  if (expr == nullptr) return false;
  if (expr->kind == sparql::Expr::Kind::kAggregate) {
    return expr->agg == sparql::AggKind::kSum ||
           expr->agg == sparql::AggKind::kAvg;
  }
  bool found = HasSumOrAvg(expr->lhs.get()) || HasSumOrAvg(expr->rhs.get()) ||
               HasSumOrAvg(expr->operand.get());
  for (const auto& arg : expr->args) found = found || HasSumOrAvg(arg.get());
  return found;
}

/// The engine sums a group's doubles in its stream order and the reference
/// in its own pattern order, so an xsd:double SUM or AVG built from doubles
/// (and a sort key on one) may differ in the last bits. Such values compare
/// to 1e-12 relative; everything else compares exactly.
inline bool Near(double x, double y) {
  return x == y ||
         std::fabs(x - y) <= 1e-12 * std::max(std::fabs(x), std::fabs(y));
}

inline bool SameCell(const sparql::QueryResult& a, size_t ra,
                     const sparql::QueryResult& b, size_t rb, size_t c,
                     bool tolerant) {
  if (a.bound[ra][c] != b.bound[rb][c]) return false;
  if (!a.bound[ra][c]) return true;
  const Term& x = a.rows[ra][c];
  const Term& y = b.rows[rb][c];
  return x == y || (tolerant && x.datatype() == Term::Datatype::kDouble &&
                    y.datatype() == Term::Datatype::kDouble &&
                    Near(x.AsDouble().ValueOr(0.0), y.AsDouble().ValueOr(0.0)));
}

inline bool SameKey(const sparql::Value& a, const sparql::Value& b) {
  if (a.type() == sparql::Value::Type::kDouble &&
      b.type() == sparql::Value::Type::kDouble) {
    return Near(a.double_value(), b.double_value());
  }
  return a.TotalCompare(b) == 0;
}

/// 0, 1, ..., n - 1.
inline std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> out(n);
  std::iota(out.begin(), out.end(), size_t{0});
  return out;
}

/// Whether two rows' sort keys tie.
inline bool SameKeys(const std::vector<sparql::Value>& a,
                     const std::vector<sparql::Value>& b) {
  for (size_t k = 0; k < a.size(); ++k) {
    if (!SameKey(a[k], b[k])) return false;
  }
  return true;
}

/// Rows `order` (every row by default) in the order of a multiset
/// comparison: tolerant cells by numeric value, every other cell by its
/// N-Triples form.
inline std::vector<size_t> CanonicalOrder(const sparql::QueryResult& result,
                                          const std::vector<bool>& tolerant,
                                          std::vector<size_t> order) {
  auto less = [&](size_t a, size_t b) {
    for (size_t c = 0; c < tolerant.size(); ++c) {
      if (result.bound[a][c] != result.bound[b][c]) return !result.bound[a][c];
      if (!result.bound[a][c]) continue;
      const Term& x = result.rows[a][c];
      const Term& y = result.rows[b][c];
      if (tolerant[c] && x.is_numeric() && y.is_numeric()) {
        const double dx = x.AsDouble().ValueOr(0.0);
        const double dy = y.AsDouble().ValueOr(0.0);
        if (dx != dy) return dx < dy;
        continue;
      }
      const std::string sx = x.ToNTriples(), sy = y.ToNTriples();
      if (sx != sy) return sx < sy;
    }
    return false;
  };
  std::sort(order.begin(), order.end(), less);
  return order;
}

inline std::vector<size_t> CanonicalOrder(const sparql::QueryResult& result,
                                          const std::vector<bool>& tolerant) {
  return CanonicalOrder(result, tolerant, Iota(result.rows.size()));
}

inline void ExpectSameRows(const sparql::QueryResult& actual,
                           const std::vector<size_t>& actual_order,
                           const sparql::QueryResult& expected,
                           const std::vector<size_t>& expected_order,
                           const std::vector<bool>& tolerant,
                           const std::string& context) {
  ASSERT_EQ(actual_order.size(), expected_order.size()) << context;
  for (size_t i = 0; i < actual_order.size(); ++i) {
    const size_t ra = actual_order[i], rb = expected_order[i];
    for (size_t c = 0; c < tolerant.size(); ++c) {
      ASSERT_TRUE(SameCell(actual, ra, expected, rb, c, tolerant[c]))
          << context << "\nrow " << i << " col " << c << ": engine "
          << RenderRow(actual, ra) << "\nreference " << RenderRow(expected, rb);
    }
  }
}

}  // namespace reference_internal

/// Checks an engine result against the reference's answer to `text`,
/// evaluated over `reference_store`.
///
/// Column names must be equal (for `SELECT *`, which lists variables in
/// the planner's join order, equal as a set; columns are matched by name).
/// Row multisets must always be equal. Row sequences must be equal where
/// the engine promises an order:
///   - ORDER BY: rows whose keys tie (by the reference's keys, which for an
///     aggregate query may read aggregates the projection drops) may come
///     in any order, so each run of tied rows must hold the same multiset
///     of rows on both sides. With OFFSET/LIMIT the keys must order every
///     projected column, or tied rows at the cut could legitimately differ;
///   - aggregation without ORDER BY: the whole row sequence, since groups
///     come out in ascending group-key TermId order, which view encodings
///     and core::ViewRows rely on. This needs the reference store's
///     TermIds to equal the engine's for every pattern-bound term, as they
///     do in the same store or in one built by the same steps;
///   - OFFSET/LIMIT without either: the row count, and the rows must be a
///     sub-multiset of the unsliced answer.
inline void ExpectMatchesReference(const sparql::QueryResult& actual,
                                   const std::string& text,
                                   TripleStore* reference_store,
                                   const std::string& context) {
  using namespace reference_internal;
  auto query = sparql::Parser::Parse(text);
  ASSERT_TRUE(query.ok()) << context << ": " << query.status().ToString();
  ReferenceEvaluator reference(reference_store);
  auto expected = reference.Evaluate(&*query);
  ASSERT_TRUE(expected.ok()) << context << ": "
                             << expected.status().ToString();

  sparql::QueryResult engine = actual;
  if (query->select_all) {
    std::vector<std::string> a = engine.var_names, b = expected->var_names;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << context;
    std::vector<size_t> column;
    for (const std::string& name : expected->var_names) {
      column.push_back(static_cast<size_t>(
          std::find(engine.var_names.begin(), engine.var_names.end(), name) -
          engine.var_names.begin()));
    }
    for (size_t r = 0; r < engine.rows.size(); ++r) {
      std::vector<Term> terms;
      std::vector<bool> bound;
      for (size_t c : column) {
        terms.push_back(actual.rows[r][c]);
        bound.push_back(actual.bound[r][c]);
      }
      engine.rows[r] = std::move(terms);
      engine.bound[r] = std::move(bound);
    }
    engine.var_names = expected->var_names;
  }
  ASSERT_EQ(engine.var_names, expected->var_names) << context;

  std::vector<bool> tolerant(expected->NumCols(), false);
  for (size_t c = 0; !query->select_all && c < tolerant.size(); ++c) {
    tolerant[c] = HasSumOrAvg(query->select[c].expr.get());
  }
  if (!query->order_by.empty()) {
    ASSERT_EQ(engine.NumRows(), expected->NumRows()) << context;
    const std::vector<std::vector<sparql::Value>> keys = reference.sort_keys();
    ASSERT_EQ(keys.size(), expected->NumRows()) << context;
    for (size_t begin = 0, end = 0; begin < keys.size(); begin = end) {
      std::vector<size_t> run;
      for (end = begin; end < keys.size() &&
                        (end == begin || SameKeys(keys[end - 1], keys[end]));
           ++end) {
        run.push_back(end);
      }
      ExpectSameRows(engine, CanonicalOrder(engine, tolerant, run), *expected,
                     CanonicalOrder(*expected, tolerant, run), tolerant,
                     context + "\nrows tied on their sort keys from row " +
                         std::to_string(begin));
    }
  } else if (query->IsAggregateQuery()) {
    ExpectSameRows(engine, Iota(engine.NumRows()), *expected,
                   Iota(expected->NumRows()), tolerant, context);
  } else if (query->limit >= 0 || query->offset > 0) {
    ASSERT_EQ(engine.NumRows(), expected->NumRows()) << context;
    query->limit = -1;
    query->offset = 0;
    auto all = reference.Evaluate(&*query);
    ASSERT_TRUE(all.ok()) << context;
    std::multiset<std::string> pool;
    for (size_t r = 0; r < all->NumRows(); ++r) pool.insert(RenderRow(*all, r));
    for (size_t r = 0; r < engine.NumRows(); ++r) {
      auto it = pool.find(RenderRow(engine, r));
      ASSERT_TRUE(it != pool.end())
          << context << "\nrow " << r << " is not in the unsliced answer: "
          << RenderRow(engine, r);
      pool.erase(it);
    }
  } else {
    ExpectSameRows(engine, CanonicalOrder(engine, tolerant), *expected,
                   CanonicalOrder(*expected, tolerant), tolerant, context);
  }
}

}  // namespace testing
}  // namespace sofos

#endif  // SOFOS_TESTS_REFERENCE_EVALUATOR_H_
