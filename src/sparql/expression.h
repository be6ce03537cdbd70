#ifndef SOFOS_SPARQL_EXPRESSION_H_
#define SOFOS_SPARQL_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sparql/binding.h"
#include "sparql/value.h"

namespace sofos {
namespace sparql {

/// Evaluates expression trees against solution rows.
///
/// Aggregate nodes (Expr::kAggregate with agg_slot >= 0) read their
/// precomputed result from the row at `agg_base + agg_slot`; the aggregate
/// operator produces rows with that layout. Evaluating an aggregate node
/// with agg_slot < 0 is an Internal error (the algebra builder assigns
/// slots before execution).
class ExprEvaluator {
 public:
  ExprEvaluator(const Dictionary* dict, const VariableTable* vars, int agg_base = -1)
      : dict_(dict), vars_(vars), agg_base_(agg_base) {}

  Result<Value> Eval(const Expr& expr, const Row& row) const;

  /// Effective boolean value of the expression, for FILTER/HAVING.
  Result<bool> EvalBool(const Expr& expr, const Row& row) const;

 private:
  Result<Value> EvalBinary(const Expr& expr, const Row& row) const;
  Result<Value> EvalFunction(const Expr& expr, const Row& row) const;
  Value Decode(TermId id) const;

  const Dictionary* dict_;
  const VariableTable* vars_;
  int agg_base_;
};

/// TermId -> Value decode cache for FilterKernel leaves, the one
/// TermId-native path that still needs decoded values: its comparisons
/// order strings, IRIs and booleans as well as numbers, which the
/// dictionary's numeric column alone cannot. (Aggregation reads numbers
/// from that column instead.) Direct-mapped and bounded at kSlots entries,
/// allocated on first use; a miss decodes through the dictionary exactly
/// as ExprEvaluator does and overwrites the slot. Not thread-safe: each
/// operator instance owns one.
class TermValueCache {
 public:
  explicit TermValueCache(const Dictionary* dict) : dict_(dict) {}

  /// The decoded value of a bound id (`id != kNullTermId`). The reference
  /// stays valid until the next Get().
  const Value& Get(TermId id);

 private:
  static constexpr size_t kSlots = 256;
  struct Entry {
    TermId id = kNullTermId;
    Value value;
  };

  const Dictionary* dict_;
  std::vector<Entry> entries_;
};

/// A FILTER/HAVING conjunct compiled to work on TermIds.
///
/// Grammar: `&&`, `||` and comparisons `?var OP constant` or
/// `constant OP ?var`, OP one of = != < <= > >=. `?v = <iri>` and
/// `?v != <iri>` compare the row's TermId against the IRI's id, looked up
/// once at compile time (an IRI absent from the dictionary equals no row).
/// Every other comparison decodes the row's id through a TermValueCache
/// and calls Value::Compare, the function ExprEvaluator uses. Verdicts
/// match ExprEvaluator::EvalBool exactly: an unbound variable or an
/// ordering between incomparable values is an error, and `&&`/`||`
/// short-circuit left to right with a left-side error propagating.
///
/// A compiled kernel is immutable and may be shared; the cache passed to
/// Eval() is the caller's.
class FilterKernel {
 public:
  enum class Verdict : uint8_t { kFalse, kTrue, kError };

  /// Compiles `expr`, resolving variables against `vars` and IRI
  /// constants against `dict`. Returns nullptr for any shape outside the
  /// grammar (arithmetic, functions, `!`, variable-vs-variable or
  /// constant-vs-constant comparisons, aggregates) and for variables
  /// absent from `vars`; those stay on ExprEvaluator.
  static std::unique_ptr<const FilterKernel> Compile(const Expr& expr,
                                                     const VariableTable& vars,
                                                     const Dictionary& dict);

  /// Evaluates the kernel on one row whose variable slot `s` is stored at
  /// `base[s * stride + row]`: a column-major RowBatch passes its column 0,
  /// its capacity and a physical row index; a Row passes its data, 1 and 0.
  /// The row must hold every slot of the `vars` table compiled against.
  Verdict Eval(const TermId* base, size_t stride, size_t row,
               TermValueCache* cache) const;

 private:
  struct Node {
    enum class Kind : uint8_t { kAnd, kOr, kIdEq, kIdNe, kCompare };
    Kind kind = Kind::kCompare;
    BinaryOp op = BinaryOp::kEq;  // kCompare
    bool var_on_left = true;      // kCompare: `?var OP constant`
    int slot = 0;                 // leaves: the variable's row slot
    TermId id = kNullTermId;      // kIdEq/kIdNe; kNullTermId = IRI absent
    Value constant;               // kCompare
    uint32_t lhs = 0, rhs = 0;    // kAnd/kOr: child node indices
  };

  FilterKernel() = default;
  /// Appends the node tree of `expr`; returns its index, or -1 when the
  /// shape is outside the grammar.
  int Build(const Expr& expr, const VariableTable& vars, const Dictionary& dict);
  Verdict EvalNode(uint32_t n, const TermId* base, size_t stride, size_t row,
                   TermValueCache* cache) const;

  std::vector<Node> nodes_;  // nodes_[0] is the root
};

}  // namespace sparql
}  // namespace sofos

#endif  // SOFOS_SPARQL_EXPRESSION_H_
