#ifndef SOFOS_SPARQL_AGGREGATE_H_
#define SOFOS_SPARQL_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sparql/value.h"

namespace sofos {
namespace sparql {

/// Running state of one aggregate over one group. A POD, so a group table
/// keeps every group's accumulators in one flat array.
///
/// COUNT, SUM and AVG use `count` (the values counted, AVG's denominator),
/// the integer and double parts of the sum and whether a double was added.
/// MIN and MAX keep the best value so far: a number in isum (kInteger) or
/// dsum (kDouble), so it is never decoded again, and any other value in
/// its AggFolder (kTerm), decoded once.
struct AggState {
  enum class Best : uint8_t { kNone, kInteger, kDouble, kTerm };
  uint64_t count = 0;
  int64_t isum = 0;
  double dsum = 0.0;
  bool saw_double = false;
  Best best_kind = Best::kNone;
  uint32_t best = 0;  // kTerm: the folder's slot
};

/// One bound, error-free aggregate argument value: its id when it comes
/// from a column (kNullTermId when computed), its numeric decode, and a
/// computed non-numeric value itself.
struct AggArg {
  TermId id = kNullTermId;
  TermNumber number;
  const Value* value = nullptr;
};

/// The accumulate and finalize rules of every aggregate kind. The batch
/// engine's AGGREGATE folds every argument path through one folder, and
/// the view maintainer folds a re-evaluated root group and its MIN/MAX
/// roll-ups through one, so maintained literals are what a view query
/// computes.
class AggFolder {
 public:
  explicit AggFolder(Dictionary* dict) : dict_(dict) {}

  /// The argument for a bound, error-free computed value. `value` must
  /// outlive the argument.
  static AggArg ArgOf(const Value& value);

  /// Folds `arg` into `state`. Every value counts, in AVG's denominator
  /// too; SUM and AVG add numbers and skip everything else; MIN and MAX
  /// keep the value Value::TotalCompare orders first (last). DISTINCT is
  /// the caller's: it folds only the first occurrence of each CanonicalId.
  void Accumulate(AggKind kind, const AggArg& arg, AggState* state) {
    ++state->count;
    switch (kind) {
      case AggKind::kCount:
        return;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (arg.number.kind == TermNumber::Kind::kInteger) {
          state->isum += arg.number.integer;
        } else if (arg.number.kind == TermNumber::Kind::kDouble) {
          state->saw_double = true;
          state->dsum += arg.number.real;
        }
        return;
      case AggKind::kMin:
      case AggKind::kMax:
        FoldBest(kind, arg, state);
        return;
    }
  }

  /// The interned id of the term `arg` encodes to (Value::ToTerm), which
  /// is what DISTINCT compares. Numbers go through InternInteger and
  /// InternDouble; TypeError when the value has no term.
  Result<TermId> CanonicalId(const AggArg& arg);

  /// The interned result of `state` (kNullTermId = unbound): COUNT as an
  /// integer; SUM as an integer unless a double was added (0 over no
  /// values); AVG as a double, unbound over no values; MIN/MAX as the
  /// canonical term of the best value, unbound when there is none.
  Result<TermId> Finalize(AggKind kind, const AggState& state);

 private:
  /// A kTerm MIN/MAX best: the decoded value, and its id when it came
  /// from a column (a computed value has none until Finalize interns the
  /// winner).
  struct Held {
    Value value;
    TermId id = kNullTermId;
  };

  void FoldBest(AggKind kind, const AggArg& arg, AggState* state);
  Value ValueOf(const AggArg& arg) const;
  /// Value::TotalCompare of `value` against `state`'s best (set).
  int CompareToBest(const Value& value, const AggState& state) const;

  Dictionary* dict_;
  std::vector<Held> held_;
};

}  // namespace sparql
}  // namespace sofos

#endif  // SOFOS_SPARQL_AGGREGATE_H_
