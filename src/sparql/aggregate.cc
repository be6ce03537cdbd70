#include "sparql/aggregate.h"

#include <utility>

namespace sofos {
namespace sparql {

AggArg AggFolder::ArgOf(const Value& value) {
  AggArg arg;
  if (value.type() == Value::Type::kInt) {
    arg.number.kind = TermNumber::Kind::kInteger;
    arg.number.integer = value.int_value();
  } else if (value.type() == Value::Type::kDouble) {
    arg.number.kind = TermNumber::Kind::kDouble;
    arg.number.real = value.double_value();
  } else {
    arg.value = &value;
  }
  return arg;
}

Value AggFolder::ValueOf(const AggArg& arg) const {
  switch (arg.number.kind) {
    case TermNumber::Kind::kInteger:
      return Value::Int(arg.number.integer);
    case TermNumber::Kind::kDouble:
      return Value::MakeDouble(arg.number.real);
    case TermNumber::Kind::kNone:
      break;
  }
  return arg.value != nullptr ? *arg.value
                              : Value::FromTerm(dict_->term(arg.id));
}

int AggFolder::CompareToBest(const Value& value, const AggState& state) const {
  switch (state.best_kind) {
    case AggState::Best::kInteger:
      return value.TotalCompare(Value::Int(state.isum));
    case AggState::Best::kDouble:
      return value.TotalCompare(Value::MakeDouble(state.dsum));
    case AggState::Best::kTerm:
      return value.TotalCompare(held_[state.best].value);
    case AggState::Best::kNone:
      break;
  }
  return 0;
}

void AggFolder::FoldBest(AggKind kind, const AggArg& arg, AggState* state) {
  Held* held =
      state->best_kind == AggState::Best::kTerm ? &held_[state->best] : nullptr;
  // The best term again ties with itself: nothing to decode.
  if (held != nullptr && arg.id != kNullTermId && arg.id == held->id) return;
  Value value = ValueOf(arg);
  if (state->best_kind != AggState::Best::kNone) {
    const int c = CompareToBest(value, *state);
    if (kind == AggKind::kMin ? c >= 0 : c <= 0) return;
  }
  switch (arg.number.kind) {
    case TermNumber::Kind::kInteger:
      state->best_kind = AggState::Best::kInteger;
      state->isum = arg.number.integer;
      return;
    case TermNumber::Kind::kDouble:
      state->best_kind = AggState::Best::kDouble;
      state->dsum = arg.number.real;
      return;
    case TermNumber::Kind::kNone:
      break;
  }
  if (held == nullptr) {
    state->best_kind = AggState::Best::kTerm;
    state->best = static_cast<uint32_t>(held_.size());
    held = &held_.emplace_back();
  }
  held->value = std::move(value);
  held->id = arg.id;
}

Result<TermId> AggFolder::CanonicalId(const AggArg& arg) {
  switch (arg.number.kind) {
    case TermNumber::Kind::kInteger:
      return dict_->InternInteger(arg.number.integer);
    case TermNumber::Kind::kDouble:
      return dict_->InternDouble(arg.number.real);
    case TermNumber::Kind::kNone:
      break;
  }
  SOFOS_ASSIGN_OR_RETURN(Term term, ValueOf(arg).ToTerm());
  return dict_->Intern(term);
}

Result<TermId> AggFolder::Finalize(AggKind kind, const AggState& state) {
  switch (kind) {
    case AggKind::kCount:
      return dict_->InternInteger(static_cast<int64_t>(state.count));
    case AggKind::kSum:
      if (state.saw_double) {
        return dict_->InternDouble(state.dsum + static_cast<double>(state.isum));
      }
      return dict_->InternInteger(state.isum);
    case AggKind::kAvg:
      if (state.count == 0) return kNullTermId;
      return dict_->InternDouble((state.dsum + static_cast<double>(state.isum)) /
                                 static_cast<double>(state.count));
    case AggKind::kMin:
    case AggKind::kMax:
      break;
  }
  switch (state.best_kind) {
    case AggState::Best::kNone:
      return kNullTermId;
    case AggState::Best::kInteger:
      return dict_->InternInteger(state.isum);
    case AggState::Best::kDouble:
      return dict_->InternDouble(state.dsum);
    case AggState::Best::kTerm:
      break;
  }
  SOFOS_ASSIGN_OR_RETURN(Term term, held_[state.best].value.ToTerm());
  return dict_->Intern(term);
}

}  // namespace sparql
}  // namespace sofos
