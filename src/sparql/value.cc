#include "sparql/value.h"

#include <cmath>

#include "common/string_util.h"

namespace sofos {
namespace sparql {

Value Value::Bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.type_ = Type::kInt;
  v.int_ = i;
  return v;
}

Value Value::MakeDouble(double d) {
  Value v;
  v.type_ = Type::kDouble;
  v.double_ = d;
  return v;
}

Value Value::String(std::string s, std::string lang) {
  Value v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  v.lang_ = std::move(lang);
  return v;
}

Value Value::Iri(std::string iri) {
  Value v;
  v.type_ = Type::kIri;
  v.str_ = std::move(iri);
  return v;
}

Value Value::Blank(std::string label) {
  Value v;
  v.type_ = Type::kBlank;
  v.str_ = std::move(label);
  return v;
}

Value Value::FromTerm(const Term& term) {
  switch (term.kind()) {
    case Term::Kind::kIri:
      return Iri(term.lexical());
    case Term::Kind::kBlank:
      return Blank(term.lexical());
    case Term::Kind::kLiteral:
      break;
  }
  const TermNumber number = DecodeNumber(term);
  if (number.kind == TermNumber::Kind::kInteger) return Int(number.integer);
  if (number.kind == TermNumber::Kind::kDouble) return MakeDouble(number.real);
  switch (term.datatype()) {
    case Term::Datatype::kString:
      return String(term.lexical());
    case Term::Datatype::kLangString:
      return String(term.lexical(), term.lang());
    case Term::Datatype::kBoolean: {
      auto b = term.AsBool();
      if (b.ok()) return Bool(b.value());
      break;
    }
    default:
      break;
  }
  Value v;
  v.type_ = Type::kOpaque;
  v.str_ = term.lexical();
  v.lang_ = term.datatype_iri();
  return v;
}

Result<Term> Value::ToTerm() const {
  switch (type_) {
    case Type::kUnbound:
      return Status::TypeError("cannot convert unbound value to a term");
    case Type::kBool:
      return Term::Boolean(bool_);
    case Type::kInt:
      return Term::Integer(int_);
    case Type::kDouble:
      return Term::Double(double_);
    case Type::kString:
      return lang_.empty() ? Term::String(str_) : Term::LangString(str_, lang_);
    case Type::kIri:
      return Term::Iri(str_);
    case Type::kBlank:
      return Term::Blank(str_);
    case Type::kOpaque:
      return Term::TypedLiteral(str_, lang_);
  }
  return Status::Internal("corrupt value");
}

Result<bool> Value::EffectiveBool() const {
  switch (type_) {
    case Type::kBool:
      return bool_;
    case Type::kInt:
      return int_ != 0;
    case Type::kDouble:
      return double_ != 0.0 && !std::isnan(double_);
    case Type::kString:
      return !str_.empty();
    default:
      return Status::TypeError("no effective boolean value for " + ToString());
  }
}

namespace {
int Sign(int64_t v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }
int SignD(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// Exact order of an integer against a non-NaN double: -1/0/+1. Converting
/// the integer to double would round beyond 2^53 and call distinct values
/// equal.
int CompareIntDouble(int64_t i, double d) {
  // 2^63 is exact in a double: every double at or above it exceeds any
  // int64, every double below -2^63 is below any int64, and in between
  // the truncated double converts to int64 without loss.
  if (d >= 9223372036854775808.0) return -1;
  if (d < -9223372036854775808.0) return 1;
  const double whole = std::trunc(d);
  const int64_t whole_int = static_cast<int64_t>(whole);
  if (i != whole_int) return i < whole_int ? -1 : 1;
  const double frac = d - whole;
  return frac > 0 ? -1 : (frac < 0 ? 1 : 0);
}
}  // namespace

Result<int> Value::Compare(const Value& other, bool equality_only) const {
  if (is_unbound() || other.is_unbound()) {
    return Status::TypeError("comparison with unbound value");
  }
  if (is_numeric() && other.is_numeric()) {
    if (type_ == Type::kInt && other.type_ == Type::kInt) {
      return Sign((int_ > other.int_) - (int_ < other.int_));
    }
    return SignD(double_value(), other.double_value());
  }
  if (type_ == Type::kString && other.type_ == Type::kString) {
    int c = str_.compare(other.str_);
    if (c != 0) return c < 0 ? -1 : 1;
    int lc = lang_.compare(other.lang_);
    return lc < 0 ? -1 : (lc > 0 ? 1 : 0);
  }
  if (type_ == Type::kBool && other.type_ == Type::kBool) {
    return static_cast<int>(bool_) - static_cast<int>(other.bool_);
  }
  if ((type_ == Type::kIri && other.type_ == Type::kIri) ||
      (type_ == Type::kBlank && other.type_ == Type::kBlank)) {
    if (equality_only) return str_ == other.str_ ? 0 : 1;
    int c = str_.compare(other.str_);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (equality_only) return 1;  // incomparable types are simply "not equal"
  return Status::TypeError("cannot order " + ToString() + " against " +
                           other.ToString());
}

int Value::TotalCompare(const Value& other) const {
  auto rank = [](const Value& v) {
    switch (v.type_) {
      case Type::kUnbound:
        return 0;
      case Type::kBlank:
        return 1;
      case Type::kIri:
        return 2;
      case Type::kBool:
        return 3;
      case Type::kInt:
      case Type::kDouble:
        return 4;
      case Type::kString:
        return 5;
      case Type::kOpaque:
        return 6;
    }
    return 7;
  };
  int ra = rank(*this), rb = rank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type_) {
    case Type::kUnbound:
      return 0;
    case Type::kBool:
      return static_cast<int>(bool_) - static_cast<int>(other.bool_);
    case Type::kInt:
    case Type::kDouble:
      return TotalCompareNumeric(other);
    default: {
      int c = str_.compare(other.str_);
      if (c != 0) return c < 0 ? -1 : 1;
      int lc = lang_.compare(other.lang_);
      return lc < 0 ? -1 : (lc > 0 ? 1 : 0);
    }
  }
}

int Value::TotalCompareNumeric(const Value& other) const {
  const bool a_int = type_ == Type::kInt;
  const bool b_int = other.type_ == Type::kInt;
  if (a_int && b_int) return Sign((int_ > other.int_) - (int_ < other.int_));
  // NaN sorts after every other number (and equal to itself: every NaN
  // encodes to the same "NaN" literal).
  const bool a_nan = !a_int && std::isnan(double_);
  const bool b_nan = !b_int && std::isnan(other.double_);
  if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
  // Equal numbers of different types are distinct terms: the integer
  // sorts first, so MIN/MAX never depend on which one arrives first.
  if (a_int) {
    const int c = CompareIntDouble(int_, other.double_);
    return c != 0 ? c : -1;
  }
  if (b_int) {
    const int c = CompareIntDouble(other.int_, double_);
    return c != 0 ? -c : 1;
  }
  if (double_ != other.double_) return double_ < other.double_ ? -1 : 1;
  // -0 and 0 compare equal but encode as distinct literals ("-0", "0").
  const bool a_neg = std::signbit(double_);
  const bool b_neg = std::signbit(other.double_);
  return a_neg == b_neg ? 0 : (a_neg ? -1 : 1);
}

std::string Value::ToString() const {
  switch (type_) {
    case Type::kUnbound:
      return "UNBOUND";
    case Type::kBool:
      return bool_ ? "true" : "false";
    case Type::kInt:
      return std::to_string(int_);
    case Type::kDouble:
      return FormatDoubleLexical(double_);
    case Type::kString:
      return "\"" + str_ + (lang_.empty() ? "\"" : "\"@" + lang_);
    case Type::kIri:
      return "<" + str_ + ">";
    case Type::kBlank:
      return "_:" + str_;
    case Type::kOpaque:
      return "\"" + str_ + "\"^^<" + lang_ + ">";
  }
  return "?";
}

}  // namespace sparql
}  // namespace sofos
