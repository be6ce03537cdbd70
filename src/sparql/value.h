#ifndef SOFOS_SPARQL_VALUE_H_
#define SOFOS_SPARQL_VALUE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "rdf/term.h"

namespace sofos {
namespace sparql {

/// Runtime value produced by expression evaluation. Distinct from Term:
/// numerics are decoded, and an explicit unbound state exists.
class Value {
 public:
  enum class Type {
    kUnbound = 0,
    kBool,
    kInt,
    kDouble,
    kString,  // plain or language-tagged literal
    kIri,
    kBlank,
    kOpaque,  // literal with an unrecognized datatype
  };

  Value() : type_(Type::kUnbound) {}

  static Value Unbound() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value MakeDouble(double d);
  static Value String(std::string s, std::string lang = "");
  static Value Iri(std::string iri);
  static Value Blank(std::string label);

  /// Decodes an RDF term into a runtime value. Malformed numeric lexical
  /// forms decay to kOpaque (they cannot occur for terms built through the
  /// Term factories, only for hostile input).
  static Value FromTerm(const Term& term);

  /// Encodes the value back into an RDF term; TypeError for kUnbound.
  Result<Term> ToTerm() const;

  Type type() const { return type_; }
  bool is_unbound() const { return type_ == Type::kUnbound; }
  bool is_numeric() const { return type_ == Type::kInt || type_ == Type::kDouble; }

  bool bool_value() const { return bool_; }
  int64_t int_value() const { return int_; }
  double double_value() const { return type_ == Type::kInt ? static_cast<double>(int_) : double_; }
  const std::string& string_value() const { return str_; }
  const std::string& lang() const { return lang_; }

  /// SPARQL effective boolean value; TypeError for IRIs/blanks/unbound.
  Result<bool> EffectiveBool() const;

  /// SPARQL operator comparison (<, =, ...): -1/0/+1. TypeError when the
  /// operands are not comparable (e.g. number vs IRI with an ordering op).
  /// Equality between incomparable types is fine and returns "not equal"
  /// through the `equality_only` path.
  Result<int> Compare(const Value& other, bool equality_only) const;

  /// Total deterministic order across all types (unbound < blank < iri <
  /// bool < numeric < string < opaque); never errors. Used by ORDER BY,
  /// MIN/MAX, and canonical result sorting. Numbers compare exactly (two
  /// integers as integers, an integer against a double without rounding);
  /// an integer sorts before an equal double, -0 before 0, and NaN after
  /// every other number. Two values compare 0 only when they encode to the
  /// same term, so MIN/MAX depend on the multiset of values alone, not on
  /// their arrival order.
  int TotalCompare(const Value& other) const;

  /// Human-readable form for diagnostics.
  std::string ToString() const;

 private:
  /// TotalCompare for two numeric values.
  int TotalCompareNumeric(const Value& other) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;   // string/iri/blank lexical, opaque lexical
  std::string lang_;  // language tag or opaque datatype IRI
};

}  // namespace sparql
}  // namespace sofos

#endif  // SOFOS_SPARQL_VALUE_H_
