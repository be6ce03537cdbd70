#ifndef SOFOS_RDF_TERM_H_
#define SOFOS_RDF_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace sofos {

/// An RDF term: IRI, blank node, or literal (paper §3: a knowledge graph is
/// a set of triples over (I ∪ B) × I × (I ∪ B ∪ L)).
///
/// Literal values keep their lexical form plus a datatype tag. The common
/// XSD datatypes (string, integer, double, boolean) are represented natively
/// so that SPARQL expression evaluation and aggregation can interpret them;
/// any other datatype IRI is preserved verbatim (`Datatype::kOther`).
class Term {
 public:
  enum class Kind : uint8_t { kIri = 0, kBlank = 1, kLiteral = 2 };

  enum class Datatype : uint8_t {
    kNone = 0,        // not a literal
    kString = 1,      // xsd:string
    kLangString = 2,  // rdf:langString (language-tagged)
    kInteger = 3,     // xsd:integer
    kDouble = 4,      // xsd:double (also used for xsd:decimal / xsd:float)
    kBoolean = 5,     // xsd:boolean
    kOther = 6,       // any other datatype IRI (kept in extra_)
  };

  /// Default-constructed terms are the empty IRI; only used as placeholders.
  Term() : kind_(Kind::kIri), datatype_(Datatype::kNone) {}

  static Term Iri(std::string iri);
  static Term Blank(std::string label);
  static Term String(std::string value);
  static Term LangString(std::string value, std::string lang);
  static Term Integer(int64_t value);
  static Term Double(double value);
  static Term Boolean(bool value);
  /// A literal with an explicit datatype IRI; recognizes the native XSD
  /// types and validates their lexical forms (returns ParseError otherwise).
  static Result<Term> TypedLiteral(std::string lexical, std::string_view datatype_iri);

  /// Reassembles a term from its four raw storage fields without any
  /// normalization or validation. Only for storage layers (the dictionary's
  /// packed encoding) that decode fields previously taken from a real Term:
  /// the round trip is byte-identical by construction, which the named
  /// constructors above (which normalize lexical forms) cannot guarantee.
  static Term FromRaw(Kind kind, Datatype datatype, std::string lexical,
                      std::string extra);

  Kind kind() const { return kind_; }
  Datatype datatype() const { return datatype_; }

  bool is_iri() const { return kind_ == Kind::kIri; }
  bool is_blank() const { return kind_ == Kind::kBlank; }
  bool is_literal() const { return kind_ == Kind::kLiteral; }
  bool is_numeric() const {
    return datatype_ == Datatype::kInteger || datatype_ == Datatype::kDouble;
  }

  /// IRI string, blank node label, or literal lexical form.
  const std::string& lexical() const { return lexical_; }

  /// Language tag for kLangString literals, empty otherwise.
  const std::string& lang() const {
    static const std::string kEmpty;
    return datatype_ == Datatype::kLangString ? extra_ : kEmpty;
  }

  /// Full datatype IRI for literals (resolving the native tags); empty for
  /// IRIs and blank nodes.
  std::string datatype_iri() const;

  /// The raw auxiliary string exactly as stored: the language tag for
  /// kLangString, the datatype IRI for kOther, empty otherwise. Paired with
  /// FromRaw() for byte-identical round trips through packed storage.
  const std::string& raw_extra() const { return extra_; }

  /// Numeric access; TypeError for non-numeric terms.
  Result<int64_t> AsInt64() const;
  Result<double> AsDouble() const;
  Result<bool> AsBool() const;

  /// N-Triples serialization: <iri>, _:label, "lit"^^<dt> / "lit"@lang.
  std::string ToNTriples() const;

  /// Identity comparison (same kind, lexical, datatype, lang).
  bool operator==(const Term& other) const {
    return kind_ == other.kind_ && datatype_ == other.datatype_ &&
           lexical_ == other.lexical_ && extra_ == other.extra_;
  }
  bool operator!=(const Term& other) const { return !(*this == other); }

  /// Deterministic total order (kind, datatype, lexical, extra); used for
  /// canonical output ordering, not for SPARQL value comparison.
  bool operator<(const Term& other) const;

  uint64_t Hash() const;

 private:
  Kind kind_;
  Datatype datatype_;
  std::string lexical_;
  std::string extra_;  // lang tag (kLangString) or datatype IRI (kOther)
};

struct TermHash {
  size_t operator()(const Term& t) const { return static_cast<size_t>(t.Hash()); }
};

/// The number a term stands for in SPARQL evaluation: none, an int64 or a
/// double. `integer` is valid for kInteger, `real` for kDouble.
struct TermNumber {
  enum class Kind : uint8_t { kNone = 0, kInteger = 1, kDouble = 2 };
  Kind kind = Kind::kNone;
  int64_t integer = 0;
  double real = 0.0;
};

/// Decodes `term` as sparql::Value::FromTerm does: an xsd:integer literal
/// through AsInt64, an xsd:double literal through AsDouble; anything else,
/// including a malformed numeric literal ("12abc"^^xsd:integer), is kNone.
TermNumber DecodeNumber(const Term& term);

/// Canonical lexical form for doubles: shortest round-trip representation.
std::string FormatDoubleLexical(double value);

}  // namespace sofos

#endif  // SOFOS_RDF_TERM_H_
