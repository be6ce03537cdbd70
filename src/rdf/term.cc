#include "rdf/term.h"

#include <cmath>
#include <cstdio>

#include "common/hash.h"
#include "common/string_util.h"
#include "rdf/vocab.h"

namespace sofos {

std::string FormatDoubleLexical(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "INF" : "-INF";
  // Shortest representation that round-trips a double.
  for (int precision = 1; precision <= 17; ++precision) {
    std::string candidate = StrFormat("%.*g", precision, value);
    double parsed = 0.0;
    if (std::sscanf(candidate.c_str(), "%lf", &parsed) == 1 && parsed == value) {
      return candidate;
    }
  }
  return StrFormat("%.17g", value);
}

Term Term::Iri(std::string iri) {
  Term t;
  t.kind_ = Kind::kIri;
  t.datatype_ = Datatype::kNone;
  t.lexical_ = std::move(iri);
  return t;
}

Term Term::Blank(std::string label) {
  Term t;
  t.kind_ = Kind::kBlank;
  t.datatype_ = Datatype::kNone;
  t.lexical_ = std::move(label);
  return t;
}

Term Term::String(std::string value) {
  Term t;
  t.kind_ = Kind::kLiteral;
  t.datatype_ = Datatype::kString;
  t.lexical_ = std::move(value);
  return t;
}

Term Term::LangString(std::string value, std::string lang) {
  Term t;
  t.kind_ = Kind::kLiteral;
  t.datatype_ = Datatype::kLangString;
  t.lexical_ = std::move(value);
  t.extra_ = std::move(lang);
  return t;
}

Term Term::Integer(int64_t value) {
  Term t;
  t.kind_ = Kind::kLiteral;
  t.datatype_ = Datatype::kInteger;
  t.lexical_ = std::to_string(value);
  return t;
}

Term Term::Double(double value) {
  Term t;
  t.kind_ = Kind::kLiteral;
  t.datatype_ = Datatype::kDouble;
  t.lexical_ = FormatDoubleLexical(value);
  return t;
}

Term Term::Boolean(bool value) {
  Term t;
  t.kind_ = Kind::kLiteral;
  t.datatype_ = Datatype::kBoolean;
  t.lexical_ = value ? "true" : "false";
  return t;
}

Result<Term> Term::TypedLiteral(std::string lexical, std::string_view datatype_iri) {
  if (datatype_iri == vocab::kXsdString) return Term::String(std::move(lexical));
  if (datatype_iri == vocab::kXsdInteger ||
      datatype_iri == std::string(vocab::kXsdNs) + "long" ||
      datatype_iri == std::string(vocab::kXsdNs) + "int") {
    SOFOS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(lexical));
    return Term::Integer(v);
  }
  if (datatype_iri == vocab::kXsdDouble ||
      datatype_iri == std::string(vocab::kXsdNs) + "decimal" ||
      datatype_iri == std::string(vocab::kXsdNs) + "float") {
    SOFOS_ASSIGN_OR_RETURN(double v, ParseDouble(lexical));
    Term t;
    t.kind_ = Kind::kLiteral;
    t.datatype_ = Datatype::kDouble;
    t.lexical_ = std::move(lexical);  // keep the author's lexical form
    (void)v;
    return t;
  }
  if (datatype_iri == vocab::kXsdBoolean) {
    if (lexical != "true" && lexical != "false" && lexical != "0" && lexical != "1") {
      return Status::ParseError("malformed xsd:boolean literal: '" + lexical + "'");
    }
    return Term::Boolean(lexical == "true" || lexical == "1");
  }
  Term t;
  t.kind_ = Kind::kLiteral;
  t.datatype_ = Datatype::kOther;
  t.lexical_ = std::move(lexical);
  t.extra_ = std::string(datatype_iri);
  return t;
}

Term Term::FromRaw(Kind kind, Datatype datatype, std::string lexical,
                   std::string extra) {
  Term t;
  t.kind_ = kind;
  t.datatype_ = datatype;
  t.lexical_ = std::move(lexical);
  t.extra_ = std::move(extra);
  return t;
}

std::string Term::datatype_iri() const {
  switch (datatype_) {
    case Datatype::kNone:
      return "";
    case Datatype::kString:
      return std::string(vocab::kXsdString);
    case Datatype::kLangString:
      return std::string(vocab::kRdfLangString);
    case Datatype::kInteger:
      return std::string(vocab::kXsdInteger);
    case Datatype::kDouble:
      return std::string(vocab::kXsdDouble);
    case Datatype::kBoolean:
      return std::string(vocab::kXsdBoolean);
    case Datatype::kOther:
      return extra_;
  }
  return "";
}

Result<int64_t> Term::AsInt64() const {
  if (datatype_ == Datatype::kInteger) return ParseInt64(lexical_);
  if (datatype_ == Datatype::kDouble) {
    SOFOS_ASSIGN_OR_RETURN(double v, ParseDouble(lexical_));
    return static_cast<int64_t>(v);
  }
  return Status::TypeError("term is not numeric: " + ToNTriples());
}

Result<double> Term::AsDouble() const {
  if (!is_numeric()) return Status::TypeError("term is not numeric: " + ToNTriples());
  return ParseDouble(lexical_);
}

Result<bool> Term::AsBool() const {
  if (datatype_ != Datatype::kBoolean) {
    return Status::TypeError("term is not boolean: " + ToNTriples());
  }
  return lexical_ == "true" || lexical_ == "1";
}

std::string Term::ToNTriples() const {
  switch (kind_) {
    case Kind::kIri:
      return "<" + lexical_ + ">";
    case Kind::kBlank:
      return "_:" + lexical_;
    case Kind::kLiteral:
      break;
  }
  std::string out = "\"" + EscapeTurtleString(lexical_) + "\"";
  switch (datatype_) {
    case Datatype::kString:
      break;  // plain literal
    case Datatype::kLangString:
      out += "@" + extra_;
      break;
    default:
      out += "^^<" + datatype_iri() + ">";
  }
  return out;
}

bool Term::operator<(const Term& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_;
  if (datatype_ != other.datatype_) return datatype_ < other.datatype_;
  if (lexical_ != other.lexical_) return lexical_ < other.lexical_;
  return extra_ < other.extra_;
}

TermNumber DecodeNumber(const Term& term) {
  TermNumber out;
  if (!term.is_literal()) return out;
  if (term.datatype() == Term::Datatype::kInteger) {
    auto i = term.AsInt64();
    if (i.ok()) {
      out.kind = TermNumber::Kind::kInteger;
      out.integer = i.value();
    }
  } else if (term.datatype() == Term::Datatype::kDouble) {
    auto d = term.AsDouble();
    if (d.ok()) {
      out.kind = TermNumber::Kind::kDouble;
      out.real = d.value();
    }
  }
  return out;
}

uint64_t Term::Hash() const {
  uint64_t h = Fnv1a64(lexical_);
  h = HashCombine(h, static_cast<uint64_t>(kind_));
  h = HashCombine(h, static_cast<uint64_t>(datatype_));
  if (!extra_.empty()) h = HashCombine(h, Fnv1a64(extra_));
  return h;
}

}  // namespace sofos
