#include "rdf/term.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "rdf/dictionary.h"
#include "rdf/vocab.h"
#include "sparql/value.h"
#include "tests/test_util.h"

namespace sofos {
namespace {

TEST(TermTest, IriBasics) {
  Term t = Term::Iri("http://example.org/x");
  EXPECT_TRUE(t.is_iri());
  EXPECT_FALSE(t.is_literal());
  EXPECT_FALSE(t.is_blank());
  EXPECT_EQ(t.lexical(), "http://example.org/x");
  EXPECT_EQ(t.ToNTriples(), "<http://example.org/x>");
  EXPECT_EQ(t.datatype_iri(), "");
}

TEST(TermTest, BlankBasics) {
  Term t = Term::Blank("b0");
  EXPECT_TRUE(t.is_blank());
  EXPECT_EQ(t.ToNTriples(), "_:b0");
}

TEST(TermTest, StringLiteral) {
  Term t = Term::String("hello");
  EXPECT_TRUE(t.is_literal());
  EXPECT_EQ(t.datatype(), Term::Datatype::kString);
  EXPECT_EQ(t.ToNTriples(), "\"hello\"");
  EXPECT_EQ(t.datatype_iri(), std::string(vocab::kXsdString));
}

TEST(TermTest, StringLiteralEscaping) {
  Term t = Term::String("a\"b\nc");
  EXPECT_EQ(t.ToNTriples(), "\"a\\\"b\\nc\"");
}

TEST(TermTest, LangString) {
  Term t = Term::LangString("bonjour", "fr");
  EXPECT_EQ(t.datatype(), Term::Datatype::kLangString);
  EXPECT_EQ(t.lang(), "fr");
  EXPECT_EQ(t.ToNTriples(), "\"bonjour\"@fr");
}

TEST(TermTest, IntegerLiteral) {
  Term t = Term::Integer(-42);
  EXPECT_TRUE(t.is_numeric());
  EXPECT_EQ(t.lexical(), "-42");
  EXPECT_EQ(t.AsInt64().value(), -42);
  EXPECT_DOUBLE_EQ(t.AsDouble().value(), -42.0);
  EXPECT_EQ(t.ToNTriples(),
            "\"-42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(TermTest, DoubleLiteral) {
  Term t = Term::Double(2.5);
  EXPECT_TRUE(t.is_numeric());
  EXPECT_DOUBLE_EQ(t.AsDouble().value(), 2.5);
  EXPECT_EQ(t.AsInt64().value(), 2);
}

TEST(TermTest, DoubleLexicalRoundTrip) {
  for (double v : {0.0, -1.5, 3.141592653589793, 1e-9, 12345678.9}) {
    Term t = Term::Double(v);
    EXPECT_DOUBLE_EQ(t.AsDouble().value(), v) << t.lexical();
  }
}

TEST(TermTest, BooleanLiteral) {
  EXPECT_EQ(Term::Boolean(true).lexical(), "true");
  EXPECT_EQ(Term::Boolean(false).lexical(), "false");
  EXPECT_TRUE(Term::Boolean(true).AsBool().value());
  EXPECT_FALSE(Term::Boolean(false).AsBool().value());
}

TEST(TermTest, NumericAccessOnNonNumericFails) {
  EXPECT_FALSE(Term::String("x").AsDouble().ok());
  EXPECT_FALSE(Term::Iri("http://x").AsInt64().ok());
  EXPECT_FALSE(Term::Integer(1).AsBool().ok());
}

TEST(TermTest, TypedLiteralRecognizesNativeTypes) {
  SOFOS_ASSERT_OK_AND_ASSIGN(Term i, Term::TypedLiteral("17", vocab::kXsdInteger));
  EXPECT_EQ(i.datatype(), Term::Datatype::kInteger);
  EXPECT_EQ(i.AsInt64().value(), 17);

  SOFOS_ASSERT_OK_AND_ASSIGN(Term d, Term::TypedLiteral("1.5", vocab::kXsdDouble));
  EXPECT_EQ(d.datatype(), Term::Datatype::kDouble);

  SOFOS_ASSERT_OK_AND_ASSIGN(Term b, Term::TypedLiteral("true", vocab::kXsdBoolean));
  EXPECT_EQ(b.datatype(), Term::Datatype::kBoolean);

  SOFOS_ASSERT_OK_AND_ASSIGN(Term s, Term::TypedLiteral("x", vocab::kXsdString));
  EXPECT_EQ(s.datatype(), Term::Datatype::kString);
}

TEST(TermTest, TypedLiteralValidatesLexicalForms) {
  EXPECT_FALSE(Term::TypedLiteral("not-a-number", vocab::kXsdInteger).ok());
  EXPECT_FALSE(Term::TypedLiteral("1.5.2", vocab::kXsdDouble).ok());
  EXPECT_FALSE(Term::TypedLiteral("maybe", vocab::kXsdBoolean).ok());
}

TEST(TermTest, TypedLiteralKeepsUnknownDatatypes) {
  SOFOS_ASSERT_OK_AND_ASSIGN(
      Term t, Term::TypedLiteral("2021-03-11", "http://www.w3.org/2001/XMLSchema#date"));
  EXPECT_EQ(t.datatype(), Term::Datatype::kOther);
  EXPECT_EQ(t.datatype_iri(), "http://www.w3.org/2001/XMLSchema#date");
  EXPECT_EQ(t.ToNTriples(),
            "\"2021-03-11\"^^<http://www.w3.org/2001/XMLSchema#date>");
}

TEST(TermTest, EqualityDistinguishesKinds) {
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
  EXPECT_NE(Term::Iri("x"), Term::Blank("x"));
  EXPECT_NE(Term::Iri("x"), Term::String("x"));
  EXPECT_NE(Term::String("1"), Term::Integer(1));
  EXPECT_NE(Term::LangString("a", "en"), Term::LangString("a", "de"));
  EXPECT_EQ(Term::LangString("a", "en"), Term::LangString("a", "en"));
}

TEST(TermTest, HashConsistentWithEquality) {
  EXPECT_EQ(Term::Integer(5).Hash(), Term::Integer(5).Hash());
  EXPECT_NE(Term::Integer(5).Hash(), Term::String("5").Hash());
  EXPECT_NE(Term::Iri("a").Hash(), Term::Blank("a").Hash());
}

TEST(TermTest, TotalOrderIsStrict) {
  Term a = Term::Iri("a"), b = Term::Iri("b");
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
}

TEST(FormatDoubleLexicalTest, SpecialValues) {
  EXPECT_EQ(FormatDoubleLexical(1.0), "1");
  EXPECT_EQ(FormatDoubleLexical(-0.5), "-0.5");
}

// ------------------------------------------------------------ Dictionary

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern(Term::Iri("x"));
  TermId b = dict.Intern(Term::Iri("x"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(DictionaryTest, IdsStartAtOne) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern(Term::Iri("first")), 1u);
  EXPECT_EQ(dict.Intern(Term::Iri("second")), 2u);
}

TEST(DictionaryTest, RoundTrip) {
  Dictionary dict;
  Term original = Term::LangString("ciao", "it");
  TermId id = dict.Intern(original);
  EXPECT_EQ(dict.term(id), original);
}

TEST(DictionaryTest, LookupWithoutIntern) {
  Dictionary dict;
  dict.Intern(Term::Integer(1));
  EXPECT_TRUE(dict.Lookup(Term::Integer(1)).has_value());
  EXPECT_FALSE(dict.Lookup(Term::Integer(2)).has_value());
}

TEST(DictionaryTest, DistinguishesLiteralKinds) {
  Dictionary dict;
  TermId s = dict.Intern(Term::String("42"));
  TermId i = dict.Intern(Term::Integer(42));
  EXPECT_NE(s, i);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, ManyTermsStableIds) {
  Dictionary dict;
  std::vector<TermId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(dict.Intern(Term::Integer(i)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(dict.term(ids[static_cast<size_t>(i)]).AsInt64().value(), i);
  }
  EXPECT_GT(dict.MemoryBytes(), 0u);
}

// ---------------------------------------------------------------------------
// Numeric column and value-keyed intern.
// ---------------------------------------------------------------------------

/// Every term shape, the int64 extremes, -0, NaN, and a non-canonical
/// "1.50"^^xsd:double next to the canonical 1.5.
std::vector<Term> NumericInputs() {
  std::vector<Term> terms = testing::EveryTermShape();
  terms.push_back(Term::Integer(std::numeric_limits<int64_t>::min()));
  terms.push_back(Term::Integer(std::numeric_limits<int64_t>::max()));
  terms.push_back(Term::Double(-0.0));
  terms.push_back(Term::Double(std::numeric_limits<double>::quiet_NaN()));
  terms.push_back(Term::TypedLiteral("1.50", vocab::kXsdDouble).value());
  terms.push_back(Term::Double(1.5));
  return terms;
}

/// Numbers() decodes every id of `terms` exactly as Value::FromTerm does,
/// and the null id and ids past the end as no number.
void ExpectNumbersMatchValues(const Dictionary& dict,
                              const std::vector<Term>& terms,
                              const std::string& context) {
  std::vector<TermId> ids;
  for (const Term& t : terms) ids.push_back(dict.Lookup(t).value());
  ids.push_back(kNullTermId);
  ids.push_back(static_cast<TermId>(dict.size() + 1));
  std::vector<TermNumber> numbers(ids.size());
  dict.Numbers(ids.data(), ids.size(), numbers.data());
  for (size_t i = 0; i < terms.size(); ++i) {
    const sparql::Value value = sparql::Value::FromTerm(terms[i]);
    const TermNumber& n = numbers[i];
    const std::string where = context + ": " + terms[i].ToNTriples();
    switch (value.type()) {
      case sparql::Value::Type::kInt:
        ASSERT_EQ(n.kind, TermNumber::Kind::kInteger) << where;
        EXPECT_EQ(n.integer, value.int_value()) << where;
        break;
      case sparql::Value::Type::kDouble:
        ASSERT_EQ(n.kind, TermNumber::Kind::kDouble) << where;
        if (std::isnan(value.double_value())) {
          EXPECT_TRUE(std::isnan(n.real)) << where;
        } else {
          EXPECT_EQ(n.real, value.double_value()) << where;
          EXPECT_EQ(std::signbit(n.real), std::signbit(value.double_value()))
              << where;
        }
        break;
      default:
        EXPECT_EQ(n.kind, TermNumber::Kind::kNone) << where;
    }
  }
  EXPECT_EQ(numbers[terms.size()].kind, TermNumber::Kind::kNone) << context;
  EXPECT_EQ(numbers[terms.size() + 1].kind, TermNumber::Kind::kNone)
      << context;
}

/// InternInteger/InternDouble return what Intern(Term::Integer/Double)
/// returns, for values the dictionary holds and for values it lacks (which
/// they add, once). `phase` picks absent values no earlier phase added.
void ExpectValueInternMatchesIntern(Dictionary* dict, int phase,
                                    const std::string& context) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<int64_t> integers = {std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max(),
                                   -100, 0, 42, 99,
                                   1000000 + phase, -1000000 - phase};
  std::vector<double> doubles = {-0.0, 0.0, nan, -nan, 1.5, -20.0, 24.25,
                                 0.1 * (phase + 1), 1e300 * (phase + 1),
                                 std::numeric_limits<double>::infinity()};
  for (int64_t v : integers) {
    const Term term = Term::Integer(v);
    const bool present = dict->Lookup(term).has_value();
    const size_t before = dict->size();
    const TermId id = dict->InternInteger(v);
    EXPECT_EQ(dict->size(), before + (present ? 0 : 1)) << context << " " << v;
    EXPECT_EQ(id, dict->Intern(term)) << context << " " << v;
    EXPECT_EQ(dict->term(id), term) << context << " " << v;
  }
  for (double v : doubles) {
    const Term term = Term::Double(v);
    const bool present = dict->Lookup(term).has_value();
    const size_t before = dict->size();
    const TermId id = dict->InternDouble(v);
    EXPECT_EQ(dict->size(), before + (present ? 0 : 1))
        << context << " " << term.lexical();
    EXPECT_EQ(id, dict->Intern(term)) << context << " " << term.lexical();
    EXPECT_EQ(dict->term(id), term) << context << " " << term.lexical();
  }
}

TEST(DictionaryTest, NumbersAndValueInternMatchTermsInEveryMode) {
  const std::vector<Term> inputs = NumericInputs();
  int phase = 0;
  auto check = [&](Dictionary* dict, const std::string& context) {
    ExpectNumbersMatchValues(*dict, inputs, context);
    ExpectValueInternMatchesIntern(dict, phase++, context);
    ExpectNumbersMatchValues(*dict, inputs, context + " after interning");
  };

  Dictionary plain;
  for (const Term& t : inputs) plain.Intern(t);
  check(&plain, "plain");
  plain.SetFrontCoding(true);
  check(&plain, "plain -> front-coded");
  plain.SetFrontCoding(false);
  check(&plain, "front-coded -> plain");

  Dictionary coded;
  coded.SetFrontCoding(true);
  for (const Term& t : inputs) coded.Intern(t);
  check(&coded, "front-coded");
  coded.SetFrontCoding(false);
  check(&coded, "front-coded -> plain");
  coded.SetFrontCoding(true);
  check(&coded, "plain -> front-coded");

  Dictionary moved(std::move(coded));
  check(&moved, "moved");
}

TEST(DictionaryTest, NonCanonicalDoubleIsNotTheCanonicalOne) {
  // "1.50" decodes to 1.5 but is not Term::Double(1.5): the value-keyed
  // intern must add "1.5" beside it rather than return it.
  Dictionary dict;
  const TermId written =
      dict.Intern(Term::TypedLiteral("1.50", vocab::kXsdDouble).value());
  TermNumber number;
  dict.Numbers(&written, 1, &number);
  EXPECT_EQ(number.kind, TermNumber::Kind::kDouble);
  EXPECT_EQ(number.real, 1.5);
  const TermId canonical = dict.InternDouble(1.5);
  EXPECT_NE(canonical, written);
  EXPECT_EQ(dict.term(canonical), Term::Double(1.5));
  EXPECT_EQ(dict.InternDouble(1.5), canonical);
  EXPECT_EQ(dict.size(), 2u);
}

}  // namespace
}  // namespace sofos
