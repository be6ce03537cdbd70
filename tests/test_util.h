#ifndef SOFOS_TESTS_TEST_UTIL_H_
#define SOFOS_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "rdf/triple_store.h"
#include "sparql/query_engine.h"

namespace sofos {
namespace testing {

/// gtest helpers for Status/Result.
#define SOFOS_ASSERT_OK(expr)                                     \
  do {                                                            \
    const ::sofos::Status _st = (expr);                           \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                      \
  } while (0)

#define SOFOS_EXPECT_OK(expr)                                     \
  do {                                                            \
    const ::sofos::Status _st = (expr);                           \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                      \
  } while (0)

/// Asserts a Result is OK and moves its value into `lhs`.
#define SOFOS_ASSERT_OK_AND_ASSIGN(lhs, rexpr)                    \
  auto SOFOS_TEST_CONCAT_(_res_, __LINE__) = (rexpr);             \
  ASSERT_TRUE(SOFOS_TEST_CONCAT_(_res_, __LINE__).ok())           \
      << SOFOS_TEST_CONCAT_(_res_, __LINE__).status().ToString(); \
  lhs = std::move(SOFOS_TEST_CONCAT_(_res_, __LINE__)).value()

#define SOFOS_TEST_CONCAT_(a, b) SOFOS_TEST_CONCAT_IMPL_(a, b)
#define SOFOS_TEST_CONCAT_IMPL_(a, b) a##b

/// One term of every shape the engine tells apart, 342 in all (more than a
/// TermValueCache holds): IRIs (the first 8 of them lead the list), blank
/// nodes, integers, doubles, booleans, plain and language-tagged strings,
/// a literal of an unknown datatype and a malformed xsd:integer.
inline std::vector<Term> EveryTermShape() {
  std::vector<Term> terms;
  for (int i = 0; i < 40; ++i) {
    terms.push_back(Term::Iri("http://ex/r" + std::to_string(i)));
  }
  for (int i = 0; i < 20; ++i) terms.push_back(Term::Blank("b" + std::to_string(i)));
  for (int i = -100; i < 100; ++i) terms.push_back(Term::Integer(i));
  for (int i = 0; i < 60; ++i) terms.push_back(Term::Double(i * 0.75 - 20.0));
  terms.push_back(Term::Boolean(true));
  terms.push_back(Term::Boolean(false));
  for (const char* s : {"", "a", "abc", "b", "zz", "10"}) {
    terms.push_back(Term::String(s));
    terms.push_back(Term::LangString(s, "en"));
    terms.push_back(Term::LangString(s, "fr"));
  }
  terms.push_back(Term::TypedLiteral("x1", "http://ex/dt").value());
  terms.push_back(
      Term::FromRaw(Term::Kind::kLiteral, Term::Datatype::kInteger, "12abc", ""));
  return terms;
}

/// Builds the paper's Figure 1 knowledge graph: countries with names,
/// populations (per year), languages, and continent membership.
inline void BuildFigure1Graph(TripleStore* store) {
  auto iri = [](const std::string& s) {
    return Term::Iri("http://example.org/" + s);
  };
  const Term name = iri("name");
  const Term population = iri("population");
  const Term language = iri("language");
  const Term year = iri("year");
  const Term part_of = iri("partOf");

  struct CountryRow {
    const char* id;
    const char* label;
    int64_t pop;
    const char* lang;
    const char* continent;
  };
  const CountryRow rows[] = {
      {"France", "France", 67000000, "French", "EU"},
      {"Germany", "Germany", 82000000, "German", "EU"},
      {"Italy", "Italy", 60000000, "Italian", "EU"},
      {"Canada", "Canada", 37000000, "French", "NA"},
      {"Canada", "Canada", 37000000, "English", "NA"},
  };
  for (const auto& row : rows) {
    Term c = iri(row.id);
    store->Add(c, name, Term::String(row.label));
    store->Add(c, population, Term::Integer(row.pop));
    store->Add(c, language, Term::String(row.lang));
    store->Add(c, year, Term::Integer(2019));
    store->Add(c, part_of, iri(row.continent));
  }
  store->Finalize();
}

/// Executes a query and asserts success.
inline sparql::QueryResult MustExecute(TripleStore* store, const std::string& q) {
  sparql::QueryEngine engine(store);
  auto result = engine.Execute(q);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\nquery: " << q;
  if (!result.ok()) return sparql::QueryResult{};
  auto value = std::move(result).value();
  value.SortCanonical();
  return value;
}

}  // namespace testing
}  // namespace sofos

#endif  // SOFOS_TESTS_TEST_UTIL_H_
