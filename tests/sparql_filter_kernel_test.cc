/// Property test of the batch engine's TermId-native FILTER kernel
/// (sparql::FilterKernel): seeded random filter trees over a dictionary of
/// every term shape must compile, and on random rows (unbound slots
/// included) must return exactly ExprEvaluator::EvalBool's verdict — true,
/// false or error — both on a Row and through a column-major batch layout.
/// Shapes outside the kernel grammar must not compile.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sparql/binding.h"
#include "sparql/expression.h"
#include "sparql/parser.h"

namespace sofos {
namespace sparql {
namespace {

using Verdict = FilterKernel::Verdict;

constexpr BinaryOp kComparisons[] = {BinaryOp::kEq, BinaryOp::kNe,
                                     BinaryOp::kLt, BinaryOp::kLe,
                                     BinaryOp::kGt, BinaryOp::kGe};

class FilterKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // More terms than TermValueCache slots, so cache slots get evicted.
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
    auto opaque = Term::TypedLiteral("x1", "http://ex/dt");
    ASSERT_TRUE(opaque.ok());
    terms.push_back(*opaque);
    terms.push_back(
        Term::FromRaw(Term::Kind::kLiteral, Term::Datatype::kInteger, "12abc", ""));
    for (const Term& t : terms) ids_.push_back(dict_.Intern(t));
    // A few IRIs recur often in rows and constants, so IRI equality hits.
    hot_ids_.assign(ids_.begin(), ids_.begin() + 8);
    hot_iris_.assign(terms.begin(), terms.begin() + 8);
    for (int i = 0; i < 4; ++i) {
      hot_iris_.push_back(Term::Iri("http://ex/absent" + std::to_string(i)));
    }

    // Constants: every dictionary term plus values the dictionary lacks.
    constants_ = terms;
    constants_.insert(constants_.end(), hot_iris_.begin() + 8, hot_iris_.end());
    constants_.push_back(Term::Integer(1000));
    constants_.push_back(Term::Double(0.5));
    constants_.push_back(Term::String("aa"));

    for (const char* v : {"a", "b", "c"}) vars_.GetOrAdd(v);
  }

  /// A random `?var OP constant` or `constant OP ?var` leaf.
  ExprPtr RandomLeaf(Rng* rng) {
    static const char* kVars[] = {"a", "b", "c"};
    ExprPtr var = Expr::MakeVar(kVars[rng->Uniform(3)]);
    ExprPtr constant = Expr::MakeLiteral(
        rng->Pick(rng->Chance(0.25) ? hot_iris_ : constants_));
    BinaryOp op = kComparisons[rng->Uniform(6)];
    if (rng->Chance(0.5)) return Expr::MakeBinary(op, std::move(var), std::move(constant));
    return Expr::MakeBinary(op, std::move(constant), std::move(var));
  }

  ExprPtr RandomTree(Rng* rng, int depth) {
    if (depth == 0 || rng->Chance(0.35)) return RandomLeaf(rng);
    BinaryOp op = rng->Chance(0.5) ? BinaryOp::kAnd : BinaryOp::kOr;
    ExprPtr lhs = RandomTree(rng, depth - 1);
    ExprPtr rhs = RandomTree(rng, depth - 1);
    return Expr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  Row RandomRow(Rng* rng) {
    Row row(vars_.size());
    for (TermId& id : row) {
      if (rng->Chance(0.15)) {
        id = kNullTermId;
      } else {
        id = rng->Pick(rng->Chance(0.3) ? hot_ids_ : ids_);
      }
    }
    return row;
  }

  static Verdict Expected(const Result<bool>& r) {
    if (!r.ok()) return Verdict::kError;
    return r.value() ? Verdict::kTrue : Verdict::kFalse;
  }

  std::unique_ptr<const FilterKernel> CompileText(const std::string& filter) {
    auto query =
        Parser::Parse("SELECT ?a WHERE { ?a ?b ?c FILTER(" + filter + ") }");
    EXPECT_TRUE(query.ok()) << filter << ": " << query.status().ToString();
    if (!query.ok() || query->filters.empty()) return nullptr;
    return FilterKernel::Compile(*query->filters[0], vars_, dict_);
  }

  Dictionary dict_;
  std::vector<TermId> ids_;
  std::vector<TermId> hot_ids_;
  std::vector<Term> hot_iris_;  // the hot ids' IRIs plus absent IRIs
  std::vector<Term> constants_;
  VariableTable vars_;
};

TEST_F(FilterKernelTest, MatchesExprEvaluatorOnRandomTrees) {
  Rng rng(20261017);
  ExprEvaluator eval(&dict_, &vars_);
  TermValueCache cache(&dict_);
  constexpr int kTrees = 400;
  constexpr size_t kRows = 64;
  int compiled = 0;
  int seen[3] = {0, 0, 0};
  for (int t = 0; t < kTrees; ++t) {
    ExprPtr tree = RandomTree(&rng, 3);
    auto kernel = FilterKernel::Compile(*tree, vars_, dict_);
    ASSERT_NE(kernel, nullptr) << tree->ToString();
    ++compiled;

    // Column-major copy of the rows, laid out like a RowBatch.
    std::vector<Row> rows;
    for (size_t r = 0; r < kRows; ++r) rows.push_back(RandomRow(&rng));
    std::vector<TermId> columns(vars_.size() * kRows);
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t c = 0; c < vars_.size(); ++c) columns[c * kRows + r] = rows[r][c];
    }

    for (size_t r = 0; r < kRows; ++r) {
      const Verdict expected = Expected(eval.EvalBool(*tree, rows[r]));
      ++seen[static_cast<int>(expected)];
      EXPECT_EQ(kernel->Eval(rows[r].data(), 1, 0, &cache), expected)
          << tree->ToString() << " row " << r;
      EXPECT_EQ(kernel->Eval(columns.data(), kRows, r, &cache), expected)
          << tree->ToString() << " batch row " << r;
    }
  }
  EXPECT_EQ(compiled, kTrees);
  // Every verdict occurred, so no branch of the comparison was vacuous.
  EXPECT_GT(seen[static_cast<int>(Verdict::kTrue)], 0);
  EXPECT_GT(seen[static_cast<int>(Verdict::kFalse)], 0);
  EXPECT_GT(seen[static_cast<int>(Verdict::kError)], 0);
}

TEST_F(FilterKernelTest, ParsedFiltersCompile) {
  for (const char* filter :
       {"?a = <http://ex/r3>", "<http://ex/absent> != ?b", "?c >= 5",
        "2016 <= ?c && ?c < 2019.5", "?a = \"abc\"@en || ?b = true",
        "(?a = <http://ex/r1> || ?a = <http://ex/r2>) && ?c > 3"}) {
    EXPECT_NE(CompileText(filter), nullptr) << filter;
  }
}

TEST_F(FilterKernelTest, OtherShapesStayOnExprEvaluator) {
  for (const char* filter :
       {"?c + 1 > 2", "?c * 2 = 4", "BOUND(?a)", "REGEX(?a, \"x\")",
        "STR(?a) = \"x\"", "ABS(?c) > 1", "!(?a = <http://ex/r1>)",
        "?a = ?b", "?c < ?c", "1 = 1", "?a", "true",
        "?c > -3", "?ghost = 1", "?c = 1 && ?a != ?b",
        "?c > 0 || !(?c > 5)"}) {
    EXPECT_EQ(CompileText(filter), nullptr) << filter;
  }

  // Aggregates (HAVING shapes) are not compiled either.
  auto agg = Expr::MakeBinary(
      BinaryOp::kGt,
      Expr::MakeAggregate(AggKind::kCount, Expr::MakeVar("a"), false),
      Expr::MakeLiteral(Term::Integer(1)));
  EXPECT_EQ(FilterKernel::Compile(*agg, vars_, dict_), nullptr);
  auto count_star = Expr::MakeBinary(BinaryOp::kEq, Expr::MakeCountStar(),
                                     Expr::MakeLiteral(Term::Integer(1)));
  EXPECT_EQ(FilterKernel::Compile(*count_star, vars_, dict_), nullptr);
}

}  // namespace
}  // namespace sparql
}  // namespace sofos
