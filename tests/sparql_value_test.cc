#include "sparql/value.h"

#include <limits>

#include "gtest/gtest.h"
#include "sparql/expression.h"
#include "sparql/parser.h"
#include "tests/test_util.h"

namespace sofos {
namespace sparql {
namespace {

// ----------------------------------------------------------- construction

TEST(ValueTest, FromTermDecodesNativeTypes) {
  EXPECT_EQ(Value::FromTerm(Term::Integer(5)).type(), Value::Type::kInt);
  EXPECT_EQ(Value::FromTerm(Term::Double(2.5)).type(), Value::Type::kDouble);
  EXPECT_EQ(Value::FromTerm(Term::Boolean(true)).type(), Value::Type::kBool);
  EXPECT_EQ(Value::FromTerm(Term::String("x")).type(), Value::Type::kString);
  EXPECT_EQ(Value::FromTerm(Term::Iri("http://x")).type(), Value::Type::kIri);
  EXPECT_EQ(Value::FromTerm(Term::Blank("b")).type(), Value::Type::kBlank);
}

TEST(ValueTest, FromTermKeepsLangTag) {
  Value v = Value::FromTerm(Term::LangString("chat", "fr"));
  EXPECT_EQ(v.type(), Value::Type::kString);
  EXPECT_EQ(v.lang(), "fr");
}

TEST(ValueTest, FromTermOpaqueDatatype) {
  auto term = Term::TypedLiteral("2021-01-01", "http://www.w3.org/2001/XMLSchema#date");
  ASSERT_TRUE(term.ok());
  Value v = Value::FromTerm(*term);
  EXPECT_EQ(v.type(), Value::Type::kOpaque);
}

TEST(ValueTest, ToTermRoundTrips) {
  for (const Term& term :
       {Term::Integer(-3), Term::Double(1.5), Term::Boolean(false),
        Term::String("s"), Term::LangString("s", "de"), Term::Iri("http://i"),
        Term::Blank("b")}) {
    auto back = Value::FromTerm(term).ToTerm();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, term) << term.ToNTriples();
  }
}

TEST(ValueTest, UnboundToTermFails) {
  EXPECT_FALSE(Value::Unbound().ToTerm().ok());
}

// ---------------------------------------------------- effective boolean

TEST(ValueTest, EffectiveBooleanValues) {
  EXPECT_TRUE(Value::Bool(true).EffectiveBool().value());
  EXPECT_FALSE(Value::Bool(false).EffectiveBool().value());
  EXPECT_TRUE(Value::Int(7).EffectiveBool().value());
  EXPECT_FALSE(Value::Int(0).EffectiveBool().value());
  EXPECT_TRUE(Value::MakeDouble(0.1).EffectiveBool().value());
  EXPECT_FALSE(Value::MakeDouble(0.0).EffectiveBool().value());
  EXPECT_TRUE(Value::String("x").EffectiveBool().value());
  EXPECT_FALSE(Value::String("").EffectiveBool().value());
}

TEST(ValueTest, EffectiveBooleanErrorsForIrisAndUnbound) {
  EXPECT_FALSE(Value::Iri("http://x").EffectiveBool().ok());
  EXPECT_FALSE(Value::Blank("b").EffectiveBool().ok());
  EXPECT_FALSE(Value::Unbound().EffectiveBool().ok());
}

// ------------------------------------------------------------ comparison

TEST(ValueTest, NumericComparisonsMixWidths) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(3), false).value(), -1);
  EXPECT_EQ(Value::Int(3).Compare(Value::Int(3), false).value(), 0);
  EXPECT_EQ(Value::MakeDouble(2.5).Compare(Value::Int(2), false).value(), 1);
  EXPECT_EQ(Value::Int(2).Compare(Value::MakeDouble(2.0), false).value(), 0);
}

TEST(ValueTest, StringComparisonIncludesLang) {
  EXPECT_EQ(Value::String("a").Compare(Value::String("b"), false).value(), -1);
  EXPECT_EQ(Value::String("a").Compare(Value::String("a"), true).value(), 0);
  EXPECT_NE(Value::String("a", "en").Compare(Value::String("a", "de"), true).value(), 0);
}

TEST(ValueTest, IriEqualityAndOrdering) {
  EXPECT_EQ(Value::Iri("http://a").Compare(Value::Iri("http://a"), true).value(), 0);
  EXPECT_NE(Value::Iri("http://a").Compare(Value::Iri("http://b"), true).value(), 0);
  EXPECT_EQ(Value::Iri("http://a").Compare(Value::Iri("http://b"), false).value(), -1);
}

TEST(ValueTest, CrossTypeEqualityIsNotEqual) {
  // SPARQL: = between incomparable types is simply "not equal" here.
  EXPECT_NE(Value::Int(1).Compare(Value::String("1"), true).value(), 0);
  EXPECT_NE(Value::Iri("http://x").Compare(Value::Int(1), true).value(), 0);
}

TEST(ValueTest, CrossTypeOrderingErrors) {
  EXPECT_FALSE(Value::Int(1).Compare(Value::String("1"), false).ok());
  EXPECT_FALSE(Value::Iri("http://x").Compare(Value::Int(1), false).ok());
  EXPECT_FALSE(Value::Unbound().Compare(Value::Int(1), true).ok());
}

TEST(ValueTest, TotalCompareIsATotalOrder) {
  std::vector<Value> values = {
      Value::Unbound(),          Value::Blank("b"),      Value::Iri("http://a"),
      Value::Bool(false),        Value::Bool(true),      Value::Int(1),
      Value::MakeDouble(2.5),    Value::String("a"),     Value::String("b"),
  };
  // Pairwise antisymmetry and the documented type ranking.
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i].TotalCompare(values[i]), 0);
    for (size_t j = i + 1; j < values.size(); ++j) {
      int ij = values[i].TotalCompare(values[j]);
      int ji = values[j].TotalCompare(values[i]);
      EXPECT_EQ(ij, -ji);
      EXPECT_LE(ij, 0) << values[i].ToString() << " vs " << values[j].ToString();
    }
  }
}

TEST(ValueTest, TotalCompareOrdersNumbersExactly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Ascending; every value is a distinct term. Integers beyond 2^53 differ
  // from each other and from the double they would round to; an integer
  // sorts before an equal double (0 before -0.0), -0.0 before 0.0, and NaN
  // after every number.
  std::vector<Value> ascending = {
      Value::MakeDouble(-inf),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(-1),
      Value::MakeDouble(-0.5),
      Value::Int(0),
      Value::MakeDouble(-0.0),
      Value::MakeDouble(0.0),
      Value::Int(1),
      Value::MakeDouble(1.0),
      Value::MakeDouble(1.5),
      Value::Int(9007199254740992),
      Value::MakeDouble(9007199254740992.0),
      Value::Int(9007199254740993),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::MakeDouble(9223372036854775808.0),
      Value::MakeDouble(inf),
      Value::MakeDouble(nan),
  };
  for (size_t i = 0; i < ascending.size(); ++i) {
    EXPECT_EQ(ascending[i].TotalCompare(ascending[i]), 0)
        << ascending[i].ToString();
    for (size_t j = i + 1; j < ascending.size(); ++j) {
      EXPECT_EQ(ascending[i].TotalCompare(ascending[j]), -1)
          << ascending[i].ToString() << " vs " << ascending[j].ToString();
      EXPECT_EQ(ascending[j].TotalCompare(ascending[i]), 1)
          << ascending[j].ToString() << " vs " << ascending[i].ToString();
    }
  }
  EXPECT_EQ(Value::MakeDouble(nan).TotalCompare(Value::MakeDouble(-nan)), 0);
}

TEST(ValueTest, ToStringForDiagnostics) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::Iri("http://a").ToString(), "<http://a>");
  EXPECT_EQ(Value::Unbound().ToString(), "UNBOUND");
  EXPECT_EQ(Value::String("x", "en").ToString(), "\"x\"@en");
}

// ------------------------------------------------------- expression eval

class ExprEvalTest : public ::testing::Test {
 protected:
  /// Evaluates a standalone expression with ?x bound to `x` (optional).
  Result<Value> Eval(const std::string& text, std::optional<Term> x = {}) {
    auto expr = Parser::ParseExpression(text);
    if (!expr.ok()) return expr.status();
    VariableTable vars;
    int slot = vars.GetOrAdd("x");
    Row row(1, kNullTermId);
    if (x.has_value()) row[static_cast<size_t>(slot)] = dict_.Intern(*x);
    ExprEvaluator eval(&dict_, &vars);
    return eval.Eval(**expr, row);
  }

  Dictionary dict_;
};

TEST_F(ExprEvalTest, ArithmeticKeepsIntegers) {
  auto v = Eval("2 + 3 * 4");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), Value::Type::kInt);
  EXPECT_EQ(v->int_value(), 14);
}

TEST_F(ExprEvalTest, DivisionAlwaysDouble) {
  auto v = Eval("7 / 2");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), Value::Type::kDouble);
  EXPECT_DOUBLE_EQ(v->double_value(), 3.5);
}

TEST_F(ExprEvalTest, DivisionByZeroErrors) {
  EXPECT_FALSE(Eval("1 / 0").ok());
  EXPECT_FALSE(Eval("1 / (2 - 2)").ok());
}

TEST_F(ExprEvalTest, UnaryMinusAndNot) {
  EXPECT_EQ(Eval("-(3 + 4)")->int_value(), -7);
  EXPECT_TRUE(Eval("!(1 > 2)")->bool_value());
  EXPECT_FALSE(Eval("-\"str\"").ok());
}

TEST_F(ExprEvalTest, ShortCircuitAnd) {
  // RHS would error (IRI has no EBV) but LHS already decides.
  auto v = Eval("(1 > 2) && (<http://x> = <http://x>)");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
}

TEST_F(ExprEvalTest, ShortCircuitOr) {
  auto v = Eval("(2 > 1) || ?x");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
}

TEST_F(ExprEvalTest, VariableBinding) {
  EXPECT_EQ(Eval("?x + 1", Term::Integer(41))->int_value(), 42);
  EXPECT_TRUE(Eval("?x = \"hi\"", Term::String("hi"))->bool_value());
}

TEST_F(ExprEvalTest, UnboundVariableComparisonErrors) {
  EXPECT_FALSE(Eval("?x > 1").ok());
}

TEST_F(ExprEvalTest, BoundFunction) {
  EXPECT_TRUE(Eval("BOUND(?x)", Term::Integer(1))->bool_value());
  EXPECT_FALSE(Eval("BOUND(?x)")->bool_value());
  EXPECT_FALSE(Eval("BOUND(1 + 1)").ok()) << "BOUND requires a variable";
}

TEST_F(ExprEvalTest, StrFunction) {
  EXPECT_EQ(Eval("STR(?x)", Term::Iri("http://a"))->string_value(), "http://a");
  EXPECT_EQ(Eval("STR(42)")->string_value(), "42");
}

TEST_F(ExprEvalTest, AbsFunction) {
  EXPECT_EQ(Eval("ABS(0 - 5)")->int_value(), 5);
  EXPECT_DOUBLE_EQ(Eval("ABS(0.0 - 2.5)")->double_value(), 2.5);
  EXPECT_FALSE(Eval("ABS(\"x\")").ok());
}

TEST_F(ExprEvalTest, RegexFunction) {
  EXPECT_TRUE(Eval("REGEX(?x, \"^ab\")", Term::String("abc"))->bool_value());
  EXPECT_FALSE(Eval("REGEX(?x, \"^b\")", Term::String("abc"))->bool_value());
  EXPECT_TRUE(Eval("REGEX(?x, \"^AB\", \"i\")", Term::String("abc"))->bool_value());
  EXPECT_FALSE(Eval("REGEX(?x, \"[\")", Term::String("abc")).ok());
  EXPECT_FALSE(Eval("REGEX(?x, 5)", Term::String("abc")).ok());
}

TEST_F(ExprEvalTest, UnknownFunctionUnimplemented) {
  auto result = Eval("NOSUCHFN(1)");
  // The parser rejects unknown identifiers, so this errors at parse time.
  EXPECT_FALSE(result.ok());
}

TEST_F(ExprEvalTest, AggregateOutsideContextIsInternalError) {
  auto expr = Parser::ParseExpression("SUM(?x)");
  ASSERT_TRUE(expr.ok());
  VariableTable vars;
  vars.GetOrAdd("x");
  Row row(1, kNullTermId);
  ExprEvaluator eval(&dict_, &vars);  // no agg_base
  EXPECT_FALSE(eval.Eval(**expr, row).ok());
}

}  // namespace
}  // namespace sparql
}  // namespace sofos
