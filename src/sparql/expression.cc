#include "sparql/expression.h"

#include <cmath>
#include <regex>

#include "common/string_util.h"

namespace sofos {
namespace sparql {

Value ExprEvaluator::Decode(TermId id) const {
  if (id == kNullTermId) return Value::Unbound();
  return Value::FromTerm(dict_->term(id));
}

Result<Value> ExprEvaluator::Eval(const Expr& expr, const Row& row) const {
  switch (expr.kind) {
    case Expr::Kind::kVar: {
      auto slot = vars_->Get(expr.var);
      if (!slot.has_value()) return Value::Unbound();
      if (static_cast<size_t>(*slot) >= row.size()) return Value::Unbound();
      return Decode(row[*slot]);
    }
    case Expr::Kind::kLiteral:
      return Value::FromTerm(expr.literal);
    case Expr::Kind::kBinary:
      return EvalBinary(expr, row);
    case Expr::Kind::kUnary: {
      SOFOS_ASSIGN_OR_RETURN(Value v, Eval(*expr.operand, row));
      if (expr.uop == UnaryOp::kNot) {
        SOFOS_ASSIGN_OR_RETURN(bool b, v.EffectiveBool());
        return Value::Bool(!b);
      }
      if (v.type() == Value::Type::kInt) return Value::Int(-v.int_value());
      if (v.type() == Value::Type::kDouble) return Value::MakeDouble(-v.double_value());
      return Status::TypeError("unary '-' on non-numeric value " + v.ToString());
    }
    case Expr::Kind::kAggregate: {
      if (expr.agg_slot < 0 || agg_base_ < 0) {
        return Status::Internal(
            "aggregate expression evaluated outside an aggregation context");
      }
      size_t slot = static_cast<size_t>(agg_base_ + expr.agg_slot);
      if (slot >= row.size()) return Status::Internal("aggregate slot out of range");
      return Decode(row[slot]);
    }
    case Expr::Kind::kFunction:
      return EvalFunction(expr, row);
  }
  return Status::Internal("corrupt expression node");
}

Result<bool> ExprEvaluator::EvalBool(const Expr& expr, const Row& row) const {
  SOFOS_ASSIGN_OR_RETURN(Value v, Eval(expr, row));
  return v.EffectiveBool();
}

Result<Value> ExprEvaluator::EvalBinary(const Expr& expr, const Row& row) const {
  // Short-circuit logical operators (SPARQL tolerates an error on one side
  // when the other side determines the outcome; we implement the strict
  // variant: left side errors propagate).
  if (expr.bop == BinaryOp::kAnd) {
    SOFOS_ASSIGN_OR_RETURN(bool lhs, EvalBool(*expr.lhs, row));
    if (!lhs) return Value::Bool(false);
    SOFOS_ASSIGN_OR_RETURN(bool rhs, EvalBool(*expr.rhs, row));
    return Value::Bool(rhs);
  }
  if (expr.bop == BinaryOp::kOr) {
    SOFOS_ASSIGN_OR_RETURN(bool lhs, EvalBool(*expr.lhs, row));
    if (lhs) return Value::Bool(true);
    SOFOS_ASSIGN_OR_RETURN(bool rhs, EvalBool(*expr.rhs, row));
    return Value::Bool(rhs);
  }

  SOFOS_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.lhs, row));
  SOFOS_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.rhs, row));

  switch (expr.bop) {
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      SOFOS_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs, /*equality_only=*/true));
      bool eq = c == 0;
      return Value::Bool(expr.bop == BinaryOp::kEq ? eq : !eq);
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      SOFOS_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs, /*equality_only=*/false));
      switch (expr.bop) {
        case BinaryOp::kLt:
          return Value::Bool(c < 0);
        case BinaryOp::kLe:
          return Value::Bool(c <= 0);
        case BinaryOp::kGt:
          return Value::Bool(c > 0);
        default:
          return Value::Bool(c >= 0);
      }
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (!lhs.is_numeric() || !rhs.is_numeric()) {
        return Status::TypeError("arithmetic on non-numeric values: " +
                                 lhs.ToString() + ", " + rhs.ToString());
      }
      bool both_int =
          lhs.type() == Value::Type::kInt && rhs.type() == Value::Type::kInt;
      if (expr.bop == BinaryOp::kDiv) {
        double denom = rhs.double_value();
        if (denom == 0.0) return Status::TypeError("division by zero");
        return Value::MakeDouble(lhs.double_value() / denom);
      }
      if (both_int) {
        int64_t a = lhs.int_value(), b = rhs.int_value();
        switch (expr.bop) {
          case BinaryOp::kAdd:
            return Value::Int(a + b);
          case BinaryOp::kSub:
            return Value::Int(a - b);
          default:
            return Value::Int(a * b);
        }
      }
      double a = lhs.double_value(), b = rhs.double_value();
      switch (expr.bop) {
        case BinaryOp::kAdd:
          return Value::MakeDouble(a + b);
        case BinaryOp::kSub:
          return Value::MakeDouble(a - b);
        default:
          return Value::MakeDouble(a * b);
      }
    }
    default:
      return Status::Internal("unhandled binary operator");
  }
}

Result<Value> ExprEvaluator::EvalFunction(const Expr& expr, const Row& row) const {
  const std::string& name = expr.func_name;

  if (name == "BOUND") {
    if (expr.args.size() != 1 || expr.args[0]->kind != Expr::Kind::kVar) {
      return Status::TypeError("BOUND expects a single variable argument");
    }
    auto slot = vars_->Get(expr.args[0]->var);
    bool bound = slot.has_value() && static_cast<size_t>(*slot) < row.size() &&
                 row[*slot] != kNullTermId;
    return Value::Bool(bound);
  }

  if (name == "STR") {
    if (expr.args.size() != 1) return Status::TypeError("STR expects one argument");
    SOFOS_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0], row));
    switch (v.type()) {
      case Value::Type::kUnbound:
        return Status::TypeError("STR of unbound value");
      case Value::Type::kBool:
      case Value::Type::kInt:
      case Value::Type::kDouble:
        return Value::String(v.ToString());
      default:
        return Value::String(v.string_value());
    }
  }

  if (name == "ABS") {
    if (expr.args.size() != 1) return Status::TypeError("ABS expects one argument");
    SOFOS_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0], row));
    if (v.type() == Value::Type::kInt) {
      return Value::Int(v.int_value() < 0 ? -v.int_value() : v.int_value());
    }
    if (v.type() == Value::Type::kDouble) {
      return Value::MakeDouble(std::fabs(v.double_value()));
    }
    return Status::TypeError("ABS of non-numeric value " + v.ToString());
  }

  if (name == "REGEX") {
    if (expr.args.size() < 2 || expr.args.size() > 3) {
      return Status::TypeError("REGEX expects 2 or 3 arguments");
    }
    SOFOS_ASSIGN_OR_RETURN(Value text, Eval(*expr.args[0], row));
    SOFOS_ASSIGN_OR_RETURN(Value pattern, Eval(*expr.args[1], row));
    if (text.type() != Value::Type::kString ||
        pattern.type() != Value::Type::kString) {
      return Status::TypeError("REGEX expects string arguments");
    }
    auto flags = std::regex::ECMAScript;
    if (expr.args.size() == 3) {
      SOFOS_ASSIGN_OR_RETURN(Value f, Eval(*expr.args[2], row));
      if (f.type() == Value::Type::kString && f.string_value().find('i') !=
                                                  std::string::npos) {
        flags |= std::regex::icase;
      }
    }
    try {
      std::regex re(pattern.string_value(), flags);
      return Value::Bool(std::regex_search(text.string_value(), re));
    } catch (const std::regex_error&) {
      return Status::TypeError("malformed REGEX pattern: " + pattern.string_value());
    }
  }

  return Status::Unimplemented("function " + name + " is not supported");
}

const Value& TermValueCache::Get(TermId id) {
  if (entries_.empty()) entries_.resize(kSlots);
  Entry& entry = entries_[id & (kSlots - 1)];
  if (entry.id != id) {
    entry.value = Value::FromTerm(dict_->term(id));
    entry.id = id;
  }
  return entry.value;
}

namespace {

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::unique_ptr<const FilterKernel> FilterKernel::Compile(
    const Expr& expr, const VariableTable& vars, const Dictionary& dict) {
  std::unique_ptr<FilterKernel> kernel(new FilterKernel());
  if (kernel->Build(expr, vars, dict) != 0) return nullptr;
  return kernel;
}

int FilterKernel::Build(const Expr& expr, const VariableTable& vars,
                        const Dictionary& dict) {
  if (expr.kind != Expr::Kind::kBinary) return -1;
  const int index = static_cast<int>(nodes_.size());
  if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
    nodes_.emplace_back();
    const int lhs = Build(*expr.lhs, vars, dict);
    if (lhs < 0) return -1;
    const int rhs = Build(*expr.rhs, vars, dict);
    if (rhs < 0) return -1;
    Node& node = nodes_[static_cast<size_t>(index)];
    node.kind = expr.bop == BinaryOp::kAnd ? Node::Kind::kAnd : Node::Kind::kOr;
    node.lhs = static_cast<uint32_t>(lhs);
    node.rhs = static_cast<uint32_t>(rhs);
    return index;
  }
  if (!IsComparison(expr.bop)) return -1;
  const bool var_on_left = expr.lhs->kind == Expr::Kind::kVar &&
                           expr.rhs->kind == Expr::Kind::kLiteral;
  const bool var_on_right = expr.lhs->kind == Expr::Kind::kLiteral &&
                            expr.rhs->kind == Expr::Kind::kVar;
  if (!var_on_left && !var_on_right) return -1;
  const Expr& var = var_on_left ? *expr.lhs : *expr.rhs;
  const Term& literal = var_on_left ? expr.rhs->literal : expr.lhs->literal;

  const std::optional<int> slot = vars.Get(var.var);
  if (!slot.has_value()) return -1;  // never bound: rare, left to ExprEvaluator

  Node node;
  node.op = expr.bop;
  node.var_on_left = var_on_left;
  node.slot = *slot;
  // Equality against an IRI is equality of ids: the dictionary holds one
  // id per IRI, and Value::Compare never finds an IRI equal to a
  // non-IRI value.
  if ((expr.bop == BinaryOp::kEq || expr.bop == BinaryOp::kNe) &&
      literal.is_iri()) {
    node.kind = expr.bop == BinaryOp::kEq ? Node::Kind::kIdEq : Node::Kind::kIdNe;
    node.id = dict.Lookup(literal).value_or(kNullTermId);
  } else {
    node.kind = Node::Kind::kCompare;
    node.constant = Value::FromTerm(literal);
  }
  nodes_.push_back(std::move(node));
  return index;
}

FilterKernel::Verdict FilterKernel::Eval(const TermId* base, size_t stride,
                                         size_t row, TermValueCache* cache) const {
  return EvalNode(0, base, stride, row, cache);
}

FilterKernel::Verdict FilterKernel::EvalNode(uint32_t n, const TermId* base,
                                             size_t stride, size_t row,
                                             TermValueCache* cache) const {
  const Node& node = nodes_[n];
  switch (node.kind) {
    case Node::Kind::kAnd: {
      Verdict lhs = EvalNode(node.lhs, base, stride, row, cache);
      return lhs != Verdict::kTrue ? lhs : EvalNode(node.rhs, base, stride, row, cache);
    }
    case Node::Kind::kOr: {
      Verdict lhs = EvalNode(node.lhs, base, stride, row, cache);
      return lhs != Verdict::kFalse ? lhs : EvalNode(node.rhs, base, stride, row, cache);
    }
    default:
      break;
  }
  const TermId id = base[static_cast<size_t>(node.slot) * stride + row];
  if (id == kNullTermId) return Verdict::kError;  // comparison with unbound
  auto verdict = [](bool b) { return b ? Verdict::kTrue : Verdict::kFalse; };
  if (node.kind == Node::Kind::kIdEq) return verdict(id == node.id);
  if (node.kind == Node::Kind::kIdNe) return verdict(id != node.id);

  const Value& value = cache->Get(id);
  const bool equality_only =
      node.op == BinaryOp::kEq || node.op == BinaryOp::kNe;
  Result<int> c = node.var_on_left ? value.Compare(node.constant, equality_only)
                                   : node.constant.Compare(value, equality_only);
  if (!c.ok()) return Verdict::kError;
  switch (node.op) {
    case BinaryOp::kEq:
      return verdict(*c == 0);
    case BinaryOp::kNe:
      return verdict(*c != 0);
    case BinaryOp::kLt:
      return verdict(*c < 0);
    case BinaryOp::kLe:
      return verdict(*c <= 0);
    case BinaryOp::kGt:
      return verdict(*c > 0);
    default:
      return verdict(*c >= 0);
  }
}

}  // namespace sparql
}  // namespace sofos
