#include "sparql/planner.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"

namespace sofos {
namespace sparql {

namespace {

/// Collects the variable names used by a pattern.
void PatternVars(const TriplePattern& tp, std::vector<std::string>* out) {
  if (tp.s.is_var()) out->push_back(tp.s.var());
  if (tp.p.is_var()) out->push_back(tp.p.var());
  if (tp.o.is_var()) out->push_back(tp.o.var());
}

/// Walks select/having/order expressions, assigning slots to aggregate
/// nodes and collecting them in discovery order. Shared identical aggregates
/// are not deduplicated — simpler, and harmless at sofos scale.
void AssignAggSlots(Expr* expr, std::vector<const Expr*>* specs) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kAggregate) {
    expr->agg_slot = static_cast<int>(specs->size());
    specs->push_back(expr);
    return;  // aggregates cannot nest
  }
  AssignAggSlots(expr->lhs.get(), specs);
  AssignAggSlots(expr->rhs.get(), specs);
  AssignAggSlots(expr->operand.get(), specs);
  for (auto& arg : expr->args) AssignAggSlots(arg.get(), specs);
}

/// Replaces each variable of `*expr` that names a select alias, and no
/// grouped variable, with a copy of the aliased expression (aggregate slots
/// included), so a sort key evaluates over the aggregate's group rows.
/// Aggregate arguments are left alone: their variables are pattern
/// variables.
void ResolveAliases(const Query& query, const VariableTable& group_vars,
                    ExprPtr* expr) {
  Expr& e = **expr;
  if (e.kind == Expr::Kind::kVar) {
    if (group_vars.Get(e.var).has_value()) return;
    for (const SelectItem& item : query.select) {
      const bool self = item.expr->kind == Expr::Kind::kVar &&
                        item.expr->var == e.var;
      if (item.alias == e.var && !self) {
        *expr = item.expr->Clone();
        return;
      }
    }
    return;
  }
  if (e.lhs) ResolveAliases(query, group_vars, &e.lhs);
  if (e.rhs) ResolveAliases(query, group_vars, &e.rhs);
  if (e.operand) ResolveAliases(query, group_vars, &e.operand);
  for (ExprPtr& arg : e.args) ResolveAliases(query, group_vars, &arg);
}

/// The ORDER BY line of Plan::ToString ("" without sort keys).
std::string OrderByLine(const Plan& plan) {
  if (plan.order_keys.empty()) return "";
  std::string out = "ORDER BY";
  for (const auto& [expr, asc] : plan.order_keys) {
    out += std::string(asc ? " ASC(" : " DESC(") + expr->ToString() + ")";
  }
  return out + "\n";
}

}  // namespace

Result<Plan> Planner::Build(Query* query, const TripleStore& store) {
  if (!store.finalized()) {
    return Status::Internal("planner requires a finalized triple store");
  }
  if (query->where.empty()) {
    return Status::InvalidArgument("empty WHERE clause");
  }

  Plan plan;

  // ---- Resolve constants and estimate pattern cardinalities. ----
  struct Candidate {
    const TriplePattern* pattern;
    std::array<TermId, 3> consts{kNullTermId, kNullTermId, kNullTermId};
    std::array<const std::string*, 3> vars{nullptr, nullptr, nullptr};
    uint64_t est = 0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(query->where.size());

  const Dictionary& dict = store.dictionary();
  for (const TriplePattern& tp : query->where) {
    Candidate c;
    c.pattern = &tp;
    const PatternTerm* positions[3] = {&tp.s, &tp.p, &tp.o};
    for (int i = 0; i < 3; ++i) {
      if (positions[i]->is_var()) {
        c.vars[i] = &positions[i]->var();
      } else {
        auto id = dict.Lookup(positions[i]->term());
        if (!id.has_value()) {
          // The constant does not occur in the graph: the whole BGP is empty.
          plan.empty_guaranteed = true;
          c.consts[i] = kNullTermId;
        } else {
          c.consts[i] = *id;
        }
      }
    }
    if (!plan.empty_guaranteed) {
      c.est = store.Count(c.consts[0], c.consts[1], c.consts[2]);
    }
    candidates.push_back(std::move(c));
  }

  // ---- Greedy join ordering. ----
  std::vector<bool> used(candidates.size(), false);
  std::unordered_set<std::string> bound_vars;

  for (size_t step_idx = 0; step_idx < candidates.size(); ++step_idx) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (const auto* var : candidates[i].vars) {
        if (var != nullptr && bound_vars.count(*var) > 0) {
          connected = true;
          break;
        }
      }
      if (step_idx == 0) connected = true;  // first step: pure cardinality
      if (best < 0 || (connected && !best_connected) ||
          (connected == best_connected &&
           candidates[i].est < candidates[static_cast<size_t>(best)].est)) {
        // Prefer connected patterns; break ties by cardinality.
        if (best >= 0 && !connected && best_connected) continue;
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    Candidate& chosen = candidates[static_cast<size_t>(best)];
    used[static_cast<size_t>(best)] = true;

    PatternStep step;
    step.pattern = *chosen.pattern;
    step.consts = chosen.consts;
    step.est_cardinality = chosen.est;
    step.connected = best_connected;
    // Join keys: positions whose variable is bound by *earlier* steps
    // (bound_vars does not yet contain this step's own variables).
    if (step_idx > 0) {
      for (int i = 0; i < 3; ++i) {
        if (chosen.vars[i] != nullptr && bound_vars.count(*chosen.vars[i]) > 0) {
          step.key_positions.push_back(i);
        }
      }
    }
    for (int i = 0; i < 3; ++i) {
      if (chosen.vars[i] != nullptr) {
        step.slots[i] = plan.pattern_vars.GetOrAdd(*chosen.vars[i]);
        bound_vars.insert(*chosen.vars[i]);
      } else {
        step.slots[i] = -1;
      }
    }
    plan.steps.push_back(std::move(step));
  }

  // ---- Physical join algorithm per step (batch engine). ----
  // The choice depends only on the store's statistics: the plan is part of
  // the determinism contract.
  {
    // Probe-side size hint for step i: the largest pattern joined so far.
    // Join orders start from the smallest pattern and fan out, so the
    // pipeline width at step i is usually driven by the biggest earlier
    // pattern; the first scan alone would grossly underestimate it.
    uint64_t probe_hint = 0;
    // Compounded pipeline-width estimate: per-step predicate fanout
    // multiplied along the pipeline (floored by each pattern's own
    // cardinality). Participates in the hash-probe decision only above
    // kFanoutHintMinRows — see the constant's comment for why the toy-
    // scale plans must stay independent of it.
    double est_width = 0.0;
    constexpr double kWidthCap = 1e18;
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      PatternStep& step = plan.steps[i];
      bool bound[3];
      for (int f = 0; f < 3; ++f) {
        bound[f] = step.consts[f] != kNullTermId ||
                   std::find(step.key_positions.begin(),
                             step.key_positions.end(),
                             f) != step.key_positions.end();
      }
      step.match_order = TripleStore::ScanFieldOrder(bound[0], bound[1], bound[2]);
      // Expected matches per probe row: the predicate's average fanout on
      // the joined side (a constant predicate probed through a subject /
      // object join key). 1.0 when unknown or not a keyed predicate probe.
      double fanout = 1.0;
      if (step.consts[1] != kNullTermId) {
        const bool s_keyed = std::find(step.key_positions.begin(),
                                       step.key_positions.end(),
                                       0) != step.key_positions.end();
        const bool o_keyed = std::find(step.key_positions.begin(),
                                       step.key_positions.end(),
                                       2) != step.key_positions.end();
        if (s_keyed) {
          fanout = store.AvgSubjectFanout(step.consts[1]);
        } else if (o_keyed) {
          fanout = store.AvgObjectFanout(step.consts[1]);
        }
        if (fanout < 1.0) fanout = 1.0;
      }
      if (i == 0) {
        step.algo = JoinAlgo::kScan;
        probe_hint = step.est_cardinality;
        est_width = static_cast<double>(step.est_cardinality);
        continue;
      }
      const uint64_t width_hint =
          est_width >= static_cast<double>(kFanoutHintMinRows)
              ? static_cast<uint64_t>(est_width)
              : 0;
      const uint64_t effective_hint = std::max(probe_hint, width_hint);
      // Hash-probe when the build side (the pattern's full scan) is worth
      // materializing: bounded size and a probe side large enough — in
      // absolute rows and relative to the build — to amortize it.
      step.algo = JoinAlgo::kIndexLoop;
      if (step.connected && !step.key_positions.empty() &&
          step.est_cardinality > 0 &&
          step.est_cardinality <= kHashBuildMaxRows &&
          effective_hint >= kHashProbeMinRows &&
          effective_hint >= kHashProbePerBuildRow * step.est_cardinality) {
        step.algo = JoinAlgo::kHashProbe;
      }
      probe_hint = std::max(probe_hint, step.est_cardinality);
      est_width = std::min(
          std::max(est_width * fanout,
                   static_cast<double>(step.est_cardinality)),
          kWidthCap);
    }
  }

  // ---- Push filters to the earliest step where their vars are bound. ----
  {
    // Vars bound after each step (prefix union).
    std::vector<std::unordered_set<std::string>> bound_after(plan.steps.size());
    std::unordered_set<std::string> acc;
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      std::vector<std::string> vars;
      PatternVars(plan.steps[i].pattern, &vars);
      for (auto& v : vars) acc.insert(v);
      bound_after[i] = acc;
    }
    for (const ExprPtr& filter : query->filters) {
      if (filter->ContainsAggregate()) {
        return Status::InvalidArgument(
            "aggregates are not allowed in WHERE-clause FILTERs");
      }
      std::vector<std::string> vars;
      filter->CollectVars(&vars);
      size_t target = plan.steps.size() - 1;
      for (size_t i = 0; i < plan.steps.size(); ++i) {
        bool all_bound = true;
        for (const auto& v : vars) {
          // BOUND(?v) may legitimately reference never-bound vars; such
          // filters stay at the last step via all_bound=false fallthrough.
          if (bound_after[i].count(v) == 0) {
            all_bound = false;
            break;
          }
        }
        if (all_bound) {
          target = i;
          break;
        }
      }
      plan.steps[target].filters.push_back(filter.get());
    }
  }

  // ---- Aggregation layout. ----
  plan.is_aggregate = query->IsAggregateQuery();
  if (plan.is_aggregate) {
    for (auto& item : query->select) AssignAggSlots(item.expr.get(), &plan.agg_specs);
    for (auto& h : query->having) AssignAggSlots(h.get(), &plan.agg_specs);
    for (auto& k : query->order_by) AssignAggSlots(k.expr.get(), &plan.agg_specs);

    for (const std::string& name : query->group_by) {
      auto slot = plan.pattern_vars.Get(name);
      if (!slot.has_value()) {
        return Status::InvalidArgument("GROUP BY variable ?" + name +
                                       " does not occur in the WHERE clause");
      }
      // A repeated GROUP BY variable still has its own column; the repeat
      // gets a name no query can spell, so the table names every column.
      plan.group_vars.GetOrAdd(
          plan.group_vars.Get(name).has_value()
              ? " key" + std::to_string(plan.group_slots.size())
              : name);
      plan.group_slots.push_back(*slot);
      plan.group_names.push_back(name);
    }
    for (size_t i = 0; i < plan.agg_specs.size(); ++i) {
      plan.group_vars.GetOrAdd("__agg" + std::to_string(i));
    }
    for (const auto& h : query->having) plan.having.push_back(h.get());

    // Validate that non-aggregate select items are grouped variables.
    for (const auto& item : query->select) {
      if (item.expr->ContainsAggregate()) continue;
      std::vector<std::string> vars;
      item.expr->CollectVars(&vars);
      for (const auto& v : vars) {
        if (std::find(query->group_by.begin(), query->group_by.end(), v) ==
            query->group_by.end()) {
          return Status::InvalidArgument(
              "variable ?" + v +
              " is projected but neither grouped nor aggregated");
        }
      }
    }
  }

  // ---- Projection layout. ----
  const VariableTable& input_vars =
      plan.is_aggregate ? plan.group_vars : plan.pattern_vars;
  if (query->select_all) {
    if (plan.is_aggregate) {
      return Status::InvalidArgument("SELECT * cannot be combined with GROUP BY");
    }
    for (const std::string& name : plan.pattern_vars.names()) {
      Plan::OutputItem out;
      out.name = name;
      out.direct_slot = *plan.pattern_vars.Get(name);
      plan.outputs.push_back(std::move(out));
      plan.output_vars.GetOrAdd(name);
    }
  } else {
    for (const auto& item : query->select) {
      Plan::OutputItem out;
      out.name = item.alias;
      if (item.expr->kind == Expr::Kind::kVar) {
        auto slot = input_vars.Get(item.expr->var);
        out.direct_slot = slot.has_value() ? *slot : -1;
        // A bare var that is neither bound nor computable stays unbound;
        // SPARQL permits projecting unknown variables.
        if (!slot.has_value()) out.expr = item.expr.get();
      } else if (item.expr->kind == Expr::Kind::kAggregate) {
        // A bare aggregate copies its interned result: decoding and
        // re-interning it would yield the same id.
        out.direct_slot =
            static_cast<int>(plan.group_slots.size()) + item.expr->agg_slot;
      } else {
        out.expr = item.expr.get();
      }
      plan.outputs.push_back(std::move(out));
      plan.output_vars.GetOrAdd(item.alias);
    }
  }

  plan.distinct = query->distinct;
  for (const auto& key : query->order_by) {
    const Expr* expr = key.expr.get();
    if (plan.is_aggregate) {
      ExprPtr resolved = expr->Clone();
      ResolveAliases(*query, plan.group_vars, &resolved);
      plan.owned_keys.push_back(std::move(resolved));
      expr = plan.owned_keys.back().get();
    }
    plan.order_keys.emplace_back(expr, key.ascending);
  }
  plan.limit = query->limit;
  plan.offset = query->offset;
  return plan;
}

std::string Plan::ToString() const {
  std::string out;
  if (empty_guaranteed) {
    out += "EMPTY (constant term absent from graph)\n";
  }
  static const char* kPos[3] = {"s", "p", "o"};
  for (size_t i = 0; i < steps.size(); ++i) {
    const PatternStep& step = steps[i];
    const char* op = i == 0 ? "SCAN "
                            : (step.algo == JoinAlgo::kHashProbe ? "HJOIN"
                                                                 : "IJOIN");
    out += StrFormat("%zu: %s  %s  [est=%llu]%s", i, op,
                     step.pattern.ToString().c_str(),
                     static_cast<unsigned long long>(step.est_cardinality),
                     (i > 0 && !step.connected) ? "  CROSS" : "");
    if (step.algo == JoinAlgo::kHashProbe) {
      out += "  build=pattern probe=pipeline keys=[";
      for (size_t k = 0; k < step.key_positions.size(); ++k) {
        if (k) out += ",";
        out += kPos[step.key_positions[k]];
      }
      out += "]";
    }
    out += "\n";
    for (const Expr* f : step.filters) {
      out += "   FILTER " + f->ToString() + "\n";
    }
  }
  if (is_aggregate) {
    out += "AGGREGATE group=[";
    for (size_t i = 0; i < group_names.size(); ++i) {
      if (i) out += ", ";
      out += "?" + group_names[i];
    }
    out += "] aggs=[";
    for (size_t i = 0; i < agg_specs.size(); ++i) {
      if (i) out += ", ";
      out += agg_specs[i]->ToString();
    }
    out += "]\n";
    for (const Expr* h : having) out += "HAVING " + h->ToString() + "\n";
    out += OrderByLine(*this);
  }
  out += "PROJECT [";
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (i) out += ", ";
    out += "?" + outputs[i].name;
  }
  out += "]\n";
  if (distinct) out += "DISTINCT\n";
  if (!is_aggregate) out += OrderByLine(*this);
  if (limit >= 0 || offset > 0) {
    out += StrFormat("SLICE limit=%lld offset=%lld\n",
                     static_cast<long long>(limit), static_cast<long long>(offset));
  }
  return out;
}

}  // namespace sparql
}  // namespace sofos
