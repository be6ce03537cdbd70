#include "sparql/query_engine.h"

#include <algorithm>

#include "common/timer.h"
#include "sparql/parser.h"
#include "sparql/planner.h"

namespace sofos {
namespace sparql {

std::string QueryResult::ToTable(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < var_names.size(); ++i) {
    if (i) out += " | ";
    out += "?" + var_names[i];
  }
  out += '\n';
  out += std::string(60, '-');
  out += '\n';
  size_t shown = 0;
  for (size_t r = 0; r < rows.size() && shown < max_rows; ++r, ++shown) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c) out += " | ";
      out += bound[r][c] ? rows[r][c].ToNTriples() : "UNBOUND";
    }
    out += '\n';
  }
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size() - max_rows) + " more rows)\n";
  }
  return out;
}

void QueryResult::SortCanonical() {
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    for (size_t c = 0; c < rows[a].size(); ++c) {
      if (bound[a][c] != bound[b][c]) return !bound[a][c];
      if (bound[a][c] && rows[a][c] != rows[b][c]) return rows[a][c] < rows[b][c];
    }
    return false;
  });
  std::vector<std::vector<Term>> new_rows;
  std::vector<std::vector<bool>> new_bound;
  new_rows.reserve(rows.size());
  new_bound.reserve(bound.size());
  for (size_t i : order) {
    new_rows.push_back(std::move(rows[i]));
    new_bound.push_back(std::move(bound[i]));
  }
  rows = std::move(new_rows);
  bound = std::move(new_bound);
}

namespace {

/// Decodes executor output rows (TermIds) into the result's Term rows.
void DecodeRows(const RowBuffer& raw, const Plan& plan, const Dictionary& dict,
                QueryResult* result) {
  result->var_names = plan.output_vars.names();
  result->rows.reserve(raw.rows);
  result->bound.reserve(raw.rows);
  for (size_t r = 0; r < raw.rows; ++r) {
    std::vector<Term> terms;
    std::vector<bool> is_bound;
    terms.reserve(raw.width);
    is_bound.reserve(raw.width);
    const TermId* row = raw.row(r);
    for (size_t c = 0; c < raw.width; ++c) {
      if (row[c] == kNullTermId) {
        terms.emplace_back();
        is_bound.push_back(false);
      } else {
        terms.push_back(dict.term(row[c]));
        is_bound.push_back(true);
      }
    }
    result->rows.push_back(std::move(terms));
    result->bound.push_back(std::move(is_bound));
  }
}

}  // namespace

Result<QueryResult> QueryEngine::Execute(std::string_view sparql) {
  SOFOS_ASSIGN_OR_RETURN(Query query, Parser::Parse(sparql));
  return Execute(&query);
}

Result<QueryResult> QueryEngine::Execute(Query* query) {
  if (!store_->finalized()) {
    return Status::Internal("query engine requires a finalized store");
  }
  QueryResult result;
  WallTimer plan_timer;
  SOFOS_ASSIGN_OR_RETURN(Plan plan, Planner::Build(query, *store_));
  result.stats.plan_micros = plan_timer.ElapsedMicros();

  RowBuffer raw;
  Executor executor(&plan, store_, store_->mutable_dictionary(), options_);
  SOFOS_RETURN_IF_ERROR(executor.Run(&raw, &result.stats));

  DecodeRows(raw, plan, store_->dictionary(), &result);
  return result;
}

Result<RowBuffer> QueryEngine::ExecuteIds(std::string_view sparql) {
  if (!store_->finalized()) {
    return Status::Internal("query engine requires a finalized store");
  }
  SOFOS_ASSIGN_OR_RETURN(Query query, Parser::Parse(sparql));
  SOFOS_ASSIGN_OR_RETURN(Plan plan, Planner::Build(&query, *store_));
  RowBuffer raw;
  ExecStats stats;
  Executor executor(&plan, store_, store_->mutable_dictionary(), options_);
  SOFOS_RETURN_IF_ERROR(executor.Run(&raw, &stats));
  return raw;
}

Result<std::string> QueryEngine::Explain(std::string_view sparql) {
  SOFOS_ASSIGN_OR_RETURN(Query query, Parser::Parse(sparql));
  SOFOS_ASSIGN_OR_RETURN(Plan plan, Planner::Build(&query, *store_));
  return plan.ToString() + Executor::DescribePhysical(plan, *store_, options_);
}

Result<std::string> QueryEngine::Analyze(std::string_view sparql,
                                         QueryResult* result_out) {
  if (!store_->finalized()) {
    return Status::Internal("query engine requires a finalized store");
  }
  SOFOS_ASSIGN_OR_RETURN(Query query, Parser::Parse(sparql));

  ExecOptions options = options_;
  options.analyze = true;

  QueryResult result;
  WallTimer plan_timer;
  SOFOS_ASSIGN_OR_RETURN(Plan plan, Planner::Build(&query, *store_));
  result.stats.plan_micros = plan_timer.ElapsedMicros();

  RowBuffer raw;
  Executor executor(&plan, store_, store_->mutable_dictionary(), options);
  SOFOS_RETURN_IF_ERROR(executor.Run(&raw, &result.stats));

  std::string text = "EXPLAIN ANALYZE\n" +
                     Executor::DescribePhysical(plan, *store_, options) +
                     Executor::RenderAnalyze(plan, result.stats);
  if (result_out != nullptr) {
    DecodeRows(raw, plan, store_->dictionary(), &result);
    *result_out = std::move(result);
  }
  return text;
}

}  // namespace sparql
}  // namespace sofos
