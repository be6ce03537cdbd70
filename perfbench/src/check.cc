#include "check.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "server/http.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

std::vector<std::string> SplitLines(const std::string& text, size_t begin,
                                    size_t end) {
  std::vector<std::string> lines;
  while (begin < end) {
    size_t eol = text.find('\n', begin);
    if (eol == std::string::npos || eol > end) eol = end;
    lines.emplace_back(text, begin, eol - begin);
    begin = eol + 1;
  }
  return lines;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> cells;
  size_t start = 0;
  for (;;) {
    size_t tab = line.find('\t', start);
    cells.push_back(line.substr(start, tab == std::string::npos ? tab : tab - start));
    if (tab == std::string::npos) return cells;
    start = tab + 1;
  }
}

/// A TSV row or "#vars" header rendered the way the HTTP adapter renders
/// it: comma-separated JSON strings (without the enclosing brackets).
std::string JsonCells(const std::vector<std::string>& cells, size_t first) {
  std::string out;
  for (size_t i = first; i < cells.size(); ++i) {
    if (i > first) out += ',';
    out += '"' + sofos::server::JsonEscape(cells[i]) + '"';
  }
  return out;
}

/// The bracketed arrays directly inside the JSON array that starts at
/// `pos` (which points at its '['), each without its own brackets.
std::vector<std::string> JsonRows(const std::string& json, size_t pos) {
  std::vector<std::string> rows;
  bool in_string = false;
  int depth = 0;
  size_t row_start = 0;
  for (size_t i = pos; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      if (++depth == 2) row_start = i + 1;
    } else if (c == ']') {
      if (depth == 2) rows.emplace_back(json, row_start, i - row_start);
      if (--depth == 0) break;
    }
  }
  return rows;
}

}  // namespace

std::vector<ReferenceAnswer> ComputeReferences(
    const sofos::core::EngineSnapshot& snapshot,
    const std::vector<std::string>& queries, unsigned threads) {
  std::vector<ReferenceAnswer> references(queries.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < queries.size(); i = next++) {
      auto outcome = snapshot.Answer(queries[i], /*allow_views=*/false);
      if (!outcome.ok()) continue;
      outcome->result.SortCanonical();
      const std::string body = sofos::server::FormatQueryBody(outcome->result);
      std::vector<std::string> lines = SplitLines(body, 0, body.size());
      if (lines.empty()) continue;
      ReferenceAnswer& ref = references[i];
      ref.vars_line = lines.front();
      ref.rows.assign(lines.begin() + 1, lines.end());
      std::sort(ref.rows.begin(), ref.rows.end());
      ref.ok = true;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return references;
}

bool LineReplyMatches(const ReferenceAnswer& expected,
                      const std::string& reply) {
  // Header line, "#vars" line, rows, "END".
  if (!expected.ok || reply.rfind("OK QUERY", 0) != 0) return false;
  std::vector<std::string> lines = SplitLines(reply, 0, reply.size());
  if (lines.size() < 3 || lines.back() != sofos::server::kEndMarker) {
    return false;
  }
  if (lines[1] != expected.vars_line) return false;
  std::vector<std::string> rows(lines.begin() + 2, lines.end() - 1);
  std::sort(rows.begin(), rows.end());
  return rows == expected.rows;
}

bool HttpReplyMatches(const ReferenceAnswer& expected,
                      const std::string& response) {
  if (!expected.ok || response.rfind("HTTP/1.0 200", 0) != 0) return false;
  const size_t vars = response.find("\"vars\":[");
  const size_t bindings = response.find("\"bindings\":[");
  if (vars == std::string::npos || bindings == std::string::npos) return false;
  const std::string expected_vars =
      "\"vars\":[" + JsonCells(SplitTabs(expected.vars_line), 1) + "],";
  if (response.compare(vars, expected_vars.size(), expected_vars) != 0) {
    return false;
  }
  std::vector<std::string> rows =
      JsonRows(response, bindings + sizeof("\"bindings\":") - 1);
  if (rows.size() != expected.rows.size()) return false;
  std::vector<std::string> expected_rows;
  expected_rows.reserve(expected.rows.size());
  for (const std::string& row : expected.rows) {
    expected_rows.push_back(JsonCells(SplitTabs(row), 0));
  }
  std::sort(rows.begin(), rows.end());
  std::sort(expected_rows.begin(), expected_rows.end());
  return rows == expected_rows;
}

}  // namespace perfbench
