// The answer check: a served answer is correct when its rows equal, as a
// multiset, the rows of EngineSnapshot::Answer(q, allow_views=false) after
// SortCanonical() — the base-graph answer, so view routing, rewriting,
// maintenance and caching are all checked against it.
#ifndef SOFOS_PERFBENCH_CHECK_H_
#define SOFOS_PERFBENCH_CHECK_H_

#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

struct ReferenceAnswer {
  bool ok = false;
  std::string vars_line;          // "#vars\t..." of FormatQueryBody
  std::vector<std::string> rows;  // TSV row lines, sorted
};

/// Base-graph answers for every query, computed on up to `threads`
/// threads (snapshot queries are thread-safe).
std::vector<ReferenceAnswer> ComputeReferences(
    const sofos::core::EngineSnapshot& snapshot,
    const std::vector<std::string>& queries, unsigned threads);

/// True when a raw line-protocol QUERY reply carries exactly `expected`.
bool LineReplyMatches(const ReferenceAnswer& expected, const std::string& reply);

/// True when a raw HTTP /query response carries exactly `expected`.
bool HttpReplyMatches(const ReferenceAnswer& expected,
                      const std::string& response);

}  // namespace perfbench

#endif  // SOFOS_PERFBENCH_CHECK_H_
