// The traced replay: the request and update sequence of a timed window,
// re-run in process on a freshly set-up engine, with a span around every
// call into a layer's public functions (protocol parse, cache key/lookup,
// EngineSnapshot::Answer with its own engine spans, body formatting, cache
// insert; update generation, ApplyUpdates, PublishSnapshot, cache
// carry-forward/eviction). Spans stay in memory and are written out once
// at the end.
#ifndef SOFOS_PERFBENCH_REPLAY_H_
#define SOFOS_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

/// One replayed request: a read of `query`, or an UPDATE of `fraction`.
struct ReplayEvent {
  bool write = false;
  uint32_t query = 0;
  double fraction = 0.0;
};

struct ReplayOptions {
  bool cache = true;
  /// Reads stop once they have taken this much wall time (updates always
  /// replay, so the maintenance figures cover every batch of the window).
  double read_budget_seconds = 4.0;
};

struct ReplayResult {
  /// Span durations and self times (duration minus the part covered by
  /// child spans), by span name, in micros.
  std::map<std::string, std::vector<double>> duration_us;
  std::map<std::string, std::vector<double>> self_us;
  std::vector<double> exec_view_us;  // engine.exec of routed queries
  std::vector<double> exec_base_us;  // engine.exec of base-graph queries
  uint64_t rows_scanned = 0;
  uint64_t result_rows = 0;
  std::vector<double> root_query_ms;  // MaintenanceReport, per batch
  std::vector<double> maintain_ms;
  std::vector<double> merge_ms;
  uint64_t delta_batches = 0;
  uint64_t full_batches = 0;
  uint64_t delta_bindings = 0;
  uint64_t delta_ops = 0;  // adds + deletes of delta-mode batches
  /// Answer() wall time with and without a TraceContext on sampled reads.
  double traced_answer_us = 0.0;
  double untraced_answer_us = 0.0;
  size_t reads_replayed = 0;
  size_t reads_skipped = 0;
  size_t writes_replayed = 0;
  bool ok = true;
  std::string error;
};

/// Replays `events` against `engine` (loaded, views materialized, not
/// serving). `queries` is the distinct query pool. When `spans_path` is
/// non-empty every request's spans are written there as JSON lines.
ReplayResult Replay(sofos::core::SofosEngine* engine,
                    const std::vector<std::string>& queries,
                    const std::vector<ReplayEvent>& events,
                    const ReplayOptions& options,
                    const std::string& spans_path);

}  // namespace perfbench

#endif  // SOFOS_PERFBENCH_REPLAY_H_
