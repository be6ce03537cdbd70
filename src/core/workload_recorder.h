// WorkloadRecorder: an append-only bounded log of the queries the engine
// actually answered — normalized text, routing decision, epoch, latency,
// output rows, cache hit — exportable as a workload the profiler/selector
// can re-profile against *observed* traffic. This is the recorded-workload
// input the self-driving re-selection loop (the ROADMAP's first Deferred
// item) needs: drift triggers and re-selection should be driven by what
// clients really ask, not by the synthetic workload the views were first
// chosen for.
//
// Threading: Record() is called from snapshot query threads and server
// sessions concurrently; one mutex around a fixed-capacity deque. The
// enabled flag is a relaxed atomic so disabled recording costs one load.
#ifndef SOFOS_CORE_WORKLOAD_RECORDER_H_
#define SOFOS_CORE_WORKLOAD_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "core/workload_types.h"

namespace sofos {
namespace core {

/// One answered query as observed at the engine (or served from the
/// result cache by the server, with cache_hit = true).
struct RecordedQuery {
  std::string normalized_sparql;  // NormalizeSparql'd text (cache-key form)
  QuerySignature signature;       // valid when has_signature
  bool has_signature = false;     // false: shape didn't match the facet
  bool used_view = false;
  uint32_t view_mask = 0;         // valid when used_view
  uint64_t epoch = 0;
  double micros = 0.0;
  uint64_t result_rows = 0;
  bool cache_hit = false;
};

class WorkloadRecorder {
 public:
  /// `capacity` bounds the retained log; older entries are evicted (and
  /// counted as dropped) once it is exceeded.
  explicit WorkloadRecorder(size_t capacity = 1024);

  WorkloadRecorder(const WorkloadRecorder&) = delete;
  WorkloadRecorder& operator=(const WorkloadRecorder&) = delete;

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one observation (no-op while disabled — callers may skip the
  /// call via enabled() to avoid building the entry at all).
  void Record(RecordedQuery entry);

  /// Copies the retained log, oldest first.
  std::vector<RecordedQuery> Snapshot() const;

  /// The retained log as a replayable workload: every entry that carries a
  /// facet signature becomes a WorkloadQuery (id "rec-<i>", the normalized
  /// text, the recorded signature). Cache-hit entries recorded by the
  /// server carry no signature and are skipped — each cached answer was
  /// preceded by the recorded miss that produced it, so the workload's
  /// query *shapes* are complete. Re-running the export through
  /// SofosEngine::RunWorkload at the same epoch reproduces the recorded
  /// routing decisions (the acceptance invariant of the telemetry PR).
  std::vector<WorkloadQuery> ExportWorkload() const;

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t recorded_total() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_total() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  const size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::deque<RecordedQuery> ring_;
};

}  // namespace core
}  // namespace sofos

#endif  // SOFOS_CORE_WORKLOAD_RECORDER_H_
