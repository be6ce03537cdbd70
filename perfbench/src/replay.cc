#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <utility>

#include "common/trace.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using sofos::ScopedSpan;
using sofos::TraceContext;
using sofos::TraceSpan;

/// Replayed reads stop at this count even within the time budget (cache
/// hits are cheap, and every request's spans stay in memory).
constexpr size_t kMaxReads = 20000;
/// Every n-th executed read also runs untraced, for the overhead figure.
constexpr size_t kOverheadSampleEvery = 8;

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Adds every span's duration and self time to `result`.
void Aggregate(const std::vector<TraceSpan>& spans, ReplayResult* result) {
  for (const TraceSpan& span : spans) {
    std::vector<std::pair<double, double>> children;
    for (const TraceSpan& child : spans) {
      if (child.parent_id != span.id) continue;
      children.emplace_back(std::max(child.start_micros, span.start_micros),
                            std::min(child.end_micros, span.end_micros));
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0, reach = span.start_micros;
    for (const auto& [begin, end] : children) {
      const double from = std::max(begin, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    const double duration = span.end_micros - span.start_micros;
    result->duration_us[span.name].push_back(duration);
    result->self_us[span.name].push_back(duration - covered);
  }
}

void WriteSpans(const std::string& path,
                const std::vector<std::vector<TraceSpan>>& requests) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (size_t r = 0; r < requests.size(); ++r) {
    for (const TraceSpan& s : requests[r]) {
      std::fprintf(out,
                   "{\"request\":%zu,\"id\":%llu,\"parent\":%llu,"
                   "\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                   r, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent_id), s.name.c_str(),
                   s.start_micros, s.end_micros - s.start_micros);
    }
  }
  std::fclose(out);
}

/// Mirrors the server's QUERY path: parse, cache key + lookup, Answer,
/// format, insert.
class ReadReplayer {
 public:
  ReadReplayer(sofos::core::SofosEngine* engine,
               sofos::server::ResultCache* cache, ReplayResult* result)
      : engine_(engine), cache_(cache), result_(result) {}

  bool Run(const std::string& sparql, TraceContext* trace) {
    ScopedSpan root(trace, "replay.read");
    std::string arg;
    {
      ScopedSpan span(trace, "server.parse", root.id());
      auto request = sofos::server::ParseRequest("QUERY " + sparql);
      if (!request.ok()) return Fail(request.status().ToString());
      arg = request->arg;
    }
    auto snapshot = engine_->CurrentSnapshot();
    std::string key;
    if (cache_ != nullptr) {
      ScopedSpan span(trace, "cache.lookup", root.id());
      key = sofos::server::ResultCache::MakeKey(
          sofos::server::NormalizeQueryText(arg), snapshot->epoch(), true);
      std::string entry;
      if (cache_->Lookup(key, &entry)) return true;
    }
    if (++executed_ % kOverheadSampleEvery == 0) {
      SampleOverhead(*snapshot, arg);
    }
    auto outcome = snapshot->Answer(arg, /*allow_views=*/true, trace);
    if (!outcome.ok()) return Fail(outcome.status().ToString());
    for (const TraceSpan& span : trace->Spans()) {
      if (span.name != "engine.exec") continue;
      (outcome->used_view ? result_->exec_view_us : result_->exec_base_us)
          .push_back(span.end_micros - span.start_micros);
    }
    result_->rows_scanned += outcome->rows_scanned;
    result_->result_rows += outcome->result_rows;
    std::string body;
    {
      ScopedSpan span(trace, "server.format", root.id());
      body = sofos::server::FormatQueryBody(outcome->result);
    }
    if (cache_ != nullptr) {
      ScopedSpan span(trace, "cache.insert", root.id());
      const std::string view =
          outcome->used_view ? std::to_string(outcome->view_mask) : "";
      cache_->Insert(key, snapshot->epoch(), std::move(body), outcome->micros,
                     -1.0, view);
    }
    return true;
  }

 private:
  bool Fail(const std::string& error) {
    result_->ok = false;
    result_->error = error;
    return false;
  }

  /// Times Answer() with and without a TraceContext, alternating which
  /// runs first so neither always sees the warmer caches.
  void SampleOverhead(const sofos::core::EngineSnapshot& snapshot,
                      const std::string& arg) {
    const bool traced_first = samples_++ % 2 == 0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == traced_first;
      TraceContext discarded;
      const auto start = std::chrono::steady_clock::now();
      auto outcome = snapshot.Answer(arg, true, traced ? &discarded : nullptr);
      const double micros = MicrosSince(start);
      if (!outcome.ok()) return;
      (traced ? result_->traced_answer_us : result_->untraced_answer_us) +=
          micros;
    }
  }

  sofos::core::SofosEngine* engine_;
  sofos::server::ResultCache* cache_;
  ReplayResult* result_;
  size_t executed_ = 0;
  size_t samples_ = 0;
};

/// Mirrors the server's UPDATE path: generate the batch the server would
/// (same seed rule), apply, publish, carry untouched cached answers
/// forward and evict the rest.
bool ReplayWrite(sofos::core::SofosEngine* engine, double fraction,
                 uint64_t batches_applied, sofos::server::ResultCache* cache,
                 TraceContext* trace, ReplayResult* result) {
  ScopedSpan root(trace, "replay.write");
  sofos::workload::UpdateStreamOptions options;
  options.num_batches = 1;
  options.batch_fraction = fraction;
  options.seed = 99 + batches_applied;
  std::vector<sofos::core::maintenance::GraphDelta> stream;
  {
    ScopedSpan span(trace, "maint.generate", root.id());
    auto generated = sofos::workload::GenerateUpdateStream(
        engine->base_snapshot(), engine->store()->dictionary(), options);
    if (!generated.ok() || generated->empty()) {
      result->ok = false;
      result->error = "update generation failed";
      return false;
    }
    stream = std::move(generated).value();
  }
  sofos::Result<sofos::core::UpdateOutcome> outcome =
      sofos::Status::Internal("not applied");
  {
    ScopedSpan span(trace, "maint.apply", root.id());
    outcome = engine->ApplyUpdates(stream.front());
  }
  if (!outcome.ok()) {
    result->ok = false;
    result->error = outcome.status().ToString();
    return false;
  }
  const auto& report = outcome->maintenance;
  result->root_query_ms.push_back(report.root_query_micros / 1000.0);
  result->maintain_ms.push_back(report.maintain_micros / 1000.0);
  result->merge_ms.push_back(report.merge_micros / 1000.0);
  using sofos::core::maintenance::MaintainMode;
  if (report.mode == MaintainMode::kDelta) {
    ++result->delta_batches;
    result->delta_bindings += report.delta_bindings;
    result->delta_ops += stream.front().size();
  } else if (report.mode == MaintainMode::kFull) {
    ++result->full_batches;
  }

  std::set<uint32_t> touched;
  for (const auto& view : report.views) {
    if (view.touched()) touched.insert(view.mask);
  }
  std::vector<std::string> untouched;
  for (uint32_t mask : engine->MaterializedMasks()) {
    if (touched.count(mask) == 0) untouched.push_back(std::to_string(mask));
  }
  const uint64_t previous_epoch = engine->CurrentSnapshot()->epoch();
  uint64_t epoch = 0;
  {
    ScopedSpan span(trace, "core.publish", root.id());
    auto snapshot = engine->PublishSnapshot();
    if (!snapshot.ok()) {
      result->ok = false;
      result->error = snapshot.status().ToString();
      return false;
    }
    epoch = (*snapshot)->epoch();
  }
  if (cache != nullptr) {
    ScopedSpan span(trace, "cache.carry", root.id());
    if (!untouched.empty() && epoch > previous_epoch) {
      cache->CarryForward(previous_epoch, epoch, untouched);
    }
    cache->EvictObsolete(epoch);
  }
  return true;
}

}  // namespace

ReplayResult Replay(sofos::core::SofosEngine* engine,
                    const std::vector<std::string>& queries,
                    const std::vector<ReplayEvent>& events,
                    const ReplayOptions& options,
                    const std::string& spans_path) {
  ReplayResult result;
  sofos::server::ResultCache cache{sofos::server::ResultCacheOptions{}};
  sofos::server::ResultCache* cache_ptr = options.cache ? &cache : nullptr;
  std::vector<std::vector<TraceSpan>> requests;

  // The initial publish the server performs at Start().
  {
    TraceContext trace;
    {
      ScopedSpan span(&trace, "core.publish");
      auto snapshot = engine->PublishSnapshot();
      if (!snapshot.ok()) {
        result.ok = false;
        result.error = snapshot.status().ToString();
        return result;
      }
    }
    requests.push_back(trace.Spans());
  }

  ReadReplayer reader(engine, cache_ptr, &result);
  double read_seconds = 0.0;
  uint64_t batches_applied = 0;
  for (const ReplayEvent& event : events) {
    const bool skip_read =
        !event.write && (read_seconds >= options.read_budget_seconds ||
                         result.reads_replayed >= kMaxReads);
    if (skip_read) {
      ++result.reads_skipped;
      continue;
    }
    TraceContext trace;
    const auto start = std::chrono::steady_clock::now();
    if (event.write) {
      if (!ReplayWrite(engine, event.fraction, batches_applied++, cache_ptr,
                       &trace, &result)) {
        break;
      }
      ++result.writes_replayed;
    } else {
      if (!reader.Run(queries[event.query], &trace)) break;
      ++result.reads_replayed;
      read_seconds += MicrosSince(start) / 1e6;
    }
    requests.push_back(trace.Spans());
  }

  for (const auto& spans : requests) Aggregate(spans, &result);
  if (!spans_path.empty()) WriteSpans(spans_path, requests);
  return result;
}

}  // namespace perfbench
