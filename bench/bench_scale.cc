/// SC1 — million-triple scale: generation throughput, storage footprint,
/// and query latency of the compact adjacency layout, per scale point:
///
///   gen          parameterized LUBM generation + Finalize at the target
///                triple count (8 shards, pool-parallel)
///   bytes/triple sorted-run baseline vs compact CSR + front-coded
///                dictionary, and the relative cut
///   queries      Q1 (star lookup), Q2 (3-way join), Q3 (group-by over a
///                full predicate) — p50/p95 on both layouts, results
///                asserted byte-identical before any number is reported
///   delta        0.2% staged-delta ApplyDelta on the compact layout, plus
///                the COW Clone() publish proxy
///
///   ./bench_scale [json_path]
///
/// Default scale points are 100k / 300k / 1m triples; set SOFOS_SCALE_BIG=1
/// to append a 10m point (minutes, not seconds). With `json_path` the
/// results are written as BENCH_scale.json (consumed by
/// scripts/run_benches.sh).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/lubm.h"
#include "sparql/query_engine.h"
#include "workload/generator.h"

namespace {

using namespace sofos;

constexpr size_t kShardCount = 8;
constexpr int kQueryReps = 9;
constexpr double kDeltaFraction = 0.002;  // 0.2% of |G|

struct QueryCase {
  const char* name;
  std::string sparql;
};

std::vector<QueryCase> ScaleQueries() {
  const std::string ns = datagen::kLubmNs;
  return {
      // Star lookup on one department: subject-bound scans with a bound
      // predicate — served from the canonical array's subject directory.
      {"q1_star",
       "PREFIX lubm: <" + ns + ">\n"
       "SELECT ?c ?lvl WHERE {\n"
       "  ?c lubm:offeredBy <" + ns + "dept/U0D0> .\n"
       "  ?c lubm:courseLevel ?lvl .\n"
       "}"},
      // Three-way join anchored on one university: exercises CSR node
      // lookups and the planner's fanout-compounding width hint.
      {"q2_join",
       "PREFIX lubm: <" + ns + ">\n"
       "SELECT ?student WHERE {\n"
       "  ?dept lubm:subOrganizationOf <" + ns + "univ/U0> .\n"
       "  ?course lubm:offeredBy ?dept .\n"
       "  ?student lubm:takesCourse ?course .\n"
       "}"},
      // Full group-by over one predicate: streams a whole predicate-family
      // shard set through the hash aggregator.
      {"q3_agg",
       "PREFIX lubm: <" + ns + ">\n"
       "SELECT ?lvl (COUNT(?c) AS ?n) WHERE {\n"
       "  ?c lubm:courseLevel ?lvl .\n"
       "} GROUP BY ?lvl"},
  };
}

/// Canonical rendering of a result set, independent of execution order —
/// the byte-identity oracle between layouts.
std::string RenderCanonical(sparql::QueryResult result) {
  result.SortCanonical();
  std::string out;
  for (size_t r = 0; r < result.rows.size(); ++r) {
    for (size_t c = 0; c < result.rows[r].size(); ++c) {
      out += result.bound[r][c] ? result.rows[r][c].ToNTriples() : "<unbound>";
      out += '|';
    }
    out += '\n';
  }
  return out;
}

struct QueryNumbers {
  const char* name = "";
  uint64_t rows = 0;
  double legacy_p50_us = 0.0, legacy_p95_us = 0.0;
  double compact_p50_us = 0.0, compact_p95_us = 0.0;
};

struct PointResult {
  std::string target;
  uint64_t triples = 0;
  double gen_seconds = 0.0;
  double layout_seconds = 0.0;
  double legacy_bpt = 0.0;
  double compact_bpt = 0.0;
  bool results_identical = true;
  std::vector<QueryNumbers> queries;
  uint64_t delta_ops = 0;
  double delta_apply_ms = 0.0;
  double cow_clone_us = 0.0;

  double CutPct() const {
    return legacy_bpt > 0 ? 100.0 * (1.0 - compact_bpt / legacy_bpt) : 0.0;
  }
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[idx];
}

/// Runs every query `kQueryReps` times against `store`, recording latency
/// samples and the canonical result rendering.
bool TimeQueries(TripleStore* store, const std::vector<QueryCase>& cases,
                 std::vector<std::vector<double>>* samples,
                 std::vector<std::string>* renderings,
                 std::vector<uint64_t>* row_counts) {
  sparql::QueryEngine qe(store);
  samples->assign(cases.size(), {});
  renderings->assign(cases.size(), "");
  row_counts->assign(cases.size(), 0);
  for (size_t q = 0; q < cases.size(); ++q) {
    for (int rep = 0; rep < kQueryReps; ++rep) {
      WallTimer timer;
      auto result = qe.Execute(cases[q].sparql);
      double micros = timer.ElapsedMicros();
      if (!result.ok()) {
        std::fprintf(stderr, "%s: %s\n", cases[q].name,
                     result.status().ToString().c_str());
        return false;
      }
      (*samples)[q].push_back(micros);
      if (rep == 0) {
        (*row_counts)[q] = result->NumRows();
        (*renderings)[q] = RenderCanonical(std::move(result).value());
      }
    }
  }
  return true;
}

bool MeasurePoint(const std::string& target, ThreadPool* pool,
                  PointResult* out) {
  out->target = target;

  auto spec = datagen::ParseScaleSpec(target);
  if (!spec.ok()) return false;

  TripleStore store;
  store.SetShardCount(kShardCount);
  WallTimer gen_timer;
  auto dataset = datagen::GenerateByName("lubm", spec.value(), 42, &store);
  out->gen_seconds = gen_timer.ElapsedSeconds();
  if (!dataset.ok()) return false;
  out->triples = store.NumTriples();
  out->legacy_bpt =
      static_cast<double>(store.MemoryBytes()) / static_cast<double>(out->triples);

  const std::vector<QueryCase> cases = ScaleQueries();
  std::vector<std::vector<double>> legacy_samples, compact_samples;
  std::vector<std::string> legacy_render, compact_render;
  std::vector<uint64_t> legacy_rows, compact_rows;
  if (!TimeQueries(&store, cases, &legacy_samples, &legacy_render,
                   &legacy_rows)) {
    return false;
  }

  WallTimer layout_timer;
  store.SetCompactLayout(true, pool);
  store.mutable_dictionary()->SetFrontCoding(true);
  out->layout_seconds = layout_timer.ElapsedSeconds();
  out->compact_bpt =
      static_cast<double>(store.MemoryBytes()) / static_cast<double>(out->triples);

  if (!TimeQueries(&store, cases, &compact_samples, &compact_render,
                   &compact_rows)) {
    return false;
  }
  for (size_t q = 0; q < cases.size(); ++q) {
    if (legacy_render[q] != compact_render[q]) {
      std::fprintf(stderr, "%s %s: layouts disagree (%llu vs %llu rows)\n",
                   target.c_str(), cases[q].name,
                   static_cast<unsigned long long>(legacy_rows[q]),
                   static_cast<unsigned long long>(compact_rows[q]));
      out->results_identical = false;
    }
    QueryNumbers numbers;
    numbers.name = cases[q].name;
    numbers.rows = legacy_rows[q];
    numbers.legacy_p50_us = Percentile(legacy_samples[q], 0.5);
    numbers.legacy_p95_us = Percentile(legacy_samples[q], 0.95);
    numbers.compact_p50_us = Percentile(compact_samples[q], 0.5);
    numbers.compact_p95_us = Percentile(compact_samples[q], 0.95);
    out->queries.push_back(numbers);
  }
  if (!out->results_identical) return false;

  // Delta maintenance on the compact layout: a 0.2% batch, applied and
  // inverted so the store ends where it started.
  workload::UpdateStreamOptions options;
  options.num_batches = 1;
  options.batch_fraction = kDeltaFraction;
  options.seed = 21;
  auto stream = workload::GenerateUpdateStream(store.triples(),
                                               store.dictionary(), options);
  if (!stream.ok() || stream->empty()) return false;
  std::vector<Triple> adds, deletes;
  for (const auto& t : (*stream)[0].adds) {
    adds.push_back(
        Triple{store.Intern(t.s), store.Intern(t.p), store.Intern(t.o)});
  }
  for (const auto& t : (*stream)[0].deletes) {
    deletes.push_back(
        Triple{store.Intern(t.s), store.Intern(t.p), store.Intern(t.o)});
  }
  out->delta_ops = adds.size() + deletes.size();

  for (const Triple& t : adds) store.StageAdd(t.s, t.p, t.o);
  for (const Triple& t : deletes) store.StageDelete(t.s, t.p, t.o);
  WallTimer merge_timer;
  store.ApplyDelta(pool);
  out->delta_apply_ms = merge_timer.ElapsedMillis();

  WallTimer clone_timer;
  TripleStore snapshot = store.Clone();
  out->cow_clone_us = clone_timer.ElapsedMicros();
  if (snapshot.NumTriples() != store.NumTriples()) return false;

  for (const Triple& t : deletes) store.StageAdd(t.s, t.p, t.o);
  for (const Triple& t : adds) store.StageDelete(t.s, t.p, t.o);
  store.ApplyDelta(pool);
  return true;
}

void WriteJson(const std::string& path, const std::vector<PointResult>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale\",\n");
  std::fprintf(f, "  \"dataset\": \"lubm\",\n  \"shard_count\": %zu,\n",
               kShardCount);
  std::fprintf(f, "  \"query_reps\": %d,\n  \"points\": [\n", kQueryReps);
  for (size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    std::fprintf(
        f,
        "    {\"target\": \"%s\", \"triples\": %llu, \"gen_seconds\": %.3f, "
        "\"load_seconds\": %.3f,\n"
        "     \"legacy_bytes_per_triple\": %.1f, "
        "\"compact_bytes_per_triple\": %.1f, \"bytes_cut_pct\": %.1f,\n"
        "     \"results_identical\": %s, \"queries\": [\n",
        p.target.c_str(), static_cast<unsigned long long>(p.triples),
        p.gen_seconds, p.layout_seconds, p.legacy_bpt, p.compact_bpt,
        p.CutPct(), p.results_identical ? "true" : "false");
    for (size_t q = 0; q < p.queries.size(); ++q) {
      const QueryNumbers& n = p.queries[q];
      std::fprintf(f,
                   "      {\"name\": \"%s\", \"rows\": %llu, "
                   "\"legacy_p50_us\": %.1f, \"legacy_p95_us\": %.1f, "
                   "\"compact_p50_us\": %.1f, \"compact_p95_us\": %.1f}%s\n",
                   n.name, static_cast<unsigned long long>(n.rows),
                   n.legacy_p50_us, n.legacy_p95_us, n.compact_p50_us,
                   n.compact_p95_us, q + 1 < p.queries.size() ? "," : "");
    }
    std::fprintf(f,
                 "     ], \"delta_ops\": %llu, \"delta_apply_ms\": %.3f, "
                 "\"cow_clone_us\": %.1f}%s\n",
                 static_cast<unsigned long long>(p.delta_ops),
                 p.delta_apply_ms, p.cow_clone_us,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  ");
  bench::WriteMemoryJson(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("SC1 | Million-triple scale: compact layout vs sorted runs\n");

  std::vector<std::string> targets = {"100k", "300k", "1m"};
  const char* big = std::getenv("SOFOS_SCALE_BIG");
  if (big != nullptr && big[0] == '1') targets.push_back("10m");

  ThreadPool pool(ThreadPool::DefaultNumThreads());
  std::vector<PointResult> points;
  for (const std::string& target : targets) {
    PointResult point;
    if (!MeasurePoint(target, &pool, &point)) {
      std::fprintf(stderr, "scale point %s failed\n", target.c_str());
      return 1;
    }
    points.push_back(std::move(point));
  }

  TablePrinter table({"target", "triples", "gen s", "layout s", "legacy B/t",
                      "compact B/t", "cut %", "delta ms", "clone us"});
  for (const PointResult& p : points) {
    table.AddRow({p.target, TablePrinter::Cell(p.triples),
                  TablePrinter::Cell(p.gen_seconds, 2),
                  TablePrinter::Cell(p.layout_seconds, 2),
                  TablePrinter::Cell(p.legacy_bpt, 1),
                  TablePrinter::Cell(p.compact_bpt, 1),
                  TablePrinter::Cell(p.CutPct(), 1),
                  TablePrinter::Cell(p.delta_apply_ms, 2),
                  TablePrinter::Cell(p.cow_clone_us, 1)});
  }
  table.Print();

  TablePrinter queries({"target", "query", "rows", "legacy p50", "legacy p95",
                        "compact p50", "compact p95"});
  for (const PointResult& p : points) {
    for (const QueryNumbers& n : p.queries) {
      queries.AddRow({p.target, n.name, TablePrinter::Cell(n.rows),
                      TablePrinter::Cell(n.legacy_p50_us, 1),
                      TablePrinter::Cell(n.legacy_p95_us, 1),
                      TablePrinter::Cell(n.compact_p50_us, 1),
                      TablePrinter::Cell(n.compact_p95_us, 1)});
    }
  }
  queries.Print();

  if (argc > 1) WriteJson(argv[1], points);

  std::printf(
      "\nReading: compact CSR shards + the front-coded dictionary cut\n"
      "bytes/triple by the reported percentage with byte-identical query\n"
      "answers (asserted above, latencies in microseconds). Delta merges\n"
      "decompress only the touched shards; COW clones stay O(shards)\n"
      "regardless of graph size.\n");
  return 0;
}
