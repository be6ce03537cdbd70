/// S1 — sharded copy-on-write TripleStore, per dataset and shard count:
///
///   Finalize()    full rebuild cost at 1/2/4/8 shards (pool-parallel
///                 per-shard sorts)
///   ApplyDelta()  0.5% staged-delta merge cost + how many of the
///                 2 * shard_count buckets it actually rebuilt
///   Clone()       COW snapshot clone: O(shard pointers), flat in |G|
///   publish       SofosEngine::PublishSnapshot() after a 0.5%
///                 ApplyUpdates batch — the O(changed shards) headline
///                 number
///   size sweep    one 0.1% ApplyUpdates batch (3 views, auto mode, the
///                 engine's default threads) at 100k, 300k and 1M triples
///                 on lubm and geopop: what is left of a small batch once
///                 the Δ algebra is O(Δ) is the store merge, which
///                 rewrites the canonical array and grows with |G+|
///
/// The shard sweep reports the median of kRepetitions runs (store level)
/// or batches (publish) with its quartiles.
///
///   ./bench_store [json_path]
///
/// With `json_path` the results are written as BENCH_store.json (the
/// perf-trajectory artifact consumed by scripts/run_benches.sh).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "workload/generator.h"

namespace {

using namespace sofos;

// Shard sweep samples: store-level runs, and 0.5% update batches before
// each measured publish (21 batches grow the demo graphs by about 2% net).
constexpr int kRepetitions = 21;
constexpr double kBatchFraction = 0.005;  // "small delta": 0.5% of |G|
const size_t kShardCounts[] = {1, 2, 4, 8};

constexpr double kSweepFraction = 0.001;
constexpr int kSweepBatches = 9;  // after one unmeasured batch
const char* const kSweepDatasets[] = {"lubm", "geopop"};
const char* const kSweepScales[] = {"100k", "300k", "1m"};

struct SizePoint {
  std::string scale;
  uint64_t base_triples = 0;
  uint64_t current_triples = 0;
  double apply_updates_ms = 0.0;  // median whole ApplyUpdates
  double root_ms = 0.0;           // median root repair
  double merge_ms = 0.0;          // median store merge
};

struct SizeSweep {
  std::string name;
  std::vector<SizePoint> points;
};

struct ShardResult {
  size_t shard_count = 0;
  bench::Spread finalize_ms;
  bench::Spread apply_delta_ms;
  uint64_t shards_rebuilt = 0;
  bench::Spread cow_clone_us;
  bench::Spread publish_us;
};

struct DatasetResult {
  std::string name;
  uint64_t base_triples = 0;
  uint64_t delta_ops = 0;
  std::vector<ShardResult> shards;
};

bool MeasureDataset(const std::string& dataset, ThreadPool* pool,
                    DatasetResult* out) {
  for (size_t shard_count : kShardCounts) {
    ShardResult r;
    r.shard_count = shard_count;

    // ---- Store level: Finalize / ApplyDelta / Clone -----------------
    TripleStore store;
    store.SetShardCount(shard_count);
    auto spec =
        datagen::GenerateByName(dataset, datagen::Scale::kDemo, 42, &store);
    if (!spec.ok()) return false;
    out->base_triples = store.NumTriples();

    workload::UpdateStreamOptions options;
    options.num_batches = 1;
    options.batch_fraction = kBatchFraction;
    options.seed = 21;
    auto stream = workload::GenerateUpdateStream(
        core::BaseGraphView(store), store.dictionary(), options);
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

    std::vector<double> finalize_runs, merge_runs, cow_runs;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      std::vector<Triple> content = store.triples();
      store.ReplaceTriples(std::move(content));
      WallTimer finalize_timer;
      store.Finalize(pool);
      finalize_runs.push_back(finalize_timer.ElapsedMillis());

      for (const Triple& t : adds) store.StageAdd(t.s, t.p, t.o);
      for (const Triple& t : deletes) store.StageDelete(t.s, t.p, t.o);
      WallTimer merge_timer;
      DeltaApplyResult merged = store.ApplyDelta(pool);
      merge_runs.push_back(merge_timer.ElapsedMillis());
      r.shards_rebuilt = merged.shards_rebuilt;

      WallTimer cow_timer;
      TripleStore cow = store.Clone();
      cow_runs.push_back(cow_timer.ElapsedMicros());
      if (cow.NumTriples() != store.NumTriples()) return false;

      // Invert the delta so every repetition starts from the same state.
      for (const Triple& t : deletes) store.StageAdd(t.s, t.p, t.o);
      for (const Triple& t : adds) store.StageDelete(t.s, t.p, t.o);
      store.ApplyDelta(pool);
    }
    r.finalize_ms = bench::SpreadOf(finalize_runs);
    r.apply_delta_ms = bench::SpreadOf(merge_runs);
    r.cow_clone_us = bench::SpreadOf(cow_runs);

    // ---- Engine level: PublishSnapshot after a 0.5% update batch ----
    core::SofosEngine engine;
    engine.SetShardCount(static_cast<unsigned>(shard_count));
    bench::LoadEngine(&engine, dataset, datagen::Scale::kDemo);
    core::TripleCountCostModel model;
    auto selection = engine.SelectViews(model, 3);
    if (!selection.ok()) return false;
    if (!engine.MaterializeSelection(*selection).ok()) return false;
    if (!engine.PublishSnapshot().ok()) return false;

    workload::UpdateStreamOptions engine_options;
    engine_options.num_batches = kRepetitions;
    engine_options.batch_fraction = kBatchFraction;
    engine_options.seed = 23;
    auto engine_stream = workload::GenerateUpdateStream(
        engine.base_snapshot(), engine.store()->dictionary(), engine_options);
    if (!engine_stream.ok()) return false;
    std::vector<double> publish_runs;
    for (const auto& delta : *engine_stream) {
      if (!engine.ApplyUpdates(delta).ok()) return false;
      WallTimer publish_timer;
      if (!engine.PublishSnapshot().ok()) return false;
      publish_runs.push_back(publish_timer.ElapsedMicros());
    }
    r.publish_us = bench::SpreadOf(publish_runs);

    out->shards.push_back(r);
  }
  return true;
}

/// One engine per scale, set up like perfbench (3 views by triple count),
/// then kSweepBatches measured 0.1% batches with perfbench's seed rule.
bool MeasureSizeSweep(const std::string& dataset, SizeSweep* out) {
  out->name = dataset;
  for (const char* scale_name : kSweepScales) {
    auto scale = datagen::ParseScaleSpec(scale_name);
    if (!scale.ok()) return false;
    core::SofosEngine engine;
    TripleStore store;
    store.SetShardCount(engine.ResolvedShardCount());
    auto spec = datagen::GenerateByName(dataset, *scale, 42, &store);
    if (!spec.ok()) return false;
    auto facet = core::Facet::FromSparql(spec->facet_sparql, spec->name,
                                         spec->dim_labels);
    if (!facet.ok()) return false;
    if (!engine.LoadStore(std::move(store)).ok()) return false;
    if (!engine.SetFacet(std::move(facet).value()).ok()) return false;
    if (!engine.Profile().ok()) return false;
    core::TripleCountCostModel model;
    auto selection = engine.SelectViews(model, 3);
    if (!selection.ok()) return false;
    if (!engine.MaterializeSelection(*selection).ok()) return false;

    SizePoint point;
    point.scale = scale_name;
    point.base_triples = engine.BaseTriples();
    std::vector<double> apply_runs, root_runs, merge_runs;
    for (int b = 0; b <= kSweepBatches; ++b) {
      workload::UpdateStreamOptions options;
      options.num_batches = 1;
      options.batch_fraction = kSweepFraction;
      options.seed = 99 + static_cast<uint64_t>(b);
      auto stream = workload::GenerateUpdateStream(
          engine.base_snapshot(), engine.store()->dictionary(), options);
      if (!stream.ok() || stream->empty()) return false;
      auto outcome = engine.ApplyUpdates((*stream)[0]);
      if (!outcome.ok()) return false;
      if (b == 0) continue;
      apply_runs.push_back(outcome->total_micros / 1000.0);
      root_runs.push_back(outcome->maintenance.root_query_micros / 1000.0);
      merge_runs.push_back(outcome->maintenance.merge_micros / 1000.0);
    }
    point.current_triples = engine.CurrentTriples();
    point.apply_updates_ms = bench::Median(apply_runs);
    point.root_ms = bench::Median(root_runs);
    point.merge_ms = bench::Median(merge_runs);
    out->points.push_back(point);
  }
  return true;
}

void WriteJson(const std::string& path,
               const std::vector<DatasetResult>& results,
               const std::vector<SizeSweep>& sweeps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"store\",\n");
  std::fprintf(f, "  \"batch_fraction\": %.4f,\n  \"repetitions\": %d,\n",
               kBatchFraction, kRepetitions);
  std::fprintf(f, "  \"datasets\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const DatasetResult& d = results[i];
    std::fprintf(
        f, "    {\"name\": \"%s\", \"base_triples\": %llu, \"delta_ops\": %llu,\n"
           "     \"shards\": [\n",
        d.name.c_str(), static_cast<unsigned long long>(d.base_triples),
        static_cast<unsigned long long>(d.delta_ops));
    for (size_t j = 0; j < d.shards.size(); ++j) {
      const ShardResult& r = d.shards[j];
      std::fprintf(
          f,
          "      {\"shard_count\": %zu, \"shards_rebuilt\": %llu,\n"
          "       \"finalize_ms\": %.3f, \"finalize_q1_ms\": %.3f, "
          "\"finalize_q3_ms\": %.3f,\n"
          "       \"apply_delta_ms\": %.3f, \"apply_delta_q1_ms\": %.3f, "
          "\"apply_delta_q3_ms\": %.3f,\n"
          "       \"cow_clone_us\": %.1f, \"cow_clone_q1_us\": %.1f, "
          "\"cow_clone_q3_us\": %.1f,\n"
          "       \"publish_us\": %.1f, \"publish_q1_us\": %.1f, "
          "\"publish_q3_us\": %.1f}%s\n",
          r.shard_count, static_cast<unsigned long long>(r.shards_rebuilt),
          r.finalize_ms.median, r.finalize_ms.q1, r.finalize_ms.q3,
          r.apply_delta_ms.median, r.apply_delta_ms.q1, r.apply_delta_ms.q3,
          r.cow_clone_us.median, r.cow_clone_us.q1, r.cow_clone_us.q3,
          r.publish_us.median, r.publish_us.q1, r.publish_us.q3,
          j + 1 < d.shards.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"size_sweep_fraction\": %.4f,\n  \"size_sweep\": [\n",
               kSweepFraction);
  for (size_t i = 0; i < sweeps.size(); ++i) {
    const SizeSweep& sweep = sweeps[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"points\": [\n",
                 sweep.name.c_str());
    for (size_t j = 0; j < sweep.points.size(); ++j) {
      const SizePoint& p = sweep.points[j];
      std::fprintf(
          f,
          "      {\"name\": \"%s\", \"base_triples\": %llu, "
          "\"current_triples\": %llu,\n"
          "       \"apply_updates_ms\": %.3f, \"root_ms\": %.3f, "
          "\"merge_ms\": %.3f}%s\n",
          p.scale.c_str(), static_cast<unsigned long long>(p.base_triples),
          static_cast<unsigned long long>(p.current_triples),
          p.apply_updates_ms, p.root_ms, p.merge_ms,
          j + 1 < sweep.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  ");
  bench::WriteMemoryJson(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "S1 | Sharded COW TripleStore: rebuild / delta merge / snapshot "
      "clone (%.1f%% deltas)\n",
      kBatchFraction * 100.0);

  ThreadPool pool(4);
  std::vector<DatasetResult> results;
  TablePrinter table({"dataset", "shards", "finalize ms (q1-q3)",
                      "delta ms (q1-q3)", "rebuilt", "cow us (q1-q3)",
                      "publish us (q1-q3)"});
  for (const std::string& name : datagen::DatasetNames()) {
    DatasetResult result;
    result.name = name;
    if (!MeasureDataset(name, &pool, &result)) {
      std::fprintf(stderr, "dataset %s failed\n", name.c_str());
      return 1;
    }
    for (const ShardResult& r : result.shards) {
      table.AddRow({result.name, TablePrinter::Cell(uint64_t{r.shard_count}),
                    bench::SpreadCell(r.finalize_ms, 2),
                    bench::SpreadCell(r.apply_delta_ms, 2),
                    TablePrinter::Cell(r.shards_rebuilt),
                    bench::SpreadCell(r.cow_clone_us, 1),
                    bench::SpreadCell(r.publish_us, 1)});
    }
    results.push_back(result);
  }
  table.Print();

  std::printf("\nS1 | One %.1f%% ApplyUpdates batch by graph size\n",
              kSweepFraction * 100.0);
  std::vector<SizeSweep> sweeps;
  TablePrinter sweep_table({"dataset", "scale", "|G|", "|G+|",
                            "ApplyUpdates ms", "root ms", "merge ms"});
  for (const char* name : kSweepDatasets) {
    SizeSweep sweep;
    if (!MeasureSizeSweep(name, &sweep)) {
      std::fprintf(stderr, "size sweep on %s failed\n", name);
      return 1;
    }
    for (const SizePoint& p : sweep.points) {
      sweep_table.AddRow({sweep.name, p.scale,
                          TablePrinter::Cell(p.base_triples),
                          TablePrinter::Cell(p.current_triples),
                          TablePrinter::Cell(p.apply_updates_ms, 2),
                          TablePrinter::Cell(p.root_ms, 2),
                          TablePrinter::Cell(p.merge_ms, 2)});
    }
    sweeps.push_back(std::move(sweep));
  }
  sweep_table.Print();

  if (argc > 1) WriteJson(argv[1], results, sweeps);

  std::printf(
      "\nReading: Clone() is O(shard pointers) regardless of |G| — the COW\n"
      "column stays flat as the graph grows, so epoch publication after a\n"
      "small ApplyUpdates batch does not pay O(n).\n"
      "ApplyDelta rebuilds only the buckets the delta hashes into\n"
      "(`rebuilt` of 2 * shard_count). The size sweep's ApplyUpdates grows\n"
      "with |G+| while its root repair stays small: the merge rewrites the\n"
      "canonical array, the O(|G+|) floor a delta overlay would remove.\n");
  return 0;
}
