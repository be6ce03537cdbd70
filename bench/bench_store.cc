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

constexpr int kRepetitions = 5;
constexpr double kBatchFraction = 0.005;  // "small delta": 0.5% of |G|
const size_t kShardCounts[] = {1, 2, 4, 8};

struct ShardResult {
  size_t shard_count = 0;
  double finalize_ms = 0.0;
  double apply_delta_ms = 0.0;
  uint64_t shards_rebuilt = 0;
  double cow_clone_us = 0.0;
  double publish_us = 0.0;
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
    r.finalize_ms = bench::Median(finalize_runs);
    r.apply_delta_ms = bench::Median(merge_runs);
    r.cow_clone_us = bench::Median(cow_runs);

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
    r.publish_us = bench::Median(publish_runs);

    out->shards.push_back(r);
  }
  return true;
}

void WriteJson(const std::string& path,
               const std::vector<DatasetResult>& results) {
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
          "      {\"shard_count\": %zu, \"finalize_ms\": %.3f, "
          "\"apply_delta_ms\": %.3f, \"shards_rebuilt\": %llu,\n"
          "       \"cow_clone_us\": %.1f, \"publish_us\": %.1f}%s\n",
          r.shard_count, r.finalize_ms, r.apply_delta_ms,
          static_cast<unsigned long long>(r.shards_rebuilt), r.cow_clone_us,
          r.publish_us, j + 1 < d.shards.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < results.size() ? "," : "");
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
  TablePrinter table({"dataset", "shards", "finalize ms", "delta ms",
                      "rebuilt", "cow us", "publish us"});
  for (const std::string& name : datagen::DatasetNames()) {
    DatasetResult result;
    result.name = name;
    if (!MeasureDataset(name, &pool, &result)) {
      std::fprintf(stderr, "dataset %s failed\n", name.c_str());
      return 1;
    }
    for (const ShardResult& r : result.shards) {
      table.AddRow({result.name, TablePrinter::Cell(uint64_t{r.shard_count}),
                    TablePrinter::Cell(r.finalize_ms, 2),
                    TablePrinter::Cell(r.apply_delta_ms, 2),
                    TablePrinter::Cell(r.shards_rebuilt),
                    TablePrinter::Cell(r.cow_clone_us, 1),
                    TablePrinter::Cell(r.publish_us, 1)});
    }
    results.push_back(result);
  }
  table.Print();

  if (argc > 1) WriteJson(argv[1], results);

  std::printf(
      "\nReading: Clone() is O(shard pointers) regardless of |G| — the COW\n"
      "column stays flat as the graph grows, so epoch publication after a\n"
      "small ApplyUpdates batch does not pay O(n).\n"
      "ApplyDelta rebuilds only the buckets the delta hashes into\n"
      "(`rebuilt` of 2 * shard_count).\n");
  return 0;
}
