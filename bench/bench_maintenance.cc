/// M1 — incremental maintenance vs the full-recompute path, per dataset:
///
///   store level:  TripleStore::ApplyDelta (staged delta, six linear
///                 merges) vs a full six-way re-Finalize of the same final
///                 graph, for a small-delta workload (~0.5% of |G|).
///   engine level: SofosEngine::ApplyUpdates in its default (auto) mode
///                 vs the same call under MaintainOptions kForceFull
///                 (re-evaluate the root view and diff it), same stream.
///   sweep:        forced delta vs forced full ApplyUpdates on geopop and
///                 lubm at 300k across delta sizes from 0.01% to 5%, with
///                 the delta path's root-repair µs per Δ-binding (flat when
///                 the Δ algebra is O(Δ) at every batch size).
///
///   ./bench_maintenance [json_path]
///
/// With `json_path` the results are written as BENCH_maintenance.json (the
/// perf-trajectory artifact consumed by scripts/run_benches.sh).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "workload/generator.h"

namespace {

using namespace sofos;

constexpr int kRepetitions = 3;
constexpr double kBatchFraction = 0.005;  // "small delta": 0.5% of |G|

/// Delta-size sweep: delta-rule maintenance vs full root re-evaluation
/// across delta sizes at a scale where the asymptotic gap is visible.
/// Fractions bracket the default auto-crossover (0.02).
constexpr const char* kSweepDatasets[] = {"geopop", "lubm"};
constexpr const char* kSweepScale = "300k";
constexpr double kSweepFractions[] = {0.0001, 0.001, 0.01, 0.025, 0.05};

struct DatasetResult {
  std::string name;
  uint64_t base_triples = 0;
  uint64_t delta_ops = 0;
  double delta_merge_ms = 0.0;
  double full_finalize_ms = 0.0;
  double incremental_ms = 0.0;
  double full_update_ms = 0.0;

  double StoreSpeedup() const {
    return delta_merge_ms > 0 ? full_finalize_ms / delta_merge_ms : 0.0;
  }
  double EngineSpeedup() const {
    return incremental_ms > 0 ? full_update_ms / incremental_ms : 0.0;
  }
};

/// Interns a term-level delta against `store`'s dictionary.
void EncodeDelta(TripleStore* store, const core::maintenance::GraphDelta& delta,
                 std::vector<Triple>* adds, std::vector<Triple>* deletes) {
  for (const auto& t : delta.adds) {
    adds->push_back(Triple{store->Intern(t.s), store->Intern(t.p),
                           store->Intern(t.o)});
  }
  for (const auto& t : delta.deletes) {
    deletes->push_back(Triple{store->Intern(t.s), store->Intern(t.p),
                              store->Intern(t.o)});
  }
}

/// Store-level comparison: merge a small delta vs re-finalizing the whole
/// graph that results from it. The delta is applied and then inverted so
/// every repetition starts from the same state.
bool MeasureStore(const std::string& dataset, DatasetResult* out) {
  TripleStore store;
  auto spec = datagen::GenerateByName(dataset, datagen::Scale::kDemo, 42, &store);
  if (!spec.ok()) return false;
  out->base_triples = store.NumTriples();

  workload::UpdateStreamOptions options;
  options.num_batches = 1;
  options.batch_fraction = kBatchFraction;
  options.seed = 21;
  auto stream =
      workload::GenerateUpdateStream(core::BaseGraphView(store),
                                     store.dictionary(), options);
  if (!stream.ok() || stream->empty()) return false;
  std::vector<Triple> adds, deletes;
  EncodeDelta(&store, (*stream)[0], &adds, &deletes);
  out->delta_ops = adds.size() + deletes.size();

  std::vector<double> merge_runs, finalize_runs;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    // Forward delta through the staged-merge path.
    for (const Triple& t : adds) store.StageAdd(t.s, t.p, t.o);
    for (const Triple& t : deletes) store.StageDelete(t.s, t.p, t.o);
    WallTimer merge_timer;
    store.ApplyDelta();
    merge_runs.push_back(merge_timer.ElapsedMillis());

    // The legacy path would rebuild the same final graph with a full
    // six-way re-sort: time exactly that on identical content.
    std::vector<Triple> content = store.triples();
    store.ReplaceTriples(std::move(content));
    WallTimer finalize_timer;
    store.Finalize();
    finalize_runs.push_back(finalize_timer.ElapsedMillis());

    // Invert the delta to restore the starting state for the next rep.
    for (const Triple& t : deletes) store.StageAdd(t.s, t.p, t.o);
    for (const Triple& t : adds) store.StageDelete(t.s, t.p, t.o);
    store.ApplyDelta();
  }
  out->delta_merge_ms = bench::Median(merge_runs);
  out->full_finalize_ms = bench::Median(finalize_runs);
  return true;
}

/// Engine-level comparison: ApplyUpdates in auto mode (incremental
/// maintenance) vs ApplyUpdates under kForceFull (the full-recompute
/// path), same update stream, same selected views.
bool MeasureEngine(const std::string& dataset, DatasetResult* out) {
  auto setup = [&](core::SofosEngine* engine,
                   core::maintenance::MaintainOptions::Mode mode) -> bool {
    bench::LoadEngine(engine, dataset, datagen::Scale::kDemo);
    core::TripleCountCostModel model;
    auto selection = engine->SelectViews(model, 3);
    if (!selection.ok()) return false;
    if (!engine->MaterializeSelection(*selection).ok()) return false;
    core::maintenance::MaintainOptions options;
    options.mode = mode;
    engine->SetMaintainOptions(options);
    return true;
  };
  core::SofosEngine incremental, full;
  if (!setup(&incremental, core::maintenance::MaintainOptions::Mode::kAuto) ||
      !setup(&full, core::maintenance::MaintainOptions::Mode::kForceFull)) {
    return false;
  }

  workload::UpdateStreamOptions options;
  options.num_batches = kRepetitions;
  options.batch_fraction = kBatchFraction;
  options.seed = 23;
  auto stream = workload::GenerateUpdateStream(
      incremental.base_snapshot(), incremental.store()->dictionary(), options);
  if (!stream.ok()) return false;

  auto run = [&](core::SofosEngine* engine, std::vector<double>* runs) {
    for (const auto& delta : *stream) {
      WallTimer timer;
      if (!engine->ApplyUpdates(delta).ok()) return false;
      runs->push_back(timer.ElapsedMillis());
    }
    return true;
  };
  std::vector<double> incremental_runs, full_runs;
  if (!run(&incremental, &incremental_runs) || !run(&full, &full_runs)) {
    return false;
  }
  out->incremental_ms = bench::Median(incremental_runs);
  out->full_update_ms = bench::Median(full_runs);
  return true;
}

struct SweepPoint {
  double fraction = 0.0;
  uint64_t delta_ops = 0;
  uint64_t delta_bindings = 0;
  double root_us = 0.0;        // median delta-mode root repair
  double root_us_per_binding = 0.0;
  double delta_mode_us = 0.0;  // median ApplyUpdates micros, delta rules
  double full_mode_us = 0.0;   // median ApplyUpdates micros, root recompute

  double Speedup() const {
    return delta_mode_us > 0 ? full_mode_us / delta_mode_us : 0.0;
  }
};

struct Sweep {
  std::string name;
  uint64_t triples = 0;
  std::vector<SweepPoint> points;
};

/// Runs the same update stream through a force-delta and a force-full
/// engine over the 300k-scale graph; the two evolve in lockstep (the
/// equivalence property maintenance_test pins down), so every batch
/// measures both modes against identical states. Each mode is timed as
/// the whole ApplyUpdates: delta mode merges the base delta and the
/// encoding edits at once, full mode merges them one after the other.
bool MeasureSweep(const std::string& dataset_name, Sweep* out) {
  out->name = dataset_name;
  auto spec = datagen::ParseScaleSpec(kSweepScale);
  if (!spec.ok()) return false;

  auto setup = [&](core::SofosEngine* engine,
                   core::maintenance::MaintainOptions::Mode mode) -> bool {
    TripleStore store;
    store.SetShardCount(engine->ResolvedShardCount());
    auto dataset = datagen::GenerateByName(dataset_name, *spec, 42, &store);
    if (!dataset.ok()) return false;
    auto facet = core::Facet::FromSparql(dataset->facet_sparql, dataset->name,
                                         dataset->dim_labels);
    if (!facet.ok()) return false;
    if (!engine->LoadStore(std::move(store)).ok()) return false;
    if (!engine->SetFacet(std::move(facet).value()).ok()) return false;
    if (!engine->Profile().ok()) return false;
    core::TripleCountCostModel model;
    auto selection = engine->SelectViews(model, 3);
    if (!selection.ok()) return false;
    if (!engine->MaterializeSelection(*selection).ok()) return false;
    core::maintenance::MaintainOptions options;
    options.mode = mode;
    engine->SetMaintainOptions(options);
    return true;
  };
  core::SofosEngine delta_engine, full_engine;
  if (!setup(&delta_engine,
             core::maintenance::MaintainOptions::Mode::kForceDelta) ||
      !setup(&full_engine,
             core::maintenance::MaintainOptions::Mode::kForceFull)) {
    return false;
  }
  out->triples = delta_engine.BaseTriples();

  int seed = 41;
  for (double fraction : kSweepFractions) {
    SweepPoint point;
    point.fraction = fraction;
    std::vector<double> delta_runs, full_runs, root_runs;
    double root_total_us = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      workload::UpdateStreamOptions options;
      options.num_batches = 1;
      options.batch_fraction = fraction;
      options.seed = ++seed;
      auto stream = workload::GenerateUpdateStream(
          delta_engine.base_snapshot(), delta_engine.store()->dictionary(),
          options);
      if (!stream.ok() || stream->empty()) return false;
      auto delta_out = delta_engine.ApplyUpdates((*stream)[0]);
      auto full_out = full_engine.ApplyUpdates((*stream)[0]);
      if (!delta_out.ok() || !full_out.ok()) return false;
      if (delta_engine.CurrentTriples() != full_engine.CurrentTriples()) {
        std::fprintf(stderr, "sweep: delta/full engines diverged\n");
        return false;
      }
      point.delta_ops += (*stream)[0].adds.size() + (*stream)[0].deletes.size();
      point.delta_bindings += delta_out->maintenance.delta_bindings;
      root_total_us += delta_out->maintenance.root_query_micros;
      root_runs.push_back(delta_out->maintenance.root_query_micros);
      delta_runs.push_back(delta_out->total_micros);
      full_runs.push_back(full_out->total_micros);
    }
    if (point.delta_bindings > 0) {
      point.root_us_per_binding =
          root_total_us / static_cast<double>(point.delta_bindings);
    }
    point.delta_ops /= kRepetitions;
    point.delta_bindings /= kRepetitions;
    point.root_us = bench::Median(root_runs);
    point.delta_mode_us = bench::Median(delta_runs);
    point.full_mode_us = bench::Median(full_runs);
    out->points.push_back(point);
  }
  return true;
}

/// The measured cost crossover: the delta fraction where delta-mode cost
/// meets full-mode cost, log-linearly interpolated between the bracketing
/// sweep points. If delta mode wins everywhere tested, the largest tested
/// fraction is a lower bound (reported as such).
double MeasuredCrossover(const std::vector<SweepPoint>& sweep) {
  for (size_t i = 1; i < sweep.size(); ++i) {
    double s0 = sweep[i - 1].Speedup(), s1 = sweep[i].Speedup();
    if (s0 >= 1.0 && s1 < 1.0 && s0 > s1) {
      double t = (s0 - 1.0) / (s0 - s1);
      return std::exp(std::log(sweep[i - 1].fraction) +
                      t * (std::log(sweep[i].fraction) -
                           std::log(sweep[i - 1].fraction)));
    }
  }
  return sweep.empty() ? 0.0 : sweep.back().fraction;
}

void WriteJson(const std::string& path, const std::vector<DatasetResult>& results,
               const std::vector<Sweep>& sweeps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"maintenance\",\n");
  std::fprintf(f, "  \"batch_fraction\": %.4f,\n  \"repetitions\": %d,\n",
               kBatchFraction, kRepetitions);
  std::fprintf(f, "  \"datasets\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const DatasetResult& r = results[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"base_triples\": %llu, \"delta_ops\": %llu,\n"
        "     \"delta_merge_ms\": %.3f, \"full_finalize_ms\": %.3f, "
        "\"store_speedup\": %.2f,\n"
        "     \"incremental_ms\": %.3f, \"full_update_ms\": %.3f, "
        "\"engine_speedup\": %.2f}%s\n",
        r.name.c_str(), static_cast<unsigned long long>(r.base_triples),
        static_cast<unsigned long long>(r.delta_ops), r.delta_merge_ms,
        r.full_finalize_ms, r.StoreSpeedup(), r.incremental_ms,
        r.full_update_ms, r.EngineSpeedup(),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"sweep_scale\": \"%s\",\n  \"sweeps\": [\n", kSweepScale);
  for (size_t s = 0; s < sweeps.size(); ++s) {
    const Sweep& sweep = sweeps[s];
    std::fprintf(f, "    {\"name\": \"%s\", \"triples\": %llu, \"points\": [\n",
                 sweep.name.c_str(),
                 static_cast<unsigned long long>(sweep.triples));
    for (size_t i = 0; i < sweep.points.size(); ++i) {
      const SweepPoint& p = sweep.points[i];
      std::fprintf(
          f,
          "      {\"fraction\": %.4f, \"delta_ops\": %llu, "
          "\"delta_bindings\": %llu,\n"
          "       \"root_us\": %.1f, \"root_us_per_binding\": %.2f,\n"
          "       \"delta_mode_us\": %.1f, \"full_mode_us\": %.1f, "
          "\"delta_speedup\": %.2f}%s\n",
          p.fraction, static_cast<unsigned long long>(p.delta_ops),
          static_cast<unsigned long long>(p.delta_bindings), p.root_us,
          p.root_us_per_binding, p.delta_mode_us, p.full_mode_us, p.Speedup(),
          i + 1 < sweep.points.size() ? "," : "");
    }
    std::fprintf(f, "     ], \"crossover_fraction\": %.4f}%s\n",
                 MeasuredCrossover(sweep.points),
                 s + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  ");
  bench::WriteMemoryJson(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("M1 | Incremental maintenance vs full recompute (%.1f%% deltas)\n",
              kBatchFraction * 100.0);

  std::vector<DatasetResult> results;
  TablePrinter table({"dataset", "|G|", "ops", "merge ms", "refinalize ms",
                      "speedup", "incr ms", "full ms", "speedup"});
  for (const std::string& name : datagen::DatasetNames()) {
    DatasetResult result;
    result.name = name;
    if (!MeasureStore(name, &result) || !MeasureEngine(name, &result)) {
      std::fprintf(stderr, "dataset %s failed\n", name.c_str());
      return 1;
    }
    table.AddRow({result.name,
                  TablePrinter::Cell(result.base_triples),
                  TablePrinter::Cell(result.delta_ops),
                  TablePrinter::Cell(result.delta_merge_ms, 2),
                  TablePrinter::Cell(result.full_finalize_ms, 2),
                  TablePrinter::Cell(result.StoreSpeedup(), 2),
                  TablePrinter::Cell(result.incremental_ms, 2),
                  TablePrinter::Cell(result.full_update_ms, 2),
                  TablePrinter::Cell(result.EngineSpeedup(), 2)});
    results.push_back(result);
  }
  table.Print();

  std::vector<Sweep> sweeps;
  for (const char* dataset : kSweepDatasets) {
    std::printf(
        "\nM1 | Delta-rule repair vs full root re-evaluation (%s @ %s)\n",
        dataset, kSweepScale);
    Sweep sweep;
    if (!MeasureSweep(dataset, &sweep)) {
      std::fprintf(stderr, "delta-size sweep failed\n");
      return 1;
    }
    TablePrinter sweep_table({"fraction", "ops", "bindings", "root us",
                              "root us/binding", "delta us", "full us",
                              "speedup"});
    for (const SweepPoint& p : sweep.points) {
      sweep_table.AddRow({TablePrinter::Cell(p.fraction, 4),
                          TablePrinter::Cell(p.delta_ops),
                          TablePrinter::Cell(p.delta_bindings),
                          TablePrinter::Cell(p.root_us, 1),
                          TablePrinter::Cell(p.root_us_per_binding, 2),
                          TablePrinter::Cell(p.delta_mode_us, 1),
                          TablePrinter::Cell(p.full_mode_us, 1),
                          TablePrinter::Cell(p.Speedup(), 2)});
    }
    sweep_table.Print();
    std::printf("measured crossover fraction: %.4f\n",
                MeasuredCrossover(sweep.points));
    sweeps.push_back(std::move(sweep));
  }

  if (argc > 1) WriteJson(argv[1], results, sweeps);

  std::printf(
      "\nReading: the staged-delta merge replaces the six-way O(n log n)\n"
      "re-sort with linear merges, and roll-up maintenance replaces k view\n"
      "queries + re-profiling with one root-view evaluation + targeted row\n"
      "repairs — both speedups grow with |G| / delta size. In the sweep,\n"
      "root us per binding should stay flat across delta sizes: the\n"
      "telescoping delta rule runs one seeded join per pattern and never\n"
      "joins two delta lists. What is left of a small batch is mostly the\n"
      "O(|G+|) store merge.\n");
  return 0;
}
