/// P1 — parallel execution core scaling curve: lattice profiling (one
/// root-view evaluation on the caller's thread, then roll-ups fanned out
/// per lattice node) and batched workload execution (one task per query)
/// at 1/2/4/8 threads. Verifies on the fly that
/// every thread count produces the same profile statistics, greedy
/// selection, and workload answers as the serial run (the determinism
/// contract), then reports wall-clock speedups.
///
///   ./bench_parallel [json_path]
///
/// With `json_path` the results are also written as one JSON document (the
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

constexpr int kRepetitions = 3;
const unsigned kThreadCounts[] = {1, 2, 4, 8};

struct ScalingPoint {
  unsigned threads = 1;
  double profile_ms = 0.0;
  double workload_wall_ms = 0.0;
  double workload_cpu_ms = 0.0;
};

struct DatasetCurve {
  std::string name;
  std::vector<ScalingPoint> points;
};

double MedianOfRuns(const std::vector<double>& runs) {
  return bench::Median(runs);
}

/// One dataset at one thread count: median profiling wall time and median
/// batched-workload wall time over kRepetitions runs. Returns false when
/// results diverge from the serial reference.
bool MeasurePoint(const std::string& dataset, unsigned threads,
                  const core::SelectionResult& reference_selection,
                  uint64_t reference_rows_scanned, ScalingPoint* point) {
  core::SofosEngine engine;
  bench::LoadEngine(&engine, dataset, datagen::Scale::kDemo);
  engine.SetNumThreads(threads);
  point->threads = threads;

  std::vector<double> profile_runs;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    WallTimer timer;
    if (!engine.Profile().ok()) return false;
    profile_runs.push_back(timer.ElapsedMillis());
  }
  point->profile_ms = MedianOfRuns(profile_runs);

  core::TripleCountCostModel model;
  auto selection = engine.SelectViews(model, 4);
  if (!selection.ok()) return false;
  if (selection->views != reference_selection.views) {
    std::fprintf(stderr, "[%s] threads=%u: selection diverged from serial!\n",
                 dataset.c_str(), threads);
    return false;
  }
  if (!engine.MaterializeSelection(*selection).ok()) return false;

  workload::WorkloadGenerator generator(&engine.facet(), engine.store());
  workload::WorkloadOptions options;
  options.num_queries = 60;
  options.seed = 17;
  auto queries = generator.Generate(options);
  if (!queries.ok()) return false;

  std::vector<double> wall_runs, cpu_runs;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    auto report = engine.RunWorkload(*queries, /*allow_views=*/true);
    if (!report.ok()) return false;
    if (report->total_rows_scanned != reference_rows_scanned) {
      std::fprintf(stderr, "[%s] threads=%u: workload diverged from serial!\n",
                   dataset.c_str(), threads);
      return false;
    }
    wall_runs.push_back(report->wall_micros / 1000.0);
    cpu_runs.push_back(report->total_micros / 1000.0);
  }
  point->workload_wall_ms = MedianOfRuns(wall_runs);
  point->workload_cpu_ms = MedianOfRuns(cpu_runs);
  return true;
}

/// Serial reference figures used to cross-check every other thread count.
bool SerialReference(const std::string& dataset,
                     core::SelectionResult* selection,
                     uint64_t* rows_scanned) {
  core::SofosEngine engine;
  bench::LoadEngine(&engine, dataset, datagen::Scale::kDemo);
  engine.SetNumThreads(1);
  if (!engine.Profile().ok()) return false;
  core::TripleCountCostModel model;
  auto sel = engine.SelectViews(model, 4);
  if (!sel.ok()) return false;
  *selection = *sel;
  if (!engine.MaterializeSelection(*sel).ok()) return false;
  workload::WorkloadGenerator generator(&engine.facet(), engine.store());
  workload::WorkloadOptions options;
  options.num_queries = 60;
  options.seed = 17;
  auto queries = generator.Generate(options);
  if (!queries.ok()) return false;
  auto report = engine.RunWorkload(*queries, /*allow_views=*/true);
  if (!report.ok()) return false;
  *rows_scanned = report->total_rows_scanned;
  return true;
}

void WriteJson(const std::string& path, const std::vector<DatasetCurve>& curves) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"parallel\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               ThreadPool::DefaultNumThreads());
  std::fprintf(f, "  \"repetitions\": %d,\n  \"datasets\": [\n", kRepetitions);
  for (size_t d = 0; d < curves.size(); ++d) {
    const DatasetCurve& curve = curves[d];
    std::fprintf(f, "    {\"name\": \"%s\", \"points\": [\n", curve.name.c_str());
    for (size_t i = 0; i < curve.points.size(); ++i) {
      const ScalingPoint& p = curve.points[i];
      std::fprintf(f,
                   "      {\"threads\": %u, \"profile_ms\": %.3f, "
                   "\"workload_wall_ms\": %.3f, \"workload_cpu_ms\": %.3f}%s\n",
                   p.threads, p.profile_ms, p.workload_wall_ms,
                   p.workload_cpu_ms, i + 1 < curve.points.size() ? "," : "");
    }
    const ScalingPoint& serial = curve.points.front();
    double profile_speedup_4t = 0.0, workload_speedup_4t = 0.0;
    for (const ScalingPoint& p : curve.points) {
      if (p.threads == 4) {
        if (p.profile_ms > 0) profile_speedup_4t = serial.profile_ms / p.profile_ms;
        if (p.workload_wall_ms > 0) {
          workload_speedup_4t = serial.workload_wall_ms / p.workload_wall_ms;
        }
      }
    }
    std::fprintf(f,
                 "    ], \"profile_speedup_4t\": %.3f, "
                 "\"workload_speedup_4t\": %.3f}%s\n",
                 profile_speedup_4t, workload_speedup_4t,
                 d + 1 < curves.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  ");
  bench::WriteMemoryJson(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("P1 | Parallel execution core: scaling over threads\n");
  std::printf("hardware_concurrency=%u\n", ThreadPool::DefaultNumThreads());

  std::vector<DatasetCurve> curves;
  for (const std::string& name : datagen::DatasetNames()) {
    core::SelectionResult reference_selection;
    uint64_t reference_rows_scanned = 0;
    if (!SerialReference(name, &reference_selection, &reference_rows_scanned)) {
      return 1;
    }

    DatasetCurve curve;
    curve.name = name;
    TablePrinter table({"threads", "profile ms", "speedup", "workload wall ms",
                        "speedup", "workload cpu ms"});
    for (unsigned threads : kThreadCounts) {
      ScalingPoint point;
      if (!MeasurePoint(name, threads, reference_selection,
                        reference_rows_scanned, &point)) {
        return 1;
      }
      curve.points.push_back(point);
      const ScalingPoint& serial = curve.points.front();
      table.AddRow(
          {TablePrinter::Cell(uint64_t{threads}),
           TablePrinter::Cell(point.profile_ms, 1),
           TablePrinter::Cell(
               point.profile_ms > 0 ? serial.profile_ms / point.profile_ms : 0.0,
               2),
           TablePrinter::Cell(point.workload_wall_ms, 1),
           TablePrinter::Cell(point.workload_wall_ms > 0
                                  ? serial.workload_wall_ms / point.workload_wall_ms
                                  : 0.0,
                              2),
           TablePrinter::Cell(point.workload_cpu_ms, 1)});
    }
    std::printf("\n[%s] (determinism vs serial verified each point)\n\n",
                name.c_str());
    table.Print();
    curves.push_back(std::move(curve));
  }

  if (argc > 1) WriteJson(argv[1], curves);

  std::printf(
      "\nReading: profiling fans one task per lattice node and the workload\n"
      "runner one task per query, so both scale with cores until the root\n"
      "view / slowest query dominates; workload cpu ms stays flat — the\n"
      "speedup is real concurrency, not double-counted latency.\n");
  return 0;
}
