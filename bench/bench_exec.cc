/// P3 — vectorized query execution: the facet's root-view query (the
/// largest single evaluation of profiling and of full-mode maintenance) on
/// each bundled dataset, under
///
///   - the legacy row-at-a-time Volcano executor (the baseline),
///   - the vectorized batch engine,
///
/// verifying on the fly that both return byte-identical results (the
/// executor determinism contract), then reports the batch engine's speedup
/// (`speedup_vs_volcano`): hash joins, hash aggregation, no per-row
/// allocation. Both run on the caller's thread.
///
///   ./bench_exec [json_path]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "sparql/query_engine.h"

namespace {

using namespace sofos;

constexpr int kRepetitions = 5;

struct DatasetPoint {
  std::string name;
  uint64_t pattern_rows = 0;  // bindings the root query aggregates
  double volcano_ms = 0.0;
  double batch_ms = 0.0;
};

/// Canonical fingerprint of a result for cross-configuration comparison.
std::string Fingerprint(const sparql::QueryResult& result) {
  std::string out;
  for (size_t r = 0; r < result.rows.size(); ++r) {
    for (size_t c = 0; c < result.rows[r].size(); ++c) {
      out += result.bound[r][c] ? result.rows[r][c].ToNTriples() : "UNBOUND";
      out += '|';
    }
    out += '\n';
  }
  return out;
}

/// Median wall time of the root query under `options`; returns false on a
/// query error or a result mismatch against `reference`.
bool Measure(TripleStore* store, const std::string& query,
             const sparql::ExecOptions& options, const std::string& reference,
             double* wall_ms) {
  std::vector<double> walls;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    sparql::QueryEngine engine(store, options);
    auto result = engine.Execute(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
      return false;
    }
    if (Fingerprint(*result) != reference) {
      std::fprintf(stderr, "results diverged from the Volcano executor!\n");
      return false;
    }
    walls.push_back(result->stats.exec_micros / 1000.0);
  }
  *wall_ms = bench::Median(walls);
  return true;
}

bool MeasureDataset(const std::string& name, DatasetPoint* point) {
  core::SofosEngine engine;
  bench::LoadEngine(&engine, name, datagen::Scale::kDemo);
  TripleStore* store = engine.store();
  const core::Facet& facet = engine.facet();
  const std::string query = facet.ViewQuerySparql(facet.FullMask());

  point->name = name;
  point->pattern_rows = engine.profile()->base_pattern_rows;

  sparql::ExecOptions volcano;
  volcano.mode = sparql::ExecMode::kVolcano;
  std::string reference;
  {
    sparql::QueryEngine reference_engine(store, volcano);
    auto result = reference_engine.Execute(query);
    if (!result.ok()) return false;
    reference = Fingerprint(*result);
  }
  return Measure(store, query, volcano, reference, &point->volcano_ms) &&
         Measure(store, query, sparql::ExecOptions{}, reference,
                 &point->batch_ms);
}

double Speedup(const DatasetPoint& point) {
  return point.batch_ms > 0 ? point.volcano_ms / point.batch_ms : 0.0;
}

void WriteJson(const std::string& path, const std::vector<DatasetPoint>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"exec\",\n");
  std::fprintf(f, "  \"repetitions\": %d,\n  \"datasets\": [\n", kRepetitions);
  for (size_t d = 0; d < points.size(); ++d) {
    const DatasetPoint& p = points[d];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"pattern_rows\": %llu, "
                 "\"volcano_ms\": %.3f, \"batch_ms\": %.3f, "
                 "\"speedup_vs_volcano\": %.3f}%s\n",
                 p.name.c_str(), static_cast<unsigned long long>(p.pattern_rows),
                 p.volcano_ms, p.batch_ms, Speedup(p),
                 d + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  ");
  bench::WriteMemoryJson(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("P3 | Vectorized execution: root-view query, batch vs Volcano\n");

  std::vector<DatasetPoint> points;
  TablePrinter table(
      {"dataset", "pattern rows", "volcano ms", "batch ms", "speedup"});
  for (const std::string& name : datagen::DatasetNames()) {
    DatasetPoint point;
    if (!MeasureDataset(name, &point)) return 1;
    table.AddRow({point.name, TablePrinter::Cell(point.pattern_rows),
                  TablePrinter::Cell(point.volcano_ms, 3),
                  TablePrinter::Cell(point.batch_ms, 3),
                  TablePrinter::Cell(Speedup(point), 2)});
    points.push_back(std::move(point));
  }
  table.Print();

  if (argc > 1) WriteJson(argv[1], points);
  return 0;
}
