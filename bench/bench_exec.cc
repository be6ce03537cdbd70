/// P3 — vectorized query execution: the facet's root-view query (the
/// largest single evaluation of profiling and of full-mode maintenance) on
/// each bundled dataset, run by the batch engine on the caller's thread.
///
/// An unmeasured first run interns the query's fresh literals and records
/// a canonical fingerprint of the decoded rows; every measured run's result
/// must match it. The time is the median of the measured runs with its
/// quartiles.
///
///   ./bench_exec [json_path]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "sparql/query_engine.h"

namespace {

using namespace sofos;

constexpr int kRepetitions = 41;  // measured runs, after one unmeasured

struct DatasetPoint {
  std::string name;
  uint64_t pattern_rows = 0;  // bindings the root query aggregates
  bench::Spread batch_ms;
};

/// Canonical fingerprint of a result, to compare runs.
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

bool MeasureDataset(const std::string& name, DatasetPoint* point) {
  core::SofosEngine engine;
  bench::LoadEngine(&engine, name, datagen::Scale::kDemo);
  TripleStore* store = engine.store();
  const core::Facet& facet = engine.facet();
  const std::string query = facet.ViewQuerySparql(facet.FullMask());

  point->name = name;
  point->pattern_rows = engine.profile()->base_pattern_rows;

  std::string first;
  std::vector<double> runs;
  for (int rep = 0; rep <= kRepetitions; ++rep) {
    sparql::QueryEngine query_engine(store);
    auto result = query_engine.Execute(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return false;
    }
    std::string fingerprint = Fingerprint(*result);
    if (rep == 0) {
      first = std::move(fingerprint);
      continue;
    }
    if (fingerprint != first) {
      std::fprintf(stderr, "run %d diverged from the first run!\n", rep);
      return false;
    }
    runs.push_back(result->stats.exec_micros / 1000.0);
  }
  point->batch_ms = bench::SpreadOf(runs);
  return true;
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
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"pattern_rows\": %llu,\n"
        "     \"batch_ms\": %.3f, \"batch_q1_ms\": %.3f, "
        "\"batch_q3_ms\": %.3f}%s\n",
        p.name.c_str(), static_cast<unsigned long long>(p.pattern_rows),
        p.batch_ms.median, p.batch_ms.q1, p.batch_ms.q3,
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
  std::printf("P3 | Vectorized execution: root-view query\n");

  std::vector<DatasetPoint> points;
  TablePrinter table({"dataset", "pattern rows", "batch ms (q1-q3)"});
  for (const std::string& name : datagen::DatasetNames()) {
    DatasetPoint point;
    if (!MeasureDataset(name, &point)) return 1;
    table.AddRow({point.name, TablePrinter::Cell(point.pattern_rows),
                  bench::SpreadCell(point.batch_ms, 3)});
    points.push_back(std::move(point));
  }
  table.Print();

  if (argc > 1) WriteJson(argv[1], points);
  return 0;
}
