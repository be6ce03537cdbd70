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
/// The two executors run as interleaved pairs, alternating which goes
/// first, so drift of the host hits both alike. Each time is the median
/// with its quartiles, and the speedup is the median of the per-pair
/// ratios with its quartiles.
///
///   ./bench_exec [json_path]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "sparql/query_engine.h"

namespace {

using namespace sofos;

constexpr int kRepetitions = 41;  // interleaved (Volcano, batch) pairs

/// Median and quartiles of a sample (nearest rank).
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

Spread SpreadOf(std::vector<double> values) {
  Spread out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  out.median = values[n / 2];
  out.q1 = values[n / 4];
  out.q3 = values[(3 * n) / 4];
  return out;
}

struct DatasetPoint {
  std::string name;
  uint64_t pattern_rows = 0;  // bindings the root query aggregates
  Spread volcano_ms;
  Spread batch_ms;
  Spread speedup;  // per-pair Volcano / batch
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

/// Wall time of one root-query run under `options`; returns false on a
/// query error or a result mismatch against `reference`.
bool RunOnce(TripleStore* store, const std::string& query,
             const sparql::ExecOptions& options, const std::string& reference,
             double* wall_ms) {
  sparql::QueryEngine engine(store, options);
  auto result = engine.Execute(query);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return false;
  }
  if (Fingerprint(*result) != reference) {
    std::fprintf(stderr, "results diverged from the Volcano executor!\n");
    return false;
  }
  *wall_ms = result->stats.exec_micros / 1000.0;
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
  const sparql::ExecOptions batch;
  std::string reference;
  {
    sparql::QueryEngine reference_engine(store, volcano);
    auto result = reference_engine.Execute(query);
    if (!result.ok()) return false;
    reference = Fingerprint(*result);
  }
  std::vector<double> volcano_runs, batch_runs, ratios;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    double volcano_ms = 0.0, batch_ms = 0.0;
    const bool volcano_first = rep % 2 == 0;
    if (volcano_first &&
        !RunOnce(store, query, volcano, reference, &volcano_ms)) {
      return false;
    }
    if (!RunOnce(store, query, batch, reference, &batch_ms)) return false;
    if (!volcano_first &&
        !RunOnce(store, query, volcano, reference, &volcano_ms)) {
      return false;
    }
    volcano_runs.push_back(volcano_ms);
    batch_runs.push_back(batch_ms);
    ratios.push_back(batch_ms > 0 ? volcano_ms / batch_ms : 0.0);
  }
  point->volcano_ms = SpreadOf(volcano_runs);
  point->batch_ms = SpreadOf(batch_runs);
  point->speedup = SpreadOf(ratios);
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
        "     \"volcano_ms\": %.3f, \"volcano_q1_ms\": %.3f, "
        "\"volcano_q3_ms\": %.3f,\n"
        "     \"batch_ms\": %.3f, \"batch_q1_ms\": %.3f, "
        "\"batch_q3_ms\": %.3f,\n"
        "     \"speedup_vs_volcano\": %.3f, \"speedup_q1\": %.3f, "
        "\"speedup_q3\": %.3f}%s\n",
        p.name.c_str(), static_cast<unsigned long long>(p.pattern_rows),
        p.volcano_ms.median, p.volcano_ms.q1, p.volcano_ms.q3,
        p.batch_ms.median, p.batch_ms.q1, p.batch_ms.q3, p.speedup.median,
        p.speedup.q1, p.speedup.q3, d + 1 < points.size() ? "," : "");
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
  TablePrinter table({"dataset", "pattern rows", "volcano ms (q1-q3)",
                      "batch ms (q1-q3)", "speedup (q1-q3)"});
  auto cell = [](const Spread& spread, int digits) {
    return StrFormat("%.*f (%.*f-%.*f)", digits, spread.median, digits,
                     spread.q1, digits, spread.q3);
  };
  for (const std::string& name : datagen::DatasetNames()) {
    DatasetPoint point;
    if (!MeasureDataset(name, &point)) return 1;
    table.AddRow({point.name, TablePrinter::Cell(point.pattern_rows),
                  cell(point.volcano_ms, 3), cell(point.batch_ms, 3),
                  cell(point.speedup, 2)});
    points.push_back(std::move(point));
  }
  table.Print();

  if (argc > 1) WriteJson(argv[1], points);
  return 0;
}
