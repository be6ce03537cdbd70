/// E9 — profiling ablation: exact per-view statistics versus the sampled
/// estimator, across sample rates. Reports profiling time, the estimation
/// error on view cardinalities, and whether the sampled statistics change
/// the greedy selection. Both modes evaluate the root view once; exact
/// mode then rolls the whole root table up, sampled mode a row sample.

#include <cmath>
#include <cstdio>
#include <set>

#include "bench/bench_util.h"
#include "common/table_printer.h"

int main() {
  using namespace sofos;
  std::printf("E9 | Exact vs sampled lattice profiling\n");

  for (const std::string& name : datagen::DatasetNames()) {
    core::SofosEngine engine;
    bench::LoadEngine(&engine, name, datagen::Scale::kDemo);

    // Exact reference.
    auto exact = engine.Profile();
    if (!exact.ok()) return 1;
    std::vector<uint64_t> exact_rows;
    for (const auto& v : (*exact)->views) exact_rows.push_back(v.result_rows);
    double exact_ms = (*exact)->profile_micros / 1000.0;

    core::TripleCountCostModel model;
    auto exact_selection = engine.SelectViews(model, 4);
    if (!exact_selection.ok()) return 1;
    std::set<uint32_t> exact_set(exact_selection->views.begin(),
                                 exact_selection->views.end());

    std::printf("\n[%s] exact profile: %.1f ms; greedy(triples, k=4) = %s\n\n",
                name.c_str(), exact_ms,
                exact_selection->ToString(engine.facet()).c_str());

    TablePrinter table({"mode", "rate", "profile ms", "mean rel err",
                        "max rel err", "selection overlap"});
    table.AddRow({"exact", "1.00", TablePrinter::Cell(exact_ms, 1), "0.00",
                  "0.00", "4/4"});

    for (double rate : {0.01, 0.05, 0.10, 0.25, 0.50}) {
      core::ProfileOptions options;
      options.mode = core::ProfileMode::kSampled;
      options.sample_rate = rate;
      auto sampled = engine.Profile(options);
      if (!sampled.ok()) return 1;

      double sum_err = 0, max_err = 0;
      size_t counted = 0;
      for (uint32_t mask = 0; mask < exact_rows.size(); ++mask) {
        if (mask == engine.facet().FullMask() || mask == 0) continue;  // exact
        double truth = static_cast<double>(exact_rows[mask]);
        double est = static_cast<double>((*sampled)->ForMask(mask).result_rows);
        double err = truth > 0 ? std::fabs(est - truth) / truth : 0.0;
        sum_err += err;
        max_err = std::max(max_err, err);
        ++counted;
      }

      auto selection = engine.SelectViews(model, 4);
      if (!selection.ok()) return 1;
      size_t overlap = 0;
      for (uint32_t mask : selection->views) overlap += exact_set.count(mask);

      table.AddRow({"sampled", TablePrinter::Cell(rate, 2),
                    TablePrinter::Cell((*sampled)->profile_micros / 1000.0, 1),
                    TablePrinter::Cell(sum_err / counted, 3),
                    TablePrinter::Cell(max_err, 3),
                    TablePrinter::Cell(uint64_t{overlap}) + "/4"});
    }
    table.Print();
    // Restore the exact profile for any subsequent use.
    if (!engine.Profile().ok()) return 1;
  }
  std::printf(
      "\nReading: both modes pay one root-view evaluation, so sampling saves\n"
      "almost no time, while the naive linear scale-up's cardinality error\n"
      "grows as the sample rate drops and can flip greedy picks — size\n"
      "estimation on KGs is genuinely hard.\n");
  return 0;
}
