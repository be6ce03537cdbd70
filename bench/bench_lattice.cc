/// E2 — demo "Exploration of the Full Lattice": every view of each facet
/// with its size statistics and the time to derive it (the root view's
/// query evaluation for the root, a roll-up of the root table for every
/// other view), plus the cost of materializing the complete lattice (why
/// "such a large structure" is impractical).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"

int main() {
  using namespace sofos;
  std::printf("E2 | Full lattice exploration (paper §4)\n");

  for (const std::string& name : datagen::DatasetNames()) {
    core::SofosEngine engine;
    bench::LoadEngine(&engine, name, datagen::Scale::kDemo);
    const core::LatticeProfile* profile = engine.profile();

    std::printf("\n[%s] base graph: %llu triples; lattice of %zu views\n\n",
                name.c_str(),
                static_cast<unsigned long long>(engine.CurrentTriples()),
                engine.lattice().size());

    TablePrinter table({"view", "level", "rows", "enc. triples", "enc. nodes",
                        "enc. bytes", "roll-up ms"});
    for (const core::ViewStats& stats : profile->views) {
      table.AddRow({engine.facet().MaskLabel(stats.mask),
                    TablePrinter::Cell(int64_t{core::Lattice::Level(stats.mask)}),
                    TablePrinter::Cell(stats.result_rows),
                    TablePrinter::Cell(stats.encoded_triples),
                    TablePrinter::Cell(stats.encoded_nodes),
                    FormatBytes(stats.encoded_bytes),
                    TablePrinter::Cell(stats.eval_micros / 1000.0, 2)});
    }
    table.Print();
    std::printf("(roll-up ms of the root view: its one query evaluation)\n");

    // Materialize everything to show the full-lattice price.
    WallTimer timer;
    auto views = engine.MaterializeViews(engine.lattice().AllMasks());
    if (!views.ok()) {
      std::fprintf(stderr, "%s\n", views.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "\nfull lattice materialized in %.1f ms -> %llu triples "
        "(amplification %.2fx)\n",
        timer.ElapsedMillis(),
        static_cast<unsigned long long>(engine.CurrentTriples()),
        engine.StorageAmplification());
  }
  return 0;
}
