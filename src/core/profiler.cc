#include "core/profiler.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"

namespace sofos {
namespace core {

namespace {

/// Byte estimate of the materialized encoding: six index copies of each
/// triple plus the payload of distinct term lexicals.
uint64_t EstimateBytes(uint64_t triples, uint64_t nodes) {
  return triples * sizeof(Triple) * 6 + nodes * 48;
}

/// Exact stats of one view from its rows. Every row turns into one blank
/// node with (level + 3) triples: the view-membership link, one dim
/// binding per grouped dimension, the value and the rows counter.
ViewStats StatsFromRows(const ViewRows& view, const Dictionary& dict,
                        double eval_micros) {
  ViewStats stats;
  stats.mask = view.mask;
  stats.result_rows = view.size();
  int level = __builtin_popcount(view.mask);
  stats.encoded_triples =
      stats.result_rows * (static_cast<uint64_t>(level) + 3);

  // Distinct nodes: one fresh blank node per row, the view IRI, and every
  // distinct dim/agg/rows term. (Predicates are not graph nodes.) Interned
  // terms count by id and computed integers by value; an id naming the
  // canonical literal of an integer counts as that integer, so a sum equal
  // to a dim term counts once.
  std::vector<TermId> ids = view.keys;
  if (view.sums.empty()) {
    ids.insert(ids.end(), view.values.begin(), view.values.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<int64_t> ints = view.sums;
  ints.insert(ints.end(), view.rows.begin(), view.rows.end());
  uint64_t distinct = 0;
  for (TermId id : ids) {
    if (id == kNullTermId) continue;  // unbound
    const Term& term = dict.term(id);
    if (term.datatype() == Term::Datatype::kInteger) {
      auto value = term.AsInt64();
      if (value.ok() && term == Term::Integer(*value)) {
        ints.push_back(*value);
        continue;
      }
    }
    ++distinct;
  }
  std::sort(ints.begin(), ints.end());
  distinct += static_cast<uint64_t>(
      std::unique(ints.begin(), ints.end()) - ints.begin());
  stats.encoded_nodes =
      stats.result_rows /* blanks */ + 1 /* view IRI */ + distinct;
  stats.encoded_bytes = EstimateBytes(stats.encoded_triples, stats.encoded_nodes);
  stats.eval_micros = eval_micros;
  return stats;
}

/// kSampled: regroups a row sample of the root table by every view except
/// the root and the apex (already exact in `profile`) and scales the
/// counts up linearly.
void EstimateFromSample(const RootTable& root, const LatticeRollup& rollup,
                        const ProfileOptions& options,
                        LatticeProfile* profile) {
  const uint32_t full = static_cast<uint32_t>(profile->views.size() - 1);
  Rng rng(options.seed);
  double p = std::min(1.0, std::max(options.sample_rate, 1e-3));
  std::vector<uint32_t> sample;
  for (size_t r = 0; r < root.size(); ++r) {
    if (rng.Chance(p)) sample.push_back(static_cast<uint32_t>(r));
  }
  // Guarantee a non-empty sample when the root has rows at all.
  if (sample.empty() && root.size() > 0) {
    sample.push_back(static_cast<uint32_t>(rng.Uniform(root.size())));
  }

  // Regrouping the shared (read-only) sample is embarrassingly parallel
  // across masks; every iteration writes its own slot.
  ParallelFor(options.pool, profile->views.size(), [&](size_t index) {
    uint32_t mask = static_cast<uint32_t>(index);
    if (mask == full || mask == 0) return;
    WallTimer timer;
    ViewRows groups = rollup.Rollup(mask, &sample);
    std::vector<TermId> dim_ids = groups.keys;
    std::sort(dim_ids.begin(), dim_ids.end());
    const uint64_t dim_terms = static_cast<uint64_t>(
        std::unique(dim_ids.begin(), dim_ids.end()) - dim_ids.begin());
    // Naive linear scale-up of distinct counts (deliberately simple; the
    // paper's point is that size estimates on KGs are unreliable, and the
    // E9 ablation measures exactly this estimator's error).
    auto scale = [&](uint64_t v) -> uint64_t {
      return static_cast<uint64_t>(static_cast<double>(v) / p);
    };
    ViewStats stats;
    stats.mask = mask;
    stats.estimated = true;
    stats.result_rows = std::min<uint64_t>(scale(groups.size()),
                                           profile->views[full].result_rows);
    int level = __builtin_popcount(mask);
    stats.encoded_triples =
        stats.result_rows * (static_cast<uint64_t>(level) + 3);
    uint64_t est_terms = std::min<uint64_t>(scale(dim_terms) + stats.result_rows,
                                            profile->views[full].encoded_nodes);
    stats.encoded_nodes = stats.result_rows + 1 + est_terms;
    stats.encoded_bytes = EstimateBytes(stats.encoded_triples, stats.encoded_nodes);
    stats.eval_micros = timer.ElapsedMicros();
    profile->views[mask] = stats;
  });
}

}  // namespace

Result<LatticeProfile> ProfileLattice(TripleStore* store, const Facet& facet,
                                      const ProfileOptions& options,
                                      RootTable* root_out) {
  if (!store->finalized()) {
    return Status::Internal("profiler requires a finalized store");
  }
  WallTimer total_timer;
  LatticeProfile profile;
  profile.mode = options.mode;
  profile.sample_rate =
      options.mode == ProfileMode::kSampled ? options.sample_rate : 1.0;
  profile.base_triples = store->NumTriples();
  profile.base_nodes = store->NumNodes();

  const size_t lattice_size = 1ull << facet.num_dims();
  const uint32_t full = facet.FullMask();
  profile.views.resize(lattice_size);

  // The root view is the one query evaluation: every other view is a
  // roll-up of it.
  WallTimer root_timer;
  SOFOS_ASSIGN_OR_RETURN(RootTable root, RootTable::Evaluate(store, facet));
  const double root_micros = root_timer.ElapsedMicros();
  profile.view_queries = 1;
  profile.base_pattern_rows = root.PatternRows();

  const Dictionary& dict = store->dictionary();
  LatticeRollup rollup(&root, &facet, dict);
  // Exact stats of one view; the root's time includes its evaluation.
  auto compute = [&](uint32_t mask) -> Status {
    WallTimer timer;
    SOFOS_ASSIGN_OR_RETURN(ViewRows rows, rollup.ComputeView(mask, store));
    profile.views[mask] =
        StatsFromRows(rows, dict,
                      timer.ElapsedMicros() + (mask == full ? root_micros : 0));
    return Status::OK();
  };

  if (options.mode == ProfileMode::kExact) {
    // One task per lattice node. Roll-ups only read the shared table; the
    // view queries of a non-exact roll-up only scan the store (aggregate
    // literals intern through the synchronized dictionary). Each task
    // writes its own slot, and errors surface for the smallest failing
    // mask, as in the serial loop.
    SOFOS_RETURN_IF_ERROR(ParallelForEachStatus(
        options.pool, lattice_size,
        [&](size_t index) { return compute(static_cast<uint32_t>(index)); }));
    for (uint32_t mask = 0; mask < full; ++mask) {
      profile.view_queries += rollup.NeedsQuery(mask);
    }
  } else {
    // The root and the apex (a single group) are exact in sampled mode too.
    SOFOS_RETURN_IF_ERROR(compute(full));
    SOFOS_RETURN_IF_ERROR(compute(0));
    profile.view_queries += rollup.NeedsQuery(0);
    EstimateFromSample(root, rollup, options, &profile);
  }
  profile.profile_micros = total_timer.ElapsedMicros();
  if (root_out != nullptr) *root_out = std::move(root);
  return profile;
}

}  // namespace core
}  // namespace sofos
