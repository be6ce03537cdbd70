#ifndef SOFOS_CORE_PROFILER_H_
#define SOFOS_CORE_PROFILER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/facet.h"
#include "core/root_table.h"
#include "rdf/triple_store.h"

namespace sofos {

class ThreadPool;

namespace core {

/// Size/shape statistics of one candidate view, the raw material for every
/// cost model (paper §3.1). "Encoded" figures describe the RDF graph the
/// materialization of this view would add to G+.
struct ViewStats {
  uint32_t mask = 0;
  uint64_t result_rows = 0;      // |V(G)|: number of aggregated values
  uint64_t encoded_triples = 0;  // |G_V|: triples of the view's RDF encoding
  uint64_t encoded_nodes = 0;    // |I_V ∪ B_V ∪ L_V|: distinct terms
  uint64_t encoded_bytes = 0;    // approximate storage footprint
  /// Time to derive the view: the root-view query for the root, the
  /// roll-up (or sample regrouping) for every other view.
  double eval_micros = 0.0;
  bool estimated = false;        // true when derived from a sample
};

/// How the lattice statistics are obtained. Both modes evaluate the root
/// view query once (core/root_table.h). kExact derives every other view
/// exactly by rolling the root table up; kSampled rolls up a row sample of
/// it and scales the counts up linearly (the E9 ablation quantifies the
/// error this introduces). The root and the apex are exact in both modes.
enum class ProfileMode { kExact, kSampled };

struct ProfileOptions {
  ProfileMode mode = ProfileMode::kExact;
  double sample_rate = 0.1;  // kSampled: fraction of root rows kept
  uint64_t seed = 42;
  /// When set, the lattice nodes are rolled up concurrently on this pool
  /// (the root-view query runs on the caller's thread). All ViewStats
  /// except the timing field eval_micros are identical to the serial
  /// (pool == nullptr) run; errors are reported for the smallest failing
  /// mask, matching serial order. Not owned; SofosEngine::Profile injects
  /// its own pool when unset.
  ThreadPool* pool = nullptr;
};

/// Per-facet lattice statistics plus the base-graph figures cost models
/// compare against.
struct LatticeProfile {
  std::vector<ViewStats> views;  // indexed by mask, size 2^d
  uint64_t base_triples = 0;     // |G|
  uint64_t base_nodes = 0;       // graph nodes of G
  uint64_t base_pattern_rows = 0;  // bindings of the facet pattern P over G
  double profile_micros = 0.0;
  ProfileMode mode = ProfileMode::kExact;
  double sample_rate = 1.0;
  /// View queries the profile evaluated: 1 (the root) plus one per view a
  /// roll-up cannot compute exactly (a SUM/AVG root with an xsd:double
  /// cell; LatticeRollup::NeedsQuery).
  uint64_t view_queries = 0;

  const ViewStats& ForMask(uint32_t mask) const { return views[mask]; }
};

/// Computes the lattice profile for `facet` over `store` (which must be
/// finalized; its dictionary may grow through aggregate interning). When
/// `root_out` is set it receives the evaluated root table, for the
/// materializer and the view maintainer to reuse.
Result<LatticeProfile> ProfileLattice(TripleStore* store, const Facet& facet,
                                      const ProfileOptions& options = {},
                                      RootTable* root_out = nullptr);

}  // namespace core
}  // namespace sofos

#endif  // SOFOS_CORE_PROFILER_H_
