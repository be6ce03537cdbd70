#ifndef SOFOS_CORE_MATERIALIZER_H_
#define SOFOS_CORE_MATERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/facet.h"
#include "core/root_table.h"
#include "rdf/triple_store.h"

namespace sofos {

class ThreadPool;

namespace core {

/// Record of one materialized view inside the expanded graph G+.
struct MaterializedView {
  uint32_t mask = 0;
  std::string view_iri;
  uint64_t rows = 0;           // result rows encoded
  uint64_t triples_added = 0;  // RDF triples added to G+
  uint64_t nodes_added = 0;    // fresh blank nodes
  double build_micros = 0.0;
};

/// Materializes lattice views into the store, generalizing the MARVEL
/// encoding (paper §3.1): each view row becomes a fresh blank node
///
///   _:v  sofos:view       <http://sofos.ics.forth.gr/view/<facet>/<mask>>
///   _:v  sofos:dim_<x>    <binding of grouped dimension x>   (per dim)
///   _:v  sofos:value      "<aggregate value>"                (SUM for AVG)
///   _:v  sofos:rows       "<contributing row count>"
///
/// The sofos: vocabulary is disjoint from application predicates, so
/// original queries over G+ keep their answers; the rows counter makes
/// COUNT and AVG roll-ups exact.
///
/// Every view is derived from the facet's root table (core/root_table.h):
/// a roll-up, or its view query when LatticeRollup::NeedsQuery says a
/// roll-up cannot be exact. The encoded rows equal the view query's rows
/// byte for byte.
class Materializer {
 public:
  Materializer(TripleStore* store, const Facet* facet)
      : store_(store), facet_(facet) {}

  /// Encodes the views `masks` of the current graph, derived from `root`
  /// (the root table of that graph), with a single re-finalization at the
  /// end. When `pool` is non-null, the views are derived concurrently
  /// (roll-ups only read `root`; view queries only do const store scans
  /// plus synchronized dictionary interning) and the final Finalize sorts
  /// on the pool; the encoding phase stays serial in mask order, so
  /// results, blank-node labels included, are identical to the serial run.
  Result<std::vector<MaterializedView>> MaterializeAll(
      const std::vector<uint32_t>& masks, const RootTable& root,
      ThreadPool* pool = nullptr);

  /// View queries MaterializeAll has evaluated so far (views a roll-up
  /// cannot compute exactly).
  uint64_t view_queries() const { return view_queries_; }

 private:
  /// Appends the blank-node encoding of one view's rows.
  MaterializedView Encode(const ViewRows& view);

  TripleStore* store_;
  const Facet* facet_;
  uint64_t next_blank_ = 0;
  uint64_t view_queries_ = 0;
};

}  // namespace core
}  // namespace sofos

#endif  // SOFOS_CORE_MATERIALIZER_H_
