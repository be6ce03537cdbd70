#ifndef SOFOS_RDF_TRIPLE_H_
#define SOFOS_RDF_TRIPLE_H_

#include <algorithm>
#include <iterator>
#include <tuple>
#include <vector>

#include "rdf/dictionary.h"

namespace sofos {

/// A dictionary-encoded RDF triple: 12 bytes.
struct Triple {
  TermId s = kNullTermId;
  TermId p = kNullTermId;
  TermId o = kNullTermId;

  bool operator==(const Triple& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
  bool operator!=(const Triple& other) const { return !(*this == other); }
  bool operator<(const Triple& other) const {
    return std::tie(s, p, o) < std::tie(other.s, other.p, other.o);
  }
};

/// A triple pattern over ids, kNullTermId meaning "wildcard". This is the
/// storage-level counterpart of a SPARQL triple pattern whose variables have
/// been stripped of names.
struct TripleIdPattern {
  TermId s = kNullTermId;
  TermId p = kNullTermId;
  TermId o = kNullTermId;

  bool Matches(const Triple& t) const {
    return (s == kNullTermId || s == t.s) && (p == kNullTermId || p == t.p) &&
           (o == kNullTermId || o == t.o);
  }
};

/// Applies a sorted, deduplicated delta to a sorted, deduplicated triple
/// set: returns (base \ deletes) ∪ adds, sorted and deduplicated. A triple
/// present on both sides survives — the delta semantics TripleStore::
/// ApplyDelta implements per index (with tombstones). The update-stream
/// generator uses it to advance its working copy between batches; nothing
/// else copies the graph.
inline std::vector<Triple> ApplySortedDelta(const std::vector<Triple>& base,
                                            const std::vector<Triple>& adds,
                                            const std::vector<Triple>& deletes) {
  std::vector<Triple> effective_deletes;
  std::set_difference(deletes.begin(), deletes.end(), adds.begin(), adds.end(),
                      std::back_inserter(effective_deletes));
  std::vector<Triple> stripped;
  stripped.reserve(base.size());
  std::set_difference(base.begin(), base.end(), effective_deletes.begin(),
                      effective_deletes.end(), std::back_inserter(stripped));
  std::vector<Triple> out;
  out.reserve(stripped.size() + adds.size());
  std::merge(stripped.begin(), stripped.end(), adds.begin(), adds.end(),
             std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace sofos

#endif  // SOFOS_RDF_TRIPLE_H_
