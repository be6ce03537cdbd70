#ifndef SOFOS_RDF_DICTIONARY_H_
#define SOFOS_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"

namespace sofos {

/// Dense integer handle for an interned RDF term. Id 0 is reserved as the
/// null/wildcard id (`kNullTermId`); valid ids start at 1.
using TermId = uint32_t;
inline constexpr TermId kNullTermId = 0;

/// Bidirectional Term <-> TermId mapping. Interning is append-only: a term,
/// once interned, keeps its id for the lifetime of the dictionary, so ids
/// may be stored in indexes and materialized views safely.
///
/// Two storage modes, switched with SetFrontCoding():
///
///  - Plain (default): terms live whole in a deque plus an unordered_map
///    index — the historical layout, fastest to intern, ~150-250 bytes per
///    term for typical IRIs.
///  - Front-coded: IRIs are split at their last '/' or '#' into a shared
///    namespace prefix and a suffix. Prefixes live once in a sorted prefix
///    table (a std::map, so prefix ids are discovered in first-use order
///    but the table iterates sorted — the front-coding directory); suffix
///    and auxiliary bytes are appended to a byte arena, and each term
///    becomes a 16-byte packed entry {arena offset, prefix id, lengths,
///    kind, datatype}. Reverse lookup goes through an open-addressing
///    probe table of TermIds that re-derives each entry's hash from the
///    packed bytes (FNV-1a is seed-chainable, so hash(prefix + suffix) is
///    computed without materializing the string). Decoded terms are cached
///    lazily so term() can keep returning a stable `const Term&`.
///    Typical cost: ~45-55 bytes per term at LUBM scale, a 3-4x reduction.
///
/// Both modes intern and Lookup() byte-identically: a term round-trips
/// through Intern() + term() to the exact same kind/datatype/lexical/extra
/// bytes (Term::FromRaw), and ids assigned before a mode switch are
/// preserved by the switch.
///
/// Thread safety: all member functions may be called concurrently. This is
/// the one mutable path shared by parallel query execution — aggregation
/// and expression projection intern freshly computed literals while other
/// executors decode results — so interning takes an exclusive lock and
/// lookups take a shared lock. In plain mode terms live in a deque, which
/// never relocates elements on append; in front-coded mode term() returns
/// references into the lazy decode cache (unique_ptr targets, stable once
/// created) — either way the reference returned by term() stays valid
/// until the mode is switched (ids are never removed). SetFrontCoding()
/// itself requires exclusive use of the dictionary — it re-encodes the
/// storage and invalidates every reference previously returned by term()
/// — so callers switch modes only at load/layout-change time, never while
/// queries are in flight. Note that which thread interns a new literal
/// first is schedule-dependent, i.e. id assignment order is not
/// deterministic under concurrency; ids are private handles and all
/// externally visible results are decoded terms, so this does not affect
/// reproducibility.
class Dictionary {
 public:
  Dictionary() = default;

  // Movable but not copyable (the id-to-term storage can be large). Moving
  // is NOT thread-safe: it may only happen while no other thread touches
  // either dictionary (stores are moved between experiments, not during
  // parallel execution).
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&& other) noexcept;
  Dictionary& operator=(Dictionary&& other) noexcept;

  /// Returns the id of `term`, interning it first if needed.
  TermId Intern(const Term& term);

  /// Returns the id of `term` if already interned.
  std::optional<TermId> Lookup(const Term& term) const;

  /// The term for a valid id (1 <= id <= size()). The reference remains
  /// valid until the storage mode is switched (see class comment); with a
  /// fixed mode, for the lifetime of the dictionary.
  const Term& term(TermId id) const;

  /// Number of interned terms.
  size_t size() const;

  /// Switches between the plain and the front-coded storage (no-op when
  /// already in the requested mode). Every previously assigned id decodes
  /// to byte-identical terms afterwards. Requires exclusive use: no other
  /// thread may touch the dictionary during the switch, and references
  /// previously returned by term() are invalidated.
  void SetFrontCoding(bool enabled);
  bool front_coded() const;

  /// Number of distinct namespace prefixes in the front-coding table
  /// (0 in plain mode). Observability for stats/bench output.
  size_t NumPrefixes() const;

  /// Rough heap footprint, used for storage-amplification metrics.
  uint64_t MemoryBytes() const;

 private:
  /// Packed front-coded entry: suffix (and auxiliary) bytes live at
  /// [offset, offset + lexical_len + extra_len) in arena_; the full
  /// lexical form is prefix + suffix.
  struct Packed {
    uint32_t offset = 0;       // first suffix byte in arena_
    uint32_t prefix = 0;       // 1-based prefix id; 0 = no shared prefix
    uint32_t lexical_len = 0;  // suffix bytes
    uint16_t extra_len = 0;    // auxiliary bytes (lang tag / datatype IRI)
    Term::Kind kind = Term::Kind::kIri;
    Term::Datatype datatype = Term::Datatype::kNone;
  };

  // All *Locked helpers require mu_ held (shared for const, exclusive for
  // mutating ones).
  uint64_t PackedHashLocked(const Packed& entry) const;
  bool PackedEqualsLocked(const Packed& entry, const Term& term) const;
  /// Probe-table lookup; kNullTermId when absent.
  TermId FindPackedLocked(const Term& term, uint64_t hash) const;
  /// Appends `term` as the next id (encode + probe insert). Exclusive.
  TermId AppendPackedLocked(const Term& term, uint64_t hash);
  void ProbeInsertLocked(TermId id, uint64_t hash);
  void GrowProbeLocked();
  Term MaterializeLocked(const Packed& entry) const;

  mutable std::shared_mutex mu_;

  // ---- Plain mode ----
  std::deque<Term> terms_;
  std::unordered_map<Term, TermId, TermHash> index_;

  // ---- Front-coded mode ----
  bool front_coded_ = false;
  std::vector<Packed> packed_;
  std::vector<char> arena_;
  /// Sorted prefix table: prefix string -> 1-based id (std::less<> enables
  /// string_view probes without allocation).
  std::map<std::string, uint32_t, std::less<>> prefix_ids_;
  /// id-1 -> key of prefix_ids_ (map nodes are address-stable).
  std::vector<const std::string*> prefixes_;
  /// Open-addressing reverse index: power-of-two slot array of TermIds
  /// (kNullTermId = empty), ~0.5 max load factor.
  std::vector<TermId> probe_;
  /// Lazy decode cache, parallel to packed_: entries materialize on first
  /// term() call (deque + unique_ptr keep returned references stable).
  mutable std::deque<std::unique_ptr<const Term>> decoded_;
};

}  // namespace sofos

#endif  // SOFOS_RDF_DICTIONARY_H_
