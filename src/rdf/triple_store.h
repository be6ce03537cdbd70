#ifndef SOFOS_RDF_TRIPLE_STORE_H_
#define SOFOS_RDF_TRIPLE_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace sofos {

class ThreadPool;

/// Outcome of merging a staged delta into a finalized store.
struct DeltaApplyResult {
  uint64_t adds_applied = 0;     // staged adds that were not already present
  uint64_t deletes_applied = 0;  // staged deletes that actually removed a triple
  uint64_t shards_rebuilt = 0;   // hash shards the delta touched (of 2 * shard_count)
  double merge_micros = 0.0;
};

/// Per-predicate statistics gathered at Finalize() time; used by the query
/// planner for selectivity estimation and by the cost models.
struct PredicateStats {
  uint64_t triples = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
};

/// In-memory RDF triple store with dictionary encoding. Any triple pattern
/// resolves to a contiguous range of one sorted index (the RDF-3X idea),
/// which makes both scans and exact pattern counting cheap.
///
/// Layout (see src/rdf/README.md for the full contract):
///  - The canonical array holds every triple in global SPO order, plus a
///    dense subject directory: a uint32 offset per TermId, so subject `s`
///    owns canonical[dir[s], dir[s+1]). Every subject-bound pattern is
///    served from that block — SPO by a binary search inside it (zero-copy),
///    SOP by filtering it — and the unbound pattern is the whole array.
///  - The predicate family (PSO + POS) and the object family (OSP) are
///    hash-partitioned into `shard_count()` buckets by a deterministic mix
///    of the leading field's TermId. Each bucket is an immutable `Shard`
///    behind a `std::shared_ptr`. A bound leading field resolves to one
///    shard, and a sorted subset restricted to one key value does not depend
///    on what else shares its array, so every range is byte-identical at
///    every shard count.
///
/// Compact layout (SetCompactLayout): the object family stores a CSR image
/// per shard instead of its sorted OSP run — a sorted uint32 node table (the
/// bucket's distinct objects) with offsets into a packed (s, p) edge array —
/// and the dictionary is front-coded. Object scans materialize the node's
/// block into a buffer carried by the returned ScanRange (see ScanRange::
/// backing()), in exactly the order the sorted run would have had, so
/// Scan()/Count() results are byte-identical across layouts at every shard
/// count.
///
/// Usage: Add() triples (interning terms through the embedded Dictionary),
/// then Finalize() to (re)build the indexes; Scan()/Count() require a
/// finalized store. Adding after Finalize() is allowed — the store becomes
/// unfinalized and must be finalized again (materialization of views relies
/// on this: the expanded graph G+ is the same store re-finalized).
///
/// Incremental mutation: a *finalized* store can alternatively absorb an
/// update batch through the staged-delta path — StageAdd()/StageDelete()
/// collect dictionary-encoded triples in side buffers, and ApplyDelta()
/// merges them into the canonical array (rebuilding its directory) plus
/// *only the shards the delta touches*: untouched buckets keep sharing their
/// old immutable Shard (pointer-aliased across epochs — the copy-on-write
/// contract the snapshot tests assert), touched buckets get a freshly merged
/// replacement. For a delta of d triples against n stored triples this
/// costs O(n + d log d), versus Finalize()'s O(n log n) re-sort.
/// Semantics are set-algebraic: the new graph is (G \ deletes) ∪ adds — a
/// triple staged on both sides ends up present; deletes of absent triples
/// and adds of present triples are no-ops (not counted in
/// DeltaApplyResult).
///
/// The two mutation paths must not interleave: Add()/ReplaceTriples()/
/// Finalize() SOFOS_CHECK-fail while a staged delta is pending (a stale
/// side buffer would silently resurrect or re-delete triples on the next
/// ApplyDelta), and ApplyDelta() requires a finalized store. Discard a
/// pending delta with DiscardStagedDelta() to return to the legacy path.
///
/// Thread safety (the contract the parallel offline pipeline, the batched
/// workload runner, and the online epoch snapshots rely on):
///  - Between Finalize()/ApplyDelta() and the next mutation, every const
///    member — Scan(), Count(), Contains(), NumTriples(), NumNodes(),
///    StatsFor(), triples(), dictionary() — is safe to call from any number
///    of threads concurrently: they only read the immutable canonical array
///    and shards. ScanRange pointers stay valid for that whole window, and
///    for as long as *any* store (a Clone()) still references the canonical
///    array or shard that backs them.
///  - Intern() (and Dictionary access through mutable_dictionary()) is
///    internally synchronized and may run concurrently with the reads
///    above; it grows the dictionary but never touches the indexes. The
///    dictionary is shared between a store and its Clone()s (append-only,
///    ids never change), so this also holds across clones.
///  - Add(), Finalize(), ApplyDelta(), ReplaceTriples(), SetShardCount()
///    and move operations require exclusive access to *this store object*:
///    no concurrent calls of any kind on the same object. Mutating one
///    store never disturbs readers of another store that shares state with
///    it — mutation replaces pointers, it never edits a published canonical
///    array or Shard in place.
class TripleStore {
 public:
  /// The two hash-partitioned index families and their leading field
  /// (subject-bound patterns are served by the canonical array's directory).
  enum Family : int {
    kPredicateFamily = 0,  // PSO + POS, partitioned by hash(p)
    kObjectFamily = 1,     // OSP, partitioned by hash(o)
    kNumFamilies = 2,
  };

  TripleStore();

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  /// Moves steal the whole state and leave the source as a freshly
  /// constructed empty store (unfinalized, own dictionary) — so every
  /// entry point keeps well-defined behavior on a moved-from object
  /// instead of tripping over a null canonical pointer. Not noexcept:
  /// resetting the source allocates its fresh dictionary, which may throw
  /// under memory exhaustion (no standard container in this codebase
  /// stores TripleStore by value, so the strong-guarantee tradeoff never
  /// bites).
  TripleStore(TripleStore&& other);
  TripleStore& operator=(TripleStore&& other);

  /// Copy-on-write copy of a finalized store with no staged delta
  /// (SOFOS_CHECK): the clone shares the canonical array (with its subject
  /// directory), every shard, and the (append-only, internally synchronized)
  /// dictionary with the original — O(shard_count) pointer copies plus the
  /// small statistics maps, independent of the number of triples. This is
  /// what pins one immutable graph state under an epoch snapshot while the
  /// original keeps absorbing deltas (see core::EngineSnapshot): a later
  /// mutation of either store swaps in fresh pointers on that store only,
  /// so the two diverge without ever copying untouched buckets. Query
  /// results from the clone are byte-identical to the original at clone
  /// time, forever.
  TripleStore Clone() const;

  /// Interns `term` in the embedded dictionary.
  TermId Intern(const Term& term) { return dict_->Intern(term); }

  /// Adds a triple by id. Ids must come from this store's dictionary.
  /// Must not be called while a staged delta is pending (SOFOS_CHECK).
  void Add(TermId s, TermId p, TermId o);

  /// Convenience: interns the three terms and adds the triple.
  void Add(const Term& s, const Term& p, const Term& o);

  /// Sorts and deduplicates the triples, rebuilds the canonical array and
  /// its subject directory, all shards of both families, and the
  /// statistics. Idempotent. O(n log n) total, but the per-shard sorts
  /// (2 * shard_count tasks) fan out over `pool` when non-null; the result
  /// is identical either way. Must not be called while a staged delta is
  /// pending (SOFOS_CHECK).
  void Finalize(ThreadPool* pool = nullptr);

  /// ---- Sharding knobs ----

  /// Sets the number of hash buckets per family (clamped to [1, 256]).
  /// On a finalized store this re-partitions immediately (pool-parallel,
  /// O(n log(n/count))); otherwise it takes effect at the next Finalize().
  /// Scan()/Count()/query results are independent of the shard count by
  /// contract — only rebuild/clone costs change. Must not be called while
  /// a staged delta is pending (SOFOS_CHECK).
  void SetShardCount(size_t count, ThreadPool* pool = nullptr);
  size_t shard_count() const { return shard_count_; }

  /// Switches the object family between its sorted OSP run (false, the
  /// default) and the compact CSR adjacency layout (true; see the class
  /// comment). On a finalized store this rebuilds the shards immediately
  /// (pool-parallel); otherwise it takes effect at the next Finalize().
  /// Results are layout-invariant by contract — only memory footprint and
  /// scan materialization cost change. Must not be
  /// called while a staged delta is pending (SOFOS_CHECK).
  void SetCompactLayout(bool compact, ThreadPool* pool = nullptr);
  bool compact_layout() const { return compact_layout_; }

  /// Deterministic bucket of a term id at a given shard count (splitmix64
  /// finalizer mix, stable across platforms and runs).
  static size_t ShardIndexFor(TermId id, size_t shard_count);

  /// Test hooks for the COW aliasing contract: the identity (address) of
  /// the Shard object backing `family`'s bucket `shard`, and of the
  /// canonical array with its subject directory (one object, replaced as a
  /// whole). Two stores returning the same identity share that state
  /// byte-for-byte; ApplyDelta() must change the identity of exactly the
  /// buckets the delta hashes into. Requires finalized().
  const void* ShardIdentity(Family family, size_t shard) const;
  const void* CanonicalIdentity() const;

  /// ---- Staged-delta mutation path (see class comment) ----

  /// Stages one triple for insertion/removal by the next ApplyDelta().
  /// Ids must come from this store's dictionary. Staging is allowed only on
  /// a finalized store (SOFOS_CHECK) — the delta is defined against the
  /// finalized state it will merge into.
  void StageAdd(TermId s, TermId p, TermId o);
  void StageDelete(TermId s, TermId p, TermId o);
  /// Convenience overloads that intern the terms first.
  void StageAdd(const Term& s, const Term& p, const Term& o);
  void StageDelete(const Term& s, const Term& p, const Term& o);

  size_t staged_adds() const { return delta_adds_.size(); }
  size_t staged_deletes() const { return delta_deletes_.size(); }
  bool HasStagedDelta() const {
    return !delta_adds_.empty() || !delta_deletes_.empty();
  }
  /// Drops the staged buffers without applying them.
  void DiscardStagedDelta();

  /// Merges the staged delta into the canonical array (rebuilding its
  /// subject directory) and the delta-touched shards (untouched shards keep
  /// their shared, pointer-aliased Shard) and refreshes the statistics; the
  /// store stays finalized and Scan() ranges taken from *this store* before
  /// the call are invalidated (ranges held via a Clone() stay valid — the
  /// clone still owns the canonical array and its shards). When `pool` is
  /// non-null the canonical merge and the per-shard merges run
  /// concurrently; results are identical either way.
  DeltaApplyResult ApplyDelta(ThreadPool* pool = nullptr);

  /// Replaces the triple set wholesale (dictionary is kept; superfluous
  /// terms stay interned and harmless). Used to roll an expanded graph G+
  /// back to a base snapshot G between experiments. Leaves the store
  /// unfinalized.
  void ReplaceTriples(std::vector<Triple> triples);

  bool finalized() const { return finalized_; }

  /// A contiguous range of matching triples (valid until the next
  /// mutation of every store sharing the underlying canonical array or
  /// shard). Ranges that filter or decode (SOP scans, compact object
  /// shards) own their storage instead (a shared materialization buffer,
  /// see backing()), so copies of the range keep the triples alive
  /// regardless of later store mutations; the validity rule above is the
  /// weaker of the two and always safe to assume.
  class ScanRange {
   public:
    ScanRange() = default;
    ScanRange(const Triple* begin, const Triple* end) : begin_(begin), end_(end) {}
    ScanRange(const Triple* begin, const Triple* end,
              std::shared_ptr<const std::vector<Triple>> backing)
        : begin_(begin), end_(end), backing_(std::move(backing)) {}
    const Triple* begin() const { return begin_; }
    const Triple* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    /// Non-null iff the range owns its triples (SOP and compact scans);
    /// sub-ranges must share it to inherit the lifetime.
    const std::shared_ptr<const std::vector<Triple>>& backing() const {
      return backing_;
    }

   private:
    const Triple* begin_ = nullptr;
    const Triple* end_ = nullptr;
    std::shared_ptr<const std::vector<Triple>> backing_;
  };

  /// Returns all triples matching the pattern (kNullTermId = wildcard).
  /// Requires finalized(). The range is sorted in the order of the index
  /// that serves the bound prefix. Contents and order are independent of
  /// the shard count and layout: a bound subject resolves to its block of
  /// the canonical array (O(1) directory lookup; ids with no triples or past
  /// the directory's end miss), any other bound leading field to one shard
  /// (same bytes as the single-array subset), and the fully unbound pattern
  /// is the canonical SPO array itself.
  ScanRange Scan(TermId s, TermId p, TermId o) const;
  ScanRange Scan(const TripleIdPattern& pattern) const {
    return Scan(pattern.s, pattern.p, pattern.o);
  }

  /// The field comparison priority of the index Scan() would serve this
  /// bound-set from (0 = subject, 1 = predicate, 2 = object; e.g. SPO =
  /// {0,1,2}, POS = {1,2,0}). Triples inside a Scan() range are sorted by
  /// this priority. The vectorized hash join uses it to order bucket
  /// matches exactly like the index nested-loop join would emit them —
  /// the determinism contract between the two join algorithms. Depends
  /// only on which positions are bound, so callers may pass any non-null
  /// sentinel ids.
  static std::array<int, 3> ScanFieldOrder(bool s_bound, bool p_bound,
                                           bool o_bound);

  /// Exact number of triples matching the pattern. Requires finalized().
  /// Never materializes: subject blocks and sorted runs answer from
  /// binary-search bounds (SOP counts its block's matches), compact shards
  /// from CSR offsets — so the planner's per-pattern cardinality pass stays
  /// cheap in either layout.
  uint64_t Count(TermId s, TermId p, TermId o) const;

  /// True iff the exact triple is present. Requires finalized().
  bool Contains(TermId s, TermId p, TermId o) const {
    return Count(s, p, o) > 0;
  }

  size_t NumTriples() const {
    return finalized_ && canonical_ != nullptr ? canonical_->triples.size()
                                               : pending_.size();
  }
  size_t NumTerms() const { return dict_->size(); }

  /// Distinct terms used in subject or object position (graph nodes, the
  /// |I ∪ B ∪ L| of the paper's node-count cost model): the ids with a
  /// non-empty directory block plus the object-family leads without one.
  /// Recomputed by Finalize()/ApplyDelta(). Requires finalized().
  uint64_t NumNodes() const { return num_nodes_; }

  /// Distinct predicates. Requires finalized().
  uint64_t NumPredicates() const { return predicate_stats_.size(); }

  const PredicateStats* StatsFor(TermId predicate) const;
  const std::unordered_map<TermId, PredicateStats>& predicate_stats() const {
    return predicate_stats_;
  }

  /// Average matches when probing (?s p ?o) with a bound subject /
  /// object: triples(p) / distinct_subjects(p) resp. distinct_objects(p).
  /// 0 when the predicate is unknown. Global statistics — identical at
  /// every shard count and layout — so planner decisions built on them
  /// keep the determinism contract.
  double AvgSubjectFanout(TermId predicate) const;
  double AvgObjectFanout(TermId predicate) const;

  /// Rough heap footprint of indexes + dictionary, for storage metrics.
  /// State shared with clones is counted in every owner (the same bytes a
  /// deep copy would have duplicated).
  uint64_t MemoryBytes() const;

  Dictionary* mutable_dictionary() { return dict_.get(); }
  const Dictionary& dictionary() const { return *dict_; }

  /// All triples in SPO order (the canonical array). Requires finalized().
  const std::vector<Triple>& triples() const {
    return finalized_ && canonical_ != nullptr ? canonical_->triples
                                               : pending_;
  }

 private:
  /// The canonical SPO array and its subject directory, immutable once
  /// built and shared copy-on-write: subject `s` owns
  /// triples[subject_offsets[s], subject_offsets[s + 1]) — empty for an id
  /// with no triples; ids past the end own nothing.
  struct Canonical {
    std::vector<Triple> triples;
    std::vector<uint32_t> subject_offsets;  // largest subject + 2 entries
  };

  /// One immutable hash bucket of one family, in one of two layouts:
  ///
  ///  - Sorted runs (compact == false): the bucket's triples sorted by the
  ///    family's orders (predicate: runs[0] PSO, runs[1] POS; object:
  ///    runs[0] OSP).
  ///  - Compact CSR (compact == true; object family only): node_ids holds
  ///    the bucket's distinct objects ascending, node_offsets[i],
  ///    node_offsets[i+1]) brackets node i's slice of edges, and each edge
  ///    stores (s, p) in OSP order (runs stay empty).
  ///
  /// Predicate-family shards additionally carry the per-predicate
  /// statistics of the predicates hashing into the bucket (a predicate
  /// never spans shards). Published Shards are never modified —
  /// ApplyDelta() swaps in replacements — which is what makes Clone() a
  /// pointer copy.
  struct Shard {
    using Edge = std::array<TermId, 2>;

    std::array<std::vector<Triple>, 2> runs;
    std::unordered_map<TermId, PredicateStats> stats;  // predicate family only

    bool compact = false;
    std::vector<TermId> node_ids;
    std::vector<uint32_t> node_offsets;  // node_ids.size() + 1 when compact
    std::vector<Edge> edges;

    uint64_t MemoryBytes() const {
      return (runs[0].capacity() + runs[1].capacity()) * sizeof(Triple) +
             node_ids.capacity() * sizeof(TermId) +
             node_offsets.capacity() * sizeof(uint32_t) +
             edges.capacity() * sizeof(Edge);
    }
  };

  /// Restores the freshly-constructed state (used on moved-from stores).
  void Reset();

  /// Wraps SPO-sorted, deduplicated triples with their subject directory,
  /// built in one linear pass.
  static std::shared_ptr<const Canonical> MakeCanonical(
      std::vector<Triple> triples);

  /// Subject `s`'s block of the canonical array (empty on a miss).
  std::pair<const Triple*, const Triple*> SubjectBlock(TermId s) const;

  /// Rebuilds every shard of both families from the canonical array
  /// (pool-parallel per-shard sorts) plus all statistics.
  void BuildShards(ThreadPool* pool);

  /// Repartitions `triples` (given in canonical SPO order) into
  /// shard_count_ buckets by the hash of `field`. Bucket vectors stay in
  /// canonical relative order, i.e. SPO-sorted.
  std::vector<std::vector<Triple>> PartitionByField(
      const std::vector<Triple>& triples, int field) const;

  /// Recomputes predicate-family shard statistics (from its two runs).
  static void ComputeShardStats(Shard* shard);

  /// True when `family` stores its shards in the compact CSR layout under
  /// the current flag (only the object family ever does).
  bool FamilyCompact(int family) const {
    return compact_layout_ && family == kObjectFamily;
  }

  /// Encodes an OSP-sorted object bucket into `out`'s CSR arrays, and the
  /// inverse: decodes a compact shard back into OSP-order triples (the
  /// delta-merge input).
  static void CompressShard(Shard* out, const std::vector<Triple>& bucket);
  static std::vector<Triple> DecompressShard(const Shard& shard);

  /// Object `o`'s edge slice in a compact shard (empty on a miss).
  static std::pair<const Shard::Edge*, const Shard::Edge*> NodeEdges(
      const Shard& shard, TermId o);

  /// Re-derives predicate_stats_ (the merged map) and num_nodes_ from the
  /// current canonical array and shards.
  void RefreshStats();

  std::shared_ptr<Dictionary> dict_;
  /// Canonical triples plus subject directory; non-null and authoritative
  /// while finalized_. Shared copy-on-write with clones.
  std::shared_ptr<const Canonical> canonical_;
  /// Staging buffer for the legacy Add()/ReplaceTriples() path: holds the
  /// full (possibly duplicated, unsorted) triple multiset while
  /// !finalized_. Empty while finalized.
  std::vector<Triple> pending_;
  size_t shard_count_ = 1;
  /// families_[f] has shard_count_ entries; all non-null while finalized_.
  std::array<std::vector<std::shared_ptr<const Shard>>, kNumFamilies> families_;
  std::vector<Triple> delta_adds_;     // staged, unsorted until ApplyDelta
  std::vector<Triple> delta_deletes_;  // staged, unsorted until ApplyDelta
  /// Merged view over the predicate-family shard maps (kept global so
  /// StatsFor()/predicate_stats() stay O(1)/iterable).
  std::unordered_map<TermId, PredicateStats> predicate_stats_;
  uint64_t num_nodes_ = 0;
  bool finalized_ = false;
  bool compact_layout_ = false;
};

}  // namespace sofos

#endif  // SOFOS_RDF_TRIPLE_STORE_H_
