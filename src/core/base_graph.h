#ifndef SOFOS_CORE_BASE_GRAPH_H_
#define SOFOS_CORE_BASE_GRAPH_H_

#include <cstddef>
#include <iterator>
#include <vector>

#include "rdf/triple_store.h"

namespace sofos {
namespace core {

/// Read-only view of the base graph G inside a store that holds the
/// expanded graph G+: every triple except the subject blocks of view
/// encoding rows, a row being a subject that carries sofos:view (the
/// Materializer and the maintainer mint these as blank nodes; updates may
/// not use the reserved sofos: vocabulary, so no base subject carries it).
/// Nothing is copied. The view keeps a
/// copy-on-write clone of the store (TripleStore::Clone), so it stays
/// valid and unchanged while the original absorbs later updates.
///
/// Triples come in SPO order: the store's canonical array with the
/// encoding blocks cut out. Rank access maps a base rank to a canonical
/// index through a sorted index of those blocks, built by the constructor
/// in one pass over the rows' sofos:view triples; each lookup is a binary
/// search over the (coalesced) blocks.
class BaseGraphView {
 public:
  /// The empty graph.
  BaseGraphView() = default;
  /// The base graph of `store`; empty when the store is not finalized.
  explicit BaseGraphView(const TripleStore& store);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The triple at `rank` (< size()) in base SPO order.
  const Triple& operator[](size_t rank) const;

  /// True iff `t` is a base triple.
  bool Contains(const Triple& t) const;

  /// The base triples with predicate `p`, in SPO order — the predicate's
  /// PSO run, without copying unless encoding rows also use `p`.
  TripleStore::ScanRange WithPredicate(TermId p) const;

  /// The store clone the view reads (G+ at construction time).
  const TripleStore& store() const { return store_; }

  /// Forward iteration in base SPO order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Triple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Triple*;
    using reference = const Triple&;

    const_iterator() = default;
    reference operator*() const { return view_->triples()[index_]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      ++index_;
      SkipBlocks();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class BaseGraphView;
    const_iterator(const BaseGraphView* view, size_t index, size_t block)
        : view_(view), index_(index), block_(block) {
      SkipBlocks();
    }
    /// Jumps over every encoding block that starts at the current index.
    void SkipBlocks() {
      while (block_ < view_->blocks_.size() &&
             view_->blocks_[block_].begin == index_) {
        index_ = view_->blocks_[block_++].end;
      }
    }

    const BaseGraphView* view_ = nullptr;
    size_t index_ = 0;  // into the canonical array
    size_t block_ = 0;  // next encoding block at or after index_
  };

  const_iterator begin() const { return const_iterator(this, 0, 0); }
  const_iterator end() const {
    return const_iterator(this, triples().size(), blocks_.size());
  }

 private:
  /// Encoding rows' subject blocks, canonical[begin, end).
  struct Block {
    size_t begin = 0;
    size_t end = 0;
  };

  const std::vector<Triple>& triples() const { return store_.triples(); }

  TripleStore store_;
  std::vector<Block> blocks_;         // ascending, disjoint, coalesced
  std::vector<TermId> row_subjects_;  // encoding-row subjects, ascending
  /// Per block k: the base rank of the first triple after block k's start
  /// (its canonical start minus the triples of blocks before it), and the
  /// triples removed by blocks 0..k.
  std::vector<size_t> rank_at_block_;
  std::vector<size_t> removed_through_;
  size_t size_ = 0;
};

}  // namespace core
}  // namespace sofos

#endif  // SOFOS_CORE_BASE_GRAPH_H_
