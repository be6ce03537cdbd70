#include "core/base_graph.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>

#include "rdf/vocab.h"

namespace sofos {
namespace core {

BaseGraphView::BaseGraphView(const TripleStore& store) {
  if (!store.finalized()) return;
  store_ = store.Clone();
  const std::vector<Triple>& all = triples();
  size_ = all.size();
  auto view_pred =
      store_.dictionary().Lookup(Term::Iri(std::string(vocab::kSofosView)));
  if (!view_pred.has_value()) return;

  // The sofos:view run is PSO-sorted, so row subjects (and therefore
  // their blocks in the SPO canonical array) come out ascending. Adjacent
  // blocks coalesce: rows minted together are interned, and so stored,
  // back to back.
  for (const Triple& t : store_.Scan(kNullTermId, *view_pred, kNullTermId)) {
    if (!row_subjects_.empty() && row_subjects_.back() == t.s) continue;
    const TripleStore::ScanRange block =
        store_.Scan(t.s, kNullTermId, kNullTermId);
    const size_t begin = static_cast<size_t>(block.begin() - all.data());
    row_subjects_.push_back(t.s);
    if (!blocks_.empty() && blocks_.back().end == begin) {
      blocks_.back().end += block.size();
    } else {
      blocks_.push_back(Block{begin, begin + block.size()});
    }
  }
  size_t removed = 0;
  rank_at_block_.reserve(blocks_.size());
  removed_through_.reserve(blocks_.size());
  for (const Block& block : blocks_) {
    rank_at_block_.push_back(block.begin - removed);
    removed += block.end - block.begin;
    removed_through_.push_back(removed);
  }
  size_ -= removed;
}

const Triple& BaseGraphView::operator[](size_t rank) const {
  // Blocks whose start lies at or before this rank all precede it.
  const size_t k = static_cast<size_t>(
      std::upper_bound(rank_at_block_.begin(), rank_at_block_.end(), rank) -
      rank_at_block_.begin());
  return triples()[rank + (k == 0 ? 0 : removed_through_[k - 1])];
}

bool BaseGraphView::Contains(const Triple& t) const {
  if (size_ == 0) return false;
  return store_.Contains(t.s, t.p, t.o) &&
         !std::binary_search(row_subjects_.begin(), row_subjects_.end(), t.s);
}

TripleStore::ScanRange BaseGraphView::WithPredicate(TermId p) const {
  if (size_ == 0) return TripleStore::ScanRange();
  TripleStore::ScanRange run = store_.Scan(kNullTermId, p, kNullTermId);
  if (row_subjects_.empty()) return run;
  // The run is sorted by subject: only its stretch inside the row
  // subjects' id range can hold encoding triples, and for a base predicate
  // that stretch holds none, so the run is returned as is.
  const Triple* lo = std::lower_bound(
      run.begin(), run.end(), row_subjects_.front(),
      [](const Triple& t, TermId s) { return t.s < s; });
  const Triple* hi = std::upper_bound(
      lo, run.end(), row_subjects_.back(),
      [](TermId s, const Triple& t) { return s < t.s; });
  auto is_row = [this](const Triple& t) {
    return std::binary_search(row_subjects_.begin(), row_subjects_.end(), t.s);
  };
  if (std::none_of(lo, hi, is_row)) return run;
  auto kept = std::make_shared<std::vector<Triple>>();
  std::remove_copy_if(run.begin(), run.end(), std::back_inserter(*kept),
                      is_row);
  if (kept->empty()) return TripleStore::ScanRange();
  const Triple* begin = kept->data();
  const Triple* end = begin + kept->size();
  return TripleStore::ScanRange(begin, end, std::move(kept));
}

}  // namespace core
}  // namespace sofos
