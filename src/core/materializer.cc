#include "core/materializer.h"

#include <unordered_map>

#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "rdf/vocab.h"

namespace sofos {
namespace core {

Result<std::vector<MaterializedView>> Materializer::MaterializeAll(
    const std::vector<uint32_t>& masks, const RootTable& root,
    ThreadPool* pool) {
  if (!store_->finalized()) {
    return Status::Internal("materializer requires a finalized store");
  }

  // Phase 1: derive every view, fanned out over the pool, before any
  // encoding is appended, so that each view is defined over the same graph
  // state.
  LatticeRollup rollup(&root, facet_, store_->dictionary());
  std::vector<ViewRows> rows(masks.size());
  std::vector<double> derive_micros(masks.size(), 0.0);
  SOFOS_RETURN_IF_ERROR(
      ParallelForEachStatus(pool, masks.size(), [&](size_t i) -> Status {
        WallTimer timer;
        SOFOS_ASSIGN_OR_RETURN(rows[i], rollup.ComputeView(masks[i], store_));
        derive_micros[i] = timer.ElapsedMicros();
        return Status::OK();
      }));
  for (uint32_t mask : masks) {
    if (rollup.NeedsQuery(mask)) ++view_queries_;
  }

  // Phase 2: append the blank-node encodings, serially in mask order (Add
  // and the blank counter require exclusive access; keeping this serial
  // also keeps labels identical to the single-threaded run).
  std::vector<MaterializedView> views;
  views.reserve(masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    WallTimer timer;
    views.push_back(Encode(rows[i]));
    views.back().build_micros = derive_micros[i] + timer.ElapsedMicros();
  }

  // Phase 3: one re-finalization for the whole batch.
  WallTimer timer;
  store_->Finalize(pool);
  if (!views.empty()) {
    double each = timer.ElapsedMicros() / static_cast<double>(views.size());
    for (auto& view : views) view.build_micros += each;
  }
  return views;
}

MaterializedView Materializer::Encode(const ViewRows& rows) {
  MaterializedView view;
  view.mask = rows.mask;
  view.view_iri = vocab::ViewIri(facet_->name(), rows.mask);

  auto intern_iri = [&](std::string iri) {
    return store_->Intern(Term::Iri(std::move(iri)));
  };
  const TermId view_pred = intern_iri(std::string(vocab::kSofosView));
  const TermId value_pred = intern_iri(std::string(vocab::kSofosValue));
  const TermId rows_pred = intern_iri(std::string(vocab::kSofosRows));
  const TermId view_iri = intern_iri(view.view_iri);

  // Dim predicates for the grouped dimensions, in key column order.
  std::vector<TermId> dim_preds;
  for (size_t d = 0; d < facet_->num_dims(); ++d) {
    if ((rows.mask >> d) & 1u) {
      dim_preds.push_back(
          intern_iri(vocab::DimPredicate(facet_->dims()[d].var)));
    }
  }
  // Row counts repeat heavily (1 on every group of a one-binding root).
  std::unordered_map<uint64_t, TermId> rows_ids;

  uint64_t before = store_->NumTriples();
  for (size_t r = 0; r < rows.size(); ++r) {
    TermId blank = store_->Intern(Term::Blank(
        StrFormat("mv_%s_%u_%llu", facet_->name().c_str(), rows.mask,
                  static_cast<unsigned long long>(next_blank_++))));
    store_->Add(blank, view_pred, view_iri);
    for (size_t d = 0; d < dim_preds.size(); ++d) {
      TermId dim = rows.key(r)[d];
      if (dim != kNullTermId) store_->Add(blank, dim_preds[d], dim);
    }
    TermId value = rows.values.empty()
                       ? store_->Intern(Term::Integer(rows.sums[r]))
                       : rows.values[r];
    if (value != kNullTermId) store_->Add(blank, value_pred, value);
    auto [it, fresh] = rows_ids.try_emplace(rows.rows[r], kNullTermId);
    if (fresh) {
      it->second =
          store_->Intern(Term::Integer(static_cast<int64_t>(rows.rows[r])));
    }
    store_->Add(blank, rows_pred, it->second);
    ++view.nodes_added;
  }
  view.rows = rows.size();
  // The append log only grows (blank nodes are fresh, no dedup possible).
  view.triples_added = store_->NumTriples() - before;
  return view;
}

}  // namespace core
}  // namespace sofos
