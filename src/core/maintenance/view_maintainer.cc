#include "core/maintenance/view_maintainer.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "rdf/vocab.h"
#include "sparql/delta_join.h"
#include "sparql/value.h"

namespace sofos {
namespace core {
namespace maintenance {

namespace {

/// Roll-up accumulator over root cells; mirrors the executor's aggregate
/// accumulator (isum/dsum split, saw_double promotion, total-order MIN/MAX)
/// so that maintained literals match what the view query would produce.
struct Accum {
  int64_t isum = 0;
  double dsum = 0.0;
  bool saw_double = false;
  uint64_t rows = 0;
  bool has_best = false;
  sparql::Value best;
};

inline TermId FieldOf(const Triple& t, int f) {
  switch (f) {
    case 0:
      return t.s;
    case 1:
      return t.p;
    default:
      return t.o;
  }
}

}  // namespace

const char* MaintainModeName(MaintainMode mode) {
  switch (mode) {
    case MaintainMode::kDelta:
      return "delta";
    case MaintainMode::kFull:
      return "full";
    case MaintainMode::kSkip:
      break;
  }
  return "skip";
}

std::string MaintenanceReport::Summary() const {
  uint64_t rows_added = 0, rows_deleted = 0, rows_updated = 0;
  for (const ViewMaintenance& v : views) {
    rows_added += v.rows_added;
    rows_deleted += v.rows_deleted;
    rows_updated += v.rows_updated;
  }
  if (skipped) return "maintenance skipped (delta off the facet pattern)";
  return StrFormat(
      "mode=%s root_changed=%llu bindings=%llu rows +%llu -%llu ~%llu "
      "triples +%llu -%llu (root %s, maintain %s, merge %s)",
      MaintainModeName(mode),
      static_cast<unsigned long long>(root_rows_changed),
      static_cast<unsigned long long>(delta_bindings),
      static_cast<unsigned long long>(rows_added),
      static_cast<unsigned long long>(rows_deleted),
      static_cast<unsigned long long>(rows_updated),
      static_cast<unsigned long long>(triples_added),
      static_cast<unsigned long long>(triples_deleted),
      FormatMicros(root_query_micros).c_str(),
      FormatMicros(maintain_micros).c_str(),
      FormatMicros(merge_micros).c_str());
}

size_t ViewMaintainer::KeyHash::operator()(const Key& key) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (TermId id : key) h = HashCombine(h, id);
  return static_cast<size_t>(h);
}

ViewMaintainer::ViewMaintainer(TripleStore* store, const Facet* facet)
    : store_(store), facet_(facet) {}

Status ViewMaintainer::Initialize(const std::vector<MaterializedView>& views,
                                  RootTable root) {
  if (!store_->finalized()) {
    return Status::Internal("ViewMaintainer requires a finalized store");
  }
  if (root.num_dims() != facet_->num_dims()) {
    return Status::InvalidArgument("root table of a different facet");
  }
  view_pred_id_ = store_->Intern(Term::Iri(std::string(vocab::kSofosView)));
  value_pred_id_ = store_->Intern(Term::Iri(std::string(vocab::kSofosValue)));
  rows_pred_id_ = store_->Intern(Term::Iri(std::string(vocab::kSofosRows)));
  dim_pred_ids_.clear();
  for (const FacetDim& dim : facet_->dims()) {
    dim_pred_ids_.push_back(
        store_->Intern(Term::Iri(vocab::DimPredicate(dim.var))));
  }

  // Δ-join layout: the facet pattern's slot table plus where the dimension
  // and aggregated variables live in it. Delta rules are legal only when
  // every pattern predicate is a constant (otherwise any triple is a
  // potential binding and the pass falls back to full recompute).
  vars_ = sparql::BgpVariables(facet_->pattern());
  pattern_delta_ok_ = true;
  for (const sparql::TriplePattern& tp : facet_->pattern()) {
    if (tp.p.is_var()) pattern_delta_ok_ = false;
  }
  dim_slots_.clear();
  for (const FacetDim& dim : facet_->dims()) {
    auto slot = vars_.Get(dim.var);
    if (!slot.has_value()) pattern_delta_ok_ = false;
    dim_slots_.push_back(slot.value_or(-1));
  }
  {
    auto slot = vars_.Get(facet_->agg_var());
    if (!slot.has_value()) pattern_delta_ok_ = false;
    agg_slot_ = slot.value_or(-1);
  }

  root_ = std::move(root);

  views_.clear();
  views_.reserve(views.size());
  for (const MaterializedView& mv : views) {
    ViewState state;
    state.mask = mv.mask;
    state.view_iri_id =
        store_->Intern(Term::Iri(vocab::ViewIri(facet_->name(), mv.mask)));
    for (size_t d = 0; d < facet_->num_dims(); ++d) {
      if ((mv.mask >> d) & 1u) state.dims.push_back(static_cast<int>(d));
    }
    SOFOS_RETURN_IF_ERROR(IndexViewRows(&state));
    if (state.mask != facet_->FullMask()) BuildViewAccumulators(&state);
    views_.push_back(std::move(state));
  }
  pending_ = PendingDelta{};
  initialized_ = true;
  return Status::OK();
}

bool ViewMaintainer::Affects(const GraphDelta& delta) const {
  std::set<std::string> pattern_preds;
  for (const sparql::TriplePattern& tp : facet_->pattern()) {
    if (tp.p.is_var()) return true;  // conservative: any predicate may match
    if (tp.p.term().is_iri()) pattern_preds.insert(tp.p.term().lexical());
  }
  auto touches = [&](const std::vector<TermTriple>& triples) {
    for (const TermTriple& t : triples) {
      if (t.p.is_iri() && pattern_preds.count(t.p.lexical()) > 0) return true;
    }
    return false;
  };
  return touches(delta.adds) || touches(delta.deletes);
}

Status ViewMaintainer::PrepareDelta(const std::vector<Triple>& add_ids,
                                    const std::vector<Triple>& delete_ids) {
  pending_ = PendingDelta{};
  if (!initialized_ || !pattern_delta_ok_) {
    return Status::OK();  // MaintainAll falls back to full recompute
  }
  // Only triples carrying a facet-pattern predicate can change bindings;
  // the rest drop out here so the cost crossover measures the relevant
  // delta. Every pattern predicate is constant (pattern_delta_ok_).
  std::unordered_set<TermId> pattern_pred_ids;
  const Dictionary& dict = store_->dictionary();
  for (const sparql::TriplePattern& tp : facet_->pattern()) {
    auto id = dict.Lookup(tp.p.term());
    if (id.has_value()) pattern_pred_ids.insert(*id);
  }
  // Effective delta under G' = (G \ D) ∪ A, against the pre-delta graph:
  // adds already present are no-ops, deletes of absent triples are no-ops,
  // and a triple both deleted and added survives (the add wins).
  for (const Triple& t : add_ids) {
    if (pattern_pred_ids.count(t.p) == 0) continue;
    if (!store_->Contains(t.s, t.p, t.o)) pending_.adds.push_back(t);
  }
  for (const Triple& t : delete_ids) {
    if (pattern_pred_ids.count(t.p) == 0) continue;
    if (!store_->Contains(t.s, t.p, t.o)) continue;
    if (std::binary_search(add_ids.begin(), add_ids.end(), t)) continue;
    pending_.deletes.push_back(t);
  }
  pending_.prepared = true;
  return Status::OK();
}

Status ViewMaintainer::IndexViewRows(ViewState* view) const {
  // Resume the fresh-row counter past any labels a previous maintainer
  // instance minted (the maintainer is rebuilt whenever the view set
  // changes); reusing a label would attach a second group key to an
  // existing blank node.
  const std::string fresh_prefix =
      StrFormat("mvm_%s_%u_", facet_->name().c_str(), view->mask);
  for (const Triple& t :
       store_->Scan(kNullTermId, view_pred_id_, view->view_iri_id)) {
    TermId blank = t.s;
    const Term& blank_term = store_->dictionary().term(blank);
    if (blank_term.is_blank() &&
        StrStartsWith(blank_term.lexical(), fresh_prefix)) {
      uint64_t n = std::strtoull(
          blank_term.lexical().c_str() + fresh_prefix.size(), nullptr, 10);
      view->next_fresh = std::max(view->next_fresh, n + 1);
    }
    Key key(view->dims.size(), kNullTermId);
    RowInfo info;
    info.blank = blank;
    for (const Triple& rt : store_->Scan(blank, kNullTermId, kNullTermId)) {
      if (rt.p == value_pred_id_) {
        info.value_id = rt.o;
      } else if (rt.p == rows_pred_id_) {
        info.rows_id = rt.o;
      } else {
        for (size_t j = 0; j < view->dims.size(); ++j) {
          if (rt.p == dim_pred_ids_[static_cast<size_t>(view->dims[j])]) {
            key[j] = rt.o;
            break;
          }
        }
      }
    }
    view->rows.emplace(std::move(key), info);
  }
  return Status::OK();
}

void ViewMaintainer::BuildViewAccumulators(ViewState* view) const {
  // root_ rows are in sorted key order, so every bucket vector comes out
  // sorted — the invariant the incremental bucket edits preserve.
  for (size_t r = 0; r < root_.size(); ++r) {
    const RootCell& cell = root_.cell(r);
    Key root_key(root_.key(r), root_.key(r) + root_.num_dims());
    Key pk = ProjectKey(root_key, *view);
    ViewCell& c = view->cells[pk];
    c.rows += static_cast<int64_t>(cell.rows);
    c.isum += cell.isum;
    c.dsum += cell.dsum;
    if (cell.saw_double) ++c.double_roots;
    ++c.root_keys;
    view->buckets[pk].push_back(root_key);
  }
}

ViewMaintainer::Key ViewMaintainer::ProjectKey(const Key& root_key,
                                               const ViewState& view) const {
  Key key(view.dims.size(), kNullTermId);
  for (size_t j = 0; j < view.dims.size(); ++j) {
    key[j] = root_key[static_cast<size_t>(view.dims[j])];
  }
  return key;
}

Result<RootCell> ViewMaintainer::EvalRootGroup(const Key& key) const {
  // Seed the full facet BGP with the dimension slots pre-bound to the
  // group key: the targeted re-evaluation behind MIN/MAX and double
  // groups. Emits the group's bindings in the seeded plan's match order.
  const std::vector<sparql::TriplePattern>& patterns = facet_->pattern();
  std::vector<size_t> remaining(patterns.size());
  std::iota(remaining.begin(), remaining.end(), size_t{0});
  sparql::Row seed(vars_.size(), kNullTermId);
  std::vector<int> bound_slots;
  for (size_t d = 0; d < dim_slots_.size(); ++d) {
    if (key[d] == kNullTermId) continue;
    seed[static_cast<size_t>(dim_slots_[d])] = key[d];
    bound_slots.push_back(dim_slots_[d]);
  }
  SOFOS_ASSIGN_OR_RETURN(
      sparql::SeededJoinResult res,
      sparql::EvaluateSeededBgp(*store_, vars_, patterns, remaining,
                                bound_slots, {seed}));

  // Fold exactly like the executor's aggregate accumulator, then decode
  // the finalized term back into the cell decomposition the same way
  // RootTable::Evaluate decodes query results — one canonical
  // decomposition regardless of which path produced the cell.
  const Dictionary& dict = store_->dictionary();
  Accum acc;
  for (const sparql::Row& row : res.rows) {
    ++acc.rows;
    sparql::Value v = sparql::Value::FromTerm(
        dict.term(row[static_cast<size_t>(agg_slot_)]));
    switch (facet_->agg_kind()) {
      case sparql::AggKind::kCount:
        break;
      case sparql::AggKind::kSum:
      case sparql::AggKind::kAvg:
        if (!v.is_numeric()) break;
        if (v.type() == sparql::Value::Type::kDouble) {
          acc.saw_double = true;
          acc.dsum += v.double_value();
        } else {
          acc.isum += v.int_value();
        }
        break;
      case sparql::AggKind::kMin:
        if (!acc.has_best || v.TotalCompare(acc.best) < 0) {
          acc.best = std::move(v);
          acc.has_best = true;
        }
        break;
      case sparql::AggKind::kMax:
        if (!acc.has_best || v.TotalCompare(acc.best) > 0) {
          acc.best = std::move(v);
          acc.has_best = true;
        }
        break;
    }
  }

  RootCell cell;
  cell.rows = acc.rows;
  if (cell.rows == 0) return cell;  // dead group
  Term value_term;
  bool has_value = true;
  switch (facet_->agg_kind()) {
    case sparql::AggKind::kCount:
      value_term = Term::Integer(static_cast<int64_t>(acc.rows));
      break;
    case sparql::AggKind::kSum:
    case sparql::AggKind::kAvg:  // encoded as SUM (see Materializer)
      value_term = acc.saw_double
                       ? Term::Double(acc.dsum + static_cast<double>(acc.isum))
                       : Term::Integer(acc.isum);
      break;
    case sparql::AggKind::kMin:
    case sparql::AggKind::kMax: {
      has_value = false;
      if (acc.has_best) {
        auto term = acc.best.ToTerm();
        if (term.ok()) {
          value_term = *term;
          has_value = true;
        }
      }
      break;
    }
  }
  if (has_value) {
    cell.value_id = store_->Intern(value_term);
    if (value_term.datatype() == Term::Datatype::kDouble) {
      cell.dsum = value_term.AsDouble().ValueOr(0.0);
      cell.saw_double = true;
    } else if (value_term.datatype() == Term::Datatype::kInteger) {
      cell.isum = value_term.AsInt64().ValueOr(0);
    }
  }
  cell.rows_id =
      store_->Intern(Term::Integer(static_cast<int64_t>(cell.rows)));
  return cell;
}

Result<bool> ViewMaintainer::ComputeDeltaDiff(std::vector<RootDiff>* diff,
                                              MaintenanceReport* report) const {
  const std::vector<sparql::TriplePattern>& patterns = facet_->pattern();
  const size_t n = patterns.size();
  if (n == 0 || n >= 16) return false;  // no subset enumeration; full mode

  // Resolve every pattern's constants and slots against the post-delta
  // dictionary, then sort the effective delta triples into per-pattern
  // signed lists (adds +1, deletes -1).
  struct PatternInfo {
    std::array<TermId, 3> consts{{kNullTermId, kNullTermId, kNullTermId}};
    std::array<int, 3> slots{{-1, -1, -1}};
    bool possible = true;  // a constant absent from the dict matches nothing
    std::vector<std::pair<Triple, int8_t>> delta;
  };
  const Dictionary& dict = store_->dictionary();
  std::vector<PatternInfo> info(n);
  for (size_t i = 0; i < n; ++i) {
    const sparql::TriplePattern& tp = patterns[i];
    const sparql::PatternTerm* positions[3] = {&tp.s, &tp.p, &tp.o};
    for (int f = 0; f < 3; ++f) {
      if (positions[f]->is_var()) {
        auto slot = vars_.Get(positions[f]->var());
        if (!slot.has_value()) {
          return Status::Internal("facet pattern variable missing from layout");
        }
        info[i].slots[f] = *slot;
      } else {
        auto id = dict.Lookup(positions[f]->term());
        if (!id.has_value()) {
          info[i].possible = false;
        } else {
          info[i].consts[f] = *id;
        }
      }
    }
  }
  // Unifies `t` against pattern `pi` into `row` (kNullTermId = unbound);
  // fails on constant mismatch or inconsistent repeated variables.
  auto unify = [](const PatternInfo& pi, const Triple& t, sparql::Row* row) {
    const TermId fields[3] = {t.s, t.p, t.o};
    for (int f = 0; f < 3; ++f) {
      if (pi.slots[f] >= 0) {
        TermId& cur = (*row)[static_cast<size_t>(pi.slots[f])];
        if (cur == kNullTermId) {
          cur = fields[f];
        } else if (cur != fields[f]) {
          return false;
        }
      } else if (pi.consts[f] != fields[f]) {
        return false;
      }
    }
    return true;
  };
  for (const auto& [side, sign] :
       {std::make_pair(&pending_.adds, int8_t{1}),
        std::make_pair(&pending_.deletes, int8_t{-1})}) {
    for (const Triple& t : *side) {
      for (size_t i = 0; i < n; ++i) {
        if (!info[i].possible) continue;
        sparql::Row scratch(vars_.size(), kNullTermId);
        if (unify(info[i], t, &scratch)) info[i].delta.emplace_back(t, sign);
      }
    }
  }

  // Inclusion–exclusion over the post-delta store. With m'_i the
  // post-state pattern relations and δ_i = A_i − D_i the signed deltas
  // (so the pre-state is m'_i − δ_i):
  //
  //   ΔJ = Π m'_i − Π (m'_i − δ_i)
  //      = Σ_{∅≠S⊆[n]} (−1)^{|S|+1} (Π_{i∈S} δ_i) ⋈ (Π_{j∉S} m'_j)
  //
  // Every term is a seeded join: the patterns in S bind their variables
  // from delta triples (tiny lists), the rest evaluate against the store.
  // Per-binding weight = (−1)^{|S|+1} × the product of the chosen delta
  // triples' signs; groups fold weights into (rows, Σvalue) deltas.
  struct DeltaCell {
    int64_t drows = 0;
    int64_t disum = 0;
    bool touched_double = false;
  };
  std::map<Key, DeltaCell> accum;
  uint64_t bindings = 0;
  const bool is_count = facet_->agg_kind() == sparql::AggKind::kCount;
  const bool is_sum = facet_->agg_kind() == sparql::AggKind::kSum ||
                      facet_->agg_kind() == sparql::AggKind::kAvg;
  const size_t num_dims = facet_->num_dims();

  for (uint32_t subset = 1; subset < (1u << n); ++subset) {
    std::vector<size_t> members;
    bool feasible = true;
    for (size_t i = 0; i < n; ++i) {
      if (((subset >> i) & 1u) == 0) continue;
      if (info[i].delta.empty()) {
        feasible = false;
        break;
      }
      members.push_back(i);
    }
    if (!feasible) continue;

    // Build the signed seed rows: the join of the members' delta lists.
    // Each extension anchors on a position whose variable is already
    // bound (hash on that field) when one exists; disconnected members
    // fall back to the full cross product — both tiny, both exact.
    std::vector<sparql::Row> seeds;
    std::vector<int8_t> signs;
    std::unordered_set<int> bound_slot_set;
    for (size_t mi = 0; mi < members.size(); ++mi) {
      const PatternInfo& pi = info[members[mi]];
      const auto& dl = pi.delta;
      if (mi == 0) {
        seeds.reserve(dl.size());
        for (const auto& [t, sg] : dl) {
          sparql::Row row(vars_.size(), kNullTermId);
          if (unify(pi, t, &row)) {
            seeds.push_back(std::move(row));
            signs.push_back(sg);
          }
        }
      } else {
        int anchor = -1;
        for (int f = 0; f < 3; ++f) {
          if (pi.slots[f] >= 0 && bound_slot_set.count(pi.slots[f]) > 0) {
            anchor = f;
            break;
          }
        }
        std::vector<sparql::Row> next;
        std::vector<int8_t> nsigns;
        if (anchor >= 0) {
          std::unordered_multimap<TermId, size_t> index;
          index.reserve(dl.size());
          for (size_t d = 0; d < dl.size(); ++d) {
            index.emplace(FieldOf(dl[d].first, anchor), d);
          }
          std::vector<size_t> hits;
          for (size_t r = 0; r < seeds.size(); ++r) {
            hits.clear();
            auto [lo, hi] = index.equal_range(
                seeds[r][static_cast<size_t>(pi.slots[anchor])]);
            for (auto it = lo; it != hi; ++it) hits.push_back(it->second);
            std::sort(hits.begin(), hits.end());  // deterministic order
            for (size_t d : hits) {
              sparql::Row row = seeds[r];
              if (unify(pi, dl[d].first, &row)) {
                next.push_back(std::move(row));
                nsigns.push_back(
                    static_cast<int8_t>(signs[r] * dl[d].second));
              }
            }
          }
        } else {
          for (size_t r = 0; r < seeds.size(); ++r) {
            for (const auto& [t, sg] : dl) {
              sparql::Row row = seeds[r];
              if (unify(pi, t, &row)) {
                next.push_back(std::move(row));
                nsigns.push_back(static_cast<int8_t>(signs[r] * sg));
              }
            }
          }
        }
        seeds = std::move(next);
        signs = std::move(nsigns);
      }
      if (seeds.empty()) break;
      for (int f = 0; f < 3; ++f) {
        if (pi.slots[f] >= 0) bound_slot_set.insert(pi.slots[f]);
      }
    }
    if (seeds.empty()) continue;

    std::vector<size_t> remaining;
    for (size_t j = 0; j < n; ++j) {
      if (((subset >> j) & 1u) == 0) remaining.push_back(j);
    }
    std::vector<int> bound_slots(bound_slot_set.begin(), bound_slot_set.end());
    std::sort(bound_slots.begin(), bound_slots.end());
    SOFOS_ASSIGN_OR_RETURN(
        sparql::SeededJoinResult res,
        sparql::EvaluateSeededBgp(*store_, vars_, patterns, remaining,
                                  bound_slots, seeds));

    const int subset_sign = (members.size() % 2 == 1) ? 1 : -1;
    for (size_t r = 0; r < res.rows.size(); ++r) {
      const sparql::Row& row = res.rows[r];
      const int w = subset_sign * signs[res.seed_index[r]];
      ++bindings;
      Key key(num_dims, kNullTermId);
      for (size_t d = 0; d < num_dims; ++d) {
        key[d] = row[static_cast<size_t>(dim_slots_[d])];
      }
      DeltaCell& cell = accum[key];
      cell.drows += w;
      if (is_count) {
        cell.disum += w;
      } else if (is_sum) {
        sparql::Value v = sparql::Value::FromTerm(
            dict.term(row[static_cast<size_t>(agg_slot_)]));
        if (v.is_numeric()) {
          if (v.type() == sparql::Value::Type::kDouble) {
            cell.touched_double = true;
          } else {
            cell.disum += w * v.int_value();
          }
        }
      }
      // MIN/MAX: the value is never folded additively; every touched
      // group goes through the targeted re-evaluation below.
    }
  }
  report->delta_bindings = bindings;

  // Net per-key changes → diff entries. Read-only on root_: the caller
  // applies the diff only after the whole pass succeeded, so a fallback
  // to full recompute starts from an intact cache.
  const bool minmax = facet_->agg_kind() == sparql::AggKind::kMin ||
                      facet_->agg_kind() == sparql::AggKind::kMax;
  for (const auto& [key, dc] : accum) {
    const size_t row = root_.Find(key.data());
    const bool had_old = row < root_.size();
    const RootCell old_cell = had_old ? root_.cell(row) : RootCell{};
    const int64_t new_rows =
        (had_old ? static_cast<int64_t>(old_cell.rows) : 0) + dc.drows;
    if (new_rows < 0) return false;  // algebra violated: fall back to full

    RootDiff entry;
    entry.key = key;
    entry.old_cell = old_cell;
    entry.had_old = had_old;
    if (new_rows == 0) {
      if (!had_old) continue;  // net no-op on a nonexistent group
      entry.has_new = false;
    } else if (minmax || dc.touched_double || old_cell.saw_double ||
               old_cell.dsum != 0.0) {
      // Non-additive content: re-evaluate exactly this group.
      SOFOS_ASSIGN_OR_RETURN(RootCell fresh, EvalRootGroup(key));
      if (fresh.rows != static_cast<uint64_t>(new_rows)) return false;
      ++report->regrouped_keys;
      entry.new_cell = fresh;
      entry.has_new = true;
    } else {
      RootCell fresh;
      fresh.rows = static_cast<uint64_t>(new_rows);
      fresh.isum = old_cell.isum + dc.disum;
      fresh.value_id = store_->Intern(Term::Integer(fresh.isum));
      fresh.rows_id = store_->Intern(Term::Integer(new_rows));
      entry.new_cell = fresh;
      entry.has_new = true;
    }
    if (entry.had_old && entry.has_new &&
        entry.old_cell.SameEncoding(entry.new_cell)) {
      continue;  // e.g. an add and a delete that cancel within the group
    }
    diff->push_back(std::move(entry));
  }
  return true;
}

Result<std::vector<ViewMaintainer::RootDiff>>
ViewMaintainer::ComputeFullDiff() {
  SOFOS_ASSIGN_OR_RETURN(RootTable next_root,
                         RootTable::Evaluate(store_, *facet_));
  // Lockstep diff of the sorted tables: keys present on one side only, or
  // present on both with a different encoding, changed.
  const size_t n = root_.num_dims();
  auto compare = [n](const TermId* a, const TermId* b) {
    for (size_t d = 0; d < n; ++d) {
      if (a[d] != b[d]) return a[d] < b[d] ? -1 : 1;
    }
    return 0;
  };
  std::vector<RootDiff> diff;
  size_t i = 0, j = 0;
  while (i < root_.size() || j < next_root.size()) {
    const int c = i == root_.size()       ? 1
                  : j == next_root.size() ? -1
                  : compare(root_.key(i), next_root.key(j));
    RootDiff entry;
    const TermId* key = c <= 0 ? root_.key(i) : next_root.key(j);
    entry.key.assign(key, key + n);
    if (c <= 0) {
      entry.old_cell = root_.cell(i++);
      entry.had_old = true;
    }
    if (c >= 0) {
      entry.new_cell = next_root.cell(j++);
      entry.has_new = true;
    }
    if (c == 0 && entry.old_cell.SameEncoding(entry.new_cell)) continue;
    diff.push_back(std::move(entry));
  }
  root_ = std::move(next_root);
  return diff;
}

void ViewMaintainer::ApplyRootDiff(const std::vector<RootDiff>& diff) {
  std::vector<RootTable::Edit> edits;
  edits.reserve(diff.size());
  for (const RootDiff& entry : diff) {
    edits.push_back(
        {entry.key.data(), entry.has_new ? &entry.new_cell : nullptr});
  }
  root_.Apply(edits);
}

void ViewMaintainer::MaintainView(ViewState* view,
                                  const std::vector<RootDiff>& diff,
                                  StagedEdits* out) const {
  out->stats.mask = view->mask;
  const bool is_root = view->mask == facet_->FullMask();
  const bool minmax = facet_->agg_kind() == sparql::AggKind::kMin ||
                      facet_->agg_kind() == sparql::AggKind::kMax;

  // Affected view keys: projections of the changed root keys. std::set
  // keeps them sorted, which makes fresh-blank assignment deterministic.
  std::set<Key> affected;
  // Projected keys whose exact value must be re-derived from the bucket
  // (double-valued content; MIN/MAX handles every affected key anyway).
  std::set<Key> refold;

  if (is_root) {
    for (const RootDiff& entry : diff) affected.insert(entry.key);
  } else {
    // Fold the diff into the additive accumulators and keep the bucket
    // index current — O(|Δ root keys|) regardless of the view's size.
    for (const RootDiff& entry : diff) {
      Key pk = ProjectKey(entry.key, *view);
      ViewCell& cell = view->cells[pk];
      if (entry.had_old) {
        cell.rows -= static_cast<int64_t>(entry.old_cell.rows);
        cell.isum -= entry.old_cell.isum;
        cell.dsum -= entry.old_cell.dsum;
        if (entry.old_cell.saw_double) --cell.double_roots;
      } else {
        ++cell.root_keys;
        std::vector<Key>& bucket = view->buckets[pk];
        auto pos = std::lower_bound(bucket.begin(), bucket.end(), entry.key);
        if (pos == bucket.end() || *pos != entry.key) {
          bucket.insert(pos, entry.key);
        }
      }
      if (entry.has_new) {
        cell.rows += static_cast<int64_t>(entry.new_cell.rows);
        cell.isum += entry.new_cell.isum;
        cell.dsum += entry.new_cell.dsum;
        if (entry.new_cell.saw_double) ++cell.double_roots;
      } else if (entry.had_old) {
        --cell.root_keys;
        auto bit = view->buckets.find(pk);
        if (bit != view->buckets.end()) {
          auto pos = std::lower_bound(bit->second.begin(), bit->second.end(),
                                      entry.key);
          if (pos != bit->second.end() && *pos == entry.key) {
            bit->second.erase(pos);
          }
        }
      }
      if (entry.old_cell.saw_double || entry.new_cell.saw_double ||
          entry.old_cell.dsum != 0.0 || entry.new_cell.dsum != 0.0) {
        refold.insert(pk);
      }
      affected.insert(std::move(pk));
    }
  }

  auto fold = [](Accum* acc, const RootCell& cell) {
    acc->rows += cell.rows;
    acc->isum += cell.isum;
    acc->dsum += cell.dsum;
    acc->saw_double |= cell.saw_double;
  };
  auto fold_best = [&](Accum* acc, const RootCell& cell) {
    if (cell.value_id == kNullTermId) return;
    sparql::Value v =
        sparql::Value::FromTerm(store_->dictionary().term(cell.value_id));
    const bool is_min = facet_->agg_kind() == sparql::AggKind::kMin;
    if (!acc->has_best ||
        (is_min ? v.TotalCompare(acc->best) < 0
                : v.TotalCompare(acc->best) > 0)) {
      acc->best = std::move(v);
      acc->has_best = true;
    }
  };

  auto stage_row_delete = [&](const Key& key, const RowInfo& info) {
    out->deletes.push_back(Triple{info.blank, view_pred_id_, view->view_iri_id});
    for (size_t j = 0; j < view->dims.size(); ++j) {
      if (key[j] != kNullTermId) {
        out->deletes.push_back(Triple{
            info.blank, dim_pred_ids_[static_cast<size_t>(view->dims[j])],
            key[j]});
      }
    }
    if (info.value_id != kNullTermId) {
      out->deletes.push_back(Triple{info.blank, value_pred_id_, info.value_id});
    }
    if (info.rows_id != kNullTermId) {
      out->deletes.push_back(Triple{info.blank, rows_pred_id_, info.rows_id});
    }
  };

  for (const Key& key : affected) {
    Accum acc;
    bool live = false;
    if (is_root) {
      // Identity projection: the root view's cell IS the root-table cell.
      const size_t row = root_.Find(key.data());
      if (row < root_.size() && root_.cell(row).rows > 0) {
        live = true;
        fold(&acc, root_.cell(row));
        if (minmax) fold_best(&acc, root_.cell(row));
      }
    } else {
      auto cit = view->cells.find(key);
      ViewCell* cell = cit != view->cells.end() ? &cit->second : nullptr;
      live = cell != nullptr && cell->root_keys > 0 && cell->rows > 0;
      if (live) {
        if (minmax || cell->double_roots > 0 || refold.count(key) > 0) {
          // Exact re-derivation over the bucket's live root cells, in
          // sorted root-key order (= what a fresh roll-up would fold).
          uint32_t double_roots = 0;
          auto bit = view->buckets.find(key);
          if (bit != view->buckets.end()) {
            for (const Key& rk : bit->second) {
              const size_t row = root_.Find(rk.data());
              if (row == root_.size()) continue;
              const RootCell& root_cell = root_.cell(row);
              fold(&acc, root_cell);
              if (minmax) fold_best(&acc, root_cell);
              if (root_cell.saw_double) ++double_roots;
            }
          }
          // Resync the additive state to the exact fold (clears any
          // floating-point drift the +=/-= path accumulated).
          cell->isum = acc.isum;
          cell->dsum = acc.dsum;
          cell->rows = static_cast<int64_t>(acc.rows);
          cell->double_roots = double_roots;
          live = acc.rows > 0;
        } else {
          acc.isum = cell->isum;
          acc.rows = static_cast<uint64_t>(cell->rows);
        }
      }
      if (!live && cell != nullptr) {
        view->cells.erase(cit);
        view->buckets.erase(key);
      }
    }

    auto rit = view->rows.find(key);
    if (!live) {
      if (rit != view->rows.end()) {
        stage_row_delete(key, rit->second);
        view->rows.erase(rit);
        ++out->stats.rows_deleted;
      }
      continue;
    }

    // Finalize the rolled-up cell exactly as the executor would.
    TermId value_id = kNullTermId;
    switch (facet_->agg_kind()) {
      case sparql::AggKind::kCount:
      case sparql::AggKind::kSum:
      case sparql::AggKind::kAvg:  // encoded as SUM (see Materializer)
        value_id = store_->Intern(acc.saw_double
                                      ? Term::Double(acc.dsum +
                                                     static_cast<double>(acc.isum))
                                      : Term::Integer(acc.isum));
        break;
      case sparql::AggKind::kMin:
      case sparql::AggKind::kMax: {
        if (acc.has_best) {
          auto term = acc.best.ToTerm();
          if (term.ok()) value_id = store_->Intern(*term);
        }
        break;
      }
    }
    TermId rows_id =
        store_->Intern(Term::Integer(static_cast<int64_t>(acc.rows)));

    if (rit == view->rows.end()) {
      // Fresh group key: encode a new blank-node row. The "mvm_" prefix
      // keeps maintained rows disjoint from the materializer's "mv_" ones.
      RowInfo info;
      info.blank = store_->Intern(Term::Blank(
          StrFormat("mvm_%s_%u_%llu", facet_->name().c_str(), view->mask,
                    static_cast<unsigned long long>(view->next_fresh++))));
      info.value_id = value_id;
      info.rows_id = rows_id;
      out->adds.push_back(Triple{info.blank, view_pred_id_, view->view_iri_id});
      for (size_t j = 0; j < view->dims.size(); ++j) {
        if (key[j] != kNullTermId) {
          out->adds.push_back(Triple{
              info.blank, dim_pred_ids_[static_cast<size_t>(view->dims[j])],
              key[j]});
        }
      }
      if (value_id != kNullTermId) {
        out->adds.push_back(Triple{info.blank, value_pred_id_, value_id});
      }
      out->adds.push_back(Triple{info.blank, rows_pred_id_, rows_id});
      view->rows.emplace(key, info);
      ++out->stats.rows_added;
    } else {
      // Existing row: swap the value / rows literals in place.
      RowInfo& info = rit->second;
      bool touched = false;
      if (info.value_id != value_id) {
        if (info.value_id != kNullTermId) {
          out->deletes.push_back(
              Triple{info.blank, value_pred_id_, info.value_id});
        }
        if (value_id != kNullTermId) {
          out->adds.push_back(Triple{info.blank, value_pred_id_, value_id});
        }
        info.value_id = value_id;
        touched = true;
      }
      if (info.rows_id != rows_id) {
        if (info.rows_id != kNullTermId) {
          out->deletes.push_back(
              Triple{info.blank, rows_pred_id_, info.rows_id});
        }
        out->adds.push_back(Triple{info.blank, rows_pred_id_, rows_id});
        info.rows_id = rows_id;
        touched = true;
      }
      if (touched) ++out->stats.rows_updated;
    }
  }
  out->stats.triples_added = out->adds.size();
  out->stats.triples_deleted = out->deletes.size();
}

Result<MaintenanceReport> ViewMaintainer::MaintainAll(ThreadPool* pool) {
  if (!initialized_) {
    return Status::Internal("ViewMaintainer::MaintainAll before Initialize");
  }
  MaintenanceReport report;

  // Mode decision: delta when it is prepared and legal, forced or under
  // the measured cost crossover; otherwise recompute-and-diff.
  const bool can_delta = pending_.prepared && pattern_delta_ok_;
  const uint64_t delta_size = pending_.adds.size() + pending_.deletes.size();
  bool use_delta = false;
  switch (options_.mode) {
    case MaintainOptions::Mode::kForceFull:
      break;
    case MaintainOptions::Mode::kForceDelta:
      use_delta = can_delta;
      break;
    case MaintainOptions::Mode::kAuto:
      use_delta = can_delta &&
                  static_cast<double>(delta_size) <=
                      options_.crossover_fraction *
                          static_cast<double>(store_->NumTriples());
      break;
  }

  WallTimer root_timer;
  std::vector<RootDiff> diff;
  if (use_delta) {
    SOFOS_ASSIGN_OR_RETURN(bool consistent, ComputeDeltaDiff(&diff, &report));
    if (consistent) {
      ApplyRootDiff(diff);
      report.mode = MaintainMode::kDelta;
    } else {
      // The signed algebra detected an inconsistency (it never should on
      // a normalized delta): root_ is untouched, so rebuild it outright.
      use_delta = false;
      diff.clear();
      report.delta_bindings = 0;
      report.regrouped_keys = 0;
    }
  }
  if (!use_delta) {
    SOFOS_ASSIGN_OR_RETURN(diff, ComputeFullDiff());
    report.mode = MaintainMode::kFull;
  }
  report.root_query_micros = root_timer.ElapsedMicros();
  report.root_rows_changed = diff.size();
  pending_ = PendingDelta{};  // consumed

  if (!diff.empty() && !views_.empty()) {
    WallTimer maintain_timer;
    std::vector<StagedEdits> staged(views_.size());
    ParallelForEach(pool, views_.size(), [&](size_t i) {
      MaintainView(&views_[i], diff, &staged[i]);
    });
    report.maintain_micros = maintain_timer.ElapsedMicros();

    for (StagedEdits& edits : staged) {
      for (const Triple& t : edits.adds) store_->StageAdd(t.s, t.p, t.o);
      for (const Triple& t : edits.deletes) store_->StageDelete(t.s, t.p, t.o);
      report.views.push_back(edits.stats);
    }
    if (store_->HasStagedDelta()) {
      DeltaApplyResult merge = store_->ApplyDelta(pool);
      report.triples_added = merge.adds_applied;
      report.triples_deleted = merge.deletes_applied;
      report.merge_micros = merge.merge_micros;
    }
  } else {
    for (const ViewState& view : views_) {
      ViewMaintenance stats;
      stats.mask = view.mask;
      report.views.push_back(stats);
    }
  }
  return report;
}

}  // namespace maintenance
}  // namespace core
}  // namespace sofos
