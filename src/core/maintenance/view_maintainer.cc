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
#include "sparql/aggregate.h"
#include "sparql/delta_join.h"

namespace sofos {
namespace core {
namespace maintenance {

namespace {

/// Roll-up accumulator over root cells, in the executor's aggregate state:
/// `sum` adds the cells' rows (as its count) and their isum/dsum split,
/// `best` folds MIN/MAX picks through sparql::AggFolder, so maintained
/// literals are what the view query would produce.
struct Accum {
  sparql::AggState sum;
  sparql::AggState best;
};

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

void ViewMaintainer::PrepareDelta(const std::vector<Triple>& adds,
                                  const std::vector<Triple>& deletes) {
  pending_ = PendingDelta{};
  if (!initialized_ || !pattern_delta_ok_) {
    return;  // the pass runs in full mode
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
  for (const Triple& t : adds) {
    if (pattern_pred_ids.count(t.p) > 0) pending_.adds.push_back(t);
  }
  for (const Triple& t : deletes) {
    if (pattern_pred_ids.count(t.p) > 0) pending_.deletes.push_back(t);
  }
  pending_.prepared = true;
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

Result<RootCell> ViewMaintainer::EvalRootGroup(
    const Key& key,
    const std::vector<const sparql::PatternPatch*>& post_delta) const {
  // Seed the full facet BGP with the dimension slots pre-bound to the
  // group key: the targeted re-evaluation behind MIN/MAX and double
  // groups. Every pattern reads the post-delta graph through its patch,
  // and the group's bindings arrive in the seeded plan's match order.
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
                                bound_slots, {seed}, post_delta));

  // Fold with the executor's aggregate accumulator (AVG is stored as SUM,
  // see Materializer), then split the finalized literal into the cell
  // decomposition the way RootTable::Evaluate does, so a cell is the same
  // whichever path produced it.
  const Dictionary& dict = store_->dictionary();
  const sparql::AggKind kind = facet_->agg_kind() == sparql::AggKind::kAvg
                                   ? sparql::AggKind::kSum
                                   : facet_->agg_kind();
  std::vector<TermId> ids(res.rows.size());
  for (size_t r = 0; r < res.rows.size(); ++r) {
    ids[r] = res.rows[r][static_cast<size_t>(agg_slot_)];
  }
  const std::vector<TermNumber> numbers = dict.Numbers(ids);
  sparql::AggFolder folder(store_->mutable_dictionary());
  sparql::AggState state;
  for (size_t r = 0; r < ids.size(); ++r) {
    folder.Accumulate(kind, sparql::AggArg{ids[r], numbers[r], nullptr},
                      &state);
  }

  RootCell cell;
  cell.rows = ids.size();
  if (cell.rows == 0) return cell;  // dead group
  // A MIN/MAX value without a term stays unbound.
  cell.value_id = folder.Finalize(kind, state).ValueOr(kNullTermId);
  if (cell.value_id != kNullTermId) {
    const TermNumber value = dict.Numbers({cell.value_id})[0];
    if (value.kind == TermNumber::Kind::kDouble) {
      cell.dsum = value.real;
      cell.saw_double = true;
    } else if (value.kind == TermNumber::Kind::kInteger) {
      cell.isum = value.integer;
    }
  }
  cell.rows_id = store_->mutable_dictionary()->InternInteger(
      static_cast<int64_t>(cell.rows));
  return cell;
}

Result<bool> ViewMaintainer::ComputeDeltaDiff(std::vector<RootDiff>* diff,
                                              MaintenanceReport* report) const {
  const std::vector<sparql::TriplePattern>& patterns = facet_->pattern();
  const size_t n = patterns.size();
  if (n == 0) return false;

  // Resolve every pattern's constants and slots, then split the effective
  // delta per pattern: patch[i] holds the delta triples that match pattern
  // i's constants, i.e. exactly what merging the delta changes in its
  // scans.
  struct PatternInfo {
    std::array<TermId, 3> consts{{kNullTermId, kNullTermId, kNullTermId}};
    std::array<int, 3> slots{{-1, -1, -1}};
    bool possible = true;  // a constant absent from the dict matches nothing
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
  auto matches_consts = [](const PatternInfo& pi, const Triple& t) {
    return pi.possible &&
           (pi.consts[0] == kNullTermId || pi.consts[0] == t.s) &&
           (pi.consts[1] == kNullTermId || pi.consts[1] == t.p) &&
           (pi.consts[2] == kNullTermId || pi.consts[2] == t.o);
  };
  std::vector<sparql::PatternPatch> patch;
  patch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Triple> adds, deletes;
    for (const Triple& t : pending_.adds) {
      if (matches_consts(info[i], t)) adds.push_back(t);
    }
    for (const Triple& t : pending_.deletes) {
      if (matches_consts(info[i], t)) deletes.push_back(t);
    }
    patch.emplace_back(std::move(adds), std::move(deletes));
  }
  std::vector<const sparql::PatternPatch*> post_delta(n);
  for (size_t i = 0; i < n; ++i) post_delta[i] = &patch[i];

  // Telescoping delta rule (Gupta, Mumick & Subrahmanian, SIGMOD 1993).
  // With R_j pattern j's relation in the store as it stands, R'_j the same
  // relation once the delta merges and δ_j = R'_j − R_j (adds +1, deletes
  // −1), the change of the pattern join is
  //
  //   ΔJ = Σ_i R'_1 ⋈ … ⋈ R'_{i−1} ⋈ δ_i ⋈ R_{i+1} ⋈ … ⋈ R_n
  //
  // Term i is one seeded join: δ_i's triples bind pattern i's variables,
  // patterns before i read the store through their patches (R') and those
  // after i read it unpatched (R). No term joins two delta lists, so no
  // cross product of delta lists can arise, and nothing limits the number
  // of patterns. Each binding carries its seed triple's sign; groups fold
  // the signs into (rows, Σvalue) deltas.
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

  for (size_t i = 0; i < n; ++i) {
    const PatternInfo& pi = info[i];
    std::vector<sparql::Row> seeds;
    std::vector<int8_t> signs;
    for (const auto& [side, sign] :
         {std::make_pair(&patch[i].spo().adds, int8_t{1}),
          std::make_pair(&patch[i].spo().deletes, int8_t{-1})}) {
      for (const Triple& t : *side) {
        // Bind pattern i's variables; a repeated variable must agree.
        sparql::Row row(vars_.size(), kNullTermId);
        const TermId fields[3] = {t.s, t.p, t.o};
        bool consistent = true;
        for (int f = 0; f < 3 && consistent; ++f) {
          if (pi.slots[f] < 0) continue;
          TermId& cur = row[static_cast<size_t>(pi.slots[f])];
          if (cur != kNullTermId && cur != fields[f]) consistent = false;
          cur = fields[f];
        }
        if (!consistent) continue;
        seeds.push_back(std::move(row));
        signs.push_back(sign);
      }
    }
    if (seeds.empty()) continue;

    std::vector<size_t> remaining;
    std::vector<const sparql::PatternPatch*> patches(n, nullptr);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      remaining.push_back(j);
      if (j < i) patches[j] = &patch[j];
    }
    std::vector<int> bound_slots;
    for (int slot : pi.slots) {
      if (slot >= 0) bound_slots.push_back(slot);
    }
    std::sort(bound_slots.begin(), bound_slots.end());
    bound_slots.erase(std::unique(bound_slots.begin(), bound_slots.end()),
                      bound_slots.end());
    SOFOS_ASSIGN_OR_RETURN(
        sparql::SeededJoinResult res,
        sparql::EvaluateSeededBgp(*store_, vars_, patterns, remaining,
                                  bound_slots, seeds, patches));

    std::vector<TermNumber> numbers;
    if (is_sum) {
      std::vector<TermId> ids(res.rows.size());
      for (size_t r = 0; r < res.rows.size(); ++r) {
        ids[r] = res.rows[r][static_cast<size_t>(agg_slot_)];
      }
      numbers = dict.Numbers(ids);
    }
    for (size_t r = 0; r < res.rows.size(); ++r) {
      const sparql::Row& row = res.rows[r];
      const int w = signs[res.seed_index[r]];
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
        if (numbers[r].kind == TermNumber::Kind::kDouble) {
          cell.touched_double = true;
        } else if (numbers[r].kind == TermNumber::Kind::kInteger) {
          cell.disum += w * numbers[r].integer;
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
      SOFOS_ASSIGN_OR_RETURN(RootCell fresh, EvalRootGroup(key, post_delta));
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
    acc->sum.count += cell.rows;
    acc->sum.isum += cell.isum;
    acc->sum.dsum += cell.dsum;
    acc->sum.saw_double |= cell.saw_double;
  };
  sparql::AggFolder folder(store_->mutable_dictionary());
  auto fold_best = [&](Accum* acc, const RootCell& cell) {
    if (cell.value_id == kNullTermId) return;
    folder.Accumulate(
        facet_->agg_kind(),
        sparql::AggArg{cell.value_id,
                       store_->dictionary().Numbers({cell.value_id})[0],
                       nullptr},
        &acc->best);
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
          cell->isum = acc.sum.isum;
          cell->dsum = acc.sum.dsum;
          cell->rows = static_cast<int64_t>(acc.sum.count);
          cell->double_roots = double_roots;
          live = acc.sum.count > 0;
        } else {
          acc.sum.isum = cell->isum;
          acc.sum.count = static_cast<uint64_t>(cell->rows);
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

    // Finalize the rolled-up cell exactly as the executor would: COUNT,
    // SUM and AVG are encoded as SUM (see Materializer); a MIN/MAX value
    // without a term stays unbound.
    const TermId value_id =
        minmax ? folder.Finalize(facet_->agg_kind(), acc.best)
                     .ValueOr(kNullTermId)
               : folder.Finalize(sparql::AggKind::kSum, acc.sum)
                     .ValueOr(kNullTermId);
    const TermId rows_id = store_->mutable_dictionary()->InternInteger(
        static_cast<int64_t>(acc.sum.count));

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

bool ViewMaintainer::UseDeltaMode(uint64_t post_merge_triples) const {
  if (!initialized_ || !pending_.prepared || !pattern_delta_ok_) return false;
  const uint64_t delta_size = pending_.adds.size() + pending_.deletes.size();
  switch (options_.mode) {
    case MaintainOptions::Mode::kForceFull:
      return false;
    case MaintainOptions::Mode::kForceDelta:
      return true;
    case MaintainOptions::Mode::kAuto:
      break;
  }
  return static_cast<double>(delta_size) <=
         options_.crossover_fraction * static_cast<double>(post_merge_triples);
}

Result<bool> ViewMaintainer::MaintainDelta(ThreadPool* pool,
                                           MaintenanceReport* report,
                                           EncodingEdits* edits) {
  if (!initialized_) {
    return Status::Internal("ViewMaintainer::MaintainDelta before Initialize");
  }
  MaintenanceReport pass;
  WallTimer root_timer;
  std::vector<RootDiff> diff;
  SOFOS_ASSIGN_OR_RETURN(bool consistent, ComputeDeltaDiff(&diff, &pass));
  // The signed algebra detected an inconsistency (it never should on a
  // normalized delta): nothing changed, so the caller recomputes in full.
  if (!consistent) return false;
  ApplyRootDiff(diff);
  pass.mode = MaintainMode::kDelta;
  pass.root_query_micros = root_timer.ElapsedMicros();
  pending_ = PendingDelta{};  // consumed
  StageViews(diff, pool, &pass, edits);
  *report = std::move(pass);
  return true;
}

Result<MaintenanceReport> ViewMaintainer::MaintainFull(ThreadPool* pool,
                                                       EncodingEdits* edits) {
  if (!initialized_) {
    return Status::Internal("ViewMaintainer::MaintainFull before Initialize");
  }
  MaintenanceReport report;
  WallTimer root_timer;
  SOFOS_ASSIGN_OR_RETURN(std::vector<RootDiff> diff, ComputeFullDiff());
  report.mode = MaintainMode::kFull;
  report.root_query_micros = root_timer.ElapsedMicros();
  pending_ = PendingDelta{};  // consumed
  StageViews(diff, pool, &report, edits);
  return report;
}

void ViewMaintainer::StageViews(const std::vector<RootDiff>& diff,
                                ThreadPool* pool, MaintenanceReport* report,
                                EncodingEdits* edits) {
  report->root_rows_changed = diff.size();
  if (diff.empty() || views_.empty()) {
    for (const ViewState& view : views_) {
      ViewMaintenance stats;
      stats.mask = view.mask;
      report->views.push_back(stats);
    }
    return;
  }
  WallTimer maintain_timer;
  std::vector<StagedEdits> staged(views_.size());
  ParallelForEach(pool, views_.size(), [&](size_t i) {
    MaintainView(&views_[i], diff, &staged[i]);
  });
  report->maintain_micros = maintain_timer.ElapsedMicros();
  for (StagedEdits& view_edits : staged) {
    edits->adds.insert(edits->adds.end(), view_edits.adds.begin(),
                       view_edits.adds.end());
    edits->deletes.insert(edits->deletes.end(), view_edits.deletes.begin(),
                          view_edits.deletes.end());
    report->views.push_back(view_edits.stats);
  }
}

}  // namespace maintenance
}  // namespace core
}  // namespace sofos
