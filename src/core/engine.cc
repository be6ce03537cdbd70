#include "core/engine.h"

#include <algorithm>
#include <iterator>

#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "rdf/turtle_parser.h"
#include "rdf/turtle_writer.h"
#include "rdf/vocab.h"
#include "sparql/parser.h"

namespace sofos {
namespace core {

std::string WorkloadReport::Summary() const {
  std::string out = StrFormat(
      "queries=%zu wall=%s cpu=%s mean=%s median=%s p95=%s hist[%s] "
      "hits=%llu scanned=%llu",
      outcomes.size(), FormatMicros(wall_micros).c_str(),
      FormatMicros(total_micros).c_str(), FormatMicros(mean_micros).c_str(),
      FormatMicros(median_micros).c_str(), FormatMicros(p95_micros).c_str(),
      latency.SummaryString().c_str(),
      static_cast<unsigned long long>(view_hits),
      static_cast<unsigned long long>(total_rows_scanned));
  if (publish.count > 0) {
    out += StrFormat(" publish[n=%llu %s]",
                     static_cast<unsigned long long>(publish.count),
                     publish.SummaryString().c_str());
  }
  return out;
}

std::string UpdateOutcome::Summary() const {
  return StrFormat(
      "base +%llu -%llu in %s | %s | drift=%.3f%s",
      static_cast<unsigned long long>(adds_applied),
      static_cast<unsigned long long>(deletes_applied),
      FormatMicros(total_micros).c_str(), maintenance.Summary().c_str(),
      staleness, reselect_recommended ? " -> reselect recommended" : "");
}

void SofosEngine::SetNumThreads(unsigned num_threads) {
  num_threads_ = num_threads;
  pool_.reset();  // rebuilt at the right size on next use
  // An auto (0) shard count follows the pool size; re-resolve it now so
  // per-shard rebuild parallelism keeps matching the pool. The no-op
  // check precedes pool() so a threads change that leaves the shard count
  // alone keeps the pool rebuild lazy.
  if (shard_count_ == 0 && store_.finalized() &&
      store_.shard_count() != ResolvedShardCount()) {
    store_.SetShardCount(ResolvedShardCount(), pool());
  }
}

unsigned SofosEngine::num_threads() const {
  unsigned n = num_threads_ == 0 ? ThreadPool::DefaultNumThreads() : num_threads_;
  // Keep the reported count in sync with what a pool would actually spawn.
  return static_cast<unsigned>(
      std::min<size_t>(n, ThreadPool::kMaxThreads));
}

void SofosEngine::SetShardCount(unsigned shard_count) {
  // Mirror the store's clamp so shard_count()/ResolvedShardCount() always
  // agree with what the store actually runs at (0 stays "auto").
  shard_count_ = std::min(shard_count, 256u);
  if (store_.finalized() && store_.shard_count() != ResolvedShardCount()) {
    store_.SetShardCount(ResolvedShardCount(), pool());
  }
}

void SofosEngine::SetStoreLayout(StoreLayout layout) {
  store_layout_ = layout;
  ApplyStoreLayout();
}

void SofosEngine::ApplyStoreLayout() {
  if (!store_.finalized()) return;
  const bool compact =
      store_layout_ == StoreLayout::kCompact ||
      (store_layout_ == StoreLayout::kAuto &&
       store_.NumTriples() >= kCompactAutoTriples);
  // The shard layout and the dictionary encoding travel together: both
  // trade decode work for bytes, and the bench/CLI "layout" knob means the
  // pair.
  if (store_.compact_layout() != compact) {
    store_.SetCompactLayout(compact, pool());
  }
  if (store_.mutable_dictionary()->front_coded() != compact) {
    store_.mutable_dictionary()->SetFrontCoding(compact);
  }
}

Result<RootTable*> SofosEngine::CurrentRootTable() {
  if (!root_table_.has_value()) {
    SOFOS_ASSIGN_OR_RETURN(
        RootTable root,
        RootTable::Evaluate(&store_, *facet_));
    root_table_ = std::move(root);
    view_queries_total_->Add();
  }
  return &*root_table_;
}

bool SofosEngine::PatternSeesEncodings() const {
  for (const sparql::TriplePattern& tp : facet_->pattern()) {
    if (tp.p.is_var()) return true;
    if (tp.p.term().is_iri() &&
        StrStartsWith(tp.p.term().lexical(), vocab::kSofosNs)) {
      return true;
    }
  }
  return false;
}

Result<SofosEngine::StoreLayout> ParseStoreLayout(const std::string& name) {
  if (name == "auto") return SofosEngine::StoreLayout::kAuto;
  if (name == "sorted") return SofosEngine::StoreLayout::kSorted;
  if (name == "compact") return SofosEngine::StoreLayout::kCompact;
  return Status::InvalidArgument("unknown layout '" + name +
                                 "' (expected auto|sorted|compact)");
}

std::string StoreLayoutName(SofosEngine::StoreLayout layout) {
  switch (layout) {
    case SofosEngine::StoreLayout::kAuto:
      return "auto";
    case SofosEngine::StoreLayout::kSorted:
      return "sorted";
    case SofosEngine::StoreLayout::kCompact:
      return "compact";
  }
  return "?";
}

void SofosEngine::RecordStateGauges() {
  metrics_.Gauge("sofos_engine_epoch")->Set(static_cast<double>(epoch_));
  metrics_.Gauge("sofos_engine_base_triples")
      ->Set(static_cast<double>(base_triples_));
  metrics_.Gauge("sofos_engine_current_triples")
      ->Set(store_.finalized() ? static_cast<double>(store_.NumTriples()) : 0.0);
  metrics_.Gauge("sofos_engine_materialized_views")
      ->Set(static_cast<double>(materialized_.size()));
  metrics_.Gauge("sofos_engine_staleness_drift")->Set(staleness_.drift());
  metrics_.Gauge("sofos_engine_storage_amplification")
      ->Set(StorageAmplification());
}

unsigned SofosEngine::ResolvedShardCount() const {
  if (shard_count_ != 0) return shard_count_;
  // Auto: the smallest power of two covering the pool, so per-shard
  // Finalize/ApplyDelta tasks can occupy every worker; capped where the
  // per-shard constant overheads would start to dominate.
  const unsigned threads = num_threads();
  unsigned shards = 1;
  while (shards < threads && shards < 64) shards <<= 1;
  return shards;
}

ThreadPool* SofosEngine::pool() const {
  unsigned n = num_threads();
  if (n <= 1) return nullptr;
  if (pool_ == nullptr || pool_->num_threads() != n) {
    pool_ = std::make_unique<ThreadPool>(n);
  }
  return pool_.get();
}

Status SofosEngine::LoadStore(TripleStore&& store) {
  if (!store.finalized()) {
    return Status::InvalidArgument("LoadStore requires a finalized store");
  }
  store_ = std::move(store);
  // Callers that finalized at the default shard count get repartitioned to
  // the engine's knob here (a one-time load cost; no-op when the store was
  // built at the resolved count, as LoadGraphFile does — and never visible
  // in results, by the store's shard-invariance contract).
  store_.SetShardCount(ResolvedShardCount(), pool());
  ApplyStoreLayout();
  base_triples_ = base_snapshot().size();
  base_bytes_ = store_.MemoryBytes();
  materialized_.clear();
  profile_.reset();
  root_table_.reset();
  maintainer_.reset();
  staleness_ = maintenance::StalenessMonitor(staleness_.options());
  if (facet_.has_value()) {
    materializer_ = std::make_unique<Materializer>(&store_, &*facet_);
  }
  ++epoch_;
  RecordStateGauges();
  return Status::OK();
}

Status SofosEngine::LoadGraphFile(const std::string& path) {
  TripleStore store;
  TurtleParser parser;
  SOFOS_RETURN_IF_ERROR(parser.ParseFile(path, &store));
  // Partition before Finalize so the initial build lands directly on the
  // engine's shard count; LoadStore's repartition then no-ops.
  store.SetShardCount(ResolvedShardCount());
  store.Finalize(pool());
  return LoadStore(std::move(store));
}

Status SofosEngine::ExportGraphFile(const std::string& path) const {
  TurtleWriter writer;
  return writer.WriteNTriplesFile(store_, path);
}

Status SofosEngine::SetFacet(Facet facet) {
  facet_ = std::move(facet);
  lattice_.emplace(&*facet_);
  rewriter_.emplace(&*facet_);
  materializer_ = std::make_unique<Materializer>(&store_, &*facet_);
  profile_.reset();
  root_table_.reset();
  maintainer_.reset();
  // The old baseline tracked the previous facet's predicates; the next
  // Profile() re-anchors against this one.
  staleness_ = maintenance::StalenessMonitor(staleness_.options());
  ++epoch_;
  RecordStateGauges();
  return Status::OK();
}

void SofosEngine::SetStalenessOptions(
    const maintenance::StalenessOptions& options) {
  // Recreated without a baseline: the next Profile() re-anchors it.
  staleness_ = maintenance::StalenessMonitor(options);
}

void SofosEngine::SetMaintainOptions(
    const maintenance::MaintainOptions& options) {
  maintain_options_ = options;
  if (maintainer_ != nullptr) maintainer_->SetOptions(options);
}

Result<const LatticeProfile*> SofosEngine::Profile(const ProfileOptions& options) {
  if (!facet_.has_value()) return Status::Internal("no facet set");
  ProfileOptions effective = options;
  if (effective.pool == nullptr) effective.pool = pool();
  RootTable root;
  SOFOS_ASSIGN_OR_RETURN(LatticeProfile profile,
                         ProfileLattice(&store_, *facet_, effective, &root));
  profile_ = std::move(profile);
  root_table_ = std::move(root);
  view_queries_total_->Add(profile_->view_queries);

  // Selections are made against this fresh profile, so it becomes the
  // staleness baseline future update batches drift away from. Predicates
  // are interned (not looked up) so that one with zero triples today is
  // still tracked when updates start populating it (baseline count 0).
  std::vector<TermId> pattern_ids;
  for (const std::string& iri : facet_->PatternPredicates()) {
    pattern_ids.push_back(store_.Intern(Term::Iri(iri)));
  }
  staleness_.ResetBaseline(store_, std::move(pattern_ids),
                           profile_->views[facet_->FullMask()].result_rows);
  ++epoch_;  // routing statistics changed: cached answers may route stale
  RecordStateGauges();
  return &*profile_;
}

Result<std::unique_ptr<CostModel>> SofosEngine::MakeModel(
    CostModelKind kind) const {
  switch (kind) {
    case CostModelKind::kRandom:
      return std::unique_ptr<CostModel>(new RandomCostModel());
    case CostModelKind::kTripleCount:
      return std::unique_ptr<CostModel>(new TripleCountCostModel());
    case CostModelKind::kAggValueCount:
      return std::unique_ptr<CostModel>(new AggValueCountCostModel());
    case CostModelKind::kNodeCount:
      return std::unique_ptr<CostModel>(new NodeCountCostModel());
    case CostModelKind::kLearned: {
      if (learned_mlp_ == nullptr) {
        return Status::InvalidArgument(
            "the learned cost model requires training first "
            "(core/training.h: TrainLearnedModel)");
      }
      if (!facet_.has_value()) return Status::Internal("no facet set");
      return std::unique_ptr<CostModel>(
          new LearnedCostModel(learned_mlp_, learned::FeatureEncoder(), &*facet_,
                               &store_));
    }
    case CostModelKind::kUserDefined:
      return Status::InvalidArgument(
          "kUserDefined has no automatic construction: build a "
          "UserDefinedCostModel with explicit costs, or use UserSelection()");
  }
  return Status::Internal("unhandled cost model kind");
}

void SofosEngine::SetLearnedModel(std::shared_ptr<learned::Mlp> mlp) {
  learned_mlp_ = std::move(mlp);
}

Result<SelectionResult> SofosEngine::SelectViews(const CostModel& model, size_t k,
                                                 const QueryWeights* weights,
                                                 uint64_t seed) const {
  if (!facet_.has_value()) return Status::Internal("no facet set");
  if (!profile_.has_value()) {
    return Status::Internal("SelectViews requires Profile() first");
  }
  GreedySelector selector(&*lattice_, &*profile_, &model, pool());
  if (update_rate_ > 0) {
    MaintenancePenalty penalty;
    penalty.update_rate = update_rate_;
    penalty.bindings_per_update = avg_delta_bindings_;
    penalty.root_rows = static_cast<double>(
        profile_->ForMask(facet_->FullMask()).result_rows);
    selector.SetMaintenancePenalty(penalty);
  }
  return selector.SelectTopK(k, weights, seed);
}

Result<std::vector<MaterializedView>> SofosEngine::MaterializeSelection(
    const SelectionResult& selection) {
  return MaterializeViews(selection.views);
}

Result<std::vector<MaterializedView>> SofosEngine::MaterializeViews(
    const std::vector<uint32_t>& masks) {
  if (materializer_ == nullptr) return Status::Internal("no facet set");
  for (uint32_t mask : masks) {
    for (const MaterializedView& existing : materialized_) {
      if (existing.mask == mask) {
        return Status::AlreadyExists("view " + facet_->MaskLabel(mask) +
                                     " is already materialized");
      }
    }
  }
  SOFOS_ASSIGN_OR_RETURN(RootTable * root, CurrentRootTable());
  const uint64_t queries_before = materializer_->view_queries();
  SOFOS_ASSIGN_OR_RETURN(std::vector<MaterializedView> views,
                         materializer_->MaterializeAll(masks, *root, pool()));
  view_queries_total_->Add(materializer_->view_queries() - queries_before);
  if (PatternSeesEncodings()) root_table_.reset();
  for (const auto& view : views) materialized_.push_back(view);
  maintainer_.reset();  // view set changed; rebuilt on the next ApplyUpdates
  ++epoch_;
  RecordStateGauges();
  return views;
}

Status SofosEngine::DropMaterializedViews() {
  {
    const BaseGraphView base = base_snapshot();
    store_.ReplaceTriples(std::vector<Triple>(base.begin(), base.end()));
  }
  store_.Finalize(pool());
  materialized_.clear();
  if (facet_.has_value() && PatternSeesEncodings()) root_table_.reset();
  maintainer_.reset();
  ++epoch_;
  RecordStateGauges();
  return Status::OK();
}

Result<UpdateOutcome> SofosEngine::ApplyUpdates(
    const maintenance::GraphDelta& delta) {
  if (!store_.finalized()) {
    return Status::Internal("ApplyUpdates requires a loaded, finalized store");
  }
  WallTimer timer;
  UpdateOutcome outcome;

  // Updates target base data; the encoding vocabulary is reserved (every
  // view-encoding triple carries a sofos: predicate, so this guard keeps
  // deltas from corrupting materializations).
  for (const std::vector<maintenance::TermTriple>* side :
       {&delta.adds, &delta.deletes}) {
    for (const maintenance::TermTriple& t : *side) {
      if (t.p.is_iri() && StrStartsWith(t.p.lexical(), vocab::kSofosNs)) {
        return Status::InvalidArgument(
            "updates must not touch the reserved sofos: encoding vocabulary");
      }
    }
  }

  // Capture the pre-delta state for incremental maintenance (the root
  // table must reflect the graph the views currently encode).
  if (facet_.has_value() && !materialized_.empty()) {
    if (maintainer_ == nullptr) {
      maintainer_ =
          std::make_unique<maintenance::ViewMaintainer>(&store_, &*facet_);
      maintainer_->SetOptions(maintain_options_);
    }
    if (!maintainer_->initialized()) {
      SOFOS_ASSIGN_OR_RETURN(RootTable * root, CurrentRootTable());
      SOFOS_RETURN_IF_ERROR(
          maintainer_->Initialize(materialized_, std::move(*root)));
    }
  }
  // The graph changes below; the maintainer keeps its own table current.
  root_table_.reset();
  const bool affects = maintainer_ != nullptr && maintainer_->Affects(delta);

  // Normalize the base delta once against the pre-merge graph, under
  // G' = (G \ D) ∪ A: effective adds are absent from G, effective deletes
  // present in G and not re-added. These two sets are the outcome's
  // counts, the maintainer's input and what merges.
  std::vector<Triple> add_ids, delete_ids;
  add_ids.reserve(delta.adds.size());
  delete_ids.reserve(delta.deletes.size());
  for (const maintenance::TermTriple& t : delta.adds) {
    add_ids.push_back(
        Triple{store_.Intern(t.s), store_.Intern(t.p), store_.Intern(t.o)});
  }
  const Dictionary& dict = store_.dictionary();
  for (const maintenance::TermTriple& t : delta.deletes) {
    auto s = dict.Lookup(t.s);
    auto p = dict.Lookup(t.p);
    auto o = dict.Lookup(t.o);
    if (!s || !p || !o) continue;  // unknown term: the triple cannot exist
    delete_ids.push_back(Triple{*s, *p, *o});
  }
  std::sort(add_ids.begin(), add_ids.end());
  add_ids.erase(std::unique(add_ids.begin(), add_ids.end()), add_ids.end());
  std::sort(delete_ids.begin(), delete_ids.end());
  delete_ids.erase(std::unique(delete_ids.begin(), delete_ids.end()),
                   delete_ids.end());
  std::vector<Triple> adds, deletes;
  for (const Triple& t : add_ids) {
    if (!store_.Contains(t.s, t.p, t.o)) adds.push_back(t);
  }
  for (const Triple& t : delete_ids) {
    if (store_.Contains(t.s, t.p, t.o) &&
        !std::binary_search(add_ids.begin(), add_ids.end(), t)) {
      deletes.push_back(t);
    }
  }
  outcome.adds_applied = adds.size();
  outcome.deletes_applied = deletes.size();

  // Delta mode runs before anything merges: the maintainer reads the
  // pre-merge store with the delta patched in, and its encoding edits
  // join the base delta in one merge. Any error returns here, with the
  // store untouched.
  maintenance::MaintenanceReport& report = outcome.maintenance;
  maintenance::EncodingEdits edits;
  bool maintained = false;
  if (affects) {
    maintainer_->PrepareDelta(adds, deletes);
    const uint64_t post_merge_triples =
        store_.NumTriples() + adds.size() - deletes.size();
    if (maintainer_->UseDeltaMode(post_merge_triples)) {
      SOFOS_ASSIGN_OR_RETURN(
          maintained, maintainer_->MaintainDelta(pool(), &report, &edits));
    }
  }
  auto merge = [this](const std::vector<Triple>& merge_adds,
                      const std::vector<Triple>& merge_deletes) {
    for (const Triple& t : merge_adds) store_.StageAdd(t.s, t.p, t.o);
    for (const Triple& t : merge_deletes) store_.StageDelete(t.s, t.p, t.o);
    return store_.HasStagedDelta() ? store_.ApplyDelta(pool())
                                   : DeltaApplyResult{};
  };
  if (maintained) {
    adds.insert(adds.end(), edits.adds.begin(), edits.adds.end());
    deletes.insert(deletes.end(), edits.deletes.begin(), edits.deletes.end());
  }
  DeltaApplyResult merged = merge(adds, deletes);
  base_triples_ += outcome.adds_applied;
  base_triples_ -= outcome.deletes_applied;
  // The graph is mutated from here on: bump the epoch *now*, so even a
  // full-mode maintenance failure below leaves PublishSnapshot able to
  // expose the post-delta store instead of no-opping on a stale epoch.
  ++epoch_;

  if (affects && !maintained) {
    // Full mode, or the delta algebra's consistency fallback: recompute
    // the root over the merged base, then merge the encoding edits.
    SOFOS_ASSIGN_OR_RETURN(report, maintainer_->MaintainFull(pool(), &edits));
    merged = merge(edits.adds, edits.deletes);
  }
  if (affects) {
    // Encoding counts: in delta mode the merge also applied the (already
    // effective) base delta, whose triples never carry sofos: predicates.
    const uint64_t base_adds = maintained ? outcome.adds_applied : 0;
    const uint64_t base_deletes = maintained ? outcome.deletes_applied : 0;
    report.triples_added = merged.adds_applied - base_adds;
    report.triples_deleted = merged.deletes_applied - base_deletes;
    report.merge_micros = merged.merge_micros;
    for (const maintenance::ViewMaintenance& vm : report.views) {
      for (MaterializedView& mv : materialized_) {
        if (mv.mask != vm.mask) continue;
        mv.rows = mv.rows + vm.rows_added - vm.rows_deleted;
        mv.nodes_added = mv.nodes_added + vm.rows_added - vm.rows_deleted;
        mv.triples_added =
            mv.triples_added + vm.triples_added - vm.triples_deleted;
      }
    }
    // Refresh the profile's view sizes from the maintained row counts so
    // staleness tracking and fewest-rows routing see fresh sizes without
    // a re-profile (the profile's other statistics still age — that is
    // what the StalenessMonitor measures).
    if (profile_.has_value()) {
      for (const MaterializedView& mv : materialized_) {
        if (mv.mask < profile_->views.size()) {
          profile_->views[mv.mask].result_rows = mv.rows;
        }
      }
      profile_->views[facet_->FullMask()].result_rows =
          maintainer_->root_rows();
    }
    switch (report.mode) {
      case maintenance::MaintainMode::kDelta:
        maintain_mode_delta_total_->Add();
        break;
      case maintenance::MaintainMode::kFull:
        maintain_mode_full_total_->Add();
        break;
      case maintenance::MaintainMode::kSkip:
        maintain_mode_skip_total_->Add();
        break;
    }
    maintain_bindings_hist_->Record(static_cast<double>(report.delta_bindings));
    // EWMA of the per-batch Δ-work rate: the delta path measures it as
    // signed bindings, the full path approximates it with changed root
    // rows. Feeds the update-aware selection penalty.
    const double observed =
        report.mode == maintenance::MaintainMode::kDelta
            ? static_cast<double>(report.delta_bindings)
            : static_cast<double>(report.root_rows_changed);
    avg_delta_bindings_ = avg_delta_bindings_ == 0.0
                              ? observed
                              : 0.7 * avg_delta_bindings_ + 0.3 * observed;
  } else {
    report.skipped = true;
    if (maintainer_ != nullptr) maintain_mode_skip_total_->Add();
  }

  // Track how far the current selection has drifted from its baseline.
  staleness_.RecordUpdate(store_, outcome.maintenance.root_rows_changed);
  outcome.staleness = staleness_.drift();
  outcome.reselect_recommended = staleness_.ShouldReselect();
  outcome.total_micros = timer.ElapsedMicros();
  maintain_hist_->Record(outcome.total_micros);
  updates_total_->Add();
  adds_applied_total_->Add(outcome.adds_applied);
  deletes_applied_total_->Add(outcome.deletes_applied);
  if (outcome.reselect_recommended) reselect_recommended_total_->Add();
  RecordStateGauges();
  return outcome;
}

std::vector<uint32_t> SofosEngine::MaterializedMasks() const {
  std::vector<uint32_t> masks;
  masks.reserve(materialized_.size());
  for (const auto& view : materialized_) masks.push_back(view.mask);
  return masks;
}

Result<QueryOutcome> SofosEngine::Answer(const WorkloadQuery& query,
                                         bool allow_views,
                                         const CostModel* routing_model) {
  if (!facet_.has_value()) return Status::Internal("no facet set");
  QueryOutcome outcome;
  outcome.query_id = query.id;
  outcome.executed_sparql = query.sparql;

  if (allow_views && !materialized_.empty() && profile_.has_value()) {
    WallTimer route_timer;
    std::optional<uint32_t> best = rewriter_->PickBestView(
        query.signature, MaterializedMasks(), *profile_, routing_model);
    route_hist_->Record(route_timer.ElapsedMicros());
    if (best.has_value()) {
      WallTimer rewrite_timer;
      SOFOS_ASSIGN_OR_RETURN(std::string rewritten,
                             rewriter_->RewriteToView(query.signature, *best));
      rewrite_hist_->Record(rewrite_timer.ElapsedMicros());
      outcome.used_view = true;
      outcome.view_mask = *best;
      outcome.executed_sparql = std::move(rewritten);
      view_hits_total_->Add();
      // Per-view routing counters: hits, and the profiled row reduction a
      // hit buys (root-table rows minus the routed view's rows) — the
      // concrete "benefit" number the greedy selector optimizes for.
      const std::string label = facet_->MaskLabel(*best);
      metrics_.Counter("sofos_view_hits_total{view=\"" + label + "\"}")->Add();
      const uint64_t root_rows =
          profile_->views[facet_->FullMask()].result_rows;
      const uint64_t view_rows = profile_->views[*best].result_rows;
      if (root_rows > view_rows) {
        metrics_.Counter("sofos_view_benefit_rows_total{view=\"" + label + "\"}")
            ->Add(root_rows - view_rows);
      }
    }
  }

  sparql::QueryEngine engine(&store_);
  WallTimer timer;
  SOFOS_ASSIGN_OR_RETURN(sparql::QueryResult result,
                         engine.Execute(outcome.executed_sparql));
  outcome.micros = timer.ElapsedMicros();
  exec_hist_->Record(outcome.micros);
  queries_total_->Add();
  outcome.rows_scanned = result.stats.rows_scanned;
  outcome.result_rows = result.NumRows();
  outcome.result = std::move(result);
  return outcome;
}

Result<WorkloadReport> SofosEngine::RunWorkload(
    const std::vector<WorkloadQuery>& queries, bool allow_views,
    const CostModel* routing_model) {
  WallTimer wall;
  // Batched runner: workload queries are independent, so each one parses,
  // routes, and executes on its own task with its own Executor/ExecStats
  // (Answer() only reads engine state; the dictionary is internally
  // synchronized). Outcomes land in their input slot, which makes the
  // merged report's ordering — and with one thread, every byte of it —
  // identical to the serial loop.
  std::vector<QueryOutcome> outcomes(queries.size());
  SOFOS_RETURN_IF_ERROR(
      ParallelForEachStatus(pool(), queries.size(), [&](size_t i) -> Status {
        SOFOS_ASSIGN_OR_RETURN(outcomes[i],
                               Answer(queries[i], allow_views, routing_model));
        return Status::OK();
      }));

  WorkloadReport report;
  report.outcomes = std::move(outcomes);
  for (const QueryOutcome& outcome : report.outcomes) {
    report.total_micros += outcome.micros;
    report.total_rows_scanned += outcome.rows_scanned;
    if (outcome.used_view) ++report.view_hits;
  }
  if (!report.outcomes.empty()) {
    std::vector<double> times;
    times.reserve(report.outcomes.size());
    for (const auto& o : report.outcomes) times.push_back(o.micros);
    std::sort(times.begin(), times.end());
    report.mean_micros = report.total_micros / static_cast<double>(times.size());
    report.median_micros = times[times.size() / 2];
    report.p95_micros = times[std::min(times.size() - 1,
                                       static_cast<size_t>(times.size() * 0.95))];
    // Same fixed-bucket shape as the server's per-endpoint SLO metrics.
    LatencyHistogram histogram;
    for (double micros : times) histogram.Record(micros);
    report.latency = histogram.TakeSnapshot();
  }
  report.publish = publish_latency();
  report.wall_micros = wall.ElapsedMicros();
  return report;
}

Result<std::shared_ptr<const EngineSnapshot>> SofosEngine::PublishSnapshot() {
  if (!store_.finalized()) {
    return Status::Internal("PublishSnapshot requires a loaded, finalized store");
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (snapshot_ != nullptr && snapshot_->epoch() == epoch_) return snapshot_;
  }
  // Build outside the lock: concurrent CurrentSnapshot() readers should
  // keep resolving the old epoch until the new one is complete. The store
  // clone is copy-on-write (O(shard_count) pointer copies — see
  // TripleStore::Clone), so the build cost is dominated by the profile and
  // view-record copies, not the graph.
  WallTimer publish_timer;
  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->epoch_ = epoch_;
  snap->store_ = store_.Clone();
  snap->profile_ = profile_;
  snap->materialized_ = materialized_;
  if (facet_.has_value()) {
    snap->facet_ = facet_;
    // The rewriter binds to the snapshot's own facet copy; the snapshot
    // lives on the heap behind shared_ptr, so the pointer never dangles.
    snap->rewriter_.emplace(&*snap->facet_);
  }
  // Snapshot-served queries feed the same registry as the engine's own
  // entry points (instrument pointers are deque-stable for the registry's
  // lifetime, which spans every snapshot's).
  snap->parse_hist_ = parse_hist_;
  snap->route_hist_ = route_hist_;
  snap->rewrite_hist_ = rewrite_hist_;
  snap->exec_hist_ = exec_hist_;
  snap->queries_total_ = queries_total_;
  snap->view_hits_total_ = view_hits_total_;
  snap->recorder_ = &recorder_;
  if (facet_.has_value()) {
    // The benefit of a hit is fixed by the snapshot's profile, so resolve
    // each view's counters and per-hit benefit once here instead of on
    // every routed query.
    for (const MaterializedView& view : materialized_) {
      const std::string label = facet_->MaskLabel(view.mask);
      EngineSnapshot::ViewCounters counters;
      counters.hits =
          metrics_.Counter("sofos_view_hits_total{view=\"" + label + "\"}");
      counters.benefit_rows = metrics_.Counter(
          "sofos_view_benefit_rows_total{view=\"" + label + "\"}");
      if (profile_.has_value()) {
        const uint64_t root_rows =
            profile_->views[facet_->FullMask()].result_rows;
        const uint64_t view_rows = profile_->views[view.mask].result_rows;
        if (root_rows > view_rows) {
          counters.benefit_per_hit = root_rows - view_rows;
        }
      }
      snap->view_counters_.push_back(counters);
    }
  }
  std::shared_ptr<const EngineSnapshot> published = std::move(snap);
  publish_hist_->Record(publish_timer.ElapsedMicros());
  publishes_total_->Add();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = published;
  return published;
}

std::shared_ptr<const EngineSnapshot> SofosEngine::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

Result<QueryOutcome> EngineSnapshot::Answer(const std::string& sparql,
                                            bool allow_views,
                                            TraceContext* trace) const {
  QueryOutcome outcome;
  outcome.query_id = "snapshot";
  outcome.executed_sparql = sparql;

  ScopedSpan answer_span(trace, "snapshot.answer");

  // Mirror of SofosEngine::AnswerSparql + Answer, pinned to this
  // snapshot's state: parse errors surface, shape mismatches merely disable
  // view routing, and routing consults the snapshot's profile + views.
  ScopedSpan parse_span(trace, "engine.parse", answer_span.id());
  WallTimer parse_timer;
  SOFOS_ASSIGN_OR_RETURN(sparql::Query parsed, sparql::Parser::Parse(sparql));
  if (parse_hist_ != nullptr) parse_hist_->Record(parse_timer.ElapsedMicros());
  parse_span.Close();

  std::optional<QuerySignature> routed_signature;
  if (allow_views && rewriter_.has_value() && !materialized_.empty() &&
      profile_.has_value()) {
    ScopedSpan route_span(trace, "engine.route", answer_span.id());
    WallTimer route_timer;
    auto signature = rewriter_->AnalyzeQuery(parsed);
    if (signature.ok()) {
      routed_signature = *signature;
      std::vector<uint32_t> masks;
      masks.reserve(materialized_.size());
      for (const auto& view : materialized_) masks.push_back(view.mask);
      std::optional<uint32_t> best =
          rewriter_->PickBestView(*signature, masks, *profile_, nullptr);
      if (best.has_value()) {
        WallTimer rewrite_timer;
        SOFOS_ASSIGN_OR_RETURN(std::string rewritten,
                               rewriter_->RewriteToView(*signature, *best));
        if (rewrite_hist_ != nullptr) {
          rewrite_hist_->Record(rewrite_timer.ElapsedMicros());
        }
        outcome.used_view = true;
        outcome.view_mask = *best;
        outcome.executed_sparql = std::move(rewritten);
        if (view_hits_total_ != nullptr) view_hits_total_->Add();
        for (size_t i = 0; i < view_counters_.size(); ++i) {
          if (materialized_[i].mask != *best) continue;
          view_counters_[i].hits->Add();
          view_counters_[i].benefit_rows->Add(view_counters_[i].benefit_per_hit);
        }
      }
    }
    if (route_hist_ != nullptr) route_hist_->Record(route_timer.ElapsedMicros());
  }

  sparql::ExecOptions options;
  ScopedSpan exec_span(trace, "engine.exec", answer_span.id());
  options.trace = trace;
  options.trace_parent = exec_span.id();
  sparql::QueryEngine engine(&store_, options);
  WallTimer timer;
  // A routed query runs its rewritten text. Any other query runs the AST
  // parsed above; planning only assigns its aggregate slots, which the
  // recorder's AnalyzeQuery below does not read.
  SOFOS_ASSIGN_OR_RETURN(sparql::QueryResult result,
                         outcome.used_view
                             ? engine.Execute(outcome.executed_sparql)
                             : engine.Execute(&parsed));
  outcome.micros = timer.ElapsedMicros();
  exec_span.Close();
  if (exec_hist_ != nullptr) exec_hist_->Record(outcome.micros);
  if (queries_total_ != nullptr) queries_total_->Add();
  outcome.rows_scanned = result.stats.rows_scanned;
  outcome.result_rows = result.NumRows();
  outcome.result = std::move(result);

  if (recorder_ != nullptr && recorder_->enabled()) {
    RecordedQuery entry;
    entry.normalized_sparql = NormalizeSparql(sparql);
    entry.used_view = outcome.used_view;
    entry.view_mask = outcome.view_mask;
    entry.epoch = epoch_;
    entry.micros = outcome.micros;
    entry.result_rows = outcome.result_rows;
    if (routed_signature.has_value()) {
      entry.signature = *routed_signature;
      entry.has_signature = true;
    } else if (rewriter_.has_value()) {
      // Routing was skipped (views disallowed or none materialized); the
      // exported workload still wants the shape, so analyze it here.
      auto signature = rewriter_->AnalyzeQuery(parsed);
      if (signature.ok()) {
        entry.signature = std::move(signature).value();
        entry.has_signature = true;
      }
    }
    recorder_->Record(std::move(entry));
  }
  return outcome;
}

Result<std::string> EngineSnapshot::Explain(const std::string& sparql) const {
  sparql::QueryEngine engine(&store_);
  return engine.Explain(sparql);
}

Result<std::string> EngineSnapshot::Analyze(const std::string& sparql,
                                            bool allow_views) const {
  // Route exactly like Answer() so the analyzed plan is the plan a real
  // query would run, then execute with per-operator instrumentation.
  std::string executed = sparql;
  std::string routed_line;
  SOFOS_ASSIGN_OR_RETURN(sparql::Query parsed, sparql::Parser::Parse(sparql));
  if (allow_views && rewriter_.has_value() && !materialized_.empty() &&
      profile_.has_value()) {
    auto signature = rewriter_->AnalyzeQuery(parsed);
    if (signature.ok()) {
      std::vector<uint32_t> masks;
      masks.reserve(materialized_.size());
      for (const auto& view : materialized_) masks.push_back(view.mask);
      std::optional<uint32_t> best =
          rewriter_->PickBestView(*signature, masks, *profile_, nullptr);
      if (best.has_value()) {
        SOFOS_ASSIGN_OR_RETURN(executed,
                               rewriter_->RewriteToView(*signature, *best));
        routed_line = "ROUTED view=" + facet_->MaskLabel(*best) + "\n";
      }
    }
  }
  sparql::QueryEngine engine(&store_);
  SOFOS_ASSIGN_OR_RETURN(std::string text, engine.Analyze(executed));
  return routed_line + text;
}

std::string EngineSnapshot::RootViewSparql() const {
  return facet_->ViewQuerySparql(facet_->FullMask());
}

Result<QueryOutcome> SofosEngine::AnswerSparql(const std::string& sparql,
                                               bool allow_views,
                                               const CostModel* routing_model) {
  if (!facet_.has_value()) return Status::Internal("no facet set");
  WorkloadQuery query;
  query.id = "adhoc";
  query.sparql = sparql;

  // Surface parse errors immediately (they are user errors, not routing
  // decisions); shape mismatches merely disable view routing.
  WallTimer parse_timer;
  SOFOS_ASSIGN_OR_RETURN(sparql::Query parsed, sparql::Parser::Parse(sparql));
  parse_hist_->Record(parse_timer.ElapsedMicros());
  auto signature = rewriter_->AnalyzeQuery(parsed);
  if (signature.ok()) {
    query.signature = std::move(signature).value();
    return Answer(query, allow_views, routing_model);
  }
  return Answer(query, /*allow_views=*/false, routing_model);
}

Result<std::string> SofosEngine::ExplainSparql(const std::string& sparql) {
  if (!store_.finalized()) {
    return Status::Internal("ExplainSparql requires a loaded store");
  }
  sparql::QueryEngine engine(&store_);
  return engine.Explain(sparql);
}

double SofosEngine::StorageAmplification() const {
  if (base_triples_ == 0) return 1.0;
  return static_cast<double>(store_.NumTriples()) /
         static_cast<double>(base_triples_);
}

}  // namespace core
}  // namespace sofos
