#ifndef SOFOS_CORE_ENGINE_H_
#define SOFOS_CORE_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/latency_histogram.h"
#include "common/metrics_registry.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/base_graph.h"
#include "core/cost_model.h"
#include "core/facet.h"
#include "core/lattice.h"
#include "core/maintenance/delta.h"
#include "core/maintenance/staleness.h"
#include "core/maintenance/view_maintainer.h"
#include "core/materializer.h"
#include "core/profiler.h"
#include "core/rewriter.h"
#include "core/root_table.h"
#include "core/selection.h"
#include "core/workload_recorder.h"
#include "core/workload_types.h"
#include "rdf/triple_store.h"
#include "sparql/query_engine.h"

namespace sofos {

class TraceContext;

namespace core {

/// Result of answering one workload query through the online module.
struct QueryOutcome {
  std::string query_id;
  bool used_view = false;
  uint32_t view_mask = 0;          // valid when used_view
  std::string executed_sparql;     // the query actually run (rewritten or not)
  double micros = 0.0;
  uint64_t rows_scanned = 0;
  uint64_t result_rows = 0;
  sparql::QueryResult result;      // decoded answers (for verification)
};

/// Aggregated workload statistics (GUI panel ④ "Query performance
/// analyzer").
///
/// Wall-clock vs. CPU time: `wall_micros` is the elapsed time of the whole
/// batch; `total_micros` is the sum of per-query execution times, i.e. the
/// aggregate CPU spent answering (each query runs on one thread). With the
/// batched parallel runner wall < cpu shows the speedup directly; a serial
/// run has wall ≈ cpu. Reporting them separately keeps speedups visible
/// and prevents double-counting parallel work as if it were latency.
struct WorkloadReport {
  std::vector<QueryOutcome> outcomes;
  double wall_micros = 0.0;   // elapsed batch time
  double total_micros = 0.0;  // aggregate per-query CPU micros
  double mean_micros = 0.0;
  double median_micros = 0.0;
  double p95_micros = 0.0;
  /// Per-query latency distribution in the same fixed-bucket shape the
  /// online server's STATS endpoint reports (common/latency_histogram.h),
  /// so offline runs and live serving quote comparable p50/p95/p99.
  /// `median_micros`/`p95_micros` above stay the exact order statistics;
  /// these are the bucketed estimates.
  LatencyHistogram::Snapshot latency;
  /// Cumulative PublishSnapshot() latency of the owning engine at report
  /// time (same shape as the server STATS `publish` section) — zero-count
  /// when the engine never published. Makes the O(changed shards) snapshot
  /// cost observable next to query latencies.
  LatencyHistogram::Snapshot publish;
  uint64_t view_hits = 0;
  uint64_t total_rows_scanned = 0;

  std::string Summary() const;
};

/// Result of applying one update batch through the maintenance subsystem.
struct UpdateOutcome {
  uint64_t adds_applied = 0;     // base triples actually inserted
  uint64_t deletes_applied = 0;  // base triples actually removed
  maintenance::MaintenanceReport maintenance;
  double staleness = 0.0;            // drift after this batch
  bool reselect_recommended = false;  // drift crossed the threshold
  double total_micros = 0.0;

  std::string Summary() const;
};

/// An immutable, self-contained copy of everything needed to answer
/// queries at one point in the engine's mutation history (one *epoch*):
/// the graph (base + view encodings), the facet, the lattice profile used
/// for view routing, and the materialized-view records. Snapshots are the
/// engine's read view for concurrent online serving — sessions resolve the
/// current snapshot with SofosEngine::CurrentSnapshot() and run against it
/// while the engine (single writer) keeps applying deltas and re-selections
/// to its live state; after each mutation the server publishes a fresh
/// snapshot and the old one dies with its last in-flight query
/// (shared_ptr). No reader ever blocks on a writer and vice versa.
///
/// Thread safety: Answer()/Explain() are safe from any number of threads
/// concurrently — they only do const scans over the snapshot's COW-cloned
/// store plus internally synchronized dictionary interning (aggregate
/// literals). The dictionary is *shared* with the live engine store
/// (append-only, ids never change — what makes PublishSnapshot O(changed
/// shards) instead of O(dictionary)); the known cost is that literals
/// computed by snapshot queries intern into the engine-wide dictionary
/// and outlive the snapshot (see the ROADMAP's overlay-dictionary
/// follow-up). Each query runs on its caller's thread: the server's
/// parallelism axis is sessions.
class EngineSnapshot {
 public:
  /// Monotone mutation counter of the owning engine at capture time; the
  /// result-cache key component that invalidates cached answers when the
  /// graph or the selection changes.
  uint64_t epoch() const { return epoch_; }

  uint64_t num_triples() const { return store_.NumTriples(); }
  bool has_facet() const { return facet_.has_value(); }
  const std::vector<MaterializedView>& materialized() const {
    return materialized_;
  }

  /// Answers raw SPARQL against this snapshot, routing through the
  /// snapshot's materialized views when `allow_views` (same semantics as
  /// SofosEngine::AnswerSparql, pinned to this epoch). Deterministic:
  /// repeated calls return byte-identical decoded results. When `trace`
  /// is non-null, records phase spans (parse / route / exec plus the
  /// executor's subtree) into it — the server's TRACE verb.
  Result<QueryOutcome> Answer(const std::string& sparql, bool allow_views,
                              TraceContext* trace = nullptr) const;

  /// Logical plan + physical schedule of `sparql` over this snapshot.
  Result<std::string> Explain(const std::string& sparql) const;

  /// EXPLAIN ANALYZE over this snapshot: routes like Answer() (a routed
  /// query is analyzed in its rewritten form, with a leading "ROUTED
  /// view=..." line), executes with per-operator instrumentation, and
  /// returns the annotated plan text. It runs on the caller's thread like
  /// every query, so per-operator self times sum to ~exec_micros.
  Result<std::string> Analyze(const std::string& sparql,
                              bool allow_views) const;

  /// The facet's root-view query (EXPLAIN's default target). Requires
  /// has_facet().
  std::string RootViewSparql() const;

 private:
  friend class SofosEngine;
  EngineSnapshot() = default;

  uint64_t epoch_ = 0;
  /// Mutable: Execute() interns freshly computed aggregate literals into
  /// the snapshot's own dictionary, which is internally synchronized.
  mutable TripleStore store_;
  std::optional<Facet> facet_;
  std::optional<Rewriter> rewriter_;  // bound to facet_ (never moves)
  std::optional<LatticeProfile> profile_;
  std::vector<MaterializedView> materialized_;
  /// The owning engine's phase instruments, so snapshot-served queries
  /// land in the same METRICS the engine's own entry points feed. Null in
  /// never-published snapshots; valid while the owning engine lives (the
  /// server owns both, engine outlasting its snapshots).
  LatencyHistogram* parse_hist_ = nullptr;
  LatencyHistogram* route_hist_ = nullptr;
  LatencyHistogram* rewrite_hist_ = nullptr;
  LatencyHistogram* exec_hist_ = nullptr;
  MetricCounter* queries_total_ = nullptr;
  MetricCounter* view_hits_total_ = nullptr;
  /// Per materialized view, parallel to materialized_: its labeled
  /// sofos_view_{hits,benefit_rows}_total counters and the benefit rows one
  /// hit adds under this snapshot's profile (root rows minus view rows).
  /// Resolved once by PublishSnapshot; empty in never-published snapshots.
  struct ViewCounters {
    MetricCounter* hits = nullptr;
    MetricCounter* benefit_rows = nullptr;
    uint64_t benefit_per_hit = 0;
  };
  std::vector<ViewCounters> view_counters_;
  /// The owning engine's workload recorder (same lifetime argument as the
  /// instruments above): snapshot-served queries append their routing outcome so
  /// the recorded workload covers live traffic, not just the engine's own
  /// entry points. Null in never-published snapshots.
  WorkloadRecorder* recorder_ = nullptr;
};

/// The SOFOS system facade (paper Figure 2): owns the knowledge graph, the
/// facet, the offline module (profiling, view selection, materialization),
/// the online module (query routing, rewriting, measurement), and the
/// maintenance subsystem (incremental updates, view roll-up maintenance,
/// staleness-driven re-selection).
///
/// Threading model: the engine owns one fixed-size ThreadPool, sized by
/// SetNumThreads (default: hardware_concurrency; 1 = exact legacy serial
/// behavior, no pool is created). The pool accelerates the read-only hot
/// paths — Profile() fans lattice nodes out, SelectViews() fans candidate
/// evaluation out, RunWorkload() executes independent workload queries
/// concurrently — all over const TripleStore scans plus the internally
/// synchronized dictionary (see rdf/triple_store.h for the store contract).
/// Results are reduced in deterministic order, so every engine result is
/// independent of the thread count; only timing fields differ. Each query
/// runs on one thread. Mutating entry points (LoadStore, MaterializeViews,
/// ApplyUpdates, Drop...) remain single-threaded and must not run
/// concurrently with anything else. The engine itself is not a thread-safe object: callers drive it
/// from one thread and the engine parallelizes internally.
///
/// Typical flow:
///   SofosEngine engine;
///   engine.LoadStore(std::move(store));           // finalized graph G
///   engine.SetFacet(facet);
///   engine.Profile();                             // lattice statistics
///   auto model = engine.MakeModel(CostModelKind::kTripleCount);
///   auto sel = engine.SelectViews(**model, k);
///   engine.MaterializeSelection(*sel);            // G → G+
///   auto report = engine.RunWorkload(queries, /*allow_views=*/true);
class SofosEngine {
 public:
  SofosEngine() = default;

  /// Takes ownership of a finalized base graph G and snapshots it so that
  /// materialized views can be dropped later.
  Status LoadStore(TripleStore&& store);

  /// Loads a Turtle/N-Triples file as the base graph (convenience wrapper
  /// around TurtleParser + LoadStore).
  Status LoadGraphFile(const std::string& path);

  /// Serializes the *current* graph — G, or G+ with all view encodings —
  /// as canonical N-Triples. A reloaded G+ answers rewritten queries
  /// identically, so materializations can be shipped to another process.
  Status ExportGraphFile(const std::string& path) const;

  Status SetFacet(Facet facet);

  /// Sizes the engine's thread pool. 0 = auto (hardware_concurrency);
  /// 1 = strictly serial legacy behavior (no pool, no worker threads).
  /// Takes effect on the next parallel entry point; safe to change between
  /// (not during) operations.
  void SetNumThreads(unsigned num_threads);
  /// The resolved thread count (auto already expanded).
  unsigned num_threads() const;

  /// Sets the store's hash-shard count (TripleStore::SetShardCount): the
  /// number of copy-on-write buckets per index family. 0 = auto — the
  /// smallest power of two >= the resolved thread count (capped at 64), so
  /// per-shard rebuilds saturate the pool. Takes effect immediately on a
  /// loaded store (pool-parallel repartition) and is re-applied by every
  /// LoadStore. Results never depend on this knob (the store's
  /// shard-invariance contract) — it trades Finalize/ApplyDelta/publish
  /// cost only.
  void SetShardCount(unsigned shard_count);
  unsigned shard_count() const { return shard_count_; }
  /// The shard count LoadStore would apply right now (auto expanded).
  unsigned ResolvedShardCount() const;

  /// Index layout policy, applied to the loaded store and re-applied by
  /// every LoadStore: kSorted keeps the classic sorted-run indexes and the
  /// plain dictionary; kCompact switches the object index family to the
  /// CSR adjacency layout and front-codes the dictionary
  /// (TripleStore::SetCompactLayout + Dictionary::SetFrontCoding — about
  /// half the bytes/triple at million-triple scale); kAuto picks compact
  /// once the store holds at least kCompactAutoTriples triples, so the
  /// bundled demo-sized graphs keep the historical layout byte-for-byte
  /// while big graphs get the small one. Results are layout-invariant by
  /// the store contract either way.
  enum class StoreLayout { kAuto = 0, kSorted, kCompact };
  /// kAuto threshold: 262144 triples — comfortably above every bundled
  /// demo/full dataset, well below the 1M+ scale tier.
  static constexpr uint64_t kCompactAutoTriples = 1ull << 18;
  /// Applies immediately on a loaded store (pool-parallel rebuild). Must
  /// run on the engine's single driver thread with no snapshot queries in
  /// flight: the dictionary re-encode invalidates term() references held
  /// by concurrent readers (results already decoded are unaffected).
  void SetStoreLayout(StoreLayout layout);
  StoreLayout store_layout() const { return store_layout_; }

  TripleStore* store() { return &store_; }
  const Facet& facet() const { return *facet_; }
  const Lattice& lattice() const { return *lattice_; }
  bool has_facet() const { return facet_.has_value(); }

  /// ---- Offline module ----

  /// Computes (or recomputes) the lattice profile: one evaluation of the
  /// root view, rolled up into every other view. The root table it builds
  /// is kept for MaterializeViews and the maintainer.
  Result<const LatticeProfile*> Profile(const ProfileOptions& options = {});
  const LatticeProfile* profile() const {
    return profile_.has_value() ? &*profile_ : nullptr;
  }

  /// Instantiates a cost model. kLearned requires SetLearnedModel() first;
  /// kUserDefined requires explicit costs via MakeUserModel.
  Result<std::unique_ptr<CostModel>> MakeModel(CostModelKind kind) const;

  /// Registers a trained MLP for kLearned (see core/training.h).
  void SetLearnedModel(std::shared_ptr<learned::Mlp> mlp);
  bool has_learned_model() const { return learned_mlp_ != nullptr; }

  /// Runs greedy selection under `model` with budget `k`.
  Result<SelectionResult> SelectViews(const CostModel& model, size_t k,
                                      const QueryWeights* weights = nullptr,
                                      uint64_t seed = 42) const;

  /// Materializes the selected views into G+ and records them for routing.
  Result<std::vector<MaterializedView>> MaterializeSelection(
      const SelectionResult& selection);

  /// Materializes explicit masks (the "user selected views" demo step),
  /// rolled up from the root table Profile() left, or from one fresh root
  /// evaluation when the graph changed since.
  Result<std::vector<MaterializedView>> MaterializeViews(
      const std::vector<uint32_t>& masks);

  /// Rolls G+ back to the base graph G (rebuilt from base_snapshot()) and
  /// forgets materializations.
  Status DropMaterializedViews();

  /// ---- Maintenance subsystem (incremental path) ----

  /// Applies one update batch to the base graph through the store's
  /// staged-delta merge (no six-way re-sort) and incrementally repairs
  /// every materialized view's roll-up encoding (see
  /// maintenance::ViewMaintainer). The batch is normalized once against
  /// the current graph ((G \ D) ∪ A: adds already present and deletes of
  /// absent or re-added triples drop out); that effective delta gives
  /// `adds_applied`/`deletes_applied` and feeds the maintainer. In delta
  /// mode the maintainer evaluates the delta rule before anything merges,
  /// and the base delta and the encoding edits merge in one
  /// TripleStore::ApplyDelta — a maintenance error then merges nothing. In
  /// full mode (and on the algebra's consistency fallback) the base delta
  /// merges first, the root is recomputed over it, and the encoding edits
  /// merge second. The lattice profile is deliberately NOT
  /// recomputed — its growing staleness is tracked by the
  /// StalenessMonitor, and `reselect_recommended` tells the caller when
  /// re-running Profile()/SelectViews()/Materialize* is worth it (the
  /// paper's evolving-KG challenge). Deltas must not touch the reserved
  /// sofos: encoding vocabulary. Works with or without materialized views.
  /// Under MaintainOptions::Mode::kForceFull every batch re-evaluates the
  /// root view and diffs it: the full-recompute path.
  Result<UpdateOutcome> ApplyUpdates(const maintenance::GraphDelta& delta);

  /// Staleness of the current selection relative to the last Profile().
  const maintenance::StalenessMonitor& staleness_monitor() const {
    return staleness_;
  }
  /// Tunes the re-selection trigger (takes effect on the next baseline).
  void SetStalenessOptions(const maintenance::StalenessOptions& options);

  /// Maintenance-mode policy forwarded to the ViewMaintainer (created
  /// lazily by ApplyUpdates): force delta/full, or tune the automatic
  /// delta-vs-full cost crossover.
  void SetMaintainOptions(const maintenance::MaintainOptions& options);
  const maintenance::MaintainOptions& maintain_options() const {
    return maintain_options_;
  }

  /// Update-aware selection knob: expected update batches per query
  /// window. When > 0, SelectViews subtracts each candidate's expected
  /// maintenance cost (scaled by the measured Δ-bindings rate) from its
  /// greedy benefit — the update-aware refinement of HRU benefit
  /// (Goasdoué et al.). 0 (the default) keeps selection byte-identical
  /// to the classic greedy.
  void SetUpdateRate(double update_rate) { update_rate_ = update_rate; }
  double update_rate() const { return update_rate_; }

  /// EWMA of the measured Δ-bindings per maintenance pass — the
  /// bindings_per_update signal of update-aware selection. 0 until the
  /// first maintained update batch.
  double avg_delta_bindings() const { return avg_delta_bindings_; }

  /// The base graph G: a read-only view of the store without its view
  /// encodings (SPO order, rank access, iteration, membership), pinned to
  /// the current state. Nothing is copied; the encoding-block index it
  /// needs is rebuilt on each call. Update-stream generators sample from
  /// this.
  BaseGraphView base_snapshot() const { return BaseGraphView(store_); }

  const std::vector<MaterializedView>& materialized() const {
    return materialized_;
  }
  std::vector<uint32_t> MaterializedMasks() const;

  /// ---- Online serving: epoch snapshots ----

  /// Monotone counter of queryable-state mutations: every entry point that
  /// changes what a query could answer (LoadStore, SetFacet, Profile,
  /// Materialize*, Drop, ApplyUpdates) bumps it. The result cache keys on
  /// it, so an epoch bump implicitly invalidates all cached answers.
  uint64_t epoch() const { return epoch_; }

  /// Clones the current queryable state into a fresh EngineSnapshot and
  /// atomically swaps it in as the published read view (no-op returning the
  /// existing snapshot when the epoch hasn't moved). Must be called from
  /// the engine's single driver thread like every other mutating entry
  /// point; concurrent CurrentSnapshot() readers are fine. Requires a
  /// loaded, finalized store.
  Result<std::shared_ptr<const EngineSnapshot>> PublishSnapshot();

  /// The last published read view (may lag epoch(); null before the first
  /// PublishSnapshot). Safe from any thread.
  std::shared_ptr<const EngineSnapshot> CurrentSnapshot() const;

  /// Latency distribution of the snapshot builds PublishSnapshot()
  /// actually performed (epoch no-ops are not recorded). Safe from any
  /// thread (lock-free histogram); the server's STATS endpoint surfaces it
  /// as the `publish` section. The histogram lives in metrics() under
  /// `sofos_engine_publish_micros`.
  LatencyHistogram::Snapshot publish_latency() const {
    return publish_hist_->TakeSnapshot();
  }

  /// ---- Observability ----

  /// The engine's metrics registry: engine phase latencies
  /// (sofos_engine_{parse,rewrite,route,exec,maintain,publish}_micros),
  /// work counters (queries/updates/adds/deletes/view hits/reselects),
  /// per-view hit and benefit counters (sofos_view_*_total{view="..."}),
  /// and state gauges (epoch, triples, staleness drift) — everything the
  /// server's METRICS verb exposes, plus whatever collectors the server
  /// registers on top (endpoint SLOs, result cache). Record paths are
  /// lock-free; safe from any thread. The accessor is const because
  /// logically-read-only entry points also count their work.
  MetricsRegistry* metrics() const { return &metrics_; }

  /// The engine's workload recorder: the bounded log of answered queries
  /// (normalized text + routing decision + latency) that snapshot-served
  /// traffic appends to, exportable as a replayable workload for
  /// re-profiling against observed traffic. Enabled by default; the
  /// server/CLI toggle it. Safe from any thread. Const for the same
  /// reason metrics() is.
  WorkloadRecorder* recorder() const { return &recorder_; }

  /// ---- Online module ----

  /// Answers one query: picks the best usable materialized view (when
  /// `allow_views`), rewrites, executes and measures. `routing_model`
  /// overrides the default routing heuristic (fewest result rows).
  Result<QueryOutcome> Answer(const WorkloadQuery& query, bool allow_views,
                              const CostModel* routing_model = nullptr);

  Result<WorkloadReport> RunWorkload(const std::vector<WorkloadQuery>& queries,
                                     bool allow_views,
                                     const CostModel* routing_model = nullptr);

  /// Ad-hoc entry point for raw SPARQL text: parses the query, extracts its
  /// facet signature (Rewriter::AnalyzeQuery), and routes it like Answer().
  /// Queries that do not match the facet's analytical shape (different
  /// pattern variables, non-dimension grouping, ...) are executed
  /// unrewritten against the current graph — never an error, possibly
  /// slower. This is the paper's online module for a user-typed query.
  Result<QueryOutcome> AnswerSparql(const std::string& sparql,
                                    bool allow_views = true,
                                    const CostModel* routing_model = nullptr);

  /// Renders the logical plan plus the physical batch line (join
  /// algorithms, leaf rows, batch size) the engine would execute `sparql`
  /// with — the CLI's `explain` command.
  Result<std::string> ExplainSparql(const std::string& sparql);

  /// ---- Storage metrics ----

  /// |G|: kept as a counter across loads and updates, so it costs
  /// nothing to read (base_snapshot().size() is the same number).
  uint64_t BaseTriples() const { return base_triples_; }
  uint64_t CurrentTriples() const { return store_.NumTriples(); }
  uint64_t BaseBytes() const { return base_bytes_; }
  uint64_t CurrentBytes() const { return store_.MemoryBytes(); }
  /// Triples of G+ relative to G (>= 1; the demo's "space amplification").
  double StorageAmplification() const;

 private:
  /// The pool serving parallel sections, or nullptr when the effective
  /// thread count is 1. Lazily (re)built; mutable because const read-only
  /// entry points (SelectViews) also fan out.
  ThreadPool* pool() const;

  /// Brings the loaded store's shard layout and dictionary encoding in
  /// line with store_layout_ (no-op when already there or not finalized).
  void ApplyStoreLayout();

  /// The facet's root table over the current graph: the one Profile() or
  /// an earlier call left, else one fresh root evaluation.
  Result<RootTable*> CurrentRootTable();

  /// True when the facet pattern can match view-encoding triples (a
  /// variable predicate or one in the reserved sofos: namespace), so that
  /// materializing or dropping views changes the root table.
  bool PatternSeesEncodings() const;

  /// Refreshes the registry's state gauges (epoch, triple counts,
  /// materialized-view count, staleness drift, storage amplification).
  /// Called from every mutating entry point after the state settles, so
  /// METRICS always reflects the last completed mutation rather than
  /// racing a concurrent one.
  void RecordStateGauges();

  TripleStore store_;
  uint64_t base_triples_ = 0;  // |G|; see BaseTriples()
  uint64_t base_bytes_ = 0;
  std::optional<Facet> facet_;
  std::optional<Lattice> lattice_;
  std::optional<LatticeProfile> profile_;
  /// The root table of the current graph, shared by profiling,
  /// materialization and maintenance (core/root_table.h). Profile() builds
  /// it, MaterializeViews reuses it, and the first ApplyUpdates hands it to
  /// the maintainer, which keeps its own copy current from then on. Every
  /// other change to the graph drops it.
  std::optional<RootTable> root_table_;
  std::optional<Rewriter> rewriter_;
  std::unique_ptr<Materializer> materializer_;
  std::vector<MaterializedView> materialized_;
  /// Lazily built on the first ApplyUpdates with views present; any
  /// operation that rebuilds or drops view encodings invalidates it.
  std::unique_ptr<maintenance::ViewMaintainer> maintainer_;
  maintenance::MaintainOptions maintain_options_;
  maintenance::StalenessMonitor staleness_;
  double update_rate_ = 0.0;        // 0 = classic (update-oblivious) greedy
  double avg_delta_bindings_ = 0.0; // EWMA over maintained batches
  std::shared_ptr<learned::Mlp> learned_mlp_;
  unsigned num_threads_ = 0;  // 0 = auto (hardware_concurrency)
  unsigned shard_count_ = 0;  // 0 = auto (pool-size-derived power of two)
  StoreLayout store_layout_ = StoreLayout::kAuto;
  mutable std::unique_ptr<ThreadPool> pool_;
  uint64_t epoch_ = 0;
  /// Registry first, then the cached instrument pointers it hands out
  /// (deque-backed, stable for the registry's lifetime). Mutable for the
  /// same reason pool_ is: const read paths record their latencies.
  mutable MetricsRegistry metrics_;
  mutable WorkloadRecorder recorder_;
  LatencyHistogram* parse_hist_ = metrics_.Histogram("sofos_engine_parse_micros");
  LatencyHistogram* rewrite_hist_ =
      metrics_.Histogram("sofos_engine_rewrite_micros");
  LatencyHistogram* route_hist_ = metrics_.Histogram("sofos_engine_route_micros");
  LatencyHistogram* exec_hist_ = metrics_.Histogram("sofos_engine_exec_micros");
  LatencyHistogram* maintain_hist_ =
      metrics_.Histogram("sofos_engine_maintain_micros");
  LatencyHistogram* maintain_bindings_hist_ =
      metrics_.Histogram("sofos_engine_maintain_delta_bindings");
  LatencyHistogram* publish_hist_ =
      metrics_.Histogram("sofos_engine_publish_micros");
  MetricCounter* queries_total_ = metrics_.Counter("sofos_engine_queries_total");
  MetricCounter* view_hits_total_ =
      metrics_.Counter("sofos_engine_view_hits_total");
  MetricCounter* updates_total_ = metrics_.Counter("sofos_engine_updates_total");
  MetricCounter* adds_applied_total_ =
      metrics_.Counter("sofos_engine_adds_applied_total");
  MetricCounter* deletes_applied_total_ =
      metrics_.Counter("sofos_engine_deletes_applied_total");
  MetricCounter* reselect_recommended_total_ =
      metrics_.Counter("sofos_engine_reselect_recommended_total");
  MetricCounter* maintain_mode_delta_total_ =
      metrics_.Counter("sofos_maintain_mode_total{mode=\"delta\"}");
  MetricCounter* maintain_mode_full_total_ =
      metrics_.Counter("sofos_maintain_mode_total{mode=\"full\"}");
  MetricCounter* maintain_mode_skip_total_ =
      metrics_.Counter("sofos_maintain_mode_total{mode=\"skip\"}");
  MetricCounter* publishes_total_ =
      metrics_.Counter("sofos_engine_publishes_total");
  MetricCounter* view_queries_total_ =
      metrics_.Counter("sofos_engine_view_queries_total");
  mutable std::mutex snapshot_mu_;  // guards snapshot_ (the published slot)
  std::shared_ptr<const EngineSnapshot> snapshot_;
};

/// "auto" | "sorted" | "compact" (the CLI's `layout` command).
Result<SofosEngine::StoreLayout> ParseStoreLayout(const std::string& name);
std::string StoreLayoutName(SofosEngine::StoreLayout layout);

}  // namespace core
}  // namespace sofos

#endif  // SOFOS_CORE_ENGINE_H_
